"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE PASS/FAIL: <criterion>`` line (visible with
``pytest tests/test_acceptance.py -s``) and pins the tolerance at which the
criterion is stated.  Reference-value checks use +/-0.001, the precision at
which those values are printed; property suites use the tolerances given
inline.  The experiment-backed criteria run N = 10^4 replications at a
fixed seed, a desk-scale stand-in for the published 10^6-replication runs.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paircomp import (
    DataMatrix,
    ExpectedValueVector,
    ModelKind,
    SimulationConfig,
    bt_mle,
    em,
    enumerate_connected,
    error_bound,
    exact_probabilities,
    llsm,
    log_likelihood,
    log_likelihood_gradient,
    mm_step,
    pcm_from_data,
    run,
    star_class,
    weights_from_m,
)
from paircomp.simulation import HIGHER_IS_BETTER, MEASURE_NAMES
from tests.conftest import GOLDEN_TOL, random_connected_graph, random_merits

EXPERIMENT_SEED = 20260810


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def experiment_n4():
    started = time.perf_counter()
    summary = run(
        SimulationConfig(n=4, perturb=0.15, num_sims=10_000, seed=EXPERIMENT_SEED)
    )
    return summary, time.perf_counter() - started


@pytest.fixture(scope="module")
def experiment_n5():
    return run(SimulationConfig(n=5, perturb=0.15, num_sims=10_000, seed=EXPERIMENT_SEED))


@pytest.fixture(scope="module")
def experiment_n4_normal():
    return run(
        SimulationConfig(
            n=4, perturb=0.15, num_sims=10_000, seed=EXPERIMENT_SEED, model=ModelKind.NORMAL
        )
    )


@pytest.fixture(scope="module")
def experiment_n5_normal():
    return run(
        SimulationConfig(
            n=5, perturb=0.15, num_sims=10_000, seed=EXPERIMENT_SEED, model=ModelKind.NORMAL
        )
    )


def permute_data(data: DataMatrix, perm) -> DataMatrix:
    entries = {}
    for (i, j), (d1, d2) in data.entries.items():
        a, b = int(perm[i]), int(perm[j])
        entries[(min(a, b), max(a, b))] = (d1, d2) if a < b else (d2, d1)
    return DataMatrix(data.n, entries)


def relabeled_inputs():
    """Fifty random connected data sets (seed 909, n = 3..6), each with a
    random relabeling: (data, perm, relabeled data)."""
    rng = np.random.default_rng(909)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        graph = random_connected_graph(rng, n)
        entries = {
            pair: (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            for pair in graph.sorted_edges()
        }
        data = DataMatrix(n, entries)
        perm = rng.permutation(n)
        yield data, perm, permute_data(data, perm)


def test_golden_consistent_worked_example(sports_counts, sports_ratios):
    with criterion("golden consistent example: BT, LLSM and EM coincide"):
        started = time.perf_counter()
        result = bt_mle(sports_counts)
        assert_allclose(result.m.values, [0.0, -0.693, -0.693, 0.0], atol=GOLDEN_TOL)
        expected = [1 / 3, 1 / 6, 1 / 6, 1 / 3]
        assert_allclose(weights_from_m(result.m).values, expected, atol=GOLDEN_TOL)
        assert_allclose(llsm(sports_ratios).values, expected, atol=GOLDEN_TOL)
        assert_allclose(em(sports_ratios).weights.values, expected, atol=GOLDEN_TOL)
        assert time.perf_counter() - started < 1.0


def test_golden_inconsistent_complete(probs_modified, ratios_modified):
    with criterion("golden inconsistent complete: LLSM, EM, BT reference vectors"):
        assert_allclose(
            llsm(ratios_modified).values, [0.105, 0.135, 0.276, 0.484], atol=GOLDEN_TOL
        )
        assert_allclose(
            em(ratios_modified).weights.values,
            [0.103, 0.132, 0.279, 0.485],
            atol=GOLDEN_TOL,
        )
        result = bt_mle(probs_modified)
        assert_allclose(result.m.values, [0.0, 0.246, 0.954, 1.450], atol=GOLDEN_TOL)
        assert_allclose(
            weights_from_m(result.m).values,
            [0.109, 0.140, 0.284, 0.466],
            atol=GOLDEN_TOL,
        )


def test_golden_inconsistent_incomplete(probs_incomplete, ratios_incomplete):
    with criterion("golden inconsistent incomplete: LLSM, EM, BT reference vectors"):
        assert_allclose(
            llsm(ratios_incomplete).values, [0.106, 0.136, 0.301, 0.457], atol=GOLDEN_TOL
        )
        assert_allclose(
            em(ratios_incomplete).weights.values,
            [0.107, 0.134, 0.302, 0.458],
            atol=GOLDEN_TOL,
        )
        result = bt_mle(probs_incomplete)
        assert_allclose(result.m.values, [0.0, 0.250, 1.017, 1.366], atol=GOLDEN_TOL)
        assert_allclose(
            weights_from_m(result.m).values,
            [0.112, 0.143, 0.308, 0.437],
            atol=GOLDEN_TOL,
        )


def test_exact_probability_recovery_suite():
    with criterion("exact-probability recovery: 200 cases, three methods agree"):
        started = time.perf_counter()
        rng = np.random.default_rng(808)
        for case in range(200):
            n = 4 + case % 3
            graph = random_connected_graph(rng, n)
            m0 = random_merits(rng, n)
            data = exact_probabilities(
                ExpectedValueVector(m0), graph, ModelKind.LOGISTIC
            )
            recovered = bt_mle(data).m.values
            assert np.max(np.abs(recovered - m0)) < 1e-6
            weights = weights_from_m(bt_mle(data).m).values
            pcm = pcm_from_data(data)
            assert np.max(np.abs(weights - llsm(pcm).values)) < 1e-6
            assert np.max(np.abs(weights - em(pcm).weights.values)) < 1e-6
        assert time.perf_counter() - started < 30.0


def test_graph_catalog():
    with criterion("graph catalog: 6/21/112 classes, n=4 profile (2,2,1,1)"):
        enumerate_connected.cache_clear()
        started = time.perf_counter()
        assert len(enumerate_connected(4)) == 6
        assert len(enumerate_connected(5)) == 21
        assert len(enumerate_connected(6)) == 112
        profile = {}
        for cls in enumerate_connected(4):
            profile[cls.edge_count] = profile.get(cls.edge_count, 0) + 1
        assert profile == {3: 2, 4: 2, 5: 1, 6: 1}
        assert time.perf_counter() - started < 60.0


def _ranking(summary, ids, measure):
    reverse = HIGHER_IS_BETTER[measure]
    return tuple(sorted(ids, key=lambda i: summary.mean(i, measure), reverse=reverse))


def test_scaled_experiment_reproduction(experiment_n4):
    with criterion("scaled experiment: star optimal, measure-independent ranking, "
                   "edge-count dominance (n=4)"):
        summary, _ = experiment_n4
        classes = summary.classes
        star_id = star_class(4).id
        trees = [c.id for c in classes if c.edge_count == 3]
        assert star_id in trees and len(trees) == 2

        # (a) The star beats the other spanning tree on all six mean measures.
        other = next(i for i in trees if i != star_id)
        for measure in MEASURE_NAMES:
            star_value = summary.mean(star_id, measure)
            other_value = summary.mean(other, measure)
            if HIGHER_IS_BETTER[measure]:
                assert star_value > other_value, measure
            else:
                assert star_value < other_value, measure

        # (b) Every measure ranks the five incomplete structures identically.
        incomplete = [c.id for c in classes if c.edge_count < 6]
        rankings = {_ranking(summary, incomplete, m) for m in MEASURE_NAMES}
        assert len(rankings) == 1

        # (c) The weakest 4-edge structure beats the best 3-edge structure.
        for measure in MEASURE_NAMES:
            three = [summary.mean(i, measure) for i in trees]
            four = [
                summary.mean(c.id, measure) for c in classes if c.edge_count == 4
            ]
            if HIGHER_IS_BETTER[measure]:
                assert min(four) > max(three), measure
            else:
                assert max(four) < min(three), measure

        # Best-structure curve: more comparisons, smaller weight distance.
        best_curve = [
            min(summary.mean(c.id, "eu_w") for c in classes if c.edge_count == e)
            for e in range(3, 7)
        ]
        assert all(a > b for a, b in zip(best_curve, best_curve[1:]))


def test_experiment_runtime_budget(experiment_n4):
    with criterion("scaled experiment fits the runtime budget"):
        _, elapsed = experiment_n4
        assert elapsed < 600.0


def test_monotone_information_gain(experiment_n5):
    with criterion("monotonicity in the edge count (n=5 best-structure curve)"):
        summary = experiment_n5
        best_distance = []
        best_tau = []
        for edges in range(4, 11):
            ids = [c.id for c in summary.classes if c.edge_count == edges]
            assert ids
            best_distance.append(min(summary.mean(i, "eu_w") for i in ids))
            best_tau.append(max(summary.mean(i, "tau") for i in ids))
        assert all(a > b for a, b in zip(best_distance, best_distance[1:]))
        assert all(a < b for a, b in zip(best_tau, best_tau[1:]))


def _winner(summary, edges, measure):
    ids = [c.id for c in summary.classes if c.edge_count == edges]
    return _ranking(summary, ids, measure)[0]


def test_same_structures_win_under_both_models(
    experiment_n4, experiment_n4_normal, experiment_n5, experiment_n5_normal
):
    with criterion("one optimal structure per edge count under Bradley-Terry and "
                   "Thurstone, for all six measures (n=4, n=5)"):
        for logistic, normal in (
            (experiment_n4[0], experiment_n4_normal),
            (experiment_n5, experiment_n5_normal),
        ):
            n = logistic.config.n
            for edges in range(n - 1, n * (n - 1) // 2 + 1):
                winners = {
                    _winner(summary, edges, measure)
                    for summary in (logistic, normal)
                    for measure in MEASURE_NAMES
                }
                assert len(winners) == 1, (n, edges, winners)


def test_invariance_suite(probs_modified):
    with criterion("invariance: data scaling, relabeling, monotone ascent"):
        base = bt_mle(probs_modified).m.values
        for factor in (0.5, 3.0, 100.0):
            scaled = bt_mle(probs_modified.scaled(factor)).m.values
            assert np.max(np.abs(scaled - base)) < 1e-9

        for data, perm, permuted in relabeled_inputs():
            m_base = bt_mle(data).m.values
            m_perm = bt_mle(permuted).m.values
            gaps_base = m_base[:, None] - m_base[None, :]
            gaps_perm = m_perm[perm][:, None] - m_perm[perm][None, :]
            assert np.max(np.abs(gaps_base - gaps_perm)) < 1e-8

            pcm, pcm_perm = pcm_from_data(data), pcm_from_data(permuted)
            assert np.max(np.abs(llsm(pcm).values - llsm(pcm_perm).values[perm])) < 1e-9
            # The criterion's stated tolerance; test_em_relabeling_invariance_at_1e9
            # pins the same inputs to 1e-9.
            assert (
                np.max(np.abs(em(pcm).weights.values - em(pcm_perm).weights.values[perm]))
                < 1e-6
            )

        pi = np.ones(4)
        previous = -math.inf
        for _ in range(200):
            m = ExpectedValueVector.gauged(np.log(pi))
            value = log_likelihood(probs_modified, m, ModelKind.LOGISTIC)
            assert value >= previous - 1e-12 * max(1.0, abs(previous))
            previous = value
            pi = mm_step(probs_modified, pi)


def test_em_relabeling_invariance_at_1e9():
    with criterion("invariance: EM weights under relabeling, to 1e-9"):
        for data, perm, permuted in relabeled_inputs():
            pcm, pcm_perm = pcm_from_data(data), pcm_from_data(permuted)
            assert (
                np.max(np.abs(em(pcm).weights.values - em(pcm_perm).weights.values[perm]))
                < 1e-9
            )


def test_thurstone_robustness():
    with criterion("standard-normal model: recovery and analytic gradient"):
        rng = np.random.default_rng(1001)
        for _ in range(50):
            n = int(rng.integers(4, 7))
            graph = random_connected_graph(rng, n)
            m0 = random_merits(rng, n)
            data = exact_probabilities(ExpectedValueVector(m0), graph, ModelKind.NORMAL)
            recovered = bt_mle(data, ModelKind.NORMAL).m.values
            assert np.max(np.abs(recovered - m0)) < 1e-6

        step = 1e-6
        for _ in range(50):
            n = int(rng.integers(3, 7))
            graph = random_connected_graph(rng, n)
            entries = {
                pair: (float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
                for pair in graph.sorted_edges()
            }
            data = DataMatrix(n, entries)
            m_values = np.concatenate([[0.0], rng.normal(size=n - 1)])
            point = ExpectedValueVector(m_values)
            analytic = log_likelihood_gradient(data, point, ModelKind.NORMAL)
            numeric = np.zeros(n)
            for k in range(n):
                up, down = m_values.copy(), m_values.copy()
                up[k] += step
                down[k] -= step
                numeric[k] = (
                    log_likelihood(data, ExpectedValueVector.gauged(up), ModelKind.NORMAL)
                    - log_likelihood(
                        data, ExpectedValueVector.gauged(down), ModelKind.NORMAL
                    )
                ) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


def test_error_bound_reference():
    with criterion("simulation error bound reference value"):
        assert error_bound(10**6, 0.01, 1.0) == pytest.approx(0.00258, abs=0.00001)
