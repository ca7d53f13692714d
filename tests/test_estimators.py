"""LLSM, eigenvector method, maximum likelihood, and the transforms."""

from __future__ import annotations

import math
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paircomp import (
    ComparisonGraph,
    DataMatrix,
    DisconnectedGraph,
    ExpectedValueVector,
    FordViolation,
    IPCM,
    ModelKind,
    NoConvergence,
    WeightVector,
    bt_mle,
    em,
    enumerate_connected,
    exact_probabilities,
    ford_condition,
    llsm,
    log_likelihood,
    log_likelihood_gradient,
    m_from_weights,
    mm_step,
    pcm_from_data,
    weights_from_m,
)
from paircomp import estimators
from paircomp.core import pair_order
from paircomp.estimators import (
    DEFAULT_COMPLETION_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_MLE_TOL,
    _complete_lambda_min,
    _Incidence,
    _least_squares_start,
    _newton_rows,
    _pair_data,
)
from paircomp.graphs import MAX_CATALOG_N
from paircomp.simulation import SimulationConfig, _draw_rows, _structure_mask, error_bound
from tests.conftest import GOLDEN_TOL, random_connected_graph, random_merits

LOGISTIC = ModelKind.LOGISTIC
NORMAL = ModelKind.NORMAL

# A league table in which item 0 won every game against item 1: the pair
# (0, 1) is one-sided, yet the directed graph is strongly connected.
LEAGUE = {(0, 1): (0.0, 3.0), (0, 2): (1.0, 2.0), (1, 2): (2.0, 1.0)}


class TestLlsm:
    def test_modified_complete_golden(self, ratios_modified):
        assert_allclose(
            llsm(ratios_modified).values, [0.105, 0.135, 0.276, 0.484], atol=GOLDEN_TOL
        )

    def test_modified_incomplete_golden(self, ratios_incomplete):
        assert_allclose(
            llsm(ratios_incomplete).values, [0.106, 0.136, 0.301, 0.457], atol=GOLDEN_TOL
        )

    def test_sports_ratios_golden(self, sports_ratios):
        assert_allclose(
            llsm(sports_ratios).values, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12
        )

    def test_complete_case_equals_geometric_means(self):
        # Independent oracle: on complete matrices the optimum is the
        # normalized vector of row geometric means.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            upper = {
                (i, j): math.exp(rng.normal())
                for i in range(n)
                for j in range(i + 1, n)
            }
            pcm = IPCM.from_upper(n, upper)
            rows = np.exp(np.log(pcm.as_array()).mean(axis=1))
            assert_allclose(llsm(pcm).values, rows / rows.sum(), atol=1e-12)

    def test_incomplete_case_matches_incidence_least_squares(self):
        # Independent oracle: solve the overdetermined incidence system
        # (one +1/-1 row per known pair) by QR instead of normal equations.
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            graph = random_connected_graph(rng, n)
            upper = {pair: math.exp(rng.normal()) for pair in graph.sorted_edges()}
            pcm = IPCM.from_upper(n, upper)
            rows, targets = [], []
            for (i, j), ratio in upper.items():
                row = np.zeros(n - 1)
                if i > 0:
                    row[i - 1] = 1.0
                row[j - 1] = -1.0
                rows.append(row)
                targets.append(math.log(ratio))
            solution, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
            expected = np.exp(np.concatenate([[0.0], solution]))
            expected /= expected.sum()
            assert_allclose(llsm(pcm).values, expected, atol=1e-10)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            llsm(IPCM.from_upper(4, {(0, 1): 2.0, (2, 3): 3.0}))


class TestEm:
    def test_modified_complete_golden(self, ratios_modified):
        result = em(ratios_modified)
        assert_allclose(result.weights.values, [0.103, 0.132, 0.279, 0.485], atol=GOLDEN_TOL)
        assert result.lambda_max > 4.0

    def test_modified_incomplete_golden(self, ratios_incomplete):
        result = em(ratios_incomplete)
        assert_allclose(result.weights.values, [0.107, 0.134, 0.302, 0.458], atol=GOLDEN_TOL)

    def test_all_ones_matrix(self):
        pcm = IPCM.from_upper(4, {p: 1.0 for p in ComparisonGraph.complete(4).sorted_edges()})
        result = em(pcm)
        assert_allclose(result.weights.values, np.full(4, 0.25), atol=1e-12)
        assert result.lambda_max == pytest.approx(4.0, abs=1e-9)

    def test_against_dense_eigensolver(self):
        # Independent oracle: numpy's general eigensolver on the same matrix.
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            upper = {
                (i, j): math.exp(rng.normal()) for i in range(n) for j in range(i + 1, n)
            }
            pcm = IPCM.from_upper(n, upper)
            result = em(pcm)
            eigenvalues, vectors = np.linalg.eig(pcm.as_array())
            top = np.argmax(eigenvalues.real)
            reference = np.abs(vectors[:, top].real)
            assert result.lambda_max == pytest.approx(float(eigenvalues[top].real), abs=1e-9)
            assert_allclose(result.weights.values, reference / reference.sum(), atol=1e-9)

    def test_lambda_at_least_n_with_equality_iff_consistent(self, ratios_modified):
        consistent = IPCM.from_weight_ratios(WeightVector.normalized([4.0, 2.0, 1.0, 3.0]))
        assert em(consistent).lambda_max == pytest.approx(4.0, abs=1e-9)
        assert em(ratios_modified).lambda_max > 4.0 + 1e-6

    def test_completion_recovers_consistent_weights(self):
        # Consistent incomplete matrix: the minimal completion must hit
        # lambda = n and return the generating weights.
        w = WeightVector.normalized([5.0, 1.0, 2.0, 4.0])
        graph = ComparisonGraph(4, [(0, 1), (1, 2), (2, 3)])
        pcm = IPCM.from_weight_ratios(w).restrict(graph)
        result = em(pcm)
        assert result.lambda_max == pytest.approx(4.0, abs=1e-9)
        assert_allclose(result.weights.values, w.values, atol=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            em(IPCM.from_upper(3, {(0, 1): 2.0}))

    @pytest.mark.parametrize("name, value", [
        ("eig_tol", -1e-12), ("eig_tol", math.nan), ("eig_tol", 0.0), ("completion_tol", -1e-12),
        ("completion_tol", math.nan), ("max_iter", 0), ("max_iter", -3),
    ])
    def test_bad_solver_settings_are_refused(self, ratios_incomplete, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name}={value}")):
            em(ratios_incomplete, **{name: value})

    def test_zero_completion_tolerance_is_allowed(self, ratios_incomplete):
        # The completion then stops where log lambda_max is flat to rounding.
        result = em(ratios_incomplete, completion_tol=0.0)
        assert_allclose(result.weights.values, em(ratios_incomplete).weights.values, atol=1e-9)

    def test_ratio_matrix_of_weights_is_recovered_by_both_methods(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            w = WeightVector.normalized(rng.uniform(0.2, 5.0, size=n))
            pcm = IPCM.from_weight_ratios(w)
            assert np.max(np.abs(llsm(pcm).values - w.values)) < 1e-9
            result = em(pcm)
            assert np.max(np.abs(result.weights.values - w.values)) < 1e-9
            assert result.lambda_max == pytest.approx(n, abs=1e-9)

    def test_against_power_iteration(self):
        # Independent oracle for complete matrices: plain power iteration,
        # which shares no code with the LAPACK eigensolver em uses.
        rng = np.random.default_rng(17)
        for n in (3, 4, 5, 6) * 5:
            upper = {
                (i, j): math.exp(rng.normal()) for i in range(n) for j in range(i + 1, n)
            }
            pcm = IPCM.from_upper(n, upper)
            result = em(pcm)
            lam, vec = power_iteration(pcm.as_array())
            assert result.lambda_max == pytest.approx(lam, abs=1e-9)
            assert_allclose(result.weights.values, vec, atol=1e-9)
            assert result.iterations == 0

    def test_completion_is_the_lambda_minimum(self):
        # Optimality oracle: at the completion, finite differences of the
        # dense eigenvalues see a zero gradient, and no nearby completion
        # (nor the least-squares one) has a smaller principal eigenvalue.
        rng = np.random.default_rng(29)
        for n in (4, 5, 6):
            classes = incomplete_classes(n)
            for cls in classes[:: max(1, len(classes) // 8)]:
                weights = rng.integers(1, 10, size=n).astype(float)
                upper = {
                    (i, j): weights[i] / weights[j] * math.exp(rng.normal(0.0, 0.5))
                    for i, j in cls.member().sorted_edges()
                }
                pcm = IPCM.from_upper(n, upper)
                completed = _complete_lambda_min(pcm, pcm.known_pairs(), DEFAULT_COMPLETION_TOL,
                                                DEFAULT_MAX_ITER)[0]
                missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in upper]
                t = np.array([math.log(completed[i, j]) for i, j in missing])

                def lam_at(tv):
                    a = completed.copy()
                    for s, (i, j) in enumerate(missing):
                        a[i, j], a[j, i] = math.exp(tv[s]), math.exp(-tv[s])
                    return float(np.max(np.linalg.eigvals(a).real))

                lam = lam_at(t)
                # lambda up to its rounding, which a completion as good as
                # the optimum (the least-squares one, on some structures) may
                # undercut by an ulp.
                ceiling = lam * (1.0 - 1e-13)
                assert em(pcm).lambda_max == pytest.approx(lam, abs=1e-12)
                h = 1e-5
                unit = np.eye(len(t))
                gradient = [(lam_at(t + h * e) - lam_at(t - h * e)) / (2 * h) for e in unit]
                assert np.max(np.abs(gradient)) < 1e-6
                directions = np.vstack([unit, rng.normal(size=(4, len(t)))])
                for d in directions:
                    step = 1e-3 * d / np.max(np.abs(d))
                    assert ceiling <= lam_at(t + step)
                    assert ceiling <= lam_at(t - step)
                log_w = np.log(llsm(pcm).values)
                assert ceiling <= lam_at(np.array([log_w[i] - log_w[j] for i, j in missing]))

    def test_consistent_completion_on_every_structure(self):
        # At a consistent completion the matrix has rank one: the Newton
        # Hessian must not rely on a full eigenbasis.
        rng = np.random.default_rng(41)
        for n in (4, 5, 6):
            for cls in incomplete_classes(n):
                w = WeightVector.normalized(rng.uniform(0.2, 5.0, size=n))
                result = em(IPCM.from_weight_ratios(w).restrict(cls.member()))
                assert result.lambda_max == pytest.approx(n, abs=1e-9)
                assert np.max(np.abs(result.weights.values - w.values)) < 1e-9

    def test_each_matrix_is_decomposed_once(self, monkeypatch):
        # One eigendecomposition per iterate and line-search trial: the left
        # Perron vector comes from the Newton step's inverse, not from A', and
        # the eigenpair of the point the line search takes is the next
        # iterate's and em's.  Every decomposed matrix keeps the known entries
        # as given, which an A' problem would not.
        import paircomp.estimators as estimators

        perron_pair, decomposed = estimators._perron_pair, []

        def recording(matrix):
            decomposed.append(matrix.copy())
            return perron_pair(matrix)

        monkeypatch.setattr(estimators, "_perron_pair", recording)
        rng = np.random.default_rng(43)
        pcms = [IPCM.from_upper(5, {(i, j): math.exp(rng.normal())
                                    for i in range(5) for j in range(i + 1, 5)})]
        for n in (3, 4, 5, 6):
            for cls in incomplete_classes(n)[::3]:
                weights = rng.integers(1, 10, size=n).astype(float)
                upper = {
                    (i, j): weights[i] / weights[j] * math.exp(rng.uniform(-0.3, 0.3))
                    for i, j in cls.member().sorted_edges()
                }
                pcms.append(IPCM.from_upper(n, upper))
        for pcm in pcms:
            decomposed.clear()
            em(pcm)
            assert len({a.tobytes() for a in decomposed}) == len(decomposed)
            if pcm.is_complete:
                assert len(decomposed) == 1
            for a in decomposed:
                assert all(a[i, j] == value for (i, j), value in pcm.entries.items())

    def test_a_line_search_without_descent_fails(self, monkeypatch):
        # An inconsistent 5-cycle with chords, whose completion takes three
        # steps.  Every trial's lambda is made twice the start's, so no
        # halving descends, and the last halvings round back onto t, which
        # is never taken either: the completion raises on its first step,
        # after the full step and 60 halvings, instead of taking the last.
        pcm = IPCM.from_upper(5, {(0, 1): 2.0, (1, 2): 3.0, (2, 3): 0.5, (3, 4): 2.0,
                                  (0, 4): 1.5, (1, 3): 4.0})
        assert em(pcm).iterations == 3
        perron_pair, trials = estimators._perron_pair, []

        def ascending(matrix):
            lam, w = perron_pair(matrix)
            trials.append(lam)
            return 2.0 * trials[0] if len(trials) > 1 else lam, w

        monkeypatch.setattr(estimators, "_perron_pair", ascending)
        with pytest.raises(NoConvergence, match="no descent") as caught:
            em(pcm, max_iter=3)
        # The start and each trial that moves t are decomposed.
        assert caught.value.iterations == 1 and 2 <= len(trials) < 1 + 61

    def test_completion_stops_at_the_rounding_floor(self):
        # Ratios spanning 1e-6 .. 570 leave log lambda_max flat to rounding
        # along one direction (Hessian eigenvalue ~1e-11), so the full Newton
        # step bottoms out near 1e-9 instead of reaching completion_tol; the
        # solver must stop there rather than wander until max_iter.
        upper = {(0, 5): 0.74, (1, 4): 70.3, (1, 5): 0.064, (2, 3): 0.001, (2, 4): 569.4,
                 (3, 4): 3.06e-6, (3, 5): 2.1e-4, (4, 5): 0.274}
        base = em(IPCM.from_upper(6, upper), max_iter=100)
        assert base.iterations <= 10
        perm = [2, 0, 1, 5, 3, 4]
        relabeled = {}
        for (i, j), a in upper.items():
            p, q = perm[i], perm[j]
            relabeled[(min(p, q), max(p, q))] = a if p < q else 1.0 / a
        result = em(IPCM.from_upper(6, relabeled), max_iter=100)
        assert result.lambda_max == pytest.approx(base.lambda_max, rel=1e-12)
        assert_allclose(result.weights.values[perm], base.weights.values, atol=1e-9)


def power_iteration(matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000):
    """Perron eigenpair by power iteration from the all-ones vector, the
    eigenvector normalized to sum 1; the residual test is relative to the
    iterate's magnitude."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = matrix @ x
        lam = float(x @ y / (x @ x))
        x = y / y.sum()
        z = matrix @ x
        if np.max(np.abs(z - lam * x)) <= tol * max(1.0, float(np.max(np.abs(z)))):
            return lam, x
    raise AssertionError("power iteration did not reach its residual tolerance")


def incomplete_classes(n: int):
    return [c for c in enumerate_connected(n) if c.edge_count < n * (n - 1) // 2]


class TestBtMle:
    def test_sports_counts_golden(self, sports_counts):
        result = bt_mle(sports_counts)
        assert_allclose(result.m.values, [0.0, -0.693, -0.693, 0.0], atol=GOLDEN_TOL)
        assert_allclose(
            weights_from_m(result.m).values, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=GOLDEN_TOL
        )
        assert result.converged

    def test_modified_complete_golden(self, probs_modified):
        result = bt_mle(probs_modified)
        assert_allclose(result.m.values, [0.0, 0.246, 0.954, 1.450], atol=GOLDEN_TOL)
        assert_allclose(
            weights_from_m(result.m).values, [0.109, 0.140, 0.284, 0.466], atol=GOLDEN_TOL
        )

    def test_modified_incomplete_golden(self, probs_incomplete):
        result = bt_mle(probs_incomplete)
        assert_allclose(result.m.values, [0.0, 0.250, 1.017, 1.366], atol=GOLDEN_TOL)
        assert_allclose(
            weights_from_m(result.m).values, [0.112, 0.143, 0.308, 0.437], atol=GOLDEN_TOL
        )

    def test_recovers_generating_merits(self):
        rng = np.random.default_rng(17)
        for model in (LOGISTIC, NORMAL):
            for _ in range(10):
                n = int(rng.integers(3, 7))
                graph = random_connected_graph(rng, n)
                m0 = random_merits(rng, n)
                data = exact_probabilities(ExpectedValueVector(m0), graph, model)
                result = bt_mle(data, model)
                assert np.max(np.abs(result.m.values - m0)) < 1e-6

    def test_methods_agree_on_consistent_data(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            graph = random_connected_graph(rng, n)
            m0 = random_merits(rng, n)
            data = exact_probabilities(ExpectedValueVector(m0), graph, LOGISTIC)
            w_mle = weights_from_m(bt_mle(data).m).values
            pcm = pcm_from_data(data)
            assert np.max(np.abs(w_mle - llsm(pcm).values)) < 1e-6
            assert np.max(np.abs(w_mle - em(pcm).weights.values)) < 1e-6

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_consistent_data_is_solved_by_the_least_squares_start(self, model):
        # The paper's theorem: on consistent data, complete or not, the
        # least-squares fit of the linked data is the MLE, so the first Newton
        # step is below rounding and ends the fit.
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            graph = random_connected_graph(rng, n)
            m0 = random_merits(rng, n)
            data = exact_probabilities(ExpectedValueVector(m0), graph, model)
            result = bt_mle(data, model)
            assert result.iterations == 1
            assert np.max(np.abs(result.m.values - m0)) < 1e-12
            if model is LOGISTIC:
                w_llsm = llsm(pcm_from_data(data)).values
                assert np.max(np.abs(weights_from_m(result.m).values - w_llsm)) < 1e-12

    @pytest.mark.parametrize("entries", [LEAGUE, {**LEAGUE, (0, 1): (1e-20, 3.0)}])
    def test_rows_without_a_finite_link_fall_back_to_the_zero_start(self, entries):
        # A one-sided pair has no link, and the share 3 / (3 + 1e-20) rounds
        # to 1, whose link is infinite.  The fit from m = 0 must still reach
        # the minorize-maximize fixed point.
        data = DataMatrix(3, entries)
        ii, jj, d1, d2 = _pair_data(data)
        plan = _Incidence(ii, jj, 3, 1)
        assert not _least_squares_start(d1[None], d2[None], LOGISTIC, plan).any()
        pi = np.ones(3)
        for _ in range(10_000):
            previous, pi = pi, mm_step(data, pi)
            if np.array_equal(pi, previous):
                break
        assert np.max(np.abs(bt_mle(data).m.values - np.log(pi))) < 1e-9

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_batch_mixing_one_sided_rows_matches_single_calls(self, model):
        rng = np.random.default_rng(67)
        tables = []
        for r in range(8):
            entries = {pair: tuple(rng.uniform(0.1, 2.0, size=2)) for pair in LEAGUE}
            if r % 2 == 0:
                entries[(0, 1)] = (0.0, float(rng.uniform(0.1, 2.0)))
            tables.append(DataMatrix(3, entries))
        ii, jj, _, _ = _pair_data(tables[0])
        d1 = np.array([_pair_data(t)[2] for t in tables])
        d2 = np.array([_pair_data(t)[3] for t in tables])
        start = _least_squares_start(d1, d2, model, _Incidence(ii, jj, 3, len(d1)))
        assert not start[0::2].any() and start[1::2, 1:].all()
        m, iterations, converged = _newton_rows(
            d1, d2, ii, jj, 3, model, DEFAULT_MLE_TOL, DEFAULT_MAX_ITER
        )
        assert converged.all()
        for r, data in enumerate(tables):
            single = bt_mle(data, model)
            assert np.array_equal(m[r], single.m.values)
            assert iterations[r] == single.iterations

    def test_scaling_invariance(self, probs_modified):
        base = bt_mle(probs_modified).m.values
        for factor in (0.5, 3.0, 100.0):
            scaled = bt_mle(probs_modified.scaled(factor)).m.values
            assert np.max(np.abs(scaled - base)) < 1e-9

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_power_of_two_scaling_keeps_every_bit(self, model):
        # Amounts 1 and 1e15 alternate over the pairs of four items; scaled by
        # 2^960 the larger reach about 1e304, near the top of the float range.
        pairs = pair_order(4)
        data = DataMatrix(4, {p: (1.0, 1e15)[::(-1) ** s] for s, p in enumerate(pairs)})
        base = bt_mle(data, model).m.values.tobytes()
        for k in (-1000, -500, 500, 960):
            assert bt_mle(data.scaled(2.0**k), model).m.values.tobytes() == base

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_amounts_near_the_float_maximum_fit(self, model):
        # The fit converges; the log-likelihood of the caller's amounts is
        # below -1.8e308, so it rounds to -inf, without an overflow warning.
        pairs = pair_order(4)
        data = DataMatrix(4, {p: (1e308, 1.7e308)[::(-1) ** s] for s, p in enumerate(pairs)})
        result = bt_mle(data, model)
        assert result.converged and np.isfinite(result.m.values).all()
        assert result.loglik == -math.inf

    def test_a_subnormal_amount_reaches_the_newton_solve_as_given(self, monkeypatch):
        kernel, seen = estimators._newton_rows, []

        def recorded(d1, d2, *args):
            seen.append((d1.tobytes(), d2.tobytes()))
            return kernel(d1, d2, *args)

        monkeypatch.setattr(estimators, "_newton_rows", recorded)
        result = bt_mle(DataMatrix(2, {(0, 1): (1e-310, 1.0)}), NORMAL)
        assert seen == [(np.array([1e-310]).tobytes(), np.array([1.0]).tobytes())]
        assert result.converged and -38.0 < result.m.values[1] < -37.0

    def test_mm_ascends_the_likelihood_every_step(self, probs_modified):
        pi = np.ones(4)
        previous = -math.inf
        for _ in range(60):
            m = ExpectedValueVector.gauged(np.log(pi))
            value = log_likelihood(probs_modified, m, LOGISTIC)
            assert value >= previous - 1e-12
            previous = value
            pi = mm_step(probs_modified, pi)

    def test_ford_violation_raises(self):
        with pytest.raises(FordViolation):
            bt_mle(DataMatrix(3, {(0, 1): (1.0, 2.0)}))
        # One-directional results on a tree edge: MLE does not exist.
        with pytest.raises(FordViolation):
            bt_mle(DataMatrix(3, {(0, 1): (1.0, 1.0), (1, 2): (0.0, 2.0)}))

    def test_iteration_cap_raises(self, probs_modified):
        with pytest.raises(NoConvergence):
            bt_mle(probs_modified, max_iter=2)

    @pytest.mark.parametrize("name, value", [
        ("tol", 0.0), ("tol", -1.0), ("tol", math.nan), ("max_iter", 0), ("max_iter", -5),
    ])
    def test_bad_solver_settings_are_refused(self, probs_modified, name, value):
        # tol = 0 would never be met: the fit would run all max_iter steps.
        with pytest.raises(ValueError, match=re.escape(f"{name}={value}")):
            bt_mle(probs_modified, **{name: value})

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_converged_means_zero_gradient(self, model):
        # Replication 189 of n=5, perturb=0.15, seed=1 (normal), restricted to
        # class 9: a solver that stops on a damped step reports convergence
        # with a gradient of 2e-8 here.
        d1 = {
            (0, 4): 0.3304916057440756,
            (1, 3): 0.3267533122522752,
            (1, 4): 0.38858736674523275,
            (2, 3): 0.21186031740581035,
            (2, 4): 0.355817933662842,
            (3, 4): 0.69903231692994,
        }
        data = DataMatrix(5, {pair: (v, 1.0 - v) for pair, v in d1.items()})
        result = bt_mle(data, model)
        assert np.max(np.abs(log_likelihood_gradient(data, result.m, model))) <= 1e-10

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_agrees_with_generic_optimizer(self, model):
        # Independent oracle: BFGS on the negative log-likelihood over the
        # free coordinates, with the analytic gradient.
        from scipy.optimize import minimize

        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            graph = random_connected_graph(rng, n)
            entries = {
                pair: (float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
                for pair in graph.sorted_edges()
            }
            data = DataMatrix(n, entries)

            def negative(free):
                m = ExpectedValueVector(np.concatenate([[0.0], free]))
                return -log_likelihood(data, m, model)

            def negative_grad(free):
                m = ExpectedValueVector(np.concatenate([[0.0], free]))
                return -log_likelihood_gradient(data, m, model)[1:]

            reference = minimize(
                negative, np.zeros(n - 1), jac=negative_grad, method="BFGS",
                options={"gtol": 1e-12},
            )
            ours = bt_mle(data, model).m.values
            assert np.max(np.abs(ours[1:] - reference.x)) < 1e-5

    def test_permutation_equivariance_all_methods(self, probs_modified):
        rng = np.random.default_rng(29)
        base_m = bt_mle(probs_modified).m.values
        base_llsm = llsm(pcm_from_data(probs_modified)).values
        base_em = em(pcm_from_data(probs_modified)).weights.values
        for _ in range(10):
            perm = rng.permutation(4)
            entries = {}
            for (i, j), (d1, d2) in probs_modified.entries.items():
                a, b = int(perm[i]), int(perm[j])
                entries[(min(a, b), max(a, b))] = (d1, d2) if a < b else (d2, d1)
            data = DataMatrix(4, entries)
            m_perm = bt_mle(data).m.values
            # Compare gauge-free differences: m is anchored at item 0.
            for u in range(4):
                for v in range(4):
                    assert m_perm[perm[u]] - m_perm[perm[v]] == pytest.approx(
                        base_m[u] - base_m[v], abs=1e-8
                    )
            assert_allclose(llsm(pcm_from_data(data)).values[perm], base_llsm, atol=1e-10)
            assert_allclose(em(pcm_from_data(data)).weights.values[perm], base_em, atol=1e-7)


def _league_rows(rng, n: int, rows: int):
    """Comparison amounts on random connected graphs of n items, one row
    each, over the complete pair list: a missing pair carries zeros."""
    pairs = pair_order(n)
    d1, d2 = np.zeros((rows, len(pairs))), np.zeros((rows, len(pairs)))
    for r in range(rows):
        present = [pairs.index(p) for p in random_connected_graph(rng, n).sorted_edges()]
        d1[r, present] = rng.uniform(0.1, 2.0, size=len(present))
        d2[r, present] = rng.uniform(0.1, 2.0, size=len(present))
    ii, jj = np.array(pairs, dtype=np.intp).T
    return d1, d2, ii, jj


def _halving_rows():
    """Four rows of amounts over pairs (0, 1), (0, 2), (1, 2), (2, 3), and
    the third row's amounts.  In that row item 0 only wins and item 3 only
    loses, so its likelihood has no maximum: its steps halve, and from some
    iteration on run out of all 60 halvings."""
    ii, jj = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3])
    stuck = (np.array([0.0, 0.0, 3.0, 0.0]), np.array([1.0, 1.0, 2.0, 2.0]))
    rng = np.random.default_rng(79)
    d1, d2 = (np.vstack([rng.uniform(0.1, 2.0, size=(2, 4)), row, rng.uniform(0.1, 2.0, 4)])
              for row in stuck)
    return d1, d2, ii, jj, stuck


def _four_block_laplacian(ii, jj, n, weights):
    """The weighted graph Laplacian as one scatter of all four cells of each
    pair: (j, j), (i, i), then (i, j) and (j, i) negated."""
    rows = len(weights)
    a, b = np.concatenate([jj, ii, ii, jj]), np.concatenate([jj, ii, jj, ii])
    bins = (np.arange(rows)[:, None] * (n * n) + a * n + b).ravel()
    values = np.concatenate([weights, weights, -weights, -weights], axis=1).ravel()
    return np.bincount(bins, values, rows * n * n).reshape(rows, n, n)


class TestNewtonKernel:
    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_each_point_is_evaluated_once(self, model, monkeypatch):
        rng = np.random.default_rng(71)
        terms, seen = estimators._pair_terms, []

        def recorded(delta, d1, d2, model, searched):
            seen.extend(
                (a.tobytes(), b.tobytes(), point.tobytes()) for a, b, point in zip(d1, d2, delta)
            )
            return terms(delta, d1, d2, model, searched)

        monkeypatch.setattr(estimators, "_pair_terms", recorded)
        for n in (3, 4, 5, 6):
            d1, d2, ii, jj = _league_rows(rng, n, 24)
            fit = _newton_rows(d1, d2, ii, jj, n, model, DEFAULT_MLE_TOL, DEFAULT_MAX_ITER)
            assert fit[2].all()
        assert len(seen) > 0 and len(set(seen)) == len(seen)

    def test_diagonal_assembly_equals_the_four_block_scatter(self):
        rng = np.random.default_rng(73)
        for n in range(2, 8):
            pairs = pair_order(n)
            for _ in range(10):
                chosen = np.flatnonzero(rng.random(len(pairs)) < 0.6)
                if chosen.size == 0:
                    chosen = np.array([int(rng.integers(len(pairs)))])
                ii, jj = np.array(pairs, dtype=np.intp)[chosen].T
                rows = int(rng.integers(1, 6))
                weights = rng.uniform(0.0, 3.0, size=(rows, len(ii)))
                weights[rng.random(weights.shape) < 0.3] = 0.0
                # A plan for more rows than the call uses works on a prefix.
                plan = _Incidence(ii, jj, n, rows + 2)
                expected = _four_block_laplacian(ii, jj, n, weights)
                assert plan.laplacian(weights).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_halving_rows_in_a_batch_match_single_runs(self, model, monkeypatch):
        # The Ford test would stop the stuck row at its start: without it the
        # row iterates, and its steps run out of halvings.
        monkeypatch.setattr(estimators, "_ford_holds", lambda n, entries: True)
        d1, d2, ii, jj, stuck = _halving_rows()
        max_iter = 50
        m, iterations, converged = _newton_rows(d1, d2, ii, jj, 4, model, DEFAULT_MLE_TOL,
                                                max_iter)
        assert converged.tolist() == [True, True, False, True]
        for r in range(len(d1)):
            alone = _newton_rows(d1[r:r + 1], d2[r:r + 1], ii, jj, 4, model, DEFAULT_MLE_TOL,
                                 max_iter)
            assert m[r].tobytes() == alone[0][0].tobytes()
            assert iterations[r] == alone[1][0] and converged[r] == alone[2][0]

        # The start and each Newton step solve once: count the points each
        # evaluates.  A step whose 60 trials find no ascent evaluates them all
        # and leaves the row where it was; the next step stops it there,
        # before max_iter and unevaluated.
        per_step = []
        terms, solve = estimators._pair_terms, _Incidence.solve

        def counted_terms(*args):
            per_step[-1] += 1
            return terms(*args)

        monkeypatch.setattr(estimators, "_pair_terms", counted_terms)
        monkeypatch.setattr(_Incidence, "solve", lambda *args: per_step.append(0) or solve(*args))
        _, steps, converged = _newton_rows(stuck[0][None], stuck[1][None], ii, jj, 4, model,
                                           DEFAULT_MLE_TOL, max_iter)
        assert not converged[0] and len(per_step) == 1 + steps[0] < 1 + max_iter
        assert max(per_step) == 60 and per_step[-2:] == [60, 0]

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_a_singular_newton_system_ends_its_row_unconverged(self, model, monkeypatch):
        # The halving fixture's stuck row with item 0 losing once to item 1:
        # item 3 still only loses, runs off until its curvatures underflow,
        # and its Newton system turns singular before 2,000 steps.  The Ford
        # test, which would stop the row at its start, is switched off.
        monkeypatch.setattr(estimators, "_ford_holds", lambda n, entries: True)
        d1, d2, ii, jj, stuck = _halving_rows()
        d1[2, 0] = 0.1
        max_iter = 2000
        m, iterations, converged = _newton_rows(d1, d2, ii, jj, 4, model, DEFAULT_MLE_TOL,
                                                max_iter)
        assert converged.tolist() == [True, True, False, True]
        assert 50 < iterations[2] < max_iter and np.isfinite(m[2]).all()
        for r in range(len(d1)):
            alone = _newton_rows(d1[r:r + 1], d2[r:r + 1], ii, jj, 4, model, DEFAULT_MLE_TOL,
                                 max_iter)
            assert m[r].tobytes() == alone[0][0].tobytes()
            assert iterations[r] == alone[1][0] and converged[r] == alone[2][0]

    def test_a_real_input_meets_a_singular_newton_system(self, monkeypatch):
        # A subnormal win passes the Ford test, but the optimum lies about
        # 710 units out: the logistic curvature underflows to 0.0 on the way,
        # and the solve of that step returns a direction that is not finite.
        data = DataMatrix(2, {(0, 1): (1e-310, 1.0)})
        finite, solve = [], _Incidence.solve

        def recorded(*args):
            x = solve(*args)
            finite.append(bool(np.isfinite(x).all()))
            return x

        monkeypatch.setattr(_Incidence, "solve", recorded)
        assert ford_condition(data)
        with pytest.raises(NoConvergence) as caught:
            bt_mle(data, LOGISTIC)
        assert 0 < caught.value.iterations < DEFAULT_MAX_ITER
        assert finite[-1] is False and all(finite[:-1])

    def test_a_subnormal_amount_stops_on_a_failed_line_search(self):
        # The Ford test passes, but under the normal model the row's steps
        # halve until every trial rounds back onto its point: with no strict
        # ascent in 60 trials it stops there instead of running to max_iter.
        data = DataMatrix(2, {(0, 1): (5e-324, 1.0)})
        assert ford_condition(data)
        with pytest.raises(NoConvergence) as caught:
            bt_mle(data, NORMAL, max_iter=2000)
        assert 0 < caught.value.iterations < 2000

    @pytest.mark.parametrize("rows", [3, estimators._FLOAT_ROWS + 3])
    def test_a_failed_line_search_keeps_the_batch_bits(self, rows):
        # The subnormal row of the test above in a batch of converging rows:
        # every row keeps the bits, steps and flag it has when solved alone.
        rng = np.random.default_rng(127)
        d1, d2 = rng.uniform(0.1, 2.0, size=(2, rows, 1))
        d1[1], d2[1] = 5e-324, 1.0
        ii, jj = np.array([0]), np.array([1])
        m, iterations, converged = _newton_rows(d1, d2, ii, jj, 2, NORMAL, DEFAULT_MLE_TOL, 2000)
        assert not converged[1] and iterations[1] < 2000
        assert np.delete(converged, 1).all()
        for r in range(rows):
            alone = _newton_rows(d1[r:r + 1], d2[r:r + 1], ii, jj, 2, NORMAL, DEFAULT_MLE_TOL, 2000)
            assert m[r].tobytes() == alone[0][0].tobytes()
            assert iterations[r] == alone[1][0] and converged[r] == alone[2][0]

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_rows_without_a_maximum_are_reported_at_their_start(self, model, monkeypatch):
        # Pairs (0, 3), (1, 2), (1, 3), (2, 3).  Row 0: item 0's only pair is
        # one-sided, so the likelihood has no maximum; iterated, the row runs
        # off until a step of rounding size passes the bounded stop, after
        # 88 (logistic) or 44 (normal) steps.  Row 1 has only two-sided
        # pairs, and row 2 a one-sided pair that keeps the directed graph
        # strongly connected.
        ii, jj = np.array([0, 1, 1, 2]), np.array([3, 2, 3, 3])
        d1 = np.array([[20.0, 16.0, 12.0, 7.0], [3.0, 1.0, 2.0, 5.0], [2.0, 0.0, 4.0, 1.0]])
        d2 = np.array([[0.0, 4.0, 8.0, 13.0], [1.0, 2.0, 2.0, 3.0], [1.0, 5.0, 3.0, 6.0]])
        m, iterations, converged = _newton_rows(d1, d2, ii, jj, 4, model, DEFAULT_MLE_TOL,
                                                DEFAULT_MAX_ITER)
        assert converged.tolist() == [False, True, True]
        assert iterations[0] == 0 and not m[0].any() and iterations[1:].min() >= 1
        for r in range(len(d1)):
            data = DataMatrix(4, {(i, j): (a, b) for i, j, a, b in zip(ii, jj, d1[r], d2[r])})
            assert ford_condition(data) == converged[r]
            alone = _newton_rows(d1[r:r + 1], d2[r:r + 1], ii, jj, 4, model, DEFAULT_MLE_TOL,
                                 DEFAULT_MAX_ITER)
            assert m[r].tobytes() == alone[0][0].tobytes()
            assert iterations[r] == alone[1][0] and converged[r] == alone[2][0]

        # Alone, the row is evaluated and solved only for its start.
        calls = []
        monkeypatch.setattr(estimators, "_pair_terms",
                            lambda *args, terms=estimators._pair_terms: calls.append(0) or terms(*args))
        _newton_rows(d1[:1], d2[:1], ii, jj, 4, model, DEFAULT_MLE_TOL, DEFAULT_MAX_ITER)
        assert len(calls) == 1

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    @pytest.mark.parametrize("tol", [DEFAULT_MLE_TOL, 1e-6])
    def test_a_converged_row_never_evaluates_its_final_point(self, model, tol, monkeypatch):
        # Count the rows each fit evaluates between its solves: the start's,
        # then one per Newton step.  A converged row evaluates its start, one
        # point per step before the last with that step's halving trials, and
        # nothing on its last step: it stops on the full step unevaluated.
        rng = np.random.default_rng(83)
        fixtures = [(*_league_rows(rng, n, 6), n) for n in (2, 3, 4, 5, 6)]
        fixtures.append((*_halving_rows()[:4], 4))
        per_step = []
        terms, solve = estimators._pair_terms, _Incidence.solve

        def counted_terms(delta, *args):
            per_step[-1] += len(delta)
            return terms(delta, *args)

        monkeypatch.setattr(estimators, "_pair_terms", counted_terms)
        monkeypatch.setattr(_Incidence, "solve", lambda *args: per_step.append(0) or solve(*args))
        stopped = 0
        for d1, d2, ii, jj, n in fixtures:
            alone = []
            for r in range(len(d1)):
                per_step.clear()
                _, iterations, converged = _newton_rows(d1[r:r + 1], d2[r:r + 1], ii, jj, n,
                                                        model, tol, 50)
                steps = int(iterations[0])
                assert len(per_step) == 1 + steps and per_step[0] == 1
                assert min(per_step[1:steps], default=1) >= 1
                alone.append(sum(per_step))
                if converged[0]:
                    assert per_step[-1] == 0
                    stopped += 1
                else:
                    assert per_step[-1] >= 1
            # In a batch each row evaluates the same points as alone.
            per_step.clear()
            _newton_rows(d1, d2, ii, jj, n, model, tol, 50)
            assert sum(per_step) == sum(alone)
        assert stopped == 5 * 6 + 3


def _lapack_solve(ii, jj, n, weights, rhs):
    """The grounded systems solved by LAPACK on the four-block scatter."""
    return np.linalg.solve(_four_block_laplacian(ii, jj, n, weights)[:, 1:, 1:],
                           rhs[..., None])[..., 0]


def _solve_rows(rng, n, rows, full):
    """Pairs of n items (all of them, or a random set around the path
    0-1-...-(n-1), which keeps the grounded Laplacian definite), weights
    with about a third of the off-path ones zero, and right-hand sides."""
    pairs = pair_order(n)
    path = [pairs.index((i, i + 1)) for i in range(n - 1)]
    chosen = np.arange(len(pairs)) if full else np.union1d(
        path, np.flatnonzero(rng.random(len(pairs)) < 0.5))
    ii, jj = np.array(pairs, dtype=np.intp)[chosen].T
    weights = rng.uniform(0.1, 3.0, size=(rows, len(ii)))
    off_path = ~np.isin(chosen, path)
    weights[:, off_path] *= rng.random((rows, off_path.sum())) > 0.3
    return ii, jj, weights, rng.normal(size=(rows, n - 1))


class TestColumnSolve:
    ROWS = (1, 2, 5, estimators._FLOAT_ROWS, estimators._FLOAT_ROWS + 1, 40)

    def test_matches_lapack(self):
        rng = np.random.default_rng(97)
        for n in range(2, estimators._CHOLESKY_MAX_N + 1):
            for rows in self.ROWS:
                for full in (True, False):
                    ii, jj, weights, rhs = _solve_rows(rng, n, rows, full)
                    got = _Incidence(ii, jj, n, rows).solve(weights, rhs)
                    expected = _lapack_solve(ii, jj, n, weights, rhs)
                    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_float_and_array_paths_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(101)
        for n in range(2, estimators._CHOLESKY_MAX_N + 1):
            for rows in self.ROWS:
                ii, jj, weights, rhs = _solve_rows(rng, n, rows, rows % 2 == 0)
                plan = _Incidence(ii, jj, n, rows)
                solved = []
                for float_rows in (0, rows):
                    monkeypatch.setattr(estimators, "_FLOAT_ROWS", float_rows)
                    solved.append(plan.solve(weights, rhs).tobytes())
                assert solved[0] == solved[1]

    def test_pair_order_and_orientation_do_not_change_a_bit(self):
        rng = np.random.default_rng(109)
        for n in range(3, estimators._CHOLESKY_MAX_N + 1):
            for rows in (1, 40):
                ii, jj, weights, rhs = _solve_rows(rng, n, rows, False)
                expected = _Incidence(ii, jj, n, rows).solve(weights, rhs)
                order = rng.permutation(len(ii))
                got = _Incidence(jj[order], ii[order], n, rows).solve(weights[:, order], rhs)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [3, estimators._FLOAT_ROWS + 3])
    def test_a_row_without_a_positive_pivot_is_solved_alone_by_lapack(self, rows):
        # Row 1 weights pair (1, 2) by -2, so its grounded Laplacian
        # [[-1, 2], [2, -1]] is regular but its first pivot is -1; row 2
        # has no weight at all, so its system is singular.
        rng = np.random.default_rng(103)
        ii, jj, weights, rhs = _solve_rows(rng, 3, rows, True)
        weights[1], weights[2] = [1.0, 1.0, -2.0], 0.0
        plan = _Incidence(ii, jj, 3, rows)
        x = plan.solve(weights, rhs)
        assert x[1].tobytes() == _lapack_solve(ii, jj, 3, weights[1:2], rhs[1:2])[0].tobytes()
        assert np.isnan(x[2]).all()
        regular = np.delete(np.arange(rows), [1, 2])
        assert x[regular].tobytes() == plan.solve(weights[regular], rhs[regular]).tobytes()

    @pytest.mark.parametrize("rows", [3, estimators._FLOAT_ROWS + 3])
    def test_a_row_with_a_result_that_is_not_finite_is_solved_alone_by_lapack(self, rows):
        # Row 1's pivots are positive, but the recurrence overflows to
        # (-inf, -inf), where LAPACK keeps the second coordinate finite.
        rng = np.random.default_rng(113)
        ii, jj, weights, rhs = _solve_rows(rng, 3, rows, True)
        weights[1], rhs[1] = [1.31550393e-300, 7.94445328e299, 1.99421179e-200], [-1e150, -1.0]
        plan = _Incidence(ii, jj, 3, rows)
        x = plan.solve(weights, rhs)
        alone = _lapack_solve(ii, jj, 3, weights[1:2], rhs[1:2])[0]
        assert x[1].tobytes() == alone.tobytes()
        assert x[1, 0] == -np.inf and np.isfinite(x[1, 1])
        regular = np.delete(np.arange(rows), 1)
        assert x[regular].tobytes() == plan.solve(weights[regular], rhs[regular]).tobytes()

    def test_no_catalog_size_reaches_lapack(self):
        # simulate's batches are of catalog sizes, which the recurrence solves.
        assert estimators._CHOLESKY_MAX_N >= MAX_CATALOG_N

    def test_larger_leagues_are_solved_by_lapack(self):
        rng = np.random.default_rng(107)
        n = estimators._CHOLESKY_MAX_N + 1
        ii, jj, weights, rhs = _solve_rows(rng, n, 20, False)
        # Row 11 weights its first pair by -6, which leaves its system
        # regular but indefinite.
        weights[11, 0] = -6.0
        grounded = _four_block_laplacian(ii, jj, n, weights[11:12])[0, 1:, 1:]
        assert np.linalg.eigvalsh(grounded).min() < 0.0
        plan = _Incidence(ii, jj, n, 20)
        x = plan.solve(weights, rhs)
        assert x.tobytes() == _lapack_solve(ii, jj, n, weights, rhs).tobytes()
        # A singular row gets NaN; the others keep their bits, those of each
        # row solved alone.
        weights[4] = 0.0
        singular = plan.solve(weights, rhs)
        assert np.isnan(singular[4]).all()
        assert np.delete(singular, 4, axis=0).tobytes() == np.delete(x, 4, axis=0).tobytes()
        alone = _Incidence(ii, jj, n, 1)
        for r in range(20):
            assert singular[r].tobytes() == alone.solve(weights[r:r + 1], rhs[r:r + 1])[0].tobytes()


def _one_sided(rng, d1, d2, ii, jj, n):
    """Zero one amount of up to two pairs of each row of (d1, d2), in place,
    wherever the directed comparison graph stays strongly connected."""
    for r in range(len(d1)):
        zeroed = 0
        for s in rng.permutation(np.flatnonzero(d1[r] + d2[r])):
            side = (d1, d2)[int(rng.integers(2))]
            kept, side[r, s] = side[r, s], 0.0
            entries = {(i, j): (a, b) for i, j, a, b in zip(ii, jj, d1[r], d2[r]) if a + b}
            if ford_condition(DataMatrix(n, entries)):
                zeroed += 1
                if zeroed == 2:
                    break
            else:
                side[r, s] = kept


def _oracle_corpus(model: ModelKind):
    """Blocks (d1, d2, ii, jj, n) of rows to check against the exact optimum:
    simulate's rows at three perturbations, every structure of replications
    [start, stop) at n = 4 and 5 and every fourth at n = 6; leagues on random
    graphs with one-sided pairs, which start from m = 0; and the halving
    fixtures, whose third row has no optimum.  Under the logistic model the
    steps of 19 converging rows halve: 2 of n = 4 replication 2 at perturb
    0.9, and 13 of n = 5 and 4 of n = 6 replication 6 at perturb 0.6."""
    for n, start, stop, every in ((4, 0, 3, 1), (5, 6, 7, 1), (6, 6, 7, 4)):
        ii, jj = np.array(pair_order(n), dtype=np.intp).T
        present = _structure_mask(n)[::every]
        for perturb in (0.15, 0.6, 0.9):
            config = SimulationConfig(n, perturb, stop, 7, model)
            d1 = _draw_rows(config, start, stop)[:, None, :]
            yield (np.where(present, d1, 0.0).reshape(-1, len(ii)),
                   np.where(present, 1.0 - d1, 0.0).reshape(-1, len(ii)), ii, jj, n)
    rng = np.random.default_rng(89)
    for n in (3, 4, 5, 6):
        d1, d2, ii, jj = _league_rows(rng, n, 6)
        _one_sided(rng, d1, d2, ii, jj, n)
        yield d1, d2, ii, jj, n
    yield (*_halving_rows()[:4], 4)


def _exact_optimum(mpmath, d1, d2, ii, jj, n, model: ModelKind, start):
    """The likelihood optimum of one row in the m_1 = 0 gauge to 40 digits:
    Newton's method in mpmath from ``start``, with the pair slopes and
    curvatures written out here, apart from :func:`estimators._pair_terms`."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        x = [mpf(float(v)) for v in start]
        for _ in range(30):
            grad, hess = [mpf(0)] * n, mpmath.zeros(n - 1, n - 1)
            for a, b, i, j in zip(d1, d2, ii, jj):
                a, b, delta = mpf(float(a)), mpf(float(b)), x[i] - x[j]
                if model is LOGISTIC:
                    p = 1 / (1 + mpmath.exp(-delta))
                    slope, curvature = b * (1 - p) - a * p, (a + b) * p * (1 - p)
                else:
                    phi = mpmath.npdf(delta)
                    up, down = phi / mpmath.ncdf(delta), phi / mpmath.ncdf(-delta)
                    slope = b * up - a * down
                    curvature = b * up * (delta + up) + a * down * (down - delta)
                grad[i] += slope
                grad[j] -= slope
                for u, v, c in ((i, i, curvature), (j, j, curvature),
                                (i, j, -curvature), (j, i, -curvature)):
                    if u and v:
                        hess[u - 1, v - 1] += c
            step = mpmath.lu_solve(hess, mpmath.matrix(grad[1:]))
            x[1:] = [v + dv for v, dv in zip(x[1:], step)]
            if max(abs(dv) for dv in step) < mpf(10) ** -32:
                return x
    raise AssertionError("the 40-digit Newton refit did not converge")


class TestOptimumOracle:
    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_converged_rows_are_within_tol_of_the_optimum(self, model):
        # "Converged" means ||m - m*||_inf <= tol.  At 1e-6 and 1e-4 the
        # stop's bound, not rounding, sets how close a row gets.
        mpmath = pytest.importorskip("mpmath")
        tols = (DEFAULT_MLE_TOL, 1e-6, 1e-4)
        checked = 0
        for d1, d2, ii, jj, n in _oracle_corpus(model):
            fits = [_newton_rows(d1, d2, ii, jj, n, model, tol, 50) for tol in tols]
            # Only the halving fixture's row without an optimum may fail.
            assert all(np.array_equal(fit[2], fits[0][2]) for fit in fits)
            assert (~fits[0][2]).sum() <= 1
            for r in np.flatnonzero(fits[0][2]):
                optimum = _exact_optimum(mpmath, d1[r], d2[r], ii, jj, n, model, fits[0][0][r])
                for tol, (m, _, _) in zip(tols, fits):
                    error = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(m[r], optimum))
                    assert error <= tol, (n, r, tol, float(error))
                checked += 1
        assert checked == 3 * (3 * 6 + 21 + 28) + 4 * 6 + 3


def _exact_completion(mpmath, pcm: IPCM, missing, start):
    """The log entries t of the eigenvalue-minimal completion of ``pcm`` at
    its ``missing`` pairs to 40 digits: Newton's method in mpmath from
    ``start``, with the Perron pair from ``mpmath.eig`` and the gradient and
    Hessian of log lambda_max written out as in
    :func:`estimators._complete_lambda_min`."""
    n, size = pcm.n, len(missing)
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(v)) for v in start]
        for _ in range(10):
            a = mpmath.eye(n)
            for (i, j), value in pcm.entries.items():
                a[i, j] = mpmath.mpf(value)
            for (i, j), v in zip(missing, t):
                a[i, j], a[j, i] = mpmath.exp(v), mpmath.exp(-v)
            values, vectors = mpmath.eig(a)
            top = max(range(n), key=lambda k: mpmath.re(values[k]))
            lam = mpmath.re(values[top])
            w = [mpmath.re(vectors[k, top]) for k in range(n)]
            w = [v / sum(w) for v in w]
            inverse = (lam * mpmath.eye(n) - a + mpmath.matrix([[v] * n for v in w])) ** -1
            u = [sum(inverse[r, c] for r in range(n)) for c in range(n)]
            complement = mpmath.eye(n) - mpmath.matrix([[v * uc for uc in u] for v in w])
            resolvent = complement * inverse * complement
            dw, du = mpmath.zeros(size, n), mpmath.zeros(size, n)
            grad, diagonal = [], []
            for s, (i, j) in enumerate(missing):
                dw[s, i], dw[s, j] = a[i, j] * w[j], -a[j, i] * w[i]
                du[s, j], du[s, i] = u[i] * a[i, j], -u[j] * a[j, i]
                grad.append((u[i] * a[i, j] * w[j] - u[j] * a[j, i] * w[i]) / lam)
                diagonal.append(u[i] * a[i, j] * w[j] + u[j] * a[j, i] * w[i])
            mixed = du * resolvent * dw.T
            hess = mpmath.matrix(size, size)
            for s in range(size):
                for r in range(size):
                    hess[s, r] = ((diagonal[s] if s == r else 0) + mixed[s, r] + mixed[r, s]) / lam
                    hess[s, r] -= grad[s] * grad[r]
            step = mpmath.lu_solve(hess, mpmath.matrix(grad))
            t = [v - dv for v, dv in zip(t, step)]
            if max(abs(dv) for dv in step) < mpmath.mpf(10) ** -32:
                return t
    raise AssertionError("the 40-digit completion did not converge")


class TestCompletionOracle:
    def test_completion_is_within_tol_of_the_optimum(self):
        # Five structures each at n = 4, 5 and 6, spread over the incomplete
        # catalog, with log-noise of 0.3 and 1 on the known ratios.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(97)
        checked = 0
        for n in (4, 5, 6):
            classes = incomplete_classes(n)
            for k in range(5):
                cls = classes[k * len(classes) // 5]
                weights = rng.integers(1, 10, size=n).astype(float)
                noise = (0.3, 1.0)[k % 2]
                upper = {(i, j): weights[i] / weights[j] * math.exp(rng.uniform(-noise, noise))
                         for i, j in cls.member().sorted_edges()}
                pcm = IPCM.from_upper(n, upper)
                completed = _complete_lambda_min(pcm, pcm.known_pairs(), DEFAULT_COMPLETION_TOL,
                                                 DEFAULT_MAX_ITER)[0]
                missing = [p for p in pair_order(n) if p not in upper]
                t = [math.log(completed[i, j]) for i, j in missing]
                optimum = _exact_completion(mpmath, pcm, missing, t)
                error = max(abs(mpmath.mpf(a) - b) for a, b in zip(t, optimum))
                assert error <= DEFAULT_COMPLETION_TOL, (n, k, float(error))
                checked += 1
        assert checked == 15


class TestLogLikelihood:
    def test_single_even_pair(self):
        data = DataMatrix(2, {(0, 1): (1.0, 1.0)})
        m = ExpectedValueVector(np.zeros(2))
        assert log_likelihood(data, m, LOGISTIC) == pytest.approx(2 * math.log(0.5), abs=1e-15)

    def test_maximum_is_at_the_estimate(self, sports_counts):
        best = bt_mle(sports_counts).m
        top = log_likelihood(sports_counts, best, LOGISTIC)
        rng = np.random.default_rng(31)
        for _ in range(25):
            shift = np.zeros(4)
            shift[1:] = rng.normal(scale=0.1, size=3)
            other = ExpectedValueVector(best.values + shift)
            assert log_likelihood(sports_counts, other, LOGISTIC) <= top + 1e-12

    def test_scales_linearly_with_the_data(self, probs_modified):
        m = ExpectedValueVector(np.array([0.0, 0.3, -0.2, 1.0]))
        base = log_likelihood(probs_modified, m, LOGISTIC)
        for factor in (0.5, 7.0):
            scaled = log_likelihood(probs_modified.scaled(factor), m, LOGISTIC)
            assert scaled == pytest.approx(factor * base, rel=1e-12)

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(37)
        step = 1e-6
        for _ in range(50):
            n = int(rng.integers(3, 7))
            graph = random_connected_graph(rng, n)
            entries = {
                pair: (float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
                for pair in graph.sorted_edges()
            }
            data = DataMatrix(n, entries)
            m_values = np.concatenate([[0.0], rng.normal(scale=1.0, size=n - 1)])
            analytic = log_likelihood_gradient(data, ExpectedValueVector(m_values), model)
            numeric = np.zeros(n)
            for k in range(n):
                up, down = m_values.copy(), m_values.copy()
                up[k] += step
                down[k] -= step
                numeric[k] = (
                    log_likelihood(data, ExpectedValueVector.gauged(up), model)
                    - log_likelihood(data, ExpectedValueVector.gauged(down), model)
                ) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    @pytest.mark.parametrize(
        "fixture", ["sports_counts", "probs_modified", "probs_incomplete", "league"]
    )
    def test_fit_reports_the_log_likelihood_of_its_estimate(self, request, fixture, model):
        data = DataMatrix(3, LEAGUE) if fixture == "league" else request.getfixturevalue(fixture)
        fit = bt_mle(data, model)
        assert fit.loglik == log_likelihood(data, fit.m, model)

    def test_gradient_vanishes_at_the_optimum(self, probs_modified):
        for model in (LOGISTIC, NORMAL):
            result = bt_mle(probs_modified, model)
            gradient = log_likelihood_gradient(probs_modified, result.m, model)
            assert np.max(np.abs(gradient[1:])) < 1e-7

    @pytest.mark.parametrize("model", [LOGISTIC, NORMAL])
    def test_one_item_has_a_zero_gradient(self, model):
        gradient = log_likelihood_gradient(DataMatrix(1, {}), ExpectedValueVector(np.zeros(1)), model)
        assert gradient.tolist() == [0.0]

    @pytest.mark.parametrize("delta", [1e-3, 0.5, 1.0, 3.0, 10.0, 37.0, 40.0, 100.0, 300.0, 1e3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_normal_gradient_matches_50_digits(self, delta, sign):
        # The Mills ratios exp(ln phi - ln Phi) round with delta^2: pin the
        # accuracy the docstring of log_likelihood_gradient states.
        mpmath = pytest.importorskip("mpmath")
        data = DataMatrix(2, {(0, 1): (1.0, 1.0)})
        gradient = log_likelihood_gradient(
            data, ExpectedValueVector(np.array([0.0, sign * delta])), NORMAL
        )
        with mpmath.workdps(50):
            x = -mpmath.mpf(sign * delta)  # m_1 - m_2
            slope = mpmath.npdf(x) / mpmath.ncdf(x) - mpmath.npdf(x) / mpmath.ncdf(-x)
            exact = (slope, -slope)
            error = max(abs((mpmath.mpf(float(g)) - e) / e) for g, e in zip(gradient, exact))
        assert error <= 1e-9, float(error)


class TestLinks:
    """Each :class:`ModelKind` member's link, so that a new member is checked
    as it is added."""

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_pair_terms_are_the_derivatives_of_the_pair_likelihood(self, model):
        # One pair per row, so each row's log-likelihood is its pair's term.
        rng = np.random.default_rng(97)
        delta = np.linspace(-8.0, 8.0, 161)[:, None]
        d1, d2 = rng.uniform(0.1, 3.0, size=(2, *delta.shape))
        step = 1e-4
        _, slope, curvature = estimators._pair_terms(delta, d1, d2, model, slice(None))
        up = estimators._pair_terms(delta + step, d1, d2, model, slice(None))
        down = estimators._pair_terms(delta - step, d1, d2, model, slice(None))
        assert_allclose((up[0] - down[0]) / (2 * step), slope[:, 0], rtol=1e-7, atol=1e-7)
        assert_allclose((down[1] - up[1]) / (2 * step), curvature, rtol=1e-7, atol=1e-7)
        assert (curvature > 0).all()

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_cdf_inverts_the_quantile_function(self, model):
        tail = np.logspace(-12, math.log10(0.5), 200)
        p = np.concatenate([tail, 1.0 - tail])
        assert_allclose(model.cdf(model.inverse_cdf(p)), p, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_log_cdf_is_the_log_of_the_cdf(self, model):
        x = np.linspace(-800.0, 40.0, 8401)
        cdf = model.cdf(x)
        shown = cdf > 1e-300
        assert shown.sum() > 700
        assert_allclose(model.log_cdf(x[shown]), np.log(cdf[shown]), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_links_are_scipy_special_bit_for_bit(self, model):
        # The links are loaded on first use; they must be scipy's own ufuncs.
        import scipy.special

        names = {ModelKind.LOGISTIC: ("expit", "log_expit", "logit"),
                 ModelKind.NORMAL: ("ndtr", "log_ndtr", "ndtri")}[model]
        cdf, log_cdf, inverse_cdf = (getattr(scipy.special, name) for name in names)
        x = np.linspace(-40.0, 40.0, 8001)
        tail = np.logspace(-300, math.log10(0.5), 3001)
        p = np.concatenate([tail, 0.5 + tail[:-1], 1.0 - tail])
        for link, reference, grid in ((model.cdf, cdf, x), (model.log_cdf, log_cdf, x),
                                      (model.inverse_cdf, inverse_cdf, p)):
            assert link is reference
            assert np.array_equal(link(grid).view(np.int64), reference(grid).view(np.int64))

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_a_pickled_member_is_the_same_member(self, model):
        assert pickle.loads(pickle.dumps(model)) is model

    def test_error_bound_takes_the_normal_quantile_exactly(self):
        import scipy.special

        assert error_bound(10**6, 0.01, 1.0) == scipy.special.ndtri(0.995) / 1000


class TestTransforms:
    def test_weights_from_m_goldens(self):
        m = ExpectedValueVector(np.array([0.0, -0.693, -0.693, 0.0]))
        assert_allclose(weights_from_m(m).values, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-3)
        m2 = ExpectedValueVector(np.array([0.0, 0.246, 0.954, 1.450]))
        assert_allclose(weights_from_m(m2).values, [0.109, 0.140, 0.284, 0.466], atol=1e-3)
        uniform = weights_from_m(ExpectedValueVector(np.zeros(3)))
        assert_allclose(uniform.values, np.full(3, 1 / 3), atol=1e-15)

    def test_m_from_weights_analytic(self):
        m = m_from_weights(WeightVector.normalized([1 / 3, 1 / 6, 1 / 6, 1 / 3]))
        assert_allclose(m.values, [0.0, -math.log(2), -math.log(2), 0.0], atol=1e-14)
        assert_allclose(
            m_from_weights(WeightVector.normalized([1, 1, 1])).values, np.zeros(3), atol=0
        )

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            w = WeightVector.normalized(rng.uniform(0.1, 5.0, size=5))
            back = weights_from_m(m_from_weights(w))
            assert np.max(np.abs(back.values - w.values)) < 1e-12
