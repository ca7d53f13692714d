"""LLSM, eigenvector method, maximum likelihood, and the transforms."""

from __future__ import annotations

import math
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
                completed = _complete_lambda_min(pcm, DEFAULT_COMPLETION_TOL, DEFAULT_MAX_ITER)[0]
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
        # step is below the tolerance.
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
        # evaluates.  A step that runs out of halvings evaluates its 60 trials,
        # then the next halving for its derivatives.
        per_step = []
        terms, solve = estimators._pair_terms, _Incidence.solve

        def counted_terms(*args):
            per_step[-1] += 1
            return terms(*args)

        monkeypatch.setattr(estimators, "_pair_terms", counted_terms)
        monkeypatch.setattr(_Incidence, "solve", lambda *args: per_step.append(0) or solve(*args))
        _newton_rows(stuck[0][None], stuck[1][None], ii, jj, 4, model, DEFAULT_MLE_TOL, max_iter)
        assert len(per_step) == 1 + max_iter and max(per_step) == 61

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

    def test_gradient_vanishes_at_the_optimum(self, probs_modified):
        for model in (LOGISTIC, NORMAL):
            result = bt_mle(probs_modified, model)
            gradient = log_likelihood_gradient(probs_modified, result.m, model)
            assert np.max(np.abs(gradient[1:])) < 1e-7


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
