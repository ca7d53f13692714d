"""Random draws, perturbation, similarity measures, and the experiment loop."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import rankdata

import paircomp

from paircomp import (
    ComparisonGraph,
    DataMatrix,
    ExpectedValueVector,
    ModelKind,
    SimulationConfig,
    WeightVector,
    bt_mle,
    draw_initial_weights,
    enumerate_connected,
    error_bound,
    exact_probabilities,
    m_from_weights,
    perturb_data,
    run,
    similarity,
    star_class,
    weights_from_m,
)
from paircomp.estimators import _newton_rows, _pair_data
from paircomp.graphs import MAX_CATALOG_N, pair_order
from paircomp import simulation
from paircomp.simulation import (
    _PCG64_MULT,
    BATCH_ROWS,
    HIGHER_IS_BETTER,
    MEASURE_NAMES,
    _block_bounds,
    _check_streams,
    _draw_rows,
    _lemire_digits,
    _measure_rows,
    _pcg64_starts,
    _pcg64_words,
    _solve_chunk,
    _structure_mask,
    worker_count,
)


class ScriptedRng:
    """Stands in for a Generator, returning pre-arranged draws."""

    def __init__(self, integers=(), uniforms=()):
        self._integers = list(integers)
        self._uniforms = list(uniforms)

    def integers(self, low, high, size):
        return np.array(self._integers[:size])

    def uniform(self, low, high):
        return self._uniforms.pop(0)


class TestDrawInitialWeights:
    def test_equal_draws_give_uniform(self):
        w = draw_initial_weights(ScriptedRng(integers=[9, 9, 9]), 3)
        assert_allclose(w.values, np.full(3, 1 / 3), atol=1e-15)

    def test_one_two_three(self):
        w = draw_initial_weights(ScriptedRng(integers=[1, 2, 3]), 3)
        assert_allclose(w.values, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_coordinate_means_are_exchangeable(self):
        rng = np.random.default_rng(99)
        draws = np.array([draw_initial_weights(rng, 4).values for _ in range(100_000)])
        means = draws.mean(axis=0)
        errors = 3 * draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(means - 0.25) < errors)

    def test_draws_are_integers_one_to_nine(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = draw_initial_weights(rng, 5)
            scaled = w.values / w.values.min()
            ints = scaled * np.arange(1, 10)[:, None]  # some multiple is integral
            assert np.any(np.all(np.abs(ints - np.round(ints)) < 1e-9, axis=1))


def complete_probabilities(m_values, model=ModelKind.LOGISTIC) -> DataMatrix:
    m = ExpectedValueVector.gauged(np.asarray(m_values, dtype=float))
    return exact_probabilities(m, ComparisonGraph.complete(len(m_values)), model)


class TestPerturbData:
    def test_zero_level_is_identity(self):
        data = complete_probabilities([0.0, 0.4, -0.3])
        rng = np.random.default_rng(5)
        assert perturb_data(data, 0.0, rng) is data

    def test_postconditions(self):
        data = complete_probabilities([0.0, 1.2, -0.7, 2.0])
        rng = np.random.default_rng(6)
        epsilon = 1e-6
        for _ in range(50):
            noisy = perturb_data(data, 0.3, rng, epsilon)
            for d1, d2 in noisy.entries.values():
                assert d1 + d2 == 1.0
                assert epsilon < d1 < 1 - epsilon

    def test_offsets_stay_in_interval(self):
        data = DataMatrix(2, {(0, 1): (0.852, 0.148)})
        rng = np.random.default_rng(7)
        for _ in range(200):
            noisy = perturb_data(data, 0.2, rng)
            assert 0.652 < noisy.entries[(0, 1)][0] < 1.0 - 1e-6

    def test_out_of_range_draws_are_redrawn(self):
        data = DataMatrix(2, {(0, 1): (0.95, 0.05)})
        rng = ScriptedRng(uniforms=[0.16, -0.05])  # 1.11 rejected, 0.90 accepted
        noisy = perturb_data(data, 0.2, rng)
        assert noisy.entries[(0, 1)][0] == pytest.approx(0.90, abs=1e-15)

    def test_rejects_incomplete_or_degenerate_input(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            perturb_data(DataMatrix(3, {(0, 1): (0.5, 0.5)}), 0.1, rng)
        with pytest.raises(ValueError):
            perturb_data(DataMatrix(2, {(0, 1): (2.0, 1.0)}), 0.1, rng)

    @pytest.mark.parametrize("d1", [0.9, 0.1])
    def test_unreachable_window_raises_instead_of_redrawing_forever(self, d1):
        # 0.9 - 0.3 >= 1 - 0.4 and 0.1 + 0.3 <= 0.4: no draw can be accepted.
        data = DataMatrix(2, {(0, 1): (d1, 1.0 - d1)})
        with pytest.raises(ValueError, match="cannot reach"):
            perturb_data(data, 0.3, np.random.default_rng(9), epsilon=0.4)
        # The same window is reachable with a wider level, and level 0 is a no-op.
        noisy = perturb_data(data, 0.31, np.random.default_rng(9), epsilon=0.4)
        assert 0.4 < noisy.entries[(0, 1)][0] < 0.6
        assert perturb_data(data, 0.0, np.random.default_rng(9), epsilon=0.4) is data

    @pytest.mark.parametrize("d1", [0.9, 0.1])
    def test_sliver_window_raises_instead_of_redrawing_for_ages(self, d1):
        # Only a 1e-5 wide part of the 0.6 wide interval is inside the window.
        data = DataMatrix(2, {(0, 1): (d1, 1.0 - d1)})
        with pytest.raises(ValueError, match="cannot reach"):
            perturb_data(data, 0.3, np.random.default_rng(9), epsilon=0.39999)
        # Half the interval is inside a window of 0.25.
        noisy = perturb_data(data, 0.3, np.random.default_rng(9), epsilon=0.25)
        assert 0.25 < noisy.entries[(0, 1)][0] < 0.75


def reference_draw_rows(config: SimulationConfig, start: int, stop: int) -> np.ndarray:
    """The per-replication draw through the public scalar path, one row per
    replication in lexicographic pair order: the bitwise oracle of _draw_rows."""
    complete = ComparisonGraph.complete(config.n)
    pairs = complete.sorted_edges()
    rows = np.empty((stop - start, len(pairs)))
    for offset, r in enumerate(range(start, stop)):
        rng = np.random.default_rng([config.seed, r])
        weights = draw_initial_weights(rng, config.n)
        m0 = m_from_weights(weights)
        exact = exact_probabilities(m0, complete, config.model)
        perturbed = perturb_data(exact, config.perturb, rng, config.epsilon)
        rows[offset] = [perturbed.entries[p][0] for p in pairs]
    return rows


class CountingRng:
    """Wraps a Generator, counting the uniform draws taken from it."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.uniforms = rng, 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.uniforms += 1
        return self.rng.uniform(*args, **kwargs)


def uniforms_drawn(config: SimulationConfig, r: int) -> int:
    """Uniform draws the scalar path takes to perturb replication r."""
    rng = CountingRng(np.random.default_rng([config.seed, r]))
    complete = ComparisonGraph.complete(config.n)
    m0 = m_from_weights(draw_initial_weights(rng, config.n))
    perturb_data(exact_probabilities(m0, complete, config.model), config.perturb, rng, config.epsilon)
    return rng.uniforms


def generator_whose_next_output_is(word: int) -> np.random.Generator:
    """A PCG64 Generator whose next 64-bit output is ``word``: the state it
    steps to has a high limb of 0, so XSL RR returns the low limb as it is."""
    inc = 1
    bits = np.random.PCG64()
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)


def record_generators(monkeypatch) -> list:
    """Record the seed of every Generator default_rng builds from now on.
    The stream check runs first, so that its one build per process is not
    counted."""
    _check_streams()
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: built.append(seed) or default_rng(seed)
    )
    return built


class TestChunkDraw:
    @pytest.mark.parametrize(
        "n, model, level, bounds, epsilon",
        [
            (4, ModelKind.LOGISTIC, 0.15, (0, 40), 1e-6),
            (4, ModelKind.NORMAL, 0.15, (0, 40), 1e-6),
            (5, ModelKind.LOGISTIC, 0.6, (0, 40), 1e-6),
            (5, ModelKind.NORMAL, 0.6, (0, 40), 1e-6),
            (6, ModelKind.NORMAL, 0.15, (0, 24), 1e-6),
            (4, ModelKind.NORMAL, 0.0, (0, 24), 1e-6),
            (5, ModelKind.LOGISTIC, 0.0, (0, 24), 0.3),
            (5, ModelKind.NORMAL, 0.15, (37, 60), 1e-6),
            (4, ModelKind.LOGISTIC, 0.3, (0, 40), 0.2),
        ],
    )
    def test_array_draw_matches_the_scalar_path_bitwise(self, n, model, level, bounds, epsilon):
        config = SimulationConfig(
            n=n, perturb=level, num_sims=100, seed=2024, model=model, epsilon=epsilon
        )
        assert np.array_equal(_draw_rows(config, *bounds), reference_draw_rows(config, *bounds))

    def test_high_level_exercises_the_redraw_path(self):
        # Without rejected block draws the bitwise check above would never
        # reach the scalar redraws.
        config = SimulationConfig(n=5, perturb=0.6, num_sims=40, seed=2024)
        exact = reference_draw_rows(replace(config, perturb=0.0), 0, 40)
        offsets = []
        for r in range(40):
            rng = np.random.default_rng([config.seed, r])
            rng.integers(1, 10, size=5)
            offsets.append(rng.uniform(-0.6, 0.6, size=10))
        block = exact + np.array(offsets)
        rejected = (block <= config.epsilon) | (block >= 1.0 - config.epsilon)
        assert rejected.any(axis=1).sum() >= 10

    @pytest.mark.parametrize(
        "n, model, level, rows, falls_back",
        [
            (4, ModelKind.LOGISTIC, 0.15, 200, False),
            (5, ModelKind.NORMAL, 0.0, 200, False),
            (5, ModelKind.NORMAL, 0.6, 60, True),
        ],
    )
    def test_only_rows_that_fall_back_build_a_generator(
        self, monkeypatch, n, model, level, rows, falls_back
    ):
        # A row is drawn in arrays unless its replay needs more offsets than
        # its block and a second block hold (or an integer draw is rejected,
        # 4 in 2**32 per integer, which these seeds never meet); each row that
        # falls back builds its own Generator once.
        config = SimulationConfig(n=n, perturb=level, num_sims=rows, seed=2024, model=model)
        pairs = n * (n - 1) // 2
        expected = [[2024, r] for r in range(rows) if uniforms_drawn(config, r) > 2 * pairs]
        assert bool(expected) == falls_back
        reference = reference_draw_rows(config, 0, rows)
        built = record_generators(monkeypatch)
        drawn = _draw_rows(config, 0, rows)
        assert built == expected
        assert np.array_equal(drawn, reference)

    def test_draw_refuses_a_window_missed_by_rounding(self):
        # Level 0.1 with epsilon 0.1998 leaves the config's F(ln 9), rounded to
        # 0.8999999999999999, an accepted share just above the floor; a drawn
        # 1:9 pair at 0.09999999999999998 falls just below it and must be
        # refused at the draw rather than redrawn for ages.
        config = SimulationConfig(n=4, perturb=0.1, num_sims=300, seed=1, epsilon=0.1998)
        with pytest.raises(ValueError, match="cannot reach"):
            _draw_rows(config, 0, 300)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_structure_mask_matches_the_member_graphs(self, n):
        expected = [[p in cls.member().edges for p in pair_order(n)]
                    for cls in enumerate_connected(n)]
        assert np.array_equal(_structure_mask(n), np.array(expected))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_structure_mask_rows_spell_the_class_codes(self, n):
        # Each row, read with the first pair as the most significant bit, is
        # its class's canonical code.  The mask is shared, so it is read-only.
        assert not _structure_mask(n).flags.writeable
        for row, cls in zip(_structure_mask(n), enumerate_connected(n)):
            assert int("".join("1" if bit else "0" for bit in row), 2) == cls.canonical_code


class TestSubstreamKernel:
    """The array substreams of _draw_rows against numpy's own Generator."""

    @pytest.mark.parametrize("level", [0.0, 0.15, 0.6])
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_draw_matches_the_scalar_path_for_every_seed_width(self, seed, n, model, level):
        # Seeds below 2**32 are one entropy word, the others two.
        config = SimulationConfig(n=n, perturb=level, num_sims=30, seed=seed, model=model)
        assert np.array_equal(_draw_rows(config, 0, 30), reference_draw_rows(config, 0, 30))

    @pytest.mark.parametrize("seed", [7, 2**64 - 1])
    def test_a_block_across_two_word_replication_indices(self, seed):
        # r = 2**32 is the first replication index of two entropy words.
        config = SimulationConfig(n=5, perturb=0.6, num_sims=10, seed=seed, model=ModelKind.NORMAL)
        bounds = (2**32 - 2, 2**32 + 2)
        assert np.array_equal(_draw_rows(config, *bounds), reference_draw_rows(config, *bounds))

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    def test_raw_outputs_match_the_bit_generator(self, seed):
        reps = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        words = _pcg64_words(_pcg64_starts(seed, np.array(reps, np.uint64)), 3, 9)
        for r, row in zip(reps, words):
            bits = np.random.default_rng([seed, r]).bit_generator
            assert np.array_equal(row, bits.random_raw(12)[3:])

    # Low 32-bit halves whose product with 9 leaves 0, 3, 4 and 2**32 - 9 in
    # the low word: numpy redraws below 2**32 % 9 = 4.
    @pytest.mark.parametrize(
        "half, accepted",
        [(0, False), (3 * pow(9, -1, 2**32), False), (4 * pow(9, -1, 2**32), True),
         (2**32 - 1, True)],
    )
    def test_lemire_rejects_as_numpy_does(self, half, accepted):
        word = (2**32 - 1) << 32 | half % 2**32
        rng = generator_whose_next_output_is(word)
        integers = rng.integers(1, 10, size=2)
        # Both halves accepted: one output taken, so the state is the one stepped to.
        assert (rng.bit_generator.state["state"]["state"] == word) == accepted
        digits, ok = _lemire_digits(np.array([[word]], np.uint64), 2)
        assert ok.tolist() == [accepted]
        if accepted:
            assert np.array_equal(digits[0], integers)

    def test_a_rejected_integer_draw_falls_back_to_the_scalar_path(self, monkeypatch):
        # Zero the integer word of row 2, a rejected draw: the row must come
        # from its own Generator, which still gives numpy's values.
        config = SimulationConfig(n=4, perturb=0.15, num_sims=8, seed=5)
        reference = reference_draw_rows(config, 10, 18)
        words = simulation._pcg64_words

        def rejected_in_row_2(starts, first, count):
            out = words(starts, first, count)
            if first == 0:
                out[2, 0] = 0
            return out

        monkeypatch.setattr(simulation, "_pcg64_words", rejected_in_row_2)
        built = record_generators(monkeypatch)
        drawn = _draw_rows(config, 10, 18)
        assert built == [[5, 12]]
        assert np.array_equal(drawn, reference)

    def test_guard_refuses_a_numpy_that_draws_differently(self, monkeypatch):
        # Stands in for a numpy release whose Generator streams changed.
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: default_rng([0, *seed]))
        _check_streams.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
                _draw_rows(SimulationConfig(n=4, perturb=0.15, num_sims=4, seed=1), 0, 4)
        finally:
            _check_streams.cache_clear()

    def test_guard_runs_on_first_use_not_at_import(self):
        code = (
            "import paircomp, paircomp.simulation as s\n"
            "before = s._check_streams.cache_info().currsize\n"
            "s._draw_rows(s.SimulationConfig(n=3, perturb=0.1, num_sims=2, seed=1), 0, 2)\n"
            "print(before, s._check_streams.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(paircomp.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out.split() == ["0", "1"]


class TestSimilarity:
    def pack(self, m_values):
        m = ExpectedValueVector.gauged(np.asarray(m_values, dtype=float))
        e = np.exp(m.values - m.values.max())
        return m, WeightVector.normalized(e)

    def test_identity_is_exact(self):
        m, w = self.pack([0.0, 0.5, 1.5, -0.2])
        measures = similarity(m, w, m, w)
        assert measures.as_tuple() == (0.0, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_one_discordant_pair(self):
        mk, wk = self.pack([0.0, 1.0, 2.0, 3.0])
        mi, wi = self.pack([0.0, 1.0, 3.0, 2.0])
        measures = similarity(mk, wk, mi, wi)
        assert measures.kendall_tau == pytest.approx(2 / 3, abs=1e-15)

    def test_full_reversal(self):
        mk, wk = self.pack([0.0, 1.0, 2.0, 3.0])
        mi, wi = self.pack([3.0, 2.0, 1.0, 0.0])
        measures = similarity(mk, wk, mi, wi)
        assert measures.spearman_rho == pytest.approx(-1.0, abs=1e-15)
        assert measures.kendall_tau == pytest.approx(-1.0, abs=1e-15)

    def test_euclidean_hand_value(self):
        mk, wk = self.pack([0.0, 1.0])
        mi, wi = self.pack([0.0, 2.0])
        measures = similarity(mk, wk, mi, wi)
        assert measures.eu_m == pytest.approx(1.0, abs=1e-15)
        assert measures.eu_w == pytest.approx(
            float(np.linalg.norm(wk.values - wi.values)), abs=1e-15
        )

    def test_constant_vector_gives_nan_pearson(self):
        mk, wk = self.pack([0.0, 0.0, 0.0])
        mi, wi = self.pack([0.0, 0.5, 1.0])
        measures = similarity(mk, wk, mi, wi)
        assert math.isnan(measures.pe_m)
        assert math.isnan(measures.pe_w)
        # Tied ranks still yield defined rank correlations: the constant
        # vector ranks as (2, 2, 2) against (1, 2, 3), so sum d^2 = 2.
        assert measures.spearman_rho == pytest.approx(1 - 6 * 2 / (3 * 8), abs=1e-15)
        assert measures.kendall_tau == 0.0

    def test_tied_ranks_use_average_ranks(self):
        mk, wk = self.pack([0.0, 1.0, 1.0, 2.0])
        mi, wi = self.pack([0.0, 1.0, 2.0, 3.0])
        measures = similarity(mk, wk, mi, wi)
        # ranks mk: 1, 2.5, 2.5, 4 vs mi: 1, 2, 3, 4 -> sum d^2 = 0.5
        assert measures.spearman_rho == pytest.approx(1 - 6 * 0.5 / (4 * 15), abs=1e-15)

    def test_length_mismatch(self):
        mk, wk = self.pack([0.0, 1.0, 2.0])
        mi, wi = self.pack([0.0, 1.0])
        with pytest.raises(ValueError):
            similarity(mk, wk, mi, wi)


def reference_spearman(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman's rho of each row pair from scipy's average ranks."""
    n = x.shape[1]
    gap = rankdata(x, axis=1, method="average") - rankdata(y, axis=1, method="average")
    return 1.0 - 6.0 * np.sum(gap**2, axis=1) / (n * (n * n - 1))


def reference_kendall(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kendall's tau of each row pair by a loop over the pairs i < j."""
    n = x.shape[1]
    acc = np.zeros(x.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            acc += np.sign(x[:, i] - x[:, j]) * np.sign(y[:, i] - y[:, j])
    return acc / (n * (n - 1) // 2)


class TestRankMeasures:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pairwise_signs_match_the_references(self, n):
        rng = np.random.default_rng(700 + n)
        # Digits 0..2 force ties, normal draws have none, and half of the
        # second vectors are near copies of the first so correlations vary.
        x = np.concatenate([rng.integers(0, 3, (60, n)), rng.normal(size=(60, n))]).astype(float)
        y = np.concatenate([rng.integers(0, 3, (60, n)), rng.normal(size=(60, n))]).astype(float)
        y[::2] = np.round(x[::2] + 0.6 * rng.normal(size=(60, n)))
        out = _measure_rows(x, x, y, y)
        assert np.array_equal(out[:, 4], reference_spearman(x, y))
        assert np.array_equal(out[:, 5], reference_kendall(x, y))

        # 3-D, as a chunk scores it: one reference row against many.
        full, part = x[:12, None, :], y.reshape(12, 10, n)
        out = _measure_rows(full, full, part, part)
        assert out.shape == (12, 10, 6)
        flat_full = np.broadcast_to(full, part.shape).reshape(-1, n)
        flat_part = part.reshape(-1, n)
        assert np.array_equal(out[..., 4].ravel(), reference_spearman(flat_full, flat_part))
        assert np.array_equal(out[..., 5].ravel(), reference_kendall(flat_full, flat_part))


class TestErrorBound:
    def test_reference_value(self):
        assert error_bound(10**6, 0.01, 1.0) == pytest.approx(0.00258, abs=1e-5)

    def test_root_n_scaling(self):
        assert error_bound(4 * 10**6, 0.01, 1.0) == pytest.approx(
            error_bound(10**6, 0.01, 1.0) / 2, rel=1e-12
        )

    def test_one_sigma_quantile(self):
        assert error_bound(1, 0.3174, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            error_bound(0, 0.01, 1.0)
        with pytest.raises(ValueError):
            error_bound(10, 1.5, 1.0)
        with pytest.raises(ValueError):
            error_bound(10, 0.01, -1.0)
        with pytest.raises(ValueError):
            error_bound(100, 0.05, math.nan)


def chunk_newton(config: SimulationConfig):
    """The batch solve of _solve_chunk over every replication of the config:
    (m, iterations, converged), one row per (replication, structure)."""
    n = config.n
    ii, jj = np.array(pair_order(n), dtype=np.intp).T
    present = _structure_mask(n)
    d1 = _draw_rows(config, 0, config.num_sims)[:, None, :]
    return _newton_rows(
        np.where(present, d1, 0.0).reshape(-1, len(ii)),
        np.where(present, 1.0 - d1, 0.0).reshape(-1, len(ii)),
        ii, jj, n, config.model, 1e-10, 100_000,
    )


class TestBatchSolver:
    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    def test_batch_rows_match_single_calls(self, model):
        # The experiment's batch path must agree with bt_mle row by row.  A
        # batch takes pair differences from a matrix product and a single
        # call from a gather; the complete n = 5 and 6 lists have the most
        # terms per vertex and per product.
        rng = np.random.default_rng(55)
        for graph in (
            ComparisonGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
            ComparisonGraph.complete(5),
            ComparisonGraph.complete(6),
        ):
            n = graph.n
            rows = []
            mats = []
            for _ in range(8):
                entries = {
                    pair: (float(rng.uniform(0.05, 0.95)), 0.0) for pair in graph.sorted_edges()
                }
                entries = {p: (d1, 1.0 - d1) for p, (d1, _) in entries.items()}
                data = DataMatrix(n, entries)
                mats.append(data)
                rows.append([entries[p][0] for p in graph.sorted_edges()])
            d1 = np.array(rows)
            d2 = 1.0 - d1
            ii, jj, _, _ = _pair_data(mats[0])
            batch_m, _, converged = _newton_rows(d1, d2, ii, jj, n, model, 1e-10, 100_000)
            assert converged.all()
            for r, data in enumerate(mats):
                single = bt_mle(data, model)
                assert np.array_equal(batch_m[r], single.m.values)

    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_unperturbed_rows_stop_after_one_step(self, n, model):
        # Exact probabilities are consistent, so the least-squares start of
        # every structure is already the MLE.
        config = SimulationConfig(n=n, perturb=0.0, num_sims=20, seed=1, model=model)
        _, iterations, converged = chunk_newton(config)
        assert converged.all()
        assert np.all(iterations == 1)

    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    @pytest.mark.parametrize("n, sims", [(4, 2000), (5, 1000), (6, 150)])
    def test_least_squares_start_keeps_newton_short(self, n, sims, model):
        # Row iterations over every structure; the zero start needed a median
        # of 5-6 and a 99th percentile of 8 here.
        config = SimulationConfig(n=n, perturb=0.15, num_sims=sims, seed=1, model=model)
        _, iterations, converged = chunk_newton(config)
        assert converged.all()
        assert np.percentile(iterations, 50) <= 4
        assert np.percentile(iterations, 99) <= 6

    def test_chunking_does_not_change_results(self):
        config = SimulationConfig(n=4, perturb=0.2, num_sims=12, seed=77)
        a = run(config)
        bounds = _block_bounds(12, 6)
        assert bounds[0][1] - bounds[0][0] >= 2  # chunks really do batch rows

        whole, _ = _solve_chunk(config, 0, 12)
        split = np.concatenate(
            [_solve_chunk(config, s, min(s + 3, 12))[0] for s in range(0, 12, 3)]
        )
        assert np.array_equal(whole, split)
        b = run(config)
        for key, cell in a.stats.items():
            assert b.stats[key] == cell


    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    @pytest.mark.parametrize("n, sims", [(4, 12), (5, 5)])
    def test_chunk_matches_per_structure_single_calls(self, n, sims, model):
        # One batch over every (replication, structure) row against the
        # public path: restrict -> bt_mle -> similarity per structure.
        config = SimulationConfig(n=n, perturb=0.2, num_sims=sims, seed=41, model=model)
        measures, failures = _solve_chunk(config, 0, sims)
        assert failures == []
        complete = ComparisonGraph.complete(n)
        for r in range(sims):
            rng = np.random.default_rng([config.seed, r])
            m0 = m_from_weights(draw_initial_weights(rng, n))
            data = perturb_data(exact_probabilities(m0, complete, model), 0.2, rng)
            full = bt_mle(data, model)
            w_full = weights_from_m(full.m)
            for g, cls in enumerate(enumerate_connected(n)):
                part = bt_mle(data.restrict(cls.member()), model)
                single = similarity(full.m, w_full, part.m, weights_from_m(part.m))
                assert_allclose(measures[r, g], single.as_tuple(), rtol=1e-12, atol=0.0)

    def test_chunks_respect_the_batch_cap(self):
        classes = len(enumerate_connected(6))
        bounds = _block_bounds(10**6, classes)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10**6
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert max(e - s for s, e in bounds) * classes <= BATCH_ROWS
        # A small run is one block: 64 n = 4 replications are one chunk of 64.
        assert _block_bounds(64, 6) == [(0, 64)]


def test_cli_import_leaves_scipy_stats_out():
    env = dict(os.environ)
    package_root = str(Path(paircomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, paircomp.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


class TestRun:
    def test_unperturbed_data_is_fully_recovered(self):
        # Seed chosen so no replication draws tied weights: exact ties make
        # the Kendall tau of a perfect recovery smaller than 1 by definition.
        config = SimulationConfig(n=4, perturb=0.0, num_sims=5, seed=424269)
        for r in range(config.num_sims):
            rng = np.random.default_rng([config.seed, r])
            assert len(set(rng.integers(1, 10, size=4))) == 4
        summary = run(config)
        assert not summary.failures
        for cls in summary.classes:
            assert summary.mean(cls.id, "eu_m") < 1e-8
            assert summary.mean(cls.id, "eu_w") < 1e-8
            for name in ("pe_m", "pe_w"):
                assert summary.mean(cls.id, name) == pytest.approx(1.0, abs=1e-12)
            for name in ("rho", "tau"):
                assert summary.mean(cls.id, name) == 1.0

    def test_complete_class_scores_exactly_perfect(self):
        config = SimulationConfig(n=4, perturb=0.25, num_sims=6, seed=11)
        summary = run(config)
        complete_id = next(c.id for c in summary.classes if c.edge_count == 6)
        expected = dict(zip(MEASURE_NAMES, (0.0, 0.0, 1.0, 1.0, 1.0, 1.0)))
        for name, value in expected.items():
            cell = summary.cell(complete_id, name)
            assert cell.mean == value
            assert cell.stddev == 0.0
            assert cell.count == config.num_sims

    def test_deterministic_given_config(self):
        config = SimulationConfig(n=4, perturb=0.1, num_sims=10, seed=3141)
        a, b = run(config), run(config)
        assert a.stats == b.stats
        assert a.failures == b.failures

    def test_worker_count_env_does_not_change_results(self, monkeypatch):
        config = SimulationConfig(n=4, perturb=0.1, num_sims=10, seed=2718)
        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        a = run(config)
        monkeypatch.setenv("PAIRCOMP_THREADS", "2")
        b = run(config)
        assert a.stats == b.stats

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_small_blocks_do_not_change_results(self, monkeypatch, threads):
        # Blocks of 50 // 6 = 8 replications, the last one short.
        import paircomp.simulation as sim

        config = SimulationConfig(n=4, perturb=0.2, num_sims=61, seed=808)
        monkeypatch.setattr(sim, "BATCH_ROWS", 50)
        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        reference = run(config)
        monkeypatch.setenv("PAIRCOMP_THREADS", threads)
        assert run(config).stats == reference.stats

    def test_worker_count_does_not_change_failure_records(self, monkeypatch):
        # Four Newton steps leave about two thirds of the n = 5 replications
        # at this level unconverged somewhere; blocks of 8 spread them over
        # the workers, which are forked and so see the patched values.
        import paircomp.simulation as sim

        config = SimulationConfig(n=5, perturb=0.3, num_sims=40, seed=1)
        monkeypatch.setattr(sim, "DEFAULT_MAX_ITER", 4)
        monkeypatch.setattr(sim, "BATCH_ROWS", 21 * 8)
        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        a = run(config)
        monkeypatch.setenv("PAIRCOMP_THREADS", "2")
        b = run(config)
        assert a.failures == b.failures
        assert a.stats == b.stats
        # One record per excluded replication, in replication order, of
        # plain ints that json can write.
        reps = [r for r, _ in a.failures]
        assert all(type(r) is int and type(g) in (int, type(None)) for r, g in a.failures)
        assert reps == sorted(set(reps)) and reps
        complete_id = a.classes[-1].id
        assert a.cell(complete_id, "tau").count == config.num_sims - len(reps)

    @pytest.mark.parametrize("unconverged, first", [([2], 2), ([4, 2], 2), ([4, 5], 5)])
    def test_one_record_names_the_first_unconverged_fit(self, monkeypatch, unconverged, first):
        # Fits of replication 3 fail to converge; a failed complete fit
        # (class 5) is recorded as None ahead of any structure's.
        import paircomp.simulation as sim

        config = SimulationConfig(n=4, perturb=0.2, num_sims=5, seed=21)
        classes = enumerate_connected(4)
        r = 3

        def newton(*args):
            m, iterations, converged = _newton_rows(*args)
            converged[[r * len(classes) + g for g in unconverged]] = False
            return m, iterations, converged

        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        monkeypatch.setattr(sim, "_newton_rows", newton)
        summary = run(config)
        assert summary.failures == ((r, None if first == 5 else classes[first].id),)
        assert summary.cell(classes[-1].id, "tau").count == config.num_sims - 1

    def test_memory_stays_flat_as_replications_grow(self, monkeypatch):
        # Measures are reduced block by block, so a run holds a bounded number
        # of them however many replications it makes.
        import tracemalloc

        import paircomp.simulation as sim

        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        monkeypatch.setattr(sim, "BATCH_ROWS", 96)
        peaks = {}
        for sims in (400, 1600):
            run(SimulationConfig(n=4, perturb=0.2, num_sims=8, seed=3))  # warm caches
            tracemalloc.start()
            try:
                run(SimulationConfig(n=4, perturb=0.2, num_sims=sims, seed=3))
                peaks[sims] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1600] <= 1.5 * peaks[400]

    def test_progress_reaches_total(self):
        ticks = []
        config = SimulationConfig(n=4, perturb=0.1, num_sims=9, seed=5)
        run(config, progress=lambda done, total: ticks.append((done, total)))
        assert ticks[-1] == (9, 9)
        assert all(t == 9 for _, t in ticks)

    def test_normal_model_smoke(self):
        config = SimulationConfig(
            n=4, perturb=0.1, num_sims=4, seed=99, model=ModelKind.NORMAL
        )
        summary = run(config)
        assert not summary.failures
        complete_id = next(c.id for c in summary.classes if c.edge_count == 6)
        assert summary.mean(complete_id, "tau") == 1.0
        star_id = star_class(4).id
        assert 0.0 < summary.mean(star_id, "pe_w") <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=9, perturb=0.1, num_sims=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(n=4, perturb=1.0, num_sims=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(n=4, perturb=0.1, num_sims=0, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(n=4, perturb=0.1, num_sims=1, seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(n=4, perturb=0.1, num_sims=1, seed=0, epsilon=0.7)
        with pytest.raises(ValueError, match=f"between 2 and {MAX_CATALOG_N}"):
            SimulationConfig(n=MAX_CATALOG_N + 1, perturb=0.1, num_sims=1, seed=0)

    def test_only_distances_are_lower_is_better(self):
        assert list(HIGHER_IS_BETTER.items()) == [
            ("eu_m", False), ("eu_w", False), ("pe_m", True), ("pe_w", True),
            ("rho", True), ("tau", True),
        ]

    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    def test_config_rejects_an_unreachable_epsilon_window(self, model):
        # F(ln 9), from weights 9 and 1, is the most extreme exact probability:
        # 0.9 (logistic) or 0.986 (normal).
        with pytest.raises(ValueError, match="cannot reach"):
            SimulationConfig(n=4, perturb=0.1, num_sims=5, seed=1, model=model, epsilon=0.45)
        # With epsilon 0.4 the extreme must be able to fall below 0.6.
        extreme = float(model.cdf(math.log(9.0)))
        with pytest.raises(ValueError):
            SimulationConfig(n=4, perturb=extreme - 0.65, num_sims=5, seed=1, model=model,
                             epsilon=0.4)
        SimulationConfig(n=4, perturb=extreme - 0.55, num_sims=5, seed=1, model=model,
                         epsilon=0.4)
        # Level 0 draws nothing, so any epsilon is accepted.
        SimulationConfig(n=4, perturb=0.0, num_sims=5, seed=1, model=model, epsilon=0.45)

    @pytest.mark.parametrize("model", [ModelKind.LOGISTIC, ModelKind.NORMAL])
    def test_config_rejects_a_sliver_epsilon_window(self, model):
        # Reachable, but by fewer than 1 in 1,000 draws of the extreme pair.
        extreme = float(model.cdf(math.log(9.0)))
        sliver = 1.0 - (extreme - 0.1) - 1e-11
        with pytest.raises(ValueError, match="cannot reach"):
            SimulationConfig(n=4, perturb=0.1, num_sims=5, seed=1, model=model, epsilon=sliver)
        SimulationConfig(n=4, perturb=0.1, num_sims=5, seed=1, model=model,
                         epsilon=sliver - 1e-3)

    def test_worker_count_rejects_a_non_integer(self, monkeypatch):
        # int() also reads "1_000" as 1000 and an Arabic-Indic two as 2.
        for raw in ("abc", "2.5", "", "0", "1_000", "\u0662", "+2"):
            monkeypatch.setenv("PAIRCOMP_THREADS", raw)
            with pytest.raises(ValueError, match="PAIRCOMP_THREADS must be a positive integer"):
                worker_count()
        monkeypatch.setenv("PAIRCOMP_THREADS", "3")
        assert worker_count() == 3

    def test_pool_never_outnumbers_the_blocks(self, monkeypatch):
        # A process pool starts all its workers at the first task, so a run
        # of two blocks must ask for two whatever PAIRCOMP_THREADS says.  The
        # recording pool runs the blocks in this process.
        import paircomp.simulation as sim

        opened = []

        class RecordingPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim, "BATCH_ROWS", 50)  # blocks of 8 replications at n = 4
        config = SimulationConfig(n=4, perturb=0.1, num_sims=12, seed=5)
        monkeypatch.setenv("PAIRCOMP_THREADS", "1")
        reference = run(config)
        assert opened == []
        monkeypatch.setenv("PAIRCOMP_THREADS", "64")
        assert run(config).stats == reference.stats
        assert opened == [2]
        run(SimulationConfig(n=4, perturb=0.1, num_sims=8, seed=5))
        assert opened == [2]


def test_failed_replications_are_excluded_and_counted(monkeypatch):
    import paircomp.simulation as sim

    # One Newton step can never reach tolerance on perturbed data, so every
    # replication fails and is excluded from every cell.
    monkeypatch.setattr(sim, "DEFAULT_MAX_ITER", 1)
    config = SimulationConfig(n=4, perturb=0.2, num_sims=3, seed=13)
    summary = run(config)
    assert summary.failures == ((0, None), (1, None), (2, None))
    for cell in summary.stats.values():
        assert cell.count == 0
        assert math.isnan(cell.mean)
        assert cell.stddev == 0.0

    # The NaN means survive a trip through the results table.
    import io as _io

    from paircomp.fileio import read_results, write_results

    buffer = _io.StringIO()
    write_results(summary, buffer)
    rows = read_results(_io.StringIO(buffer.getvalue()))
    assert all(math.isnan(r.mean) and r.excluded == 3 for r in rows)


def test_out_of_range_measure_raises(monkeypatch):
    # The invariant checks of run() are explicit, so they hold under python -O.
    import paircomp.simulation as sim

    def negative_distance(config, start, stop):
        measures = np.zeros((stop - start, len(sim.enumerate_connected(config.n)), 6))
        measures[:, :, 0] = -1.0
        return measures, []

    monkeypatch.setenv("PAIRCOMP_THREADS", "1")
    monkeypatch.setattr(sim, "_solve_chunk", negative_distance)
    with pytest.raises(RuntimeError):
        run(SimulationConfig(n=4, perturb=0.1, num_sims=2, seed=1))


@pytest.mark.slow
def test_star_degrades_monotonically_in_perturbation():
    # Fixing the star structure, distances grow and correlations shrink as
    # the perturbation level rises.
    star_id = star_class(4).id
    means = {}
    for level in (0.05, 0.10, 0.15, 0.20):
        summary = run(SimulationConfig(n=4, perturb=level, num_sims=10_000, seed=606))
        means[level] = {m: summary.mean(star_id, m) for m in MEASURE_NAMES}
    levels = sorted(means)
    for a, b in zip(levels, levels[1:]):
        for name in MEASURE_NAMES:
            if name in ("eu_m", "eu_w"):
                assert means[a][name] <= means[b][name]
            else:
                assert means[a][name] >= means[b][name]
