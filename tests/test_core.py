"""Core types, conversions, consistency checks, and the Ford condition."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp import (
    ComparisonGraph,
    DataMatrix,
    DisconnectedGraph,
    ExpectedValueVector,
    IPCM,
    ModelKind,
    WeightVector,
    data_consistency,
    exact_probabilities,
    ford_condition,
    pcm_consistency,
    pcm_from_data,
)


class TestTypes:
    def test_data_matrix_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            DataMatrix(3, {(1, 1): (1.0, 1.0)})
        with pytest.raises(ValueError):
            DataMatrix(3, {(2, 1): (1.0, 1.0)})
        with pytest.raises(ValueError):
            DataMatrix(2, {(0, 1): (-1.0, 1.0)})
        with pytest.raises(ValueError):
            DataMatrix(2, {(0, 1): (math.inf, 1.0)})

    def test_data_matrix_comparison_pairs_need_both_sides(self):
        data = DataMatrix(3, {(0, 1): (1.0, 2.0), (0, 2): (0.0, 3.0), (1, 2): (0.0, 0.0)})
        assert data.comparison_pairs == ((0, 1),)
        assert data.value(1, 0) == (2.0, 1.0)

    def test_ipcm_enforces_reciprocity(self):
        with pytest.raises(ValueError):
            IPCM(2, {(0, 1): 2.0, (1, 0): 0.3})
        with pytest.raises(ValueError):
            IPCM(2, {(0, 1): 2.0})
        with pytest.raises(ValueError):
            IPCM(2, {(0, 1): -2.0, (1, 0): -0.5})
        pcm = IPCM.from_upper(3, {(0, 1): 3.0})
        assert pcm.value(1, 0) == pytest.approx(1.0 / 3.0, abs=0)
        assert pcm.known_pairs() == ((0, 1),)
        assert not pcm.is_complete

    def test_weight_vector_invariants(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            WeightVector(np.array([1.5, -0.5]))
        w = WeightVector.normalized([1, 2, 3])
        assert w.values.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            w.values[0] = 0.9  # read-only

    def test_expected_value_vector_gauge(self):
        with pytest.raises(ValueError):
            ExpectedValueVector(np.array([0.1, 0.2]))
        m = ExpectedValueVector.gauged([4.0, 5.0, 3.5])
        assert m[0] == 0.0
        assert m[1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            (WeightVector, [], "weights must be a non-empty vector"),
            (WeightVector, [[0.5, 0.5]], "weights must be a non-empty vector"),
            (WeightVector, [1.5, -0.5], "weights must be positive and finite"),
            (WeightVector, [math.nan, 1.0], "weights must be positive and finite"),
            (WeightVector, [0.5, 0.6], "weights must sum to 1"),
            (ExpectedValueVector, [], "expected values must be a non-empty vector"),
            (ExpectedValueVector, 0.0, "expected values must be a non-empty vector"),
            (ExpectedValueVector, [0.0, math.inf], "expected values must be finite"),
            (ExpectedValueVector, [0.1, 0.2], r"first coordinate must be exactly 0 \(gauge\)"),
        ],
    )
    def test_vector_refusals_name_the_rule(self, kind, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            kind(values)

    @pytest.mark.parametrize(
        "vector", [WeightVector([0.25, 0.75]), ExpectedValueVector([0.0, -1.5])]
    )
    def test_vectors_are_read_only_and_frozen(self, vector):
        with pytest.raises(ValueError):
            vector.values[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            vector.values = np.ones(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            vector.extra = 1
        assert len(vector) == 2 and vector[1] == float(vector.values[1])
        assert repr(vector) == f"{type(vector).__name__}(values={vector.values!r})"

    def test_graph_basics(self):
        g = ComparisonGraph(4, [(1, 0), (2, 3)])
        assert (0, 1) in g.edges
        assert not g.is_connected()
        assert ComparisonGraph.complete(4).edge_count == 6
        with pytest.raises(ValueError):
            ComparisonGraph(3, [(0, 0)])


class TestExactProbabilities:
    def test_consistent_table_spot_values(self):
        # Printed at three decimals in the reference, hence the 5e-4 window.
        m = ExpectedValueVector(np.array([0.0, 0.25, 0.75, 1.75]))
        data = exact_probabilities(m, ComparisonGraph.complete(4), ModelKind.LOGISTIC)
        assert data.entries[(0, 1)][0] == pytest.approx(0.562, abs=5e-4)
        assert data.entries[(0, 1)][1] == pytest.approx(0.438, abs=5e-4)
        assert data.entries[(2, 3)][0] == pytest.approx(0.731, abs=5e-4)
        assert data.entries[(2, 3)][1] == pytest.approx(0.269, abs=5e-4)

    def test_equal_merits_split_evenly(self):
        m = ExpectedValueVector(np.zeros(2))
        data = exact_probabilities(m, ComparisonGraph(2, [(0, 1)]), ModelKind.LOGISTIC)
        assert data.entries[(0, 1)] == (0.5, 0.5)

    def test_log_two_gap_gives_two_thirds(self):
        m = ExpectedValueVector(np.array([0.0, math.log(2.0)]))
        data = exact_probabilities(m, ComparisonGraph(2, [(0, 1)]), ModelKind.LOGISTIC)
        assert data.entries[(0, 1)][0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert data.entries[(0, 1)][1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_sides_sum_to_one_and_missing_pairs_absent(self):
        m = ExpectedValueVector(np.array([0.0, -1.3, 2.4, 0.7]))
        graph = ComparisonGraph(4, [(0, 1), (1, 2), (2, 3)])
        data = exact_probabilities(m, graph, ModelKind.NORMAL)
        assert set(data.entries) == set(graph.edges)
        for d1, d2 in data.entries.values():
            assert d1 + d2 == 1.0

    def test_output_is_always_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            from tests.conftest import random_connected_graph, random_merits

            graph = random_connected_graph(rng, n)
            m = ExpectedValueVector(random_merits(rng, n))
            data = exact_probabilities(m, graph, ModelKind.LOGISTIC)
            assert data_consistency(data).consistent


class TestPcmFromData:
    def test_sports_counts_ratios(self, sports_counts):
        pcm = pcm_from_data(sports_counts)
        assert pcm.value(0, 1) == 2.0
        assert pcm.value(1, 3) == 0.5
        assert pcm.is_complete

    def test_even_data_gives_unit_ratios(self):
        data = DataMatrix(3, {(0, 1): (3.0, 3.0), (0, 2): (1.0, 1.0), (1, 2): (7.0, 7.0)})
        pcm = pcm_from_data(data)
        assert all(v == 1.0 for v in pcm.entries.values())

    def test_modified_table_ratio(self, probs_modified):
        pcm = pcm_from_data(probs_modified)
        assert pcm.value(2, 3) == pytest.approx(0.469 / 0.531, abs=0)

    def test_zero_sides_are_omitted(self):
        data = DataMatrix(3, {(0, 1): (1.0, 2.0), (0, 2): (0.0, 3.0), (1, 2): (2.0, 0.0)})
        pcm = pcm_from_data(data)
        assert pcm.known_pairs() == ((0, 1),)


class TestConsistency:
    def test_sports_counts_consistent(self, sports_counts):
        report = data_consistency(sports_counts)
        assert report.consistent
        assert report.max_cycle_deviation == 0.0
        assert report.witness is None

    def test_modified_probabilities_inconsistent(self, probs_modified):
        report = data_consistency(probs_modified)
        assert not report.consistent
        # Only the (3, 4) pair was perturbed, so the worst fundamental cycle
        # runs through items 1, 3, 4 (0-based 0, 2, 3); its deviation is the
        # log cycle product computed directly from the table.
        h = {p: v[1] / v[0] for p, v in probs_modified.entries.items()}
        expected = abs(math.log(h[(0, 2)]) + math.log(h[(2, 3)]) - math.log(h[(0, 3)]))
        assert report.max_cycle_deviation == pytest.approx(expected, rel=1e-12)
        assert report.witness == (0, 2, 3)

    def test_spanning_tree_data_is_consistent(self, probs_modified):
        tree = ComparisonGraph(4, [(0, 1), (0, 2), (0, 3)])
        report = data_consistency(probs_modified.restrict(tree))
        assert report.consistent
        assert report.max_cycle_deviation == 0.0

    def test_pcm_consistency_matches(self, sports_ratios, ratios_modified, ratios_incomplete):
        assert pcm_consistency(sports_ratios).consistent
        assert not pcm_consistency(ratios_modified).consistent
        assert not pcm_consistency(ratios_incomplete).consistent

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_tolerance_must_be_nonnegative(self, probs_modified, tol):
        # A negative or NaN tolerance fails every check, even a tree's with
        # no cycle at all, so no witness could back the verdict.
        tree = probs_modified.restrict(ComparisonGraph(4, [(0, 1), (0, 2), (0, 3)]))
        for data in (tree, probs_modified):
            with pytest.raises(ValueError, match="^cycle tolerance must be nonnegative"):
                data_consistency(data, tol)
            with pytest.raises(ValueError, match="^cycle tolerance must be nonnegative"):
                pcm_consistency(pcm_from_data(data), tol)

    def test_zero_tolerance_is_allowed(self, sports_counts):
        assert data_consistency(sports_counts, 0.0).consistent

    def test_disconnected_graph_raises(self):
        data = DataMatrix(4, {(0, 1): (1.0, 1.0), (2, 3): (1.0, 1.0)})
        with pytest.raises(DisconnectedGraph):
            data_consistency(data)
        with pytest.raises(DisconnectedGraph):
            pcm_consistency(pcm_from_data(data))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_data_and_ratio_checks_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        from tests.conftest import random_connected_graph

        graph = random_connected_graph(rng, n)
        entries = {
            pair: (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            for pair in graph.sorted_edges()
        }
        data = DataMatrix(n, entries)
        a = data_consistency(data)
        b = pcm_consistency(pcm_from_data(data))
        assert a.consistent == b.consistent
        assert a.max_cycle_deviation == pytest.approx(b.max_cycle_deviation, abs=1e-12)
        assert a.witness == b.witness

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scaling_leaves_verdict_alone(self, factor, seed):
        rng = np.random.default_rng(seed)
        entries = {
            pair: (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            for pair in ComparisonGraph.complete(4).sorted_edges()
        }
        data = DataMatrix(4, entries)
        base = data_consistency(data)
        scaled = data_consistency(data.scaled(factor))
        assert base.consistent == scaled.consistent
        assert base.max_cycle_deviation == pytest.approx(
            scaled.max_cycle_deviation, abs=1e-9
        )

    def test_witness_is_a_simple_cycle_of_the_worst_deviation(self):
        # Small integer amounts make some cycles exactly consistent, so the
        # worst one is often far from vertex 0, the root of the checked tree.
        from tests.conftest import random_connected_graph

        rng = np.random.default_rng(17)
        inconsistent = off_root = 0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            graph = random_connected_graph(rng, n)
            data = DataMatrix(
                n, {p: tuple(float(a) for a in rng.integers(1, 4, 2)) for p in graph.sorted_edges()}
            )
            for tol in (0.0, 1e-9, 0.3):
                for report in (data_consistency(data, tol), pcm_consistency(pcm_from_data(data), tol)):
                    if report.consistent:
                        assert report.witness is None
                        continue
                    inconsistent += 1
                    cycle = report.witness
                    off_root += 0 not in cycle
                    assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
                    total = 0.0
                    for k, u in enumerate(cycle):
                        v = cycle[(k + 1) % len(cycle)]
                        assert (min(u, v), max(u, v)) in graph.edges
                        d1, d2 = data.value(u, v)
                        total += math.log(d2) - math.log(d1)
                    assert abs(abs(total) - report.max_cycle_deviation) <= 1e-12
        assert inconsistent > 500 and off_root > 50

    def test_witness_off_the_root(self):
        # Item 1 is the parent of items 2 and 3 in the checked tree, so the
        # only cycle, through the pair (2, 3), avoids the root 0.
        data = DataMatrix(
            4, {(0, 1): (1.0, 2.0), (1, 2): (1.0, 3.0), (1, 3): (1.0, 1.0), (2, 3): (1.0, 1.0)}
        )
        for report in (data_consistency(data), pcm_consistency(pcm_from_data(data))):
            assert not report.consistent
            assert report.witness == (1, 2, 3)
            assert report.max_cycle_deviation == pytest.approx(math.log(3.0), abs=1e-15)

    def test_relabeling_preserves_verdict(self, probs_modified):
        # The checked (fundamental) cycle family depends on the labels, so the
        # reported deviation may move between equally valid worst cycles; the
        # verdict never changes, and the witness must achieve its own report's
        # deviation.
        rng = np.random.default_rng(3)
        base = data_consistency(probs_modified)
        for _ in range(20):
            perm = rng.permutation(4)
            entries = {}
            for (i, j), (d1, d2) in probs_modified.entries.items():
                a, b = int(perm[i]), int(perm[j])
                entries[(min(a, b), max(a, b))] = (d1, d2) if a < b else (d2, d1)
            data = DataMatrix(4, entries)
            relabeled = data_consistency(data)
            assert relabeled.consistent == base.consistent
            cycle = relabeled.witness
            total = 0.0
            for k, u in enumerate(cycle):
                v = cycle[(k + 1) % len(cycle)]
                d1, d2 = data.value(u, v)
                total += math.log(d2 / d1)
            assert abs(total) == pytest.approx(relabeled.max_cycle_deviation, abs=1e-12)


def _strongly_connected_oracle(n: int, arcs: set[tuple[int, int]]) -> bool:
    """Boolean transitive closure, independent of the BFS implementation."""
    reach = np.eye(n, dtype=bool)
    for i, j in arcs:
        reach[i, j] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


class TestFordCondition:
    def test_sports_counts_satisfy_ford(self, sports_counts):
        assert ford_condition(sports_counts)
        arcs = set()
        for (i, j), (d1, d2) in sports_counts.entries.items():
            if d2 > 0:
                arcs.add((i, j))
            if d1 > 0:
                arcs.add((j, i))
        assert _strongly_connected_oracle(4, arcs)

    def test_isolated_item_fails(self):
        data = DataMatrix(3, {(0, 1): (1.0, 1.0)})
        assert not ford_condition(data)

    def test_one_sided_tree_edge_fails(self):
        # Item 2 never wins, so it has no outgoing arc.
        data = DataMatrix(3, {(0, 1): (1.0, 1.0), (1, 2): (0.0, 2.0)})
        assert not ford_condition(data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_closure_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        entries = {}
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                d1 = float(rng.integers(0, 3))
                d2 = float(rng.integers(0, 3))
                entries[(i, j)] = (d1, d2)
                if d2 > 0:
                    arcs.add((i, j))
                if d1 > 0:
                    arcs.add((j, i))
        data = DataMatrix(n, entries)
        assert ford_condition(data) == _strongly_connected_oracle(n, arcs)
