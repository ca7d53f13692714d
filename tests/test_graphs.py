"""Catalog enumeration, canonical codes, and structural properties."""

from __future__ import annotations

import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp import (
    ComparisonGraph,
    DisconnectedGraph,
    TooLarge,
    canonical_code,
    enumerate_connected,
    properties,
    single_edge_extensions,
    star_class,
)
from paircomp import core, graphs
from paircomp.core import _breadth_first
from paircomp.graphs import MAX_CANONICAL_N, GraphClass, pair_order


def star(n: int) -> ComparisonGraph:
    return ComparisonGraph(n, [(0, k) for k in range(1, n)])


def path(n: int) -> ComparisonGraph:
    return ComparisonGraph(n, [(k, k + 1) for k in range(n - 1)])


def cycle(n: int) -> ComparisonGraph:
    return ComparisonGraph(n, [(k, (k + 1) % n) for k in range(n)])


def oracle_code(graph: ComparisonGraph) -> int:
    """Minimal edge bitstring over all relabelings, one permutation at a time."""
    n = graph.n
    k = n * (n - 1) // 2
    index = {p: s for s, p in enumerate(pair_order(n))}
    best = None
    for perm in permutations(range(n)):
        code = 0
        for i, j in graph.sorted_edges():
            a, b = perm[i], perm[j]
            code |= 1 << (k - 1 - index[(min(a, b), max(a, b))])
        if best is None or code < best:
            best = code
    return best


class TestCanonicalCode:
    def test_isomorphic_paths_share_a_code(self):
        a = ComparisonGraph(3, [(0, 1), (1, 2)])
        b = ComparisonGraph(3, [(1, 0), (0, 2)])
        assert canonical_code(a) == canonical_code(b)

    def test_star_and_path_differ(self):
        assert canonical_code(star(4)) != canonical_code(path(4))

    def test_complete_graph_has_all_bits(self):
        k4 = ComparisonGraph.complete(4)
        assert canonical_code(k4) == (1 << 6) - 1

    def test_too_large(self):
        with pytest.raises(TooLarge):
            canonical_code(ComparisonGraph(9, [(0, 1)]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        pairs = pair_order(n)
        keep = rng.integers(0, 2, size=len(pairs)).astype(bool)
        g = ComparisonGraph(n, [p for p, k in zip(pairs, keep) if k])
        perm = rng.permutation(n)
        relabeled = ComparisonGraph(n, [(int(perm[i]), int(perm[j])) for i, j in g.edges])
        assert canonical_code(g) == canonical_code(relabeled)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_labeled_graph_matches_the_oracle(self, n):
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            g = ComparisonGraph(n, [p for s, p in enumerate(pairs) if mask >> s & 1])
            assert canonical_code(g) == oracle_code(g)

    @pytest.mark.parametrize("n, samples", [(6, 20), (7, 4), (8, 2)])
    def test_sampled_graphs_match_the_oracle(self, n, samples):
        rng = np.random.default_rng(n)
        pairs = pair_order(n)
        for _ in range(samples):
            keep = rng.integers(0, 2, size=len(pairs)).astype(bool)
            g = ComparisonGraph(n, [p for p, k in zip(pairs, keep) if k])
            assert canonical_code(g) == oracle_code(g)

    def test_every_catalog_member_survives_a_hundred_relabelings(self):
        rng = np.random.default_rng(71)
        for cls in enumerate_connected(5):
            member = cls.member()
            for _ in range(100):
                perm = rng.permutation(5)
                relabeled = ComparisonGraph(
                    5, [(int(perm[i]), int(perm[j])) for i, j in member.edges]
                )
                assert canonical_code(relabeled) == cls.canonical_code


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_connected(4)) == 6
        assert len(enumerate_connected(5)) == 21
        assert len(enumerate_connected(6)) == 112

    @pytest.mark.parametrize("n, searches", [(4, 10), (5, 33), (6, 155)])
    def test_connectivity_is_searched_once_per_orbit(self, monkeypatch, n, searches):
        # One breadth-first search per unlabeled graph on n vertices (OEIS
        # A000088: 11, 34, 156) but the empty one, whose code the scan skips.
        calls = []

        def counted(adj, source=0):
            calls.append(source)
            return _breadth_first(adj, source)

        cached = enumerate_connected(n)
        enumerate_connected.cache_clear()
        monkeypatch.setattr(core, "_breadth_first", counted)
        monkeypatch.setattr(graphs, "_breadth_first", counted)
        assert enumerate_connected(n) == cached
        assert len(calls) == searches

    def test_three_vertices_against_brute_force(self):
        # All 2^3 subsets of the triangle's edges: connected ones are the two
        # 2-edge paths plus the triangle itself, i.e. exactly two classes.
        pairs = pair_order(3)
        connected = []
        for mask in range(8):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            g = ComparisonGraph(3, edges)
            if g.is_connected():
                connected.append(canonical_code(g))
        assert len(set(connected)) == 2
        assert len(enumerate_connected(3)) == 2

    def test_edge_count_profile_for_four_items(self):
        profile = {}
        for cls in enumerate_connected(4):
            profile[cls.edge_count] = profile.get(cls.edge_count, 0) + 1
        assert profile == {3: 2, 4: 2, 5: 1, 6: 1}

    def test_ids_are_sorted_and_stable(self):
        classes = enumerate_connected(5)
        assert [c.id for c in classes] == list(range(1, 22))
        keys = [(c.edge_count, c.canonical_code) for c in classes]
        assert keys == sorted(keys)
        # Members decode back to their own code.
        for cls in classes:
            assert canonical_code(cls.member()) == cls.canonical_code
            assert cls.member().edge_count == cls.edge_count

    def test_exactly_one_star_per_size(self):
        for n in (3, 4, 5, 6):
            stars = [
                c
                for c in enumerate_connected(n)
                if c.edge_count == n - 1 and properties(c.member()).is_star
            ]
            assert len(stars) == 1
            assert star_class(n) == stars[0]

    def test_every_non_complete_class_extends_upward(self):
        for n in (4, 5):
            classes = enumerate_connected(n)
            by_edges = {}
            for c in classes:
                by_edges.setdefault(c.edge_count, []).append(c)
            top = n * (n - 1) // 2
            for c in classes:
                if c.edge_count == top:
                    continue
                assert any(
                    single_edge_extensions(c, b) for b in by_edges[c.edge_count + 1]
                )

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_connected(1)
        with pytest.raises(TooLarge):
            enumerate_connected(7)


class TestProperties:
    def test_star_of_six(self):
        p = properties(star(6))
        assert p.degree_sequence == (5, 1, 1, 1, 1, 1)
        assert p.diameter == 2
        assert p.is_spanning_tree and p.is_star and p.is_bipartite
        assert not p.is_regular

    def test_complete_four(self):
        p = properties(ComparisonGraph.complete(4))
        assert p.is_regular and p.diameter == 1
        assert not p.is_bipartite and not p.is_star

    def test_six_cycle(self):
        p = properties(cycle(6))
        assert p.is_regular and p.is_bipartite and p.diameter == 3
        assert not p.is_spanning_tree

    def test_five_cycle_is_odd(self):
        assert not properties(cycle(5)).is_bipartite

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            properties(ComparisonGraph(4, [(0, 1), (2, 3)]))

    def test_two_vertex_edge_is_a_star(self):
        p = properties(ComparisonGraph(2, [(0, 1)]))
        assert p.is_star and p.is_spanning_tree and p.diameter == 1


class TestSingleEdgeExtensions:
    def test_star_plus_one_edge(self):
        classes = enumerate_connected(5)
        star_cls = star_class(5)
        extended = [b for b in classes if single_edge_extensions(star_cls, b)]
        assert extended
        assert all(b.edge_count == star_cls.edge_count + 1 for b in extended)

    def test_wrong_edge_count_is_false(self):
        classes = enumerate_connected(4)
        path_cls = next(
            c for c in classes if c.edge_count == 3 and not properties(c.member()).is_star
        )
        complete_cls = next(c for c in classes if c.edge_count == 6)
        assert not single_edge_extensions(path_cls, complete_cls)

    def test_self_is_false(self):
        for cls in enumerate_connected(4):
            assert not single_edge_extensions(cls, cls)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_brute_force_on_every_pair_of_classes(self, n):
        # Both answers, True and False: b extends a exactly when growing a's
        # member by one of its missing pairs gives a graph with b's code.
        classes = enumerate_connected(n)
        for a in classes:
            member = a.member()
            grown = {
                canonical_code(ComparisonGraph(n, member.edges | {pair}))
                for pair in pair_order(n)
                if pair not in member.edges
            }
            for b in classes:
                assert single_edge_extensions(a, b) == (b.canonical_code in grown)

    @pytest.mark.parametrize("n", [7, MAX_CANONICAL_N])
    def test_matches_brute_force_past_the_catalog(self, n):
        # Hand-made classes: b extends a exactly when its code is that of a
        # grown member, for grown codes and for random graphs with one more edge.
        rng = np.random.default_rng(n)
        pairs = pair_order(n)
        for _ in range(3):
            extra = [p for p in pairs if rng.random() < 0.3]
            member = ComparisonGraph(n, [(k, k + 1) for k in range(n - 1)] + extra)
            a = GraphClass(n, canonical_code(member), member.edge_count, 1)
            grown = {
                canonical_code(ComparisonGraph(n, member.edges | {pair}))
                for pair in pairs
                if pair not in member.edges
            }
            drawn = {
                canonical_code(ComparisonGraph(n, [pairs[s] for s in rng.choice(
                    len(pairs), member.edge_count + 1, replace=False)]))
                for _ in range(3)
            }
            for code in sorted(grown)[:3] + sorted(drawn):
                b = GraphClass(n, code, member.edge_count + 1, 2)
                assert single_edge_extensions(a, b) == (code in grown)

    def test_past_the_scan_bound_is_refused_at_once(self):
        # An n = 9 class would scan 9! relabelings per missing pair.
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            single_edge_extensions(GraphClass(9, 1, 1, 1), GraphClass(9, 3, 2, 2))
        assert time.perf_counter() - start < 0.1
        with pytest.raises(TooLarge):
            canonical_code(ComparisonGraph(MAX_CANONICAL_N + 1, [(0, 1)]))

    def test_constructive_check(self):
        # Whenever the relation holds, adding some edge must really produce
        # an isomorph of the target.
        classes = enumerate_connected(4)
        for a in classes:
            for b in classes:
                if single_edge_extensions(a, b):
                    member = a.member()
                    found = False
                    for pair in combinations(range(4), 2):
                        if pair in member.edges:
                            continue
                        grown = ComparisonGraph(4, set(member.edges) | {pair})
                        if canonical_code(grown) == b.canonical_code:
                            found = True
                    assert found
