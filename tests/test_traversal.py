"""The one breadth-first search behind every graph question, against oracles.

Connectivity, the Ford condition, bipartiteness, the diameter and the
consistency check's spanning tree all come from ``core._breadth_first``.
Each is checked here against an independent answer: boolean reachability
closure, Floyd-Warshall distances, an enumeration of 2-colorings, and the
queue-based traversal that the consistency check used before (its visiting
order fixes the witness cycles).
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp import (
    ComparisonGraph,
    DataMatrix,
    DisconnectedGraph,
    enumerate_connected,
    ford_condition,
    properties,
)
from paircomp.core import _breadth_first
from paircomp.graphs import pair_order


def reference_tree(graph: ComparisonGraph) -> tuple[list[int], dict[int, int]]:
    """Breadth-first spanning tree from vertex 0, visiting lowest-index
    neighbors first, with an explicit queue.  Returns (visit order, parent
    map) of the vertices reached."""
    adj = graph.adjacency()
    parent: dict[int, int] = {0: -1}
    order = [0]
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                queue.append(w)
    return order, parent


def closure(n: int, arcs) -> np.ndarray:
    """Boolean reachability matrix (reflexive, transitive) of a digraph."""
    reach = np.eye(n, dtype=bool)
    for i, j in arcs:
        reach[i, j] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def floyd_warshall_diameter(n: int, edges) -> float:
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return float(dist.max())


def two_colorable(n: int, edges) -> bool:
    return any(
        all(colors[i] != colors[j] for i, j in edges)
        for colors in product((0, 1), repeat=n)
    )


def labeled_graphs():
    """Every labeled graph on 1..5 vertices, then every n = 6 catalog class
    under three seeded relabelings."""
    for n in range(1, 6):
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            yield ComparisonGraph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
    rng = np.random.default_rng(46)
    for cls in enumerate_connected(6):
        for _ in range(3):
            perm = rng.permutation(6)
            yield ComparisonGraph(6, [(int(perm[i]), int(perm[j])) for i, j in cls.member().edges])


def test_every_small_graph_matches_the_oracles():
    checked = 0
    for graph in labeled_graphs():
        n, edges = graph.n, graph.sorted_edges()
        connected = bool(closure(n, edges + tuple((j, i) for i, j in edges)).all())
        assert graph.is_connected() == connected

        order, parent = reference_tree(graph)
        tree = _breadth_first(graph.adjacency())
        assert list(tree) == order
        assert tree == parent

        if not connected:
            with pytest.raises(DisconnectedGraph):
                properties(graph)
            continue
        props = properties(graph)
        assert props.diameter == floyd_warshall_diameter(n, edges)
        assert props.is_bipartite == two_colorable(n, edges)
        checked += 1
    # Connected labeled graphs on 1..5 vertices, plus 3 x 112 relabelings.
    assert checked == 1 + 1 + 4 + 38 + 728 + 336


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 7))
    sides = st.tuples(st.integers(0, 2), st.integers(0, 2))
    drawn = draw(st.lists(sides, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    entries = {pair: (float(d1), float(d2)) for pair, (d1, d2) in zip(pair_order(n), drawn)}
    return DataMatrix(n, entries)


@given(digraphs())
@settings(max_examples=400, deadline=None)
def test_ford_condition_matches_the_closure(data):
    arcs = set()
    for (i, j), (d1, d2) in data.entries.items():
        if d2 > 0:  # i better than j
            arcs.add((i, j))
        if d1 > 0:
            arcs.add((j, i))
    assert ford_condition(data) == bool(closure(data.n, arcs).all())


def test_single_vertex():
    graph = ComparisonGraph(1, [])
    assert graph.is_connected()
    assert ford_condition(DataMatrix(1, {}))
    assert astuple(properties(graph)) == ((0,), True, True, True, True, 0)
