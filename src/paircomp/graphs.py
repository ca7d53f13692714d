"""Catalog of connected comparison structures up to isomorphism.

Graphs on up to 6 vertices are enumerated by scanning all edge subsets and
deduplicating with a canonical code: the lexicographically minimal edge
bitstring over all vertex relabelings.  At this scale an exhaustive
permutation scan (at most 8! relabelings) is fast and easy to verify, so no
general canonical-labeling algorithm is used.  One cached table per n holds
the image of every pair under every permutation; canonical codes and the
catalog's orbit marking both read a graph's relabelings from it.
This module owns the edge-code bits (pair s of :func:`~paircomp.core.pair_order`
is bit k - 1 - s of k, the first pair most significant) and how files and
reports spell a class: its label ``g<id>`` (:func:`format_label`,
:func:`parse_label`) and :attr:`GraphClass.code_hex`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import ComparisonGraph, _breadth_first, pair_order
from .errors import DisconnectedGraph, TooLarge

#: Largest vertex count accepted by the permutation-scan canonical code.
MAX_CANONICAL_N = 8

#: Largest vertex count of the enumerated catalog.
MAX_CATALOG_N = 6


@functools.cache
def _pair_images(n: int) -> np.ndarray:
    """images[p, s]: the index of pair s's image under the p-th vertex
    permutation (in itertools order); shape (n!, k)."""
    index = {p: s for s, p in enumerate(pair_order(n))}
    images = [
        [index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pair_order(n)]
        for perm in permutations(range(n))
    ]
    return np.array(images, dtype=np.uint8)


def _relabelings(n: int, pairs: list[int]) -> np.ndarray:
    """A graph's codes, given its pair indices, under every vertex permutation."""
    k = n * (n - 1) // 2
    return (1 << (k - 1 - _pair_images(n)[:, pairs].astype(np.int64))).sum(axis=1)


def _pairs_of(n: int, code: int) -> list[int]:
    """Indices (in :func:`pair_order`) of the pairs set in a code."""
    k = n * (n - 1) // 2
    return [s for s in range(k) if code >> (k - 1 - s) & 1]


def canonical_code(graph: ComparisonGraph) -> int:
    """Lexicographically minimal edge bitstring over all vertex permutations,
    as an integer (pair order of :func:`pair_order`, first pair = most
    significant bit).  Two graphs get equal codes iff they are isomorphic."""
    n = graph.n
    if n > MAX_CANONICAL_N:
        raise TooLarge(f"canonical code scans n! permutations; n={n} exceeds {MAX_CANONICAL_N}")
    pairs = pair_order(n)
    return int(_relabelings(n, [pairs.index(edge) for edge in graph.sorted_edges()]).min())


def format_label(graph_id: int) -> str:
    """The label of class ``graph_id`` in files and reports, as in g12."""
    return f"g{graph_id}"


def is_ascii_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits: the only integers files
    and labels take, as int() also takes blanks, signs, "4_0" and "٤"."""
    return text.isascii() and text.isdigit()


def parse_label(text: str, what: str = "graph label") -> int:
    """The id in a label such as " g12 "; raises ValueError naming ``what``."""
    label = text.strip()
    if not (label[:1] == "g" and is_ascii_digits(label[1:])):
        raise ValueError(f"{what} must look like g12, got {text!r}")
    return int(label[1:])


@dataclass(frozen=True)
class GraphClass:
    """Isomorphism class of a connected comparison graph.

    ``id`` is a stable 1-based ordinal assigned by sorting classes on
    (edge_count, canonical_code); the label "g{id}" names the class in files
    and reports.
    """

    n: int
    canonical_code: int
    edge_count: int
    id: int

    @property
    def label(self) -> str:
        return format_label(self.id)

    @property
    def code_hex(self) -> str:
        nibbles = -(-(self.n * (self.n - 1) // 2) // 4)
        return format(self.canonical_code, f"0{nibbles}x")

    def member(self) -> ComparisonGraph:
        """The canonical member graph (the one realizing the code)."""
        pairs = pair_order(self.n)
        return ComparisonGraph(self.n, [pairs[s] for s in _pairs_of(self.n, self.canonical_code)])


@dataclass(frozen=True)
class GraphProperties:
    """Structural facts about a connected graph."""

    degree_sequence: tuple[int, ...]
    is_regular: bool
    is_bipartite: bool
    is_star: bool
    is_spanning_tree: bool
    diameter: int


@functools.lru_cache(maxsize=MAX_CATALOG_N)
def enumerate_connected(n: int) -> tuple[GraphClass, ...]:
    """All isomorphism classes of connected graphs on n vertices (2 <= n <= 6),
    sorted by (edge count, canonical code) and numbered from 1.

    Edge subsets are scanned in ascending code order; the first member of each
    isomorphism orbit encountered is therefore its canonical representative.
    Each orbit, connected or not, is marked visited when it is first met, so
    connectivity is tested once per orbit.
    """
    if n < 2:
        raise ValueError("enumeration needs at least 2 vertices")
    if n > MAX_CATALOG_N:
        raise TooLarge(f"catalog covers n <= {MAX_CATALOG_N}, got {n}")
    k = n * (n - 1) // 2
    pairs = pair_order(n)
    visited = np.zeros(1 << k, dtype=bool)
    codes: list[int] = []
    for code in range(1, 1 << k):
        if visited[code]:
            continue
        bits = _pairs_of(n, code)
        visited[_relabelings(n, bits)] = True
        if ComparisonGraph(n, [pairs[s] for s in bits]).is_connected():
            codes.append(code)

    codes.sort(key=lambda c: (bin(c).count("1"), c))
    return tuple(
        GraphClass(n=n, canonical_code=c, edge_count=bin(c).count("1"), id=ordinal)
        for ordinal, c in enumerate(codes, start=1)
    )


def properties(graph: ComparisonGraph) -> GraphProperties:
    """Degree sequence, regularity, bipartiteness, star/spanning-tree flags,
    and diameter of a connected graph."""
    if not graph.is_connected():
        raise DisconnectedGraph("properties are defined for connected graphs only")
    n = graph.n
    deg = graph.degrees()
    adj = graph.adjacency()

    levels = []
    for source in range(n):
        level = {-1: -1}  # the source's parent, so the source gets level 0
        for v, p in _breadth_first(adj, source).items():
            level[v] = level[p] + 1
        levels.append(level)
    # Breadth-first levels differ by at most one along an edge, so an edge
    # joins two vertices of equal level parity only within one level.  Level
    # parity from vertex 0 is therefore a proper 2-coloring unless some edge
    # lies within a level, and such an edge closes an odd cycle.
    bipartite = all(levels[0][i] != levels[0][j] for i, j in graph.edges)
    diameter = max(max(level.values()) for level in levels)

    is_tree = graph.edge_count == n - 1
    return GraphProperties(
        degree_sequence=tuple(sorted(deg, reverse=True)),
        is_regular=len(set(deg)) == 1,
        is_bipartite=bipartite,
        is_star=is_tree and max(deg) == n - 1,
        is_spanning_tree=is_tree,
        diameter=diameter,
    )


def single_edge_extensions(a: GraphClass, b: GraphClass) -> bool:
    """Whether adding one edge to a member of class ``a`` can yield a member
    of class ``b``."""
    if a.n != b.n or b.edge_count != a.edge_count + 1:
        return False
    bits = _pairs_of(a.n, a.canonical_code)
    absent = (s for s in range(len(pair_order(a.n))) if s not in bits)
    return any(_relabelings(a.n, bits + [s]).min() == b.canonical_code for s in absent)


@functools.cache
def star_class(n: int) -> GraphClass:
    """The unique star spanning-tree class of the catalog for n vertices."""
    for cls in enumerate_connected(n):
        if cls.edge_count == n - 1 and properties(cls.member()).is_star:
            return cls
    raise LookupError(f"no star class found for n={n}")
