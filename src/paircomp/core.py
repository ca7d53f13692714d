"""Domain types for pairwise comparison data and the core operations on them.

Comparison data lives in two equivalent representations: count/probability
pairs per compared pair of items ("worse" and "better" amounts), and positive
reciprocal ratio matrices.  This module defines both, the conversions between
them, the cycle-product consistency tests, and the strong-connectivity
existence condition for maximum likelihood evaluation.  It owns each model's
link: a :class:`ModelKind` member carries F, ln F, F^-1 and the pair terms.

Items are indexed 0..n-1 throughout the in-memory API; file formats use
1-based labels (see :mod:`paircomp.fileio`).  This module owns the order of
pairs, :func:`pair_order`; :mod:`paircomp.graphs` owns the edge-code bits.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DisconnectedGraph

#: Default tolerance on |sum of log ratios| per cycle for consistency checks.
DEFAULT_CYCLE_TOL = 1e-9

#: Relative tolerance enforced on a_ij * a_ji = 1 when constructing an IPCM.
RECIPROCITY_TOL = 1e-12

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@functools.cache
def _special():
    """scipy.special, imported on first use: its import takes longer than
    the rest of the package's, and ``em``, ``llsm``, the consistency checks
    and the structure catalog never evaluate a link."""
    import scipy.special

    return scipy.special


def _logistic_terms(delta, d1, d2, searched):
    """The logistic's pair terms (see :class:`ModelKind`): -(ln F)'' is p(1 - p)."""
    expit, log_expit = _special().expit, _special().log_expit
    log_pos, log_neg = log_expit(delta[searched]), log_expit(-delta[searched])
    s_pos, s_neg = expit(-delta), expit(delta)
    return log_pos, log_neg, d2 * s_pos - d1 * s_neg, (d1 + d2) * s_pos * s_neg


def _normal_terms(delta, d1, d2, searched):
    """The normal's pair terms: ln Phi(+-delta) give the log-likelihood and
    the Mills ratios s = phi / Phi at +-delta, stable for very negative delta
    (ln phi is the same at both), and -(ln F)'' is s(delta + s)."""
    log_ndtr = _special().log_ndtr
    log_pos, log_neg = log_ndtr(delta), log_ndtr(-delta)
    log_phi = -0.5 * delta * delta - _LOG_SQRT_2PI
    s_pos, s_neg = np.exp(log_phi - log_pos), np.exp(log_phi - log_neg)
    up, down = d2 * s_pos, d1 * s_neg
    slope, curvature = up - down, up * (delta + s_pos) + down * (s_neg - delta)
    return log_pos[searched], log_neg[searched], slope, curvature


class ModelKind(enum.Enum):
    """Choice of outcome distribution, each member with its link: logistic
    (Bradley-Terry) or standard normal (Thurstone).  Elementwise, ``cdf`` is
    F, ``log_cdf`` ln F (stable for very negative x) and ``inverse_cdf``
    F^-1.  ``pair_terms(delta, d1, d2, searched)`` maps each row's pair
    differences delta = m_i - m_j to ln F(delta) and ln F(-delta) of the rows
    ``searched`` (an index or a slice), and every pair's slope and negated
    curvature in delta of d1 ln F(-delta) + d2 ln F(delta), which is positive
    so that the reduced Laplacian it weights is definite on connected graphs.
    The normal curvature loses accuracy as delta^2 grows, as its slope does (see
    ``log_likelihood_gradient``): with d1 = d2 = 1, relative 1.7e-9 at |delta|
    = 100, 1e-5 at 1e3, 0.61 at 1e4; wrong beyond, at times negative from 5e8.

    The links are scipy.special's ufuncs, looked up by name when read, so
    that scipy.special is loaded on first use of a link, not on import."""

    LOGISTIC = "logistic", ("expit", "log_expit", "logit"), _logistic_terms
    NORMAL = "normal", ("ndtr", "log_ndtr", "ndtri"), _normal_terms

    def __new__(cls, value, links, pair_terms):
        member = object.__new__(cls)
        member._value_, member._links, member.pair_terms = value, links, pair_terms
        return member

    cdf = property(lambda self: getattr(_special(), self._links[0]))
    log_cdf = property(lambda self: getattr(_special(), self._links[1]))
    inverse_cdf = property(lambda self: getattr(_special(), self._links[2]))


@functools.lru_cache(maxsize=8)  # bounded, as files may give any n
def pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), 0 <= i < j < n, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _check_pair(pair: tuple[int, int], n: int) -> tuple[int, int]:
    i, j = pair
    if not (0 <= i < j < n):
        raise ValueError(f"pair {pair!r} is not 0 <= i < j < n for n={n}")
    return (int(i), int(j))


@dataclass(frozen=True)
class ComparisonGraph:
    """Undirected graph of compared pairs on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            e = (min(i, j), max(i, j))
            _check_pair(e, n)
            normalized.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def complete(cls, n: int) -> "ComparisonGraph":
        return cls(n, pair_order(n))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbor lists in ascending vertex order."""
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def is_connected(self) -> bool:
        return _spans(self.n, self.edges)


def _breadth_first(adj, source: int = 0) -> dict[int, int]:
    """Breadth-first search over neighbor lists ``adj`` (indexed by vertex).

    Maps each vertex reached from ``source`` to its parent, the source to -1.
    Keys are in visiting order, and neighbors are taken in list order, so
    sorted lists give the lowest-index-first tree.
    """
    parent = {source: -1}
    order = [source]
    for v in order:  # the list grows while it is walked: it is the queue
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def _spans(n: int, pairs) -> bool:
    """Whether the undirected ``pairs`` (i, j) connect all n vertices."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    return len(_breadth_first(adj)) == n


@dataclass(frozen=True)
class DataMatrix:
    """Comparison amounts per unordered pair: entry (i, j) with i < j maps to
    (d1, d2) where d1 is the amount of "i worse than j" and d2 of "i better
    than j".  Amounts may be counts or probabilities (any nonnegative reals);
    only their ratios matter for evaluation."""

    n: int
    entries: Mapping[tuple[int, int], tuple[float, float]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one item")
        checked = {}
        for pair, value in self.entries.items():
            pair = _check_pair(pair, self.n)
            d1, d2 = float(value[0]), float(value[1])
            if not (math.isfinite(d1) and math.isfinite(d2)):
                raise ValueError(f"non-finite amount for pair {pair}")
            if d1 < 0 or d2 < 0:
                raise ValueError(f"negative amount for pair {pair}")
            checked[pair] = (d1, d2)
        object.__setattr__(self, "entries", checked)

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        """All stored pairs in lexicographic order."""
        return tuple(sorted(self.entries))

    @property
    def comparison_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs where both sides are positive (the set I), sorted."""
        return tuple(
            p for p in self.sorted_pairs() if self.entries[p][0] > 0 and self.entries[p][1] > 0
        )

    def comparison_graph(self) -> ComparisonGraph:
        """Undirected graph of the both-sides-positive pairs."""
        return ComparisonGraph(self.n, self.comparison_pairs)

    def value(self, i: int, j: int) -> tuple[float, float]:
        """(worse, better) amounts for item i against item j, any orientation."""
        if i < j:
            return self.entries[(i, j)]
        d1, d2 = self.entries[(j, i)]
        return (d2, d1)

    def restrict(self, graph: ComparisonGraph) -> "DataMatrix":
        """Keep only the pairs that are edges of ``graph``."""
        if graph.n != self.n:
            raise ValueError("graph size does not match item count")
        kept = {p: v for p, v in self.entries.items() if p in graph.edges}
        return DataMatrix(self.n, kept)

    def scaled(self, factor: float) -> "DataMatrix":
        """Multiply every amount by a positive constant."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return DataMatrix(
            self.n, {p: (d1 * factor, d2 * factor) for p, (d1, d2) in self.entries.items()}
        )


@dataclass(frozen=True)
class IPCM:
    """Positive reciprocal (possibly partial) matrix of preference ratios.

    Both orientations of every known off-diagonal pair are stored so that
    reciprocity is an enforced invariant; the diagonal is implicitly 1.
    """

    n: int
    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one item")
        checked = {}
        for (i, j), a in self.entries.items():
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"bad entry position ({i}, {j})")
            a = float(a)
            if not (math.isfinite(a) and a > 0):
                raise ValueError(f"entry ({i}, {j}) must be a positive finite ratio")
            checked[(int(i), int(j))] = a
        for (i, j), a in checked.items():
            rec = checked.get((j, i))
            if rec is None:
                raise ValueError(f"entry ({i}, {j}) present without its reciprocal")
            if abs(a * rec - 1.0) > RECIPROCITY_TOL:
                raise ValueError(f"entries ({i}, {j}) and ({j}, {i}) are not reciprocal")
        object.__setattr__(self, "entries", checked)

    @classmethod
    def from_upper(cls, n: int, upper: Mapping[tuple[int, int], float]) -> "IPCM":
        """Build from upper-triangle ratios; reciprocals are filled in exactly."""
        entries: dict[tuple[int, int], float] = {}
        for pair, a in upper.items():
            i, j = _check_pair(pair, n)
            entries[(i, j)] = float(a)
            entries[(j, i)] = 1.0 / float(a)
        return cls(n, entries)

    @classmethod
    def from_weight_ratios(cls, weights: "WeightVector") -> "IPCM":
        """Complete consistent matrix of coordinate ratios w_i / w_j."""
        w = weights.values
        return cls.from_upper(len(w), {(i, j): w[i] / w[j] for i, j in pair_order(len(w))})

    def known_pairs(self) -> tuple[tuple[int, int], ...]:
        """Known unordered pairs (i < j), sorted."""
        return tuple(sorted(p for p in self.entries if p[0] < p[1]))

    def representing_graph(self) -> ComparisonGraph:
        return ComparisonGraph(self.n, self.known_pairs())

    def value(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        return self.entries[(i, j)]

    @property
    def is_complete(self) -> bool:
        return len(self.entries) == self.n * (self.n - 1)

    def restrict(self, graph: ComparisonGraph) -> "IPCM":
        """Keep only the entries whose pair is an edge of ``graph``."""
        if graph.n != self.n:
            raise ValueError("graph size does not match item count")
        kept = {
            (i, j): a
            for (i, j), a in self.entries.items()
            if (min(i, j), max(i, j)) in graph.edges
        }
        return IPCM(self.n, kept)

    def as_array(self, missing: float = np.nan) -> np.ndarray:
        """Dense n-by-n array with 1 on the diagonal and ``missing`` elsewhere
        for unknown entries."""
        a = np.full((self.n, self.n), missing, dtype=float)
        np.fill_diagonal(a, 1.0)
        for (i, j), v in self.entries.items():
            a[i, j] = v
        return a


@dataclass(frozen=True, eq=False)
class _Vector:
    """A non-empty 1-D float vector kept as a read-only copy; each subclass
    names its coordinates (``_noun``) and checks their values (``_check``)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"{self._noun} must be a non-empty vector")
        self._check(arr)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])


@dataclass(frozen=True, eq=False)
class WeightVector(_Vector):
    """Priority vector: positive coordinates summing to 1."""

    _noun = "weights"

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError("weights must be positive and finite")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def normalized(cls, values) -> "WeightVector":
        arr = np.asarray(values, dtype=float)
        return cls(arr / arr.sum())


@dataclass(frozen=True, eq=False)
class ExpectedValueVector(_Vector):
    """Expected values on the log scale, gauge-fixed so the first coordinate
    is exactly 0."""

    _noun = "expected values"

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr)):
            raise ValueError("expected values must be finite")
        if arr[0] != 0.0:
            raise ValueError("first coordinate must be exactly 0 (gauge)")

    @classmethod
    def gauged(cls, values) -> "ExpectedValueVector":
        """Shift an arbitrary vector so its first coordinate becomes 0."""
        arr = np.asarray(values, dtype=float)
        return cls(arr - arr[0])


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a cycle-product consistency check.

    ``max_cycle_deviation`` is the largest |sum of log ratios| over the
    fundamental cycles of a spanning tree; ``witness`` is a vertex sequence of
    a worst cycle when the check fails, None otherwise.
    """

    consistent: bool
    max_cycle_deviation: float
    witness: tuple[int, ...] | None = field(default=None)


def exact_probabilities(
    m: ExpectedValueVector, graph: ComparisonGraph, model: ModelKind
) -> DataMatrix:
    """Outcome probabilities implied by expected values ``m`` on each edge.

    For edge (i, j): d1 = F(m_j - m_i) is the probability of "i worse than j"
    and d2 = 1 - d1 of "i better than j"; pairs outside the graph are absent.
    """
    if graph.n != len(m):
        raise ValueError("graph size does not match expected value vector")
    mv = m.values
    entries = {}
    for i, j in graph.sorted_edges():
        d1 = float(model.cdf(mv[j] - mv[i]))
        entries[(i, j)] = (d1, 1.0 - d1)
    return DataMatrix(graph.n, entries)


def pcm_from_data(data: DataMatrix) -> IPCM:
    """Ratio matrix with a_ij = d2/d1 per pair; pairs with a zero side are
    omitted."""
    return IPCM.from_upper(
        data.n, {p: data.entries[p][1] / data.entries[p][0] for p in data.comparison_pairs}
    )


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate/reflect a cycle's vertex sequence into a deterministic form:
    smallest vertex first, then the smaller of its two neighbors."""
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    return tuple(rotated)


def _cycle_check(
    n: int, log_ratio: Mapping[tuple[int, int], float], tol: float
) -> ConsistencyReport:
    """Check that every fundamental cycle of the breadth-first spanning tree
    from vertex 0 (lowest-index neighbors first) of the n-vertex graph of the
    pairs of ``log_ratio`` has zero sum of log ratios (within tol); raises if
    the graph is not connected, and raises ValueError unless tol >= 0, as a
    failed check must name a witness cycle.  Any cycle's sum is a signed
    combination of fundamental-cycle sums, so fundamental cycles suffice.

    ``log_ratio[(i, j)]`` (i < j) is ln of the ratio oriented from i to j; the
    reverse orientation contributes the negative.
    """
    if not tol >= 0.0:  # NaN included
        raise ValueError(f"cycle tolerance must be nonnegative, got {tol}")
    graph = ComparisonGraph(n, log_ratio)
    parent = _breadth_first(graph.adjacency())
    if len(parent) != n:
        raise DisconnectedGraph(
            f"comparison graph is not connected ({len(parent)} of {n} vertices reachable)"
        )

    def oriented(u: int, v: int) -> float:
        return log_ratio[(u, v)] if u < v else -log_ratio[(v, u)]

    # Potentials along the tree: y mimics expected values, so that a
    # consistent graph has oriented(u, v) == y[u] - y[v] on every edge.
    y = {0: 0.0}
    for v, p in list(parent.items())[1:]:
        y[v] = y[p] - oriented(p, v)

    worst, worst_edge = 0.0, (0, 0)
    for u, v in graph.sorted_edges():
        if parent[u] == v or parent[v] == u:  # a tree edge closes no cycle
            continue
        deviation = abs(oriented(u, v) - (y[u] - y[v]))
        if deviation > worst:
            worst, worst_edge = deviation, (u, v)
    if worst <= tol:
        return ConsistencyReport(True, worst)

    # Neither end of a non-tree edge is the other's ancestor, so the two
    # paths to the root part below their lowest common ancestor.
    path_u, path_v = ([x] for x in worst_edge)
    for path in (path_u, path_v):
        while path[-1] != 0:
            path.append(parent[path[-1]])
    while path_u[-2] == path_v[-2]:  # cut the shared tail down to the ancestor
        path_u.pop()
        path_v.pop()
    return ConsistencyReport(False, worst, _canonical_cycle(path_u + path_v[-2::-1]))


def data_consistency(data: DataMatrix, tol: float = DEFAULT_CYCLE_TOL) -> ConsistencyReport:
    """Consistency of comparison data: cycle products of h_ij = d2/d1 over
    the both-sides-positive pair set must all equal 1."""
    pairs = data.comparison_pairs
    log_ratio = {p: math.log(data.entries[p][1]) - math.log(data.entries[p][0]) for p in pairs}
    return _cycle_check(data.n, log_ratio, tol)


def pcm_consistency(pcm: IPCM, tol: float = DEFAULT_CYCLE_TOL) -> ConsistencyReport:
    """Consistency of a ratio matrix: cycle products of a_ij must equal 1."""
    log_ratio = {p: math.log(pcm.entries[p]) for p in pcm.known_pairs()}
    return _cycle_check(pcm.n, log_ratio, tol)


def ford_condition(data: DataMatrix) -> bool:
    """Whether the directed comparison graph is strongly connected.

    There is an arc i -> j when i was ever better than j.  Strong
    connectivity is necessary and sufficient for the existence and uniqueness
    of the Bradley-Terry maximum likelihood estimate.
    """
    return _ford_holds(data.n, data.entries.items())


def _ford_holds(n: int, entries) -> bool:
    """:func:`ford_condition` of the amounts ((i, j), (d1, d2)) in ``entries``."""
    out: list[list[int]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for (i, j), (d1, d2) in entries:
        if d2 > 0:  # i better than j
            out[i].append(j)
            into[j].append(i)
        if d1 > 0:  # j better than i
            out[j].append(i)
            into[i].append(j)
    return len(_breadth_first(out)) == n and len(_breadth_first(into)) == n
