"""Monte-Carlo experiment: information retrieval of incomplete comparisons.

Each replication draws a random priority vector (uniform integers 1..9,
normalized), converts it to expected values, computes the exact outcome
probabilities on the complete graph, perturbs them with additive uniform
noise, evaluates the perturbed data by maximum likelihood — once complete,
then restricted to every connected comparison structure — and scores each
structure against the complete evaluation with six similarity measures.

Replications are drawn, fitted, scored and reduced block by block in arrays,
one batch row per (replication, structure); a block is a fixed range of
BATCH_ROWS // classes replications.  Replication r still owns the substream
of ``default_rng([seed, r])``: n integers, then one uniform per pair, redrawn
pair by pair as :func:`perturb_data` does where one is rejected.  A block
computes its substreams in arrays, bitwise as numpy's Generator makes them; a
row falls back to its own Generator only when an integer draw is rejected or
its redraws outrun the offsets computed for it.  Rows of the batch solver are
frozen individually on convergence, so a replication's measures do not depend
on the rows solved beside it.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy.special import ndtri

from .core import DataMatrix, ExpectedValueVector, ModelKind, WeightVector, pair_order
from .estimators import DEFAULT_MAX_ITER, DEFAULT_MLE_TOL, _newton_rows, _softmax_rows
from .graphs import MAX_CATALOG_N, GraphClass, enumerate_connected, is_ascii_digits

#: Measure column names, in canonical order.
MEASURE_NAMES = ("eu_m", "eu_w", "pe_m", "pe_w", "rho", "tau")

# The distance measures and their (low, high) range: finite and nonnegative,
# as weight vectors lie in the simplex, so eu_w <= sqrt 2.  Every other
# measure is a correlation, in [-1, 1] where it exists.
_DISTANCES = {"eu_m": (0.0, math.inf), "eu_w": (0.0, math.sqrt(2.0) + 1e-9)}

#: Orientation of each measure: True when larger values mean more retrieval.
HIGHER_IS_BETTER = {name: name not in _DISTANCES for name in MEASURE_NAMES}

#: Perturbed probabilities are redrawn into (epsilon, 1 - epsilon); the default epsilon.
DEFAULT_EPSILON = 1e-6

#: Worker-count environment override.
THREADS_ENV = "PAIRCOMP_THREADS"

#: Most (replication, structure) rows fitted in one batch; bounds a block's memory.
BATCH_ROWS = 2**13

#: Least share of a pair's perturbation interval that must land inside the
#: epsilon window; each pair then needs 1,000 redraws on average at worst.
MIN_ACCEPTED_SHARE = 1e-3


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one experiment."""

    n: int
    perturb: float
    num_sims: int
    seed: int
    model: ModelKind = ModelKind.LOGISTIC
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not 2 <= self.n <= MAX_CATALOG_N:
            raise ValueError(f"item count must be between 2 and {MAX_CATALOG_N}")
        _check_window(self.perturb, self.epsilon)
        if self.num_sims < 1:
            raise ValueError("need at least one replication")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        # The most extreme exact probability is F(ln 9), from weights 1 and 9.
        if self.perturb > 0.0:
            _check_reachable(self.model.cdf(math.log(9.0)), self.perturb, self.epsilon)


@dataclass(frozen=True)
class MeasureSet:
    """The six similarity measures of one (replication, structure) cell.

    Pearson coefficients are NaN when one of the compared vectors is
    constant (zero variance); such cells are excluded from aggregation.
    """

    eu_m: float
    eu_w: float
    pe_m: float
    pe_w: float
    spearman_rho: float
    kendall_tau: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.eu_m, self.eu_w, self.pe_m, self.pe_w, self.spearman_rho, self.kendall_tau)


@dataclass(frozen=True)
class MeasureStats:
    """Mean and sample standard deviation over the aggregated replications."""

    mean: float
    stddev: float
    count: int


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated results: one :class:`MeasureStats` per (structure, measure),
    plus the configuration and one ``failures`` record per excluded
    replication, in replication order: (replication, graph id of its first
    non-converged fit, or None when the complete fit failed)."""

    config: SimulationConfig
    classes: tuple[GraphClass, ...]
    stats: Mapping[tuple[int, str], MeasureStats]
    failures: tuple[tuple[int, int | None], ...] = field(default=())

    def cell(self, graph_id: int, measure: str) -> MeasureStats:
        return self.stats[(graph_id, measure)]

    def mean(self, graph_id: int, measure: str) -> float:
        return self.stats[(graph_id, measure)].mean


def _check_window(level: float, epsilon: float) -> None:
    """Refuse a perturbation level outside [0, 1) or an epsilon outside (0, 0.5)."""
    if not 0.0 <= level < 1.0:
        raise ValueError("perturbation level must be in [0, 1)")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 0.5)")


def _check_reachable(d1, level: float, epsilon: float) -> None:
    # A draw from [d1 - level, d1 + level] is redrawn until it falls in
    # (epsilon, 1 - epsilon); refuse windows that accept too few draws for
    # that to end soon.
    accepted = np.minimum(d1 + level, 1.0 - epsilon) - np.maximum(d1 - level, epsilon)
    if np.any(accepted < MIN_ACCEPTED_SHARE * 2.0 * level):
        raise ValueError(
            f"perturbation {level} cannot reach ({epsilon}, 1 - {epsilon}) "
            f"with at least {MIN_ACCEPTED_SHARE:g} of its draws"
        )


def draw_initial_weights(rng: np.random.Generator, n: int) -> WeightVector:
    """Random priority vector: n uniform integers from 1 to 9, normalized."""
    values = rng.integers(1, 10, size=n).astype(float)
    return WeightVector.normalized(values)


def perturb_data(
    data: DataMatrix, level: float, rng: np.random.Generator, epsilon: float = DEFAULT_EPSILON
) -> DataMatrix:
    """Add an independent uniform draw from [-level, level] to each d1,
    redrawing until the result lies in (epsilon, 1 - epsilon), and set
    d2 = 1 - d1.  Redrawing keeps the offset distribution symmetric, which
    clamping would not.  A level of 0 returns the input unchanged.  Raises
    ValueError when less than MIN_ACCEPTED_SHARE of some pair's interval
    [d1 - level, d1 + level] lies in the window: redrawing would then take
    over 1,000 draws per pair on average, or never end."""
    _check_window(level, epsilon)
    if len(data.entries) != data.n * (data.n - 1) // 2:
        raise ValueError("perturbation expects complete comparison data")
    pairs = data.sorted_pairs()
    exact = np.array([data.entries[p][0] for p in pairs])
    if not np.all((0.0 < exact) & (exact < 1.0)):
        raise ValueError("perturbation expects probabilities strictly inside (0, 1)")
    if level == 0.0:
        return data
    _check_reachable(exact, level, epsilon)
    perturbed = _redraw(exact.tolist(), epsilon, iter(partial(rng.uniform, -level, level), None))
    return DataMatrix(data.n, {pair: (d1, 1.0 - d1) for pair, d1 in zip(pairs, perturbed)})


def _redraw(exact, epsilon: float, offsets: Iterator[float]) -> list[float]:
    """Each value of ``exact`` in turn plus the next of the endless
    ``offsets``, taking more until the sum lies in (epsilon, 1 - epsilon)."""
    perturbed = []
    for d1 in exact:
        candidate = d1 + next(offsets)
        while not epsilon < candidate < 1.0 - epsilon:
            candidate = d1 + next(offsets)
        perturbed.append(candidate)
    return perturbed


# ---------------------------------------------------------------------------
# Similarity measures


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=-1, keepdims=True)
    yc = y - y.mean(axis=-1, keepdims=True)
    sxy = np.sum(xc * yc, axis=-1)
    sx = np.sum(xc * xc, axis=-1)
    sy = np.sum(yc * yc, axis=-1)
    product = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = sxy / np.sqrt(product)
    return np.where(product > 0.0, r, np.nan)


def _pair_signs(x: np.ndarray) -> np.ndarray:
    """sign(x_i - x_j) over the last axis, shape (..., n, n).  Its row sums
    give average ranks: x_i ranks (n + 1)/2 + sum_j sign(x_i - x_j)/2."""
    return np.sign(x[..., :, None] - x[..., None, :])


def _measure_rows(
    m_full: np.ndarray, w_full: np.ndarray, m_part: np.ndarray, w_part: np.ndarray
) -> np.ndarray:
    """All six measures over the last axis, broadcasting the leading axes;
    returns shape (..., 6).

    Rank correlations are computed from the expected-value vectors; the
    weight transform is strictly monotone, so weight ranks are identical.
    """
    n = m_full.shape[-1]
    s_full, s_part = _pair_signs(m_full), _pair_signs(m_part)
    # Spearman from average ranks; Kendall from sign agreement, ties scoring 0.
    rank_gap = 0.5 * (s_full.sum(axis=-1) - s_part.sum(axis=-1))
    columns = (
        np.sqrt(np.sum((m_full - m_part) ** 2, axis=-1)),
        np.sqrt(np.sum((w_full - w_part) ** 2, axis=-1)),
        _pearson_rows(m_full, m_part),
        _pearson_rows(w_full, w_part),
        1.0 - 6.0 * np.sum(rank_gap**2, axis=-1) / (n * (n * n - 1)),
        np.sum(s_full * s_part, axis=(-2, -1)) / (n * (n - 1)),
    )
    return np.stack(columns, axis=-1)


def similarity(
    m_full: ExpectedValueVector,
    w_full: WeightVector,
    m_part: ExpectedValueVector,
    w_part: WeightVector,
) -> MeasureSet:
    """Score one incomplete-structure evaluation against the complete one."""
    n = len(m_full)
    if not (len(w_full) == len(m_part) == len(w_part) == n):
        raise ValueError("all four vectors must have the same length")
    row = _measure_rows(m_full.values, w_full.values, m_part.values, w_part.values)
    return MeasureSet(*map(float, row))


def error_bound(num_sims: int, alpha: float, sigma: float) -> float:
    """Central-limit upper bound u_alpha * sigma / sqrt(N) on the simulation
    error at reliability 1 - alpha, with Phi(u_alpha) = 1 - alpha/2."""
    if num_sims < 1:
        raise ValueError("need at least one replication")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return float(ndtri(1.0 - alpha / 2.0)) * sigma / math.sqrt(num_sims)


# ---------------------------------------------------------------------------
# Substreams in arrays
#
# default_rng([seed, r]) seeds PCG64 from SeedSequence([seed, r]).  The
# functions below compute those generators' outputs for many r at once, bitwise
# as numpy's own: SeedSequence's pool hash and generate_state on uint32 arrays,
# then the 128-bit LCG jumped straight to each output on two uint64 limbs.

_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(key: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant over ``count`` steps: (xor key,
    multiplier) of each, shape (2, count, 1); a step's multiplier is the
    next step's key."""
    keys = [key]
    for _ in range(count):
        keys.append(keys[-1] * mult & _MASK32)
    return np.array([keys[:-1], keys[1:]], np.uint32)[:, :, None]


_MIX_KEYS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)


def _hash(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    key, mult = keys
    mixed = (values ^ key) * mult
    return mixed ^ (mixed >> np.uint32(16))


def _pcg64_starts(seed: int, reps: np.ndarray) -> np.ndarray:
    """PCG64 as default_rng([seed, r]) seeds it, for each uint64 r of
    ``reps``: (initstate + inc, inc) in (high, low) uint64 limbs, shape
    (2 limbs, 2, len(reps)).  The entropy words of [seed, r] are seed's one
    or two 32-bit words, then r's; a high word of 0 for r is the pool's own
    zero padding, so every r < 2**64 fits SeedSequence's 4-word pool."""
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, len(reps)), np.uint32)
    pool[: len(words)] = np.array(words, np.uint32)[:, None]
    pool[len(words)], pool[len(words) + 1] = reps & _MASK32, reps >> 32
    pool = _hash(pool, _MIX_KEYS[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hash(pool[src], _MIX_KEYS[:, 4 + 3 * src : 7 + 3 * src])
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    # generate_state(4, uint64): eight hashed pool words, paired little-endian.
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_KEYS).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << 32)
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    x_lo = init_lo + inc_lo
    return np.array([[init_hi + inc_hi + (x_lo < inc_lo), inc_hi], [x_lo, inc_lo]])


@lru_cache(maxsize=None)
def _pcg64_jumps(first: int, count: int):
    """(A, B) with output t of PCG64 read from state A_t (initstate + inc) +
    B_t inc mod 2**128, for t in [first, first + count), as high and low
    limbs of shape (2, 1, count): the generator steps from state 0 by
    s -> M s + inc, adds initstate after the first step and steps once more
    before each output."""
    a, b, columns = 1, 0, []
    for t in range(first + count + 2):
        if t >= first + 2:
            columns.append((a, b))
        a, b = a * _PCG64_MULT % 2**128, (b * _PCG64_MULT + 1) % 2**128
    constants = np.array(columns, dtype=object).T[:, None, :]
    return (constants >> 64).astype(np.uint64), (constants & 2**64 - 1).astype(np.uint64)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32)


def _pcg64_words(starts: np.ndarray, first: int, count: int) -> np.ndarray:
    """Outputs [first, first + count) of each generator of ``starts`` (see
    :func:`_pcg64_starts`), shape (generators, count) uint64."""
    hi, lo = starts[..., None]
    const_hi, const_lo = _pcg64_jumps(first, count)
    # Both products A x and B inc at once, then their 128-bit sum.
    prod_lo = const_lo * lo
    prod_hi = _mulhi(const_lo, lo) + const_lo * hi + const_hi * lo
    lo = prod_lo[0] + prod_lo[1]
    hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])
    # XSL RR: the xor of the halves, rotated right by the state's top 6 bits.
    folded, turn = hi ^ lo, hi >> 58
    return (folded >> turn) | (folded << ((64 - turn) & 63))


def _lemire_digits(words: np.ndarray, n: int):
    """Generator.integers(1, 10, size=n) from each row of ``words``: Lemire's
    bounded draw on the 32-bit halves, low half first.  Also returns whether
    each row accepts all n halves; numpy redraws a half whose product with 9
    leaves a low word below 2**32 % 9 = 4, which the row's words cannot follow."""
    halves = np.stack([words & _MASK32, words >> 32], axis=-1).reshape(len(words), -1)[:, :n]
    scaled = halves * 9
    return (scaled >> 32) + 1, np.all(scaled & _MASK32 >= 4, axis=1)


def _uniforms(words: np.ndarray, level: float) -> np.ndarray:
    """Generator.uniform(-level, level) from each word: its top 53 bits as a
    double in [0, 1), scaled to the interval."""
    return -level + (2.0 * level) * ((words >> 11) * 2.0**-53)


@lru_cache(maxsize=None)
def _check_streams() -> None:
    """Raise RuntimeError unless the array substreams equal numpy's own
    Generator on one replication.  NEP 19 lets a numpy release change what
    Generator.integers and .uniform make of a stream; results must not change
    with it unnoticed."""
    seed, r, n, count = 2**64 - 1, 2**32 + 5, 5, 16
    rng = np.random.default_rng([seed, r])
    words = _pcg64_words(_pcg64_starts(seed, np.array([r], np.uint64)), 0, 3 + count)
    digits, accepted = _lemire_digits(words[:, :3], n)
    if not (accepted[0] and np.array_equal(digits[0], rng.integers(1, 10, size=n))
            and np.array_equal(_uniforms(words[0, 3:], 0.6), rng.uniform(-0.6, 0.6, size=count))):
        raise RuntimeError(
            f"numpy {np.__version__} draws default_rng streams unlike paircomp's array "
            "draw; simulate would not reproduce its results"
        )


def _draw_rows(config: SimulationConfig, start: int, stop: int) -> np.ndarray:
    """Perturbed d1 values, one row per replication, columns in pair order:
    bitwise the scalar path of :func:`perturb_data` on substream (seed, r).

    The substreams are computed in arrays: each row's n integers, a block of
    one offset per pair and, for a row whose block has a rejected offset, a
    second block to replay it from.  A row leaves the arrays for its own
    Generator when an integer draw is rejected or its replay outruns the
    second block; it is then drawn on the scalar path from the start."""
    _check_streams()
    n, level, epsilon = config.n, config.perturb, config.epsilon
    ii, jj = np.array(pair_order(n), dtype=np.intp).T
    heads = (n + 1) // 2  # outputs whose 32-bit halves make the n integers
    starts = _pcg64_starts(config.seed, np.arange(start, stop, dtype=np.uint64))
    words = _pcg64_words(starts, 0, heads + (len(ii) if level else 0))
    digits, accepted = _lemire_digits(words[:, :heads], n)
    counts = digits.astype(float)

    def own_stream(row):
        rng = np.random.default_rng([config.seed, start + int(row)])
        return rng, rng.integers(1, 10, size=n)

    scalar = {}
    for row in np.flatnonzero(~accepted):
        scalar[row], counts[row] = own_stream(row)
    logs = np.log(counts / counts.sum(axis=1, keepdims=True))
    m = logs - logs[:, :1]
    exact = config.model.cdf(m[:, jj] - m[:, ii])
    if not level:
        return exact
    _check_reachable(exact, level, epsilon)  # F(ln 9) in the config can round low
    offsets = _uniforms(words[:, heads:], level)
    d1 = exact + offsets
    # Replay a row with a rejected offset pair by pair: a stream gives the same
    # values one at a time as in a block, so accepted pairs come back unchanged.
    replay = np.flatnonzero(np.any((d1 <= epsilon) | (d1 >= 1.0 - epsilon), axis=1) & accepted)
    second = _uniforms(_pcg64_words(starts[..., replay], heads + len(ii), len(ii)), level)
    for row, base, block, more in zip(
        replay, exact[replay].tolist(), offsets[replay].tolist(), second.tolist()
    ):
        try:
            d1[row] = _redraw(base, epsilon, chain(block, more))
        except StopIteration:
            scalar[row], _ = own_stream(row)
    for row, rng in scalar.items():
        d1[row] = _redraw(exact[row], epsilon, iter(partial(rng.uniform, -level, level), None))
    return d1


# ---------------------------------------------------------------------------
# The experiment


@lru_cache(maxsize=None)
def _structure_mask(n: int) -> np.ndarray:
    """present[g, s]: whether class g's member has pair s of
    :func:`pair_order` (read-only, as it is shared)."""
    present = np.array([[p in cls.member().edges for p in pair_order(n)]
                        for cls in enumerate_connected(n)])
    present.flags.writeable = False
    return present


def _solve_chunk(config: SimulationConfig, start: int, stop: int):
    """Measures of shape (stop - start, classes, 6) plus one failure record
    per replication with a non-converged fit: (global replication index,
    graph id of its first such fit, or None when the complete fit failed).

    Every (replication, structure) pair is one row of a single batch solve
    over the complete pair list.  A structure's missing pairs carry
    d1 = d2 = 0, so they add nothing to its likelihood, gradient or
    Hessian; the complete class, the catalog's last, is the reference fit.
    """
    n = config.n
    classes = enumerate_connected(n)
    ii, jj = np.array(pair_order(n), dtype=np.intp).T
    present = _structure_mask(n)

    d1 = _draw_rows(config, start, stop)[:, None, :]
    shape = (stop - start, len(classes))
    m, _, converged = _newton_rows(
        np.where(present, d1, 0.0).reshape(-1, len(ii)),
        np.where(present, 1.0 - d1, 0.0).reshape(-1, len(ii)),
        ii, jj, n, config.model, DEFAULT_MLE_TOL, DEFAULT_MAX_ITER,
    )
    m = m.reshape(*shape, n)
    w = _softmax_rows(m)
    measures = _measure_rows(m[:, -1:], w[:, -1:], m, w)

    # The complete fit (graph id None) first, then each structure's.
    failed = np.roll(~converged.reshape(shape), 1, axis=1)
    ids = [None] + [cls.id for cls in classes[:-1]]
    reps = np.flatnonzero(failed.any(axis=1))
    failures = [(start + int(r), ids[g]) for r, g in zip(reps, failed[reps].argmax(axis=1))]
    return measures, failures


def _solve_block(config: SimulationConfig, start: int, stop: int):
    """Per-cell (count, mean, M2) of the replications of [start, stop) that
    converged everywhere, plus the failure records of the others."""
    measures, failures = _solve_chunk(config, start, stop)
    kept = np.delete(measures, [r - start for r, _ in failures], axis=0)
    return _moments(kept, enumerate_connected(config.n)), failures


def worker_count() -> int:
    """Worker processes to use: the PAIRCOMP_THREADS environment variable,
    defaulting to the machine's parallelism."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    if not is_ascii_digits(raw) or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, not {raw!r}")
    return int(raw)


def _block_bounds(total: int, classes: int) -> list[tuple[int, int]]:
    """Replications [k B, (k + 1) B) for B = BATCH_ROWS // classes, the unit
    of work and of reduction: at most BATCH_ROWS (replication, structure)
    rows, whatever the worker count."""
    size = max(1, BATCH_ROWS // classes)
    return [(s, min(s + size, total)) for s in range(0, total, size)]


# Columns of (low, high) bounds and of "must be finite", in MEASURE_NAMES order.
_LOW, _HIGH = np.array(
    [_DISTANCES.get(name, (-1.0 - 1e-9, 1.0 + 1e-9)) for name in MEASURE_NAMES]
).T[:, :, None]
_MUST_BE_FINITE = np.array([name in _DISTANCES for name in MEASURE_NAMES])[:, None]


def _moments(measures: np.ndarray, classes):
    """Per-cell (count, mean, M2) of one block's measures, leaving out NaN
    cells, after checking every value's range."""
    # Replications along the last, contiguous axis, which numpy sums pairwise.
    values = np.ascontiguousarray(measures.transpose(1, 2, 0))
    finite = np.isfinite(values)
    bad = np.where(finite, (values < _LOW) | (values > _HIGH), _MUST_BE_FINITE)
    if bad.any():
        g, k = np.argwhere(bad.any(axis=-1))[0]
        raise RuntimeError(f"measure {MEASURE_NAMES[k]} of structure {classes[g].id} is out of range")
    count = finite.sum(axis=-1)
    kept = np.where(finite, values, 0.0)
    mean = np.divide(kept.sum(axis=-1), count, out=np.zeros(count.shape), where=count > 0)
    m2 = (np.where(finite, values - mean[..., None], 0.0) ** 2).sum(axis=-1)
    return count, mean, m2


def _merge(a, b):
    """Chan, Golub & LeVeque's pairwise update: the (count, mean, M2) of
    two disjoint samples from those of each."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    count = count_a + count_b
    share = np.divide(count_b, count, out=np.zeros(count.shape), where=count > 0)
    delta = mean_b - mean_a
    return count, mean_a + delta * share, m2_a + m2_b + delta * delta * count_a * share


def run(
    config: SimulationConfig, progress: Callable[[int, int], None] | None = None
) -> SimulationSummary:
    """Run the full experiment and aggregate mean and sample standard
    deviation per (structure, measure).

    Replications with a non-converged evaluation are excluded from every cell
    and recorded in ``failures``; Pearson cells that are NaN (zero variance)
    are excluded from that cell only.  ``progress`` is called with
    (replications completed, total) as blocks finish.

    Each block of BATCH_ROWS // classes replications, fixed by replication
    index, is solved and reduced in one worker call, and the blocks are
    merged in order, so memory stays bounded and the worker count does not
    change a bit of the result.
    """
    classes = enumerate_connected(config.n)
    total = config.num_sims
    bounds = _block_bounds(total, len(classes))
    # A pool starts all its processes at the first task: no more than there are blocks.
    workers = min(worker_count(), len(bounds))
    failures: list[tuple[int, int | None]] = []

    zero = np.zeros((len(classes), len(MEASURE_NAMES)))
    moments = (zero.astype(int), zero, zero)
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        blocks = (pool.map if pool else map)(_solve_block, repeat(config), *zip(*bounds))
        for (block, failed), (_, stop) in zip(blocks, bounds):
            moments = _merge(moments, block)
            failures.extend(failed)
            if progress is not None:
                progress(stop, total)

    count, mean, m2 = moments
    mean = np.where(count > 0, mean, math.nan)
    stddev = np.sqrt(np.divide(m2, count - 1, out=np.zeros(count.shape), where=count >= 2))
    stats = {
        (cls.id, name): MeasureStats(float(mean[g, k]), float(stddev[g, k]), int(count[g, k]))
        for g, cls in enumerate(classes)
        for k, name in enumerate(MEASURE_NAMES)
    }
    return SimulationSummary(config=config, classes=classes, stats=stats, failures=tuple(failures))
