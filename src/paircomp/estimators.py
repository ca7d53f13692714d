"""The three evaluation methods for pairwise comparison data.

* :func:`llsm` — logarithmic least squares on a (possibly partial) ratio
  matrix, solved through the graph-Laplacian normal equations.
* :func:`em` — principal right eigenvector; partial matrices are first
  completed by minimizing the principal eigenvalue over the missing entries.
* :func:`bt_mle` — maximum likelihood for the Bradley-Terry (logistic) and
  Thurstone (standard normal) models, gauge-fixed at m_1 = 0.

Solver choices: LLSM, the likelihoods' least-squares start and every Newton
step solve the same system, a weighted graph Laplacian grounded at m_1 = 0.
Up to six items it is factored by square-root-free Cholesky straight from
the pair weights, no matrix assembled: one recurrence, degrees included,
written out for each n, runs per row on Python floats for a few rows and
on arrays of all rows for many, and rounds alike on both.  LAPACK solves
one row at a time from the assembled Laplacian, only for larger leagues
and for rows without a positive pivot.  Both likelihoods are concave and
maximized by one batched damped Newton solver, whose Hessian is the Laplacian
weighted by the curvature of ln F on each pair.  Each point it visits is
evaluated once: the link's special functions there give both the
log-likelihood its line search compares and the derivatives of the next
step.  The tolerance bounds each fit's distance to the optimum in max norm:
convergence is quadratic near the optimum, so a full step of size s leaves
about K s^2 to go, and a fit stops on its first full step whose estimate
of that error is below a tenth of the tolerance and takes the step,
unevaluated.  It starts from the least-squares solution of
F^-1(d2 / (d1 + d2)) = m_i - m_j, a unit-weight solve: on consistent data
every equation holds exactly, and the paper shows the least-squares and
likelihood optima then coincide, so the start is the MLE; under noise it is
close to it.  The eigenvalue completion minimizes log lambda_max, which is
convex in the logs of the missing entries with a unique optimum on connected
comparison graphs, by damped Newton with the exact Perron gradient and
Hessian, from LLSM's grounded solve; each iterate's eigenpair comes from one
dense eigendecomposition.  Its tolerance bounds the distance to the optimum
in the same way: a Newton step within it returns the iterate as it is, and
after a full step the completion stops on the same estimate K s^2.

All iteration is in lexicographic pair order, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IPCM,
    DataMatrix,
    ExpectedValueVector,
    ModelKind,
    WeightVector,
    _ford_holds,
    _spans,
    ford_condition,
    pair_order,
)
from .errors import DisconnectedGraph, FordViolation, NoConvergence
from .graphs import MAX_CATALOG_N

#: Bound on a maximum likelihood fit's distance ||m - m*||_inf to the optimum.
DEFAULT_MLE_TOL = 1e-10
#: Relative residual ||A w - lambda w||_inf the Perron eigenpair must meet.
DEFAULT_EIG_TOL = 1e-12
#: Bound on the eigenvalue-minimal completion's distance to the optimum, in
#: max norm over the log entries: the completion stops on a full Newton step
#: of at most this size, before taking it, or after a full step whose
#: estimate K s^2 of the distance left is below a tenth of it.
DEFAULT_COMPLETION_TOL = 1e-12
#: Iteration cap shared by all solvers.
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class EmResult:
    """Eigenvector evaluation: weights and the principal eigenvalue of the
    evaluated (or optimally completed) matrix, and the Newton steps of the
    completion, counting a last one that only shows convergence (0 for a
    complete matrix)."""

    weights: WeightVector
    lambda_max: float
    iterations: int = 0


@dataclass(frozen=True, eq=False)
class MleResult:
    """Maximum likelihood evaluation: expected values with m_1 = 0, the
    log-likelihood at the optimum, and solver diagnostics."""

    m: ExpectedValueVector
    loglik: float
    iterations: int
    converged: bool


def _pair_data(data: DataMatrix):
    pairs = data.sorted_pairs()
    ii, jj = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    d1 = np.array([data.entries[p][0] for p in pairs])
    d2 = np.array([data.entries[p][1] for p in pairs])
    return ii, jj, d1, d2


@np.errstate(over="ignore")  # a sum below the float range is -inf
def log_likelihood(data: DataMatrix, m: ExpectedValueVector, model: ModelKind) -> float:
    """Log-likelihood of the data under expected values ``m``:
    sum over pairs of d1 * ln F(m_j - m_i) + d2 * ln F(m_i - m_j)."""
    if len(m) != data.n:
        raise ValueError("expected value vector does not match item count")
    ii, jj, d1, d2 = _pair_data(data)
    delta = m.values[ii] - m.values[jj]
    return float(_pair_terms(delta[None, :], d1[None, :], d2[None, :], model, slice(None))[0][0])


def _pair_terms(delta, d1, d2, model: ModelKind, searched):
    """One evaluation of each row's point: the log-likelihood of the rows
    ``searched`` and every pair's slope and negated curvature, from the
    link's ``model.pair_terms`` (see :class:`paircomp.core.ModelKind`)."""
    log_pos, log_neg, slope, curvature = model.pair_terms(delta, d1, d2, searched)
    loglik = (d1[searched] * log_neg + d2[searched] * log_pos).sum(axis=1)
    return loglik, slope, curvature


class _Incidence:
    """Scatter plan of the pairs (ii[s], jj[s]) of n vertices for up to
    ``rows`` rows of per-pair values, in the m_1 = 0 gauge x = m[:, 1:],
    and the solver of their weighted Laplacians (:meth:`solve`), which hands
    LAPACK one row at a time.  Each pair appears once.

    Bins are laid out row by row, so fewer rows use a prefix of them.  Each
    vertex adds its terms in lexicographic pair order, whatever the number
    of rows.

    A dense +-1 map of the pairs serves both :meth:`differences` and
    :meth:`integer_sums`.  It exists only when it is no larger than the
    rows it serves (``rows`` >= n - 1); otherwise a gather or
    :func:`numpy.bincount` does its work.
    """

    def __init__(self, ii, jj, n, rows):
        self.ii, self.jj, self.n, self._rows = ii, jj, n, rows
        # The dense map P: +1 at (ii[s], s), -1 at (jj[s], s).  Each sum of
        # x @ P[1:], the differences, has at most two nonzero terms and is
        # exact in any order; at simulate's shapes (n <= 6) it is two to seven
        # times as fast as the gather.  Fewer than n - 1 rows (a one-row fit
        # of more than two items) gather and scatter instead: for a one-row
        # fit of 600 items the map would take 860 MB.
        self._signs = None
        if n - 1 <= rows:
            self._signs = np.zeros((n, len(ii)))
            columns = np.arange(len(ii))
            self._signs[ii, columns] = 1.0
            self._signs[jj, columns] = -1.0

    def differences(self, x):
        """m_i - m_j of every pair, one row per row of x = m[:, 1:]."""
        if self._signs is not None:
            return x @ self._signs[1:]
        m = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
        return m[:, self.ii] - m[:, self.jj]

    @functools.cached_property
    def _vertex_bins(self):
        return (np.arange(self._rows)[:, None] * self.n + np.concatenate([self.jj, self.ii])).ravel()

    def vertex_sums(self, values):
        """Row-wise vertex sums, shape (rows, n): values[:, s] goes to vertex
        ii[s] and its negation to jj[s]."""
        rows = len(values)
        terms = np.concatenate([-values, values], axis=1).ravel()
        sums = np.bincount(self._vertex_bins[: terms.size], terms, rows * self.n)
        return sums.reshape(rows, self.n)

    def integer_sums(self, values):
        """:meth:`vertex_sums` of small integers, exact in any order: by the
        dense map where there is one, copied into rows (BLAS's faster layout)."""
        if self._signs is None:
            return self.vertex_sums(values)
        return values @ np.ascontiguousarray(self._signs.T)

    def laplacian(self, weights):
        """Graph Laplacians weighting pair s by weights[:, s], shape (rows, n, n)."""
        rows, n = len(weights), self.n
        terms = np.concatenate([weights, weights], axis=1).ravel()
        degrees = np.bincount(self._vertex_bins[: terms.size], terms, rows * n)
        laplacian = np.zeros((rows, n, n))
        laplacian[:, range(n), range(n)] = degrees.reshape(rows, n)
        # 0 - w is the one-term sum of the cell from zero, signed zero included.
        laplacian[:, self.ii, self.jj] = laplacian[:, self.jj, self.ii] = np.subtract(0.0, weights)
        return laplacian

    def solve(self, weights, rhs):
        """Solve L x = rhs, one system per row of rhs (rows, n - 1): L is the
        :meth:`laplacian` with the row and column of vertex 1 (grounded at
        x_1 = 0) left out.  A row whose system is singular gets NaN.  Up to
        ``_CHOLESKY_MAX_N`` items, L is factored as U^T D U straight from the
        pair weights (:meth:`_cholesky`); LAPACK solves the other rows one at
        a time: a larger league's, and those without a positive pivot or a
        finite result."""
        x, bad = (self._cholesky(weights, rhs) if self.n <= _CHOLESKY_MAX_N
                  else (np.empty_like(rhs), range(len(rhs))))
        for r in bad:
            try:
                x[r] = np.linalg.solve(self.laplacian(weights[r:r + 1])[0, 1:, 1:], rhs[r])
            except np.linalg.LinAlgError:
                x[r] = np.nan
        return x

    @functools.cached_property
    def _slots(self):
        # The place of each pair in the lexicographic list of all pairs, or
        # None when the plan lists all of them in that order.
        slots = [self.n * i - i * (i + 1) // 2 + j - i - 1
                 for i, j in zip(np.minimum(self.ii, self.jj).tolist(),
                                 np.maximum(self.ii, self.jj).tolist())]
        return None if slots == list(range(self.n * (self.n - 1) // 2)) else slots

    def _cholesky(self, weights, rhs):
        """The rows of :meth:`solve` by :func:`_cholesky_recurrences`, whose
        weights are those of all pairs (zero for a pair the plan lacks).  Up
        to ``_FLOAT_ROWS`` rows they run per row on Python floats, else once
        on the columns of all rows.  IEEE arithmetic rounds both alike, so a
        row's bits do not depend on the rows beside it.  Returns the
        solutions and the rows with a pivot that is not positive or a
        result that is not finite."""
        rows, size = rhs.shape
        if self._slots is not None:
            weights, given = np.zeros((rows, self.n * size // 2)), weights
            weights[:, self._slots] = given
        on_floats, on_arrays = _cholesky_recurrences(size)
        if rows <= _FLOAT_ROWS:
            x = list(map(on_floats, weights.tolist(), rhs.tolist()))
            bad = [r for r, solution in enumerate(x) if solution is None] if None in x else []
            for r in bad:
                x[r] = (math.nan,) * size
            return np.fromiter(itertools.chain.from_iterable(x), float, rows * size).reshape(rows, size), bad
        with np.errstate(all="ignore"):
            x, pivots = on_arrays(weights.T, rhs.T)
            x, pivots = np.array(x, order="F").T, np.array(pivots)
            # A sum that overflows only sends the rows to the exact test.
            if pivots.min() > 0.0 and np.isfinite(x.sum()):
                return x, ()
            ok = (pivots > 0.0).all(axis=0) & np.isfinite(x).all(axis=1)
        return x, np.flatnonzero(~ok)


#: Most items whose systems :meth:`_Incidence.solve` factors itself, the
#: catalog's largest n, so no batch of simulate's reaches LAPACK.  On one
#: row the recurrence takes 0.95 times LAPACK's time at n = 7, 1.06 at n = 8.
_CHOLESKY_MAX_N = MAX_CATALOG_N
#: Most rows :meth:`_Incidence._cholesky` factors one by one on floats: the
#: array path, whose cost is mostly per operation, is as fast at 24 rows
#: for n = 3 and 4 and at 28 for n = 5 and 6.
_FLOAT_ROWS = 24


@functools.lru_cache(maxsize=None)  # one pair per size < _CHOLESKY_MAX_N
def _cholesky_recurrences(size):
    """Two functions that solve the grounded Laplacian system L x = rhs of
    all pairs of n = size + 1 items by square-root-free Cholesky
    (L = U^T D U, U unit upper triangular), column by column on the
    augmented system [L | rhs].  Both take the weights w of the pairs in
    lexicographic order and the right-hand side: one on Python floats,
    returning the solution, or None for a pivot that is not positive or a
    result that is not finite; one on arrays of many rows, returning the
    solutions and the pivots.

    L = D - W has the degrees on its diagonal and minus the pair weights
    elsewhere, so the recurrence carries w and subtracts only on the
    diagonal: pivot d_j = l_jj, v_jb = w_jb / d_j, y_j = rhs_j / d_j, then
    for j < i <= b: l_ii -= w_ji v_ji, w_ib += w_ji v_jb and
    rhs_i += w_ji y_j; back substitution x_i = y_i + sum over c > i, from
    the last, of v_ic x_c.  A degree adds the vertex's weights in the order
    of :meth:`_Incidence.vertex_sums` over all pairs.

    Both run the same lines, written out one operation per line: on floats
    a loop over the cells took three times as long."""
    n = size + 1
    pairs = pair_order(n)
    degree = [[] for _ in range(n)]
    for s, vertex in enumerate([j for _, j in pairs] + [i for i, _ in pairs]):
        degree[vertex].append(f"w{s % len(pairs)}")
    lines = []
    for a in range(size):
        lines.append(f"a{a}_{a} = {' + '.join(degree[a + 1])}")
        lines += [f"a{a}_{b} = w{pairs.index((a + 1, b + 1))}" for b in range(a + 1, size)]
        lines.append(f"a{a}_{size} = r{a}")
    guarded = list(lines)
    for j in range(size):
        column = [f"v{j}_{b} = a{j}_{b} / a{j}_{j}" for b in range(j + 1, size + 1)]
        for i in range(j + 1, size):
            column.append(f"a{i}_{i} = a{i}_{i} - a{j}_{i} * v{j}_{i}")
            column += [f"a{i}_{b} = a{i}_{b} + a{j}_{i} * v{j}_{b}" for b in range(i + 1, size + 1)]
        lines += column
        guarded += [f"if not a{j}_{j} > 0.0: return None", *column]
    back = [f"v{i}_{size} = v{i}_{size} + v{i}_{c} * v{c}_{size}"
            for c in range(size - 1, 0, -1) for i in range(c)]
    x = [f"v{i}_{size}" for i in range(size)]
    finite = " and ".join(f"{xi} - {xi} == 0.0" for xi in x) or "True"
    guarded += back + [f"return ({''.join(xi + ', ' for xi in x)}) if {finite} else None"]
    lines += back + [f"return [{', '.join(x)}], [{', '.join(f'a{i}_{i}' for i in range(size))}]"]
    unpack = [f"{''.join(f'{v}{s}, ' for s in range(count))}= {v}"
              for v, count in (("w", len(pairs)), ("r", size)) if count]
    namespace = {}
    for name, body in (("on_floats", guarded), ("on_arrays", lines)):
        exec(f"def {name}(w, r):\n    " + "\n    ".join(unpack + body), namespace)
    return namespace["on_floats"], namespace["on_arrays"]


def log_likelihood_gradient(
    data: DataMatrix, m: ExpectedValueVector, model: ModelKind
) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to every m_i (length n;
    drop the first coordinate to stay in the m_1 = 0 gauge).  Normal slopes
    lose accuracy as delta^2 grows: relative 1e-11 at |m_i - m_j| = 1e3 and
    1e-4 at 1e6; wrong from about 1e8, not finite beyond about 2.3e9."""
    if len(m) != data.n:
        raise ValueError("expected value vector does not match item count")
    ii, jj, d1, d2 = _pair_data(data)
    delta = m.values[ii] - m.values[jj]
    g_pair = _pair_terms(delta[None, :], d1[None, :], d2[None, :], model, slice(0))[1]
    return _Incidence(ii, jj, data.n, 1).vertex_sums(g_pair)[0]


def _softmax_rows(m: np.ndarray) -> np.ndarray:
    """exp(m_i) / sum_j exp(m_j) along the last axis."""
    e = np.exp(m - np.max(m, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def weights_from_m(m: ExpectedValueVector) -> WeightVector:
    """Priority vector w_i = exp(m_i) / sum_j exp(m_j)."""
    return WeightVector(_softmax_rows(m.values))


def m_from_weights(w: WeightVector) -> ExpectedValueVector:
    """Log weights shifted so the first coordinate is 0; the left inverse of
    :func:`weights_from_m`."""
    return ExpectedValueVector.gauged(np.log(w.values))


# ---------------------------------------------------------------------------
# Bradley-Terry / Thurstone maximum likelihood


def mm_step(data: DataMatrix, pi: np.ndarray) -> np.ndarray:
    """One minorize-maximize update (Hunter 2004) of the logistic odds vector
    pi (pi_i = exp(m_i)), renormalized to pi_1 = 1.

    Every step ascends the Bradley-Terry likelihood, so the ascent can be
    observed step by step; :func:`bt_mle` itself uses damped Newton.
    """
    ii, jj, d1, d2 = _pair_data(data)
    pi = np.asarray(pi, dtype=float)
    n = data.n
    wins = np.bincount(ii, d2, n) + np.bincount(jj, d1, n)
    paired = (d1 + d2) / (pi[ii] + pi[jj])
    new = wins / (np.bincount(ii, paired, n) + np.bincount(jj, paired, n))
    return new / new[0]


def _least_squares_start(d1, d2, model: ModelKind, plan: _Incidence):
    """Least-squares solution of F^-1(d2 / (d1 + d2)) = m_i - m_j over each
    row's pairs with both amounts positive, in the m_1 = 0 gauge, shape
    (rows, n).  A row with a one-sided pair (one amount zero) or a link
    that is not finite keeps m = 0.  ``plan`` is the :class:`_Incidence`
    of the pairs for at least ``rows`` rows.
    """
    m = np.zeros((len(d1), plan.n))
    won, lost = d1 > 0, d2 > 0
    both = won & lost
    # Pairs without two-sided data get share 1/2, whose link is exactly 0.
    link = model.inverse_cdf(np.divide(d2, d1 + d2, out=np.full_like(d2, 0.5), where=both))
    fitted = ~((won != lost) | ~np.isfinite(link)).any(axis=1)
    rhs = plan.vertex_sums(link[fitted])[:, 1:]
    m[fitted, 1:] = plan.solve(both[fitted].astype(float), rhs)
    return m


def _newton_rows(d1, d2, ii, jj, n, model: ModelKind, tol, max_iter):
    """Damped Newton ascent of the concave log-likelihood in the m_1 = 0
    gauge, one independent problem per row of (d1, d2).  A row has a
    maximum when its directed comparison graph is strongly connected, the
    Ford condition :func:`bt_mle` checks; each row with a one-sided pair
    (one amount zero) is tested, and one that fails is reported
    unconverged after 0 iterations, at its start.  The other rows must be
    connected.  A row also ends unconverged after ``max_iter`` steps, or on
    the first step whose Newton system is singular (its curvatures
    underflow), where it stops.

    Each row starts from :func:`_least_squares_start`, on consistent data
    the optimum itself (see the module docstring).  The negative Hessian is
    the graph Laplacian weighted by the pair curvatures.  ``tol`` bounds
    ||m - m*||_inf.  A full step of max norm s leaves about K s^2 to go; K
    is estimated as max(s / s'^2, 1) from the row's previous full step s'
    (K = 1 on the first step).  A row stops on its first step with
    K s^2 <= tol / 10: it takes that step without evaluating it or searching
    it, and is frozen.  The estimate uses the row's own steps only, so every
    row's trajectory is identical to a run of that row alone.  Returns
    (m rows, iterations per row, converged mask).

    The iteration runs on x = m[:, 1:].  Rows still iterating are kept as a
    prefix of the working arrays, which are compacted only when a row stops.
    Each point is evaluated once (:func:`_pair_terms`): the terms of the
    point a row moves to are its next derivatives, and its log-likelihood is
    computed only where the step is searched.
    """
    rows = d1.shape[0]
    plan = _Incidence(ii, jj, n, rows)
    m = _least_squares_start(d1, d2, model, plan)
    x = m[:, 1:]
    current, g_pair, h_pair = _pair_terms(plan.differences(x), d1, d2, model, slice(None))
    iterations = np.zeros(rows, dtype=np.intp)
    converged = np.ones(rows, dtype=bool)
    active = np.arange(rows)
    # Only a row with a one-sided pair (one amount zero, the other not) can
    # lack a maximum.  Those that fail the Ford test stop at the start,
    # unconverged.
    one_sided = np.logical_xor(d1, d2)
    if one_sided.any():
        pairs = list(zip(ii.tolist(), jj.tolist()))
        for r in np.flatnonzero(one_sided.any(axis=1)):
            converged[r] = _ford_holds(n, zip(pairs, zip(d1[r].tolist(), d2[r].tolist())))
        active = np.flatnonzero(converged)
        if active.size == 0:
            return m, iterations, converged
        x, d1, d2, current, g_pair, h_pair = (
            a[active] for a in (x, d1, d2, current, g_pair, h_pair))
    last_square = np.ones(active.size)
    bound = 0.1 * tol
    threshold = len(ii) * np.finfo(float).eps
    for step in range(1, max_iter + 1):
        grad = plan.vertex_sums(g_pair)[:, 1:]
        direction = plan.solve(h_pair, grad)
        # A singular system leaves a direction that is not finite: its row
        # takes no step and stops, unconverged.
        if not np.isfinite(direction).all():
            failed = ~np.isfinite(direction).all(axis=1)
            direction[failed] = 0.0
            converged[active[failed]] = False
        moved = x + direction
        # K s^2 <= tol / 10 with K = max(s / last^2, 1), multiplied through
        # by last^2 to need no division: last^2 is 0 after a step below 1e-162.
        size = np.abs(direction).max(axis=1)
        square = size * size
        done = np.maximum(size, last_square) * square <= bound * last_square
        last_square = square
        if done.any():
            m[active[done], 1:] = moved[done]
            iterations[active[done]] = step
            going = ~done
            active, x, moved, direction, grad, d1, d2, current, last_square = (
                a[going]
                for a in (active, x, moved, direction, grad, d1, d2, current, last_square)
            )
        if active.size == 0:
            break
        # Take the full step where the ascent it promises (half the Newton
        # decrement) is below the rounding of the log-likelihood: there a
        # line search compares noise.  Elsewhere halve until it ascends.
        # Only searched rows get a log-likelihood: every row's would cost
        # n = 6 logistic runs about 9 %.
        decrement = (grad * direction).sum(axis=1)
        search = np.flatnonzero(0.5 * decrement > threshold * np.abs(current))
        value, g_pair, h_pair = _pair_terms(plan.differences(moved), d1, d2, model, search)
        # A halving trial is x + scale direction.  After 60 failed trials a
        # row takes the next halving untested, evaluated for its derivatives.
        for halvings in range(1, 61):
            ascended = value >= current[search]
            current[search[ascended]] = value[ascended]
            search = search[~ascended]
            if search.size == 0:
                break
            moved[search] = x[search] + 0.5**halvings * direction[search]
            value, g_pair[search], h_pair[search] = _pair_terms(
                plan.differences(moved[search]), d1[search], d2[search], model,
                slice(None) if halvings < 60 else slice(0),
            )
        x = moved
    m[active, 1:] = x
    iterations[active] = max_iter
    converged[active] = False
    return m, iterations, converged


def bt_mle(
    data: DataMatrix,
    model: ModelKind = ModelKind.LOGISTIC,
    *,
    tol: float = DEFAULT_MLE_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MleResult:
    """Maximum likelihood expected values for the comparison data.

    Requires the Ford condition (strongly connected directed comparison
    graph), which is necessary and sufficient for a unique maximum.
    Real-valued amounts are fine; only ratios matter.  ``tol`` > 0 bounds the
    distance ||m - m*||_inf to the optimum: the fit stops on its first full
    Newton step whose estimate of the error it leaves, from the sizes of this
    step and the last, is below ``tol`` / 10, and takes that step;
    ``max_iter`` >= 1.
    """
    if not (tol > 0.0 and max_iter >= 1):
        raise ValueError(f"need tol > 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}")
    if not ford_condition(data):
        raise FordViolation(
            "directed comparison graph is not strongly connected; the MLE "
            "does not exist or is not unique"
        )
    if data.n == 1:
        return MleResult(ExpectedValueVector(np.zeros(1)), 0.0, 0, True)
    ii, jj, d1, d2 = _pair_data(data)
    # Amounts above 2^512 are scaled down by a power of two: Newton sums stay finite.
    d1, d2 = np.ldexp([d1, d2], min(0, 512 - math.frexp(max(d1.max(), d2.max()))[1]))[:, None]
    m_rows, iterations, converged = _newton_rows(d1, d2, ii, jj, data.n, model, tol, max_iter)
    steps = int(iterations[0])
    if not converged[0]:
        raise NoConvergence("maximum likelihood iteration did not converge", steps)
    m = ExpectedValueVector(m_rows[0])
    return MleResult(m, log_likelihood(data, m, model), steps, True)


# ---------------------------------------------------------------------------
# Logarithmic least squares


def llsm(pcm: IPCM) -> WeightVector:
    """Weights minimizing sum over known pairs of
    (ln a_ij - ln(w_i / w_j))^2, via the graph-Laplacian normal equations
    with the first log-weight grounded at 0.  Unique when the representing
    graph is connected."""
    known = pcm.known_pairs()
    if not _spans(pcm.n, known):
        raise DisconnectedGraph("logarithmic least squares needs a connected graph")
    return WeightVector(_softmax_rows(_grounded_log_weights(pcm, known)))


def _grounded_log_weights(pcm: IPCM, known) -> np.ndarray:
    """The log-weights y of :func:`llsm`, in the gauge y_1 = 0, from the
    ``known`` pairs of the matrix, whose graph must be connected."""
    y = np.zeros(pcm.n)
    if known:
        ii, jj = np.array(known, dtype=np.intp).T
        log_ratio = np.array([[math.log(pcm.entries[p]) for p in known]])
        plan = _Incidence(ii, jj, pcm.n, 1)
        y[1:] = plan.solve(np.ones_like(log_ratio), plan.vertex_sums(log_ratio)[:, 1:])[0]
    return y


# ---------------------------------------------------------------------------
# Eigenvector method


def _perron_pair(matrix: np.ndarray):
    """Perron root and right Perron vector, scaled to sum 1, of a positive
    matrix, from the dense eigendecomposition."""
    values, vectors = np.linalg.eig(matrix)
    top = int(np.argmax(values.real))
    vec = vectors[:, top].real
    return float(values[top].real), vec / vec.sum()


def _complete_lambda_min(pcm: IPCM, known, completion_tol, max_iter):
    """Fill the missing entries of a partial matrix by minimizing
    f(t) = log lambda_max, with entry (i, j) parametrized as exp(t) and
    (j, i) as exp(-t).  f is convex in t and its minimum is unique on
    connected graphs (Bozoki, Fulop & Ronyai 2010), so damped Newton with the
    exact Perron derivatives converges in a few steps; :func:`em` states
    when it stops.  ``known`` lists the matrix's known pairs, whose graph
    must be connected.  Returns the completed matrix, its Perron root and
    right Perron vector (summing to 1), and the number of Newton steps."""
    n = pcm.n
    ii, jj = np.array([p for p in pair_order(n) if p not in pcm.entries], dtype=np.intp).T
    base, eye, rows = pcm.as_array(missing=1.0), np.eye(n), np.arange(len(ii))

    def completed(tv):
        a = base.copy()
        a[ii, jj] = np.exp(tv)
        a[jj, ii] = np.exp(-tv)
        return a

    # Start from the least-squares completion: already optimal when the known
    # part is consistent, and a good neighborhood otherwise.
    y = _grounded_log_weights(pcm, known)
    t = y[ii] - y[jj]
    a = completed(t)
    lam, w = _perron_pair(a)
    previous = math.inf
    bound = 0.1 * completion_tol
    for step in range(1, max_iter + 1):
        # Left and right Perron vectors u, w with u.w = 1.  With dA_s the
        # derivative of A in t_s, d lambda / d t_s = u' dA_s w; row s of dw
        # is dA_s w and row s of du is u' dA_s.  As w sums to 1,
        # M = lambda I - A + w 1' has u' M = 1', so u' = 1' M^-1, and the
        # second derivatives go through the reduced resolvent
        # S = (I - w u') M^-1 (I - w u') of lambda I - A.  M stays regular
        # where A has rank one (a consistent completion; its eigenvalues are
        # then 1 and lambda), while a full eigenbasis of A does not.
        current = math.log(lam)
        inverse = np.linalg.inv(lam * eye - a + w[:, None])
        u = inverse.sum(axis=0)
        up, down, w_ii, w_jj = a[ii, jj], a[jj, ii], w[ii], w[jj]
        u_up, u_down = u[ii] * up, u[jj] * down
        upper, lower = u_up * w_jj, u_down * w_ii
        grad = (upper - lower) / lam
        dw, du = np.zeros((2, len(ii), n))
        dw[rows, ii], dw[rows, jj] = up * w_jj, -(down * w_ii)
        du[rows, jj], du[rows, ii] = u_up, -u_down
        complement = eye - np.outer(w, u)
        mixed = du @ (complement @ inverse @ complement) @ dw.T
        hess = (np.diag(upper + lower) + mixed + mixed.T) / lam - np.outer(grad, grad)
        direction = -np.linalg.solve(hess, grad)
        # A full step of max norm s bounds the distance to the optimum by
        # about s: within the tolerance, t is returned as it is.
        size = float(np.max(np.abs(direction)))
        if size <= completion_tol:
            return a, lam, w, step
        # Take the full step where the descent it promises (half the Newton
        # decrement) is below the rounding of f: there a line search compares
        # noise.  Elsewhere halve until f does not increase, at most 60
        # times.  Each point is built and decomposed once, unless it leaves t
        # as it is, and the point taken, matrix and pair, is the next iterate.
        flat = -0.5 * (grad @ direction) <= n * np.finfo(float).eps * max(1.0, abs(current))
        scale = 1.0
        for halvings in range(61):
            moved = t + scale * direction
            trial = a if np.array_equal(moved, t) else completed(moved)
            taken = (lam, w) if trial is a else _perron_pair(trial)
            if flat or halvings == 60 or math.log(taken[0]) <= current:
                break
            scale *= 0.5
        t, a = moved, trial
        lam, w = taken
        # Convergence is quadratic: the full step leaves about K s^2 to go,
        # with K estimated as max(s / s'^2, 1) from the previous step's s'
        # (K = 1 on the first).  Stop once that is below a tenth of the
        # tolerance, as the likelihood fits do (:func:`_newton_rows`), in the
        # form s^2 <= (tol / 10) min(1, s'^2 / s), which needs no s' > 0.
        # Where f is flat to rounding, a full step that no longer shrinks is
        # rounding noise in a direction f hardly sees: stop there as well.
        if (scale == 1.0 and size * size <= bound * min(1.0, previous * previous / size)
                or flat and size >= previous):
            return a, lam, w, step
        previous = size
    raise NoConvergence("eigenvalue-minimal completion did not converge", max_iter)


def em(
    pcm: IPCM,
    *,
    eig_tol: float = DEFAULT_EIG_TOL,
    completion_tol: float = DEFAULT_COMPLETION_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EmResult:
    """Principal-eigenvector weights of the matrix.

    A complete matrix is evaluated directly; a partial one is evaluated on
    its eigenvalue-minimal completion, found by damped Newton on
    log lambda_max from the least-squares completion.  ``completion_tol``
    bounds the distance ||t - t*||_inf of the completion's log entries to
    the optimum: the completion returns its iterate as it is when the full
    Newton step's max norm s is at most ``completion_tol``, and stops after
    a step taken in full once K s^2 <= ``completion_tol`` / 10, with
    K = max(s / s'^2, 1) from the previous step s'.  Once log lambda_max is
    flat to rounding it also stops when the full step stops shrinking.  It
    raises :class:`NoConvergence` after ``max_iter`` steps.  The eigenpair
    comes from the dense eigendecomposition and must pass the residual test
    ||A w - lambda w||_inf <= eig_tol * max(1, ||A w||_inf), or
    :class:`NoConvergence` is raised.  ``eig_tol`` > 0, as no floating-point
    eigenpair meets a zero residual; ``completion_tol`` >= 0; ``max_iter`` >= 1.
    """
    if not (eig_tol > 0.0 and completion_tol >= 0.0 and max_iter >= 1):
        raise ValueError("need eig_tol > 0, completion_tol >= 0 and max_iter >= 1, got "
                         f"eig_tol={eig_tol}, completion_tol={completion_tol}, max_iter={max_iter}")
    known = pcm.known_pairs()
    if not _spans(pcm.n, known):
        raise DisconnectedGraph("eigenvector method needs a connected graph")
    iterations = 0
    if pcm.is_complete:
        matrix = pcm.as_array()
        lam, vec = _perron_pair(matrix)
    else:
        matrix, lam, vec, iterations = _complete_lambda_min(pcm, known, completion_tol, max_iter)
    image = matrix @ vec
    residual = float(np.max(np.abs(image - lam * vec)))
    if not residual <= eig_tol * max(1.0, float(np.max(np.abs(image)))):
        raise NoConvergence(f"Perron eigenpair residual {residual:.3g} above tolerance", iterations)
    return EmResult(WeightVector.normalized(vec), lam, iterations)
