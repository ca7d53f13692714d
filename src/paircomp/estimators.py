"""The three evaluation methods for pairwise comparison data.

* :func:`llsm` — logarithmic least squares on a (possibly partial) ratio
  matrix, solved through the graph-Laplacian normal equations.
* :func:`em` — principal right eigenvector; partial matrices are first
  completed by minimizing the principal eigenvalue over the missing entries.
* :func:`bt_mle` — maximum likelihood for the Bradley-Terry (logistic) and
  Thurstone (standard normal) models, gauge-fixed at m_1 = 0.

Solver choices: LLSM, the likelihoods' least-squares start and every Newton
step solve the same system, a weighted graph Laplacian grounded at m_1 = 0,
assembled by one batched scatter plan: one sum gives the degrees, and each
pair's weight, negated, fills its two off-diagonal cells.  Both likelihoods
are concave and maximized by one batched damped Newton solver, whose Hessian
is the Laplacian weighted by the curvature of ln F on each pair.  Each point
it visits is evaluated once: the link's special functions there give both
the log-likelihood its line search compares and the derivatives of the next
step.  A fit stops on its first full Newton step below the tolerance and
takes that step, unevaluated; this bounds the error because convergence is
quadratic near the optimum.  It starts from the least-squares solution of
F^-1(d2 / (d1 + d2)) = m_i - m_j, a unit-weight solve: on consistent data
every equation holds exactly, and the paper shows the least-squares and
likelihood optima then coincide, so the start is the MLE; under noise it is
close to it.  The eigenvalue completion minimizes log lambda_max, which is
convex in the logs of the missing entries with a unique optimum on connected
comparison graphs, by damped Newton with the exact Perron gradient and
Hessian; each iterate's eigenpair comes from one dense eigendecomposition.

All iteration is in lexicographic pair order, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .core import (
    IPCM,
    DataMatrix,
    ExpectedValueVector,
    ModelKind,
    WeightVector,
    ford_condition,
    pair_order,
)
from .errors import DisconnectedGraph, FordViolation, NoConvergence

#: Maximum likelihood has converged when the full Newton step's max norm is below this.
DEFAULT_MLE_TOL = 1e-10
#: Relative residual ||A w - lambda w||_inf the Perron eigenpair must meet.
DEFAULT_EIG_TOL = 1e-12
#: The eigenvalue-minimal completion has converged when the full Newton step's
#: max norm (in the log entries) is below this.
DEFAULT_COMPLETION_TOL = 1e-12
#: Iteration cap shared by all solvers.
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class EmResult:
    """Eigenvector evaluation: weights and the principal eigenvalue of the
    evaluated (or optimally completed) matrix, and the Newton steps of the
    completion (0 for a complete matrix)."""

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


def _loglik_rows(delta, d1, d2, model: ModelKind):
    """Row-wise log-likelihood from the pair differences delta = m_i - m_j
    and data, all of shape (N, k)."""
    return (d1 * model.log_cdf(-delta) + d2 * model.log_cdf(delta)).sum(axis=1)


def log_likelihood(data: DataMatrix, m: ExpectedValueVector, model: ModelKind) -> float:
    """Log-likelihood of the data under expected values ``m``:
    sum over pairs of d1 * ln F(m_j - m_i) + d2 * ln F(m_i - m_j)."""
    if len(m) != data.n:
        raise ValueError("expected value vector does not match item count")
    ii, jj, d1, d2 = _pair_data(data)
    delta = m.values[ii] - m.values[jj]
    return float(_loglik_rows(delta[None, :], d1[None, :], d2[None, :], model)[0])


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _pair_terms(delta, d1, d2, model: ModelKind, searched):
    """One evaluation of each row's point, from its pair differences
    delta = m_i - m_j: the log-likelihood of the rows ``searched`` (an index
    or a slice), and every pair's slope and negated curvature in delta of
    its term d1 ln F(-delta) + d2 ln F(delta).  With s = F'/F, -(ln F)'' is
    p(1 - p) for the logistic (even in delta) and s(delta + s) for the
    normal: both are positive, so the reduced Laplacian they weight is
    definite on connected graphs."""
    d1s, d2s = d1[searched], d2[searched]
    if model is ModelKind.LOGISTIC:
        loglik = _loglik_rows(delta[searched], d1s, d2s, model)
        s_pos, s_neg = model.cdf(-delta), model.cdf(delta)
        return loglik, d2 * s_pos - d1 * s_neg, (d1 + d2) * s_pos * s_neg
    # ln Phi(+-delta) give the log-likelihood and the Mills ratios
    # phi(x) / Phi(x) at x = +-delta, stable for very negative x; ln phi is
    # the same at both.
    log_pos, log_neg = log_ndtr(delta), log_ndtr(-delta)
    loglik = (d1s * log_neg[searched] + d2s * log_pos[searched]).sum(axis=1)
    log_phi = -0.5 * delta * delta - _LOG_SQRT_2PI
    s_pos, s_neg = np.exp(log_phi - log_pos), np.exp(log_phi - log_neg)
    up, down = d2 * s_pos, d1 * s_neg
    return loglik, up - down, up * (delta + s_pos) + down * (s_neg - delta)


class _Incidence:
    """Scatter plan of the pairs (ii[s], jj[s]) of n vertices for up to
    ``rows`` rows of per-pair values, in the m_1 = 0 gauge x = m[:, 1:].

    Bins are laid out row by row, so fewer rows use a prefix of them.  Each
    vertex adds its terms in lexicographic pair order, whatever the number
    of rows.
    """

    def __init__(self, ii, jj, n, rows):
        self.ii, self.jj, self.n = ii, jj, n
        row, vertex = np.arange(rows)[:, None], np.concatenate([jj, ii])
        self._vertex_bins = (row * n + vertex).ravel()
        # Laplacian cell (a, b) of a row sits at a n + b of its n * n bins.
        # The degrees add each vertex's weights in the order of the vertex
        # sums; an off-diagonal cell holds the one weight of its pair.
        self._degree_bins = (row * (n * n) + vertex * (n + 1)).ravel()
        self._pair_cells = (row * (n * n) + np.concatenate([ii * n + jj, jj * n + ii])).ravel()
        # x @ P gives the differences: column s of P holds +1 at ii[s] and -1
        # at jj[s] (none at vertex 1), so each sum has at most two nonzero
        # terms and is exact in any order.  At simulate's shapes (n <= 6) it
        # is two to seven times as fast as the gather.  P has (n - 1) k
        # entries, as many as the differences of n - 1 rows; a batch of fewer
        # rows (a one-row fit of more than two items) gathers instead, so the
        # map is never larger than one array it returns: for a one-row fit of
        # 600 items it would take 860 MB.
        self._difference_map = None
        if n - 1 <= rows:
            signs = np.zeros((n, len(ii)))
            columns = np.arange(len(ii))
            signs[ii, columns] = 1.0
            signs[jj, columns] = -1.0
            self._difference_map = signs[1:]

    def differences(self, x):
        """m_i - m_j of every pair, one row per row of x = m[:, 1:]."""
        if self._difference_map is not None:
            return x @ self._difference_map
        m = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
        return m[:, self.ii] - m[:, self.jj]

    def vertex_sums(self, values):
        """Row-wise vertex sums, shape (rows, n): values[:, s] goes to vertex
        ii[s] and its negation to jj[s]."""
        rows = len(values)
        terms = np.concatenate([-values, values], axis=1).ravel()
        sums = np.bincount(self._vertex_bins[: terms.size], terms, rows * self.n)
        return sums.reshape(rows, self.n)

    def laplacian(self, weights):
        """Graph Laplacians weighting pair s by weights[:, s], shape (rows, n, n)."""
        rows, n = len(weights), self.n
        terms = np.concatenate([weights, weights], axis=1).ravel()
        laplacian = np.bincount(self._degree_bins[: terms.size], terms, rows * n * n)
        # 0 - w is the one-term sum of the cell from zero, signed zero included.
        laplacian[self._pair_cells[: terms.size]] = np.subtract(0.0, terms)
        return laplacian.reshape(rows, n, n)

    def solve(self, weights, rhs):
        """Solve L x = rhs, one system per row of rhs (rows, n - 1): L is the
        :meth:`laplacian` with the row and column of vertex 1 (grounded at
        x_1 = 0) left out."""
        return np.linalg.solve(self.laplacian(weights)[:, 1:, 1:], rhs[..., None])[..., 0]


def log_likelihood_gradient(
    data: DataMatrix, m: ExpectedValueVector, model: ModelKind
) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to every m_i (length n;
    drop the first coordinate to stay in the m_1 = 0 gauge)."""
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
    gauge, one independent problem per row of (d1, d2).

    Each row starts from its least-squares fit of the linked data (see
    :func:`_least_squares_start`).  The paper shows that this fit and the
    likelihood optimum coincide on consistent data, complete or not, so
    there the first step is below rounding; under noise the start is close
    to the optimum.  The negative Hessian is the graph Laplacian weighted by
    the pair curvatures.  A row stops on its first full Newton step below
    ``tol`` in max norm: it takes that step without evaluating it or
    searching it, and is frozen.  Every row's trajectory is therefore
    identical to a run of that row alone.  Returns (m rows, iterations per
    row, converged mask).

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
    active = np.arange(rows)
    threshold = len(ii) * np.finfo(float).eps
    for step in range(1, max_iter + 1):
        grad = plan.vertex_sums(g_pair)[:, 1:]
        direction = plan.solve(h_pair, grad)
        moved = x + direction
        # A row whose full step is below tol stops on it, unevaluated.
        done = np.abs(direction).max(axis=1) < tol
        if done.any():
            m[active[done], 1:] = moved[done]
            iterations[active[done]] = step
            going = ~done
            active, x, moved, direction, grad, d1, d2, current = (
                a[going] for a in (active, x, moved, direction, grad, d1, d2, current)
            )
        if active.size == 0:
            break
        # Take the full step where the ascent it promises (half the Newton
        # decrement) is below the rounding of the log-likelihood: there a
        # line search compares noise.  Elsewhere halve until it ascends.
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
    converged = np.ones(rows, dtype=bool)
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
    Real-valued amounts are fine; only ratios matter.  The fit stops on its
    first full Newton step whose max norm is below ``tol`` > 0 and takes that
    step; ``max_iter`` >= 1.
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
    m_rows, iterations, converged = _newton_rows(
        d1[None, :], d2[None, :], ii, jj, data.n, model, tol, max_iter
    )
    steps = int(iterations[0])
    if not converged[0]:
        raise NoConvergence("maximum likelihood iteration did not converge", steps)
    m = m_rows[0]
    loglik = _loglik_rows(m[None, ii] - m[None, jj], d1[None, :], d2[None, :], model)[0]
    return MleResult(ExpectedValueVector(m), float(loglik), steps, True)


# ---------------------------------------------------------------------------
# Logarithmic least squares


def llsm(pcm: IPCM) -> WeightVector:
    """Weights minimizing sum over known pairs of
    (ln a_ij - ln(w_i / w_j))^2, via the graph-Laplacian normal equations
    with the first log-weight grounded at 0.  Unique when the representing
    graph is connected."""
    if not pcm.representing_graph().is_connected():
        raise DisconnectedGraph("logarithmic least squares needs a connected graph")
    return _llsm_weights(pcm)


def _llsm_weights(pcm: IPCM) -> WeightVector:
    """:func:`llsm` of a matrix whose graph is known to be connected."""
    n = pcm.n
    if n == 1:
        return WeightVector(np.ones(1))
    pairs = pcm.known_pairs()
    ii, jj = np.array(pairs, dtype=np.intp).T
    log_ratio = np.array([[math.log(pcm.entries[p]) for p in pairs]])
    plan = _Incidence(ii, jj, n, 1)
    y = np.zeros(n)
    y[1:] = plan.solve(np.ones_like(log_ratio), plan.vertex_sums(log_ratio)[:, 1:])[0]
    return WeightVector(_softmax_rows(y))


# ---------------------------------------------------------------------------
# Eigenvector method


def _perron_pair(matrix: np.ndarray):
    """Perron root and right Perron vector, scaled to sum 1, of a positive
    matrix, from the dense eigendecomposition."""
    values, vectors = np.linalg.eig(matrix)
    top = int(np.argmax(values.real))
    vec = vectors[:, top].real
    return float(values[top].real), vec / vec.sum()


def _complete_lambda_min(pcm: IPCM, completion_tol, max_iter):
    """Fill the missing entries of a partial matrix by minimizing
    f(t) = log lambda_max, with entry (i, j) parametrized as exp(t) and
    (j, i) as exp(-t).  f is convex in t and its minimum is unique on
    connected graphs (Bozoki, Fulop & Ronyai 2010), so damped Newton with the
    exact Perron derivatives converges in a few steps.  Returns the completed
    matrix, its Perron root and right Perron vector (summing to 1), and the
    number of Newton steps."""
    n = pcm.n
    ii, jj = np.array([p for p in pair_order(n) if p not in pcm.entries], dtype=np.intp).T
    base, eye = pcm.as_array(missing=1.0), np.eye(n)

    def completed(tv):
        a = base.copy()
        a[ii, jj] = np.exp(tv)
        a[jj, ii] = np.exp(-tv)
        return a

    # Start from the least-squares completion: already optimal when the known
    # part is consistent, and a good neighborhood otherwise.
    log_w = np.log(_llsm_weights(pcm).values)
    t = log_w[ii] - log_w[jj]
    a = completed(t)
    lam, w = _perron_pair(a)
    previous = math.inf
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
        up, down = a[ii, jj], a[jj, ii]
        upper, lower = u[ii] * up * w[jj], u[jj] * down * w[ii]
        grad = (upper - lower) / lam
        dw = eye[ii] * (up * w[jj])[:, None] - eye[jj] * (down * w[ii])[:, None]
        du = eye[jj] * (u[ii] * up)[:, None] - eye[ii] * (u[jj] * down)[:, None]
        complement = eye - np.outer(w, u)
        mixed = du @ (complement @ inverse @ complement) @ dw.T
        hess = (np.diag(upper + lower) + mixed + mixed.T) / lam - np.outer(grad, grad)
        direction = -np.linalg.solve(hess, grad)
        # Take the full step where the descent it promises (half the Newton
        # decrement) is below the rounding of f: there a line search compares
        # noise.  Elsewhere halve until f does not increase, at most 60
        # times.  Each point is built and decomposed once, unless it leaves t
        # as it is, and the point taken, matrix and pair, is the next iterate.
        size = float(np.max(np.abs(direction)))
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
        # Where f is flat to rounding, a full step that no longer shrinks is
        # rounding noise in a direction f hardly sees: stop there as well.
        if size < completion_tol or (flat and size >= previous):
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
    log lambda_max.  The completion stops when the full step's max norm is
    below ``completion_tol``, or, once log lambda_max is flat to rounding,
    when the full step stops shrinking; it raises :class:`NoConvergence`
    after ``max_iter`` steps.  The eigenpair comes from the dense
    eigendecomposition and must pass the residual test
    ||A w - lambda w||_inf <= eig_tol * max(1, ||A w||_inf), or
    :class:`NoConvergence` is raised.  ``eig_tol`` > 0, as no floating-point
    eigenpair meets a zero residual; ``completion_tol`` >= 0; ``max_iter`` >= 1.
    """
    if not (eig_tol > 0.0 and completion_tol >= 0.0 and max_iter >= 1):
        raise ValueError("need eig_tol > 0, completion_tol >= 0 and max_iter >= 1, got "
                         f"eig_tol={eig_tol}, completion_tol={completion_tol}, max_iter={max_iter}")
    if not pcm.representing_graph().is_connected():
        raise DisconnectedGraph("eigenvector method needs a connected graph")
    if pcm.n == 1:
        return EmResult(WeightVector(np.ones(1)), 1.0)
    iterations = 0
    if pcm.is_complete:
        matrix = pcm.as_array()
        lam, vec = _perron_pair(matrix)
    else:
        matrix, lam, vec, iterations = _complete_lambda_min(pcm, completion_tol, max_iter)
    image = matrix @ vec
    residual = float(np.max(np.abs(image - lam * vec)))
    if not residual <= eig_tol * max(1.0, float(np.max(np.abs(image)))):
        raise NoConvergence(f"Perron eigenpair residual {residual:.3g} above tolerance", iterations)
    return EmResult(WeightVector.normalized(vec), lam, iterations)
