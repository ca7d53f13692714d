"""The three evaluation methods for pairwise comparison data.

* :func:`llsm` — logarithmic least squares on a (possibly partial) ratio
  matrix, solved through the graph-Laplacian normal equations.
* :func:`em` — principal right eigenvector; partial matrices are first
  completed by minimizing the principal eigenvalue over the missing entries.
* :func:`bt_mle` — maximum likelihood for the Bradley-Terry (logistic) and
  Thurstone (standard normal) models, gauge-fixed at m_1 = 0.

Solver choices: both likelihoods are concave and maximized by one batched
damped Newton solver, whose Hessian is a graph Laplacian weighted by the
curvature of ln F on each pair; it converges when the full Newton step is
below the tolerance, which bounds the error because convergence is
quadratic near the optimum.  The eigenvalue completion uses cyclic
coordinate descent with univariate Brent minimization, whose optimum is
unique for connected comparison graphs.

All iteration is in lexicographic pair order, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr

from .core import (
    IPCM,
    DataMatrix,
    ExpectedValueVector,
    ModelKind,
    WeightVector,
    ford_condition,
)
from .errors import DisconnectedGraph, FordViolation, NoConvergence

#: Maximum likelihood has converged when the full Newton step's max norm is below this.
DEFAULT_MLE_TOL = 1e-10
#: Residual tolerance of the power iteration eigenpair.
DEFAULT_EIG_TOL = 1e-12
#: Stop the eigenvalue-minimal completion when a sweep lowers lambda_max less.
DEFAULT_COMPLETION_TOL = 1e-12
#: Iteration cap shared by all solvers.
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class EmResult:
    """Eigenvector evaluation: weights and the principal eigenvalue of the
    evaluated (or optimally completed) matrix."""

    weights: WeightVector
    lambda_max: float


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
    ii = np.array([p[0] for p in pairs], dtype=np.intp)
    jj = np.array([p[1] for p in pairs], dtype=np.intp)
    d1 = np.array([data.entries[p][0] for p in pairs])
    d2 = np.array([data.entries[p][1] for p in pairs])
    return ii, jj, d1, d2


def _loglik_rows(m, ii, jj, d1, d2, model: ModelKind):
    """Row-wise log-likelihood for m of shape (N, n) and data of shape (N, k)."""
    delta = m[:, ii] - m[:, jj]
    return np.sum(d1 * model.log_cdf(-delta) + d2 * model.log_cdf(delta), axis=1)


def log_likelihood(data: DataMatrix, m: ExpectedValueVector, model: ModelKind) -> float:
    """Log-likelihood of the data under expected values ``m``:
    sum over pairs of d1 * ln F(m_j - m_i) + d2 * ln F(m_i - m_j)."""
    if len(m) != data.n:
        raise ValueError("expected value vector does not match item count")
    ii, jj, d1, d2 = _pair_data(data)
    return float(_loglik_rows(m.values[None, :], ii, jj, d1[None, :], d2[None, :], model)[0])


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _mills(x):
    """phi(x) / Phi(x), stable for very negative x."""
    return np.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_ndtr(x))


def _score(delta, model: ModelKind):
    """d/d delta of ln F(delta)."""
    if model is ModelKind.LOGISTIC:
        return model.cdf(-delta)
    return _mills(delta)


def _incidence_sums(at_i, at_j, ii, jj, n):
    """Row-wise vertex sums over the pairs (ii[s], jj[s]): at_i[:, s] goes to
    vertex ii[s] and at_j[:, s] to jj[s]; shape (rows, n).  Each vertex adds
    its terms in lexicographic pair order, whatever the number of rows."""
    rows = at_i.shape[0]
    bins = (np.arange(rows)[:, None] * n + np.concatenate([jj, ii])).ravel()
    values = np.concatenate([at_j, at_i], axis=1).ravel()
    return np.bincount(bins, values, rows * n).reshape(rows, n)


def _laplacian_rows(weights, ii, jj, n):
    """Graph Laplacians of shape (rows, n, n), one per row of pair weights."""
    lap = np.zeros((weights.shape[0], n, n))
    lap[:, ii, jj] = -weights
    lap[:, jj, ii] = -weights
    diagonal = np.arange(n)
    lap[:, diagonal, diagonal] = _incidence_sums(weights, weights, ii, jj, n)
    return lap


def log_likelihood_gradient(
    data: DataMatrix, m: ExpectedValueVector, model: ModelKind
) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to every m_i (length n;
    drop the first coordinate to stay in the m_1 = 0 gauge)."""
    if len(m) != data.n:
        raise ValueError("expected value vector does not match item count")
    ii, jj, d1, d2 = _pair_data(data)
    delta = m.values[ii] - m.values[jj]
    g_pair = d2 * _score(delta, model) - d1 * _score(-delta, model)
    return _incidence_sums(g_pair[None, :], -g_pair[None, :], ii, jj, data.n)[0]


def weights_from_m(m: ExpectedValueVector) -> WeightVector:
    """Priority vector w_i = exp(m_i) / sum_j exp(m_j)."""
    e = np.exp(m.values - np.max(m.values))
    return WeightVector.normalized(e)


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


def _newton_rows(d1, d2, ii, jj, n, model: ModelKind, tol, max_iter):
    """Damped Newton ascent of the concave log-likelihood in the m_1 = 0
    gauge, one independent problem per row of (d1, d2).

    The negative Hessian is the graph Laplacian weighted by the pair
    curvatures.  A row stops, and is frozen, when its full Newton step is
    below ``tol``; every row's trajectory is therefore identical to a run of
    that row alone.  Returns (m rows, iterations per row, converged mask).
    """
    rows = d1.shape[0]
    m = np.zeros((rows, n))
    current = _loglik_rows(m, ii, jj, d1, d2, model)
    iterations = np.zeros(rows, dtype=np.intp)
    active = np.arange(rows)
    for step in range(1, max_iter + 1):
        ma, a1, a2 = m[active], d1[active], d2[active]
        delta = ma[:, ii] - ma[:, jj]
        s_pos, s_neg = _score(delta, model), _score(-delta, model)
        g_pair = a2 * s_pos - a1 * s_neg
        grad = _incidence_sums(g_pair, -g_pair, ii, jj, n)
        # Pair curvatures -(ln F)'': p(1 - p) for the logistic, which is even in
        # delta; s(delta + s) with s = phi/Phi for the normal.  Both are
        # positive, so the reduced Laplacian is definite on connected graphs.
        if model is ModelKind.LOGISTIC:
            h_pair = (a1 + a2) * s_pos * s_neg
        else:
            h_pair = a2 * s_pos * (delta + s_pos) + a1 * s_neg * (s_neg - delta)
        hess = _laplacian_rows(h_pair, ii, jj, n)
        direction = np.zeros_like(ma)
        direction[:, 1:] = np.linalg.solve(hess[:, 1:, 1:], grad[:, 1:, None])[..., 0]
        iterations[active] = step
        # Take the full step where the ascent it promises (half the Newton
        # decrement) is below the rounding of the log-likelihood: there a
        # line search compares noise.  Elsewhere halve until it ascends.
        gain = 0.5 * np.sum(grad * direction, axis=1)
        scale = np.ones(len(active))
        search = np.flatnonzero(gain > len(ii) * np.finfo(float).eps * np.abs(current[active]))
        for _ in range(60):
            if search.size == 0:
                break
            value = _loglik_rows(
                ma[search] + scale[search, None] * direction[search],
                ii, jj, a1[search], a2[search], model,
            )
            ascended = value >= current[active[search]]
            current[active[search[ascended]]] = value[ascended]
            search = search[~ascended]
            scale[search] *= 0.5
        m[active] = ma + scale[:, None] * direction
        active = active[~(np.max(np.abs(direction), axis=1) < tol)]
        if active.size == 0:
            break
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
    Real-valued amounts are fine; only ratios matter.
    """
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
    m = ExpectedValueVector(m_rows[0])
    return MleResult(m, log_likelihood(data, m, model), steps, True)


# ---------------------------------------------------------------------------
# Logarithmic least squares


def llsm(pcm: IPCM) -> WeightVector:
    """Weights minimizing sum over known pairs of
    (ln a_ij - ln(w_i / w_j))^2, via the graph-Laplacian normal equations
    with the first log-weight grounded at 0.  Unique when the representing
    graph is connected."""
    graph = pcm.representing_graph()
    if not graph.is_connected():
        raise DisconnectedGraph("logarithmic least squares needs a connected graph")
    n = pcm.n
    if n == 1:
        return WeightVector(np.ones(1))
    pairs = pcm.known_pairs()
    ii = np.array([p[0] for p in pairs], dtype=np.intp)
    jj = np.array([p[1] for p in pairs], dtype=np.intp)
    log_ratio = np.array([[math.log(pcm.entries[p]) for p in pairs]])
    laplacian = _laplacian_rows(np.ones_like(log_ratio), ii, jj, n)[0]
    rhs = _incidence_sums(log_ratio, -log_ratio, ii, jj, n)[0]
    y = np.zeros(n)
    y[1:] = np.linalg.solve(laplacian[1:, 1:], rhs[1:])
    return WeightVector.normalized(np.exp(y - y.max()))


# ---------------------------------------------------------------------------
# Eigenvector method


def _principal_eigenpair(matrix: np.ndarray, tol: float, max_iter: int):
    """Perron eigenpair of a positive matrix by power iteration from the
    all-ones vector; the eigenvector is normalized to sum 1.  The residual
    test is relative to the iterate's magnitude so matrices with large
    entries converge at the same precision."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = matrix @ x
        lam = float(x @ y / (x @ x))
        x = y / y.sum()
        z = matrix @ x
        if np.max(np.abs(z - lam * x)) <= tol * max(1.0, float(np.max(np.abs(z)))):
            return lam, x
    raise NoConvergence("power iteration did not reach its residual tolerance", max_iter)


def _complete_lambda_min(pcm: IPCM, eig_tol, completion_tol, max_iter):
    """Fill the missing entries of a partial matrix by minimizing the
    principal eigenvalue, parametrizing entry (i, j) as exp(t) and (j, i) as
    exp(-t).  Cyclic coordinate descent; each coordinate is minimized by
    Brent's method.  The optimum is unique for connected graphs."""
    base = pcm.as_array(missing=1.0)
    known = set(pcm.known_pairs())
    missing = [
        (i, j) for i in range(pcm.n) for j in range(i + 1, pcm.n) if (i, j) not in known
    ]
    # Start from the least-squares completion: already optimal when the known
    # part is consistent, and a good neighborhood otherwise.
    log_w = np.log(llsm(pcm).values)
    t = np.array([log_w[i] - log_w[j] for i, j in missing])

    def completed(tv):
        a = base.copy()
        for s, (i, j) in enumerate(missing):
            a[i, j] = math.exp(tv[s])
            a[j, i] = math.exp(-tv[s])
        return a

    def lam_at(tv):
        return _principal_eigenpair(completed(tv), eig_tol, max_iter)[0]

    previous = lam_at(t)
    for _ in range(max_iter):
        for s in range(len(missing)):
            def objective(ts, s=s):
                trial = t.copy()
                trial[s] = ts
                return lam_at(trial)

            t[s] = minimize_scalar(
                objective, bracket=(t[s] - 1.0, t[s] + 1.0), options={"xtol": 1e-10}
            ).x
        current = lam_at(t)
        if previous - current < completion_tol:
            return completed(t)
        previous = current
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
    its eigenvalue-minimal completion.
    """
    if not pcm.representing_graph().is_connected():
        raise DisconnectedGraph("eigenvector method needs a connected graph")
    if pcm.n == 1:
        return EmResult(WeightVector(np.ones(1)), 1.0)
    if pcm.is_complete:
        matrix = pcm.as_array()
    else:
        matrix = _complete_lambda_min(pcm, eig_tol, completion_tol, max_iter)
    lam, vec = _principal_eigenpair(matrix, eig_tol, max_iter)
    return EmResult(WeightVector.normalized(vec), lam)
