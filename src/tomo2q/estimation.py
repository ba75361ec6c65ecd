"""Poisson likelihood, rank-model MLE, AIC, and minimum-AIC selection.

Counts at the 16 projector settings are independent Poisson variables
with means M_nu = Tr[P_nu T T*].  The log-likelihood keeps the full
ln(n!) normalization so that absolute AIC values are comparable across
analyses.  Means are clamped at 1e-12 before the logarithm: a
rank-deficient model that assigns zero mean to a nonzero count then
scores astronomically badly instead of crashing, and AIC disposes of
it naturally.

Every rank fit starts from the linear inversion and from `warm`, in
`maice` the fit of the rank below.  `maice` clips the inversion to the
PSD cone and diagonalizes it once; each rank truncates that
eigendecomposition to its first start.  Ranks 1-3 also start from
jittered copies of the inversion; at rank 4 they cannot change the fit
(see `_starts`).  Ranks 2-4 use damped Newton on the analytic Hessian
(Levenberg-Marquardt damping, More 1978): it takes a fraction of
BFGS's time, and from the same starts it almost always ends at the
optimum BFGS ends at.  Rank 1 runs
BFGS from `_bfgs`, an in-package port of scipy's BFGS: the rank-1
landscape has many optima, Newton ends at a different one from about a
quarter of the starts, and that moves the published rank-1 AIC.  The
port follows scipy bit for bit wherever its More-Thuente line search
succeeds.  scipy's fallback line search is left out; on 1,034 `maice`
tables that moved no per-rank log-likelihood by more than 5.8e-11 and
changed no selected rank or `converged` flag.  The package needs numpy
only.

Each Newton trial step runs two LAPACK routines: `dpotrf` (Cholesky)
tests whether the damped Hessian is positive definite, and `dgesv` (LU)
solves for the step.  Newton calls them through numpy's gufuncs
`cholesky_lo` and `solve1`, the routines behind `np.linalg.cholesky`
and `np.linalg.solve`, because those wrappers' per-call checks and
error-state setup took longer than the factorizations themselves.  Both
factorizations stay: solving with the Cholesky factor would change the
step's last bits, and with them the optima the fits reach.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, solve1

from ._bfgs import minimize
from .exceptions import InvariantViolation, TomographyError
from .projectors import (_check_count_vector, check_counts,
                         linear_tomography, mean_counts,
                         means_and_derivatives)
from .states import (
    CholeskyModel,
    RANK_NPARAMS,
    _cholesky_from_eigh,
    check_density,
    density_from_cholesky,
    density_from_pauli,
    params_from_triangular,
    triangular,
)

MEAN_CLAMP = 1e-12
# per unit of total count: how far the rank 1-3 likelihood bound must
# trail a rank-4 fit before `_rank4_bar` lets the fit stand for MAICE's
# pick; orders of magnitude above a log-likelihood's round-off and the
# effect of MEAN_CLAMP
_BOUND_MARGIN = 1e-6
_N_RESTARTS = 4
# damped Newton (ranks 2-4): initial, smallest and largest damping, the
# gradient tolerance relative to max(1, |logL|), and the iteration cap
_NEWTON_MU0 = 1e-3
_NEWTON_MU_MIN = 1e-12
_NEWTON_MU_MAX = 1e12
_NEWTON_GTOL = 1e-9
_NEWTON_MAXITER = 500


@dataclass(frozen=True)
class EstimationResult:
    """One rank-model fit: parameters, likelihood, AIC, and the state."""

    rank: int
    theta_hat: np.ndarray
    log_likelihood: float
    aic: float
    rho_hat: np.ndarray
    lambda_hat: float
    converged: bool
    iterations: int     # summed over starts: BFGS at rank 1, else Newton


def aic(log_likelihood, rank):
    """-2 logL + 2k with k the parameter count of the rank model."""
    if rank not in RANK_NPARAMS:
        raise InvariantViolation("rank must be one of 1, 2, 3, 4")
    return -2.0 * float(log_likelihood) + 2.0 * RANK_NPARAMS[rank]


def log_likelihood(model, counts, pset):
    """Poisson log-likelihood sum_nu [-M + n ln M - ln n!]; `counts` may
    also be expected counts."""
    n = _check_count_vector(counts)
    m = np.maximum(mean_counts(model, pset), MEAN_CLAMP)
    return float(np.sum(-m + n * np.log(m)) - _log_factorials(n))


def _log_factorials(n):
    """sum_nu ln(n_nu!)."""
    return math.fsum(math.lgamma(v + 1.0) for v in n.tolist())


def log_likelihood_gradient(model, counts, pset):
    """Closed-form score sum_nu (n/M - 1) dM/dtheta."""
    n = _check_count_vector(counts)
    m, dm = means_and_derivatives(model.params, pset)
    return (n / np.maximum(m, MEAN_CLAMP) - 1.0) @ dm


def _rank_q(pset, k):
    """The rank's quadratic forms as one contiguous (16 k, k) block, so
    that theta' Q_nu for every nu is one matrix-vector product."""
    return np.ascontiguousarray(pset.q[:, :k, :k]).reshape(16 * k, k)


def _negloglik(theta, n, q, lgamma):
    """Negative log-likelihood, the clamped means M and the rows
    theta' Q_nu (half of dM/dtheta), q from `_rank_q`."""
    qt = (q @ theta).reshape(16, len(theta))
    m = np.maximum(qt @ theta, MEAN_CLAMP)
    return lgamma - (n * np.log(m) - m).sum(), m, qt


def _negloglik_and_grad(theta, n, q, lgamma):
    f, m, qt = _negloglik(theta, n, q, lgamma)
    return f, (1.0 - n / m) @ (2.0 * qt)


def _positive_definite(a):
    """Whether LAPACK's `dpotrf` factors the symmetric matrix `a`, of
    which it reads the lower triangle.  numpy's `cholesky_lo` fills a
    failed factor with NaN and raises the invalid flag, so call this
    under np.errstate(invalid="ignore")."""
    return not math.isnan(cholesky_lo(a).item(0))


def _newton(theta, n, q, lgamma):
    """Levenberg-Marquardt-damped Newton on the analytic Hessian
    H = sum_nu [2(1 - n/M) Q_nu + (n/M^2) dM dM^T].

    The damping shift is mu * max(1, max|diag H|).  A trial step is kept
    if it lowers the objective, and mu shrinks by 3; otherwise (or when
    H + shift is not positive definite) mu grows by 4.  A trial that
    leaves the objective exactly unchanged ends the fit: the step is
    below the objective's round-off, and more damping only shortens it.
    A larger shift of a positive definite H + shift stays positive
    definite, so the Cholesky test runs only until one trial passes it.
    Returns (theta, f, iterations), f the negative log-likelihood and
    iterations the number of kept steps.

    The shift is added to H's diagonal in place.  LAPACK's `dpotrf`
    tests definiteness (`_positive_definite`) and `dgesv` solves for the
    step, both through numpy's gufuncs: `np.linalg.cholesky` and
    `np.linalg.solve` run the same routines, but their wrappers cost
    more than these 12-16 dimensional factorizations.  The fit runs
    under one errstate that ignores the invalid flag of a failed
    factorization.  The Cholesky factor is not reused to solve for the
    step, because that would change the step's last bits.
    """
    k = len(theta)
    q2 = 2.0 * q.reshape(16, k * k)
    with np.errstate(invalid="ignore"):
        f, m, qt = _negloglik(theta, n, q, lgamma)
        mu = _NEWTON_MU0
        iterations = 0
        while iterations < _NEWTON_MAXITER:
            r = n / m
            w = 1.0 - r
            dm = 2.0 * qt
            g = w @ dm
            if max(map(abs, g.tolist())) <= _NEWTON_GTOL * max(1.0, abs(f)):
                break
            a = (w @ q2).reshape(k, k) + (dm.T * (r / m)) @ dm
            h_diag = a.diagonal().copy()
            a_diag = a.reshape(k * k)[::k + 1]
            shift = max(1.0, *map(abs, h_diag.tolist()))
            definite = False
            while True:
                np.add(h_diag, mu * shift, out=a_diag)
                if not definite:
                    definite = _positive_definite(a)
                if definite:
                    trial = theta - solve1(a, g)
                    f_trial, m_trial, qt_trial = _negloglik(trial, n, q,
                                                            lgamma)
                    if f_trial < f:
                        break
                    if f_trial == f:
                        return theta, f, iterations
                mu *= 4.0
                if mu > _NEWTON_MU_MAX:
                    return theta, f, iterations
            theta, f, m, qt = trial, f_trial, m_trial, qt_trial
            mu = max(mu / 3.0, _NEWTON_MU_MIN)
            iterations += 1
    return theta, f, iterations


def _clipped_inversion(n, pset):
    """The linear inversion clipped to the PSD cone, as (w, v, lambda):
    the eigenvalues and eigenvectors of its density matrix, and the
    count scale.  Every rank's first start truncates it."""
    try:
        phi, lam = linear_tomography(n, pset)
        rho = density_from_pauli(phi)
    except TomographyError:
        lam = max(float(n.sum()) / 4.0, 1.0)
        rho = np.eye(4, dtype=complex) / 4.0
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 1e-6, None)
    rho = (v * w) @ v.conj().T
    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(check_density(rho))
    return w, v, lam


def _starts(n, pset, rank, warm, restarts, inversion=None):
    """The PSD-clipped linear inversion, `warm` zero-padded to the rank's
    parameter count, then, at ranks 1-3, `restarts` jittered copies of
    the inversion.  The jitter generator is fixed per rank.

    Rank 4 needs no jitter.  The log-likelihood is concave in X = T T*,
    and near a full-rank T the map from theta to X is invertible, so a
    stationary point of full rank is the global MLE.  A rank-deficient
    end point is global iff the KKT conditions hold,
    G = sum_nu (n/M - 1) P_nu <= 0 and G T = 0; a test checks them on
    the rank-4 fit of every vector of the test corpus.

    `inversion` is `_clipped_inversion(n, pset)`, computed here when it
    is None."""
    k = RANK_NPARAMS[rank]
    if inversion is None:
        inversion = _clipped_inversion(n, pset)
    theta0 = _cholesky_from_eigh(*inversion, rank).params

    starts = [theta0]
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.ndim != 1 or len(warm) > k:
            raise InvariantViolation(
                f"warm start must have at most {k} entries for rank {rank}")
        bad = np.flatnonzero(~np.isfinite(warm))
        if bad.size:
            i = int(bad[0])
            raise InvariantViolation(
                f"warm start must be finite; entry {i} is {float(warm[i])!r}")
        padded = np.zeros(k)
        padded[:len(warm)] = warm
        starts.append(padded)
    jittered = int(restarts) if rank < 4 else 0
    if jittered:
        scale = max(np.abs(theta0).max(), np.sqrt(max(n.sum(), 1.0) / 4.0))
        rng = np.random.default_rng([0, rank])
        for _ in range(jittered):
            starts.append(theta0 * (1.0 + 0.05 * rng.standard_normal(k))
                          + 0.02 * scale * rng.standard_normal(k))
    return starts


def mle(rank, counts, pset, warm=None, restarts=_N_RESTARTS, *,
        _inversion=None):
    """Maximum-likelihood fit of one rank model.

    Fits from the PSD-clipped linear inversion, then from `warm`
    (zero-padded to the rank's parameter count), then, at ranks 1-3,
    from `restarts` jittered copies of the linear inversion; the best
    end point wins.  `restarts` does nothing at rank 4 (see `_starts`).
    Rank 1 runs the in-package port of scipy's BFGS on the analytic
    score, ranks 2-4 damped Newton on the analytic Hessian (see the
    module docstring for why the ranks differ).  The jitter generator is
    fixed per rank, so the fit is a function of (counts, warm, restarts)
    alone.  `counts` may also be expected counts, as for a noiseless
    fit; all-zero counts and a non-finite `warm` raise
    InvariantViolation.  `converged` reports whether the score vanishes
    at the result; `iterations` sums the solver's iterations over the
    starts.
    `maice` passes its one `_clipped_inversion` of the counts as
    `_inversion`, so that its four fits share it.
    """
    n = _check_count_vector(counts)
    if not n.any():
        raise InvariantViolation(
            "all 16 counts are zero; they determine no state")
    lgamma = _log_factorials(n)
    q = _rank_q(pset, RANK_NPARAMS[rank])

    best_theta, best_f = None, None
    total_iter = 0
    for x0 in _starts(n, pset, rank, warm, restarts, _inversion):
        if rank == 1:
            res = minimize(_negloglik_and_grad, x0, args=(n, q, lgamma),
                           gtol=1e-7, maxiter=2000)
            x, f, nit = res.x, res.fun, res.nit
        else:
            x, f, nit = _newton(x0, n, q, lgamma)
        total_iter += int(nit)
        if best_theta is None or f < best_f:
            best_theta, best_f = x, f

    theta = np.asarray(best_theta, dtype=float)
    # gauge: make diagonal entries of T nonnegative by column sign flips
    theta = _canonical_gauge(theta, rank)
    model = CholeskyModel(rank=rank, params=theta)
    # log_likelihood and log_likelihood_gradient, from one evaluation
    m, dm = means_and_derivatives(theta, pset)
    m = np.maximum(m, MEAN_CLAMP)
    ll = float(np.sum(-m + n * np.log(m)) - lgamma)
    gnorm = float(np.max(np.abs((n / m - 1.0) @ dm)))
    converged = bool(gnorm <= 1e-6 * max(1.0, abs(ll)))
    return EstimationResult(
        rank=rank,
        theta_hat=theta,
        log_likelihood=ll,
        aic=aic(ll, rank),
        rho_hat=density_from_cholesky(model),
        lambda_hat=model.lambda_scale,
        converged=converged,
        iterations=total_iter,
    )


def _canonical_gauge(theta, rank):
    t4 = triangular(CholeskyModel(rank=rank, params=np.asarray(theta, float)))
    for j in range(rank):
        if t4[j, j].real < 0:
            t4[:, j] = -t4[:, j]
    return params_from_triangular(t4, rank)


def maice(counts, pset, restarts=_N_RESTARTS):
    """Fit all four rank models to integer counts; pick the minimum-AIC
    one.

    Each rank is additionally warm-started from the best parameters of
    the rank below, which enforces the nested-model likelihood
    ordering.  AIC ties resolve toward fewer parameters.  All-zero
    counts raise InvariantViolation, as in `mle`.
    """
    n = check_counts(counts)
    inversion = _clipped_inversion(n, pset)
    results = []
    warm = None
    for rank in (1, 2, 3, 4):
        r = mle(rank, n, pset, warm=warm, restarts=restarts,
                _inversion=inversion)
        results.append(r)
        warm = r.theta_hat
    best = min(results, key=lambda r: (r.aic, RANK_NPARAMS[r.rank]))
    return best, tuple(results)


def _lower_rank_bounds(n, pset):
    """Upper bounds on the rank-1, 2 and 3 log-likelihoods of the counts
    n, as (ll_sat, (ub_1, ub_2, ub_3)) with ll_sat the saturated
    log-likelihood (every mean equal to its count).  None unless the set
    is complete and all 16 counts are positive.

    Proof.  With h(x) = x - 1 - ln x >= 0, any means M lose
    ll_sat - ll(M) = sum_nu n_nu h(M_nu / n_nu).  Fix c > 1.
    - If some M_nu > c n_nu, h increasing above 1 gives a loss of at
      least n_min h(c).
    - Otherwise every x = M_nu / n_nu is at most c, where
      h(x) >= (x - 1)^2 / (2c): the difference vanishes with its
      derivative (x - 1)(1/x - 1/c) at x = 1, falls before 1 and rises
      after.  So the loss is at least sum (M - n)^2 / (2cn).  The means
      of X = sum_mu x_mu Gamma_mu are M = B x, and the counts are
      n = B x_n, so with s the smallest singular value of
      diag(n)^(-1/2) B, sum (M - n)^2 / n >= s^2 |x - x_n|^2
      = 4 s^2 |X - X_n|_F^2, as Tr[Gamma_mu Gamma_nu] = delta / 4.
      A rank-r model's X = T T* is PSD of rank at most r, so
      |X - X_n|_F >= d_r, the distance from the unnormalized inversion
      X_n to that set.  With X_n's eigenvalues mu_1 >= ... >= mu_4,
      d_r^2 = sum_{i<=r} min(mu_i, 0)^2 + sum_{i>r} mu_i^2: Mirsky's
      inequality bounds |X - X_n|_F^2 below by the distance between the
      sorted spectra, and the nearest spectrum of a PSD matrix of rank
      at most r keeps max(mu_i, 0) for i <= r and zeros the rest
      (Eckart-Young).  The loss is then at least 2 s^2 d_r^2 / c.
    Every rank-r model therefore loses at least
    max_c min(n_min h(c), 2 s^2 d_r^2 / c), and so does every rank-r
    fit, whether or not it reached the rank's maximum.
    """
    if not pset.complete or not n.min() > 0.0:
        return None
    ll_sat = float(np.sum(n * np.log(n) - n)) - _log_factorials(n)
    mu = np.linalg.eigvalsh(
        density_from_pauli(np.linalg.solve(pset.b, n))).tolist()[::-1]
    s = np.linalg.svd(pset.b / np.sqrt(n)[:, None], compute_uv=False)[-1]
    n_min = float(n.min())
    bounds = []
    for r in (1, 2, 3):
        d2 = (sum(min(m, 0.0) ** 2 for m in mu[:r])
              + sum(m * m for m in mu[r:]))
        bounds.append(ll_sat - _loss_bound(n_min, 2.0 * s * s * d2))
    return ll_sat, tuple(bounds)


def _loss_bound(n_min, a):
    """max over c > 1 of min(n_min h(c), a / c), to within 0.1% of c.
    The first term rises with c and the second falls, so bisection
    brackets their crossing; every c gives a valid lower bound."""
    def h(c):
        return c - 1.0 - math.log(c)
    lo, hi = 1.0, 2.0
    while n_min * h(hi) < a / hi:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-3 * lo:
        mid = 0.5 * (lo + hi)
        if n_min * h(mid) < a / mid:
            lo = mid
        else:
            hi = mid
    return max(n_min * h(lo), a / hi)


def _rank4_bar(counts, pset):
    """The rank-4 log-likelihood above which a rank-4 fit has a lower
    AIC than every rank 1-3 fit of `counts` can have, by the bounds of
    `_lower_rank_bounds`; None where no rank-4 fit can clear it, since
    none exceeds the saturated log-likelihood, or where the bounds do
    not apply (a zero count, an incomplete set).  The bar keeps a
    margin of _BOUND_MARGIN per count, so a rank-4 fit above it wins
    MAICE's comparison strictly, and ties to fewer parameters cannot
    arise."""
    n = np.asarray(counts, dtype=float)
    bounds = _lower_rank_bounds(n, pset)
    if bounds is None:
        return None
    ll_sat, upper = bounds
    k4 = RANK_NPARAMS[4]
    bar = (max(ub + (k4 - RANK_NPARAMS[r]) for r, ub in
               zip((1, 2, 3), upper))
           + _BOUND_MARGIN * (1.0 + float(n.sum())))
    return bar if bar < ll_sat else None
