"""Poisson likelihood, rank-model MLE, AIC, and minimum-AIC selection.

Counts at the 16 projector settings are independent Poisson variables
with means M_nu = Tr[P_nu T T*], which the fits, like the Fisher
information, read from `projectors.means_and_derivatives`.  One kernel,
`_poisson`, computes the log-likelihood, with the full ln(n!)
normalization so that absolute AIC values are comparable across
analyses.  It clamps the means at MEAN_CLAMP before the logarithm: a
rank-deficient model that assigns zero mean to a nonzero count then
scores astronomically badly instead of crashing, and AIC disposes of
it naturally.

The counts determine the unnormalized linear inversion X_n, whose
means Tr[P_nu X_n] are the counts themselves; `_invert` builds it from
`projectors._solve_counts`, with its Cholesky factor, for a stack of
count tables at once, and `_Inversion` is one table's, shared by
`maice`'s four fits.  Where X_n is positive definite it is a rank-4
model with M = n, the saturated fit, which no model exceeds: the
rank-4 fit is then X_n's Cholesky factor, with 0 iterations, read off
a stack of factors by `_saturated_fits`, `mle`'s on a stack of one.  A
sweep (`_closed_form_step`) draws all its trials' counts first and
decides and fits the whole stack: it asks, from each trial's counts
alone, whether a bound on ranks 1-3 proves that the saturated fit wins
the AIC, fits the members it proves in closed form, and leaves every
other member to its own `maice` fit.  Every step on a stack works
member by member, a LAPACK gufunc (see `_lapack`) or one matrix-vector
product per row, so a member's fit has the bits of its fit alone; that
includes the closing score (`_fit_results`) and the saturated
log-likelihood.

Every other fit starts from the inversion clipped to the PSD cone,
diagonalized once per table, each rank truncating that
eigendecomposition, and from `warm`, in `maice` the fit of the rank
below.  Ranks 1-3 also start from jittered copies of the inversion; at
rank 4 they cannot change the fit (see `_starts`).

Ranks 2-4 use damped Newton on the analytic Hessian (Levenberg-Marquardt
damping, More 1978): it takes a fraction of BFGS's time, and from the
same starts it almost always ends at the optimum BFGS ends at.  Rank 1
runs BFGS from `_bfgs`, an in-package port of scipy's BFGS: the rank-1
landscape has many optima, Newton ends at a different one from many of
the starts, and that moves the published rank-1 AIC.  The port follows
scipy bit for bit wherever its More-Thuente line search succeeds.
scipy's fallback line search is left out: where it would rescue a step,
the fit's log-likelihood moves only at round-off, and no selected rank
or `converged` flag depends on it.  The package needs numpy only.

Each Newton trial step tests the damped Hessian for definiteness by
Cholesky (`dpotrf`) and solves for the step by LU (`dgesv`), through
`_lapack`'s gufuncs `cholesky_lo` and `solve1`.  Solving with the
Cholesky factor would change the step's last bits, and with them the
optima the fits reach; numpy has no triangular-solve gufunc for it.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._bfgs import minimize
from ._lapack import cholesky_lo, eigh, eigvalsh, solve1, svdvals
from .exceptions import InvariantViolation
# linear_tomography stays importable here because perfbench's tracing
# patches it; the fits solve for the inversion with `_solve_counts`
from .projectors import (MEAN_CLAMP, _check_count_vector, _solve_counts,
                         check_counts,
                         linear_tomography,  # noqa: F401
                         mean_counts, means_and_derivatives)
from .states import (
    CholeskyModel,
    RANK_NPARAMS,
    T_BASIS,
    _cholesky_densities,
    _cholesky_from_eigh,
    _density_eigh,
    _pauli_densities,
    density_from_cholesky,
    density_from_pauli,
)

# per unit of total count: how far the rank 1-3 likelihood bound must
# trail a rank-4 fit before `_rank4_wins` lets the fit stand for MAICE's
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
# what an iterating fit ignores: the invalid flag of a failed Cholesky
# test, and the overflow of the means at a start as large as 1e160,
# whose NaN objective no step lowers, so the start loses
_FIT_ERRSTATE = {"invalid": "ignore", "over": "ignore"}


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
    # summed over starts: BFGS at rank 1, else Newton; 0 for the
    # closed-form saturated fit of a positive definite inversion
    iterations: int


def aic(log_likelihood, rank):
    """-2 logL + 2k with k the parameter count of the rank model."""
    if rank not in RANK_NPARAMS:
        raise InvariantViolation("rank must be one of 1, 2, 3, 4")
    return -2.0 * float(log_likelihood) + 2.0 * RANK_NPARAMS[rank]


def log_likelihood(model, counts, pset):
    """Poisson log-likelihood sum_nu [-M + n ln M - ln n!]; `counts` may
    also be expected counts."""
    n = _check_count_vector(counts)
    return -float(_poisson(n, mean_counts(model, pset), _log_factorials(n))[0])


def _log_factorials(n):
    """sum_nu ln(n_nu!)."""
    return math.fsum(math.lgamma(v + 1.0) for v in n.tolist())


def log_likelihood_gradient(model, counts, pset):
    """Closed-form score sum_nu (n/M - 1) dM/dtheta, the fits' gradient
    negated; their lgamma, 0 here, shifts only the objective."""
    n = _check_count_vector(counts)
    return -_negloglik_and_grad(model.params, n, pset, 0.0)[1]


def _poisson(n, m, lgamma):
    """(lgamma - sum_nu (n ln M - M), M): the negative log-likelihood of
    counts n, lgamma = sum ln(n!), at the means M = max(m, MEAN_CLAMP);
    n and m may also be (m, 16) stacks, with lgamma one value per row."""
    m = np.maximum(m, MEAN_CLAMP)
    return lgamma - (n * np.log(m) - m).sum(axis=-1), m


def _negloglik(theta, n, pset, lgamma):
    """(f, M, dM): the negative log-likelihood of the counts n at the
    rank model theta, and its `means_and_derivatives` on the set pset,
    the means M clamped at MEAN_CLAMP."""
    m, dm = means_and_derivatives(theta, pset)
    return (*_poisson(n, m, lgamma), dm)


def _negloglik_and_grad(theta, n, pset, lgamma):
    f, m, dm = _negloglik(theta, n, pset, lgamma)
    return f, (1.0 - n / m) @ dm


def _cholesky(a):
    """The Cholesky factor L, a = L L*, that LAPACK's `potrf` reads off
    the lower triangle of `a`, or None if `a` is not positive definite.
    numpy's `cholesky_lo` fills a failed factor with NaN and raises the
    invalid flag, so call this under np.errstate(invalid="ignore")."""
    t = cholesky_lo(a)
    return None if math.isnan(t.real.item(0)) else t


def _newton(theta, n, pset, lgamma):
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

    The shift is added to H's diagonal in place.  `_cholesky` tests
    definiteness and `solve1` solves for the step, under `_FIT_ERRSTATE`.
    """
    k = len(theta)
    q2 = 2.0 * pset.q[k].reshape(16, k * k)
    with np.errstate(**_FIT_ERRSTATE):
        f, m, dm = _negloglik(theta, n, pset, lgamma)
        mu = _NEWTON_MU0
        iterations = 0
        while iterations < _NEWTON_MAXITER:
            r = n / m
            w = 1.0 - r
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
                    definite = _cholesky(a) is not None
                if definite:
                    trial = theta - solve1(a, g)
                    f_trial, m_trial, dm_trial = _negloglik(trial, n, pset,
                                                            lgamma)
                    if f_trial < f:
                        break
                    if f_trial == f:
                        return theta, f, iterations
                mu *= 4.0
                if mu > _NEWTON_MU_MAX:
                    return theta, f, iterations
            theta, f, m, dm = trial, f_trial, m_trial, dm_trial
            mu = max(mu / 3.0, _NEWTON_MU_MIN)
            iterations += 1
    return theta, f, iterations


def _invert(ns, pset):
    """(x, X_n, L, ok) for the (m, 16) stack ns of count vectors: the
    rows x of `_solve_counts`, the inversions X_n and their Cholesky
    factors L, X_n = L L*, each an (m, ...) stack, and the boolean mask
    ok of the members whose 16 counts are positive and whose X_n is
    positive definite.  `cholesky_lo` fills a failed member's factor
    with NaN, which is how ok reads it.  x, X_n and L are None for an
    incomplete set, and ok is all False."""
    x = _solve_counts(ns, pset)
    if x is None:
        return None, None, None, np.zeros(len(ns), dtype=bool)
    xn = _pauli_densities(x)
    with np.errstate(invalid="ignore"):
        factors = cholesky_lo(xn)
    ok = (ns.min(axis=1) > 0.0) & ~np.isnan(factors[:, 0, 0].real)
    return x, xn, factors, ok


class _Inversion:
    """What one count table's fits share: the counts n (floats), lgamma
    = sum ln(n!), x = `_solve_counts` of n and X_n (xn), both None for
    an incomplete set, and `factor`, all from `_invert` on a stack of
    one.  `factor` is X_n's Cholesky factor L, X_n = L L*, or None
    unless the set is complete, all 16 counts are positive and X_n is
    positive definite: L is then a rank-4 model with M = n, the
    saturated fit, above every other model, with a real positive
    diagonal, the canonical gauge.  `clipped` is built on first use, as
    the closed form takes no start."""

    def __init__(self, n, pset):
        self.n = n
        self.lgamma = _log_factorials(n)
        x, xn, factors, ok = _invert(n[None], pset)
        self.x, self.xn = (None, None) if x is None else (x[0], xn[0])
        self.factor = factors[0] if ok[0] else None

    @functools.cached_property
    def clipped(self):
        """The inversion clipped to the PSD cone, as (w, v, lambda): the
        eigenvalues and eigenvectors of its density matrix, and the
        count scale.  Every rank's first start truncates it."""
        x = self.x
        if x is not None and x[0] > 0.0:
            lam = float(x[0])
            rho = density_from_pauli(x / x[0])
        else:
            lam = max(float(self.n.sum()) / 4.0, 1.0)
            rho = np.eye(4, dtype=complex) / 4.0
        rho = 0.5 * (rho + rho.conj().T)
        w, v = eigh(rho)
        w = np.clip(w, 1e-6, None)
        rho = (v * w) @ v.conj().T
        rho /= np.trace(rho).real
        _, w, v = _density_eigh(rho)
        return w, v, lam


def _padded_warm(warm, rank):
    """`warm` zero-padded to the rank's parameter count, or None; a warm
    start longer than that or not finite raises InvariantViolation."""
    if warm is None:
        return None
    k = RANK_NPARAMS[rank]
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
    return padded


def _starts(inv, rank, warm, restarts):
    """The PSD-clipped linear inversion of the `_Inversion` inv, `warm`
    (None or already `_padded_warm`), then, at ranks 1-3, `restarts`
    jittered copies of the inversion.  The jitter is fixed per rank.

    Rank 4 needs no jitter.  The log-likelihood is concave in X = T T*,
    and near a full-rank T the map from theta to X is invertible, so a
    stationary point of full rank is the global MLE.  A rank-deficient
    end point is global iff the KKT conditions hold,
    G = sum_nu (n/M - 1) P_nu <= 0 and G T = 0; a test checks them on
    the rank-4 fit of every vector of the test corpus.  Where the
    inversion is positive definite, `mle` needs no start at rank 4: the
    fit is the closed form `inv.factor`."""
    k, n = RANK_NPARAMS[rank], inv.n
    theta0 = _cholesky_from_eigh(*inv.clipped, rank).params

    starts = [theta0]
    if warm is not None:
        starts.append(warm)
    jittered = restarts if rank < 4 else 0
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

    At rank 4, when the set is complete, all 16 counts are positive and
    the unnormalized linear inversion is positive definite, the fit is
    the saturated MLE M = n in closed form (`_Inversion.factor`), with 0
    iterations.  Otherwise it fits from the PSD-clipped linear
    inversion, then from `warm` (zero-padded to the rank's parameter
    count), then, at ranks 1-3, from `restarts` jittered copies of the
    linear inversion; the best end point wins.  `restarts` does nothing
    at rank 4 (see `_starts`).  Rank 1 runs the in-package port of
    scipy's BFGS on the analytic score, ranks 2-4 damped Newton on the
    analytic Hessian (see the module docstring for why the ranks
    differ).  The jitter generator is fixed per rank, so the fit is a
    function of (counts, warm, restarts) alone.  `counts` may also be
    expected counts, as for a noiseless fit; all-zero counts and a
    non-finite `warm` raise InvariantViolation, as do a `rank` other
    than an integer from 1 to 4 and a `restarts` other than a
    non-negative integer.  `converged` reports whether the score
    vanishes at the result, for the closed form too; `iterations` sums
    the solver's iterations over the starts.
    `_inversion` is the counts' `_Inversion`, built here when None;
    `maice` shares one among its fits.
    """
    if not _is_integer(rank) or rank not in RANK_NPARAMS:
        raise InvariantViolation(
            f"rank must be an integer from 1 to 4, got {rank!r}")
    _check_restarts(restarts)
    n = _check_count_vector(counts)
    if not n.any():
        raise InvariantViolation(
            "all 16 counts are zero; they determine no state")
    # checked before the closed form, which takes no start
    warm = _padded_warm(warm, rank)
    inv = _Inversion(n, pset) if _inversion is None else _inversion
    lgamma = inv.lgamma
    if rank == 4 and inv.factor is not None:
        return _saturated_fits(inv.factor[None], n[None], [lgamma], pset)[0]
    total_iter = 0
    best_theta, best_f = None, None
    for x0 in _starts(inv, rank, warm, restarts):
        if rank == 1:
            with np.errstate(**_FIT_ERRSTATE):
                res = minimize(_negloglik_and_grad, x0, args=(n, pset, lgamma),
                               gtol=1e-7, maxiter=2000)
            end, f, nit = res.x, res.fun, res.nit
        else:
            end, f, nit = _newton(x0, n, pset, lgamma)
        total_iter += int(nit)
        if best_theta is None or f < best_f:
            best_theta, best_f = end, f
    model = CholeskyModel(rank=rank, params=_canonical_gauge(best_theta, rank))
    return _fit_results(rank, model.params[None],
                        density_from_cholesky(model)[None], n[None], pset,
                        [lgamma], total_iter)[0]


def _fit_results(rank, thetas, rhos, ns, pset, lgammas, iterations):
    """The EstimationResult of each rank fit in the rows of thetas, with
    state rhos[i], to the counts ns[i] (sum ln(n!) in lgammas[i]) on the
    set pset, each with `iterations`; `converged` reports whether the
    score vanishes at theta.  The score is `_negloglik_and_grad`'s, run
    on the stack one matrix-vector product per row, so that each
    member has the bits of its score alone."""
    k = thetas.shape[1]
    qt = (pset.q[k] @ thetas[:, :, None]).reshape(len(thetas), 16, k)
    fs, m = _poisson(ns, (qt @ thetas[:, :, None])[:, :, 0],
                     np.array(lgammas))
    gs = ((1.0 - ns / m)[:, None, :] @ (2.0 * qt))[:, 0]
    scales = (thetas[:, None, :] @ thetas[:, :, None])[:, 0, 0]
    results = []
    for theta, rho, f, g, scale in zip(thetas, rhos, fs.tolist(),
                                       gs.tolist(), scales.tolist()):
        ll = -f
        results.append(EstimationResult(
            rank=rank,
            theta_hat=theta,
            log_likelihood=ll,
            aic=aic(ll, rank),
            rho_hat=rho,
            lambda_hat=scale,
            converged=max(map(abs, g)) <= 1e-6 * max(1.0, abs(ll)),
            iterations=iterations,
        ))
    return results


def _saturated_fits(factors, ns, lgammas, pset):
    """The closed-form rank-4 fits of the count vectors in the rows of
    ns, from the (m, 4, 4) stack of their inversions' Cholesky factors
    L, each positive definite: theta read off L, the states of the
    stack, and each member's closing score, with 0 iterations."""
    thetas = np.real(np.einsum("iab,mab->mi", T_BASIS.conj(), factors))
    return _fit_results(4, thetas, _cholesky_densities(thetas), ns, pset,
                        lgammas, 0)


def _canonical_gauge(theta, rank):
    """A copy of theta with each column of T whose diagonal entry (the
    column's first parameter; columns start at offsets 0, 7, 12, 15) is
    negative negated; Q is block-diagonal by column, so no mean moves."""
    theta = np.array(theta, dtype=float)
    starts = (0, *RANK_NPARAMS.values())
    for lo, hi in zip(starts[:rank], starts[1:]):
        if theta[lo] < 0:
            theta[lo:hi] = -theta[lo:hi]
    return theta


# bool is an Integral, so without the bool test True would pass as the
# number 1 and False as 0
def _is_integer(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_restarts(restarts):
    if not _is_integer(restarts) or restarts < 0:
        raise InvariantViolation(
            f"restarts must be a non-negative integer, got {restarts!r}")


def maice(counts, pset, restarts=_N_RESTARTS):
    """Fit all four rank models to integer counts; pick the minimum-AIC
    one.

    Each rank is additionally warm-started from the best parameters of
    the rank below, which enforces the nested-model likelihood
    ordering.  The four fits share one `_Inversion` of the counts.  AIC
    ties resolve toward fewer parameters.  All-zero counts and a bad
    `restarts` raise InvariantViolation, as in `mle`.
    """
    _check_restarts(restarts)
    n = check_counts(counts)
    inv = _Inversion(n, pset)
    results = []
    warm = None
    for rank in (1, 2, 3, 4):
        r = mle(rank, n, pset, warm=warm, restarts=restarts,
                _inversion=inv)
        results.append(r)
        warm = r.theta_hat
    best = min(results, key=lambda r: (r.aic, RANK_NPARAMS[r.rank]))
    return best, tuple(results)


def _lower_rank_bounds(inv, pset):
    """`_rank_bounds` of the counts of the `_Inversion` inv, or None
    unless `inv.factor` exists: the set is complete, all 16 counts are
    positive and X_n is positive definite."""
    if inv.factor is None:
        return None
    return _rank_bounds(inv.n[None], inv.xn[None], [inv.lgamma], pset)[0]


def _rank_bounds(ns, xns, lgammas, pset):
    """(ll_sat, n_min, n_total, (a_1, a_2, a_3)) for each count vector
    n in the rows of ns, with X_n in xns and sum ln(n!) in lgammas,
    ll_sat the saturated log-likelihood (every mean equal to its
    count): every rank-r model, r = 1, 2, 3, falls short of ll_sat by
    at least L(a_r) = max_c min(n_min h(c), a_r / c).  The set must be
    complete, and every member's 16 counts positive; the bar of
    `_rank4_wins` needs X_n positive definite too.

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
      (Eckart-Young).  The loss is then at least a_r / c with
      a_r = 2 s^2 d_r^2.
    Every rank-r model, r <= 4, therefore loses at least L(a_r), and so
    does every rank-r fit, whether or not it reached the rank's maximum.
    Where X_n is positive definite every mu_i > 0 and
    d_r^2 = sum_{i>r} mu_i^2.  Elsewhere mu_4 <= 0, so
    d_3^2 = sum_{i<=3} min(mu_i, 0)^2 + mu_4^2 = d_4^2: every rank-4
    model of log-likelihood ll4 loses L(a_3), so none clears the rank-3
    bar L(a_3) > ll_sat - ll4 + 1 + margin that `_rank4_wins` asks at
    ll4 = ll_sat.
    """
    mus = eigvalsh(xns)[:, ::-1].tolist()
    ss = svdvals(pset.b / np.sqrt(ns)[:, :, None])[:, -1].tolist()
    ll_sats = (-_poisson(ns, ns, np.array(lgammas))[0]).tolist()
    bounds = []
    for ll_sat, n_min, n_total, mu, s in zip(
            ll_sats, ns.min(axis=1).tolist(), ns.sum(axis=1).tolist(), mus,
            ss):
        a = tuple(2.0 * s * s * sum(m * m for m in mu[r:]) for r in (1, 2, 3))
        bounds.append((ll_sat, n_min, n_total, a))
    return bounds


def _loss_exceeds(n_min, a, loss):
    """Whether max over c > 1 of min(n_min h(c), a / c) exceeds
    loss > 0, with h(c) = c - 1 - ln c.  a / c > loss holds exactly for
    c < a / loss, and h increases above 1, so some c > 1 has both terms
    above loss exactly when c = a / loss > 1 and n_min h(c) > loss."""
    c = a / loss
    return c > 1.0 and n_min * (c - 1.0 - math.log(c)) > loss


def _rank4_wins(bounds):
    """Whether one member's `bounds` from `_rank_bounds` prove that the
    saturated fit, the closed-form rank-4 fit, has a lower AIC than every
    rank 1-3 model: each rank-r model must fall short of ll_sat by more
    than k_4 - k_r plus _BOUND_MARGIN per count, which covers the closed
    form's round-off below ll_sat and leaves no tie to fewer
    parameters."""
    _, n_min, n_total, a = bounds
    margin = _BOUND_MARGIN * (1.0 + n_total)
    k4 = RANK_NPARAMS[4]
    return all(_loss_exceeds(n_min, a_r, k4 - RANK_NPARAMS[r] + margin)
               for r, a_r in zip((1, 2, 3), a))


def _closed_form_step(ns, pset, prune):
    """The closed-form rank-4 step of a sweep, on the (m, 16) stack ns of
    count vectors: for each member its `_saturated_fits` result, or None
    where the member needs a fit that iterates.  The linear algebra runs
    once on the stack, the scalar bound and closing score per member.
    Where X_n is positive definite the result is `mle(4, n, pset)`;
    with `prune` it must also pass `_rank4_wins`, and is then
    `maice(n, pset, restarts)`'s pick, for any restarts.  Where X_n is
    not positive definite no rank-4 fit could pass (see `_rank_bounds`).
    """
    results = [None] * len(ns)
    _, xns, factors, ok = _invert(ns, pset)
    idx = np.flatnonzero(ok)
    lgammas = [_log_factorials(n) for n in ns[idx]]
    if prune and idx.size:
        wins = [_rank4_wins(b)
                for b in _rank_bounds(ns[idx], xns[idx], lgammas, pset)]
        idx = idx[wins]
        lgammas = [lg for lg, w in zip(lgammas, wins) if w]
    if idx.size:
        fits = _saturated_fits(factors[idx], ns[idx], lgammas, pset)
        for i, res in zip(idx.tolist(), fits):
            results[i] = res
    return results
