"""Fisher information, SLD operators, and the asymptotic Bures bound.

Under the Poisson count model the classical Fisher matrix has the
closed form J_ij = sum_nu (1/M_nu) dM_i dM_j, so the analytic routine
is exact and the Monte Carlo average of score outer products exists as
a cross-check.

The asymptotic bound on infidelity is 1 - F >= C/lambda with
C = (1/8) Tr[J_SLD pinv(Jbar)], Jbar the Fisher matrix per unit of
acquisition scale.  C is invariant under linear reparametrization and
under rescaling theta to a different lambda at fixed state shape.
pinv(Jbar) and the SLD solve each have their own cutoff (see sld).
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import pinv

from ._lapack import eigh, eigvalsh
from .exceptions import (
    InconsistentDirectionError,
    InvariantViolation,
    UnboundedInformationError,
)
from .projectors import MEAN_CLAMP, means_and_derivatives
from .states import T_BASIS, density_from_cholesky, triangular

_SYM_TOL = 1e-10
_PSD_FLOOR = 1e-8
# Singular values of Jbar below _PINV_RCOND * s_max count as zero.
_PINV_RCOND = 1e-10
# SLD pairs with p_i + p_j <= _SLD_CUTOFF * max(p_i + p_j) count as zero.
_SLD_CUTOFF = 1e-14


def _check_info_matrix(entries, what):
    entries = np.asarray(entries, dtype=float)
    mags = np.abs(entries)
    # np.allclose(entries, entries.T, rtol=1e-5, atol) for finite entries;
    # NaN or inf fails
    atol = _SYM_TOL * max(1.0, mags.max())
    if not (np.abs(entries - entries.T) <= atol + 1e-5 * mags.T).all():
        raise InconsistentDirectionError(f"{what} must be symmetric")
    # ascending, so the largest magnitude is at one end
    w = eigvalsh(0.5 * (entries + entries.T)).tolist()
    norm = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -_PSD_FLOOR * norm:
        raise InconsistentDirectionError(
            f"{what} has negative eigenvalue {w[0]:.3e}")
    return entries


@dataclass(frozen=True)
class FisherMatrix:
    entries: np.ndarray
    rank_model: int
    at_theta: np.ndarray
    acquisition_scale: float

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           _check_info_matrix(self.entries, "Fisher matrix"))


@dataclass(frozen=True)
class SldFisherMatrix:
    entries: np.ndarray
    rank_model: int
    at_theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "entries",
            _check_info_matrix(self.entries, "SLD Fisher matrix"))


@dataclass(frozen=True)
class BoundReport:
    coefficient: float
    rank_model: int
    set_name: str
    theta: np.ndarray


def density_gradient(model):
    """The k Hermitian traceless matrices d(rho)/d(theta_i), stacked."""
    return _density_gradient(model, density_from_cholesky(model))


def _density_gradient(model, rho):
    """`density_gradient` of the model, whose state rho the caller has."""
    t4 = triangular(model)
    lam = model.lambda_scale
    E = T_BASIS[:model.nparams]
    dw = np.einsum('iab,cb->iac', E, t4.conj())     # E_i T*
    dw = dw + np.transpose(dw.conj(), (0, 2, 1))    # + T E_i*
    dtr = np.real(np.trace(dw, axis1=1, axis2=2))
    grads = dw / lam - rho[None, :, :] * (dtr / lam)[:, None, None]
    return 0.5 * (grads + np.transpose(grads.conj(), (0, 2, 1)))


def fisher_analytic(model, pset):
    """Exact Poisson Fisher matrix J_ij = sum (1/M) dM_i dM_j, the means
    M at the model's own scale."""
    return FisherMatrix(entries=_fisher_entries(model, pset),
                        rank_model=model.rank, at_theta=model.params.copy(),
                        acquisition_scale=model.lambda_scale)


def _fisher_entries(model, pset):
    """`fisher_analytic`'s entries, not yet checked."""
    m, dm = means_and_derivatives(model.params, pset)
    scale = max(model.lambda_scale, 1.0)
    alive = m > 1e-9 * scale
    if not alive.all():
        if np.abs(dm[~alive]).max() > 1e-9 * scale:
            raise UnboundedInformationError(
                "a measurement mean vanishes while its derivative does not; "
                "the Fisher information diverges in that direction")
        m, dm = m[alive], dm[alive]
    entries = np.einsum('ni,n,nj->ij', dm, 1.0 / m, dm)
    return 0.5 * (entries + entries.T)


def fisher_mc(model, pset, n_samples, seed=0):
    """Average of score outer products over Poisson count vectors."""
    n_samples = int(n_samples)
    if n_samples < 100:
        raise InvariantViolation("n_samples must be at least 100")
    m, dm = means_and_derivatives(model.params, pset)
    m = np.maximum(m, MEAN_CLAMP)
    rng = np.random.default_rng(seed)
    draws = rng.poisson(m, size=(n_samples, 16)).astype(float)
    scores = (draws / m - 1.0) @ dm                 # (S, k)
    entries = scores.T @ scores / n_samples
    entries = 0.5 * (entries + entries.T)
    return FisherMatrix(entries=entries, rank_model=model.rank,
                        at_theta=model.params.copy(),
                        acquisition_scale=model.lambda_scale)


def sld(rho, drho):
    """Symmetric logarithmic derivative: solve drho = (L rho + rho L)/2.

    In the eigenbasis rho = sum_i p_i |i><i| the solution is
    L_ij = 2 drho_ij / (p_i + p_j) (Braunstein & Caves, PRL 72, 3439,
    1994).  Entries with p_i + p_j <= _SLD_CUTOFF * max(p_i + p_j) are
    set to zero: (p_i + p_j)/2 are the singular values of the map
    X -> (X rho + rho X)/2, so this is its Moore-Penrose solution, the
    minimum-norm Hermitian L.  `drho` may be one 4x4 direction or a
    (k, 4, 4) stack of them, solved with one eigendecomposition of rho.

    The cutoff sits at round-off, far below pinv's 1e-10 for Jbar: a
    full-rank rho can have a true eigenvalue at 1e-11 of the largest, and
    zeroing it would drop a direction rho supports.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    p, u = eigh(rho)
    s = p[:, None] + p[None, :]
    keep = s > _SLD_CUTOFF * s.max()
    d = u.conj().T @ drho @ u
    d = np.divide(2.0 * d, s, out=np.zeros_like(d), where=keep)
    L = u @ d @ u.conj().T
    L = 0.5 * (L + np.swapaxes(L.conj(), -1, -2))
    resid = np.linalg.norm(0.5 * (L @ rho + rho @ L) - drho, axis=(-2, -1))
    bad = resid > 1e-8 * np.maximum(1.0, np.linalg.norm(drho, axis=(-2, -1)))
    if np.any(bad):
        raise InconsistentDirectionError(
            "direction lies outside the SLD range "
            f"(residual {np.max(resid[bad]):.3e})")
    return L


def sld_fisher(model):
    """Quantum information matrix (1/2) Tr[rho (L_i L_j + L_j L_i)].

    For Hermitian rho and L that is Re Tr[rho L_i L_j].
    """
    return SldFisherMatrix(entries=_sld_entries(model),
                           rank_model=model.rank,
                           at_theta=model.params.copy())


def _sld_entries(model):
    """`sld_fisher`'s entries, not yet checked; the model's state is
    built once, for its gradient and its SLDs."""
    rho = density_from_cholesky(model)
    L = sld(rho, _density_gradient(model, rho))
    entries = np.einsum('iab,jba->ij', rho @ L, L).real
    return 0.5 * (entries + entries.T)


def bound_coefficient(model, pset):
    """Asymptotic infidelity bound 1 - F >= C/lambda.

    C = (1/8) Tr[J_SLD pinv(Jbar)] with Jbar the Fisher matrix divided
    by the acquisition scale; pinv drops directions of Jbar below
    _PINV_RCOND of its largest singular value.  It runs the checks of
    `fisher_analytic` and `sld_fisher` on their entries without building
    their matrix objects.
    """
    jbar = _check_info_matrix(_fisher_entries(model, pset),
                              "Fisher matrix") / model.lambda_scale
    jsld = _check_info_matrix(_sld_entries(model), "SLD Fisher matrix")
    c = 0.125 * float(np.trace(jsld @ pinv(jbar, rcond=_PINV_RCOND)))
    if c <= 0:
        raise UnboundedInformationError(
            "bound coefficient must be positive")
    return BoundReport(coefficient=c, rank_model=model.rank,
                       set_name=pset.name, theta=model.params.copy())


def bures_quadratic_form(model, delta_theta):
    """Local Bures metric (1/4) dtheta' J_SLD dtheta."""
    d = np.asarray(delta_theta, dtype=float)
    j = sld_fisher(model).entries
    return 0.25 * float(d @ j @ d)
