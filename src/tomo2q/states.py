"""Two-qubit state representations and metrics.

Everything is expressed in the product basis |HH>, |HV>, |VH>, |VV> (first
qubit slowest). Three interchangeable parametrizations are provided:

* density matrix: 4x4 complex Hermitian PSD with unit trace,
* Pauli coefficients: 16 real numbers phi^mu against the normalized basis
  Gamma_{4i+j} = (sigma_i (x) sigma_j)/4,
* Cholesky parameters: a rank label k in {1,2,3,4} and 7/12/15/16 real
  numbers filling a lower-triangular T column by column, with
  rho = T T^dag / Tr[T T^dag]. The trace Tr[T T^dag] doubles as the total
  count scale lambda, so the parametrization carries the state and the
  Poisson nuisance parameter together.

The metrics run check_density, which tolerates eigenvalues down to
-PSD_CLIP_FLOOR as round-off, and clip those to zero where they use them.
A state that is checked and then decomposed is decomposed once:
`_density_eigh` runs the check on the eigenvalues of its `eigh`, and
cholesky_from_density, fidelity and a sweep's truth read that one
decomposition; psd_sqrt and the sweep take the square root from it by
the same `_sqrt_from_eigh`.

density_from_pauli, density_from_cholesky, check_density and fidelity
each run a private form that takes a stack of inputs, on a stack of
one; a sweep runs the same forms on the stack of all its trials.  They
work member by member, so a member's result has the bits of its result
alone.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import eigh, eigvalsh
from .exceptions import DegenerateModelError, InvariantViolation

SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# Gamma_{4i+j} = (sigma_i (x) sigma_j) / 4; Tr[Gamma_mu Gamma_nu] = delta/4.
_GAMMA = np.array([np.kron(SIGMA[i], SIGMA[j]) / 4.0
                   for i in range(4) for j in range(4)])
_GAMMA_ROWS = _GAMMA.reshape(16, 16)

# Eigenvalues in [-PSD_CLIP_FLOOR, 0) are round-off, clipped at the point
# of use; anything more negative fails check_density.
PSD_CLIP_FLOOR = 1e-10

# Number of real parameters for each rank model: the first k columns of T.
RANK_NPARAMS = {1: 7, 2: 12, 3: 15, 4: 16}


def _cholesky_basis():
    units = [(row, col, unit) for col in range(4) for row in range(col, 4)
             for unit in ((1.0,) if row == col else (1.0, 1j))]
    basis = np.zeros((16, 4, 4), dtype=complex)
    for i, (row, col, unit) in enumerate(units):
        basis[i, row, col] = unit
    basis.setflags(write=False)
    return basis


# T_BASIS[i] = dT/dtheta_i. T is filled column by column: a real diagonal
# entry, then a real/imaginary pair for each entry below it, so rank k
# uses the first RANK_NPARAMS[k] slots.
T_BASIS = _cholesky_basis()
_T_ROWS = T_BASIS.reshape(16, 16)


@dataclass(frozen=True)
class CholeskyModel:
    """Rank label plus the real parameter vector theta.

    rank 1/2/3/4 uses 7/12/15/16 parameters (the first `rank` columns of
    the triangular matrix). The all-zero vector is rejected: it encodes no
    state and Tr[T T^dag] = 0 would divide out.
    """

    rank: int
    params: np.ndarray

    def __post_init__(self):
        if self.rank not in RANK_NPARAMS:
            raise InvariantViolation(f"rank must be 1..4, got {self.rank}")
        p = np.asarray(self.params, dtype=float)
        if p.shape != (RANK_NPARAMS[self.rank],):
            raise InvariantViolation(
                f"rank {self.rank} takes {RANK_NPARAMS[self.rank]} "
                f"parameters, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvariantViolation("non-finite Cholesky parameters")
        if not np.any(p):
            raise DegenerateModelError("all-zero Cholesky parameter vector")
        object.__setattr__(self, "params", p)

    @property
    def nparams(self):
        return RANK_NPARAMS[self.rank]

    @property
    def lambda_scale(self):
        """Total count scale lambda = Tr[T T^dag] = |theta|^2."""
        return float(self.params @ self.params)


def triangular(model):
    """Assemble the 4x4 lower-triangular T = sum_i theta_i T_BASIS[i]."""
    return (model.params @ _T_ROWS[:model.nparams]).reshape(4, 4)


def params_from_triangular(t, rank):
    """Read the parameter vector back off a lower-triangular matrix."""
    basis = T_BASIS[:RANK_NPARAMS[rank]]
    return np.real(np.einsum("iab,ab->i", basis.conj(), t))


def pauli_basis():
    """The 16 matrices Gamma_{4i+j} = (sigma_i (x) sigma_j)/4, index 4i+j."""
    return _GAMMA.copy()


def check_density(rho):
    """Validate the density-matrix invariants, returning rho as ndarray.

    Finite entries; Hermiticity and unit trace to 1e-12; smallest
    eigenvalue >= -1e-10 (tiny negatives are tolerated here and clipped
    at the point of use).
    """
    rho = _square(rho)
    _raise_first(_density_errors(rho[None]))
    return rho


def _density_eigh(rho):
    """(rho, w, v): `check_density(rho)` and the eigenvalues w and
    eigenvectors v of rho, whose w[0] the check's PSD test reads; a
    non-finite rho fails the check before any decomposition."""
    rho = _square(rho)
    w = v = None
    if np.isfinite(rho).all():
        w, v = eigh(rho)
    _raise_first(_density_errors(rho[None], None if w is None else w[None]))
    return rho, w, v


def _square(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvariantViolation(f"density matrix must be 4x4, got {rho.shape}")
    return rho


def _raise_first(errors):
    if errors[0] is not None:
        raise InvariantViolation(errors[0])


def _density_errors(rhos, w=None):
    """`check_density`'s verdict on each member of an (m, 4, 4) complex
    stack: None where the member passes, else the message it raises.
    w holds the members' ascending eigenvalues, computed here when None.
    A member with a non-finite entry fails on its first such entry; the
    other tests see it as the zero matrix, and a stack with no finite
    member is not decomposed at all."""
    finite = np.isfinite(rhos).all(axis=(1, 2))
    safe = rhos if finite.all() else np.where(finite[:, None, None], rhos, 0)
    herm = np.abs(safe - safe.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    tr = np.trace(safe, axis1=1, axis2=2)
    if w is None:
        w = eigvalsh(safe) if finite.any() else np.zeros((len(rhos), 1))
    wmin = w[:, 0]
    errors = []
    for k, (ok, h, t, w0) in enumerate(zip(finite.tolist(), herm.tolist(),
                                           tr.tolist(), wmin.tolist())):
        if not ok:
            i, j = divmod(int(np.flatnonzero(~np.isfinite(rhos[k]))[0]), 4)
            errors.append(f"entry ({i}, {j}) is {complex(rhos[k, i, j])}, "
                          "not finite")
        elif h > 1e-12:
            errors.append(f"not Hermitian (defect {h:.2e})")
        elif abs(t - 1.0) > 1e-12:
            errors.append(f"trace is {t:.15g}, expected 1")
        elif w0 < -PSD_CLIP_FLOOR:
            errors.append(f"not PSD (eigenvalue {w0:.2e})")
        else:
            errors.append(None)
    return errors


def density_from_pauli(phi):
    """rho = sum_mu Gamma_mu phi^mu. Positivity is NOT checked: the Pauli
    expansion parametrizes all Hermitian matrices of trace phi^0."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (16,):
        raise InvariantViolation("phi must hold 16 real coefficients")
    return _pauli_densities(phi[None])[0]


def _pauli_densities(phis):
    """`density_from_pauli` of each row of an (m, 16) stack.  Each row
    is its own vector-matrix product, which keeps a member's bits
    independent of the stack around it; one matrix product of the stack
    sums some entries in another order."""
    return (phis[:, None, :] @ _GAMMA_ROWS).reshape(-1, 4, 4)


def pauli_coefficients(rho):
    """Invert the Pauli expansion: phi^mu = 4 Tr[Gamma_mu rho]."""
    rho = check_density(rho)
    return 4.0 * np.real(np.einsum("mij,ji->m", _GAMMA, rho))


def density_from_cholesky(model):
    """rho = T T^dag / Tr[T T^dag]; PSD with unit trace for any real theta."""
    return _cholesky_densities(model.params[None])[0]


def _cholesky_densities(thetas):
    """`density_from_cholesky` of each row of an (m, k) stack of
    rank-k parameter vectors, each T built by its own vector-matrix
    product, as in `_pauli_densities`."""
    t = (thetas[:, None, :] @ _T_ROWS[:thetas.shape[1]]).reshape(-1, 4, 4)
    g = t @ t.conj().transpose(0, 2, 1)
    lam = np.trace(g, axis1=1, axis2=2).real
    if min(lam.tolist()) <= 0.0:
        raise DegenerateModelError("Tr[T T^dag] vanished")
    rho = g / lam[:, None, None]
    # exact Hermitization kills float round-off at the 1e-17 level
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1))


def cholesky_from_density(rho, lam, rank=4):
    """Rank-`rank` Cholesky model whose T T^dag approximates lam * rho.

    Keeps the top `rank` eigenvalues of rho (exact when rho has at most
    that rank) and fixes the column phases so that the diagonal of T is
    real and non-negative.
    """
    _, w, v = _density_eigh(rho)
    return _cholesky_from_eigh(w, v, lam, rank)


def _cholesky_from_eigh(w, v, lam, rank):
    """`cholesky_from_density` from the eigenvalues w and eigenvectors v
    of rho, for a caller that truncates one rho at several ranks or has
    decomposed rho already."""
    if lam <= 0:
        raise InvariantViolation("lambda must be positive")
    if rank not in RANK_NPARAMS:
        raise InvariantViolation(f"rank must be 1..4, got {rank}")
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1][:rank]
    a = v[:, order] * np.sqrt(w[order] * lam)       # 4 x rank, A A* ~ lam rho
    # LQ: A = R* Q* with R* lower-trapezoidal; column phases fixed real
    r = np.linalg.qr(a.conj().T, mode="r")
    t4 = np.zeros((4, 4), dtype=complex)
    t4[:, :rank] = r.conj().T
    for j in range(rank):
        d = t4[j, j]
        if abs(d) > 0:
            t4[:, j] *= np.conj(d) / abs(d)
    return CholeskyModel(rank, params_from_triangular(t4, rank))


def psd_sqrt(m):
    """Hermitian square root of a matrix that passed check_density, its
    round-off negative eigenvalues clipped to zero."""
    return _sqrt_from_eigh(*eigh(np.asarray(m)))


def _sqrt_from_eigh(w, u):
    """`psd_sqrt` of the matrix with eigenvalues w and eigenvectors u."""
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def fidelity(rho1, rho2):
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), in [0, 1]."""
    _, w, u = _density_eigh(rho1)
    return _fidelities_of_sqrt(_sqrt_from_eigh(w, u),
                               check_density(rho2)[None])[0]


def _fidelities_of_sqrt(s, rhos):
    """`fidelity(rho1, rho2)` for each member rho2 of an (m, 4, 4) stack
    of checked density matrices, from s = psd_sqrt(rho1), as a list."""
    w = eigvalsh(s @ rhos @ s)
    f = np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)
    return [min(max(v, 0.0), 1.0) for v in f.tolist()]


def bures_distance_sq(rho1, rho2):
    """Squared Bures distance d^2 = 2 (1 - F), in [0, 2]."""
    return 2.0 * (1.0 - fidelity(rho1, rho2))

