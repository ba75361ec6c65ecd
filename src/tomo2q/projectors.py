"""Tomographic measurement sets, the B matrix, the Poisson count model, and
linear tomography for two polarization qubits.

A measurement set is 16 PSD operators M_nu. The local set uses rank-1
product projectors |m1 m2><m1 m2| over the single-qubit states H, V,
D = (H+V)/sqrt2, R = (H+iV)/sqrt2 on the first qubit and H, V, D,
L = (H-iV)/sqrt2 on the second, in row-major grid order. The inseparable
set mixes ten Bell-like projectors with six half-weighted single-qubit
operators (projector tensor I/2); those six are stored as the weighted
rank-2 operators themselves so the same mean-count formula
M_nu = Tr[M_nu T T^dag] covers every entry.

With T = sum_i theta_i T_BASIS[i] the means are quadratic forms
M_nu = theta^T Q_nu theta, Q_nu[i, j] = Re Tr[M_nu E_i E_j^dag]. A rank-k
model's Q is the leading k x k block of the rank-4 forms; each
ProjectorSet stacks those blocks once per k into one (16 k, k) array.
A ProjectorSet is immutable, arrays included, so the two built-in sets
are process-wide constants, each built on its first use.  MEAN_CLAMP,
the floor of a mean that is divided by or logged, lives with the means.
The fits read their means from the count model here, as the Fisher
information does, and their inversions from `_solve_counts` (B x = n).
"""

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._lapack import solve1, svdvals
from .exceptions import InvariantViolation, InversionError
from .states import RANK_NPARAMS, T_BASIS, pauli_basis

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = (KET_H + KET_V) / np.sqrt(2.0)
KET_X = (KET_H - KET_V) / np.sqrt(2.0)
KET_R = (KET_H + 1j * KET_V) / np.sqrt(2.0)
KET_L = (KET_H - 1j * KET_V) / np.sqrt(2.0)

_SINGLE = {"H": KET_H, "V": KET_V, "D": KET_D, "X": KET_X,
           "R": KET_R, "L": KET_L}

# Row-major local grid: first qubit H, V, D, R; second qubit H, V, D, L.
LOCAL_LABELS = tuple(a + b for a in "HVDR" for b in "HVDL")

_GAMMA = pauli_basis()


def product_ket(label):
    """Two-qubit product ket from a two-letter label such as 'HD'."""
    return np.kron(_SINGLE[label[0]], _SINGLE[label[1]])


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """16 measurement operators with their tomographic B matrix, whether
    B is invertible (`complete`), and the quadratic forms of the mean
    counts, q[k] stacking every Q_nu's leading k x k block (k = 7, 12,
    15, 16) into one (16 k, k) array.

    Sets compare and hash by identity.  Every array is read-only and `q`
    a read-only mapping, so that a set can be shared.
    """

    name: str
    operators: np.ndarray
    b: np.ndarray = field(init=False, repr=False)
    complete: bool = field(init=False, repr=False)
    q: dict = field(init=False, repr=False)

    def __post_init__(self):
        # a copy: freezing it must not freeze the caller's array
        ops = np.array(self.operators, dtype=complex)
        if ops.shape != (16, 4, 4):
            raise InvariantViolation("expected 16 operators of shape 4x4")
        bad = np.flatnonzero(~np.isfinite(ops).all(axis=(1, 2)))
        if bad.size:
            raise InvariantViolation(
                f"measurement operator {int(bad[0])} is not finite")
        herm = np.max(np.abs(ops - ops.conj().transpose(0, 2, 1)))
        if herm > 1e-12:
            raise InvariantViolation(
                f"measurement operators must be Hermitian (defect {herm:.2e})")
        # q[nu, i, j] = Re Tr[M_nu E_i E_j^dag], symmetrized
        q = np.real(np.einsum("nab,ibc,jac->nij", ops, T_BASIS,
                              T_BASIS.conj(), optimize=True))
        ops.setflags(write=False)
        b = b_matrix_of(ops)
        b.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "complete", completeness_check(self)[0])
        q = 0.5 * (q + q.transpose(0, 2, 1))
        blocks = {k: q[:, :k, :k].reshape(16 * k, k)
                  for k in RANK_NPARAMS.values()}
        for block in blocks.values():
            block.setflags(write=False)
        object.__setattr__(self, "q", MappingProxyType(blocks))

    def __len__(self):
        return 16


def b_matrix_of(operators):
    """B_{nu mu} = Tr[M_nu Gamma_mu]; real for Hermitian operators."""
    b = np.einsum("nij,mji->nm", operators, _GAMMA)
    imag = np.max(np.abs(b.imag))
    if imag > 1e-12:
        raise InvariantViolation(f"B matrix has imaginary part {imag:.2e}")
    return b.real


def projector_set_from_kets(kets, name="custom"):
    """Projectors onto the normalized kets; a zero or non-finite ket
    raises InvariantViolation."""
    ops = []
    for i, k in enumerate(kets):
        norm = np.linalg.norm(k)
        if not 0.0 < norm < np.inf:
            raise InvariantViolation(f"ket {i} must be nonzero and finite")
        k = np.asarray(k, dtype=complex) / norm
        ops.append(np.outer(k, k.conj()))
    return ProjectorSet(name=name, operators=np.array(ops))


@functools.cache
def local_projector_set():
    """The 16 product projectors of the row-major local grid; one set,
    built on the first call, serves the whole process."""
    return projector_set_from_kets(
        [product_ket(lab) for lab in LOCAL_LABELS], name="local")


def _bell_like(label1, label2, phase):
    k = (product_ket(label1) + phase * product_ket(label2)) / np.sqrt(2.0)
    return k


@functools.cache
def inseparable_projector_set():
    """Ten Bell-like projectors plus six half-weighted local operators;
    one set, built on the first call, serves the whole process.

    The ten superposition kets comprise the four computational Bell
    states plus two members of each of two rotated Bell bases.  The
    three bases diagonalize the three cyclic pairings of local Pauli
    axes (XX/YY/ZZ, XY/YZ/ZX, XZ/YX/ZY), so together with the six
    half-weighted single-qubit projectors the set spans all sixteen
    two-qubit Pauli directions.  The relative phase of the D/X family
    must be imaginary; with a real phase that family duplicates the
    ZX direction and the B matrix drops to rank 14 (XY and YZ become
    unmeasurable), which completeness_check reports as failure.
    """
    kets = [
        _bell_like("HH", "VV", +1),
        _bell_like("HH", "VV", -1),
        _bell_like("HV", "VH", +1),
        _bell_like("HV", "VH", -1),
        _bell_like("HD", "VX", +1j),
        _bell_like("HD", "VX", -1j),
        _bell_like("HX", "VD", +1j),
        _bell_like("HR", "VL", +1),
        _bell_like("HR", "VL", -1),
        _bell_like("HL", "VR", +1),
    ]
    ops = [np.outer(k, k.conj()) for k in kets]
    eye2 = np.eye(2, dtype=complex)
    for single in ("H", "D", "R"):
        p = np.outer(_SINGLE[single], _SINGLE[single].conj())
        ops.append(np.kron(p, eye2 / 2.0))
        ops.append(np.kron(eye2 / 2.0, p))
    return ProjectorSet(name="inseparable", operators=np.array(ops))


def _solve_counts(ns, pset):
    """The x solving B x = n for counts n, (16,) or an (m, 16) stack,
    or None for an incomplete set: the Pauli coefficients of the linear
    inversions X_n = sum_mu x_mu Gamma_mu, whose means are the counts.
    `solve1` is np.linalg.solve's gufunc (see `_lapack`)."""
    return solve1(pset.b, ns) if pset.complete else None


def completeness_check(pset):
    """(complete, condition_number) from the singular values of B."""
    s = svdvals(pset.b)
    complete = bool(s[-1] > 1e-10 * s[0])
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return complete, cond


MEAN_CLAMP = 1e-12


def means_and_derivatives(theta, pset):
    """Means M_nu = theta^T Q_nu theta of the rank model with len(theta)
    parameters, and their gradients dM[nu, i] = dM_nu/dtheta_i.

    M can dip below zero by round-off; callers clamp it at MEAN_CLAMP.
    """
    k = len(theta)
    qt = (pset.q[k] @ theta).reshape(16, k)
    return qt @ theta, 2.0 * qt


def mean_counts(model, pset):
    """Poisson means M_nu = Tr[M_nu T T^dag] >= 0 (scale included in T)."""
    m, _ = means_and_derivatives(model.params, pset)
    return np.clip(m, 0.0, None)


def mean_counts_of_density(rho, lam, pset):
    """Means lambda * Tr[M_nu rho] for a density matrix at scale lambda."""
    return _scaled_means(_probabilities(rho, pset), lam)


def _probabilities(rho, pset):
    """Tr[M_nu rho] for each operator M_nu of the set, as reals."""
    return np.real(np.einsum("nij,ji->n", pset.operators, rho))


def _scaled_means(p, lam):
    """The means at scale lam of a state whose `_probabilities` are p."""
    return np.clip(lam * p, 0.0, None)


def _check_count_vector(counts):
    """16 non-negative finite numbers, counts or expected counts, as
    floats."""
    counts = np.asarray(counts)
    if counts.shape != (16,):
        raise InvariantViolation(f"expected 16 counts, got shape {counts.shape}")
    if np.any(counts < 0):
        raise InvariantViolation("negative counts")
    if not np.all(np.isfinite(np.asarray(counts, dtype=float))):
        raise InvariantViolation("non-finite counts")
    return np.asarray(counts, dtype=float)


def check_counts(counts):
    """16 non-negative integer counts, as floats."""
    n = _check_count_vector(counts)
    bad = np.flatnonzero(n != np.floor(n))
    if bad.size:
        i = int(bad[0])
        raise InvariantViolation(
            f"counts must be integers; entry {i} is {float(n[i])!r}")
    return n


def linear_tomography(counts, pset):
    """Invert n = B (lambda phi) and split off lambda from phi^0 = 1.

    Returns (phi, lambda_hat). Exact on noiseless means; the implied
    density matrix is Hermitian with unit trace but not necessarily PSD.
    """
    lam_phi = _solve_counts(_check_count_vector(counts), pset)
    if lam_phi is None:
        raise InvariantViolation(
            f"projector set '{pset.name}' is not tomographically complete")
    lam_hat = lam_phi[0]
    if lam_hat <= 0.0:
        raise InversionError(
            f"linear tomography produced lambda_hat = {lam_hat:.6g} <= 0")
    phi = lam_phi / lam_hat
    return phi, float(lam_hat)
