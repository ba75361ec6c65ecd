"""The LAPACK gufuncs behind numpy.linalg, called without its wrappers.

Every decomposition in the package goes through this module: the
eigendecompositions, Cholesky factorizations and linear solves, the QR
factorization and the SVDs, value-only and reduced.  np.linalg's `eigh`,
`eigvalsh`, `svd`, `qr`, `pinv`, `cholesky` and `solve` each check the
shape and dtype of their input, pick a gufunc of
`numpy.linalg._umath_linalg` and run it under an errstate that turns
LAPACK's failure flag into LinAlgError.  On the 4x4 to 16x16 matrices
of two-qubit tomography those per-call checks take longer than the
factorizations.  The helpers here call the gufuncs with the signatures
np.linalg passes for float64 and complex128 input, and `qr_r` and
`pinv` finish as np.linalg does, so a result has np.linalg's bits,
member by member on a stack.

A gufunc whose factorization fails fills that member's result with NaN
and raises the invalid flag.  `eigh`, `eigvalsh`, `svdvals` and `pinv`
ignore the flag, and raise InvariantViolation where a result holds NaN,
as it does for a non-finite input.  `cholesky_lo` and `solve1` are the
raw gufuncs: their callers read a failed factor's NaN fill as "not
positive definite" under their own errstate.  QR does not fail on any
input; `qr_r` takes the finite factors of a decomposed state.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import InvariantViolation

cholesky_lo = _umath_linalg.cholesky_lo
solve1 = _umath_linalg.solve1
# numpy 1.x names a gufunc by the shape it takes, numpy 2.x does not:
# the value-only and the reduced SVD of a matrix with at least as many
# rows as columns, and the QR factorization of one with at most as many
_SVD_VALUES = getattr(_umath_linalg, "svd_n", None) or _umath_linalg.svd
_SVD_REDUCED = getattr(_umath_linalg, "svd_n_s", None) or _umath_linalg.svd_s
_QR_R_RAW = (getattr(_umath_linalg, "qr_r_raw_m", None)
             or _umath_linalg.qr_r_raw)


def _failed(what, values):
    """Raise InvariantViolation if `values`, a decomposition's result,
    holds NaN."""
    if math.isnan(values.sum()):
        raise InvariantViolation(
            f"{what} failed: the matrix is not finite, or LAPACK did not "
            "converge")


def eigh(a):
    """(w, v) as np.linalg.eigh(a) of a float64 or complex128 Hermitian
    matrix or stack, read from the lower triangle."""
    with np.errstate(all="ignore"):
        w, v = _umath_linalg.eigh_lo(
            a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")
    _failed("eigh", w)
    return w, v


def eigvalsh(a):
    """np.linalg.eigvalsh(a): the ascending eigenvalues of a float64 or
    complex128 Hermitian matrix or stack, read from the lower triangle."""
    with np.errstate(all="ignore"):
        w = _umath_linalg.eigvalsh_lo(
            a, signature="D->d" if a.dtype.kind == "c" else "d->d")
    _failed("eigvalsh", w)
    return w


def svdvals(a):
    """np.linalg.svd(a, compute_uv=False) of a float64 matrix or stack
    with at least as many rows as columns: the descending singular
    values."""
    with np.errstate(all="ignore"):
        s = _SVD_VALUES(a, signature="d->d")
    _failed("svd", s)
    return s


def pinv(a, rcond):
    """np.linalg.pinv(a, rcond) of a float64 matrix or stack with at
    least as many rows as columns: singular values at most rcond times
    the largest count as zero."""
    with np.errstate(all="ignore"):
        u, s, vt = _SVD_REDUCED(a, signature="d->ddd")
    _failed("svd", s)
    # np.linalg.pinv's cutoff, reciprocal and product, operation for
    # operation
    large = s > rcond * s.max(axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.swapaxes(vt, -1, -2) @ (s[..., None] * np.swapaxes(u, -1, -2))


def qr_r(a):
    """np.linalg.qr(a, mode="r") of a float64 or complex128 matrix or
    stack with at most as many rows as columns: the upper triangular
    factor R of a = Q R."""
    # the gufunc writes the factorization over its input
    a = a.copy()
    with np.errstate(all="ignore"):
        _QR_R_RAW(a, signature="D->D" if a.dtype.kind == "c" else "d->d")
    return np.triu(a)
