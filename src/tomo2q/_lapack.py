"""The LAPACK gufuncs behind numpy.linalg, called without its wrappers.

Every eigendecomposition, Cholesky factorization, linear solve and
value-only SVD in the package goes through this module.  np.linalg's
`eigh`, `eigvalsh`, `svd`, `cholesky` and `solve` each check the shape
and dtype of their input, pick a gufunc of `numpy.linalg._umath_linalg`
and run it under an errstate that turns LAPACK's failure flag into
LinAlgError.  On the 4x4 and 16x16 matrices of two-qubit tomography
those per-call checks take longer than the factorizations.  The helpers
here call the gufuncs with the signatures np.linalg passes for float64
and complex128 input, so a result has np.linalg's bits, member by member
on a stack.

A gufunc whose factorization fails fills that member's result with NaN
and raises the invalid flag.  `eigh`, `eigvalsh` and `svdvals` ignore
the flag, and raise InvariantViolation where a result holds NaN, as it
does for a non-finite input.  `cholesky_lo` and `solve1` are the raw
gufuncs: their callers read a failed factor's NaN fill as "not positive
definite" under their own errstate.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import InvariantViolation

cholesky_lo = _umath_linalg.cholesky_lo
solve1 = _umath_linalg.solve1
# the value-only SVD of a matrix with at least as many rows as columns:
# numpy 1.x names it svd_n, numpy 2.x svd
_SVD_VALUES = getattr(_umath_linalg, "svd_n", None) or _umath_linalg.svd


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
