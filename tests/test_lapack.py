"""The package's LAPACK helpers: np.linalg's bytes, and a typed error
where a decomposition fails."""

import numpy as np
import pytest

from tomo2q import _lapack
from tomo2q.exceptions import InvariantViolation


def _hermitian_stack(rng, m, d, complex_):
    a = rng.standard_normal((m, d, d))
    if complex_:
        a = a + 1j * rng.standard_normal((m, d, d))
    return a + np.conj(np.swapaxes(a, -1, -2))


@pytest.mark.parametrize("d, complex_", [(4, True), (4, False),
                                         (16, False), (16, True)])
def test_eigh_and_eigvalsh_return_numpy_linalg_bytes(d, complex_):
    a = _hermitian_stack(np.random.default_rng(d), 60, d, complex_)
    w, v = _lapack.eigh(a)
    ref_w, ref_v = np.linalg.eigh(a)
    assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
    assert (_lapack.eigvalsh(a).tobytes()
            == np.linalg.eigvalsh(a).tobytes())
    # a member alone has the bits it has in the stack
    w3, v3 = _lapack.eigh(a[3])
    assert w3.tobytes() == ref_w[3].tobytes()
    assert v3.tobytes() == ref_v[3].tobytes()


def test_svdvals_returns_numpy_linalg_bytes():
    # the rank bounds' matrices: B scaled row by row, 16 x 16 and real
    a = np.random.default_rng(3).standard_normal((60, 16, 16))
    s = _lapack.svdvals(a)
    assert s.tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
    assert _lapack.svdvals(a[7]).tobytes() == s[7].tobytes()


@pytest.mark.parametrize("helper", [lambda a: _lapack.eigh(a),
                                    _lapack.eigvalsh, _lapack.svdvals])
def test_a_nan_member_raises_a_typed_error(helper):
    # np.linalg raised LinAlgError here; the gufunc fills the member with
    # NaN, which the helper turns into InvariantViolation
    a = _hermitian_stack(np.random.default_rng(5), 4, 4, False)
    a[2] = np.nan
    with pytest.raises(InvariantViolation, match="failed"):
        helper(a)


@pytest.mark.parametrize("complex_", [True, False])
def test_qr_r_returns_numpy_linalg_bytes(complex_):
    # the factors of `_cholesky_from_eigh`: rank x 4, rank 1 to 4
    rng = np.random.default_rng(7)
    for rows in (1, 2, 3, 4):
        for _ in range(50):
            a = rng.standard_normal((4, rows))
            if complex_:
                a = a + 1j * rng.standard_normal((4, rows))
            a = a.conj().T          # a transposed view, as its caller's
            before = a.copy()
            r = _lapack.qr_r(a)
            assert r.tobytes() == np.linalg.qr(a, mode="r").tobytes()
            assert a.tobytes() == before.tobytes()     # input untouched


def test_pinv_returns_numpy_linalg_bytes():
    # Fisher matrices of every parameter count, some with a null space
    # (the cutoff drops it) and some with a spread of scales
    rng = np.random.default_rng(11)
    for k in (7, 12, 15, 16):
        for dropped in (0, 1, 3):
            for _ in range(20):
                b = rng.standard_normal((k, k - dropped))
                b *= 10.0 ** rng.uniform(-4, 4, k - dropped)
                a = b @ b.T
                assert (_lapack.pinv(a, rcond=1e-10).tobytes()
                        == np.linalg.pinv(a, rcond=1e-10).tobytes())
    a = np.full((7, 7), np.nan)
    with pytest.raises(InvariantViolation, match="failed"):
        _lapack.pinv(a, rcond=1e-10)
