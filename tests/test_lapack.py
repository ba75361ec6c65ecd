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
