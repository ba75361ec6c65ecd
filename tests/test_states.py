import numpy as np
import pytest

from tomo2q.exceptions import DegenerateModelError, InvariantViolation
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    bures_distance_sq,
    check_density,
    cholesky_from_density,
    density_from_cholesky,
    density_from_pauli,
    fidelity,
    params_from_triangular,
    pauli_basis,
    pauli_coefficients,
    triangular,
)

from conftest import random_model

def test_pauli_basis_orthonormality():
    g = pauli_basis()
    gram = np.einsum("mij,nji->mn", g, g).real
    assert np.allclose(gram, np.eye(16) / 4.0, atol=1e-14)


def test_pauli_basis_hermitian():
    g = pauli_basis()
    assert np.max(np.abs(g - g.conj().transpose(0, 2, 1))) < 1e-14


def test_pauli_round_trip_random_states():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = density_from_cholesky(random_model(4, rng))
        phi = pauli_coefficients(rho)
        assert phi[0] == pytest.approx(1.0, abs=1e-12)
        back = density_from_pauli(phi)
        assert np.max(np.abs(back - rho)) < 1e-12


def test_density_from_pauli_trace_component():
    phi = np.zeros(16)
    phi[0] = 1.0
    assert np.allclose(density_from_pauli(phi), np.eye(4) / 4.0)


def test_rank_nparams_counts():
    assert RANK_NPARAMS == {1: 7, 2: 12, 3: 15, 4: 16}
    for k, n in RANK_NPARAMS.items():
        m = CholeskyModel(rank=k, params=np.arange(1.0, n + 1.0))
        assert m.nparams == n


def test_cholesky_lambda_is_squared_norm():
    rng = np.random.default_rng(1)
    for k in (1, 2, 3, 4):
        theta = rng.standard_normal(RANK_NPARAMS[k])
        m = CholeskyModel(rank=k, params=theta)
        assert m.lambda_scale == pytest.approx(theta @ theta, rel=1e-15)
        t = triangular(m)
        assert np.trace(t @ t.conj().T).real == pytest.approx(
            m.lambda_scale, rel=1e-12)


def test_layout_prefix_closure():
    # zero-padding a rank-k vector into rank k+1 leaves T unchanged
    rng = np.random.default_rng(2)
    for k in (1, 2, 3):
        theta = rng.standard_normal(RANK_NPARAMS[k])
        lo = triangular(CholeskyModel(rank=k, params=theta))
        padded = np.zeros(RANK_NPARAMS[k + 1])
        padded[:len(theta)] = theta
        hi = triangular(CholeskyModel(rank=k + 1, params=padded))
        assert np.array_equal(lo, hi)


def test_triangular_round_trip():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 4):
        theta = rng.standard_normal(RANK_NPARAMS[k])
        t = triangular(CholeskyModel(rank=k, params=theta))
        assert np.allclose(params_from_triangular(t, k), theta)
        assert np.allclose(np.triu(t, 1), 0.0)


def test_density_validity_fuzz_all_ranks():
    # any real theta must give a Hermitian PSD unit-trace matrix
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3, 3)
            rho = density_from_cholesky(random_model(k, rng, lam=scale))
            check_density(rho)
            assert np.linalg.matrix_rank(rho, tol=1e-12) <= k


def test_cholesky_model_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        CholeskyModel(rank=5, params=np.ones(16))
    with pytest.raises(InvariantViolation):
        CholeskyModel(rank=2, params=np.ones(7))
    with pytest.raises(InvariantViolation):
        CholeskyModel(rank=1, params=np.array([np.nan] + [0.0] * 6))
    with pytest.raises(DegenerateModelError):
        CholeskyModel(rank=3, params=np.zeros(15))


def test_density_cholesky_round_trip():
    rng = np.random.default_rng(5)
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            rho = density_from_cholesky(random_model(rank, rng))
            lam = 10.0 ** rng.uniform(0, 6)
            for fit_rank in {rank, 4}:
                m = cholesky_from_density(rho, lam, fit_rank)
                assert m.rank == fit_rank
                assert m.lambda_scale == pytest.approx(lam, rel=1e-9)
                assert np.max(np.abs(density_from_cholesky(m) - rho)) < 1e-8
                assert np.all(np.diag(triangular(m)).real >= 0.0)
    with pytest.raises(InvariantViolation):
        cholesky_from_density(rho, 1.0, 5)


def test_cholesky_from_density_rejects_nonpositive_scale():
    with pytest.raises(InvariantViolation):
        cholesky_from_density(np.eye(4) / 4.0, 0.0)


def test_check_density_rejections():
    with pytest.raises(InvariantViolation):
        check_density(np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    with pytest.raises(InvariantViolation):
        check_density(bad)
    with pytest.raises(InvariantViolation):
        check_density(np.eye(4) / 2.0)
    neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(InvariantViolation):
        check_density(neg)


def test_check_density_rejects_a_non_finite_entry_before_decomposing(
        monkeypatch):
    # every comparison with NaN is False, so a NaN diagonal entry used to
    # pass, and an all-NaN matrix raised numpy's LinAlgError; the check
    # now names the first entry that is not finite, and decomposes
    # nothing.  Fails if the finiteness test goes (the raw LAPACK gufuncs
    # return NaN, or a NaN-free spectrum, where np.linalg raised)
    from tomo2q import states

    def no_decomposition(*args):
        raise AssertionError("decomposed a non-finite matrix")

    monkeypatch.setattr(states, "eigh", no_decomposition)
    monkeypatch.setattr(states, "eigvalsh", no_decomposition)
    one_nan = np.eye(4, dtype=complex) / 4.0
    one_nan[2, 2] = np.nan
    inf = np.eye(4) / 4.0
    inf[1, 3] = np.inf
    cases = ((one_nan, r"entry \(2, 2\) is \(nan\+0j\)"),
             (np.full((4, 4), np.nan), r"entry \(0, 0\)"),
             (inf, r"entry \(1, 3\) is \(inf\+0j\)"))
    for rho, message in cases:
        with pytest.raises(InvariantViolation, match=message):
            check_density(rho)
        with pytest.raises(InvariantViolation, match=message):
            cholesky_from_density(rho, 1.0)
    monkeypatch.undo()
    good = np.eye(4) / 4.0
    for args in ((one_nan, good), (good, one_nan)):
        with pytest.raises(InvariantViolation, match="not finite"):
            fidelity(*args)


def test_fidelity_metric_properties():
    rng = np.random.default_rng(6)
    rho = density_from_cholesky(random_model(4, rng))
    sig = density_from_cholesky(random_model(4, rng))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-10)
    assert 0.0 <= fidelity(rho, sig) <= 1.0


def test_fidelity_pure_states_overlap():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    chi = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
    r1 = np.outer(psi, psi.conj())
    r2 = np.outer(chi, chi.conj())
    # F = |<psi|chi>| for pure states in this convention
    assert fidelity(r1, r2) == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)


def test_bures_distance_sq_definition_and_range():
    rng = np.random.default_rng(7)
    rho = density_from_cholesky(random_model(4, rng))
    sig = density_from_cholesky(random_model(4, rng))
    d2 = bures_distance_sq(rho, sig)
    assert d2 == pytest.approx(2.0 * (1.0 - fidelity(rho, sig)), abs=1e-12)
    assert 0.0 <= d2 <= 2.0
    assert bures_distance_sq(rho, rho) == pytest.approx(0.0, abs=1e-9)

