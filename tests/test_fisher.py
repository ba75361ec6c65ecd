import numpy as np
import pytest

from tomo2q.exceptions import (
    InconsistentDirectionError,
    InvariantViolation,
)
from tomo2q.fisher import (
    BoundReport,
    bound_coefficient,
    bures_quadratic_form,
    density_gradient,
    fisher_analytic,
    fisher_mc,
    sld,
    sld_fisher,
)
from tomo2q.estimation import log_likelihood_gradient
from tomo2q.projectors import mean_counts
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    bures_distance_sq,
    cholesky_from_density,
    density_from_cholesky,
)

from conftest import random_model


def test_fisher_analytic_basic_properties(local_set):
    rng = np.random.default_rng(30)
    m = random_model(4, rng, lam=1000.0)
    fm = fisher_analytic(m, local_set)
    j = fm.entries
    assert j.shape == (16, 16)
    assert np.allclose(j, j.T, atol=1e-9)
    w = np.linalg.eigvalsh(j)
    assert w[0] > -1e-9


def test_fisher_mc_matches_analytic(local_set):
    rng = np.random.default_rng(32)
    m = random_model(4, rng, lam=2000.0)
    ja = fisher_analytic(m, local_set).entries
    jm = fisher_mc(m, local_set, n_samples=100000, seed=0).entries
    rel = np.linalg.norm(jm - ja) / np.linalg.norm(ja)
    assert rel <= 0.02
    with pytest.raises(InvariantViolation):
        fisher_mc(m, local_set, n_samples=10)


def test_score_zero_mean_at_truth(local_set):
    # E[score] = 0: check against the analytic mean identity
    rng = np.random.default_rng(34)
    m = random_model(4, rng, lam=3000.0)
    means = mean_counts(m, local_set)
    s = log_likelihood_gradient(m, means, local_set)
    assert np.max(np.abs(s)) < 1e-8


def test_sld_identity_quarter_reference():
    # at rho = I/4: (L rho + rho L)/2 = L/4, so L = 4 d_rho exactly
    rng = np.random.default_rng(35)
    rho = np.eye(4, dtype=complex) / 4.0
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    drho = (h + h.conj().T) / 2.0
    drho -= np.trace(drho) / 4.0 * np.eye(4)
    l = sld(rho, drho)
    assert np.allclose(l, 4.0 * drho, atol=1e-10)


def test_sld_reconstruction_residual(local_set):
    rng = np.random.default_rng(36)
    for _ in range(10):
        m = random_model(4, rng, lam=1.0)
        rho = density_from_cholesky(m)
        grads = density_gradient(m)
        stacked = sld(rho, np.asarray(grads))
        for i in (0, 5, 11):
            l = sld(rho, grads[i])
            recon = 0.5 * (l @ rho + rho @ l)
            assert np.max(np.abs(recon - grads[i])) <= 1e-8
            # a (k, 4, 4) stack solves each direction the same way
            assert np.allclose(stacked[i], l, atol=1e-10)


def test_sld_inconsistent_direction_raises():
    # rank-deficient rho cannot support a gradient leaving its support
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad = np.zeros((4, 4), dtype=complex)
    bad[2, 2] = 1.0
    bad[3, 3] = -1.0
    with pytest.raises(InconsistentDirectionError):
        sld(rho, bad)
    # one bad direction in a stack fails the whole solve
    good = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    sld(rho, good)
    with pytest.raises(InconsistentDirectionError):
        sld(rho, np.stack([good, bad]))


def test_sld_fisher_identity_state():
    # at I/4, J^SLD_ij = 4 Tr[d_i rho d_j rho]
    m = CholeskyModel(4, np.array(
        [1.0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 1.0]))
    assert np.allclose(density_from_cholesky(m), np.eye(4) / 4.0)
    grads = density_gradient(m)
    js = sld_fisher(m).entries
    direct = 4.0 * np.real(np.einsum("iab,jba->ij", grads, grads))
    assert np.allclose(js, direct, atol=1e-10)


def test_bures_quadratic_form_cubic_convergence(local_set):
    # d^2(theta, theta + eps d) - q(eps d) must shrink like eps^3
    rng = np.random.default_rng(37)
    m = random_model(4, rng, lam=1.0)
    d = rng.standard_normal(16)
    d /= np.linalg.norm(d)

    def residual(eps):
        shifted = CholeskyModel(4, m.params + eps * d)
        exact = bures_distance_sq(density_from_cholesky(m),
                                  density_from_cholesky(shifted))
        quad = bures_quadratic_form(m, eps * d)
        return abs(exact - quad)

    r1, r2 = residual(2e-3), residual(1e-3)
    assert r1 / r2 == pytest.approx(8.0, rel=0.15)


def test_bound_coefficient_scale_invariance(local_set):
    rng = np.random.default_rng(38)
    theta = rng.standard_normal(16)
    c1 = bound_coefficient(CholeskyModel(4, theta), local_set).coefficient
    c2 = bound_coefficient(CholeskyModel(4, 50.0 * theta),
                           local_set).coefficient
    assert c1 == pytest.approx(c2, rel=1e-8)


def test_bound_coefficient_reparametrization_invariance(local_set):
    # Tr[J_SLD pinv(J-bar)] is a state functional: gauge-equivalent
    # parameter vectors (T column phase flips) give identical C
    rng = np.random.default_rng(39)
    m = random_model(4, rng, lam=1.0)
    from tomo2q.states import params_from_triangular, triangular
    t = triangular(m)
    t2 = t.copy()
    t2[:, 1] *= -1.0
    t2[:, 3] *= -1.0
    m2 = CholeskyModel(4, params_from_triangular(t2, 4))
    c1 = bound_coefficient(m, local_set).coefficient
    c2 = bound_coefficient(m2, local_set).coefficient
    assert c1 == pytest.approx(c2, rel=1e-8)


def test_bound_coefficient_identity_state_golden(local_set, insep_set):
    # closed-form anchors: C(I/4) = 63/8 local, 51/8 inseparable
    m = CholeskyModel(4, np.array(
        [1.0, 0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 1.0]))
    cl = bound_coefficient(m, local_set)
    ci = bound_coefficient(m, insep_set)
    assert isinstance(cl, BoundReport)
    assert cl.coefficient == pytest.approx(7.875, abs=1e-9)
    assert ci.coefficient == pytest.approx(6.375, abs=1e-9)
    assert cl.set_name == "local"
    assert ci.set_name == "inseparable"


def test_bound_coefficient_near_singular_full_rank(local_set, insep_set):
    # full-rank states whose smallest eigenvalue is ~3e-11 of the largest:
    # the SLD must keep that direction instead of reporting it outside
    # its range
    def pool_model(s, row):
        theta = np.random.default_rng([0, 4, s]).standard_normal(
            (250, 16))[row]
        return CholeskyModel(4, theta / np.linalg.norm(theta))

    m = pool_model(0, 81)
    cl = bound_coefficient(m, local_set).coefficient
    ci = bound_coefficient(pool_model(1, 168), insep_set).coefficient
    assert np.all(np.isfinite([cl, ci])) and cl > 0 and ci > 0
    # the local C is the limit of the same state mixed with a little I/4
    mixed = (1.0 - 1e-8) * density_from_cholesky(m) + 1e-8 * np.eye(4) / 4
    c_mixed = bound_coefficient(cholesky_from_density(mixed, 1.0, 4),
                                local_set).coefficient
    assert cl == pytest.approx(c_mixed, rel=1e-4)


def test_bound_rank2_vs_rank4_coordinates(local_set):
    # degenerate truth: minimal-rank coordinates never increase C
    rng = np.random.default_rng(40)
    theta2 = rng.standard_normal(RANK_NPARAMS[2])
    m2 = CholeskyModel(2, theta2)
    padded = np.zeros(16)
    padded[:12] = theta2
    m4 = CholeskyModel(4, padded)
    c2 = bound_coefficient(m2, local_set).coefficient
    c4 = bound_coefficient(m4, local_set).coefficient
    assert c2 <= c4 + 1e-9


def test_pure_state_dead_rows_excluded(local_set):
    # pure |HH> truth zeroes several local means; since every mean is a
    # nonnegative quadratic in theta, a vanishing mean has vanishing
    # gradient, so those rows drop out and J stays finite and PSD
    theta = np.zeros(7)
    theta[0] = 10.0
    fm = fisher_analytic(CholeskyModel(1, theta), local_set)
    assert np.all(np.isfinite(fm.entries))
    w = np.linalg.eigvalsh(fm.entries)
    assert w[0] > -1e-9


def test_fisher_report_fields(local_set):
    rng = np.random.default_rng(41)
    m = random_model(2, rng, lam=100.0)
    fm = fisher_analytic(m, local_set)
    assert fm.rank_model == 2
    # the model's own scale, lambda 100
    assert fm.acquisition_scale == pytest.approx(100.0)
    assert fm.entries.shape == (12, 12)
    assert np.array_equal(fm.at_theta, m.params)
