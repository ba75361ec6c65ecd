"""End-to-end acceptance checks, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as
they complete; without -s they appear in captured stdout of each test.
"""

import time

import numpy as np
import pytest

from tomo2q.estimation import maice, mle
from tomo2q.fisher import (
    bound_coefficient,
    bures_quadratic_form,
    density_gradient,
    fisher_analytic,
    fisher_mc,
    sld,
)
from tomo2q.projectors import (
    inseparable_projector_set,
    linear_tomography,
    local_projector_set,
    mean_counts,
)
from tomo2q.simulate import (
    SimulationConfig,
    emit_results,
    preset_state,
    run_sweep,
    true_model,
)
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    bures_distance_sq,
    check_density,
    density_from_cholesky,
    pauli_coefficients,
)

from conftest import random_model

# Published coincidence tables. The tables enumerate the sixteen
# analyzer settings by acquisition block,
#   HH HV VH VV | HD HL DH RH | VD VL DV RV | DD RL RD DL
# (computational combinations, H-branch with a rotated analyzer,
# V-branch likewise, then the rotated pairs), not in the row-major
# H/V/D/R x H/V/D/L grid the count vectors of this package use.
# GRID_SLOT[i] is the grid slot of published position i; it places
# e.g. the dominant almost-pure count 2504 at VV.
VN_PUBLISHED = np.array([615, 553, 613, 605, 550, 576, 596, 609,
                         575, 622, 577, 601, 574, 569, 591, 569])
AP_PUBLISHED = np.array([42, 45, 25, 2504, 60, 56, 31, 33,
                         1309, 1431, 1148, 1125, 514, 487, 576, 599])
GRID_SLOT = np.array([0, 1, 4, 5, 2, 3, 8, 12,
                      6, 7, 9, 13, 10, 15, 14, 11])

MASTER_SEED = 3                    # criterion 3/4 sweep seed


def _grid_counts(published):
    out = np.zeros(16, dtype=np.int64)
    out[GRID_SLOT] = published
    return out


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
          f"{name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


@pytest.fixture(scope="module")
def local_set():
    return local_projector_set()


@pytest.fixture(scope="module")
def insep_set():
    return inseparable_projector_set()


@pytest.fixture(scope="module")
def sweep_c34(local_set):
    cfg = SimulationConfig(true_state="mixed", rate=500.0,
                           acquisition_times=(2.0, 6.0, 20.0, 60.0, 200.0),
                           trials=200, estimator="maice", basis="local",
                           seed=MASTER_SEED)
    t0 = time.monotonic()
    res = run_sweep(cfg)
    return res, time.monotonic() - t0


def _aic_check(published_counts, expected, expect_rank, pset):
    counts = _grid_counts(published_counts)
    t0 = time.monotonic()
    best, table = maice(counts, pset)
    dt = time.monotonic() - t0
    got = np.array([r.aic for r in table][::-1])   # rank 4 first
    tol = np.where(np.array([r.rank for r in table][::-1]) == best.rank,
                   1.0, 2.0)
    ok = bool(np.all(np.abs(got - np.array(expected)) <= tol)
              and best.rank == expect_rank and dt <= 30.0)
    detail = (f": AICs {np.round(got, 1)} vs {expected}, "
              f"rank {best.rank}, {dt:.1f}s")
    return ok, detail


def test_c01_aic_regression_vnms(local_set):
    ok, detail = _aic_check(VN_PUBLISHED, (163.4, 201.3, 349.9, 2899.3),
                            4, local_set)
    _report(1, "AIC regression, near-maximally-mixed data", ok, detail)


def test_c02_aic_regression_apss(local_set):
    ok, detail = _aic_check(AP_PUBLISHED, (152.8, 150.8, 146.3, 208.9),
                            2, local_set)
    _report(2, "AIC regression, almost-pure separable data", ok, detail)


def test_c03_error_scaling_slope(sweep_c34):
    res, dt = sweep_c34
    one_mf = 1.0 - res.mean_fidelity
    a = np.vstack([np.log(res.lam_values), np.ones(5)]).T
    slope = float(np.linalg.lstsq(a, np.log(one_mf), rcond=None)[0][0])
    ok = abs(slope + 1.0) <= 0.1 and dt <= 600.0
    _report(3, "error scaling slope -1", ok,
            f": slope {slope:.4f}, sweep {dt:.0f}s")


def test_c04_bound_achievement(sweep_c34):
    res, _ = sweep_c34
    i = int(np.flatnonzero(res.lam_values == 1e4)[0])
    ratio = (1.0 - res.mean_fidelity[i]) \
        / (res.bound_report.coefficient / 1e4)
    ok = 1.0 <= ratio <= 1.5
    _report(4, "bound respected and approached at lambda 1e4", ok,
            f": mean(1-F) = {ratio:.3f} x C/lambda")


def test_c05_cramer_rao_efficiency(local_set):
    lam = 1e4
    cfg = SimulationConfig(true_state="mixed", rate=500.0,
                           acquisition_times=(lam / 500.0,), trials=200,
                           estimator="mle16", basis="local", seed=11)
    res = run_sweep(cfg)
    m1 = true_model(np.eye(4) / 4.0)
    mstar = CholeskyModel(rank=4, params=np.sqrt(lam) * m1.params)
    j = fisher_analytic(mstar, local_set)
    target = float(np.trace(np.linalg.inv(j)))
    ratio = res.cov_trace[0] / target
    ok = 0.8 <= ratio <= 1.5
    _report(5, "covariance trace vs inverse Fisher", ok,
            f": {res.cov_trace[0]:.2f} vs {target:.2f} (x{ratio:.3f})")


def test_c06_fisher_mc_oracle(local_set):
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(5):
        m = random_model(4, rng, lam=10.0 ** rng.uniform(2.5, 4.0))
        ja = fisher_analytic(m, local_set)
        jm = fisher_mc(m, local_set, n_samples=100000, seed=k)
        worst = max(worst,
                    np.linalg.norm(jm - ja) / np.linalg.norm(ja))
    ok = worst <= 0.02
    _report(6, "Monte Carlo Fisher within 2% of analytic", ok,
            f": worst {100.0 * worst:.2f}%")


def test_c07_linear_tomography_exactness(local_set, insep_set):
    rng = np.random.default_rng(7)
    worst = 0.0
    for pset in (local_set, insep_set):
        for _ in range(1000):
            m = random_model(4, rng, lam=10.0 ** rng.uniform(1, 6))
            rho = density_from_cholesky(m)
            phi, lam_hat = linear_tomography(mean_counts(m, pset), pset)
            worst = max(
                worst,
                float(np.max(np.abs(phi - pauli_coefficients(rho)))),
                abs(lam_hat - m.lambda_scale) / m.lambda_scale)
    ok = worst <= 1e-10
    _report(7, "linear tomography exact on 1000 states x 2 bases", ok,
            f": worst deviation {worst:.2e}")


def test_c08_directional_basis_comparison(local_set, insep_set):
    rows = []
    ok = True
    for name, eps, expect_insep_better in (("mixed", None, True),
                                           ("bell", 0.05, True),
                                           ("product", 0.05, False)):
        m = true_model(preset_state(name, eps))
        cl = bound_coefficient(m, local_set).coefficient
        ci = bound_coefficient(m, insep_set).coefficient
        good = (ci < cl) is expect_insep_better
        ok = ok and good
        rows.append(f"{name} C_loc {cl:.2f} C_insep {ci:.2f}")
    _report(8, "directional cross-basis bound ordering", ok,
            ": " + "; ".join(rows))


def test_c09_minimal_rank_coordinates(local_set):
    rng = np.random.default_rng(9)
    ok = True
    worst = -np.inf
    for _ in range(5):
        theta2 = rng.standard_normal(RANK_NPARAMS[2])
        padded = np.zeros(16)
        padded[:12] = theta2
        c2 = bound_coefficient(CholeskyModel(2, theta2),
                               local_set).coefficient
        c4 = bound_coefficient(CholeskyModel(4, padded),
                               local_set).coefficient
        worst = max(worst, c2 - c4)
        ok = ok and c2 <= c4 + 1e-9
    _report(9, "rank-2 coordinates never increase C", ok,
            f": max(C2 - C4) = {worst:.2e}")


def test_c10_property_suites(local_set, tmp_path):
    rng = np.random.default_rng(10)
    checks = []

    # density validity fuzz, 1e4 samples per rank
    fuzz_ok = True
    for rank in (1, 2, 3, 4):
        theta = rng.standard_normal((10000, RANK_NPARAMS[rank]))
        theta *= 10.0 ** rng.uniform(-2, 2, size=(10000, 1))
        for row in theta:
            if not np.any(row):
                continue
            rho = density_from_cholesky(CholeskyModel(rank, row))
            w = np.linalg.eigvalsh(rho)
            if (abs(np.trace(rho).real - 1.0) > 1e-12
                    or w[0] < -1e-10
                    or np.max(np.abs(rho - rho.conj().T)) > 1e-12):
                fuzz_ok = False
                break
    checks.append(("density fuzz", fuzz_ok))

    # SLD reconstruction residual
    sld_ok = True
    for _ in range(20):
        m = random_model(4, rng, lam=1.0)
        rho = density_from_cholesky(m)
        g = density_gradient(m)[int(rng.integers(16))]
        l = sld(rho, g)
        resid = np.max(np.abs(0.5 * (l @ rho + rho @ l) - g))
        sld_ok = sld_ok and resid <= 1e-8
    checks.append(("SLD residual", sld_ok))

    # Bures quadratic form: cubic-order convergence
    m = random_model(4, rng, lam=1.0)
    d = rng.standard_normal(16)
    d /= np.linalg.norm(d)

    def resid(eps):
        shifted = CholeskyModel(4, m.params + eps * d)
        return abs(bures_distance_sq(density_from_cholesky(m),
                                     density_from_cholesky(shifted))
                   - bures_quadratic_form(m, eps * d))

    ratio = resid(2e-3) / resid(1e-3)
    checks.append(("Bures cubic convergence", abs(ratio - 8.0) < 2.0))

    # reparametrization invariance of C
    from tomo2q.states import params_from_triangular, triangular
    m = random_model(4, rng, lam=3.0)
    t = triangular(m)
    t2 = t.copy()
    t2[:, 0] *= -1.0
    t2[:, 2] *= -1.0
    c1 = bound_coefficient(m, local_set).coefficient
    c2 = bound_coefficient(CholeskyModel(
        4, params_from_triangular(t2, 4)), local_set).coefficient
    checks.append(("C reparametrization invariance",
                   abs(c1 - c2) <= 1e-8 * max(1.0, abs(c1))))

    # analytic score vs finite differences
    from tomo2q.estimation import _negloglik_and_grad, log_likelihood
    m = random_model(4, rng, lam=900.0)
    n = rng.poisson(mean_counts(m, local_set)) + 1.0
    g = -_negloglik_and_grad(m.params, n, local_set, 0.0)[1]
    fd = np.zeros(16)
    for i in range(16):
        dp = m.params.copy()
        dp[i] += 1e-6
        up = log_likelihood(CholeskyModel(4, dp), n, local_set)
        dp[i] -= 2e-6
        dn = log_likelihood(CholeskyModel(4, dp), n, local_set)
        fd[i] = (up - dn) / 2e-6
    checks.append(("gradient vs finite differences",
                   np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
                   <= 1e-5))

    # deterministic replay byte-identity
    cfg = SimulationConfig(true_state="mixed", acquisition_times=(2.0,),
                           trials=5, seed=77)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_results(run_sweep(cfg), str(p1))
    emit_results(run_sweep(cfg), str(p2))
    checks.append(("replay byte-identity",
                   p1.read_bytes() == p2.read_bytes()))

    ok = all(c[1] for c in checks)
    bad = [c[0] for c in checks if not c[1]]
    _report(10, "property suites", ok,
            ": all six pass" if ok else f": failing {bad}")
