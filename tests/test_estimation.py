import numpy as np
import pytest

from tomo2q.estimation import (
    _NEWTON_GTOL,
    _NEWTON_MAXITER,
    _NEWTON_MU0,
    _NEWTON_MU_MAX,
    _NEWTON_MU_MIN,
    _clipped_inversion,
    _log_factorials,
    _lower_rank_bounds,
    _negloglik,
    _negloglik_and_grad,
    _newton,
    _positive_definite,
    _rank4_bar,
    _rank_q,
    _starts,
    EstimationResult,
    aic,
    log_likelihood,
    log_likelihood_gradient,
    maice,
    mle,
)
from tomo2q.exceptions import InvariantViolation
from tomo2q.projectors import linear_tomography, mean_counts
from tomo2q.simulate import preset_state, sample_counts
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    check_density,
    density_from_cholesky,
    density_from_pauli,
    fidelity,
    triangular,
)

from conftest import random_model
from corpus import corpus

# published count vectors, used here only through ordering-invariant
# functionals (sums and perfect-fit likelihoods)
VN_COUNTS = np.array([615, 553, 613, 605, 550, 576, 596, 609,
                      575, 622, 577, 601, 574, 569, 591, 569])
AP_COUNTS = np.array([42, 45, 25, 2504, 60, 56, 31, 33,
                      1309, 1431, 1148, 1125, 514, 487, 576, 599])


def _perfect_loglik(n):
    n = np.asarray(n, dtype=float)
    return float(np.sum(-n + n * np.log(n)) - _log_factorials(n))


def test_aic_formula():
    assert aic(-10.0, 4) == pytest.approx(20.0 + 2 * 16)
    assert aic(0.0, 1) == pytest.approx(2 * 7)
    for k in (1, 2, 3, 4):
        assert aic(-3.5, k) == pytest.approx(7.0 + 2 * RANK_NPARAMS[k])


def test_log_likelihood_at_exact_means(local_set):
    # model means as "counts" make the model itself the perfect fit
    rng = np.random.default_rng(20)
    m = random_model(4, rng, lam=2000.0)
    n = mean_counts(m, local_set)
    assert log_likelihood(m, n, local_set) == pytest.approx(
        _perfect_loglik(n), abs=1e-8)


def test_perfect_fit_loglik_reference_values():
    # ordering-invariant functionals of the published count vectors
    assert _perfect_loglik(VN_COUNTS) == pytest.approx(-65.70260, abs=1e-4)
    assert _perfect_loglik(AP_COUNTS) == pytest.approx(-58.38688, abs=1e-4)


def test_gradient_matches_finite_differences(local_set):
    rng = np.random.default_rng(21)
    for rank in (1, 2, 3, 4):
        m = random_model(rank, rng, lam=800.0)
        n = rng.poisson(mean_counts(random_model(rank, rng, lam=800.0),
                                    local_set)) + 1.0
        g = log_likelihood_gradient(m, n, local_set)
        eps = 1e-6
        fd = np.zeros_like(g)
        for i in range(len(g)):
            dp = m.params.copy()
            dp[i] += eps
            up = log_likelihood(CholeskyModel(rank, dp), n, local_set)
            dp[i] -= 2 * eps
            dn = log_likelihood(CholeskyModel(rank, dp), n, local_set)
            fd[i] = (up - dn) / (2 * eps)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(g - fd)) / scale < 1e-5


def test_mle_recovers_noiseless_truth(local_set):
    rng = np.random.default_rng(22)
    truth = random_model(2, rng, lam=1e5)
    n = mean_counts(truth, local_set)
    res = mle(2, n, local_set)
    assert res.converged
    assert res.log_likelihood == pytest.approx(_perfect_loglik(n), abs=1e-5)
    assert fidelity(res.rho_hat, density_from_cholesky(truth)) > 1 - 1e-8
    assert res.lambda_hat == pytest.approx(1e5, rel=1e-6)


def test_mle_stationarity_total_counts(local_set):
    # the scale direction of the likelihood forces sum M(theta-hat) = sum n
    rng = np.random.default_rng(23)
    truth = random_model(4, rng, lam=3000.0)
    n = rng.poisson(mean_counts(truth, local_set))
    res = mle(4, n, local_set)
    total_fit = mean_counts(
        CholeskyModel(4, res.theta_hat), local_set).sum()
    assert total_fit == pytest.approx(float(n.sum()), rel=1e-8)


def test_mle_lambda_quarter_total_at_large_scale(local_set):
    # lambda-hat ~ (sum n)/4 to 0.1% for near-maximally-mixed data at
    # large scale; the weighted sum of the 16 local projectors has
    # trace 16, so the identity is exact at I/4 and drifts as 1/sqrt(lam)
    rng = np.random.default_rng(24)
    lam = 1e7
    theta = np.zeros(16)
    theta[[0, 7, 12, 15]] = np.sqrt(lam / 4.0)
    truth = CholeskyModel(4, theta)
    n = rng.poisson(mean_counts(truth, local_set))
    res = mle(4, n, local_set)
    assert res.lambda_hat == pytest.approx(n.sum() / 4.0, rel=1e-3)


def test_estimation_result_invariants(local_set):
    rng = np.random.default_rng(25)
    truth = random_model(3, rng, lam=2000.0)
    n = rng.poisson(mean_counts(truth, local_set))
    res = mle(3, n, local_set)
    assert isinstance(res, EstimationResult)
    check_density(res.rho_hat)
    assert res.lambda_hat == pytest.approx(
        res.theta_hat @ res.theta_hat, rel=1e-12)
    assert res.aic == pytest.approx(
        -2.0 * res.log_likelihood + 2 * RANK_NPARAMS[3], abs=1e-9)
    assert res.rank == 3
    assert res.iterations > 0


def test_mle_seeded_determinism(local_set):
    rng = np.random.default_rng(26)
    n = rng.poisson(mean_counts(random_model(4, rng, lam=1500.0), local_set))
    a = mle(4, n, local_set)
    b = mle(4, n, local_set)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.log_likelihood == b.log_likelihood


def test_mle_does_not_swallow_unexpected_errors(local_set, monkeypatch):
    import tomo2q.estimation as est

    def broken(counts, pset):
        raise RuntimeError("not a tomography error")

    monkeypatch.setattr(est, "linear_tomography", broken)
    with pytest.raises(RuntimeError, match="not a tomography error"):
        mle(4, VN_COUNTS, local_set)


def test_mle_rejects_bad_init(local_set):
    n = np.ones(16)
    with pytest.raises(InvariantViolation):
        mle(2, n, local_set, warm=np.ones(13))


def _jittered_starts(n, pset, rank, count):
    """The linear-inversion start and `count` copies of it jittered as
    `_starts` jitters ranks 1-3, at any rank: at ranks 1-3 these are
    `_starts(n, pset, rank, None, count)`."""
    theta0 = _starts(n, pset, rank, None, 0)[0]
    k = len(theta0)
    scale = max(np.abs(theta0).max(), np.sqrt(max(n.sum(), 1.0) / 4.0))
    rng = np.random.default_rng([0, rank])
    return [theta0] + [theta0 * (1.0 + 0.05 * rng.standard_normal(k))
                       + 0.02 * scale * rng.standard_normal(k)
                       for _ in range(count)]


def _bfgs_reference(rank, n, pset):
    """Best scipy-BFGS log-likelihood from the linear inversion and four
    jittered copies, at rank 4 too."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    n = np.asarray(n, dtype=float)
    lgamma = _log_factorials(n)
    q = _rank_q(pset, RANK_NPARAMS[rank])
    return -min(minimize(_negloglik_and_grad, x0, args=(n, q, lgamma),
                         jac=True, method="BFGS",
                         options={"gtol": 1e-7, "maxiter": 2000}).fun
                for x0 in _jittered_starts(n, pset, rank, 4))


@pytest.mark.parametrize("state, log_lam", [("mixed", 4), ("product", 2),
                                            ("product", 3), ("bell", 2),
                                            ("bell", 3)])
def test_mle_ranks_2_to_4_reach_the_bfgs_optimum(local_set, insep_set,
                                                 state, log_lam):
    # interior (mixed, large lambda) and boundary (near-pure) counts: the
    # first draw of each condition of the 120-vector comparison corpus
    preset = ("mixed", "product", "bell").index(state)
    for si, pset in enumerate((local_set, insep_set)):
        n = sample_counts(preset_state(state), pset, 10.0**log_lam,
                          np.random.default_rng([preset, si, log_lam, 0]))
        for rank in (2, 3, 4):
            res = mle(rank, n, pset)
            assert res.converged
            assert res.log_likelihood >= _bfgs_reference(rank, n, pset) - 1e-6


def test_mle_rank_4_saturates_when_inversion_is_positive(local_set):
    # a positive definite linear inversion is a rank-4 model with M = n,
    # the saturated MLE; Newton reaches it from jittered starts too
    n = sample_counts(preset_state("mixed"), local_set, 1e4,
                      np.random.default_rng(31))
    phi, _ = linear_tomography(n, local_set)
    assert np.linalg.eigvalsh(density_from_pauli(phi))[0] > 0.0

    def misfit(theta):
        m = mean_counts(CholeskyModel(4, theta), local_set)
        return np.max(np.abs(m - n) / n)

    assert misfit(mle(4, n, local_set).theta_hat) < 1e-9
    # Newton stops at |g| <= 1e-9 |logL|, which leaves M - n at ~1e-9 n
    lgamma = _log_factorials(n)
    for x0 in _jittered_starts(n, local_set, 4, 4)[1:]:
        theta = _newton(x0, n.astype(float), _rank_q(local_set, 16),
                        lgamma)[0]
        assert misfit(theta) < 1e-8


def _kkt_residuals(counts, pset, theta):
    """lambda_max(G) and |G T|_F / |T|_F for the rank-4 model theta, with
    G = sum_nu (n/M - 1) P_nu the log-likelihood's gradient in X = T T*
    (n/M taken as 0 where n = 0)."""
    t = triangular(CholeskyModel(4, theta))
    m = np.real(np.einsum("nij,ji->n", pset.operators, t @ t.conj().T))
    n = np.asarray(counts, dtype=float)
    ratio = np.divide(n, m, out=np.zeros(16), where=n > 0)
    g = np.einsum("n,nij->ij", ratio - 1.0, pset.operators)
    return (np.linalg.eigvalsh(g)[-1],
            np.linalg.norm(g @ t) / np.linalg.norm(t))


@pytest.fixture(scope="module")
def corpus_tables():
    """(label, pset, counts, maice table) for every corpus vector."""
    return [(label, pset, counts, maice(counts, pset)[1])
            for label, pset, counts in corpus()]


def test_rank_4_fits_are_certified_global_maxima(corpus_tables):
    # the log-likelihood is concave in X = T T* >= 0, so a rank-4 fit is
    # the global MLE iff G <= 0 and G T = 0 (KKT conditions,
    # Boyd-Vandenberghe 5.5); this is why rank 4 needs no jittered starts
    failed = []
    for label, pset, counts, table in corpus_tables:
        lmax, resid = _kkt_residuals(counts, pset, table[3].theta_hat)
        if not (lmax <= 1e-6 and resid <= 1e-6):
            failed.append((label, lmax, resid))
    assert not failed


def test_maice_fits_equal_standalone_fits(corpus_tables):
    # maice's fits share one linear inversion and take their closing
    # log-likelihood and score from one evaluation; each must equal the
    # standalone fit warm-started from the rank below, and the
    # log-likelihood must equal log_likelihood's
    for label, pset, counts, table in corpus_tables:
        warm = None
        for r in table:
            alone = mle(r.rank, counts, pset, warm=warm)
            assert np.array_equal(r.theta_hat, alone.theta_hat), label
            assert (r.log_likelihood, r.iterations, r.converged) == (
                alone.log_likelihood, alone.iterations, alone.converged), \
                label
            assert r.log_likelihood == log_likelihood(
                CholeskyModel(r.rank, r.theta_hat), counts, pset), label
            warm = r.theta_hat


def test_lower_rank_bounds_hold_on_every_corpus_fit(corpus_tables):
    # no rank 1-3 fit, and no rank-4 fit above the saturated
    # log-likelihood, breaks the bounds that let a sweep skip ranks 1-3
    checked = 0
    for label, pset, counts, table in corpus_tables:
        bounds = _lower_rank_bounds(counts.astype(float), pset)
        if bounds is None:
            assert counts.min() == 0, label
            continue
        ll_sat, upper = bounds
        for r, ub in zip(table[:3], upper):
            assert r.log_likelihood <= ub, (label, r.rank)
        assert table[3].log_likelihood <= ll_sat + 1e-9, label
        checked += 1
    assert checked >= 100


def test_rank4_bar_prunes_only_full_rank_truths(corpus_tables):
    # the rank-4 fit clears the bar on every mixed-state vector at
    # lambda >= 1e3, where maice selects rank 4; no bell or product
    # vector (near-pure truth, boundary regime) has a bar a fit can clear
    for label, pset, counts, table in corpus_tables:
        bar = _rank4_bar(counts, pset)
        if label.startswith("mixed/") and "/1e2/" not in label:
            assert bar is not None and table[3].log_likelihood > bar, label
            assert min(table, key=lambda r: r.aic).rank == 4, label
        elif not label.startswith("mixed/"):
            assert bar is None, label


def _newton_reference(theta, n, q, lgamma):
    """`_newton`'s algorithm on numpy.linalg's `cholesky` and
    `solve`, which raise LinAlgError; also returns how many Cholesky
    tests failed."""
    k = len(theta)
    q2 = 2.0 * q.reshape(16, k * k)
    eye = np.eye(k)
    f, m, qt = _negloglik(theta, n, q, lgamma)
    mu = _NEWTON_MU0
    iterations = failures = 0
    while iterations < _NEWTON_MAXITER:
        r = n / m
        w = 1.0 - r
        dm = 2.0 * qt
        g = w @ dm
        if max(map(abs, g.tolist())) <= _NEWTON_GTOL * max(1.0, abs(f)):
            break
        h = (w @ q2).reshape(k, k) + (dm.T * (r / m)) @ dm
        shift = max(1.0, *map(abs, h.diagonal().tolist()))
        definite = False
        while True:
            a = h + mu * shift * eye
            if not definite:
                try:
                    np.linalg.cholesky(a)
                    definite = True
                except np.linalg.LinAlgError:
                    failures += 1
            if definite:
                trial = theta - np.linalg.solve(a, g)
                f_trial, m_trial, qt_trial = _negloglik(trial, n, q, lgamma)
                if f_trial < f:
                    break
                if f_trial == f:
                    return theta, f, iterations, failures
            mu *= 4.0
            if mu > _NEWTON_MU_MAX:
                return theta, f, iterations, failures
        theta, f, m, qt = trial, f_trial, m_trial, qt_trial
        mu = max(mu / 3.0, _NEWTON_MU_MIN)
        iterations += 1
    return theta, f, iterations, failures


def test_newton_matches_the_numpy_linalg_reference(corpus_tables):
    # from every start of maice's ranks 2-4 on the corpus, the gufunc
    # kernel takes the reference's steps bit for bit, through Cholesky
    # tests that fail as well as ones that pass
    failures = 0
    for label, pset, counts, table in corpus_tables:
        n = counts.astype(float)
        lgamma = _log_factorials(n)
        inversion = _clipped_inversion(n, pset)
        for rank in (2, 3, 4):
            q = _rank_q(pset, RANK_NPARAMS[rank])
            warm = table[rank - 2].theta_hat
            for x0 in _starts(n, pset, rank, warm, 4, inversion):
                theta, f, steps = _newton(x0, n, q, lgamma)
                ref = _newton_reference(x0, n, q, lgamma)
                assert theta.tobytes() == ref[0].tobytes(), (label, rank)
                assert (f, steps) == ref[1:3], (label, rank)
                failures += ref[3]
    assert failures > 0


def _pivot_cases(k):
    """Symmetric k x k matrices: positive definite, indefinite with the
    first or the last pivot negative, and singular positive
    semidefinite."""
    rng = np.random.default_rng([41, k])
    b = rng.standard_normal((k, k))
    spd = b @ b.T + np.eye(k)
    first = spd.copy()
    first[0, 0] = -1e-3
    # the last pivot is the Schur complement a_kk - c' A^-1 c
    last = spd.copy()
    c = spd[-1, :-1]
    last[-1, -1] = c @ np.linalg.solve(spd[:-1, :-1], c) - 1e-3
    u = rng.standard_normal((k, k - 3))
    zero_last = np.diag(np.r_[np.ones(k - 1), 0.0])
    return {"spd": spd, "first": first, "last": last,
            "rank-deficient": u @ u.T, "zero-last": zero_last,
            "zero": np.zeros((k, k))}


@pytest.mark.parametrize("k", [12, 15, 16])
def test_positive_definite_agrees_with_numpy_cholesky(k):
    outcomes = {}
    for name, a in _pivot_cases(k).items():
        try:
            np.linalg.cholesky(a)
            expected = True
        except np.linalg.LinAlgError:
            expected = False
        with np.errstate(invalid="ignore"):
            assert _positive_definite(a) is expected, name
        outcomes[name] = expected
    assert outcomes["spd"] and not outcomes["first"]
    assert not (outcomes["last"] or outcomes["zero-last"] or outcomes["zero"])


def test_fits_reject_all_zero_counts(local_set):
    zeros = np.zeros(16, dtype=np.int64)
    with pytest.raises(InvariantViolation, match="all 16 counts are zero"):
        maice(zeros, local_set)
    for rank in (1, 2, 3, 4):
        with pytest.raises(InvariantViolation,
                           match="all 16 counts are zero"):
            mle(rank, zeros, local_set)
    # zero expected counts are still a valid argument of log_likelihood
    m = random_model(2, np.random.default_rng(40), lam=50.0)
    assert log_likelihood(m, zeros, local_set) == pytest.approx(
        -mean_counts(m, local_set).sum(), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mle_rejects_non_finite_warm(local_set, bad):
    warm = np.ones(7)
    warm[[3, 5]] = bad
    with pytest.raises(InvariantViolation,
                       match=f"warm start must be finite; entry 3 is {bad}"):
        mle(2, VN_COUNTS, local_set, warm=warm)


def test_newton_stops_at_the_round_off_floor(insep_set):
    # bell(0.05) on the inseparable set at lambda 1e4: from the linear
    # inversion, rank 3 reaches a point where trial steps change f only by
    # round-off; keeping such steps used to run to the iteration cap
    n = np.array([9656, 122, 106, 137, 2472, 2562, 2401, 2543,
                  2444, 2384, 2535, 2479, 2523, 2573, 2523, 2500], float)
    x0 = _starts(n, insep_set, 3, None, 0)[0]
    theta, f, steps = _newton(x0, n, _rank_q(insep_set, 15),
                              _log_factorials(n))
    assert steps < _NEWTON_MAXITER // 10
    score = log_likelihood_gradient(CholeskyModel(3, theta), n, insep_set)
    assert np.max(np.abs(score)) <= 1e-6 * max(1.0, abs(f))


def test_maice_selects_true_rank_and_orders_loglik(local_set):
    rng = np.random.default_rng(27)
    truth = random_model(2, rng, lam=1e5)
    n = rng.poisson(mean_counts(truth, local_set))
    best, table = maice(n, local_set)
    assert best.rank == 2
    lls = [r.log_likelihood for r in table]
    # nested models: likelihood non-decreasing in rank
    for lo, hi in zip(lls, lls[1:]):
        assert hi >= lo - 1e-6
    assert best.aic == min(r.aic for r in table)
    ranks = [r.rank for r in table]
    assert ranks == [1, 2, 3, 4]


def test_maice_full_rank_truth(local_set):
    # well-separated spectrum (I/4): all four eigenvalues resolvable
    rng = np.random.default_rng(28)
    theta = np.zeros(16)
    theta[[0, 7, 12, 15]] = 50.0
    n = rng.poisson(mean_counts(CholeskyModel(4, theta), local_set))
    best, _ = maice(n, local_set)
    assert best.rank == 4


def test_log_likelihood_clamps_zero_means(local_set):
    # rank-1 model orthogonal to a measured projector: finite logL required
    theta = np.zeros(7)
    theta[0] = 30.0  # T = diag(30,0,0,0): pure |HH> at lambda 900
    m = CholeskyModel(1, theta)
    n = np.ones(16)
    ll = log_likelihood(m, n, local_set)
    assert np.isfinite(ll)
