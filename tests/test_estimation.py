import warnings

import numpy as np
import pytest

from tomo2q.estimation import (
    _NEWTON_GTOL,
    _NEWTON_MAXITER,
    _NEWTON_MU0,
    _NEWTON_MU_MAX,
    _NEWTON_MU_MIN,
    _Inversion,
    _canonical_gauge,
    _cholesky,
    _fit_results,
    _invert,
    _log_factorials,
    _loss_exceeds,
    _negloglik,
    _negloglik_and_grad,
    _newton,
    _padded_warm,
    _poisson,
    _rank_bounds,
    _ranks_ruled_out,
    _starts,
    EstimationResult,
    aic,
    log_likelihood,
    maice,
    mle,
)
from tomo2q.exceptions import InvariantViolation
from tomo2q.projectors import (LOCAL_LABELS, linear_tomography, mean_counts,
                               product_ket, projector_set_from_kets)
from tomo2q.simulate import preset_state, sample_counts
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    check_density,
    density_from_cholesky,
    density_from_pauli,
    fidelity,
    params_from_triangular,
    triangular,
)

from conftest import lower_rank_bounds, random_model
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


def test_aic_rejects_a_rank_outside_1_to_4():
    for rank in (0, 5, 2.5):
        with pytest.raises(InvariantViolation,
                           match="rank must be an integer from 1 to 4"):
            aic(-3.5, rank)


def test_clipped_start_without_a_positive_trace_is_maximally_mixed(
        local_set):
    # HH, HV, VH and VV sum to the identity on the local set, so with all
    # four at 0 the inversion's trace x_0 is 0 up to round-off; an
    # incomplete set has no inversion.  Either way the first start is
    # I/4 at a quarter of the total count
    n = np.array([0.0 if lab in ("HH", "HV", "VH", "VV") else 5.0
                  for lab in LOCAL_LABELS])
    incomplete = projector_set_from_kets(
        [product_ket(a + b) for a in "HVDD" for b in "HVDD"])
    assert not incomplete.complete
    for pset in (local_set, incomplete):
        w, v, lam = _Inversion(n, pset).clipped
        assert lam == n.sum() / 4.0
        assert np.allclose((v * w) @ v.conj().T, np.eye(4) / 4.0,
                           atol=1e-12)
        assert mle(1, n, pset, restarts=0).log_likelihood < 0.0


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
        g = -_negloglik_and_grad(m.params, n, local_set, 0.0)[1]
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
    # the inversion feeds Newton's starts at rank 2 and the closed form
    # at rank 4; an error from it reaches the caller on both paths
    import tomo2q.estimation as est

    def broken(counts, pset):
        raise RuntimeError("not a tomography error")

    monkeypatch.setattr(est, "_solve_counts", broken)
    for rank in (2, 4):
        with pytest.raises(RuntimeError, match="not a tomography error"):
            mle(rank, VN_COUNTS, local_set)


def test_mle_rejects_bad_init(local_set):
    n = np.ones(16)
    with pytest.raises(InvariantViolation):
        mle(2, n, local_set, warm=np.ones(13))


def _jittered_starts(n, pset, rank, count):
    """The linear-inversion start and `count` copies of it jittered as
    `_starts` jitters ranks 1-3, at any rank: at ranks 1-3 these are
    `_starts(_Inversion(n, pset), rank, None, count)`."""
    theta0 = _starts(_Inversion(np.asarray(n, dtype=float), pset), rank,
                     None, 0)[0]
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
    return -min(minimize(_negloglik_and_grad, x0, args=(n, pset, lgamma),
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
        theta = _newton(x0, n.astype(float), local_set, lgamma)[0]
        assert misfit(theta) < 1e-8


# the published c01 table in the local set's row-major grid order
C01_GRID = np.array([615, 553, 550, 576, 613, 605, 575, 622,
                     596, 577, 574, 569, 609, 601, 591, 569])


def _unnormalized_inversion(counts, pset):
    """X_n, the Hermitian matrix whose means are the counts."""
    x = np.linalg.solve(pset.b, np.asarray(counts, dtype=float))
    return density_from_pauli(x)


def _inversion_is_positive_definite(counts, pset):
    return np.linalg.eigvalsh(_unnormalized_inversion(counts, pset))[0] > 0.0


def _newton_rank_4(counts, pset):
    """`_newton` from the clipped inversion, as `mle(4, counts, pset)`
    fits without the closed form: (gauge-fixed theta, logL, steps)."""
    n = np.asarray(counts, dtype=float)
    x0 = _starts(_Inversion(n, pset), 4, None, 0)[0]
    theta, f, steps = _newton(x0, n, pset, _log_factorials(n))
    return _canonical_gauge(theta, 4), -f, steps


def test_rank_4_fit_of_a_positive_definite_inversion_is_closed_form(
        local_set):
    # the fit is the inversion's Cholesky factor, with 0 iterations: the
    # saturated MLE M = n, the point Newton converges to
    cases = [(label, pset, counts) for label, pset, counts in corpus()
             if _inversion_is_positive_definite(counts, pset)]
    assert len(cases) >= 40
    assert _inversion_is_positive_definite(C01_GRID, local_set)
    for label, pset, counts in cases + [("c01", local_set, C01_GRID)]:
        res = mle(4, counts, pset)
        chol = np.linalg.cholesky(_unnormalized_inversion(counts, pset))
        assert np.array_equal(res.theta_hat,
                              params_from_triangular(chol, 4)), label
        assert res.iterations == 0 and res.converged, label
        _, ll, _ = _newton_rank_4(counts, pset)
        assert abs(res.log_likelihood - ll) <= 1e-9 * max(1.0, abs(ll)), \
            label
        model = CholeskyModel(4, res.theta_hat)
        m = mean_counts(model, pset)
        assert np.max(np.abs(m - counts) / counts) <= 1e-9, label
        d = np.diagonal(triangular(model))
        assert np.all(d.imag == 0.0) and np.all(d.real > 0.0), label


def test_rank_4_fit_of_an_indefinite_inversion_runs_newton():
    checked = 0
    for label, pset, counts in corpus():
        if _inversion_is_positive_definite(counts, pset):
            continue
        res = mle(4, counts, pset)
        theta, _, steps = _newton_rank_4(counts, pset)
        assert res.iterations == steps > 0, label
        assert np.array_equal(res.theta_hat, theta), label
        checked += 1
    assert checked >= 40


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
    # standalone fit warm-started from the rank below.  log_likelihood
    # and the fits share one Poisson kernel, so the log-likelihood must
    # be log_likelihood's to the bit; sum ln(n!) shifts only the
    # objective, so the score is the same without it
    for label, pset, counts, table in corpus_tables:
        n = counts.astype(float)
        warm = None
        for r in table:
            alone = mle(r.rank, counts, pset, warm=warm)
            assert np.array_equal(r.theta_hat, alone.theta_hat), label
            assert (r.log_likelihood, r.iterations, r.converged) == (
                alone.log_likelihood, alone.iterations, alone.converged), \
                label
            model = CholeskyModel(r.rank, r.theta_hat)
            assert log_likelihood(model, counts, pset).hex() == \
                r.log_likelihood.hex(), label
            _, grad = _negloglik_and_grad(r.theta_hat, n, pset,
                                          _log_factorials(n))
            assert np.array_equal(
                _negloglik_and_grad(r.theta_hat, n, pset, 0.0)[1], grad), \
                label
            warm = r.theta_hat


def test_lower_rank_bounds_hold_on_every_corpus_fit(corpus_tables):
    # no rank 1-3 fit, and no rank-4 fit above the saturated
    # log-likelihood, breaks the bounds that let a sweep skip ranks 1-3;
    # they exist exactly where the counts are positive and the inversion
    # is positive definite
    checked = 0
    for label, pset, counts, table in corpus_tables:
        n = counts.astype(float)
        bounds = lower_rank_bounds(n, pset)
        if bounds is None:
            assert (counts.min() == 0
                    or not _inversion_is_positive_definite(counts, pset)), \
                label
            continue
        assert _inversion_is_positive_definite(counts, pset), label
        n_min, _, a = bounds
        ll_sat = -float(_poisson(n, n, _log_factorials(n))[0])
        for r, a_r in zip(table[:3], a):
            loss = ll_sat - r.log_likelihood
            assert loss > 0.0, (label, r.rank)
            # no bound above the loss the fit has
            assert not _loss_exceeds(n_min, a_r, loss), (label, r.rank)
        assert table[3].log_likelihood <= ll_sat + 1e-9, label
        checked += 1
    assert checked >= 60


def test_rank4_bar_prunes_only_full_rank_truths(corpus_tables):
    # the bar is the closed-form test _ranks_ruled_out, asked at the saturated
    # log-likelihood: it passes on every mixed-state vector at
    # lambda >= 1e3, where maice selects rank 4, and on no bell or
    # product vector (near-pure truth, boundary regime); wherever it
    # passes, rank 4 has the strictly lowest AIC
    pruned = 0
    for label, pset, counts, table in corpus_tables:
        bounds = lower_rank_bounds(counts, pset)
        wins = bounds is not None and _ranks_ruled_out(bounds) == (1, 2, 3)
        if label.startswith("mixed/") and "/1e2/" not in label:
            assert wins, label
        elif not label.startswith("mixed/"):
            assert not wins, label
        if wins:
            assert table[3].aic < min(r.aic for r in table[:3]), label
            pruned += 1
    assert pruned >= 30


def test_ruled_out_ranks_lose_to_rank_4(corpus_tables, local_set,
                                        insep_set):
    # wherever `_ranks_ruled_out` rules out rank r, maice's rank-r fit
    # has a higher AIC than its rank-4 fit.  No corpus table has only
    # some of ranks 1-3 ruled out, so mixed-state draws at lambda 5e2,
    # 7e2 and 1e3 join it, where the bound often rules out rank 3, or
    # ranks 2 and 3, alone.  Fails if the threshold drops k_4 - k_r (the
    # margin alone), or if rank r reads another rank's a (a reversed), as
    # then a rank that beats rank 4 is ruled out; and fails its count of
    # partial rule-outs if the rule is all or nothing
    mixed = preset_state("mixed")
    tables = list(corpus_tables)
    for s, pset in enumerate((local_set, insep_set)):
        for lam in (500, 700, 1000):
            for d in range(8):
                counts = sample_counts(mixed, pset, lam,
                                       np.random.default_rng([0, s, lam, d]))
                tables.append((f"mixed/{s}/{lam}/{d}", pset, counts,
                               maice(counts, pset, 1)[1]))
    kinds = {"all": 0, "partial": 0}
    for label, pset, counts, table in tables:
        bounds = lower_rank_bounds(counts, pset)
        out = () if bounds is None else _ranks_ruled_out(bounds)
        for r in out:
            assert table[r - 1].aic > table[3].aic, (label, r)
        kinds["all"] += len(out) == 3
        kinds["partial"] += 0 < len(out) < 3
    assert kinds["all"] >= 30 and kinds["partial"] >= 5


def test_loss_exceeds_agrees_with_a_dense_scan_over_c():
    # max over c > 1 of min(n_min h(c), a / c) against a scan of c - 1
    # over 16 decades; the scan's step moves either term by < 1e-3, so
    # losses within 2e-3 of the scanned maximum are left out
    rng = np.random.default_rng(43)
    c = 1.0 + np.geomspace(1e-8, 1e8, 100_000)
    h = c - 1.0 - np.log(c)
    agree = {True: 0, False: 0}
    for _ in range(400):
        n_min, a, loss = (10.0 ** rng.uniform([0, -2, -1], [5, 7, 4])).tolist()
        scanned = np.minimum(n_min * h, a / c).max()
        if abs(scanned - loss) <= 2e-3 * loss:
            continue
        assert _loss_exceeds(n_min, a, loss) is bool(scanned > loss), (
            n_min, a, loss)
        agree[bool(scanned > loss)] += 1
    assert min(agree.values()) >= 50 and sum(agree.values()) >= 380


def test_canonical_gauge_flips_the_columns_of_t(local_set):
    # the theta slices the gauge negates are the columns of T whose
    # diagonal entry is negative; the means do not move
    rng = np.random.default_rng(44)
    for rank in (1, 2, 3, 4):
        for _ in range(20):
            theta = rng.standard_normal(RANK_NPARAMS[rank])
            t = triangular(CholeskyModel(rank, theta))
            flipped = t * np.where(t.diagonal().real < 0, -1.0, 1.0)
            gauged = _canonical_gauge(theta, rank)
            assert np.array_equal(
                triangular(CholeskyModel(rank, gauged)), flipped)
            assert np.array_equal(
                mean_counts(CholeskyModel(rank, gauged), local_set),
                mean_counts(CholeskyModel(rank, theta), local_set))


def _newton_reference(theta, n, pset, lgamma):
    """`_newton`'s algorithm on numpy.linalg's `cholesky` and
    `solve`, which raise LinAlgError; also returns how many Cholesky
    tests failed."""
    k = len(theta)
    q2 = 2.0 * pset.q[k].reshape(16, k * k)
    eye = np.eye(k)
    f, m, dm = _negloglik(theta, n, pset, lgamma)
    mu = _NEWTON_MU0
    iterations = failures = 0
    while iterations < _NEWTON_MAXITER:
        r = n / m
        w = 1.0 - r
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
                f_trial, m_trial, dm_trial = _negloglik(trial, n, pset,
                                                        lgamma)
                if f_trial < f:
                    break
                if f_trial == f:
                    return theta, f, iterations, failures
            mu *= 4.0
            if mu > _NEWTON_MU_MAX:
                return theta, f, iterations, failures
        theta, f, m, dm = trial, f_trial, m_trial, dm_trial
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
        inv = _Inversion(n, pset)
        for rank in (2, 3, 4):
            warm = _padded_warm(table[rank - 2].theta_hat, rank)
            for x0 in _starts(inv, rank, warm, 4):
                theta, f, steps = _newton(x0, n, pset, lgamma)
                ref = _newton_reference(x0, n, pset, lgamma)
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
def test_cholesky_agrees_with_numpy_cholesky(k):
    # the factor where numpy factors the matrix, None where it raises
    outcomes = {}
    for name, a in _pivot_cases(k).items():
        try:
            expected = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            expected = None
        with np.errstate(invalid="ignore"):
            got = _cholesky(a)
        if expected is None:
            assert got is None, name
        else:
            assert np.array_equal(got, expected), name
        outcomes[name] = expected is not None
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


@pytest.mark.parametrize("rank", [5, 0, "2", 2.0, True])
def test_mle_rejects_a_bad_rank_before_any_work(local_set, rank):
    # all-zero counts would raise their own error, so the rank check
    # must come first
    with pytest.raises(InvariantViolation,
                       match=f"rank must be an integer from 1 to 4, "
                             f"got {rank!r}"):
        mle(rank, np.zeros(16), local_set)


@pytest.mark.parametrize("restarts", [-1, 1.5, "x", "3", True, None])
def test_fits_reject_bad_restarts_before_any_work(local_set, restarts):
    message = f"restarts must be a non-negative integer, got {restarts!r}"
    for rank in (1, 4):
        with pytest.raises(InvariantViolation, match=message):
            mle(rank, np.zeros(16), local_set, restarts=restarts)
    with pytest.raises(InvariantViolation, match=message):
        maice(np.zeros(16), local_set, restarts=restarts)


def test_fits_take_numpy_integers(local_set):
    assert mle(np.int64(2), VN_COUNTS, local_set,
               restarts=np.int64(1)).rank == 2


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
    x0 = _starts(_Inversion(n, insep_set), 3, None, 0)[0]
    theta, f, steps = _newton(x0, n, insep_set, _log_factorials(n))
    assert steps < _NEWTON_MAXITER // 10
    score = _negloglik_and_grad(theta, n, insep_set, 0.0)[1]
    assert np.max(np.abs(score)) <= 1e-6 * max(1.0, abs(f))


def test_newton_stops_at_the_damping_cap(local_set):
    # a finite start whose means overflow has a NaN objective, which no
    # trial step lowers: the damping grows past _NEWTON_MU_MAX and the
    # start comes back with 0 steps, so `mle` keeps its other starts'
    # fit.  Fails if the cap does not return the start (`break` in place
    # of its `return`).
    n = C01_GRID.astype(float)
    x0 = np.full(12, 1e160)
    with np.errstate(over="ignore"):
        theta, f, steps = _newton(x0, n, local_set, _log_factorials(n))
        warmed = mle(2, C01_GRID, local_set, warm=np.full(7, 1e160))
    assert np.array_equal(theta, x0) and np.isnan(f) and steps == 0
    cold = mle(2, C01_GRID, local_set)
    assert warmed.theta_hat.tobytes() == cold.theta_hat.tobytes()
    assert (warmed.log_likelihood, warmed.iterations) == (
        cold.log_likelihood, cold.iterations)


def test_overflowing_warm_start_leaks_no_warning(local_set):
    # the means of a 1e160 start overflow; the fit ignores the overflow
    # flag as it ignores a failed factorization's, so no RuntimeWarning
    # reaches the caller, and the start loses to the others.  Fails if
    # either errstate of the fits (Newton's or BFGS's) drops "over"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warmed = [mle(r, C01_GRID, local_set, warm=np.full(7, 1e160))
                  for r in (1, 2)]
    for r, fit in zip((1, 2), warmed):
        cold = mle(r, C01_GRID, local_set)
        assert fit.theta_hat.tobytes() == cold.theta_hat.tobytes()
        assert (fit.log_likelihood, fit.iterations) == (
            cold.log_likelihood, cold.iterations)


def test_stacked_closing_score_has_each_members_own_bits(local_set,
                                                          insep_set):
    # `_fit_results` scores a stack one matrix-vector product per row;
    # each member's log-likelihood, score test and scale must be those of
    # `_negloglik_and_grad` on that member alone, and each member's
    # `_rank_bounds` those of its stack of one.  Fails if either runs one
    # matrix product over the whole stack
    rng = np.random.default_rng(41)
    for pset in (local_set, insep_set):
        ns = rng.poisson(rng.uniform(1.0, 3e4, (40, 16))).astype(float) + 1.0
        lgammas = [_log_factorials(n) for n in ns]
        for rank, k in RANK_NPARAMS.items():
            thetas = rng.standard_normal((40, k)) * 40.0
            rhos = np.array([density_from_cholesky(CholeskyModel(rank, t))
                             for t in thetas])
            fits = _fit_results(rank, thetas, rhos, ns, pset, lgammas, 3)
            for fit, theta, n, lgamma in zip(fits, thetas, ns, lgammas):
                f, g = _negloglik_and_grad(theta, n, pset, lgamma)
                assert fit.log_likelihood.hex() == (-float(f)).hex()
                assert fit.converged == (max(map(abs, g.tolist()))
                                         <= 1e-6 * max(1.0, abs(float(f))))
                assert fit.lambda_hat.hex() == float(theta @ theta).hex()
                assert fit.iterations == 3
        xns = _invert(ns, pset)[1]
        stacked = _rank_bounds(ns, xns, pset)
        for i, bounds in enumerate(stacked):
            assert bounds == _rank_bounds(ns[i:i + 1], xns[i:i + 1], pset)[0]


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
