import dataclasses

import numpy as np
import pytest

from tomo2q.estimation import _Inversion, _ranks_ruled_out, maice, mle
from tomo2q.exceptions import CountsParseError, InvariantViolation
from tomo2q.projectors import local_projector_set, mean_counts_of_density
from tomo2q.simulate import (
    SimulationConfig,
    SweepResult,
    TrialRecord,
    compare_bases,
    emit_results,
    preset_state,
    read_counts,
    run_sweep,
    sample_counts,
    tile_estimates,
    true_model,
)
from tomo2q.states import CholeskyModel, check_density, fidelity

from conftest import lower_rank_bounds

VN_LINE = "615 553 613 605 550 576 596 609 575 622 577 601 574 569 591 569"


def small_config(**kw):
    base = dict(true_state="mixed", rate=500.0, acquisition_times=(2.0,),
                trials=6, estimator="maice", basis="local", seed=123)
    base.update(kw)
    return SimulationConfig(**base)


def _marginals(rho):
    """The one-qubit reduced states of a two-qubit rho, first qubit
    first."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abad->bd", r)


def test_preset_states_valid_and_default_epsilon():
    mixed = preset_state("mixed")
    check_density(mixed)
    assert np.allclose(mixed, np.eye(4) / 4.0)

    prod = preset_state("product")
    check_density(prod)
    # default 0.05 admixture on |HV><HV|
    assert prod[1, 1].real == pytest.approx(0.95 + 0.05 / 4.0)
    # a product state: each marginal is pure up to the admixture
    for marginal in _marginals(prod):
        assert np.linalg.eigvalsh(marginal)[-1] >= 1.0 - 0.05

    bell = preset_state("bell")
    check_density(bell)
    # Phi+ with an admixture of I/4: both marginals are I/2
    for marginal in _marginals(bell):
        assert np.allclose(marginal, np.eye(2) / 2.0, atol=1e-12)
    assert bell[0, 3].real == pytest.approx(0.475)

    pure_bell = preset_state("bell", epsilon=0.0)
    assert np.linalg.matrix_rank(pure_bell, tol=1e-12) == 1


def test_preset_state_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        preset_state("thermal")
    with pytest.raises(InvariantViolation):
        preset_state("bell", epsilon=1.5)
    # the mixed state has no noise weight to set
    for eps in (0.0, 0.3):
        with pytest.raises(InvariantViolation, match="epsilon applies only"):
            preset_state("mixed", eps)


def test_simulation_config_validation():
    with pytest.raises(InvariantViolation):
        small_config(rate=-1.0)
    with pytest.raises(InvariantViolation):
        small_config(trials=0)
    with pytest.raises(InvariantViolation):
        small_config(estimator="map")
    with pytest.raises(InvariantViolation):
        small_config(basis="bell")
    with pytest.raises(InvariantViolation):
        small_config(acquisition_times=(1.0, -2.0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvariantViolation):
            small_config(rate=bad)
        with pytest.raises(InvariantViolation):
            small_config(acquisition_times=(1.0, bad))
    with pytest.raises(InvariantViolation):
        small_config(seed=-1)
    with pytest.raises(InvariantViolation):
        small_config(seed=1.5)
    # a config file's true and false are no numbers, although bool is an
    # Integral
    for field, bad in (("rate", True), ("trials", True),
                       ("acquisition_times", (2.0, True)), ("seed", False),
                       ("epsilon", False)):
        with pytest.raises(InvariantViolation):
            small_config(**{field: bad})
    # a truth is checked when the config is built, not when a sweep
    # resolves it; so is an epsilon that it would ignore
    for truth in ("mixed", true_model(preset_state("bell"))):
        with pytest.raises(InvariantViolation, match="epsilon applies only"):
            small_config(true_state=truth, epsilon=0.3)
    assert small_config(true_state="product", epsilon=0.3).epsilon == 0.3
    for bad in ([1], {}, "thermal"):
        with pytest.raises(InvariantViolation,
                           match="true_state must be mixed, product, bell "
                                 "or a CholeskyModel"):
            small_config(true_state=bad)


def test_seeds_beyond_31_bits_draw_their_own_counts():
    # seed 2**31 once aliased seed 0
    low = run_sweep(small_config(trials=2, seed=0))
    high = run_sweep(small_config(trials=2, seed=2**31))
    assert not all(np.array_equal(a.counts, b.counts)
                   for a, b in zip(low.records[0], high.records[0]))


def test_simulation_config_defaults():
    cfg = SimulationConfig()
    assert cfg.rate == 500.0
    assert cfg.acquisition_times == (0.2, 0.5, 1.0, 2.0, 5.0)
    assert cfg.trials == 200
    assert cfg.estimator == "maice"
    assert cfg.basis == "local"


def test_sample_counts_poisson_mean(local_set):
    rho = np.eye(4) / 4.0
    rng = np.random.default_rng(50)
    draws = np.array([sample_counts(rho, local_set, 4000.0, rng)
                      for _ in range(400)])
    means = mean_counts_of_density(rho, 4000.0, local_set)
    # sample mean within 5 sigma of the Poisson mean
    err = np.abs(draws.mean(axis=0) - means)
    assert np.all(err < 5.0 * np.sqrt(means / 400.0))
    assert draws.dtype == np.int64
    with pytest.raises(InvariantViolation):
        sample_counts(rho, local_set, 0.0, rng)
    # means beyond numpy's Poisson sampler
    for lam in (1e300, float("inf")):
        with pytest.raises(InvariantViolation) as info:
            sample_counts(rho, local_set, lam, rng)
        assert f"lambda={lam:g}" in str(info.value)


def test_true_model_minimal_rank():
    assert true_model(np.eye(4) / 4.0).rank == 4
    assert true_model(preset_state("bell", epsilon=0.0)).rank == 1
    assert true_model(preset_state("bell", epsilon=0.0), rank=4).rank == 4
    m = true_model(preset_state("product"))
    assert m.rank == 4
    from tomo2q.states import density_from_cholesky
    assert np.max(np.abs(density_from_cholesky(m)
                         - preset_state("product"))) < 1e-9


def test_run_sweep_shapes_and_invariants():
    cfg = small_config(acquisition_times=(6.0, 2.0), trials=5)
    res = run_sweep(cfg)
    assert isinstance(res, SweepResult)
    # rows sorted ascending in lambda regardless of input order
    assert np.array_equal(res.lam_values, [1000.0, 3000.0])
    for arr in (res.mean_fidelity, res.mean_bures_sq, res.std_bures_sq,
                res.cov_trace, res.bound):
        assert arr.shape == (2,)
    assert np.allclose(
        res.bound, 2.0 * res.bound_report.coefficient / res.lam_values)
    assert len(res.records) == 2
    assert all(len(r) == 5 for r in res.records)
    assert res.excluded == (0, 0)


def test_trial_record_bures_identity():
    cfg = small_config(trials=4)
    res = run_sweep(cfg)
    for rec in res.records[0]:
        assert isinstance(rec, TrialRecord)
        assert rec.bures_sq_to_true == pytest.approx(
            2.0 * (1.0 - rec.fidelity_to_true), abs=1e-12)
        assert rec.counts.shape == (16,)


def test_run_sweep_deterministic_replay(tmp_path):
    cfg = small_config(trials=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(run_sweep(cfg), str(p1))
    emit_results(run_sweep(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_run_sweep_trial_order_independence():
    # aggregates recomputed from records in any order match the reported ones
    cfg = small_config(trials=6)
    res = run_sweep(cfg)
    recs = list(res.records[0])
    rng = np.random.default_rng(0)
    rng.shuffle(recs)
    mf = np.mean([r.fidelity_to_true for r in recs])
    assert mf == pytest.approx(res.mean_fidelity[0], abs=1e-15)


def test_sweep_trial_fit_is_the_standalone_fit():
    # a sweep's estimate is maice's pick for the trial's counts; most
    # mixed-state trials at lambda 1e3 and 1e4 fit rank 4 alone, because
    # the closed-form test proves that ranks 1-3 cannot reach its AIC,
    # and no bell-state trial does
    pset = local_projector_set()
    for state, times in (("bell", (0.2, 2.0)), ("mixed", (2.0, 20.0))):
        res = run_sweep(small_config(true_state=state,
                                     acquisition_times=times))
        pruned = 0
        for recs in res.records:
            for rec in recs:
                alone, _ = maice(rec.counts, pset, restarts=1)
                assert rec.result.rank == alone.rank
                assert np.array_equal(rec.result.theta_hat, alone.theta_hat)
                assert rec.result.log_likelihood == alone.log_likelihood
                bounds = lower_rank_bounds(rec.counts, pset)
                pruned += (bounds is not None
                           and _ranks_ruled_out(bounds) == (1, 2, 3))
        if state == "bell":
            assert pruned == 0
        else:
            assert pruned > len(times) * 6 // 2


def test_pruned_sweep_trial_inverts_its_counts_once(monkeypatch):
    # every mixed-state trial at lambda 1e4 fits rank 4 alone; the sweep's
    # bounds and closed-form fits share one solve of B x = n and one
    # stack of X_n for all its trials, and no Newton step or fallback
    # fit runs
    import tomo2q.estimation as est
    import tomo2q.simulate as sim

    rows = {"solve": [], "xn": []}
    real_solve, real_pauli = est._solve_counts, est._pauli_densities

    def solve(ns, pset):
        rows["solve"].append(len(ns))
        return real_solve(ns, pset)

    def pauli(x):
        rows["xn"].append(len(x))
        return real_pauli(x)

    def unexpected(*args, **kwargs):
        raise AssertionError("a pruned trial ran more than its rank-4 fit")

    monkeypatch.setattr(est, "_solve_counts", solve)
    monkeypatch.setattr(est, "_pauli_densities", pauli)
    monkeypatch.setattr(est, "_newton", unexpected)
    monkeypatch.setattr(est, "maice", unexpected)
    monkeypatch.setattr(sim, "_fit_ranks", unexpected)
    cfg = small_config(acquisition_times=(20.0,), trials=8)
    res = run_sweep(cfg)
    assert all(rec.result.rank == 4 for rec in res.records[0])
    assert rows == {"solve": [cfg.trials], "xn": [cfg.trials]}


def test_fallback_sweep_trial_fits_rank_4_once(monkeypatch):
    # at lambda 1e2 most mixed-state trials have a positive definite
    # inversion whose bound does not prove rank 4; the trial decides that
    # from its counts and goes to its fallback fit without fitting rank 4
    # first
    import tomo2q.estimation as est
    import tomo2q.simulate as sim

    pset = local_projector_set()
    rank4 = []
    real_mle = est.mle

    def counting_mle(rank, *args, **kwargs):
        rank4.append(rank == 4)
        return real_mle(rank, *args, **kwargs)

    # every binding a sweep trial could fit through
    monkeypatch.setattr(est, "mle", counting_mle)
    monkeypatch.setattr(sim, "mle", counting_mle)
    cfg = small_config(acquisition_times=(0.2,), trials=6)
    res = run_sweep(cfg)
    assert sum(rank4) == cfg.trials
    undecided = [lower_rank_bounds(rec.counts, pset)
                 for rec in res.records[0]]
    assert sum(b is not None and _ranks_ruled_out(b) != (1, 2, 3)
               for b in undecided) > cfg.trials // 2


def test_partial_fallback_fits_only_the_open_ranks(monkeypatch):
    # at lambda 1e3 a few mixed-state trials have a positive definite
    # inversion whose bound rules out some of ranks 1-3 but not all
    # (here trials 17, 40 and 44, with rank 1, ranks 1 and 2, and ranks
    # 1 and 3 ruled out); such a trial fits the ranks left open and
    # rank 4, each once, and never a ruled-out rank.  Its pick must
    # still be maice's, bit for bit
    import tomo2q.estimation as est
    import tomo2q.simulate as sim

    pset = local_projector_set()
    real_mle, real_fit = est.mle, sim._fit_ranks
    fitted = []     # per fallback trial, the ranks `mle` fitted

    def fit_ranks(*args, **kwargs):
        fitted.append([])
        return real_fit(*args, **kwargs)

    def counting_mle(rank, *args, **kwargs):
        fitted[-1].append(rank)
        return real_mle(rank, *args, **kwargs)

    monkeypatch.setattr(sim, "_fit_ranks", fit_ranks)
    monkeypatch.setattr(est, "mle", counting_mle)
    monkeypatch.setattr(sim, "mle", counting_mle)
    res = run_sweep(small_config(trials=45, seed=9))
    monkeypatch.undo()
    ruled_out = [_ranks_ruled_out(lower_rank_bounds(rec.counts, pset))
                 for rec in res.records[0]]
    open_ranks = [tuple(r for r in (1, 2, 3) if r not in out)
                  for out in ruled_out if out != (1, 2, 3)]
    assert sum(0 < len(ranks) < 3 for ranks in open_ranks) >= 3
    assert fitted == [[*ranks, 4] for ranks in open_ranks]
    for rec in res.records[0]:
        assert _same_fit(rec.result, maice(rec.counts, pset, 1)[0])


def test_sweep_of_a_cholesky_model_truth():
    # a CholeskyModel truth is its density matrix: a sweep of the bell
    # preset's own model draws the same counts as a sweep of the preset
    bell = preset_state("bell")
    cfg = small_config(true_state=true_model(bell), trials=3)
    assert np.allclose(cfg.resolve_state(), bell, atol=1e-12)
    by_model = run_sweep(cfg)
    by_name = run_sweep(small_config(true_state="bell", trials=3))
    for a, b in zip(by_model.records[0], by_name.records[0]):
        assert np.array_equal(a.counts, b.counts)
    assert by_model.mean_fidelity == pytest.approx(by_name.mean_fidelity,
                                                   abs=1e-9)


def test_sweep_truth_path_is_the_public_functions():
    # run_sweep decomposes its truth once and draws every trial from
    # means computed once per sweep; its bound, counts and fidelities must
    # still be, bit for bit, what the public functions give for that
    # truth.  Fails if the shared means are scaled by the wrong lambda
    # (lam_values[::-1] for lam_values in run_sweep's means), or if the
    # truth's model or square root reads another decomposition
    from tomo2q.fisher import bound_coefficient
    model = CholeskyModel(3, np.random.default_rng(5).standard_normal(15))
    for truth in ("mixed", "product", "bell", model):
        for basis in ("local", "inseparable"):
            cfg = small_config(true_state=truth, basis=basis, trials=2,
                               acquisition_times=(0.2, 20.0), seed=9)
            rho, pset = cfg.resolve_state(), cfg.resolve_set()
            res = run_sweep(cfg)
            ref = bound_coefficient(true_model(rho), pset)
            assert (res.bound_report.coefficient.hex()
                    == ref.coefficient.hex())
            assert res.bound_report.theta.tobytes() == ref.theta.tobytes()
            for li, (lam, recs) in enumerate(zip(res.lam_values,
                                                 res.records)):
                for ti, rec in enumerate(recs):
                    rng = np.random.default_rng([cfg.seed, li, ti])
                    assert np.array_equal(
                        rec.counts, sample_counts(rho, pset, lam, rng))
                    assert rec.counts.dtype == np.int64
                    assert (rec.fidelity_to_true.hex() == fidelity(
                        rho, rec.result.rho_hat).hex()), (truth, basis)


def test_run_sweep_failure_rate_guard(monkeypatch):
    # a mixed-state trial at lambda 1e3 mostly fits rank 4 alone in the
    # sweep's closed-form step, a bell-state trial falls back to its
    # fits of every rank; either path's non-converged estimates must
    # reach the guard
    import tomo2q.simulate as sim

    real_step, real_fit = sim._closed_form_step, sim._fit_ranks

    def failing_step(ns, pset, prune):
        return [r if isinstance(r, tuple)
                else dataclasses.replace(r, converged=False)
                for r in real_step(ns, pset, prune)]

    def failing_fit(counts, pset, restarts, ranks):
        best, table = real_fit(counts, pset, restarts, ranks)
        return dataclasses.replace(best, converged=False), table

    # each path alone, the other path's estimates converging
    for state, step, fallback in (("mixed", failing_step, real_fit),
                                  ("bell", real_step, failing_fit)):
        monkeypatch.setattr(sim, "_closed_form_step", step)
        monkeypatch.setattr(sim, "_fit_ranks", fallback)
        with pytest.raises(InvariantViolation,
                           match="failed to converge at lambda=1000"):
            run_sweep(small_config(true_state=state, trials=4))


def test_sweep_estimate_failing_check_density_names_its_trial(monkeypatch):
    # every estimate's rho_hat is checked, on one stack; a failure keeps
    # check_density's message and names its lambda and trial, on the
    # closed-form path (mixed, lambda 1e4) and the fallback path (bell)
    import tomo2q.simulate as sim

    real_step, real_fit = sim._closed_form_step, sim._fit_ranks
    skewed = np.zeros((4, 4))
    skewed[0, 1] = 1e-9

    def step(ns, pset, prune):
        fits = real_step(ns, pset, prune)
        if not isinstance(fits[2], tuple):
            rho = fits[2].rho_hat
            fits[2] = dataclasses.replace(fits[2], rho_hat=2.0 * rho)
        return fits

    calls = []

    def skewing_fit(counts, pset, restarts, ranks):
        best, table = real_fit(counts, pset, restarts, ranks)
        calls.append(None)
        if len(calls) == 2:
            best = dataclasses.replace(best, rho_hat=best.rho_hat + skewed)
        return best, table

    monkeypatch.setattr(sim, "_closed_form_step", step)
    monkeypatch.setattr(sim, "_fit_ranks", skewing_fit)
    with pytest.raises(InvariantViolation,
                       match=r"^lambda=10000, trial 2: trace is 2\+0j, "
                             r"expected 1$"):
        run_sweep(small_config(acquisition_times=(20.0,), trials=4))
    with pytest.raises(InvariantViolation,
                       match=r"^lambda=1000, trial 1: not Hermitian "
                             r"\(defect 1\.00e-09\)$"):
        run_sweep(small_config(true_state="bell", trials=4))


def _same_fit(a, b):
    return (a.rank == b.rank and a.theta_hat.tobytes() == b.theta_hat.tobytes()
            and a.rho_hat.tobytes() == b.rho_hat.tobytes()
            and a.log_likelihood.hex() == b.log_likelihood.hex()
            and a.converged == b.converged and a.iterations == b.iterations)


def test_batched_sweep_records_are_the_standalone_fits():
    # a sweep fits its trials' counts as one stack; every record is still
    # the fit of its counts alone, bit for bit: the closed form of
    # mle(4, ...) where the bar proves rank 4 (mle16: where X_n is
    # positive definite), else maice's pick (mle16: Newton), with the
    # same prune decision as the counts' own bound; some fallback trials
    # fit only the ranks that bound leaves open
    bench = dict(acquisition_times=(2.0, 6.0, 20.0, 60.0, 200.0), trials=1)
    runs = [("local", "maice", bench, range(100)),
            ("inseparable", "maice", bench, range(20)),
            ("local", "maice", dict(acquisition_times=(0.2, 0.6), trials=8),
             (4,)),
            ("inseparable", "mle16",
             dict(acquisition_times=(0.2, 2.0, 20.0), trials=8), (4,))]
    kinds = {"closed": 0, "fallback": 0, "partial": 0}
    for basis, estimator, grid, seeds in runs:
        pset = small_config(basis=basis).resolve_set()
        for seed in seeds:
            res = run_sweep(small_config(basis=basis, estimator=estimator,
                                         seed=seed, **grid))
            if min(res.lam_values) >= 1e3:
                assert sum(res.excluded) == 0
            for rec in (r for recs in res.records for r in recs):
                inv = _Inversion(rec.counts.astype(float), pset)
                bounds = lower_rank_bounds(rec.counts, pset)
                out = () if bounds is None else _ranks_ruled_out(bounds)
                closed = (inv.factor is not None if estimator == "mle16"
                          else out == (1, 2, 3))
                if closed or estimator == "mle16":
                    alone = mle(4, rec.counts, pset)
                else:
                    alone = maice(rec.counts, pset, 1)[0]
                assert _same_fit(rec.result, alone), (basis, seed)
                kinds["closed" if closed else "fallback"] += 1
                kinds["partial"] += estimator == "maice" and 0 < len(out) < 3
    assert kinds["closed"] > 500 and kinds["fallback"] > 10
    assert kinds["partial"] >= 1


def test_emit_results_header_and_format(tmp_path):
    res = run_sweep(small_config(trials=4))
    pc = tmp_path / "r.csv"
    pt = tmp_path / "r.tsv"
    emit_results(res, str(pc), fmt="csv")
    emit_results(res, str(pt), fmt="tsv")
    head = pc.read_text().splitlines()[0]
    assert head == ("lambda,mean_fidelity,mean_bures_sq,"
                    "std_bures_sq,cov_trace,bound")
    assert "\t" in pt.read_text().splitlines()[0]
    with pytest.raises(InvariantViolation):
        emit_results(res, str(pc), fmt="json")


def test_read_counts_round_trip(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# acquired 2.0 s\n" + VN_LINE + "\n")
    vals = read_counts(str(p))
    assert vals.tolist() == [int(x) for x in VN_LINE.split()]


def test_read_counts_write_then_read(tmp_path):
    rng = np.random.default_rng(51)
    counts = rng.integers(0, 5000, 16)
    p = tmp_path / "c.txt"
    p.write_text("\n".join(str(v) for v in counts))
    assert np.array_equal(read_counts(str(p)), counts)


def test_read_counts_error_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3 4\n5 6 seven 8\n")
    with pytest.raises(CountsParseError) as e:
        read_counts(str(p))
    assert e.value.line_number == 2

    p.write_text("1 2 3 4 5 6 7 8 9 10 -11 12 13 14 15 16\n")
    with pytest.raises(CountsParseError) as e:
        read_counts(str(p))
    assert e.value.line_number == 1

    p.write_text("1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n")
    with pytest.raises(CountsParseError) as e:
        read_counts(str(p))
    assert "15" in str(e.value)


def test_read_counts_rejects_a_count_beyond_int64(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("# header\n" + " ".join(["1"] * 15)
                 + "\n99999999999999999999999\n")
    with pytest.raises(CountsParseError,
                       match="count 99999999999999999999999 exceeds") as e:
        read_counts(str(p))
    assert e.value.line_number == 3
    # the largest int64 is still a count
    p.write_text(" ".join(["1"] * 15) + f" {2**63 - 1}\n")
    assert read_counts(str(p))[-1] == 2**63 - 1


def test_tile_estimates_layout():
    mats = [np.full((4, 4), i + 1, dtype=complex) for i in range(9)]
    grid = tile_estimates(mats)
    assert grid.shape == (12, 12)
    assert np.all(grid[0:4, 0:4] == 1.0)
    assert np.all(grid[0:4, 4:8] == 2.0)
    assert np.all(grid[4:8, 0:4] == 4.0)
    assert np.all(grid[8:12, 8:12] == 9.0)

    ident = tile_estimates([np.eye(4) / 4.0] * 9)
    assert np.trace(ident) == pytest.approx(3.0)
    # every block carries its local diagonal: nonzero iff (i-j) % 4 == 0
    for i in range(12):
        for j in range(12):
            want = 0.25 if (i - j) % 4 == 0 else 0.0
            assert ident[i, j] == want

    with pytest.raises(InvariantViolation):
        tile_estimates([np.eye(4)] * 8)
    with pytest.raises(InvariantViolation):
        tile_estimates([np.eye(3)] * 9)


def test_compare_bases_shared_seed_and_reports():
    cfg = small_config(trials=3)
    cmp_ = compare_bases(cfg)
    cl, ci = cmp_.coefficients
    assert cl == pytest.approx(7.875, abs=1e-9)
    assert ci == pytest.approx(6.375, abs=1e-9)
    # both sweeps ran the same lambda grid
    assert np.array_equal(cmp_.local.lam_values,
                          cmp_.inseparable.lam_values)


def test_maice_picks_full_rank_on_mixed_preset():
    # full-rank truth: selected rank is 4 in >= 95% of trials at lambda 1e3
    cfg = small_config(trials=20, acquisition_times=(2.0,), seed=3)
    res = run_sweep(cfg)
    ranks = [rec.result.rank for rec in res.records[0]]
    assert sum(1 for k in ranks if k == 4) >= 19
