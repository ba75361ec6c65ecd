import dataclasses

import numpy as np
import pytest

from tomo2q.estimation import _rank4_bar, maice
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
from tomo2q.states import check_density, fidelity

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
    # its log-likelihood clears the bar that ranks 1-3 cannot reach, and
    # no bell-state trial does
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
                bar = _rank4_bar(rec.counts, pset)
                pruned += bar is not None and rec.result.log_likelihood > bar
        if state == "bell":
            assert pruned == 0
        else:
            assert pruned > len(times) * 6 // 2


def test_run_sweep_failure_rate_guard(monkeypatch):
    # a mixed-state trial at lambda 1e3 mostly fits rank 4 alone through
    # mle, a bell-state trial goes through maice; either path's
    # non-converged estimates must reach the guard
    import tomo2q.simulate as sim

    real_maice, real_mle = sim.maice, sim.mle

    def failing_maice(counts, pset, restarts=1):
        best, table = real_maice(counts, pset, restarts=restarts)
        bad = dataclasses.replace(best, converged=False)
        return bad, table

    def failing_mle(*args, **kwargs):
        return dataclasses.replace(real_mle(*args, **kwargs),
                                   converged=False)

    monkeypatch.setattr(sim, "maice", failing_maice)
    monkeypatch.setattr(sim, "mle", failing_mle)
    for state in ("mixed", "bell"):
        with pytest.raises(InvariantViolation,
                           match="failed to converge at lambda=1000"):
            run_sweep(small_config(true_state=state, trials=4))


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
