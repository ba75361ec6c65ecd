"""Property tests: invariants checked over generated inputs rather than
hand-picked cases.  Examples are derandomized, so every run checks the
same inputs."""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tomo2q import _bfgs
from tomo2q.cli import _config_from_args, build_parser
from tomo2q.estimation import (_Inversion, _log_factorials, _loss_exceeds,
                               _lower_rank_bounds, _negloglik_and_grad,
                               _rank4_wins, _starts, log_likelihood, maice,
                               mle)
from tomo2q.exceptions import CountsParseError, TomographyError
from tomo2q.fisher import bound_coefficient
from tomo2q.projectors import mean_counts
from tomo2q.simulate import (SimulationConfig, preset_state, read_counts,
                             sample_counts)
from tomo2q.states import (
    CholeskyModel,
    RANK_NPARAMS,
    check_density,
    density_from_cholesky,
    fidelity,
    params_from_triangular,
    triangular,
)

from conftest import random_model
from test_bfgs import _scipy_1_17, _scipy_bfgs


def examples(n):
    return settings(max_examples=n, derandomize=True, deadline=None,
                    database=None)


seeds = st.integers(0, 2**32 - 1)
ranks = st.integers(1, 4)
set_names = st.sampled_from(["local", "insep"])


@pytest.fixture(scope="module")
def sets(local_set, insep_set):
    return {"local": local_set, "insep": insep_set}


@examples(20)
@given(seed=seeds, rank=ranks, set_name=set_names,
       lam=st.sampled_from([1e2, 1e3, 1e4]))
def test_maice_log_likelihoods_are_nested(sets, seed, rank, set_name, lam):
    # rank r + 1 contains rank r, and each fit starts from the one below
    pset = sets[set_name]
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_counts(random_model(rank, rng, lam), pset))
    _, table = maice(counts, pset, restarts=1)
    lls = [r.log_likelihood for r in table]
    for lo, hi in zip(lls, lls[1:]):
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))
    # every fit is in the canonical gauge: T has a real, nonnegative
    # diagonal
    for r in table:
        diag = triangular(CholeskyModel(r.rank, r.theta_hat)).diagonal()
        assert np.all(diag.imag == 0.0) and np.all(diag.real >= 0.0)


@examples(60)
@given(seed=seeds, true_rank=st.integers(3, 4), rank=st.integers(1, 3),
       set_name=set_names, lam=st.sampled_from([1e3, 1e4, 1e5]))
def test_lower_rank_bounds_hold_for_every_model(sets, seed, true_rank, rank,
                                                set_name, lam):
    # the bound caps the log-likelihood of every rank-r model, not only
    # of fitted ones: here a random model and the inversion truncated to
    # rank r, at the counts' scale.  The bound exists only where the
    # inversion is positive definite, which lower-rank truths and
    # lambda 1e2 almost never give
    pset = sets[set_name]
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_counts(random_model(true_rank, rng, lam),
                                     pset))
    n = counts.astype(float)
    inv = _Inversion(n, pset)
    bounds = _lower_rank_bounds(inv, pset)
    assume(bounds is not None)
    ll_sat, n_min, _, a = bounds
    for theta in (random_model(rank, rng, n.sum() / 4.0).params,
                  _starts(inv, rank, None, 0)[0]):
        ll = log_likelihood(CholeskyModel(rank, theta), counts, pset)
        assert ll < ll_sat
        # no bound above the loss the model has
        assert not _loss_exceeds(n_min, a[rank - 1], ll_sat - ll)


@examples(40)
@given(seed=seeds, true_rank=ranks, set_name=set_names,
       lam=st.sampled_from([1e2, 1e3, 1e4, 1e5]))
def test_indefinite_inversion_never_lets_rank_4_win(sets, seed, true_rank,
                                                    set_name, lam):
    # with 16 positive counts and an X_n that is not positive definite,
    # mu_4 <= 0 makes d_3 = d_4 in the proof under _lower_rank_bounds, so
    # the rank-4 fit loses the rank-3 bound too; the bar that would prune
    # ranks 1-3 fails here even at ll_sat, which no rank-4 model reaches,
    # and the bounds are not built there
    pset = sets[set_name]
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_counts(random_model(true_rank, rng, lam),
                                     pset))
    n = counts.astype(float)
    inv = _Inversion(n, pset)
    mu = np.linalg.eigvalsh(inv.xn).tolist()[::-1]
    assume(n.min() > 0.0 and mu[3] <= 0.0)
    assert inv.factor is None
    assert _lower_rank_bounds(inv, pset) is None
    neg = [min(m, 0.0) for m in mu]
    d2 = [sum(v * v for v in neg[:r]) + sum(m * m for m in mu[r:])
          for r in (1, 2, 3, 4)]
    assert d2[2] == d2[3]
    s = np.linalg.svd(pset.b / np.sqrt(n)[:, None], compute_uv=False)[-1]
    a = [2.0 * s * s * d for d in d2]
    ll_sat = float(np.sum(n * np.log(n) - n)) - _log_factorials(n)
    fit = mle(4, counts, pset)      # Newton from the clipped inversion
    assert not _loss_exceeds(n.min(), a[3], ll_sat - fit.log_likelihood)
    bounds = (ll_sat, n.min(), n.sum(), tuple(a[:3]))
    assert not _rank4_wins(bounds)


@examples(100)
@given(counts=st.lists(st.integers(1, 10**4), min_size=16, max_size=16),
       log_ratios=st.lists(st.floats(-5.0, 5.0), min_size=16, max_size=16))
def test_loss_bound_holds_for_any_means(counts, log_ratios):
    # the lemma under _lower_rank_bounds: any means M lose
    # sum n h(M/n) >= max_c min(n_min h(c), sum (M - n)^2 / (2 c n)),
    # also where some M is far above its count and the loss grows only
    # linearly in M; _loss_exceeds tests the exact maximum over c
    n = np.array(counts, dtype=float)
    m = n * np.exp(log_ratios)
    loss = float(np.sum(m - n - n * np.log(m / n)))
    quadratic = float(np.sum((m - n) ** 2 / n))
    tolerance = 1e-9 * loss + 1e-12 * n.sum()     # round-off of the loss
    assert not _loss_exceeds(n.min(), quadratic / 2.0, loss + tolerance)


@pytest.fixture(scope="module")
def optimize():
    return _scipy_1_17()


@examples(16)
@given(seed=seeds, preset=st.sampled_from(["mixed", "product", "bell"]),
       set_name=set_names, log_lam=st.integers(2, 5))
def test_bfgs_port_matches_scipy_bit_for_bit(sets, optimize, seed, preset,
                                             set_name, log_lam):
    # from every rank-1 start, the port ends where scipy's BFGS ends when
    # its fallback line search, which the port leaves out, fails
    pset = sets[set_name]
    counts = sample_counts(preset_state(preset), pset, 10.0 ** log_lam,
                           np.random.default_rng(seed))
    n = counts.astype(float)
    args = (n, pset, _log_factorials(n))
    with mock.patch.object(optimize._optimize, "line_search_wolfe2",
                           lambda *a, **k: (None,) * 6):
        for x0 in _starts(_Inversion(n, pset), 1, None, 4):
            ref = _scipy_bfgs(optimize, x0, args)
            res = _bfgs.minimize(_negloglik_and_grad, x0, args=args,
                                 gtol=1e-7, maxiter=2000)
            assert np.array_equal(res.x, ref.x)
            assert res.fun == ref.fun
            assert (res.nit, res.nfev, res.status) == (
                ref.nit, ref.nfev, ref.status)


@examples(60)
@given(seed=seeds, rank=ranks, set_name=set_names,
       flips=st.lists(st.booleans(), min_size=4, max_size=4))
def test_bound_coefficient_invariant_under_column_sign_flips(
        sets, seed, rank, set_name, flips):
    # T and T with some columns negated give the same state, so C agrees
    pset = sets[set_name]
    m = random_model(rank, np.random.default_rng(seed))
    t = triangular(m)
    t[:, :rank] *= np.where(flips[:rank], -1.0, 1.0)
    flipped = CholeskyModel(rank, params_from_triangular(t, rank))
    c = bound_coefficient(m, pset).coefficient
    assert bound_coefficient(flipped, pset).coefficient == pytest.approx(
        c, rel=1e-8)


@examples(100)
@given(seed=seeds, rank1=ranks, rank2=ranks)
def test_fidelity_is_symmetric_and_in_unit_interval(seed, rank1, rank2):
    rng = np.random.default_rng(seed)
    rho1 = density_from_cholesky(random_model(rank1, rng))
    rho2 = density_from_cholesky(random_model(rank2, rng))
    f12 = fidelity(rho1, rho2)
    assert 0.0 <= f12 <= 1.0
    # square roots of round-off eigenvalues of a rank-deficient product
    # leave up to ~2e-8 of asymmetry
    assert fidelity(rho2, rho1) == pytest.approx(f12, abs=1e-7)


@examples(40)
@given(rank=ranks, data=st.data())
def test_density_from_cholesky_is_a_state_of_at_most_its_rank(rank, data):
    theta = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=RANK_NPARAMS[rank],
        max_size=RANK_NPARAMS[rank])))
    assume(np.max(np.abs(theta)) > 1e-100)
    rho = check_density(density_from_cholesky(CholeskyModel(rank, theta)))
    w = np.linalg.eigvalsh(rho)
    assert np.all(np.abs(w[:4 - rank]) <= 1e-12 * w[-1])


fillers = st.lists(st.tuples(st.integers(0, 16), st.sampled_from(
    ["", "   ", "# comment", "  # 7 8 9", "\t"])), max_size=6)


def _counts_lines(tokens, breaks, fillers):
    """Text lines holding `tokens`, a new line starting wherever `breaks`
    is set, with the filler lines inserted; also the 1-based line number
    of each token."""
    rows = [[0]]
    for i, b in enumerate(breaks, start=1):
        if b:
            rows.append([])
        rows[-1].append(i)
    for pos, text in sorted(fillers, reverse=True):
        rows.insert(min(pos, len(rows)), text)
    lines, where = [], {}
    for ln, row in enumerate(rows, start=1):
        if isinstance(row, str):
            lines.append(row)
        else:
            lines.append(" ".join(tokens[i] for i in row))
            where.update((i, ln) for i in row)
    return lines, where


@pytest.fixture(scope="module")
def counts_path(tmp_path_factory):
    return tmp_path_factory.mktemp("counts") / "counts.txt"


@examples(40)
@given(counts=st.lists(st.integers(0, 10**9), min_size=16, max_size=16),
       breaks=st.lists(st.booleans(), min_size=15, max_size=15),
       fillers=fillers)
def test_read_counts_round_trips(counts_path, counts, breaks, fillers):
    lines, _ = _counts_lines([str(c) for c in counts], breaks, fillers)
    counts_path.write_text("\n".join(lines) + "\n")
    assert read_counts(counts_path).tolist() == counts


@examples(40)
@given(bad=st.integers(0, 15),
       token=st.sampled_from(["1.5", "x", "-3", "3e2", "0x10"]),
       breaks=st.lists(st.booleans(), min_size=15, max_size=15),
       fillers=fillers)
def test_read_counts_reports_the_line_of_a_bad_token(
        counts_path, bad, token, breaks, fillers):
    tokens = [str(i) for i in range(16)]
    tokens[bad] = token
    lines, where = _counts_lines(tokens, breaks, fillers)
    counts_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CountsParseError) as err:
        read_counts(counts_path)
    assert err.value.line_number == where[bad]


# SimulationConfig field -> (sweep flag, valid values)
_SWEEP_FIELDS = {
    "true_state": ("--state", st.sampled_from(["mixed", "product", "bell"])),
    "rate": ("--rate", st.floats(0.5, 1e4)),
    "trials": ("--trials", st.integers(1, 500)),
    "estimator": ("--estimator", st.sampled_from(["mle16", "maice"])),
    "basis": ("--basis", st.sampled_from(["local", "inseparable"])),
    "seed": ("--seed", st.integers(0, 2**31)),
    "epsilon": ("--eps", st.floats(0.0, 0.5)),
    "acquisition_times": ("--times",
                          st.lists(st.floats(0.01, 100.0), min_size=1,
                                   max_size=5)),
}


def _simulate_config(file_values, flag_values):
    """_config_from_args for `simulate --config FILE` plus flags."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(file_values, fh)
        argv = ["simulate", "--config", path]
        for key, value in flag_values.items():
            if key == "acquisition_times":
                value = ",".join(repr(t) for t in value)
            argv += [_SWEEP_FIELDS[key][0], str(value)]
        return _config_from_args(build_parser().parse_args(argv))
    finally:
        os.remove(path)


@examples(40)
@given(data=st.data(),
       in_file=st.sets(st.sampled_from(sorted(_SWEEP_FIELDS))),
       in_flags=st.sets(st.sampled_from(sorted(_SWEEP_FIELDS))))
def test_config_flags_override_file_values(data, in_file, in_flags):
    # epsilon applies to product and bell only, so a config that sets it
    # sets one of them as its truth, wherever the truth comes from
    noisy = "epsilon" in in_file | in_flags
    if noisy and "true_state" not in in_file | in_flags:
        in_flags = in_flags | {"true_state"}

    def draw(k):
        if noisy and k == "true_state":
            return data.draw(st.sampled_from(["product", "bell"]))
        return data.draw(_SWEEP_FIELDS[k][1])

    file_values = {k: draw(k) for k in sorted(in_file)}
    flag_values = {k: draw(k) for k in sorted(in_flags)}
    cfg = _simulate_config(file_values, flag_values)
    want = {**SimulationConfig().__dict__, **file_values, **flag_values}
    want["acquisition_times"] = tuple(want["acquisition_times"])
    assert cfg == SimulationConfig(**want)


@examples(20)
@given(key=st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
       value=st.one_of(st.integers(), st.text(max_size=5)))
def test_config_unknown_keys_are_errors(key, value):
    assume(key not in SimulationConfig.__dataclass_fields__)
    with pytest.raises(TomographyError, match=key):
        _simulate_config({"trials": 2, key: value}, {})
