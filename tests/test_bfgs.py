"""The rank-1 BFGS port against scipy, its members' independence on a
lockstep stack, and an import that needs numpy only."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tomo2q
from tomo2q import _bfgs
from tomo2q.estimation import (_FIT_ERRSTATE, _Inversion, _log_factorials,
                               _negloglik_and_grad, _starts, mle)

# the published tables in row-major grid order (c01, c02)
C01 = [615, 553, 550, 576, 613, 605, 575, 622,
       596, 577, 574, 569, 609, 601, 591, 569]
C02 = [42, 45, 60, 56, 25, 2504, 1309, 1431,
       31, 1148, 514, 599, 33, 1125, 576, 487]
# bell(0.05) on the inseparable set at lambda 1e4: scipy's fallback line
# search lets the first jittered start converge, where the port stops with
# status 2 (f above scipy's by 6e-11); another start wins either way
RESCUED = [9790, 135, 132, 118, 2611, 2531, 2568, 2536,
           2462, 2515, 2554, 2445, 2488, 2500, 2597, 2451]
# corpus draws on the local set whose line searches bisect, zoom by cubic
# interpolation (mixed, lambda 1e3) and step on DCSRCH's modified
# function (bell(0.05), lambda 1e4)
BISECTED = [263, 246, 247, 238, 224, 250, 257, 254,
            246, 247, 252, 258, 271, 263, 244, 274]
MODIFIED = [4843, 117, 2554, 2479, 137, 4916, 2492, 2551,
            2508, 2567, 4819, 2495, 2462, 2493, 2577, 4915]


VECTORS = pytest.mark.parametrize(
    "counts, set_name", [(C01, "local"), (C02, "local"), (RESCUED, "insep"),
                         (BISECTED, "local"), (MODIFIED, "local")],
    ids=["c01", "c02", "fallback-rescue", "bisection", "modified-function"])


def _scipy_1_17():
    scipy = pytest.importorskip("scipy")
    if tuple(map(int, scipy.__version__.split(".")[:2])) < (1, 17):
        pytest.skip("the port follows scipy 1.17's BFGS")
    from scipy import optimize
    return optimize


def _scipy_bfgs(optimize, x0, args):
    return optimize.minimize(_negloglik_and_grad, x0, args=args, jac=True,
                             method="BFGS",
                             options={"gtol": 1e-7, "maxiter": 2000})


def _bfgs_stack(starts, args):
    """The port's BfgsResults from the stack of starts, as `mle` runs it
    at rank 1."""
    return _bfgs.minimize(_negloglik_and_grad, np.array(starts), args=args,
                          gtol=1e-7, maxiter=2000)


def _assert_same_run(res, other):
    """A member's run ends where the other run, the port's or scipy's,
    ends, after as many iterations and evaluations, with the same
    status."""
    assert res.x.tobytes() == other.x.tobytes()
    assert (res.fun, res.nit, res.nfev, res.status) == (
        other.fun, other.nit, other.nfev, other.status)


@VECTORS
def test_bfgs_port_matches_scipy(local_set, insep_set, monkeypatch,
                                 counts, set_name):
    # the reference is scipy's BFGS with its fallback line search failing,
    # which is the search the port leaves out
    optimize = _scipy_1_17()
    monkeypatch.setattr(optimize._optimize, "line_search_wolfe2",
                        lambda *a, **k: (None,) * 6)
    pset = local_set if set_name == "local" else insep_set
    n = np.asarray(counts, dtype=float)
    args = (n, pset, _log_factorials(n))
    starts = _starts(_Inversion(n, pset), 1, None, 4)
    # one lockstep run of every start; each member is scipy's run alone
    results = _bfgs_stack(starts, args)
    assert len(results) == len(starts)
    for x0, res in zip(starts, results):
        _assert_same_run(res, _scipy_bfgs(optimize, x0, args))
    if counts in (C01, C02):
        # a start ends on a failed line search
        assert 2 in {res.status for res in results}


@VECTORS
def test_each_member_has_the_bits_of_its_run_alone(local_set, insep_set,
                                                   counts, set_name):
    # a member's run depends on its start alone: in the full stack, as a
    # stack of one and in reversed start order it ends at the same point
    # after as many iterations and evaluations, with the same status.
    # Fails if the members share a step length or an inverse-Hessian
    # update, or if the objective runs one matrix product over the stack
    pset = local_set if set_name == "local" else insep_set
    n = np.asarray(counts, dtype=float)
    args = (n, pset, _log_factorials(n))
    starts = _starts(_Inversion(n, pset), 1, None, 4)
    stacked = _bfgs_stack(starts, args)
    backwards = _bfgs_stack(starts[::-1], args)[::-1]
    for x0, res, back in zip(starts, stacked, backwards):
        for other in (_bfgs_stack([x0], args)[0], back):
            _assert_same_run(res, other)
    assert stacked.nfev == sum(res.nfev for res in stacked)


def test_overflowing_member_leaves_the_others_unchanged(local_set):
    # the warm start of mle(1, c01, local, warm=[1e160] * 7): its means
    # overflow, so its objective is NaN and it stops at once with status
    # 3.  Under the fits' errstate no RuntimeWarning leaks, and every
    # other member ends as it does without it
    n = np.asarray(C01, dtype=float)
    args = (n, local_set, _log_factorials(n))
    starts = _starts(_Inversion(n, local_set), 1, None, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**_FIT_ERRSTATE):
            warmed = _bfgs_stack([starts[0], np.full(7, 1e160), *starts[1:]],
                                 args)
    overflowed = warmed[1]
    assert overflowed.x.tobytes() == np.full(7, 1e160).tobytes()
    assert math.isnan(overflowed.fun)
    assert (overflowed.nit, overflowed.nfev, overflowed.status) == (0, 1, 3)
    for res, other in zip(_bfgs_stack(starts, args),
                          warmed[:1] + warmed[2:]):
        _assert_same_run(res, other)


def test_rank_1_fit_needs_no_fallback_search(insep_set):
    # scipy's full BFGS, fallback included, finds no better rank-1 fit
    # on the vector where that fallback rescues a start
    optimize = _scipy_1_17()
    n = np.asarray(RESCUED, dtype=float)
    args = (n, insep_set, _log_factorials(n))
    best = min(_scipy_bfgs(optimize, x0, args).fun
               for x0 in _starts(_Inversion(n, insep_set), 1, None, 4))
    assert mle(1, n, insep_set).log_likelihood == pytest.approx(-best,
                                                                abs=1e-6)


def test_import_loads_no_scipy():
    src = Path(tomo2q.__file__).resolve().parents[1]
    code = ("import sys, tomo2q, tomo2q.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"
