"""Tests of the benchmark's own helpers: the tail rule, self-time
arithmetic, span bookkeeping, restoring patched bindings, and the
agreement of BENCHMARK.json with the metrics the benchmark prints."""

import importlib
import itertools
import json
from types import SimpleNamespace

import pytest

from perfbench import ROOT, run, use_source_tree
from perfbench.stats import quartile_spread, tail
from perfbench.tracing import (BINDINGS, Tracer, nesting_violations,
                               patch_tomo2q, self_time, summarize)

assert use_source_tree()


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 100)
    value, pct, n = tail([5.0] * 3 + list(range(20, 28)))
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_quartile_spread():
    med, q1, q3, share = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and q3 > q1
    assert share == pytest.approx((q3 - q1) / 3.0)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    assert self_time(0.0, 10.0, []) == 10.0
    # (1, 3) and (2, 4) overlap: 3 s covered; (8, 12) covers 2 s inside
    assert self_time(0.0, 10.0, [(8.0, 12.0), (2.0, 4.0), (1.0, 3.0)]) \
        == pytest.approx(5.0)
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_spans_nest_and_share_the_root_id():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    with tracer.span("op"):         # opens at t=0
        outer()                     # 1..6, inner at 2..3 and 4..5
    op, out, in1, in2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [-1, op.id, out.id, out.id]
    assert {s.root for s in tracer.spans} == {op.id}
    agg = summarize(tracer.spans)
    assert agg["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0,
                            "errors": 0}
    assert agg["outer"]["s"] == 5.0 and agg["outer"]["self_s"] == 3.0
    assert agg["op"]["self_s"] == 2.0


def test_failed_call_records_its_error_and_reraises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].error == "KeyError"
    assert summarize(tracer.spans)["boom"]["errors"] == 1


def _bindings():
    return {(m, a): getattr(importlib.import_module(f"tomo2q.{m}"), a)
            for m, a, _ in BINDINGS}


def test_patching_restores_every_binding():
    from tomo2q import fisher, simulate
    before = _bindings()
    with Tracer() as tracer:
        patch_tomo2q(tracer)
        assert tracer.missing == []
        assert all(getattr(importlib.import_module(f"tomo2q.{m}"), a)
                   is not f for (m, a), f in before.items())
        fisher.bound_coefficient(
            simulate.true_model(simulate.preset_state("mixed")),
            simulate.local_projector_set())
    assert {s.name for s in tracer.spans} >= {
        "fisher.bound_coefficient", "fisher.sld", "linalg.pinv"}
    assert all(after is before[k] for k, after in _bindings().items())


def test_patching_restores_bindings_when_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            patch_tomo2q(tracer)
            raise RuntimeError("stop")
    assert all(after is before[k] for k, after in _bindings().items())


def test_missing_binding_is_recorded_not_patched():
    module = SimpleNamespace(__name__="fake")
    with Tracer() as tracer:
        tracer.patch(module, "absent", "fake.absent")
    assert tracer.missing == ["fake.absent"]


def test_nesting_violations_counts_rank_that_falls_below_the_one_beneath():
    def table(*lls):
        return [SimpleNamespace(rank=r, log_likelihood=ll)
                for r, ll in zip((1, 2, 3, 4), lls)]
    assert nesting_violations(table(-100.0, -90.0, -90.0, -80.0)) == 0
    assert nesting_violations(table(-100.0, -90.0, -95.0, -80.0)) == 1


class _Cycle:
    """A workload stub whose stream cycles through inputs 0, 1, 2; the
    inputs in `fails` raise, the first `flaky` times only if given."""
    units_per_op = 1
    fixed_ops = 0

    def __init__(self, fails, flaky=None):
        self.fails = fails
        self.flaky = flaky

    def key(self, i):
        return i % 3

    def input(self, i):
        return i % 3

    def call(self, x):
        from tomo2q.exceptions import TomographyError
        if x in self.fails and self.flaky != 0:
            if self.flaky:
                self.flaky -= 1
            raise TomographyError(x)
        return x

    def check(self, x, out):
        from perfbench.workloads import Outcome
        return Outcome(1, 0, ())


_PROBE = SimpleNamespace(sample=lambda covering_s=0.0: 0.005)


def test_repeated_input_is_attempted_and_failed_once():
    tally = run.run_ops(_Cycle({2}), lambda i: i < 7, _PROBE)
    assert (tally.units, tally.failed) == (7, 2)
    assert (tally.attempted, tally.inputs_failed) == (3, 1)
    assert len(tally.latencies) == 5


def test_repeated_input_that_fails_only_once_fails_the_check():
    from perfbench.workloads import CheckError
    with pytest.raises(CheckError):
        run.run_ops(_Cycle({2}, flaky=1), lambda i: i < 7, _PROBE)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(k, u, b) for k, (u, b) in run.PER_LAYER.items()]
