"""Run one benchmark workload and print its metrics.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  One process with one caller runs the workload's operations in a
closed loop, each after the previous one returned, with BLAS limited to
one thread.  A machine-speed probe (perfbench.speed) runs between
operations at least every GAP_S seconds, and times are reported at
reference speed as well as on the wall clock.

--trace 0 measures for S seconds (at least `min_ops` operations) and
reports the end-to-end metrics.  --trace 1 runs the workload's fixed
first `fixed_ops` operations three times -- untraced, traced, traced
again -- and reports the per-layer metrics of the first traced pass, the
tracing overhead (mean traced busy time over untraced busy time), and how
many count metrics differ between the two traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A run whose
outputs fail a check prints "correct": false and exits with 1.  Every
run also writes its full record, with the machine and environment, under
perfbench/out/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Modules that import numpy (perfbench.speed, perfbench.workloads, tomo2q)
# are imported inside functions, after main() has limited BLAS threads.
from perfbench import ROOT, stats, tracing, use_source_tree

OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_latency_ms_p50": "ms",
    "ref_latency_ms_tail": "ms",
    "ref_throughput_per_s": "1/s",
}


def _per_layer():
    out = {}
    for name in tracing.SPANS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for name in tracing.COUNTERS:
        # the direction of the rank histogram carries no meaning
        out[name] = ("count", "lower")
    out.update({
        "estimation.mle.converged_frac": ("ratio", "higher"),
        "estimation.maice.aic_mean": ("aic", "lower"),
        "ops.attempted": ("count", "higher"),
        "ops.failed": ("count", "lower"),
        "setup.import_s": ("s", "lower"),
        "setup.first_fit_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.count_mismatches": ("count", "lower"),
        "trace.unpatched": ("count", "lower"),
    })
    return out


PER_LAYER = _per_layer()


class Tally:
    """What a sequence of operations did, on the wall clock and at
    reference speed.

    `units` and `failed` count every operation; `outcomes` holds, per
    distinct input, the (units, failed) of its operation, so that
    `attempted` and `inputs_failed` count an input that a cycling stream
    repeats only once.
    """

    def __init__(self):
        self.units = 0
        self.failed = 0
        self.outcomes = {}
        self.busy = 0.0
        self.ref_busy = 0.0
        self.latencies = []
        self.ref_latencies = []
        self.aics = []
        self.probes = []

    @property
    def attempted(self):
        return sum(u for u, _ in self.outcomes.values())

    @property
    def inputs_failed(self):
        return sum(f for _, f in self.outcomes.values())


def run_ops(wl, keep_going, probe, tracer=None):
    """Run operations 0, 1, ... while keep_going(i); check each output.

    An operation that raises TomographyError fails all its units and
    gives no latency sample.  Raises CheckError on a wrong output, or
    when a repeated input does not fail the same units as before.
    """
    from tomo2q.exceptions import TomographyError

    from perfbench.speed import GAP_S, at_reference_speed
    from perfbench.workloads import CheckError
    tally = Tally()
    tally.probes.append(probe.sample())
    last_probe = time.perf_counter()
    pending = []                    # (seconds, ok) since the last probe

    def flush():
        tally.probes.append(probe.sample(sum(dt for dt, _ in pending)))
        before, after = tally.probes[-2:]
        for dt, ok in pending:
            ref = at_reference_speed(dt, before, after)
            tally.ref_busy += ref
            if ok:
                tally.ref_latencies.append(ref)
        pending.clear()

    i = 0
    while keep_going(i):
        x = wl.input(i)
        block = tracer.span("bench.op") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with block:
                out = wl.call(x)
        except TomographyError:
            out = None
        dt = time.perf_counter() - t0
        tally.busy += dt
        pending.append((dt, out is not None))
        if out is None:
            units = failed = wl.units_per_op
        else:
            outcome = wl.check(x, out)
            units, failed = outcome.units, outcome.failed
            tally.latencies.append(dt)
            if i < wl.fixed_ops:
                tally.aics.extend(outcome.aics)
        tally.units += units
        tally.failed += failed
        key = wl.key(i)
        first = tally.outcomes.setdefault(key, (units, failed))
        if first != (units, failed):
            raise CheckError(f"input {key} failed {failed} of {units} "
                             f"units, and {first[1]} of {first[0]} before")
        i += 1
        if time.perf_counter() - last_probe >= GAP_S:
            flush()
            last_probe = time.perf_counter()
    if pending:
        flush()
    return tally


def measure_setup(wl, seed, probe):
    """Time SETUP_PROBES fresh interpreters running the workload's cold
    path, after one unrecorded run that compiles bytecode."""
    from perfbench.speed import at_reference_speed
    cmd = [sys.executable, "-m", "perfbench.probe", wl.name, str(seed)]
    if wl.name == "estimate-boundary":
        counts = OUT / f"probe-counts-{seed}.txt"
        counts.write_text(" ".join(str(int(v)) for v in wl.input(1)[1])
                          + "\n")
        cmd.append(str(counts))
    samples = []
    before = probe.sample(1.0)      # about one interpreter's life
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        after = probe.sample(wall)
        if k:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            samples.append({"wall_s": wall, "ref_s": at_reference_speed(
                wall, before, after), **rec})
        before = after
    return samples


def environment(args):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(wl, tally, setup):
    """BENCHMARK.json's metrics, and the same figures under the names a
    reader of this workload knows, with wall-clock values beside them."""
    from perfbench.speed import REF_S
    ref_tail, pct, n = stats.tail(tally.ref_latencies)
    done = tally.units - tally.failed
    metrics = {
        "setup_s": statistics.median(s["ref_s"] for s in setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_latency_ms_p50": 1e3 * statistics.median(tally.ref_latencies),
        "ref_latency_ms_tail": 1e3 * ref_tail,
        "ref_throughput_per_s": done / tally.ref_busy,
    }
    wall_tail = stats.tail(tally.latencies)[0]
    lat = wl.latency_label
    named = {
        "setup_s": (metrics["setup_s"], "s",
                    f"median of {len(setup)} fresh interpreters; wall "
                    f"{statistics.median(s['wall_s'] for s in setup):.4g}"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "workload process"),
        f"{lat}_p50": (metrics["ref_latency_ms_p50"], "ms",
                       f"per {wl.op}, n={n}; wall "
                       f"{1e3 * statistics.median(tally.latencies):.4g}"),
        f"{lat}_tail": (metrics["ref_latency_ms_tail"], "ms",
                        f"p{pct:.1f}, n={n}, {stats.TAIL_BEYOND} beyond; "
                        f"wall {1e3 * wall_tail:.4g}"),
        wl.throughput_label: (metrics["ref_throughput_per_s"], "1/s",
                              f"{done} {wl.unit}s; wall "
                              f"{done / tally.busy:.4g}"),
        "fail_frac": (tally.inputs_failed / tally.attempted, "ratio",
                      f"{tally.inputs_failed}/{tally.attempted} distinct "
                      f"inputs' {wl.unit}s; {tally.failed}/{tally.units} "
                      f"over all operations"),
        "speed_probe_ms": (1e3 * statistics.median(tally.probes), "ms",
                           f"median of {len(tally.probes)}; reference "
                           f"{1e3 * REF_S:g}"),
    }
    if tally.aics:
        named["aic_mean"] = (statistics.fmean(tally.aics), "aic",
                             f"first {wl.fixed_ops} ops, "
                             f"{len(tally.aics)} estimates")
    return metrics, named


def traced(wl, setup, probe):
    """Per-layer metrics from the fixed operations; see the module doc."""
    def fixed(i):
        return i < wl.fixed_ops

    plain = run_ops(wl, fixed, probe)
    passes = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            tracing.patch_tomo2q(tracer)
            tally = run_ops(wl, fixed, probe, tracer)
        m = tracing.span_metrics(tracer)
        m["ops.attempted"] = tally.attempted
        m["ops.failed"] = tally.inputs_failed
        passes.append((tracer, tally, m))
    (tracer, tally, metrics), (_, _, again) = passes
    repeatable = [k for k, (unit, _) in PER_LAYER.items()
                  if unit == "count" and k in metrics] + [
        "estimation.mle.converged_frac", "estimation.maice.aic_mean"]
    mismatched = [k for k in repeatable if metrics[k] != again[k]]
    metrics.update({
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.first_fit_s":
            statistics.median(s["first_fit_s"] for s in setup),
        "trace.overhead": (0.5 * (tally.ref_busy + passes[1][1].ref_busy)
                           / plain.ref_busy),
        "trace.count_mismatches": len(mismatched),
        "trace.unpatched": len(tracer.missing),
    })
    return tally, metrics, tracer, mismatched


def main(argv=None):
    p = argparse.ArgumentParser(prog="python3 -m perfbench.run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not use_source_tree():
        print(f"error: no tomo2q source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS, CheckError, check_published
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    record = {"env": env}
    probe = SpeedProbe()
    wl = WORKLOADS[args.workload](args.seed)
    try:
        setup = measure_setup(wl, args.seed, probe)
        record["setup_probes"] = setup
        wl.warm_up()
        check_published()
        if args.trace:
            tally, metrics, tracer, mismatched = traced(wl, setup, probe)
            record.update(count_mismatches=mismatched,
                          unpatched=tracer.missing)
            if metrics["estimation.maice.nesting_violations"]:
                raise CheckError("per-rank log-likelihoods not nested in "
                                 "a traced maice table")
            spans = OUT / f"spans-{wl.name}-seed{args.seed}.json"
            spans.write_text(json.dumps(
                {"env": env, "fields": ["id", "parent", "root", "name",
                                        "start", "end", "error"],
                 "spans": [s.as_list() for s in tracer.spans]}))
            for k in mismatched:
                print(f"FLAG count metric {k} differs between two traced "
                      f"passes of the same operations")
            for k in tracer.missing:
                print(f"FLAG binding {k} is absent and was not traced")
            named = {k: (v, PER_LAYER[k][0], "") for k, v in metrics.items()}
        else:
            start = time.perf_counter()
            tally = run_ops(wl, lambda i: i < wl.min_ops
                            or time.perf_counter() - start < args.seconds,
                            probe)
            metrics, named = end_to_end(wl, tally, setup)
        correct = True
    except CheckError as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        record["check_error"] = str(e)
        # the run counts as one failed attempt
        correct, metrics, named = False, {}, {}
        tally = Tally()
        tally.outcomes[None] = (1, 1)

    for k, (v, unit, note) in named.items():
        print(f"{k:44s} {v:14.6g} {unit:6s} {note}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.inputs_failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END.get(k)
                                             or PER_LAYER[k][0])}
                    for k, v in metrics.items()},
    }
    record.update(result=result, named={k: list(v) for k, v in named.items()})
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
