"""Run one workload on several seeds and report each metric's spread.

    python3 -m perfbench.spread --workload NAME [--seeds 1,2,3] [--trace 0]

Runs `python3 -m perfbench.run` once per seed, one after another, with
BENCHMARK.json's run_seconds, and prints per metric the median, the
quartiles and (q3 - q1) / median.  For end-to-end metrics it also prints
the bound and whether the spread is below a third of it.  --trace 1
reports the per-layer metrics the same way.

A gain claimed for a change must also hold on a seed that was not used
while the change was written.
"""

import argparse
import json
import subprocess
import sys

from perfbench import ROOT
from perfbench.stats import quartile_spread


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "-m", "perfbench.run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs incorrect")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(prog="python3 -m perfbench.spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        result = run_once(args.workload, seed, seconds, args.trace)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']}", flush=True)
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        med, q1, q3, share = quartile_spread(vs)
        line = (f"{k:44s} median {med:12.6g}  q1 {q1:12.6g}  "
                f"q3 {q3:12.6g}  spread {share:8.4f}")
        if k in bounds:
            ok = "ok" if share < bounds[k] / 3 else "WIDE"
            line += f"  bound {bounds[k]}  {ok}"
        print(line)


if __name__ == "__main__":
    main()
