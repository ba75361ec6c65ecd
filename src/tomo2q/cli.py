"""Command-line front end.

Subcommands: estimate, simulate, bounds, compare-bases, tile.  A JSON
config file mirroring SimulationConfig may seed any subcommand's
options; explicit flags override file values.  Exit code 0 on
success, 2 on usage errors, 1 on any toolkit error.
"""

import argparse
import json
import sys

import numpy as np

from .estimation import RANK_NPARAMS, maice, mle
from .exceptions import InvariantViolation, TomographyError
from .fisher import bound_coefficient
from .projectors import inseparable_projector_set, local_projector_set
from .simulate import (
    _EPSILON_APPLIES,
    SimulationConfig,
    compare_bases,
    emit_results,
    preset_state,
    read_counts,
    run_sweep,
    tile_estimates,
    true_model,
)

_PRESETS = ("mixed", "product", "bell")


def _pset(name):
    return local_projector_set() if name == "local" \
        else inseparable_projector_set()


def _print_matrix(label, m):
    print(label)
    for row in m:
        print("  " + "  ".join("%+10.6f" % v for v in row))


def _write(text, out):
    """Write `text` to the file `out` with \\n line endings, or to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {out}")


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as e:
            raise TomographyError(f"config {path} is not JSON: {e}") from None
    if not isinstance(data, dict):
        raise TomographyError(f"config {path} must hold a JSON object")
    allowed = {f for f in SimulationConfig.__dataclass_fields__}
    bad = set(data) - allowed
    if bad:
        raise TomographyError(
            f"unknown config keys: {', '.join(sorted(bad))}")
    return data


def _parse_times(text):
    """The comma-separated --times list as floats."""
    times = []
    for t in text.split(","):
        try:
            times.append(float(t))
        except ValueError:
            raise TomographyError(
                f"--times entry {t!r} is not a number") from None
    return times


def _config_from_args(args):
    cfg = _load_config(args.config) if args.config else {}
    for flag, key in (("state", "true_state"), ("rate", "rate"),
                      ("trials", "trials"), ("estimator", "estimator"),
                      ("basis", "basis"), ("seed", "seed"),
                      ("eps", "epsilon")):
        v = getattr(args, flag, None)
        if v is not None:
            cfg[key] = v
    if args.times is not None:
        cfg["acquisition_times"] = _parse_times(args.times)
    return SimulationConfig(**cfg)


def _cmd_estimate(args):
    counts = read_counts(args.counts)
    pset = _pset(args.basis)
    if args.model == "mle16":
        best = mle(4, counts, pset)
        table = (best,)
    else:
        best, table = maice(counts, pset)
    print(f"projector set: {pset.name}")
    print("rank  nparams  log-likelihood        AIC")
    for r in table:
        mark = " *" if r.rank == best.rank else ""
        print(f"  {r.rank}     {RANK_NPARAMS[r.rank]:3d}   {r.log_likelihood:14.4f}  {r.aic:10.3f}{mark}")
    print(f"selected rank: {best.rank}")
    print(f"lambda-hat: {best.lambda_hat:.4f}")
    _print_matrix("rho-hat (real part):", best.rho_hat.real)
    _print_matrix("rho-hat (imaginary part):", best.rho_hat.imag)
    return 0


def _cmd_simulate(args):
    cfg = _config_from_args(args)
    result = run_sweep(cfg)
    _write(emit_results(result, fmt=args.format), args.out)
    total = sum(result.excluded)
    if total:
        print(f"excluded {total} non-converged trials", file=sys.stderr)
    return 0


def _state_for_bounds(args):
    if args.state in _PRESETS:
        return preset_state(args.state, args.eps)
    # a counts file's fit is the state; no noise weight applies to it
    if args.eps is not None:
        raise InvariantViolation(_EPSILON_APPLIES)
    counts = read_counts(args.state)
    best, _ = maice(counts, _pset(args.basis))
    return best.rho_hat


def _cmd_bounds(args):
    rho = _state_for_bounds(args)
    rank = None if args.rank == "auto" else int(args.rank)
    model = true_model(rho, rank=rank)
    pset = _pset(args.basis)
    rep = bound_coefficient(model, pset)
    print(f"projector set: {pset.name}")
    print(f"coordinate rank: {model.rank}")
    print(f"C = {rep.coefficient:.6f}")
    print("lambda      bound (2C/lambda)")
    for lam in (1e2, 1e3, 1e4, 1e5, 1e6):
        print(f"  {lam:8.0f}  {2.0 * rep.coefficient / lam:.6e}")
    return 0


def _cmd_compare(args):
    cfg = _config_from_args(args)
    cmp_ = compare_bases(cfg)
    cl, ci = cmp_.coefficients
    print(f"C_local       = {cl:.6f}")
    print(f"C_inseparable = {ci:.6f}")
    better = "inseparable" if ci < cl else "local"
    print(f"smaller asymptotic error: {better} set")
    if args.out:
        rows = []
        for basis, res in (("local", cmp_.local),
                           ("inseparable", cmp_.inseparable)):
            header, *body = emit_results(res).splitlines()
            rows += [basis + "," + row for row in body]
        _write("\n".join(["basis," + header] + rows) + "\n", args.out)
    return 0


def _cmd_tile(args):
    if len(args.estimates) != 9:
        raise TomographyError("tile needs exactly 9 counts files")
    pset = _pset(args.basis)
    mats = []
    for path in args.estimates:
        counts = read_counts(path)
        best, _ = maice(counts, pset)
        mats.append(best.rho_hat)
    grid = tile_estimates(mats)
    _write("".join(",".join("%.12g" % v for v in row) + "\n"
                   for row in grid), args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="tomo2q",
        description="Two-qubit state estimation and Monte Carlo "
                    "error-scaling toolkit.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="fit a state to one counts file")
    pe.add_argument("--counts", required=True)
    pe.add_argument("--basis", choices=("local", "inseparable"),
                    default="local")
    pe.add_argument("--model", choices=("mle16", "maice"), default="maice")
    pe.set_defaults(func=_cmd_estimate)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--state", choices=_PRESETS)
    sweep.add_argument("--rate", type=float)
    sweep.add_argument("--times", help="comma-separated acquisition times")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--estimator", choices=("mle16", "maice"))
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--eps", type=float)
    sweep.add_argument("--config",
                       help="JSON file with SimulationConfig fields")
    sweep.add_argument("--out")

    ps = sub.add_parser("simulate", parents=[sweep],
                        help="Monte Carlo error-scaling sweep")
    ps.add_argument("--basis", choices=("local", "inseparable"))
    ps.add_argument("--format", choices=("csv", "tsv"), default="csv")
    ps.set_defaults(func=_cmd_simulate)

    pb = sub.add_parser("bounds", help="asymptotic error bound for a state")
    pb.add_argument("--state", required=True,
                    help="preset name or counts file")
    pb.add_argument("--basis", choices=("local", "inseparable"),
                    default="local")
    pb.add_argument("--rank", choices=("auto", "1", "2", "3", "4"),
                    default="auto")
    pb.add_argument("--eps", type=float)
    pb.set_defaults(func=_cmd_bounds)

    pc = sub.add_parser("compare-bases", parents=[sweep],
                        help="same sweep under both projector sets")
    pc.set_defaults(func=_cmd_compare)

    pt = sub.add_parser("tile", help="12x12 tiling of nine estimates")
    pt.add_argument("--estimates", nargs="+", required=True,
                    help="nine counts files")
    pt.add_argument("--basis", choices=("local", "inseparable"),
                    default="local")
    pt.add_argument("--out")
    pt.set_defaults(func=_cmd_tile)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TomographyError, OSError) as e:
        line = getattr(e, "line_number", None)
        where = "" if line is None else f"line {line}: "
        print(f"error: {where}{e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
