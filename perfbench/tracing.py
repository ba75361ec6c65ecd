"""In-memory span tracing of tomo2q, installed from outside the package.

A Tracer replaces a module-level function binding -- the name a caller
looks up, such as `tomo2q.estimation.minimize` for the call inside `mle`
-- by a wrapper that records a span: name, start, end, the id of the
enclosing span and the id of the root span (one benchmark operation).
Observers attached to a few bindings also count solver work from the
returned values.  Every original binding is put back when the Tracer's
`with` block ends, also when the traced code raises.
"""

import collections
import functools
import importlib
import time


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "error")

    def __init__(self, id_, parent, root, name, start):
        self.id = id_
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = start
        self.error = ""

    def as_list(self):
        return [self.id, self.parent, self.root, self.name, self.start,
                self.end, self.error]


class Tracer:
    """Spans and counters kept in memory, plus the bindings it patched."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else -1,
                    parent.root if parent else len(self.spans), name,
                    self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span around the block."""
        return _SpanBlock(self, name)

    def wrap(self, fn, name, observe=None):
        """`fn` recording a span per call; `name` may be a function of
        (args, kwargs); `observe(tracer, args, kwargs, result)` runs after
        a call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, observe=None):
        """Replace `module.attr` by its traced wrapper until restore()."""
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if any(m is module and a == attr for m, a, _ in self._saved):
            raise ValueError(f"{module.__name__}.{attr} is already patched")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, observe))

    def restore(self):
        """Put back every binding patch() replaced, last patched first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class _SpanBlock:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.span.error = exc_type.__name__
        self.tracer._close(self.span)
        return False


def self_time(start, end, children):
    """Length of [start, end] not covered by any (start, end) in children."""
    covered = 0.0
    reach = start
    for s, e in sorted(children):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return (end - start) - covered


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, errors."""
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        agg = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "errors": 0})
        agg["calls"] += 1
        agg["s"] += sp.end - sp.start
        agg["self_s"] += self_time(sp.start, sp.end, children.get(sp.id, ()))
        agg["errors"] += bool(sp.error)
    return out


# Spans reported per layer, each with calls, s (inclusive) and self_s.
SPANS = (
    "simulate.run_sweep",
    "simulate.sample_counts",
    "estimation.maice",
    "estimation.mle.r1",
    "estimation.mle.r2",
    "estimation.mle.r3",
    "estimation.mle.r4",
    "estimation.minimize",
    "projectors.linear_tomography",
    "projectors.mean_counts",
    "projectors.mean_counts_of_density",
    "states.fidelity",
    "states.bures_distance_sq",
    "states.density_from_cholesky",
    "fisher.bound_coefficient",
    "fisher.fisher_analytic",
    "fisher.sld_fisher",
    "fisher.sld",
    "fisher.density_gradient",
    "linalg.pinv",
    "linalg.psd_sqrt",
)

# Counters the observers below fill, reported as they stand.
COUNTERS = (
    "estimation.minimize.calls_bfgs",
    "estimation.minimize.calls_nm",
    "estimation.minimize.nfev",
    "estimation.mle.r1.iterations",
    "estimation.mle.r2.iterations",
    "estimation.mle.r3.iterations",
    "estimation.mle.r4.iterations",
    "estimation.maice.selected_r1",
    "estimation.maice.selected_r2",
    "estimation.maice.selected_r3",
    "estimation.maice.selected_r4",
    "estimation.maice.nesting_violations",
)

# Per-rank log-likelihoods of one maice table may fall short of the rank
# below by round-off only.
NESTING_RTOL = 1e-9


def _mle_name(args, kwargs):
    return f"estimation.mle.r{args[0] if args else kwargs['rank']}"


def _observe_minimize(tracer, args, kwargs, res):
    method = kwargs.get("method", args[3] if len(args) > 3 else None)
    kind = {"BFGS": "calls_bfgs", "NELDER-MEAD": "calls_nm"}.get(
        str(method).upper())
    if kind:
        tracer.counts[f"estimation.minimize.{kind}"] += 1
    tracer.counts["estimation.minimize.nfev"] += int(getattr(res, "nfev", 0))


def _observe_mle(tracer, args, kwargs, res):
    tracer.counts[_mle_name(args, kwargs) + ".iterations"] += int(
        getattr(res, "iterations", 0))
    tracer.counts["estimation.mle.converged"] += bool(res.converged)


def nesting_violations(table):
    """Ranks whose log-likelihood falls below the rank beneath them."""
    lls = [r.log_likelihood for r in sorted(table, key=lambda r: r.rank)]
    return sum(1 for lo, hi in zip(lls, lls[1:])
               if hi < lo - NESTING_RTOL * max(1.0, abs(lo)))


def _observe_maice(tracer, args, kwargs, res):
    best, table = res
    tracer.counts[f"estimation.maice.selected_r{best.rank}"] += 1
    tracer.counts["estimation.maice.nesting_violations"] += \
        nesting_violations(table)
    tracer.values["estimation.maice.aic"].append(float(best.aic))


# (module whose global the caller looks up, attribute, span name).  A
# function imported into several modules is patched at each binding that
# a traced caller uses.
BINDINGS = (
    ("simulate", "run_sweep", "simulate.run_sweep"),
    ("simulate", "sample_counts", "simulate.sample_counts"),
    ("simulate", "maice", "estimation.maice"),
    ("simulate", "mle", _mle_name),
    ("simulate", "fidelity", "states.fidelity"),
    ("simulate", "bures_distance_sq", "states.bures_distance_sq"),
    ("simulate", "bound_coefficient", "fisher.bound_coefficient"),
    ("simulate", "mean_counts_of_density",
     "projectors.mean_counts_of_density"),
    ("estimation", "maice", "estimation.maice"),
    ("estimation", "mle", _mle_name),
    ("estimation", "minimize", "estimation.minimize"),
    ("estimation", "linear_tomography", "projectors.linear_tomography"),
    ("estimation", "mean_counts", "projectors.mean_counts"),
    ("estimation", "density_from_cholesky", "states.density_from_cholesky"),
    ("states", "fidelity", "states.fidelity"),
    ("states", "psd_sqrt", "linalg.psd_sqrt"),
    ("fisher", "bound_coefficient", "fisher.bound_coefficient"),
    ("fisher", "fisher_analytic", "fisher.fisher_analytic"),
    ("fisher", "sld_fisher", "fisher.sld_fisher"),
    ("fisher", "sld", "fisher.sld"),
    ("fisher", "density_gradient", "fisher.density_gradient"),
    ("fisher", "pinv", "linalg.pinv"),
    ("fisher", "density_from_cholesky", "states.density_from_cholesky"),
)

_OBSERVERS = {
    "minimize": _observe_minimize,
    "mle": _observe_mle,
    "maice": _observe_maice,
}


def patch_tomo2q(tracer):
    """Patch every binding in BINDINGS; absent ones land in tracer.missing."""
    for module_name, attr, name in BINDINGS:
        module = importlib.import_module(f"tomo2q.{module_name}")
        tracer.patch(module, attr, name, _OBSERVERS.get(attr))


def span_metrics(tracer):
    """Per-layer metrics of SPANS and COUNTERS from one traced pass."""
    agg = summarize(tracer.spans)
    out = {}
    for name in SPANS:
        a = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.s"] = a["s"]
        out[f"{name}.self_s"] = a["self_s"]
    for name in COUNTERS:
        out[name] = tracer.counts[name]
    fits = sum(out[f"estimation.mle.r{r}.calls"] for r in (1, 2, 3, 4))
    # vacuously 1 on a workload that fits nothing
    out["estimation.mle.converged_frac"] = (
        tracer.counts["estimation.mle.converged"] / fits if fits else 1.0)
    aics = tracer.values["estimation.maice.aic"]
    out["estimation.maice.aic_mean"] = sum(aics) / len(aics) if aics else 0.0
    return out
