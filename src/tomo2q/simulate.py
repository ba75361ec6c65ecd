"""Monte Carlo trial harness, sweeps over ensemble size, basis
comparison, tiling visualization data, and counts-file I/O.

Every trial draws Poisson counts at lambda = rate * acquisition_time,
estimates the state, and records fidelity and squared Bures distance
to the truth.  The seed drives only the Poisson sampling: per-trial
generators are derived from (seed, time index, trial index), so
aggregates are independent of execution order and output files are
byte-identical under replay.  An estimate is a function of its counts
and the restart count alone.
"""

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .estimation import (EstimationResult, _closed_form_step, _is_integer,
                         maice, mle)
from .exceptions import CountsParseError, InvariantViolation
from .fisher import BoundReport, bound_coefficient
# run_sweep decomposes the truth once, draws from means computed once
# and derives the Bures distance from the fidelity it has, so it calls
# none of mean_counts_of_density, fidelity and bures_distance_sq; they
# stay importable here because perfbench's tracing patches them
from .projectors import (
    ProjectorSet,
    _probabilities,
    _scaled_means,
    inseparable_projector_set,
    local_projector_set,
    mean_counts_of_density,  # noqa: F401
    product_ket,
)
from .states import (
    CholeskyModel,
    _cholesky_from_eigh,
    _density_eigh,
    _density_errors,
    _fidelities_of_sqrt,
    _sqrt_from_eigh,
    bures_distance_sq,  # noqa: F401
    check_density,
    density_from_cholesky,
    fidelity,  # noqa: F401
)

_PRESET_EPS = {"mixed": 0.0, "product": 0.05, "bell": 0.05}
_SWEEP_RESTARTS = 1     # jittered extra starts per rank 1-3 fit in a sweep
_INT64_MAX = int(np.iinfo(np.int64).max)    # largest count read_counts keeps
_EPSILON_APPLIES = "epsilon applies only to the product and bell presets"


def preset_state(name, epsilon=None):
    """Canonical analog states: mixed, product, bell.  `epsilon`, the
    weight of the white noise, applies to product and bell only."""
    if name not in _PRESET_EPS:
        raise InvariantViolation(
            f"unknown preset {name!r}; choose mixed, product, or bell")
    if name == "mixed" and epsilon is not None:
        raise InvariantViolation(_EPSILON_APPLIES)
    eps = _PRESET_EPS[name] if epsilon is None else float(epsilon)
    if not 0.0 <= eps < 1.0:
        raise InvariantViolation("epsilon must lie in [0, 1)")
    eye4 = np.eye(4, dtype=complex)
    if name == "mixed":
        return eye4 / 4.0
    if name == "product":
        k = product_ket("HV")
    else:
        k = (product_ket("HH") + product_ket("VV")) / np.sqrt(2.0)
    rho = (1.0 - eps) * np.outer(k, k.conj()) + eps * eye4 / 4.0
    return rho


# bool is a Real, so without the bool test a config file's true would
# pass as the number 1 and false as 0
def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimulationConfig:
    true_state: object = "mixed"        # preset name or CholeskyModel
    rate: float = 500.0
    acquisition_times: tuple = (0.2, 0.5, 1.0, 2.0, 5.0)
    trials: int = 200
    estimator: str = "maice"
    basis: str = "local"
    seed: int = 0
    epsilon: float = None

    def __post_init__(self):
        if not (isinstance(self.true_state, CholeskyModel) or isinstance(
                self.true_state, str) and self.true_state in _PRESET_EPS):
            raise InvariantViolation(
                "true_state must be mixed, product, bell or a CholeskyModel, "
                f"got {self.true_state!r}")
        if not (_is_real(self.rate) and 0 < self.rate < math.inf):
            raise InvariantViolation("rate must be a positive finite number")
        if not _is_integer(self.trials) or self.trials < 1:
            raise InvariantViolation("trials must be a positive integer")
        if self.estimator not in ("mle16", "maice"):
            raise InvariantViolation("estimator must be mle16 or maice")
        if self.basis not in ("local", "inseparable"):
            raise InvariantViolation("basis must be local or inseparable")
        times = self.acquisition_times
        if not isinstance(times, (tuple, list)) or not times or not all(
                _is_real(t) and 0 < t < math.inf for t in times):
            raise InvariantViolation(
                "acquisition times must be a non-empty list of positive "
                "finite numbers")
        object.__setattr__(self, "acquisition_times", tuple(times))
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvariantViolation("seed must be a non-negative integer")
        if not (self.epsilon is None or _is_real(self.epsilon)):
            raise InvariantViolation("epsilon must be a number")
        if self.epsilon is not None and self.true_state not in (
                "product", "bell"):
            raise InvariantViolation(_EPSILON_APPLIES)

    def resolve_state(self):
        """The truth's density matrix, checked by check_density."""
        return check_density(self._unchecked_state())

    def _unchecked_state(self):
        if isinstance(self.true_state, CholeskyModel):
            return density_from_cholesky(self.true_state)
        return preset_state(self.true_state, self.epsilon)

    def resolve_set(self):
        return (local_projector_set() if self.basis == "local"
                else inseparable_projector_set())


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    counts: np.ndarray
    result: EstimationResult
    fidelity_to_true: float
    bures_sq_to_true: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity_to_true <= 1.0 + 1e-12:
            raise InvariantViolation("fidelity must lie in [0, 1]")


@dataclass(frozen=True)
class SweepResult:
    lam_values: np.ndarray
    mean_fidelity: np.ndarray
    mean_bures_sq: np.ndarray
    std_bures_sq: np.ndarray
    cov_trace: np.ndarray
    bound: np.ndarray                   # 2C/lambda, same rows
    bound_report: BoundReport
    records: tuple                      # tuple of per-lambda record tuples
    excluded: tuple                     # non-converged count per lambda


def sample_counts(rho_true, pset, lam, rng):
    """Independent Poisson counts at means lambda Tr[P_nu rho]."""
    if lam <= 0:
        raise InvariantViolation("lambda must be positive")
    return _draw(_scaled_means(_probabilities(rho_true, pset), lam), lam, rng)


def _draw(means, lam, rng):
    """`sample_counts` from its means at lambda = lam."""
    try:
        counts = rng.poisson(means)
    except ValueError as e:
        raise InvariantViolation(
            f"cannot draw Poisson counts at lambda={lam:g}: {e}") from None
    return counts.astype(np.int64, copy=False)


def true_model(rho_true, rank=None):
    """Cholesky coordinates of a known state at unit scale.

    Uses the minimal rank supporting the state unless told otherwise,
    matching the convention that bounds for degenerate states live in
    their minimal-rank coordinates.
    """
    _, w, v = _density_eigh(rho_true)
    return _true_model(w, v, rank)


def _true_model(w, v, rank=None):
    """`true_model` of the state with eigenvalues w and eigenvectors v;
    its minimal rank counts the eigenvalues above 1e-10 * max(1, max w)."""
    if rank is None:
        rank = max(1, int(np.sum(w > 1e-10 * max(1.0, w.max()))))
    return _cholesky_from_eigh(w, v, 1.0, int(rank))


def run_sweep(config):
    """Monte Carlo sweep over the acquisition-time grid.

    Each trial's estimate is `mle(4, ...)` for the mle16 estimator and
    `maice`'s pick for maice.  The sweep first draws every trial's
    counts, each from its own generator.  Then one closed-form rank-4
    step (`estimation._closed_form_step`) runs on the whole stack of
    count vectors: where a trial's linear inversion is positive
    definite, its rank-4 fit is the closed-form saturated MLE with 0
    iterations, and that fit is the mle16 estimate.  A MAICE trial keeps
    it only where a closed-form test on a likelihood bound, computed
    from the counts alone, proves that it wins the AIC comparison, as
    it does in most trials of a full-rank truth at lambda >= 1e3.  Every
    other trial falls back to its own `mle(4, ...)` or `maice` fit.  The
    estimates' density checks and fidelities to the truth run on one
    stack too.  The truth is decomposed once, by `eigh`: its density
    check, minimal rank, Cholesky model and square root all read that
    one decomposition.  Its measurement probabilities Tr[P_nu rho] are
    computed once and scaled per lambda, and each trial draws from them
    with its own generator.  A trial whose estimate fails with
    InvariantViolation (16 zero counts, or a `rho_hat` that fails
    check_density) ends the sweep with an error that names its lambda
    and trial index; as all counts are drawn first, a count that cannot
    be drawn ends it before any estimate.  Every estimate is the one its
    counts alone give, so the stacking changes no bit of the result.
    """
    rho_true, w, v = _density_eigh(config._unchecked_state())
    pset = config.resolve_set()
    report = bound_coefficient(_true_model(w, v), pset)

    lam_values = np.array(sorted(config.rate * t
                                 for t in config.acquisition_times))
    trials, pick = config.trials, config.estimator == "maice"
    means = _scaled_means(_probabilities(rho_true, pset),
                          lam_values[:, None])
    counts = [_draw(means[li], lam,
                    np.random.default_rng([config.seed, li, ti]))
              for li, lam in enumerate(lam_values) for ti in range(trials)]
    fits = _closed_form_step(np.array(counts, dtype=float), pset, pick)
    excluded = []
    for li, lam in enumerate(lam_values):
        for ti in range(trials):
            k = li * trials + ti
            if fits[k] is None:
                try:
                    fits[k] = (maice(counts[k], pset, _SWEEP_RESTARTS)[0]
                               if pick else mle(4, counts[k], pset))
                except InvariantViolation as e:
                    raise InvariantViolation(
                        f"lambda={lam:g}, trial {ti}: {e}") from None
        n_fail = sum(not r.converged
                     for r in fits[li * trials:(li + 1) * trials])
        if n_fail > 0.05 * trials:
            raise InvariantViolation(
                f"{n_fail}/{trials} estimates failed to converge "
                f"at lambda={lam:g}")
        excluded.append(n_fail)
    rhos = np.array([r.rho_hat for r in fits])
    for k, error in enumerate(_density_errors(rhos)):
        if error is not None:
            li, ti = divmod(k, trials)
            raise InvariantViolation(
                f"lambda={lam_values[li]:g}, trial {ti}: {error}")
    fids = _fidelities_of_sqrt(_sqrt_from_eigh(w, v), rhos)

    means_f, means_b, stds_b, covs, records_all = [], [], [], [], []
    for li in range(len(lam_values)):
        recs = tuple(
            TrialRecord(trial_index=ti, counts=counts[k], result=fits[k],
                        fidelity_to_true=fids[k],
                        bures_sq_to_true=2.0 * (1.0 - fids[k]))
            for ti, k in enumerate(range(li * trials, (li + 1) * trials)))
        good = [r for r in recs if r.result.converged]
        rows = np.zeros((len(good), 18))  # fidelity, Bures, padded theta
        for row, r in zip(rows, good):
            theta = r.result.theta_hat
            row[:2 + len(theta)] = (r.fidelity_to_true, r.bures_sq_to_true,
                                    *theta)
        fvals, bvals, tarr = rows[:, 0], rows[:, 1], rows[:, 2:]
        # np.mean's sum and division, without its wrapper
        means_f.append(np.add.reduce(fvals) / len(fvals))
        means_b.append(np.add.reduce(bvals) / len(bvals))
        stds_b.append(bvals.std(ddof=1) if len(bvals) > 1 else 0.0)
        covs.append(float(np.trace(np.cov(tarr.T))) if len(tarr) > 1
                    else 0.0)
        records_all.append(recs)
    return SweepResult(
        lam_values=lam_values,
        mean_fidelity=np.array(means_f),
        mean_bures_sq=np.array(means_b),
        std_bures_sq=np.array(stds_b),
        cov_trace=np.array(covs),
        bound=2.0 * report.coefficient / lam_values,
        bound_report=report,
        records=tuple(records_all),
        excluded=tuple(excluded),
    )


@dataclass(frozen=True)
class BasisComparison:
    local: SweepResult
    inseparable: SweepResult

    @property
    def coefficients(self):
        return (self.local.bound_report.coefficient,
                self.inseparable.bound_report.coefficient)


def compare_bases(config):
    """Run the same sweep under both built-in projector sets."""
    import dataclasses
    res = {}
    for basis in ("local", "inseparable"):
        cfg = dataclasses.replace(config, basis=basis)
        res[basis] = run_sweep(cfg)
    return BasisComparison(local=res["local"],
                           inseparable=res["inseparable"])


def tile_estimates(estimates):
    """Real parts of nine 4x4 estimates tiled into a 12x12 grid."""
    mats = list(estimates)
    if len(mats) != 9:
        raise InvariantViolation("tile_estimates needs exactly 9 matrices")
    out = np.zeros((12, 12))
    for idx, m in enumerate(mats):
        m = np.asarray(m)
        if m.shape != (4, 4):
            raise InvariantViolation("estimates must be 4x4 matrices")
        r, c = divmod(idx, 3)
        out[4 * r:4 * r + 4, 4 * c:4 * c + 4] = m.real
    return out


def emit_results(result, path=None, fmt="csv"):
    """A SweepResult as CSV/TSV text with a fixed numeric format.

    Returns the text, and also writes it to `path` when one is given.
    """
    if fmt not in ("csv", "tsv"):
        raise InvariantViolation("format must be csv or tsv")
    sep = "," if fmt == "csv" else "\t"
    cols = ["lambda", "mean_fidelity", "mean_bures_sq", "std_bures_sq",
            "cov_trace", "bound"]
    lines = [sep.join(cols)]
    for i, lam in enumerate(result.lam_values):
        row = (lam, result.mean_fidelity[i], result.mean_bures_sq[i],
               result.std_bures_sq[i], result.cov_trace[i], result.bound[i])
        lines.append(sep.join("%.12g" % v for v in row))
    data = "\n".join(lines) + "\n"
    if path is not None:
        with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
    return data


def read_counts(path):
    """Parse a 16-integer counts file; '#' lines are comments."""
    values = []
    last_line = 0
    with io.open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for tok in stripped.split():
                try:
                    v = int(tok)
                except ValueError:
                    raise CountsParseError(
                        f"non-integer count {tok!r}", line_number=ln)
                if v < 0:
                    raise CountsParseError(
                        f"negative count {v}", line_number=ln)
                if v > _INT64_MAX:
                    raise CountsParseError(
                        f"count {v} exceeds {_INT64_MAX}", line_number=ln)
                values.append(v)
                last_line = ln
    if len(values) != 16:
        raise CountsParseError(
            f"expected 16 counts, found {len(values)}",
            line_number=last_line or 1)
    return np.array(values, dtype=np.int64)
