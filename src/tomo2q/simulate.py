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

from .estimation import (EstimationResult, RANK_NPARAMS, _rank4_bar, maice,
                         mle)
from .exceptions import CountsParseError, InvariantViolation
from .fisher import BoundReport, bound_coefficient
from .projectors import (
    ProjectorSet,
    inseparable_projector_set,
    local_projector_set,
    mean_counts_of_density,
    product_ket,
)
# run_sweep derives the Bures distance from the fidelity it has;
# bures_distance_sq stays importable here because perfbench's tracing
# patches it
from .states import (
    CholeskyModel,
    bures_distance_sq,  # noqa: F401
    check_density,
    cholesky_from_density,
    fidelity,
)

_PRESET_EPS = {"mixed": 0.0, "product": 0.05, "bell": 0.05}
_SWEEP_RESTARTS = 1     # jittered extra starts per rank 1-3 fit in a sweep


def preset_state(name, epsilon=None):
    """Canonical analog states: mixed, product, bell."""
    if name not in _PRESET_EPS:
        raise InvariantViolation(
            f"unknown preset {name!r}; choose mixed, product, or bell")
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


# bool is an Integral, so without the bool test a config file's true
# would pass as the number 1 and false as 0
def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
        if not (_is_real(self.rate) and 0 < self.rate < math.inf):
            raise InvariantViolation("rate must be a positive finite number")
        if not _is_integer(self.trials) or self.trials < 1:
            raise InvariantViolation("trials must be a positive integer")
        if self.estimator not in ("mle16", "maice"):
            raise InvariantViolation("estimator must be mle16 or maice")
        if self.basis not in ("local", "inseparable"):
            raise InvariantViolation("basis must be local or inseparable")
        times = self.acquisition_times
        if not isinstance(times, (tuple, list)) or not all(
                _is_real(t) and 0 < t < math.inf for t in times):
            raise InvariantViolation(
                "acquisition times must be a list of positive finite "
                "numbers")
        object.__setattr__(self, "acquisition_times", tuple(times))
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvariantViolation("seed must be a non-negative integer")
        if not (self.epsilon is None or _is_real(self.epsilon)):
            raise InvariantViolation("epsilon must be a number")

    def resolve_state(self):
        if isinstance(self.true_state, CholeskyModel):
            from .states import density_from_cholesky
            return density_from_cholesky(self.true_state)
        rho = preset_state(self.true_state, self.epsilon)
        check_density(rho)
        return rho

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
    means = mean_counts_of_density(rho_true, lam, pset)
    try:
        counts = rng.poisson(means)
    except ValueError as e:
        raise InvariantViolation(
            f"cannot draw Poisson counts at lambda={lam:g}: {e}") from None
    return counts.astype(np.int64)


def _state_rank(rho, tol=1e-10):
    w = np.linalg.eigvalsh(rho)
    return max(1, int(np.sum(w > tol * max(1.0, w.max()))))


def true_model(rho_true, rank=None):
    """Cholesky coordinates of a known state at unit scale.

    Uses the minimal rank supporting the state unless told otherwise,
    matching the convention that bounds for degenerate states live in
    their minimal-rank coordinates.
    """
    r = _state_rank(rho_true) if rank is None else int(rank)
    return cholesky_from_density(rho_true, 1.0, r)


def _maice_pick(counts, pset):
    """`maice(counts, pset, restarts=_SWEEP_RESTARTS)`'s selected fit.

    When `_rank4_bar` proves that the rank-4 fit has a lower AIC than
    any rank 1-3 fit can have, the pick is rank 4 whatever ranks 1-3
    would reach, so only rank 4 is fitted, by `mle(4, counts, pset)`.
    Rank 4's likelihood is concave, so that fit is the global maximum
    that `maice`'s rank-4 fit also reaches.  Otherwise (no proof, or a
    rank-4 fit below the bar) `maice` fits all four ranks.
    """
    bar = _rank4_bar(counts, pset)
    if bar is not None:
        res = mle(4, counts, pset)
        if res.log_likelihood > bar:
            return res
    return maice(counts, pset, restarts=_SWEEP_RESTARTS)[0]


def run_sweep(config):
    """Monte Carlo sweep over the acquisition-time grid.

    Each trial's estimate is `mle(4, ...)` for the mle16 estimator and
    MAICE's pick for maice (`_maice_pick`).  A MAICE trial skips the
    rank 1-3 fits when a likelihood bound proves that rank 4 wins the
    AIC comparison, as it does in most trials of a full-rank truth at
    lambda >= 1e3; the pick is then the same rank-4 fit, with only its
    `iterations` counting fewer starts.  A trial whose estimate fails
    with InvariantViolation (16 zero counts) ends the sweep with an
    error that names its lambda and trial index.
    """
    rho_true = config.resolve_state()
    pset = config.resolve_set()
    model_true = true_model(rho_true)
    report = bound_coefficient(model_true, pset)

    lam_values = np.array(sorted(config.rate * t
                                 for t in config.acquisition_times))
    means_f, means_b, stds_b, covs, records_all, excluded = \
        [], [], [], [], [], []
    for li, lam in enumerate(lam_values):
        recs = []
        thetas = []
        for ti in range(config.trials):
            rng = np.random.default_rng([config.seed, li, ti])
            counts = sample_counts(rho_true, pset, lam, rng)
            try:
                res = (mle(4, counts, pset) if config.estimator == "mle16"
                       else _maice_pick(counts, pset))
            except InvariantViolation as e:
                raise InvariantViolation(
                    f"lambda={lam:g}, trial {ti}: {e}") from None
            f = fidelity(rho_true, res.rho_hat)
            recs.append(TrialRecord(
                trial_index=ti, counts=counts, result=res,
                fidelity_to_true=f, bures_sq_to_true=2.0 * (1.0 - f)))
            if res.converged:
                padded = np.zeros(16)
                padded[:len(res.theta_hat)] = res.theta_hat
                thetas.append(padded)
        n_fail = sum(1 for r in recs if not r.result.converged)
        if n_fail > 0.05 * config.trials:
            raise InvariantViolation(
                f"{n_fail}/{config.trials} estimates failed to converge "
                f"at lambda={lam:g}")
        good = [r for r in recs if r.result.converged]
        fvals = np.array([r.fidelity_to_true for r in good])
        bvals = np.array([r.bures_sq_to_true for r in good])
        means_f.append(fvals.mean())
        means_b.append(bvals.mean())
        stds_b.append(bvals.std(ddof=1) if len(bvals) > 1 else 0.0)
        tarr = np.array(thetas)
        covs.append(float(np.trace(np.cov(tarr.T))) if len(tarr) > 1
                    else 0.0)
        records_all.append(tuple(recs))
        excluded.append(n_fail)
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
                values.append(v)
                last_line = ln
    if len(values) != 16:
        raise CountsParseError(
            f"expected 16 counts, found {len(values)}",
            line_number=last_line or 1)
    return np.array(values, dtype=np.int64)
