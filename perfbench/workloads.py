"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Each workload turns `--seed` into a deterministic stream of inputs; the
package receives only those inputs.  Operation i always gets the same
input for a given seed, so the first `fixed_ops` operations -- the traced
run's work and the prefix over which `aic_mean` is taken -- are the same
in every run with that seed.  `key(i)` names operation i's input: a
stream that cycles through a pool repeats keys, and a run counts each
distinct input once in `attempted` and `failed`.  The timed call goes
through the public function's module attribute, so a traced run sees it.
"""

from typing import NamedTuple

import numpy as np

from tomo2q import estimation, fisher, projectors, simulate, states
from tomo2q.exceptions import TomographyError

from .tracing import nesting_violations


class CheckError(Exception):
    """An output of the package failed a correctness check."""


class Outcome(NamedTuple):
    units: int          # work units attempted by the operation
    failed: int         # of which failed (not converged)
    aics: tuple         # AIC of every returned estimate


def _sub_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0]
               & 0x7FFFFFFF)


def _check_rho(rho, where):
    try:
        states.check_density(rho)
    except TomographyError as e:
        raise CheckError(f"{where}: rho_hat is not a density matrix: {e}")


def _check_table(best, table, where):
    """A maice return value: density matrices, min-AIC pick, nesting."""
    if sorted(r.rank for r in table) != [1, 2, 3, 4]:
        raise CheckError(f"{where}: table ranks are not 1..4")
    for r in table:
        _check_rho(r.rho_hat, where)
        if not (np.isfinite(r.aic) and np.isfinite(r.log_likelihood)):
            raise CheckError(f"{where}: non-finite AIC or log-likelihood")
    if best.aic != min(r.aic for r in table):
        raise CheckError(f"{where}: selected rank {best.rank} is not the "
                         f"minimum-AIC model")
    if nesting_violations(table):
        raise CheckError(f"{where}: per-rank log-likelihoods not nested: "
                         f"{[r.log_likelihood for r in table]}")


class SweepMixedLocal:
    """run_sweep on the maximally mixed state with the local set.

    Interior regime: linear inversion is positive definite, the rank-4
    fit saturates and BFGS on ranks 1-3 dominates.  One operation is one
    run_sweep call of TRIALS trials at each of five lambdas from 1e3 to
    1e5 (the c03/c04 grid), with a fresh sweep seed per call.
    """

    name = "sweep-mixed-local"
    op = "run_sweep call"
    unit = "trial"
    latency_label = "sweep_ms"
    throughput_label = "trials_per_s"
    TIMES = (2.0, 6.0, 20.0, 60.0, 200.0)
    TRIALS = 1
    units_per_op = TRIALS * len(TIMES)
    fixed_ops = 8
    min_ops = 42

    def __init__(self, seed):
        self.seed = seed

    def _config(self, sweep_seed, times=TIMES, trials=TRIALS):
        return simulate.SimulationConfig(
            true_state="mixed", rate=500.0, acquisition_times=times,
            trials=trials, estimator="maice", basis="local",
            seed=sweep_seed)

    def warm_up(self):
        simulate.run_sweep(self._config(0, times=(2.0,), trials=1))

    def key(self, i):
        return i

    def input(self, i):
        return self._config(_sub_seed(self.seed, i))

    def call(self, config):
        return simulate.run_sweep(config)

    def check(self, config, res):
        where = f"sweep seed {config.seed}"
        lams = np.array(sorted(500.0 * t for t in self.TIMES))
        if not np.allclose(res.lam_values, lams):
            raise CheckError(f"{where}: lambda grid {res.lam_values}")
        for field in ("mean_fidelity", "mean_bures_sq", "std_bures_sq",
                      "cov_trace", "bound"):
            if not np.all(np.isfinite(getattr(res, field))):
                raise CheckError(f"{where}: non-finite {field}")
        if np.any(res.mean_fidelity < 0) or np.any(res.mean_fidelity > 1):
            raise CheckError(f"{where}: mean fidelity outside [0, 1]")
        if np.any(res.bound <= 0):
            raise CheckError(f"{where}: non-positive bound")
        aics = []
        for recs in res.records:
            for rec in recs:
                if not 0.0 <= rec.fidelity_to_true <= 1.0:
                    raise CheckError(f"{where}: fidelity outside [0, 1]")
                if not 0.0 <= rec.bures_sq_to_true <= 2.0:
                    raise CheckError(f"{where}: Bures distance outside "
                                     f"[0, 2]")
                _check_rho(rec.result.rho_hat, where)
                aics.append(float(rec.result.aic))
        return Outcome(self.units_per_op, int(sum(res.excluded)),
                       tuple(aics))


class EstimateBoundary:
    """maice with library defaults on near-pure data, as `tomo2q estimate`.

    Boundary regime: linear inversion is not positive semidefinite, ranks
    1-3 are selected and every rank runs several BFGS starts.  Counts are
    drawn before timing from bell(0.05) on the inseparable set and
    product(0.05) on the local set at three lambdas; operation i takes
    condition i mod 6.
    """

    name = "estimate-boundary"
    op = "maice fit"
    unit = "fit"
    latency_label = "fit_ms"
    throughput_label = "fits_per_s"
    CONDITIONS = tuple((state, basis, lam)
                       for state, basis in (("bell", "inseparable"),
                                            ("product", "local"))
                       for lam in (1e2, 1e3, 1e4))
    POOL = 500              # vectors per condition; the stream cycles
    units_per_op = 1
    fixed_ops = 24
    min_ops = 24

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        sets = {"local": projectors.local_projector_set(),
                "inseparable": projectors.inseparable_projector_set()}
        self.pools = []
        for state, basis, lam in self.CONDITIONS:
            pset = sets[basis]
            means = projectors.mean_counts_of_density(
                simulate.preset_state(state, 0.05), lam, pset)
            counts = rng.poisson(means, size=(self.POOL, 16)).astype(
                np.int64)
            self.pools.append((pset, counts))

    def warm_up(self):
        for c in (0, 3):
            self.call(self.input(c))

    def key(self, i):
        n = len(self.CONDITIONS)
        return i % n, (i // n) % self.POOL

    def input(self, i):
        c, j = self.key(i)
        pset, counts = self.pools[c]
        return pset, counts[j]

    def call(self, x):
        pset, counts = x
        return estimation.maice(counts, pset)

    def check(self, x, res):
        best, table = res
        _check_table(best, table, f"maice on {x[0].name} counts {x[1]}")
        return Outcome(1, int(not best.converged), (float(best.aic),))


class BoundsScan:
    """bound_coefficient on preset truths and random Cholesky models.

    fisher and linalg are well under 1% of sweep time, so they need a
    workload of their own.  There are 14 combinations: the true_model of
    each preset, or a random unit-scale model of rank 1-4, on each set.
    Each round of 14 operations takes every combination once, in an order
    drawn from the seed; round k takes model k mod POOL of each random
    combination.  A run of at least `min_ops` operations thus calls every
    input of a pool that is the same in every run.  The random models are
    one fixed draw, so that the known defect -- random rank-4 draws whose
    spectrum is nearly singular make bound_coefficient raise -- fails the
    same inputs in every run; those inputs stay in the stream and count
    as failures.
    """

    name = "bounds-scan"
    op = "bound_coefficient call"
    unit = "call"
    latency_label = "bound_ms"
    throughput_label = "bounds_per_s"
    PRESETS = ("mixed", "product", "bell")
    RANKS = (1, 2, 3, 4)
    POOL = 250              # random models per (rank, set); the stream cycles
    POOL_SEED = 0           # of the fixed draw of random models
    units_per_op = 1
    fixed_ops = 20 * 2 * (len(PRESETS) + len(RANKS))    # 20 rounds
    min_ops = POOL * 2 * (len(PRESETS) + len(RANKS))    # the whole pool

    def __init__(self, seed):
        self.sets = sets = (projectors.local_projector_set(),
                            projectors.inseparable_projector_set())
        presets = {p: simulate.true_model(simulate.preset_state(p))
                   for p in self.PRESETS}
        self.combos = []
        for si, pset in enumerate(sets):
            for p in self.PRESETS:
                self.combos.append((pset, p, (presets[p],)))
            for rank in self.RANKS:
                rng = np.random.default_rng([self.POOL_SEED, rank, si])
                k = states.RANK_NPARAMS[rank]
                theta = rng.standard_normal((self.POOL, k))
                theta /= np.linalg.norm(theta, axis=1, keepdims=True)
                models = tuple(states.CholeskyModel(rank, t) for t in theta)
                self.combos.append((pset, f"random rank {rank}", models))
        self.order = np.random.default_rng(seed).permutation(
            len(self.combos))
        self.reference = {}

    def warm_up(self):
        """One call per rank and set; the presets' C are check references."""
        for pset, label, models in self.combos:
            if label in self.PRESETS:
                self.reference[(pset.name, label)] = self.call(
                    (pset, label, models[0])).coefficient
        bell = simulate.preset_state("bell")
        for pset in self.sets:
            for rank in (1, 2, 3):
                self.call((pset, "bell", simulate.true_model(bell, rank)))

    def key(self, i):
        n = len(self.combos)
        c = int(self.order[i % n])
        return c, (i // n) % len(self.combos[c][2])

    def input(self, i):
        c, j = self.key(i)
        pset, label, models = self.combos[c]
        return pset, label, models[j]

    def call(self, x):
        pset, _, model = x
        return fisher.bound_coefficient(model, pset)

    def check(self, x, rep):
        pset, label, model = x
        where = f"bound_coefficient({label}, {pset.name})"
        c = rep.coefficient
        if not (np.isfinite(c) and c > 0):
            raise CheckError(f"{where}: C = {c}")
        if rep.rank_model != model.rank or rep.set_name != pset.name:
            raise CheckError(f"{where}: report labels {rep.rank_model}, "
                             f"{rep.set_name}")
        ref = self.reference.get((pset.name, label))
        if ref is not None and abs(c - ref) > 1e-9 * ref:
            raise CheckError(f"{where}: C = {c!r} differs from {ref!r}")
        return Outcome(1, 0, ())


WORKLOADS = {w.name: w for w in (SweepMixedLocal, EstimateBoundary,
                                 BoundsScan)}

# Published coincidence tables, in acquisition-block order
#   HH HV VH VV | HD HL DH RH | VD VL DV RV | DD RL RD DL,
# GRID_SLOT[i] being the row-major grid slot of published position i,
# with their AIC values (rank 4 first) and selected ranks.
GRID_SLOT = np.array([0, 1, 4, 5, 2, 3, 8, 12, 6, 7, 9, 13, 10, 15, 14, 11])
PUBLISHED = (
    ("near-maximally-mixed",
     np.array([615, 553, 613, 605, 550, 576, 596, 609,
               575, 622, 577, 601, 574, 569, 591, 569]),
     (163.4, 201.3, 349.9, 2899.3), 4),
    ("almost-pure separable",
     np.array([42, 45, 25, 2504, 60, 56, 31, 33,
               1309, 1431, 1148, 1125, 514, 487, 576, 599]),
     (152.8, 150.8, 146.3, 208.9), 2),
)


def check_published():
    """maice on the published tables must give their AICs and ranks.

    Tolerance 1.0 on the selected rank's AIC and 2.0 on the others, as
    in the acceptance tests.
    """
    pset = projectors.local_projector_set()
    for label, published, expected, rank in PUBLISHED:
        counts = np.zeros(16, dtype=np.int64)
        counts[GRID_SLOT] = published
        best, table = estimation.maice(counts, pset)
        _check_table(best, table, f"published {label} table")
        by_rank = sorted(table, key=lambda r: -r.rank)
        for r, want in zip(by_rank, expected):
            tol = 1.0 if r.rank == rank else 2.0
            if abs(r.aic - want) > tol:
                raise CheckError(f"published {label} table: rank {r.rank} "
                                 f"AIC {r.aic:.2f}, expected {want}")
        if best.rank != rank:
            raise CheckError(f"published {label} table: selected rank "
                             f"{best.rank}, expected {rank}")
