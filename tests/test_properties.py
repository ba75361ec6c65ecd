"""Property tests: invariants checked over generated inputs rather than
hand-picked cases.  Examples are derandomized, so every run checks the
same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomo2q.estimation import maice
from tomo2q.fisher import bound_coefficient
from tomo2q.projectors import mean_counts
from tomo2q.states import (
    CholeskyModel,
    density_from_cholesky,
    fidelity,
    params_from_triangular,
    triangular,
)

from conftest import random_model


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
