import numpy as np
import pytest

from tomo2q.estimation import _invert, _rank_bounds
from tomo2q.projectors import inseparable_projector_set, local_projector_set
from tomo2q.states import CholeskyModel, RANK_NPARAMS


@pytest.fixture(scope="session")
def local_set():
    return local_projector_set()


@pytest.fixture(scope="session")
def insep_set():
    return inseparable_projector_set()


def random_model(rank, rng, lam=1.0):
    """Random interior Cholesky model at the requested scale."""
    theta = rng.standard_normal(RANK_NPARAMS[rank])
    theta *= np.sqrt(lam / np.dot(theta, theta))
    return CholeskyModel(rank=rank, params=theta)


def lower_rank_bounds(counts, pset):
    """`_rank_bounds` of one count vector, on a stack of one, or None
    where a sweep builds none: unless its 16 counts are positive and
    its linear inversion X_n is positive definite."""
    n = np.asarray(counts, dtype=float)[None]
    _, xns, _, ok = _invert(n, pset)
    return _rank_bounds(n, xns, pset)[0] if ok[0] else None
