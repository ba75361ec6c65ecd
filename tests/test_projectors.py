import numpy as np
import pytest

from tomo2q.estimation import maice
from tomo2q.exceptions import InvariantViolation, InversionError
from tomo2q.projectors import (
    LOCAL_LABELS,
    ProjectorSet,
    check_counts,
    completeness_check,
    inseparable_projector_set,
    linear_tomography,
    local_projector_set,
    mean_counts,
    mean_counts_of_density,
    product_ket,
    projector_set_from_kets,
)
from tomo2q.states import T_BASIS, density_from_cholesky, pauli_coefficients

from conftest import random_model


def test_local_grid_order():
    assert LOCAL_LABELS[0] == "HH"
    assert LOCAL_LABELS[3] == "HL"
    assert LOCAL_LABELS[4] == "VH"
    assert LOCAL_LABELS[15] == "RL"
    assert len(LOCAL_LABELS) == 16


def test_product_ket_normalization_and_values():
    for lab in LOCAL_LABELS:
        assert np.linalg.norm(product_ket(lab)) == pytest.approx(1.0)
    assert np.allclose(product_ket("HH"), [1, 0, 0, 0])
    assert np.allclose(product_ket("VV"), [0, 0, 0, 1])
    assert np.allclose(product_ket("DD"), [0.5, 0.5, 0.5, 0.5])


def test_local_set_complete(local_set):
    ok, cond = completeness_check(local_set)
    assert ok
    assert cond < 100.0


def test_inseparable_set_complete(insep_set):
    ok, cond = completeness_check(insep_set)
    assert ok
    assert cond == pytest.approx(8.39, abs=0.5)


def test_inseparable_operators_psd_and_structure(insep_set):
    for i, op in enumerate(insep_set.operators):
        w = np.linalg.eigvalsh(op)
        assert w[0] > -1e-12
        if i < 10:
            # rank-1 unit projectors
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(op @ op, op, atol=1e-12)
        else:
            # half-weighted single-qubit projectors: eigenvalues {1/2, 1/2, 0, 0}
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.sort(w), [0, 0, 0.5, 0.5], atol=1e-12)


def test_real_phase_family_breaks_completeness():
    # replacing the imaginary-phase D/X family with real phases collapses
    # two Pauli directions and must be flagged as incomplete
    from tomo2q.projectors import _SINGLE, _bell_like
    kets = [
        _bell_like("HH", "VV", +1),
        _bell_like("HH", "VV", -1),
        _bell_like("HV", "VH", +1),
        _bell_like("HV", "VH", -1),
        _bell_like("HD", "VX", +1),
        _bell_like("HD", "VX", -1),
        _bell_like("HX", "VD", +1),
        _bell_like("HR", "VL", +1),
        _bell_like("HR", "VL", -1),
        _bell_like("HL", "VR", +1),
    ]
    ops = [np.outer(k, k.conj()) for k in kets]
    eye2 = np.eye(2, dtype=complex)
    for single in ("H", "D", "R"):
        p = np.outer(_SINGLE[single], _SINGLE[single].conj())
        ops.append(np.kron(p, eye2 / 2.0))
        ops.append(np.kron(eye2 / 2.0, p))
    bad = ProjectorSet(name="real-phase", operators=np.array(ops))
    ok, cond = completeness_check(bad)
    assert not ok
    assert not bad.complete
    with pytest.raises(InvariantViolation):
        linear_tomography(np.ones(16), bad)


def test_b_matrix_shape_and_first_column(local_set, insep_set):
    for pset in (local_set, insep_set):
        b = pset.b
        assert b.shape == (16, 16)
        # column 0 is Tr[M_nu]/4: unit-trace operators give 0.25
        assert np.allclose(b[:, 0], 0.25, atol=1e-12)


def test_mean_counts_match_density_form(local_set):
    rng = np.random.default_rng(10)
    m = random_model(4, rng, lam=3000.0)
    rho = density_from_cholesky(m)
    a = mean_counts(m, local_set)
    b = mean_counts_of_density(rho, m.lambda_scale, local_set)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-9)
    assert np.all(a >= 0.0)


def test_linear_tomography_recovers_random_states(local_set, insep_set):
    rng = np.random.default_rng(11)
    for pset in (local_set, insep_set):
        for _ in range(100):
            m = random_model(4, rng, lam=10.0 ** rng.uniform(1, 5))
            rho = density_from_cholesky(m)
            means = mean_counts(m, pset)
            phi, lam_hat = linear_tomography(means, pset)
            assert lam_hat == pytest.approx(m.lambda_scale, rel=1e-10)
            assert np.allclose(phi, pauli_coefficients(rho), atol=1e-10)
            assert phi[0] == pytest.approx(1.0, abs=1e-12)


def test_linear_tomography_exactness_low_rank(local_set):
    # degenerate states invert exactly too: inversion is rank-agnostic
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        m = random_model(k, rng, lam=500.0)
        means = mean_counts(m, local_set)
        phi, lam_hat = linear_tomography(means, local_set)
        assert lam_hat == pytest.approx(m.lambda_scale, rel=1e-10)
        assert np.allclose(phi, pauli_coefficients(density_from_cholesky(m)),
                           atol=1e-10)


def test_linear_tomography_negative_scale_raises(local_set):
    # all-zero counts invert to lambda 0, which is not a valid scale
    with pytest.raises((InversionError, InvariantViolation)):
        linear_tomography(np.zeros(16), local_set)


def test_check_counts_rejections():
    with pytest.raises(InvariantViolation):
        check_counts(np.ones(15))
    with pytest.raises(InvariantViolation):
        check_counts(np.array([1.0] * 15 + [-2.0]))
    with pytest.raises(InvariantViolation):
        check_counts(np.array([np.inf] + [1.0] * 15))


def test_check_counts_rejects_fractional_counts(local_set):
    with pytest.raises(InvariantViolation, match="entry 0 is 0.5"):
        check_counts(np.full(16, 0.5))
    counts = np.arange(16.0)
    counts[[3, 9]] = [2.25, 7.5]
    with pytest.raises(InvariantViolation, match="entry 3 is 2.25"):
        check_counts(counts)
    with pytest.raises(InvariantViolation, match="integers"):
        maice(counts, local_set)
    # integer values stored as floats are counts
    assert np.array_equal(check_counts(np.arange(16.0)), np.arange(16.0))


def test_quadratic_forms_are_the_leading_blocks(local_set, insep_set):
    # q[k] stacks Q_nu[i, j] = Re Tr[M_nu E_i E_j^dag], i, j < k, over nu
    for pset in (local_set, insep_set):
        full = np.array([[[np.trace(op @ ei @ ej.conj().T).real
                           for ej in T_BASIS] for ei in T_BASIS]
                         for op in pset.operators])
        assert sorted(pset.q) == [7, 12, 15, 16]
        for k, q in pset.q.items():
            assert q.shape == (16 * k, k) and q.flags.c_contiguous
            assert np.allclose(q.reshape(16, k, k), full[:, :k, :k],
                               rtol=0.0, atol=1e-15)


def test_projector_set_validation():
    ops = np.zeros((16, 4, 4), dtype=complex)
    ops[0, 0, 1] = 1.0  # not Hermitian
    with pytest.raises(InvariantViolation):
        ProjectorSet(name="bad", operators=ops)
    with pytest.raises(InvariantViolation):
        ProjectorSet(name="bad", operators=np.zeros((15, 4, 4)))


def test_projector_sets_compare_and_hash_by_identity(local_set):
    other = projector_set_from_kets(
        [product_ket(lab) for lab in LOCAL_LABELS], name="local")
    assert local_set == local_set
    assert local_set != other
    assert len({local_set, other}) == 2


def test_built_in_sets_are_shared_read_only_constants():
    for make in (local_projector_set, inseparable_projector_set):
        pset = make()
        assert make() is pset
        for array in (pset.operators, pset.b, *pset.q.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(TypeError):
            pset.q[7] = np.zeros((112, 7))


def test_projector_set_from_kets_normalizes():
    kets = [2.0 * product_ket(lab) for lab in LOCAL_LABELS]
    pset = projector_set_from_kets(kets)
    ok, _ = completeness_check(pset)
    assert ok
    for op in pset.operators:
        assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_is_named(local_set, bad):
    ops = np.array(local_set.operators)
    ops[5, 1, 2] = bad
    with pytest.raises(InvariantViolation,
                       match="measurement operator 5 is not finite"):
        ProjectorSet(name="bad", operators=ops)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_zero_or_non_finite_ket_is_named(bad):
    kets = [product_ket(lab) for lab in LOCAL_LABELS]
    kets[3] = np.full(4, bad, dtype=complex)
    with np.errstate(all="raise"):
        with pytest.raises(InvariantViolation,
                           match="ket 3 must be nonzero and finite"):
            projector_set_from_kets(kets)
