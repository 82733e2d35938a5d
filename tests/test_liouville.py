import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl.exceptions import DimensionError, ValidationError

from conftest import philox, rand_pure, rand_rho


def test_vectorize_column_order():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert_allclose(lq.vectorize(m), [1.0, 3.0, 2.0, 4.0])


def test_vectorize_round_trip():
    rng = philox(10)
    for d in (2, 3, 4):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert_allclose(lq.devectorize(lq.vectorize(m)), m)


def test_vectorize_rejects_non_square():
    with pytest.raises(DimensionError):
        lq.vectorize(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        lq.devectorize(np.zeros(5))


def test_sandwich_superop_action():
    rng = philox(12)
    for d in (2, 3):
        l = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = lq.sandwich_superop(l, r) @ lq.vectorize(x)
        assert_allclose(got, lq.vectorize(l @ x @ r), atol=1e-12)


def test_rehermitize():
    rng = philox(13)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = lq.rehermitize(m)
    assert np.abs(h - h.conj().T).max() == 0.0
    assert_allclose(lq.rehermitize(h), h)


def test_validate_density_matrix_accepts_physical():
    rng = philox(14)
    for d in (2, 3):
        lq.validate_density_matrix(rand_rho(rng, d))


def test_validate_density_matrix_rejections():
    with pytest.raises(ValidationError):
        lq.validate_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        lq.validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        lq.validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(DimensionError):
        lq.validate_density_matrix(np.zeros((2, 3)))


def test_normalize_state():
    rng = philox(15)
    rho = rand_rho(rng, 3)
    s = lq.normalize_state(rho)
    assert abs(np.linalg.norm(s.vector) - 1.0) < 1e-12
    assert abs(s.purity - np.trace(rho @ rho).real) < 1e-12
    assert s.vector.shape == (9,)


def test_liouville_angle_reference_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2.0
    assert lq.liouville_angle(zero, zero) == 0.0
    assert abs(lq.liouville_angle(zero, one) - np.pi / 2.0) < 1e-12
    assert abs(lq.liouville_angle(zero, mixed) - np.pi / 4.0) < 1e-12


def test_liouville_angle_resolves_small_angles():
    # Pure states a rotation phi apart: |rho_a - rho_b|_HS = sqrt(2) sin(phi).
    zero = np.diag([1.0, 0.0]).astype(complex)
    for phi in (1e-12, 1e-9, 1e-6, 1e-3, 0.3):
        psi = np.array([np.cos(phi), np.sin(phi)], dtype=complex)
        expected = 2.0 * np.arcsin(np.sin(phi) / np.sqrt(2.0))
        got = lq.liouville_angle(zero, np.outer(psi, psi.conj()))
        assert abs(got - expected) <= 1e-12 * expected


def test_liouville_angle_symmetric():
    rng = philox(16)
    a = rand_rho(rng, 3)
    b = rand_rho(rng, 3)
    assert lq.liouville_angle(a, b) == lq.liouville_angle(b, a)


def test_liouville_angle_unnormalized_insensitive():
    rng = philox(17)
    a = rand_rho(rng, 2)
    b = rand_rho(rng, 2)
    assert abs(lq.liouville_angle(2.0 * a, b) - lq.liouville_angle(a, b)) < 1e-12


def test_superop_expectation_and_variance():
    rng = philox(18)
    s = lq.normalize_state(rand_rho(rng, 2))
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = s.vector
    assert abs(lq.superop_expectation(o, s) - np.vdot(v, o @ v)) < 1e-12
    var = lq.superop_variance(o, s)
    manual = np.vdot(o @ v, o @ v).real - abs(np.vdot(v, o @ v)) ** 2
    assert abs(var - manual) < 1e-12
    assert abs(lq.superop_variance(np.eye(4), s)) < 1e-12


def test_superop_variance_shift_invariance():
    rng = philox(19)
    s = lq.normalize_state(rand_pure(rng, 2))
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = 0.7 - 1.3j
    shifted = o + c * np.eye(4)
    assert abs(lq.superop_variance(o, s) - lq.superop_variance(shifted, s)) < 1e-10
