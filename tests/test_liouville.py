import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl.exceptions import DimensionError, ValidationError
from liouqsl.liouville import (
    _gather,
    _hermitian_matrices,
    _real_form,
    _real_part,
    _scatter,
)

from conftest import philox, rand_pure, rand_rho, rotated_state


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
        got = np.kron(r.T, l) @ lq.vectorize(x)
        assert_allclose(got, lq.vectorize(l @ x @ r), atol=1e-12)


def _hermitian_basis(d):
    """Dense unitary B whose columns vectorize the Hermitian basis of the gathers.

    Columns |i><i|, then (|i><j| + |j><i|)/sqrt(2) and i(|i><j| - |j><i|)/sqrt(2)
    for each i < j in row-major order.
    """
    n = d * d
    rows, cols = np.triu_indices(d, 1)
    upper, lower = d * cols + rows, d * rows + cols
    sym = d + np.arange(rows.size)
    anti = sym + rows.size
    basis = np.zeros((n, n), dtype=complex)
    basis[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    basis[upper, sym] = basis[lower, sym] = np.sqrt(0.5)
    basis[upper, anti] = 1j * np.sqrt(0.5)
    basis[lower, anti] = -1j * np.sqrt(0.5)
    return basis


def test_gathers_equal_the_dense_products_with_the_hermitian_basis():
    rng = philox(19)
    for d in (1, 2, 3, 16):
        n = d * d
        b = _hermitian_basis(d)
        assert np.abs(b.conj().T @ b - np.eye(n)).max() < 1e-15
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        assert_allclose(_gather(v), v @ b.conj(), rtol=0, atol=1e-14)
        assert_allclose(_gather(v, 1), v @ b, rtol=0, atol=1e-14)
        assert_allclose(_scatter(v), v @ b.T, rtol=0, atol=1e-14)
        assert_allclose(_scatter(v, -1), v @ b.conj().T, rtol=0, atol=1e-14)
        assert_allclose(_gather(_scatter(v)), v, rtol=0, atol=1e-14)
        assert _real_form(s) is None
        form = _gather(_gather(s, 1).T).T
        assert_allclose(form, b.conj().T @ s @ b, rtol=0, atol=1e-13)
        # Hermiticity-preserving: S(X) = K X K^+ + X^T has a real form.
        k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        swap = lq.vectorize(np.eye(n).reshape(n, d, d).transpose(0, 2, 1)).T
        preserving = np.kron(k.conj(), k) + swap
        real = _real_form(preserving)
        assert real.dtype == float and real.flags.c_contiguous
        assert_allclose(real, (b.conj().T @ preserving @ b).real, rtol=0, atol=1e-13)
        rho = rand_rho(rng, d) if d > 1 else np.ones((1, 1))
        x = _real_part(_gather(lq.vectorize(rho)))
        assert_allclose(x, (b.conj().T @ lq.vectorize(rho)).real, rtol=0, atol=1e-15)
        assert _real_part(_gather(v)) is None


def test_index_map_builds_exactly_hermitian_matrices():
    # One take and one multiply turn real coordinates x into devectorize(B x):
    # Hermitian bit for bit with a zero imaginary diagonal, and the inverse of
    # _gather on Hermitian matrices to 2 ulp in every real and imaginary part:
    # a round trip multiplies by 2 fl(sqrt(0.5))^2 = 1 + 1.4e-16 besides its
    # two roundings.
    rng = philox(20)
    for d in (1, 2, 3, 5, 16):
        n = d * d
        x = rng.normal(size=(3, 4, n))
        m = _hermitian_matrices(x)
        assert m.shape == (3, 4, d, d)
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))
        assert not np.diagonal(m, axis1=-2, axis2=-1).imag.any()
        assert_allclose(lq.vectorize(m), x @ _hermitian_basis(d).T, rtol=0, atol=1e-15)
        a = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
        h = a + a.conj().swapaxes(-1, -2)
        back = _hermitian_matrices(_real_part(_gather(lq.vectorize(h))))
        for part in ("real", "imag"):
            got, ref = getattr(back, part), getattr(h, part)
            assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(np.abs(ref)))


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


def test_validate_density_matrix_refuses_an_empty_matrix():
    with pytest.raises(DimensionError, match="non-empty"):
        lq.validate_density_matrix(np.zeros((0, 0)))


def test_validate_density_matrix_floor_at_minus_1e_10():
    rng = philox(16)
    for d in (2, 4, 16):
        with pytest.raises(ValidationError, match="negative eigenvalue -2.000e-10"):
            lq.validate_density_matrix(rotated_state(rng, d, -2e-10))
        lq.validate_density_matrix(rotated_state(rng, d, -5e-11))


def _eigvalsh_verdicts(stack):
    lowest = np.linalg.eigvalsh((stack + np.swapaxes(stack, 1, 2).conj()) / 2).min(axis=1)
    return lowest >= -1e-10, np.abs(lowest + 1e-10) > 1e-13


def test_validate_density_matrix_agrees_with_eigvalsh():
    rng = philox(17)
    for d in (2, 3, 5, 8):
        states = [rand_rho(rng, d) for _ in range(20)] + [rand_pure(rng, d) for _ in range(20)]
        states += [rotated_state(rng, d, lam) for lam in rng.uniform(-3e-10, 1e-10, 60)]
        stack = np.array(states)
        ok, clear = _eigvalsh_verdicts(stack)
        assert clear.sum() >= 95 and 0 < ok.sum() < 100
        for rho, accept in zip(stack[clear], ok[clear]):
            if accept:
                lq.validate_density_matrix(rho)
            else:
                with pytest.raises(ValidationError, match="negative eigenvalue"):
                    lq.validate_density_matrix(rho)
        with pytest.raises(ValidationError) as err:
            lq.validate_density_matrix(stack[clear][None])
        assert err.value.index == np.argmin(ok[clear])


def test_validate_density_matrix_rejects_non_finite_entries():
    rho = np.eye(2) / 2.0
    for bad in (np.diag([np.inf, 0.0]), np.diag([np.nan, 1.0]), [[0.5, np.nan], [0.0, 0.5]]):
        with pytest.raises(ValidationError, match="non-finite entry") as err:
            lq.validate_density_matrix(bad)
        assert err.value.index == 0
    cases = (
        ([rho, rho, np.diag([0.7, 0.7]), np.diag([np.inf, 0.0])], 2, "trace"),
        ([rho, np.diag([np.inf, 0.0]), np.diag([1.5, -0.5])], 1, "non-finite entry"),
        ([rho, rho, rho, np.full((2, 2), np.nan + 1j)], 3, "non-finite entry"),
    )
    for stack, index, match in cases:
        with pytest.raises(ValidationError, match=match) as err:
            lq.validate_density_matrix(stack)
        assert err.value.index == index


_QUBIT_LOWS = (-1e-3, -1e-10 * (1 + 1e-3), -1e-10 * (1 - 1e-3), 1e-12, -1e-12, 0.0)


def _first_failure(stack, hermitian=False):
    """(message, index) of the ValidationError on stack, or None if it passes."""
    try:
        lq.validate_density_matrix(stack, _hermitian=hermitian)
    except ValidationError as err:
        return str(err), err.index


def test_qubit_positivity_in_closed_form_keeps_the_eigenvalue_rule():
    # A 2 x 2 stack is certified by the two Cholesky pivots of H + 1e-10 * 1 in
    # closed form, and one that is not goes to eigvalsh, so verdict, message and
    # index are those of lambda_min >= -1e-10. The floor itself is not tested:
    # there either route may round either way.
    rng = philox(38)
    for low in _QUBIT_LOWS:
        for _ in range(10):
            rho = rotated_state(rng, 2, low)
            assert (np.linalg.eigvalsh(rho).min() >= -1e-10) == (low >= -1e-10)
            want = None if low >= -1e-10 else (f"negative eigenvalue {low:.3e}", 0)
            assert _first_failure(rho) == want
        # an (A, T, 2, 2) stack: this state, then a failing one after it
        lows = np.full(3 * 40, 0.3)
        k = rng.integers(lows.size - 1)
        lows[k], lows[rng.integers(k + 1, lows.size)] = low, -1e-3
        stack = np.array([rotated_state(rng, 2, lam) for lam in lows])
        stack = stack.reshape(3, 40, 2, 2)
        lowest = np.linalg.eigvalsh(stack).min(axis=-1).ravel()
        assert np.array_equal(lowest >= -1e-10, lows >= -1e-10)
        first = int(np.argmax(lows < -1e-10))
        want = f"negative eigenvalue {lows[first]:.3e}", first
        assert _first_failure(stack) == want
        assert _first_failure(lq.rehermitize(stack), hermitian=True) == want
        lq.validate_density_matrix(np.delete(stack.reshape(-1, 2, 2), lows < -1e-10, 0))


def test_qubit_positivity_with_huge_finite_entries():
    # Finite entries whose products overflow raise no floating-point warning (the
    # suite makes warnings errors) and get the verdict of the Cholesky route.
    for big in (1e154, 1e200, 1e300):
        for rho in (np.diag([big, -big]), [[big, 1j * big], [-1j * big, -big]]):
            assert _first_failure(rho) == ("trace deviates from 1 by 1.000e+00", 0)
        stack = [np.eye(2) / 2, [[0.5, big], [big, 0.5]], np.diag([big, big])]
        assert _first_failure(stack) == (f"negative eigenvalue {-big:.3e}", 1)
        assert _first_failure(stack[2]) == (f"trace deviates from 1 by {2 * big:.3e}", 0)


def test_qubit_validation_calls_no_lapack_cholesky(monkeypatch):
    calls, cholesky = [], np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = philox(39)
    lq.validate_density_matrix(np.array([rand_rho(rng, 2) for _ in range(5)]))
    assert calls == []
    lq.validate_density_matrix(rand_rho(rng, 3))
    assert calls == [(1, 3, 3)]


def test_validation_of_a_rehermitized_stack_skips_only_the_skew():
    # Propagated states are exactly Hermitian, so propagate_expm's validation
    # of them forms no skew; every other check and message is that of the full
    # validation.
    rng = philox(14)
    good = np.array([rand_rho(rng, 3) for _ in range(4)])
    stacks = [good, good.copy(), good.copy()]
    stacks[1][2] *= 1.01
    stacks[2][3] = rotated_state(rng, 3, -1e-6)
    stacks[1][3, 0, 0] = np.nan
    lq.validate_density_matrix(lq.rehermitize(good), _hermitian=True)
    for stack in map(lq.rehermitize, stacks[1:]):
        with pytest.raises(ValidationError) as full:
            lq.validate_density_matrix(stack)
        with pytest.raises(ValidationError) as skipped:
            lq.validate_density_matrix(stack, _hermitian=True)
        assert str(skipped.value) == str(full.value)
        assert skipped.value.index == full.value.index


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


def test_liouville_angle_rejects_non_finite_states():
    good = np.diag([0.6, 0.4]).astype(complex)
    for bad in (np.diag([np.nan, 1.0]), np.diag([np.inf, 0.0])):
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValidationError, match="non-positive purity"):
                lq.liouville_angle(*pair)


def test_superop_expectation_and_variance():
    rng = philox(18)
    s = lq.normalize_state(rand_rho(rng, 2))
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = s.vector
    assert abs(lq.superop_expectation(o, s) - np.vdot(v, o @ v)) < 1e-12
    var = lq.speed(o, s) ** 2
    manual = np.vdot(o @ v, o @ v).real - abs(np.vdot(v, o @ v)) ** 2
    assert abs(var - manual) < 1e-12
    assert lq.speed(np.eye(4), s) ** 2 < 1e-12


def test_superop_variance_shift_invariance():
    rng = philox(19)
    s = lq.normalize_state(rand_pure(rng, 2))
    o = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = 0.7 - 1.3j
    shifted = o + c * np.eye(4)
    assert abs(lq.speed(o, s) ** 2 - lq.speed(shifted, s) ** 2) < 1e-10
