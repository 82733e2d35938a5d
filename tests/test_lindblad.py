import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl.exceptions import DimensionError, ValidationError

from conftest import philox, rand_rho, rand_spec


def _apply_dissipator(spec, rho):
    """sum_k g_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2) in matrix form."""
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for rate, op in spec.jumps:
        opdop = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def test_spec_validation():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        lq.LindbladSpec(hamiltonian=h)
    with pytest.raises(ValidationError):
        lq.LindbladSpec(hamiltonian=np.eye(2), jumps=[(-0.5, np.eye(2))])
    with pytest.raises(DimensionError):
        lq.LindbladSpec(hamiltonian=np.eye(2), jumps=[(0.5, np.eye(3))])
    with pytest.raises(ValidationError):
        lq.LindbladSpec(hamiltonian=np.eye(2), jumps=[(0.1, np.eye(2))] * 4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            lq.LindbladSpec(hamiltonian=np.eye(2), jumps=[(bad, np.eye(2))])
        m = np.eye(2)
        m[0, 0] = bad
        with pytest.raises(ValidationError):
            lq.LindbladSpec(hamiltonian=m)
        with pytest.raises(ValidationError):
            lq.LindbladSpec(hamiltonian=np.eye(2), jumps=[(0.5, m)])
    with pytest.raises(DimensionError):
        lq.LindbladSpec(hamiltonian=np.zeros((0, 0)))
    spec = lq.LindbladSpec(hamiltonian=np.eye(3))
    assert spec.dim == 3 and spec.jumps == []


def test_liouvillian_matches_matrix_action():
    rng = philox(20)
    for d in (2, 3):
        spec = rand_spec(rng, d)
        parts = lq.build_liouvillian(spec)
        rho = rand_rho(rng, d)
        h = spec.hamiltonian
        expected = -1j * (h @ rho - rho @ h) + _apply_dissipator(spec, rho)
        got = lq.devectorize(parts.full @ lq.vectorize(rho))
        assert_allclose(got, expected, atol=1e-12)


def test_dissipator_superop_agreement():
    rng = philox(21)
    spec = rand_spec(rng, 3)
    parts = lq.build_liouvillian(spec)
    rho = rand_rho(rng, 3)
    got = lq.devectorize(parts.dissipative @ lq.vectorize(rho))
    assert_allclose(got, _apply_dissipator(spec, rho), atol=1e-12)


def test_liouvillian_split_identity():
    rng = philox(22)
    for d in (2, 3):
        parts = lq.build_liouvillian(rand_spec(rng, d))
        recombined = -1j * parts.reversible + parts.irreversible
        assert np.abs(recombined - parts.full).max() < 1e-12
        assert np.abs(parts.reversible - parts.reversible.conj().T).max() < 1e-12


def test_generator_splits_are_computed_on_access():
    parts = lq.build_liouvillian(rand_spec(philox(24), 3))
    assert set(vars(parts)) == {"full", "hermitian_generator", "dissipative"}
    lh, ld = parts.hermitian_generator, parts.dissipative
    assert np.array_equal(parts.reversible, lh + 0.5j * (ld - ld.conj().T))
    assert np.array_equal(parts.irreversible, 0.5 * (ld + ld.conj().T))


def test_hermitian_generator():
    rng = philox(23)
    spec = rand_spec(rng, 2)
    parts = lq.build_liouvillian(spec)
    h = spec.hamiltonian
    eye = np.eye(2)
    assert_allclose(parts.hermitian_generator, np.kron(eye, h) - np.kron(h.T, eye))
    lh = parts.hermitian_generator
    assert np.abs(lh - lh.conj().T).max() < 1e-12


def test_assembly_equals_the_kron_formula_bit_for_bit():
    rng = philox(25)
    specs = [lq.amplitude_damping_spec(0.05, 0.2)]
    specs += [rand_spec(rng, d) for d in (2, 3, 5, 16)]
    for spec in specs:
        h, eye = spec.hamiltonian, np.eye(spec.dim, dtype=complex)
        lh = np.kron(eye, h) - np.kron(h.T, eye)
        ld = np.zeros_like(lh)
        for rate, op in spec.jumps:
            opdop = op.conj().T @ op
            ld += rate * (
                np.kron(op.conj(), op) - 0.5 * (np.kron(eye, opdop) + np.kron(opdop.T, eye))
            )
        parts = lq.build_liouvillian(spec)
        assert np.array_equal(parts.hermitian_generator, lh)
        assert np.array_equal(parts.dissipative, ld)
        assert np.array_equal(parts.full, -1j * lh + ld)
        assert np.array_equal(lq.sandwich_superop(h, opdop), np.kron(opdop.T, h))


def test_no_jump_spec_is_unitary():
    rng = philox(24)
    spec = lq.LindbladSpec(hamiltonian=rand_spec(rng, 2).hamiltonian)
    parts = lq.build_liouvillian(spec)
    assert np.abs(parts.dissipative).max() == 0.0
    assert_allclose(parts.full, -1j * parts.hermitian_generator)


def test_trace_preservation():
    rng = philox(25)
    for d in (2, 3):
        parts = lq.build_liouvillian(rand_spec(rng, d))
        left = lq.vectorize(np.eye(d, dtype=complex)).conj() @ parts.full
        assert np.abs(left).max() < 1e-12


def test_kraus_set_completeness():
    rng = philox(26)
    h = rand_spec(rng, 2).hamiltonian
    superop = lq.kraus_to_superop([expm(-1j * h)])
    identity = lq.vectorize(np.eye(2)).conj()
    assert np.abs(identity @ superop - identity).max() < 1e-14
    with pytest.raises(ValidationError):
        lq.kraus_to_superop([])
    with pytest.raises(DimensionError):
        lq.kraus_to_superop([np.eye(2), np.eye(3)])


def test_kraus_to_superop_exact_damping_family():
    gamma = 0.3
    t = 0.8
    p = 1.0 - np.exp(-gamma * t)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    spec = lq.amplitude_damping_spec(gamma, 0.0)
    L = lq.build_liouvillian(spec).full
    assert np.abs(lq.kraus_to_superop([k0, k1]) - expm(L * t)).max() < 1e-14

