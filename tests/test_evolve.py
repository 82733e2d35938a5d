import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl import evolve
from liouqsl.evolve import (
    build_trace,
    generic_speed,
    kraus_trajectory_speed,
    propagate_expm,
)
from liouqsl.exceptions import NumericalConsistencyError, ValidationError

from conftest import philox, rand_rho, rand_spec


def _close(got, ref, rtol=1e-13):
    return np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def test_propagate_expm_against_direct_exponential():
    rng = philox(40)
    spec = rand_spec(rng, 2)
    rho0 = rand_rho(rng, 2)
    L = lq.build_liouvillian(spec).full
    times = np.linspace(0.0, 2.0, 21)
    trace = propagate_expm(L, rho0, times)
    assert len(trace) == 21
    assert trace.dim == 2
    for k in (0, 7, 20):
        ref = lq.devectorize(expm(L * times[k]) @ lq.vectorize(rho0))
        assert np.abs(trace.states[k] - ref).max() < 1e-12


def test_propagate_expm_nonuniform_grid():
    rng = philox(41)
    spec = rand_spec(rng, 2)
    rho0 = rand_rho(rng, 2)
    L = lq.build_liouvillian(spec).full
    times = np.concatenate([np.linspace(0.0, 1.0, 11), [1.5, 2.25]])
    trace = propagate_expm(L, rho0, times)
    ref = lq.devectorize(expm(L * 2.25) @ lq.vectorize(rho0))
    assert np.abs(trace.states[-1] - ref).max() < 1e-12


def test_trace_columns():
    rng = philox(42)
    spec = rand_spec(rng, 2)
    rho0 = rand_rho(rng, 2)
    L = lq.build_liouvillian(spec).full
    trace = propagate_expm(L, rho0, np.linspace(0.0, 1.0, 11))
    assert abs(trace.overlap_with_initial[0] - 1.0) < 1e-12
    for k, rho in enumerate(trace.states):
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(trace.normalized.purity[k] - np.trace(rho @ rho).real) < 1e-12
        got = np.real(np.vdot(trace.normalized[0].vector, trace.normalized[k].vector))
        assert abs(trace.overlap_with_initial[k] - got) < 1e-12


def test_propagate_expm_grid_validation():
    L = np.zeros((4, 4), dtype=complex)
    rho0 = np.eye(2) / 2.0
    with pytest.raises(ValidationError):
        propagate_expm(L, rho0, np.linspace(1.0, 2.0, 5))
    with pytest.raises(ValidationError):
        propagate_expm(L, rho0, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        propagate_expm(np.zeros((9, 9)), rho0, np.linspace(0.0, 1.0, 5))
    for times in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            propagate_expm(L, rho0, times)
        with pytest.raises(ValidationError, match="finite"):
            build_trace(times, [rho0] * 3)


def test_propagate_expm_norm_overflow():
    L = 3.0 * np.eye(4, dtype=complex)
    for rho0 in (np.eye(2) / 2.0, np.array([np.eye(2) / 2.0, np.diag([1.0, 0.0])])):
        with pytest.raises(NumericalConsistencyError, match="t=10"):
            propagate_expm(L, rho0, np.linspace(0.0, 12.0, 13))


def test_build_trace_reports_failing_time():
    rho = np.eye(2) / 2.0
    bad = np.diag([0.7, 0.7])
    with pytest.raises(ValidationError, match="t=1"):
        build_trace([0.0, 1.0], [rho, bad])
    negative = np.diag([1.5, -0.5])
    with pytest.raises(ValidationError, match=r"t=0\.5: negative eigenvalue"):
        build_trace([0.0, 0.5, 1.0, 1.5], [rho, negative, rho, bad])


def test_propagate_expm_long_uniform_grid_keeps_trace(monkeypatch):
    rng = philox(3)
    spec = rand_spec(rng, 2)
    rho0 = rand_rho(rng, 2)
    L = lq.build_liouvillian(spec).full
    times = np.linspace(0.0, 3.0, 40001)
    modal = propagate_expm(L, rho0, times)
    monkeypatch.setattr(evolve, "_modal_steps", lambda *args: None)
    stepped = propagate_expm(L, rho0, times)
    for trace in (modal, stepped):
        drift = np.abs(np.trace(trace.states, axis1=1, axis2=2) - 1.0).max()
        assert drift < 1e-12
    assert _close(modal.states, stepped.states, rtol=1e-12)


def _per_point_reference(L, v0, times):
    return np.array([v0 @ expm(L * t).T for t in times])


def test_modal_route_is_no_less_accurate_than_stepping():
    # Against per-point expm, over random generators, grids and stacks.
    # Rounding the entries of L to doubles moves exp(L t) v by up to
    # eps |L|_F t |v|, so a deviation below that floor is not resolved; on a
    # non-uniform grid stepping is per-point expm itself, and the modal route
    # is held to the floor there.
    rng = philox(46)
    grids = (
        np.linspace(0.0, 3.0, 201),
        np.linspace(0.0, 3.0, 2049),
        np.concatenate([np.linspace(0.0, 1.0, 21), [1.3, 2.0, 2.05, 3.5]]),
    )
    for d in (2, 3, 4, 6, 8):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        for count in (None, 3):
            rhos = [rand_rho(rng, d) for _ in range(count or 1)]
            v0 = lq.vectorize(np.array(rhos) if count else rhos[0])
            for times in grids:
                picks = np.unique(np.r_[np.arange(0, times.size, 64), times.size - 1])
                ref = _per_point_reference(L, v0, times[picks])
                scale = np.abs(ref).max()
                modal = evolve._modal_steps(L, v0, times)
                assert modal.shape == (times.size,) + v0.shape
                modal_err = np.abs(modal[picks] - ref).max() / scale
                step_err = np.abs(evolve._expm_steps(L, v0, times)[picks] - ref).max()
                floor = np.finfo(float).eps * np.linalg.norm(L) * times[-1]
                assert modal_err <= max(step_err / scale, floor)


def _critically_driven_decay(gamma=1.0, offset=0.0):
    """Driven decaying qubit; its Liouvillian is defective at offset 0."""
    drive = 0.25 * gamma * (1.0 + offset)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = lq.LindbladSpec(hamiltonian=0.5 * drive * sx, jumps=[(gamma, lower)])
    return lq.build_liouvillian(spec).full


def test_defective_generator_falls_back_to_stepping():
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 20.0, 401)
    v0 = lq.vectorize(rho0)
    near = _critically_driven_decay(offset=1e-3)
    assert evolve._modal_steps(near, v0, times) is not None
    for offset in (0.0, 1e-8):
        L = _critically_driven_decay(offset=offset)
        assert evolve._modal_steps(L, v0, times) is None
        trace = propagate_expm(L, rho0, times)
        ref = _per_point_reference(L, v0, times)
        assert np.abs(lq.vectorize(trace.states) - ref).max() < 1e-13


def test_coherent_generator_takes_the_hermitian_route(monkeypatch):
    rng = philox(47)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    L = -1j * lq.commutator_superop(h)
    rho0 = rand_rho(rng, 4)
    times = np.linspace(0.0, 5.0, 101)

    def no_eig(*args):
        raise AssertionError("a coherent generator must not reach eig")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    trace = propagate_expm(L, rho0, times)
    ref = _per_point_reference(L, lq.vectorize(rho0), times)
    assert np.abs(lq.vectorize(trace.states) - ref).max() < 1e-13


def test_non_hermiticity_preserving_generator_takes_the_modes():
    rng = philox(48)
    times = np.linspace(0.0, 2.0, 201)
    for d in (2, 3, 4):
        n = d * d
        L = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        assert lq.spectral_decompose(L).route == "complex"
        v0 = lq.vectorize(np.eye(d) / d)
        modal = evolve._modal_steps(L, v0, times)
        assert np.abs(modal - _per_point_reference(L, v0, times)).max() < 1e-13


def test_propagate_expm_stack_matches_single_calls():
    rng = philox(44)
    grids = (
        np.linspace(0.0, 3.0, 2049),
        np.concatenate([np.linspace(0.0, 1.0, 21), [1.3, 2.0, 2.05, 3.5]]),
    )
    for d in (2, 3, 4):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        for count in (1, 3, 5):
            stack = np.array([rand_rho(rng, d) for _ in range(count)])
            for times in grids:
                traces = propagate_expm(L, stack, times)
                assert len(traces) == count
                for rho0, got in zip(stack, traces):
                    ref = propagate_expm(L, rho0, times)
                    assert got.states.shape == ref.states.shape
                    assert _close(got.states, ref.states)
                    assert _close(got.normalized.vector, ref.normalized.vector)
                    assert _close(got.overlap_with_initial, ref.overlap_with_initial)


def test_propagate_expm_stack_validates_in_one_pass(monkeypatch):
    rng = philox(49)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    stack = np.array([rand_rho(rng, 2) for _ in range(5)])
    calls = []
    original = evolve.validate_density_matrix

    def counted(rho, **kwargs):
        calls.append(np.shape(rho))
        return original(rho, **kwargs)

    monkeypatch.setattr(evolve, "validate_density_matrix", counted)
    traces = propagate_expm(L, stack, np.linspace(0.0, 2.0, 101))
    assert calls == [(5, 2, 2), (5, 101, 2, 2)]
    assert [len(trace) for trace in traces] == [101] * 5


def test_build_trace_stack_names_state_and_time():
    rho = np.eye(2) / 2.0
    bad = np.diag([0.7, 0.7])
    good = [rho, rho, rho]
    stack = [good, [rho, rho, bad], [rho, bad, rho]]
    with pytest.raises(ValidationError, match=r"initial state 1: state at t=2: trace"):
        build_trace([0.0, 1.0, 2.0], stack)


def test_propagate_expm_stack_names_the_invalid_state():
    rng = philox(45)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    stack = np.array([rand_rho(rng, 2), rand_rho(rng, 2), np.diag([1.5, -0.5])])
    with pytest.raises(ValidationError, match="initial state 2: negative eigenvalue"):
        propagate_expm(L, stack, np.linspace(0.0, 1.0, 5))


def test_generic_speed_matches_generator_route():
    spec = lq.amplitude_damping_spec(0.1, 0.0)
    L = lq.build_liouvillian(spec).full
    trace = propagate_expm(L, lq.superposition_state(0.6), np.linspace(0.0, 5.0, 501))
    for k in (1, 120, 250, 499):
        direct = lq.speed(L, trace.normalized[k])
        assert abs(generic_speed(trace, k) - direct) < 1e-5
    with pytest.raises(ValidationError):
        generic_speed(trace, 0)
    with pytest.raises(ValidationError):
        generic_speed(trace, 500)


def test_kraus_trajectory_speed_matches_generator_route():
    gamma = 0.3
    spec = lq.amplitude_damping_spec(gamma, 0.0)
    L = lq.build_liouvillian(spec).full
    rho0 = lq.superposition_state(0.6)

    def family(tau):
        p = 1.0 - np.exp(-gamma * tau)
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
        return [k0, k1]

    t = 0.8
    trace = propagate_expm(L, rho0, np.array([0.0, t]))
    direct = lq.speed(L, trace.normalized[1])
    assert abs(kraus_trajectory_speed(family, rho0, t, 1e-6) - direct) < 1e-8
    for bad in (0.0, np.nan):
        with pytest.raises(ValidationError):
            kraus_trajectory_speed(family, rho0, t, bad)
