import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl.exceptions import ValidationError

from conftest import philox


def _orthogonal_pair(rng, d, weights):
    """Same-spectrum states on disjoint supports inside a random frame."""
    k = len(weights)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    rho0 = (u[:, :k] * weights) @ u[:, :k].conj().T
    rho_perp = (u[:, k : 2 * k] * weights) @ u[:, k : 2 * k].conj().T
    return rho0, rho_perp


def _mixing_schedule(gamma, times):
    """Weight of rho0 along the generated path: (1 + exp(-2 gamma t))/2."""
    return 0.5 * (1.0 + np.exp(-2.0 * gamma * np.asarray(times, dtype=float)))


def _geodesic_state(gs, weight):
    """Convex mixture weight*rho0 + (1-weight)*rho0_perp."""
    return weight * gs.rho0 + (1.0 - weight) * gs.rho0_perp


def test_mixing_schedule_values():
    assert _mixing_schedule(0.3, 0.0) == 1.0
    gamma = 0.2
    t_half = np.log(2.0) / (2.0 * gamma)
    assert abs(_mixing_schedule(gamma, t_half) - 0.75) < 1e-12
    assert abs(_mixing_schedule(gamma, 1e4) - 0.5) < 1e-12
    vals = _mixing_schedule(gamma, np.linspace(0.0, 10.0, 11))
    assert np.all(np.diff(vals) < 0.0)


def test_geodesic_state_endpoints():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    gs = lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=0.1)
    assert_allclose(_geodesic_state(gs, 1.0), zero)
    assert_allclose(_geodesic_state(gs, 0.0), one)
    assert_allclose(_geodesic_state(gs, 0.625), np.diag([0.625, 0.375]))


def test_geodesic_spec_validation():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    plus = lq.superposition_state(1.0 / np.sqrt(2.0))
    with pytest.raises(ValidationError):
        lq.GeodesicSpec(rho0=zero, rho0_perp=plus, gamma=0.1)
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=gamma)
    # The unitary is always connecting_unitary's; a caller cannot pass another.
    with pytest.raises(TypeError, match="unitary"):
        lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=0.1, unitary=np.diag([1.0, 1.0]))


def test_connecting_unitary():
    rng = philox(60)
    for d, weights in ((2, [1.0]), (3, [1.0]), (4, [0.7, 0.3])):
        rho0, rho_perp = _orthogonal_pair(rng, d, weights)
        u = lq.connecting_unitary(rho0, rho_perp)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
        assert np.abs(u @ u - np.eye(d)).max() < 1e-10
        assert np.abs(u @ rho0 @ u.conj().T - rho_perp).max() < 1e-8
        assert np.abs(u @ rho_perp @ u.conj().T - rho0).max() < 1e-8
    with pytest.raises(ValidationError):
        lq.connecting_unitary(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        lq.connecting_unitary(
            np.diag([0.8, 0.2, 0.0, 0.0]), np.diag([0.0, 0.0, 0.3, 0.7])
        )


def test_optimal_liouvillian_swaps_endpoints():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    gs = lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=0.4)
    L = lq.optimal_liouvillian(gs)
    got = L @ lq.vectorize(zero)
    assert np.abs(got - 0.4 * (lq.vectorize(one) - lq.vectorize(zero))).max() < 1e-12


@pytest.mark.parametrize("d, weights", [(3, [1.0]), (4, [0.6, 0.4])])
def test_optimal_liouvillian_is_the_one_jump_lindblad_generator(d, weights):
    rho0, rho_perp = _orthogonal_pair(philox(62), d, weights)
    gs = lq.GeodesicSpec(rho0=rho0, rho0_perp=rho_perp, gamma=0.35)
    spec = lq.LindbladSpec(np.zeros((d, d)), [(gs.gamma, gs.unitary)])
    assert np.array_equal(lq.optimal_liouvillian(gs), lq.build_liouvillian(spec).full)


def test_generated_path_follows_the_schedule():
    gamma = 0.1
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    gs = lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=gamma)
    L = lq.optimal_liouvillian(gs)
    times = np.linspace(0.0, np.log(2.0) / gamma, 201)
    trace = lq.propagate_expm(L, zero, times)
    weights = _mixing_schedule(gamma, times)
    worst = max(
        np.abs(rho - _geodesic_state(gs, w)).max()
        for rho, w in zip(trace.states, weights)
    )
    assert worst < 1e-12
    assert np.abs(trace.states[-1] - np.diag([0.625, 0.375])).max() < 1e-12


def test_schedule_holds_for_mixed_endpoints():
    rng = philox(61)
    rho0, rho_perp = _orthogonal_pair(rng, 4, [0.6, 0.4])
    gamma = 0.25
    gs = lq.GeodesicSpec(rho0=rho0, rho0_perp=rho_perp, gamma=gamma)
    L = lq.optimal_liouvillian(gs)
    times = np.linspace(0.0, 4.0, 101)
    trace = lq.propagate_expm(L, rho0, times)
    weights = _mixing_schedule(gamma, times)
    worst = max(
        np.abs(rho - _geodesic_state(gs, w)).max()
        for rho, w in zip(trace.states, weights)
    )
    assert worst < 1e-10


def test_relative_purity_matches_schedule_and_decreases():
    gamma = 0.1
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    gs = lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=gamma)
    L = lq.optimal_liouvillian(gs)
    times = np.linspace(0.0, 20.0, 101)
    trace = lq.propagate_expm(L, zero, times)
    weights = lq.relative_purity(zero, trace)
    assert_allclose(weights, _mixing_schedule(gamma, times), atol=1e-12)
    assert np.all(np.diff(weights) < 0.0)
    assert np.all(lq.physicality_check(zero, trace))


def test_mt_bound_saturates_on_the_generated_path():
    gamma = 0.05
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    gs = lq.GeodesicSpec(rho0=zero, rho0_perp=one, gamma=gamma)
    L = lq.optimal_liouvillian(gs)
    horizon = -np.log(0.5) / gamma
    trace = lq.propagate_expm(L, zero, np.linspace(0.0, horizon, 2001))
    report = lq.exact_qsl(trace, L)
    assert abs(report.bound_mt / report.T - 1.0) < 1e-9
    assert abs(report.wootters_length - report.theta) < 1e-10
    assert abs(report.exact_time / report.T - 1.0) < 1e-10
