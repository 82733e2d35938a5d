import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl.exceptions import (
    NumericalConsistencyError,
    QuadratureError,
    ValidationError,
)
from liouqsl.qsl import BasisSet

from conftest import philox, rand_pure, rand_rho, rand_spec


def _ad_trace(alpha=0.6, gamma=0.1, n=0.0, horizon=5.0, points=201):
    spec = lq.amplitude_damping_spec(gamma, n)
    L = lq.build_liouvillian(spec).full
    times = np.linspace(0.0, horizon, points)
    return L, lq.propagate_expm(L, lq.superposition_state(alpha), times)


def _speed_matrix_form(rho, rhodot):
    """Speed of a Hermitian rho moving at rhodot, from traces of matrix products.

    sqrt(tr(rhodot^+ rhodot)/tr rho^2 - |tr(rho rhodot)/tr rho^2|^2).
    """
    purity = np.trace(rho @ rho).real
    mean = np.trace(rho @ rhodot) / purity
    return np.sqrt(np.trace(rhodot.conj().T @ rhodot).real / purity - abs(mean) ** 2)


def test_speed_agrees_with_matrix_form():
    rng = philox(50)
    for d in (2, 3):
        spec = rand_spec(rng, d)
        L = lq.build_liouvillian(spec).full
        rho = rand_rho(rng, d)
        rhodot = lq.devectorize(L @ lq.vectorize(rho))
        s = lq.normalize_state(rho)
        assert abs(lq.speed(L, s) - _speed_matrix_form(rho, rhodot)) < 1e-12


def test_speed_matrix_form_scale_invariant():
    rng = philox(51)
    spec = rand_spec(rng, 2)
    L = lq.build_liouvillian(spec).full
    rho = rand_rho(rng, 2)
    rhodot = lq.devectorize(L @ lq.vectorize(rho))
    a = _speed_matrix_form(rho, rhodot)
    b = _speed_matrix_form(3.0 * rho, 3.0 * rhodot)
    assert abs(a - b) < 1e-12


def test_speed_vanishes_at_steady_state():
    spec = lq.amplitude_damping_spec(0.2, 0.5)
    L = lq.build_liouvillian(spec).full
    ss = lq.steady_state(lq.spectral_decompose(L))
    assert lq.speed(L, lq.normalize_state(ss)) < 1e-12


def test_speed_decomposition_sum_rule():
    rng = philox(52)
    for d in (2, 3):
        spec = rand_spec(rng, d)
        parts = lq.build_liouvillian(spec)
        s = lq.normalize_state(rand_rho(rng, d))
        var_h, var_d, cross = lq.speed_decomposition(parts, s)
        total = lq.speed(parts.full, s) ** 2
        assert abs(var_h + var_d + cross - total) < 1e-10
        assert abs(cross) <= 2.0 * np.sqrt(var_h * var_d) + 1e-12


def test_average_speed_is_simpson_average_of_speed_column():
    from scipy.integrate import simpson

    L, trace = _ad_trace()
    avg = lq.average_speed(trace, L)
    column = lq.speed(L, trace.normalized)
    assert column.shape == trace.times.shape
    direct = np.array([lq.speed(L, s) for s in trace.normalized])
    assert_allclose(column, direct)
    horizon = trace.times[-1] - trace.times[0]
    assert_allclose(avg, simpson(column, x=trace.times) / horizon, rtol=1e-14)
    assert avg > 0.0


def test_average_speed_needs_odd_grid():
    L, trace = _ad_trace(points=101)
    even = lq.build_trace(trace.times[:100], trace.states[:100])
    with pytest.raises(QuadratureError):
        lq.average_speed(even, L)


def test_mt_bound_below_horizon():
    L, trace = _ad_trace(horizon=5.0)
    assert lq.exact_qsl(trace, L).bound_mt <= 5.0


def test_bounds_vanish_for_stationary_trajectory():
    spec = lq.amplitude_damping_spec(0.2, 0.5)
    L = lq.build_liouvillian(spec).full
    ss = lq.steady_state(lq.spectral_decompose(L))
    trace = lq.propagate_expm(L, ss, np.linspace(0.0, 2.0, 21))
    report = lq.exact_qsl(trace, L)
    assert report.theta == 0.0
    assert report.bound_mt == 0.0
    assert report.bound_nc == 0.0
    assert report.exact_time == 0.0
    assert report.wootters_length < 1e-12


def test_bound_chain_holds_at_small_horizons():
    # The angle comes from unit vectors whose entries carry rounding of a few
    # eps, so it may exceed the integrated speed by that much: 1e-14 in angle.
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.05, 0.2)).full
    rho0 = lq.superposition_state(0.7)
    for horizon in 10.0 ** np.arange(-8, 3):
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, horizon, 201))
        report = lq.exact_qsl(trace, L)
        assert report.bound_mt <= report.bound_nc * (1.0 + 1e-12)
        assert report.bound_nc <= report.T + 1e-14 / report.avg_nc_speed
        if horizon <= 1e-4:
            # to first order in T the trajectory is a geodesic
            assert report.bound_mt >= report.T * (1.0 - 1e-6)


def test_simpson_and_cumulative_simpson_match_scipy():
    from scipy.integrate import cumulative_simpson, simpson

    from liouqsl.qsl import _cumulative_simpson, _simpson

    rng = philox(63)
    for n in (3, 5, 41, 2001, 40001):
        uniform = np.linspace(0.0, 3.0, n)
        random = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
        for x in (uniform, random):
            y = np.cos(3.0 * x) * np.exp(-0.2 * x) + rng.normal(scale=0.1, size=n)
            assert _simpson(y, x) == simpson(y, x=x)
            assert np.array_equal(
                _cumulative_simpson(y, x), cumulative_simpson(y, x=x, initial=0.0)
            )
    with pytest.raises(QuadratureError):
        _simpson(np.ones(4), np.arange(4.0))


def test_operator_norm_and_norm_bounds():
    from liouqsl.qsl import _bound_ratio

    rng = philox(53)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    assert abs(lq.operator_norm(L) - np.linalg.norm(L, 2)) < 1e-12
    trace = lq.propagate_expm(L, rand_rho(rng, 2), np.linspace(0.0, 2.0, 41))
    report = lq.exact_qsl(trace, L)
    assert report.bound_opnorm == report.theta / lq.operator_norm(L)
    assert report.bound_hsnorm == report.theta / np.linalg.norm(L)
    assert report.bound_hsnorm <= report.bound_opnorm
    assert _bound_ratio(0.0, lq.operator_norm(L)) == 0.0
    assert _bound_ratio(0.0, 0.0) == 0.0
    with pytest.raises(NumericalConsistencyError):
        _bound_ratio(0.7, lq.operator_norm(np.zeros((4, 4))))


def test_complete_basis_orthonormal():
    rng = philox(54)
    for d in (2, 3):
        s = lq.normalize_state(rand_rho(rng, d))
        basis = lq.complete_basis(s)
        assert basis.size == d * d
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.abs(gram - np.eye(d * d)).max() < 1e-12
        assert np.abs(basis.vectors[:, 0] - s.vector).max() < 1e-12
    ground = lq.normalize_state(np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(lq.complete_basis(ground).vectors, np.eye(4))


def test_basis_set_rejects_skew_columns():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(NumericalConsistencyError):
        BasisSet(vectors=m)


def test_basis_amplitudes():
    rng = philox(55)
    s = lq.normalize_state(rand_rho(rng, 2))
    basis = lq.complete_basis(s)
    amps = basis.amplitudes(s.vector)
    assert abs(amps[0] - 1.0) < 1e-12
    assert np.abs(amps[1:]).max() < 1e-12
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12


def test_classical_split_of_the_variance():
    rng = philox(56)
    for d in (2, 3):
        spec = rand_spec(rng, d)
        L = lq.build_liouvillian(spec).full
        anchor = lq.normalize_state(rand_rho(rng, d))
        basis = lq.complete_basis(anchor)
        s = lq.normalize_state(rand_rho(rng, d))
        c = lq.classical_part(L, basis, s)
        assert np.abs(c + c.conj().T).max() < 1e-12
        var_cl = lq.superop_variance(c, s)
        nc = lq.nonclassical_speed(L, basis, s)
        total = lq.speed(L, s) ** 2
        assert abs(var_cl + nc**2 - total) < 1e-10
        assert nc <= lq.speed(L, s) + 1e-12


def test_exact_uncertainty_product_is_half():
    rng = philox(57)
    worst = 0.0
    for k in range(20):
        d = 2 + k % 2
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        anchor = lq.normalize_state(rand_rho(rng, d))
        basis = lq.complete_basis(anchor)
        s = lq.normalize_state(rand_rho(rng, d))
        delta, nc = lq.exact_uncertainty(L, basis, s)
        worst = max(worst, abs(delta * nc - 0.5))
    assert worst < 1e-9


def test_exact_uncertainty_rejects_flat_populations():
    rng = philox(58)
    s = lq.normalize_state(rand_rho(rng, 2))
    basis = lq.complete_basis(lq.normalize_state(rand_rho(rng, 2)))
    with pytest.raises(NumericalConsistencyError):
        lq.exact_uncertainty(np.eye(4, dtype=complex), basis, s)


def test_uncertainty_product_inequality():
    rng = philox(59)
    for k in range(30):
        d = 2 + k % 2
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        b = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        s = lq.normalize_state(rand_rho(rng, d))
        lhs, rhs = lq.uncertainty_product(a, b, s)
        assert lhs >= rhs - 1e-10


def test_wootters_length_dominates_angle():
    for alpha in (0.4, 0.7, 0.9):
        L, trace = _ad_trace(alpha=alpha, points=401)
        basis = lq.complete_basis(trace.normalized[0])
        length = lq.wootters_length(trace, L, basis)
        theta = lq.liouville_angle(trace.states[0], trace.states[-1])
        assert length >= theta - 1e-9


def test_wootters_length_matches_fine_grid_reference():
    rng = philox(9)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    rho0 = rand_rho(rng, 2)
    lengths = []
    for points in (2001, 40001):
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, 10.0, points))
        basis = lq.complete_basis(trace.normalized[0])
        lengths.append(lq.wootters_length(trace, L, basis))
    assert abs(lengths[0] - lengths[1]) / lengths[1] < 1e-10


def test_wootters_length_handles_modulus_kinks():
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    spec = lq.LindbladSpec(hamiltonian=h)
    L = lq.build_liouvillian(spec).full
    rho0 = lq.superposition_state(1.0 / np.sqrt(2.0))
    coarse = lq.propagate_expm(L, rho0, np.linspace(0.0, 3.0, 201))
    fine = lq.propagate_expm(L, rho0, np.linspace(0.0, 3.0, 2001))
    basis = lq.complete_basis(coarse.normalized[0])
    a = lq.wootters_length(coarse, L, basis)
    b = lq.wootters_length(fine, L, basis)
    assert abs(a - b) < 1e-3


def test_exact_qsl_recovers_the_horizon():
    for seed, d, horizon in ((1, 2, 3.0), (11, 3, 2.0)):
        rng = philox(seed)
        spec = rand_spec(rng, d)
        rho0 = rand_rho(rng, d)
        L = lq.build_liouvillian(spec).full
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, horizon, 2001))
        report = lq.exact_qsl(trace, L)
        assert abs(report.T - report.exact_time) / report.T < 1e-10


def test_exact_qsl_recovers_the_horizon_on_random_specs():
    rng = philox(62)
    worst = 0.0
    for k in range(12):
        d = 2 + k % 5
        spec = rand_spec(rng, d)
        rho0 = rand_pure(rng, d) if k % 2 else rand_rho(rng, d)
        L = lq.build_liouvillian(spec).full
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, 2.0, 201))
        report = lq.exact_qsl(trace, L)
        worst = max(worst, abs(report.exact_time - report.T) / report.T)
    assert worst < 1e-10


def test_exact_qsl_report_consistency():
    L, trace = _ad_trace(points=401)
    report = lq.exact_qsl(trace, L)
    assert abs(report.bound_mt - report.theta / report.avg_speed) < 1e-12
    assert abs(report.bound_nc - report.theta / report.avg_nc_speed) < 1e-12
    assert abs(report.exact_time - report.wootters_length / report.avg_nc_speed) < 1e-12
    assert report.bound_hsnorm <= report.bound_opnorm <= report.bound_mt
    assert report.bound_mt <= report.bound_nc <= report.T + 1e-8
    assert 0.0 < report.efficiency <= 1.0
    doc = report.to_json()
    assert set(doc) == set(report.__dict__)
    assert all(isinstance(v, float) for v in doc.values())


def test_speed_efficiency_bounded():
    L, trace = _ad_trace(points=201)
    eta = lq.exact_qsl(trace, L).efficiency
    assert 0.0 < eta <= 1.0
    avg = lq.average_speed(trace, L)
    assert abs(eta - avg / lq.operator_norm(L)) < 1e-12
