import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl.exceptions import QuadratureError, ValidationError

from conftest import philox, rand_hermitian, rand_spec

MPEMBA_ETA = [
    0.33953878435580803,
    0.28544919961521004,
    0.1973356168228834,
    0.1202531981360759,
]
MPEMBA_DELTA = [
    1.1234082471841589,
    2.6739961431410393,
    3.0114254017806843,
    2.002251663721097,
]
MPEMBA_FIRST_CROSSING = (0.25, 0.5, 88.85061015352001)


def test_amplitude_damping_spec_structure():
    spec = lq.amplitude_damping_spec(0.2, 0.0)
    assert len(spec.jumps) == 1
    assert spec.jumps[0][0] == 0.2
    spec = lq.amplitude_damping_spec(0.2, 0.5)
    assert len(spec.jumps) == 2
    assert abs(spec.jumps[0][0] - 0.3) < 1e-15
    assert abs(spec.jumps[1][0] - 0.1) < 1e-15
    with pytest.raises(ValidationError):
        lq.amplitude_damping_spec(-0.1, 0.0)
    with pytest.raises(ValidationError):
        lq.amplitude_damping_spec(0.1, -0.5)
    for gamma, n in ((np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValidationError):
            lq.amplitude_damping_spec(gamma, n)


def test_amplitude_damping_eigenvalues():
    gamma = 0.3
    L = lq.build_liouvillian(lq.amplitude_damping_spec(gamma, 0.0)).full
    sd = lq.spectral_decompose(L)
    assert_allclose(
        sorted(sd.eigenvalues.real),
        [-gamma, -gamma / 2.0, -gamma / 2.0, 0.0],
        atol=1e-12,
    )
    assert np.abs(sd.eigenvalues.imag).max() < 1e-12


def test_superposition_state():
    alpha = 0.6
    rho = lq.superposition_state(alpha)
    assert abs(rho[0, 0] - 0.36) < 1e-12
    assert abs(rho[1, 1] - 0.64) < 1e-12
    assert abs(rho[0, 1] - 0.48) < 1e-12
    lq.validate_density_matrix(rho)
    with pytest.raises(ValidationError):
        lq.superposition_state(1.5)


def test_closed_forms_match_propagation():
    gamma = 0.01
    worst_state = worst_angle = worst_speed = 0.0
    for n in (0.0, 0.5):
        spec = lq.amplitude_damping_spec(gamma, n)
        L = lq.build_liouvillian(spec).full
        ss = lq.steady_state(lq.spectral_decompose(L))
        for alpha in (0.3, 0.7):
            rho0 = lq.superposition_state(alpha)
            times = np.linspace(0.0, 200.0, 9)
            trace = lq.propagate_expm(L, rho0, times)
            for k, t in enumerate(times):
                forms = lq.amplitude_damping_closed_forms(alpha, gamma, n, t)
                worst_state = max(
                    worst_state, np.abs(forms["rho_t"] - trace.states[k]).max()
                )
                worst_speed = max(
                    worst_speed,
                    abs(forms["speed"] - lq.speed(L, trace.normalized[k])),
                )
                if k == 0:
                    # arccos conditioning floor at an exactly zero angle
                    assert forms["theta_0t"] < 1e-7
                    continue
                worst_angle = max(
                    worst_angle,
                    abs(forms["theta_0t"] - lq.liouville_angle(rho0, trace.states[k])),
                    abs(forms["theta_ss_t"] - lq.liouville_angle(ss, trace.states[k])),
                )
    assert worst_state < 1e-12
    assert worst_angle < 1e-12
    assert worst_speed < 1e-12


def test_closed_form_limits():
    forms = lq.amplitude_damping_closed_forms(0.7, 0.5, 0.2, 0.0)
    assert forms["theta_0t"] < 1e-7
    late = lq.amplitude_damping_closed_forms(0.7, 0.5, 0.2, 80.0)
    assert late["theta_ss_t"] < 1e-8
    assert late["speed"] < 1e-8
    with pytest.raises(ValidationError):
        lq.amplitude_damping_closed_forms(1.2, 0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        lq.amplitude_damping_closed_forms(0.5, 0.5, 0.0, -1.0)
    nan, inf = float("nan"), float("inf")
    for gamma, n, t in ((nan, 0.0, 1.0), (inf, 0.0, 1.0), (0.5, nan, 1.0),
                        (0.5, inf, 1.0), (0.5, 0.0, nan), (0.5, 0.0, inf)):
        with pytest.raises(ValidationError):
            lq.amplitude_damping_closed_forms(0.5, gamma, n, t)


def test_operator_norm_closed_form():
    for n in (0.0, 0.5, 2.0):
        gamma = 0.01
        L = lq.build_liouvillian(lq.amplitude_damping_spec(gamma, n)).full
        forms = lq.amplitude_damping_closed_forms(0.5, gamma, n, 1.0)
        assert abs(forms["opnorm"] - lq.operator_norm(L)) < 1e-10
    forms = lq.amplitude_damping_closed_forms(0.5, 0.01, 0.0, 1.0)
    assert abs(forms["opnorm"] - np.sqrt(2.0) * 0.01) < 1e-12


def test_coherent_gibbs_state():
    rng = philox(80)
    h = rand_hermitian(rng, 3)
    rho = lq.coherent_gibbs_state(h, 0.0)
    lq.validate_density_matrix(rho)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    energies, vectors = np.linalg.eigh(h)
    flat = vectors @ (np.ones(3) / np.sqrt(3.0))
    assert np.abs(rho - np.outer(flat, flat.conj())).max() < 1e-12
    cold = lq.coherent_gibbs_state(h, 200.0)
    ground = vectors[:, 0]
    assert abs(np.real(ground.conj() @ cold @ ground) - 1.0) < 1e-8
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            lq.coherent_gibbs_state(h, beta)
    with pytest.raises(ValidationError):
        lq.coherent_gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_hamiltonian_with_a_nan_entry_is_rejected():
    h = np.diag([np.nan, 0.5, 1.3])
    with pytest.raises(ValidationError, match="non-finite"):
        lq.coherent_gibbs_state(h, 0.5)
    with pytest.raises(ValidationError, match="non-finite"):
        lq.krylov_build(h, np.diag([1.0, 0.0, 0.0]), np.linspace(0.0, 1.0, 11))


def test_sff_unitary_closed_form():
    rng = philox(81)
    h = rand_hermitian(rng, 3)
    beta = 0.4
    eye = np.eye(3, dtype=complex)
    lh = np.kron(eye, h) - np.kron(h.T, eye)

    def channel(t):
        return expm(-1j * lh * t)
    energies = np.linalg.eigvalsh(h)
    weights = np.exp(-beta * (energies - energies.min()))
    probs = weights / weights.sum()
    times = np.array([0.0, 0.5, 2.0, 7.0])
    vbeta = lq.vectorize(lq.coherent_gibbs_state(h, beta))
    states = [lq.devectorize(channel(t) @ vbeta) for t in times]
    values = lq.sff(lq.build_trace(times, states))
    assert abs(values[0] - 1.0) < 1e-12
    for t, value in zip(times[1:], values[1:]):
        expected = abs(np.sum(probs * np.exp(-1j * energies * t))) ** 2
        assert abs(value - expected) < 1e-10


def test_sff_bound_check():
    rng = philox(82)
    for spec in (lq.amplitude_damping_spec(0.05, 0.2), rand_spec(rng, 2)):
        L = lq.build_liouvillian(spec).full
        rho0 = lq.coherent_gibbs_state(spec.hamiltonian, 0.5)
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, 4.0, 201))
        lhs, rhs = lq.sff_bound_check(trace, L)
        assert lhs.shape == rhs.shape == trace.times.shape
        assert np.all(lhs <= rhs + 1e-8)


def test_sff_bound_check_at_small_horizons():
    # An arccos of the overlap reads 0 at T = 1e-9 and exceeds the bound at
    # T = 1e-5; the left-hand side is the Liouville angle, accurate there.
    h = np.diag([0.0, 0.5, 1.3]) + 0.2 * (np.eye(3, k=1) + np.eye(3, k=-1))
    L = -1j * lq.commutator_superop(h)
    rho0 = lq.coherent_gibbs_state(h, 0.5)
    for horizon in (1e-9, 1e-5):
        trace = lq.propagate_expm(L, rho0, np.linspace(0.0, horizon, 101))
        lhs, rhs = lq.sff_bound_check(trace, L)
        assert lhs[0] == rhs[0] == 0.0
        assert np.all(0.0 < lhs[1:]) and np.all(lhs <= rhs)


def test_krylov_build_structure():
    rng = philox(83)
    h = rand_hermitian(rng, 3)
    rho0 = lq.coherent_gibbs_state(h, 0.3)
    times = np.linspace(0.0, 3.0, 101)
    kd = lq.krylov_build(h, rho0, times)
    assert 1 <= kd.dimension <= 9
    gram = kd.basis.conj().T @ kd.basis
    assert np.abs(gram - np.eye(kd.dimension)).max() < 1e-10
    assert np.all(kd.lanczos_b > 0.0)
    norms = np.sum(np.abs(kd.amplitudes) ** 2, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10
    assert kd.complexity[0] < 1e-12
    assert abs(kd.ladder_norm - (kd.dimension - 1)) == 0.0
    with pytest.raises(ValidationError):
        lq.krylov_build(np.array([[0.0, 1.0], [0.0, 0.0]]), rho0[:2, :2], times)
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValidationError, match="finite"):
            lq.krylov_build(h, rho0, bad)


def test_krylov_bound_check():
    rng = philox(84)
    for d in (3, 4):
        h = rand_hermitian(rng, d)
        rho0 = lq.coherent_gibbs_state(h, 0.2)
        times = np.linspace(0.0, 2.0, 101)
        kd = lq.krylov_build(h, rho0, times)
        eye = np.eye(d, dtype=complex)
        L = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        assert np.array_equal(kd.generator, L)
        margins = lq.krylov_precursor_margins(kd)
        assert margins.min() > -1e-8
        lhs, rhs = lq.krylov_bound_check(kd)
        assert lhs.shape == rhs.shape == times.shape
        assert np.all(lhs <= rhs + 1e-8)


def test_krylov_commuting_initial_state():
    h = np.diag([1.0, -1.0]).astype(complex)
    times = np.linspace(0.0, 2.0, 21)
    kd = lq.krylov_build(h, np.eye(2) / 2.0, times)
    assert kd.dimension == 1
    assert np.abs(kd.complexity).max() == 0.0
    assert np.all(kd.complexity_ratio == 0.0)
    lhs, rhs = lq.krylov_bound_check(kd)
    assert np.all(lhs == 0.0) and np.all(rhs >= 0.0)


def test_tradeoff_check():
    rng = philox(85)
    h = rand_hermitian(rng, 3)
    rho0 = lq.coherent_gibbs_state(h, 0.2)
    times = np.linspace(0.0, 2.0, 101)
    kd = lq.krylov_build(h, rho0, times)
    eye = np.eye(3, dtype=complex)
    L = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    trace = lq.propagate_expm(L, rho0, times)
    vbeta = lq.vectorize(rho0)
    sff_vals = np.array(
        [np.real(np.vdot(vbeta, lq.vectorize(rho))) for rho in trace.states]
    )
    assert lq.tradeoff_check(kd, sff_vals) <= 1.0 + 1e-8
    with pytest.raises(ValidationError):
        lq.tradeoff_check(kd, sff_vals[:-1])


def test_mpemba_report_frozen_values():
    rep = lq.mpemba_report((0.25, 0.5, 0.75, 0.9), 0.01, 0.0, 300.0, points=2001)
    assert_allclose(rep.eta, MPEMBA_ETA, rtol=1e-9)
    assert_allclose(rep.delta, MPEMBA_DELTA, rtol=1e-9)
    a, b, t = rep.crossing_times[0]
    assert (a, b) == MPEMBA_FIRST_CROSSING[:2]
    assert abs(t - MPEMBA_FIRST_CROSSING[2]) < 1e-6
    assert np.all(np.diff(rep.eta) < 0.0)
    assert np.all((rep.eta >= 0.0) & (rep.eta <= 1.0))
    assert np.all((rep.theta_ss >= 0.0) & (rep.theta_ss <= np.pi / 2.0 + 1e-12))
    doc = rep.to_json()
    assert doc["crossings"][0]["alpha_a"] == 0.25
    assert len(doc["crossings"]) == len(rep.crossing_times)


def test_mpemba_sweep_rows_match_single_alpha_sweeps():
    alphas = (0.2, 0.45, 0.7, 0.95)
    horizon = 300.0
    sweep = lq.mpemba_report(alphas, 0.01, 0.3, horizon, points=2001)
    for i, alpha in enumerate(alphas):
        one = lq.mpemba_report((alpha,), 0.01, 0.3, horizon, points=2001)
        assert abs(sweep.eta[i] - one.eta[0]) <= 1e-13
        assert np.abs(sweep.theta_ss[i] - one.theta_ss[0]).max() <= 1e-13
        # delta = T - theta/avg cancels a bound ratio close to T, so its
        # round-off is relative to that ratio, not to delta.
        assert_allclose(horizon - sweep.delta[i], horizon - one.delta[0], rtol=1e-13)


def test_mpemba_report_needs_odd_grid():
    with pytest.raises(QuadratureError):
        lq.mpemba_report((0.3, 0.8), 0.01, 0.0, 100.0, points=200)


def test_mpemba_report_needs_finite_positive_horizon():
    for horizon in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValidationError, match="horizon"):
            lq.mpemba_report((0.3, 0.8), 0.01, 0.0, horizon, points=21)
