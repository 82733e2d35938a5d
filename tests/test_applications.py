import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl.exceptions import QuadratureError, ValidationError

from conftest import philox, rand_hermitian, rand_pure, rand_spec

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
                unit = lq.normalize_state(trace.states[k])
                worst_speed = max(worst_speed, abs(forms["speed"] - lq.speed(L, unit)))
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
    # gamma (2n + 1) t = 400: exp(+400) would overflow, exp(-400) does not
    for alpha, gamma, n in ((0.5, 1.0, 0.0), (0.7, 0.5, 0.2), (0.0, 2.0, 1.5)):
        t = 400.0 / (gamma * (2.0 * n + 1.0))
        late = lq.amplitude_damping_closed_forms(alpha, gamma, n, t)
        assert all(np.isfinite(late[key]).all() for key in late)
        assert late["theta_ss_t"] < 1e-7
        assert late["speed"] < 1e-7
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


@pytest.mark.parametrize("points", [5, 4])
def test_report_layer_rejects_a_stacked_trace(points):
    # At 4 points = d² a stack broadcasts through sff's product without an error.
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.05, 0.2)).full
    rhos = np.stack([np.diag([1.0, 0.0]), np.diag([0.3, 0.7])]).astype(complex)
    trace = lq.propagate_expm(L, rhos, np.linspace(0.0, 2.0, points))
    for call in (
        lambda: lq.exact_qsl(trace, L),
        lambda: lq.sff(trace),
        lambda: lq.sff_bound_check(trace, L),
    ):
        with pytest.raises(ValidationError, match="stack of 2"):
            call()


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
    assert kd.dimension == 7 and kd.lanczos_b.shape == (6,)
    assert kd.amplitudes.shape == (times.size, 7)
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
    with pytest.raises(ValidationError, match="stack of 2"):
        lq.krylov_build(h, np.stack([rho0, np.eye(3) / 3.0]), times)


def test_krylov_build_refuses_a_stack_before_propagating(monkeypatch):
    def no_propagation(*args):
        raise AssertionError("a stack was propagated")

    monkeypatch.setattr(lq.applications, "propagate_expm", no_propagation)
    h = rand_hermitian(philox(82), 3)
    rho0 = lq.coherent_gibbs_state(h, 0.3)
    with pytest.raises(ValidationError, match="stack of 2"):
        lq.krylov_build(h, np.stack([rho0, np.eye(3) / 3.0]), np.linspace(0.0, 1.0, 11))


def _lanczos_oracle(lh, v0):
    """The Lanczos loop as it was when it stacked a growing list of columns."""
    cols = [v0]
    bs = []
    prev = np.zeros_like(v0)
    b_prev = 0.0
    for _ in range(v0.size - 1):
        q = cols[-1]
        r = lh @ q - b_prev * prev
        r -= q * np.vdot(q, r)
        qm = np.column_stack(cols)
        for _ in range(2):
            r -= qm @ (qm.conj().T @ r)
        b = np.linalg.norm(r)
        if b < 1e-12:
            break
        bs.append(float(b))
        prev = q
        b_prev = b
        cols.append(r / b)
    return np.column_stack(cols), np.array(bs)


def _oracle_columns(kd, h):
    """The loop oracle's b, real amplitudes and C_K for kd's start."""
    v = lq.normalize_state(kd.trace.states).vector
    basis, bs = _lanczos_oracle(lq.commutator_superop(h), v[0])
    amps = (v @ basis.conj()) * (-1j) ** np.arange(basis.shape[1])
    return bs, amps.real, np.sum(np.arange(basis.shape[1]) * np.abs(amps) ** 2, axis=1)


def test_krylov_real_recursion_agrees_with_the_complex_loop():
    # K counts the nodes of the spectral measure of L_H: d(d-1)+1 for these
    # generic draws. From d = 8 up the loop's final b is rounding noise above
    # its 1e-12 cut, so there its K is one too large: every b, the amplitudes
    # and C_K are compared where the loop's K is right, and elsewhere C_K and
    # the amplitudes of the K true vectors.
    rng = philox(89)
    times = np.linspace(0.0, 1.0, 11)
    compared = 0
    for d in (2, 3, 5, 8, 12):
        h = rand_hermitian(rng, d)
        starts = [lq.coherent_gibbs_state(h, 0.4), rand_pure(rng, d), np.diag(np.eye(d)[0])]
        for rho0 in starts:
            kd = lq.krylov_build(h, rho0, times)
            k = kd.dimension
            assert k == d * (d - 1) + 1
            bs, amps, complexity = _oracle_columns(kd, h)
            assert kd.amplitudes.dtype == float
            assert np.abs(kd.amplitudes - amps[:, :k]).max() < 1e-14
            assert_allclose(kd.complexity, complexity, rtol=1e-13, atol=1e-14)
            if bs.size == k - 1:
                compared += 1
                assert_allclose(kd.lanczos_b, bs, rtol=1e-13, atol=0.0)
            else:
                assert bs.size == k and np.abs(amps[:, k:]).max() < 1e-14
    assert compared == 9


def test_krylov_dimension_of_a_generic_coherent_gibbs_start():
    # With distinct gaps and full support K = d(d-1)+1, 133 at d = 12.
    for d in (8, 12, 16):
        h = rand_hermitian(philox(91), d)
        energies = np.linalg.eigvalsh(h)
        gaps = np.sort((energies[:, None] - energies[None, :])[~np.eye(d, dtype=bool)])
        assert np.abs(gaps).min() > 1e-6 and np.diff(gaps).min() > 1e-6
        kd = lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.5), np.linspace(0.0, 1.0, 11))
        assert kd.dimension == d * (d - 1) + 1


def _ladder(d, rotated):
    """H = U diag(0.37 k) U^+, k = 0..d-1, U the QR factor of a default_rng(3) draw."""
    h = np.diag(0.37 * np.arange(d)).astype(complex)
    if rotated:
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        h = u @ h @ u.conj().T
    return h


@pytest.mark.parametrize("d", [6, 10, 12])
def test_krylov_dimension_of_an_equally_spaced_ladder(d):
    # The gaps of an equally spaced ladder are the 2d - 1 multiples of the
    # spacing, split by rounding; the node tolerance merges them again.
    times = np.linspace(0.0, 5.0, 301)
    built = []
    for rotated in (False, True):
        h = _ladder(d, rotated)
        built.append(lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.3), times))
    for kd in built:
        assert kd.dimension == 2 * d - 1
        assert lq.krylov_precursor_margins(kd).min() > -1e-12
        lhs, rhs = lq.krylov_bound_check(kd)
        assert np.all(lhs <= rhs + 1e-8)
    assert_allclose(built[1].complexity, built[0].complexity, rtol=1e-12, atol=1e-14)
    assert_allclose(built[1].lanczos_b, built[0].lanczos_b, rtol=1e-12)


def test_krylov_build_keeps_a_rotated_ladder_on_the_hermitian_route():
    # U diag(E) U^+ is Hermitian only to rounding; stored as its Hermitian
    # part, its commutator generator passes the exact test of eigh's route.
    h = _ladder(12, rotated=True)
    assert not np.array_equal(h, h.conj().T)
    kd = lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.3), np.linspace(0.0, 5.0, 301))
    assert kd.trace.modes.route == "hermitian"


def test_krylov_near_degenerate_spectra_agree_with_the_loop():
    # Gaps 1e-7 and 1e-5 wide, and a level split by 1e-9, stay distinct
    # nodes: K = d(d-1)+1, as the loop finds. The smallest b fall to about
    # 5e-7 and 2e-9, and the b after them depend on those gaps, which the
    # input fixes only to rounding: they agree within 2.3e-7 relative, while
    # C_K and the amplitudes agree to rounding.
    rng = philox(92)
    times = np.linspace(0.0, 5.0, 101)
    for energies in ([0.0, 1e-7, 0.6, 0.6 + 1e-5, 1.3], [0.0, 0.4, 0.4 + 1e-9, 1.1]):
        d = len(energies)
        u = np.linalg.qr(rand_hermitian(rng, d) + 1j * np.eye(d))[0]
        h = u @ np.diag(energies) @ u.conj().T
        for rho0 in (lq.coherent_gibbs_state(h, 0.3), rand_pure(rng, d)):
            kd = lq.krylov_build(h, rho0, times)
            bs, amps, complexity = _oracle_columns(kd, h)
            assert kd.dimension == bs.size + 1 == d * (d - 1) + 1
            assert_allclose(kd.lanczos_b, bs, rtol=1e-6)
            assert np.abs(kd.amplitudes - amps).max() < 1e-14
            assert_allclose(kd.complexity, complexity, rtol=1e-13, atol=1e-14)


def test_krylov_build_on_exactly_degenerate_spectra():
    # Levels with E_i = E_j exactly give lambda = 0 twice; those two modes are
    # real, each of unit norm, so the measure keeps all of |c|^2 and K counts
    # the distinct gaps: 1 for H = 0 and H = 1, 3 for diag(0.5, 0.5, 1.5).
    times = np.linspace(0.0, 5.0, 301)
    cases = [(h, 1) for d in range(1, 5) for h in (np.zeros((d, d)), np.eye(d))]
    cases.append((np.diag([0.5, 0.5, 1.5]), 3))
    for h, k in cases:
        kd = lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.5), times)
        assert kd.trace.modes.route == "hermitian"
        c = kd.trace.modes.overlaps(lq.normalize_state(kd.trace.states[0]).vector)
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-14
        assert np.abs(np.sum(kd.amplitudes**2, axis=1) - 1.0).max() <= 1e-14
        assert kd.dimension == k
        bs, amps, complexity = _oracle_columns(kd, h)
        assert_allclose(kd.lanczos_b, bs, rtol=1e-13)
        assert np.abs(kd.amplitudes - amps).max() < 1e-14
        assert_allclose(kd.complexity, complexity, rtol=1e-13, atol=1e-14)


def test_krylov_op_forms_the_real_form_once(monkeypatch):
    # spectral_decompose forms B^+ L B for the propagation; the bound check
    # reads it from kd.trace.modes instead of forming it again.
    calls = []
    real_form = lq.liouville._real_form

    def counted(superop):
        calls.append(superop.shape)
        return real_form(superop)

    monkeypatch.setattr(lq.spectral, "_last", None)
    for module in (lq.spectral, lq.qsl):
        monkeypatch.setattr(module, "_real_form", counted)
    h = rand_hermitian(philox(94), 3)
    kd = lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.5), np.linspace(0.0, 2.0, 101))
    lq.krylov_bound_check(kd)
    assert calls == [(9, 9)]


def test_krylov_build_takes_one_eigendecomposition(monkeypatch):
    # The Krylov measure is read from the propagation's eigenmodes, so the
    # only eigensolver is spectral_decompose's eigh of the d x d Hamiltonian
    # on the hermitian route; none runs on the d^2 x d^2 generator.
    h = rand_hermitian(philox(95), 4)
    rho0 = lq.coherent_gibbs_state(h, 0.5)
    calls = []
    monkeypatch.setattr(lq.spectral, "_last", None)
    for name in ("eig", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    kd = lq.krylov_build(h, rho0, np.linspace(0.0, 2.0, 101))
    assert calls == [("eigh", (4, 4))]
    assert kd.dimension == 13


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
    # I/d commutes with every H, diagonal or not: K = 1 and C_K = 0.
    times = np.linspace(0.0, 2.0, 21)
    for h in (np.diag([1.0, -1.0]).astype(complex), rand_hermitian(philox(93), 4)):
        kd = lq.krylov_build(h, np.eye(len(h)) / len(h), times)
        assert kd.dimension == 1 and kd.lanczos_b.size == 0
        assert np.abs(kd.amplitudes - 1.0).max() < 1e-15
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


def _crossings_oracle(rep):
    """The crossings of every pair of theta_ss curves, found by loops."""
    found = []
    for i in range(rep.alphas.size):
        for j in range(i + 1, rep.alphas.size):
            diff = rep.theta_ss[i] - rep.theta_ss[j]
            signs = np.sign(diff)
            for k in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                frac = diff[k] / (diff[k] - diff[k + 1])
                tc = rep.times[k] + frac * (rep.times[k + 1] - rep.times[k])
                found.append((float(rep.alphas[i]), float(rep.alphas[j]), float(tc)))
    return sorted(found, key=lambda item: item[2])


@pytest.mark.parametrize("seed", [7, 100])
def test_mpemba_crossings_match_the_loop_oracle(seed):
    # The inputs of ops 0 and 1 of the mpemba-sweep benchmark: 8 alphas,
    # gamma 0.01, T = 300.
    rng = np.random.default_rng(seed)
    for _ in range(2):
        alphas = sorted(rng.uniform(0.1, 0.95, size=8))
        rep = lq.mpemba_report(alphas, 0.01, rng.uniform(0.0, 0.5), 300.0)
        assert 16 <= len(rep.crossing_times) <= 22
        assert rep.crossing_times == _crossings_oracle(rep)


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


def test_mpemba_report_steady_start_has_zero_speed_and_full_offset():
    # alpha = 1 is the steady state |0><0| of the zero-temperature damped qubit.
    rep = lq.mpemba_report((1.0, 0.5), 0.01, 0.0, 100.0, points=301)
    assert rep.eta[0] == 0.0
    assert rep.delta[0] == 100.0
    assert rep.eta[1] > 0.0


def test_mpemba_report_needs_odd_grid():
    with pytest.raises(QuadratureError):
        lq.mpemba_report((0.3, 0.8), 0.01, 0.0, 100.0, points=200)


def test_mpemba_report_needs_finite_positive_horizon():
    for horizon in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValidationError, match="horizon"):
            lq.mpemba_report((0.3, 0.8), 0.01, 0.0, horizon, points=21)
