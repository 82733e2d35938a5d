import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl import applications, cli, evolve, liouville, optimal, qsl, spectral
from liouqsl.evolve import build_trace, propagate_expm
from liouqsl.exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NumericalConsistencyError,
    ValidationError,
)
from liouqsl.liouville import _gather, _scatter

from conftest import (
    generic_speed,
    kraus_trajectory_speed,
    philox,
    rand_hermitian,
    rand_pure,
    rand_rho,
    rand_spec,
    rotated_state,
)


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
    x, first = trace.coordinates, trace.states[0]
    for k, rho in enumerate(trace.states):
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(trace.purity[k] - np.trace(rho @ rho).real) < 1e-12
        assert abs(x[0] @ x[k] - np.trace(first @ rho).real) < 1e-12
        got = np.trace(first @ rho).real / np.sqrt(trace.purity[0] * trace.purity[k])
        assert abs(trace.overlap_with_initial[k] - got) < 1e-12


def _columns_match(got, want):
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_columns_from_coordinates_equal_the_complex_formulas():
    # Purity, overlap, sff and the angle to the start are derived from the real
    # coordinates x; they equal tr rho^2, Re tr(rho_0 rho_t)/sqrt(p_0 p_t) and
    # liouville_angle on the states, for single traces and (A, T) stacks, both
    # propagated and gathered by build_trace.
    rng = philox(141)
    times = np.linspace(0.0, 2.0, 101)
    for d in range(2, 7):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        stack = np.array([rand_rho(rng, d), rand_pure(rng, d), rand_rho(rng, d)])
        for rho0 in (stack[0], stack[1], stack):
            propagated = propagate_expm(L, rho0, times)
            for trace in (propagated, build_trace(times, propagated.states)):
                s = trace.states
                s0 = s[..., :1, :, :]
                purity = np.einsum("...ij,...ji->...", s, s).real
                tr0 = np.einsum("...ij,...ji->...", s0, s).real
                overlap = tr0 / np.sqrt(purity * purity[..., :1])
                _columns_match(trace.purity, purity)
                _columns_match(trace.overlap_with_initial, overlap)
                x = trace.coordinates
                angle = lq.liouville_angle(s0, s)
                _columns_match(lq.liouville._unit_angle(x[..., :1, :], x), angle)
                if rho0.ndim == 2:
                    _columns_match(lq.sff(trace), tr0)
                    _columns_match(lq.sff_bound_check(trace, L)[0], angle)


def test_report_paths_never_form_the_complex_unit_vectors(monkeypatch, tmp_path):
    # Every report path reads the real coordinates of its trace: normalize_state,
    # wrapped at each module that binds it, receives at most one (d, d) state per
    # call, never the (T, d, d) states that would give a (T, d^2) complex block.
    normalize, shapes = lq.liouville.normalize_state, []

    def single(rho):
        shapes.append(np.shape(rho))
        return normalize(rho)

    for module in (lq, applications, cli, evolve, liouville, optimal, qsl, spectral):
        if hasattr(module, "normalize_state"):
            monkeypatch.setattr(module, "normalize_state", single)
    rng = philox(142)
    times = np.linspace(0.0, 2.0, 201)
    L = lq.build_liouvillian(rand_spec(rng, 4)).full
    starts = np.array([rand_rho(rng, 4), rand_pure(rng, 4)])
    traces = [propagate_expm(L, rho0, times) for rho0 in (*starts, starts)]
    h, psi = rand_hermitian(rng, 5), rand_pure(rng, 5)
    kd = lq.krylov_build(h, psi, times)
    names = ("spec", "rho0", "up", "down")
    files = {name: str(tmp_path / f"{name}.json") for name in names}
    lq.dump_json(lq.spec_to_json(rand_spec(rng, 4)), files["spec"])
    lq.dump_json(lq.matrix_to_json(starts[0]), files["rho0"])
    lq.dump_json(lq.matrix_to_json(np.diag([1.0, 0.0]).astype(complex)), files["up"])
    lq.dump_json(lq.matrix_to_json(np.diag([0.0, 1.0]).astype(complex)), files["down"])
    grid = ["--t-max", "2", "--points", "201", "--out", str(tmp_path)]
    commands = [
        ["evolve", "--spec", files["spec"], "--rho0", files["rho0"]],
        ["optimal", "--rho0", files["up"], "--rho-perp", files["down"], "--gamma", "1"],
    ]
    paths = {
        "exact_qsl": lambda: [lq.exact_qsl(trace, L) for trace in traces[:2]],
        "krylov": lambda: lq.krylov_bound_check(lq.krylov_build(h, psi, times)),
        "sff_bound_check": lambda: lq.sff_bound_check(kd.trace, kd.generator),
        "mpemba_report": lambda: lq.mpemba_report((0.3, 0.8), 0.01, 0.2, 100.0, 301),
        "average_speed": lambda: [lq.average_speed(trace, L) for trace in traces],
    }
    for name, run in paths.items():
        shapes.clear()
        run()
        assert {len(shape) for shape in shapes} <= {2}, name
    for args in commands:
        shapes.clear()
        assert cli.main(args + grid) == 0
        assert {len(shape) for shape in shapes} <= {2}, args[0]


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


def test_empty_states_are_refused():
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.5, 0.2)).full
    with pytest.raises(DimensionError, match="non-empty"):
        propagate_expm(L, np.zeros((0, 2, 2)), np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValidationError, match="do not match"):
        build_trace([0.0, 1.0], np.zeros((2, 0, 0)))


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
    # Hermiticity is checked on the raw states; round-off skew passes, and the
    # trace keeps the coordinates of the Hermitian part.
    skewed = np.array([[0.5, 0.4], [-0.4, 0.5]])
    with pytest.raises(ValidationError, match=r"t=0\.5: hermiticity defect 8\.000e-01"):
        build_trace([0.0, 0.5, 1.0], [rho, skewed, rho])
    noisy = rho + np.array([[0.0, 1e-12], [0.0, 0.0]])
    states = build_trace([0.0, 0.5, 1.0], [rho, noisy, rho]).states
    assert np.array_equal(states, np.swapaxes(states, 1, 2).conj())


def test_build_trace_keeps_the_hermitian_part():
    # build_trace stores x = Re B^+ vec(rho); the states derived from it are
    # exactly Hermitian and equal (rho + rho^+)/2 within 2 eps max|rho|, for a
    # single trajectory and a stack, with a round-off skew planted in each state.
    rng = philox(144)
    times = np.linspace(0.0, 1.0, 7)
    eps = np.finfo(float).eps
    for d in (1, 2, 3, 5, 8):
        rhos = np.array([[rand_rho(rng, d) for _ in times] for _ in range(2)])
        skew = rng.normal(size=rhos.shape) + 1j * rng.normal(size=rhos.shape)
        rhos = rhos + 1e-12 * np.triu(skew, 1)
        for stack in (rhos[0], rhos):
            states = build_trace(times, stack).states
            assert states.shape == stack.shape
            assert np.array_equal(states, np.swapaxes(states, -1, -2).conj())
            want = 0.5 * (stack + np.swapaxes(stack, -1, -2).conj())
            assert np.abs(states - want).max() <= 2 * eps * np.abs(stack).max()


def test_trace_readers_take_the_coordinates_alone(monkeypatch):
    # A trace stores only times, coordinates and modes; exact_qsl, the Krylov
    # chain, its bound check and the SFF, and the Mpemba sweep never read the
    # (T, d, d) states derived from them.
    def unread(self):
        raise AssertionError("trace.states read")

    monkeypatch.setattr(lq.EvolutionTrace, "states", property(unread))
    rng = philox(145)
    times = np.linspace(0.0, 2.0, 201)
    for d in (2, 4):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        trace = propagate_expm(L, rand_rho(rng, d), times)
        assert lq.exact_qsl(trace, L).T == 2.0
        h = rand_hermitian(rng, d + 1)
        kd = lq.krylov_build(h, lq.coherent_gibbs_state(h, 0.5), times)
        lhs, rhs = lq.krylov_bound_check(kd)
        assert np.all(lhs <= rhs + 1e-8)
        assert lq.sff(kd.trace).shape == times.shape
    report = lq.mpemba_report([0.3, 0.6, 0.9], 0.05, 0.2, 20.0, 201)
    assert report.theta_ss.shape == (3, 201)
    with pytest.raises(AssertionError, match="trace.states read"):
        trace.states


def test_propagate_expm_long_uniform_grid_keeps_trace(monkeypatch):
    rng = philox(3)
    spec = rand_spec(rng, 2)
    rho0 = rand_rho(rng, 2)
    L = lq.build_liouvillian(spec).full
    times = np.linspace(0.0, 3.0, 40001)
    modal = propagate_expm(L, rho0, times)
    monkeypatch.setattr(evolve, "_MODAL_DEFECT_MAX", -1.0)
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
                sd, x0 = lq.spectral_decompose(L), _gather(v0).real
                modal = _scatter(sd.propagate_real(x0, times))
                assert modal.shape == (times.size,) + v0.shape
                modal_err = np.abs(modal[picks] - ref).max() / scale
                stepped = _scatter(evolve._expm_steps(sd.real_form, x0, times))
                step_err = np.abs(stepped[picks] - ref).max()
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
    assert propagate_expm(near, rho0, times).modes is not None
    for offset in (0.0, 1e-8):
        L = _critically_driven_decay(offset=offset)
        trace = propagate_expm(L, rho0, times)
        assert trace.modes is None
        ref = _per_point_reference(L, v0, times)
        assert np.abs(lq.vectorize(trace.states) - ref).max() < 1e-13


def _count_expm(monkeypatch):
    """Count scipy.linalg.expm calls; _expm_steps imports it on each call."""
    import scipy.linalg

    calls = []

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


def test_expm_fallback_takes_two_exponentials_on_a_horizon_grid(monkeypatch):
    # _horizon_grid(20, 40001) has steps that differ by more than 1e-12
    # relative; _blocks still takes it, so the fallback steps it.
    calls = _count_expm(monkeypatch)
    times = qsl._horizon_grid(20.0, 40001)
    L, rho0 = _critically_driven_decay(), lq.superposition_state(0.5)
    trace = propagate_expm(L, rho0, times)
    assert trace.modes is None and trace.coordinates.shape == (40001, 4)
    assert len(calls) <= 2


def test_expm_fallback_agrees_with_per_point_expm():
    # The critically driven qubit, H = sx / 8 and jump (1, sigma_-), takes the
    # fallback; its block stepping agrees with one exponential per time.
    L = _critically_driven_decay()
    real = liouville._real_form(L)
    starts = (lq.superposition_state(0.5), np.diag([0.0, 1.0]), np.diag([0.3, 0.7]))
    rhos = np.array(starts)
    for points in (2001, 40001):
        times = qsl._horizon_grid(20.0, points)
        picks = np.r_[0:points:7, points - 1]
        steps = [expm(real * t).T for t in times[picks]]
        for rho0 in (rhos[0], rhos):
            trace = propagate_expm(L, rho0, times)
            assert trace.modes is None
            x0 = _gather(lq.vectorize(rho0)).real
            ref = np.stack([x0 @ step for step in steps], axis=-2)
            x = trace.coordinates
            assert np.abs(x[..., picks, :] - ref).max() <= 1e-13 * np.abs(x).max()


def test_expm_fallback_takes_one_exponential_per_time_off_uniform_grids(monkeypatch):
    # Three points give blocks of one. The nine points repeat one offset pattern
    # (0, 0.1, 0.3) from anchors 0, 1, 5, so anchor + offset rebuilds each time,
    # but neither is evenly spaced and stepping would miss every t_k.
    real = liouville._real_form(_critically_driven_decay())
    x0 = _gather(lq.vectorize(lq.superposition_state(0.5))).real
    periodic = np.array([0.0, 0.1, 0.3, 1.0, 1.1, 1.3, 5.0, 5.1, 5.3])
    for times in (np.linspace(0.0, 20.0, 3), periodic):
        assert spectral._blocks(times) is None
        calls = _count_expm(monkeypatch)
        got = evolve._expm_steps(real, x0, times)
        assert len(calls) == times.size - 1
        ref = np.stack([x0] + [x0 @ expm(real * t).T for t in times[1:]])
        assert np.array_equal(got, ref)


def test_a_start_with_trace_off_one_within_validation_propagates():
    # Validation lets a start's trace be 1e-10 off 1 and holds each propagated
    # state to 1e-12. A start more than 1e-12 off is divided by its trace; one
    # within 1e-12 keeps its bits; a trace that drifts from the start's is refused.
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.5, 0.2)).full
    times = np.linspace(0.0, 10.0, 201)
    off, near = np.diag([0.5 + 5e-11, 0.5]), np.diag([0.5 + 5e-13, 0.5])
    for rho0 in (off, near, np.array([off, near])):
        trace = propagate_expm(L, rho0, times)
        drift = np.abs(np.trace(trace.states, axis1=-2, axis2=-1) - 1.0).max()
        assert drift <= 1e-12
        x0 = _gather(lq.vectorize(rho0)).real
        kept = np.abs(np.trace(rho0, axis1=-2, axis2=-1) - 1.0) <= 1e-12
        assert np.array_equal(trace.coordinates[..., 0, :][kept], x0[kept])
        assert _close(trace.coordinates[..., 0, :], x0, rtol=1e-10)
    leaky = L - 1e-11 * np.eye(4)
    for rho0 in (off, near):
        with pytest.raises(ValidationError, match="trace deviates") as err:
            propagate_expm(leaky, rho0, times)
        assert "t=0:" not in str(err.value)


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


def test_hermitian_vectors_take_the_real_product():
    # On the real route, Hermitian vectors go through one real product over
    # half the conjugate pairs, which agrees with per-point exponentials.
    rng = philox(49)
    times = np.linspace(0.0, 2.0, 101)
    for d in (2, 3, 5):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        sd = lq.spectral_decompose(L)
        assert sd.route == "real"
        hermitian = lq.vectorize(np.array([rand_rho(rng, d), rand_pure(rng, d)]))
        modal = _scatter(sd.propagate_real(_gather(hermitian).real, times))
        assert _close(modal, _per_point_reference(L, hermitian, times))


def test_hermitian_start_inverts_in_real_arithmetic(monkeypatch):
    # A Hermitian start on the real route takes its coefficients from W^-1 B^+ v0:
    # no complex matrix is inverted, and the trace carries the eigensystem.
    inv = np.linalg.inv

    def real_inv(a):
        assert not np.iscomplexobj(a), "complex inverse on the real route"
        return inv(a)

    rng = philox(50)
    times = np.linspace(0.0, 2.0, 101)
    for d in (2, 3, 5):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        stack = np.array([rand_rho(rng, d), rand_pure(rng, d)])
        monkeypatch.setattr(np.linalg, "inv", real_inv)
        trace = propagate_expm(L, stack, times)
        monkeypatch.undo()
        ref = np.moveaxis(_per_point_reference(L, lq.vectorize(stack), times), 0, 1)
        assert _close(lq.vectorize(trace.states), ref)
        assert trace.modes.route == "real" and trace.modes.generator is L
    assert build_trace(times, trace.states[0]).modes is None
    stepped = propagate_expm(_critically_driven_decay(), np.diag([0.0, 1.0]), times)
    assert stepped.modes is None


def test_small_skew_start_propagates_its_hermitian_part():
    # A skew of 1e-11 passes validation; the start enters the real coordinates
    # as its Hermitian part, which exp(L t) maps to the Hermitian part of
    # exp(L t) rho0 because L preserves Hermiticity.
    rng = philox(54)
    times = np.linspace(0.0, 2.0, 201)
    for d in (2, 3, 5):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        rho0 = rand_rho(rng, d)
        rho0[0, 1] += 1e-11
        trace = propagate_expm(L, rho0, times)
        s = trace.states
        assert trace.coordinates is not None
        assert np.array_equal(s, s.conj().swapaxes(-1, -2))
        ref = _per_point_reference(L, lq.vectorize(lq.rehermitize(rho0)), times)
        assert np.abs(lq.vectorize(s) - ref).max() <= 1e-14 * np.abs(ref).max()


def _coordinate_cases():
    """Seeded Lindblad generators (real route, d = 2-6) and Hamiltonian ones
    (hermitian route, d = 2-8), each with a mixed and a pure start."""
    rng = philox(53)
    for d in (2, 3, 4, 5, 6):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        yield "real", L, rand_rho(rng, d), rand_pure(rng, d)
    for d in (2, 3, 4, 6, 8):
        L = -1j * lq.commutator_superop(rand_hermitian(rng, d))
        yield "hermitian", L, rand_rho(rng, d), rand_pure(rng, d)


def test_coordinate_route_writes_exactly_hermitian_states():
    # Both routes propagate the real coordinates B^+ vec(rho), keep them on the
    # trace and build the states from them: Hermitian bit for bit, within 1e-14
    # of the largest entry of per-point expm, and a stack's rows within 1e-15
    # of the single-state runs.
    times = np.linspace(0.0, 2.0, 201)
    picks = np.arange(0, times.size, 25)
    for route, L, mixed, pure in _coordinate_cases():
        singles = []
        for rho0 in (mixed, pure, np.array([mixed, pure])):
            trace = propagate_expm(L, rho0, times)
            s = trace.states
            assert trace.modes.route == route
            assert np.array_equal(s, s.conj().swapaxes(-1, -2))
            assert trace.coordinates.shape == s.shape[:-2] + (L.shape[0],)
            ref = _per_point_reference(L, lq.vectorize(rho0), times[picks])
            got = np.moveaxis(lq.vectorize(s)[..., picks, :], -2, 0)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            singles.append(s)
        for a in range(2):
            assert np.abs(singles[2][a] - singles[a]).max() <= 1e-15


def test_critically_driven_qubit_keeps_the_stepping_fallback(monkeypatch):
    # Its biorthogonality defect sends it to expm stepping, which steps the
    # real coordinates and keeps them; the report is the one recorded before
    # the coordinate route. B^+ L B is built once, by spectral_decompose:
    # exact_qsl reads it from spectral's slot, as the trace keeps no modes.
    built = []

    def real_form(superop):
        built.append(superop.shape)
        return liouville._real_form(superop)

    for module in (evolve, qsl, spectral):
        monkeypatch.setattr(module, "_real_form", real_form)
    monkeypatch.setattr(spectral, "_last", None)
    L = _critically_driven_decay(gamma=1.0)
    times = np.linspace(0.0, 20.0, 401)
    trace = propagate_expm(L, lq.superposition_state(0.5), times)
    assert trace.modes is None and trace.coordinates.shape == (401, 4)
    frozen = {
        "T": 20.0,
        "theta": 1.2884024800348202,
        "wootters_length": 1.3530586645583529,
        "avg_speed": 0.07163884852150981,
        "avg_nc_speed": 0.06765293322791763,
        "bound_mt": 17.98468996396519,
        "bound_nc": 19.04429591684206,
        "exact_time": 20.000000000000004,
        "bound_opnorm": 0.895202524711278,
        "bound_hsnorm": 0.7952192750753599,
        "efficiency": 0.04977581078711614,
    }
    report = lq.exact_qsl(trace, L).to_json()
    assert built == [(4, 4)]
    assert report.keys() == frozen.keys()
    for key, value in frozen.items():
        assert_allclose(report[key], value, rtol=1e-13, err_msg=key)


def test_non_hermiticity_preserving_generators_are_refused():
    # Neither the mode route nor propagation takes a generic complex generator.
    rng = philox(48)
    times = np.linspace(0.0, 2.0, 201)
    for d in (2, 3, 4):
        n = d * d
        L = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        with pytest.raises(ValidationError, match="preserve Hermiticity"):
            lq.spectral_decompose(L)
        with pytest.raises(ValidationError, match="preserve Hermiticity"):
            propagate_expm(L, np.eye(d) / d, times)


def test_propagate_expm_refuses_generators_that_break_hermiticity():
    # 1j L Hermitian, and a commutator without its -1j: both send Hermitian
    # states to non-Hermitian ones, so spectral_decompose refuses both.
    rho0 = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
    k = np.zeros((4, 4), dtype=complex)
    k[2, 2] = 1.0
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        lq.spectral_decompose(-1j * k)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        propagate_expm(-1j * k, rho0, np.linspace(0.0, 1.0, 201))
    h = rand_hermitian(philox(51), 3)
    skew = 0.3 * lq.commutator_superop(h)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        lq.spectral_decompose(skew)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        propagate_expm(skew, np.eye(3) / 3, np.linspace(0.0, 0.2, 101))
    coherent = propagate_expm(-1j * lq.commutator_superop(h), np.eye(3) / 3, [0.0, 1.0])
    assert coherent.modes.route == "hermitian"
    assert coherent.modes.real_form is not None


def test_propagate_expm_refuses_non_finite_generators():
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.5, 0.2)).full
    for bad in (np.nan, np.inf):
        broken = L.copy()
        broken[1, 2] = bad
        with pytest.raises(ValidationError, match="nan or infinite"):
            lq.spectral_decompose(broken)
        with pytest.raises(ValidationError, match="nan or infinite"):
            propagate_expm(broken, np.eye(2) / 2, [0.0, 1.0])


def test_failed_decomposition_falls_back_to_stepping(monkeypatch):
    def defective(L):
        raise DefectiveGeneratorError("planted")

    rng = philox(52)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    rho0 = rand_rho(rng, 2)
    times = np.linspace(0.0, 2.0, 41)
    monkeypatch.setattr(evolve, "spectral_decompose", defective)
    trace = propagate_expm(L, rho0, times)
    assert trace.modes is None
    ref = _per_point_reference(L, lq.vectorize(rho0), times)
    assert np.abs(lq.vectorize(trace.states) - ref).max() < 1e-13


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
                got = propagate_expm(L, stack, times)
                assert got.states.shape == (count, times.size, d, d)
                for a, rho0 in enumerate(stack):
                    ref = propagate_expm(L, rho0, times)
                    assert got.states[a].shape == ref.states.shape
                    assert _close(got.states[a], ref.states)
                    assert _close(got.coordinates[a], ref.coordinates)
                    assert _close(got.purity[a], ref.purity)
                    assert _close(got.overlap_with_initial[a], ref.overlap_with_initial)


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
    trace = propagate_expm(L, stack, np.linspace(0.0, 2.0, 101))
    assert calls == [(5, 2, 2), (5, 101, 2, 2)]
    assert trace.states.shape == (5, 101, 2, 2)


def test_build_trace_stack_names_state_and_time():
    rho = np.eye(2) / 2.0
    bad = np.diag([0.7, 0.7])
    good = [rho, rho, rho]
    stack = [good, [rho, rho, bad], [rho, bad, rho]]
    with pytest.raises(ValidationError, match=r"initial state 1: state at t=2: trace"):
        build_trace([0.0, 1.0, 2.0], stack)
    stack[1][1] = np.array([[0.5, 0.4], [-0.4, 0.5]])
    with pytest.raises(ValidationError, match=r"initial state 1: state at t=1: hermiticity"):
        build_trace([0.0, 1.0, 2.0], stack)


def test_build_trace_names_a_planted_eigenvalue_at_its_time():
    rng = philox(50)
    times = np.linspace(0.0, 2.0, 2001)
    for d in (2, 4, 16):
        states = np.repeat(rotated_state(rng, d, 0.3)[None], times.size, axis=0)
        states[1234] = rotated_state(rng, d, -5e-11)
        assert len(build_trace(times, states)) == 2001
        states[1500] = rotated_state(rng, d, -2e-10)
        with pytest.raises(ValidationError, match=r"state at t=1\.5: negative eigenvalue"):
            build_trace(times, states)


def test_pure_krylov_trajectory_is_accepted():
    rng = philox(51)
    for d in (3, 6):
        kd = lq.krylov_build(rand_hermitian(rng, d), rand_pure(rng, d), np.linspace(0.0, 5.0, 2001))
        assert np.linalg.eigvalsh(kd.trace.states).min() < 0.0
        lq.validate_density_matrix(kd.trace.states, trace_tol=1e-12)


def test_valid_stack_is_validated_without_eigenvalues(monkeypatch):
    rng = philox(52)
    L = lq.build_liouvillian(rand_spec(rng, 4)).full
    times = np.linspace(0.0, 3.0, 2001)
    pure = propagate_expm(L, rand_pure(rng, 4), times).states
    states = propagate_expm(L, rand_rho(rng, 4), times).states

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    lq.validate_density_matrix(pure, trace_tol=1e-12)
    lq.validate_density_matrix(states, trace_tol=1e-12)
    assert len(build_trace(times, states)) == 2001
    states[7] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(AssertionError, match="eigvalsh called"):
        lq.validate_density_matrix(states)


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
        direct = lq.speed(L, lq.normalize_state(trace.states[k]))
        assert abs(generic_speed(trace, k) - direct) < 1e-5


def test_generic_speed_of_a_stack_is_that_of_each_trajectory():
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.1, 0.2)).full
    times = np.linspace(0.0, 5.0, 201)
    for count in (2, 3):
        stack = np.array([lq.superposition_state(a) for a in (0.6, 0.3, 0.9)[:count]])
        trace = propagate_expm(L, stack, times)
        for k in (1, 100, 199):
            got = generic_speed(trace, k)
            assert got.shape == (count,)
            for a in range(count):
                one = generic_speed(lq.EvolutionTrace(times, trace.coordinates[a]), k)
                assert np.array_equal(got[a], one)


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
    direct = lq.speed(L, lq.normalize_state(trace.states[1]))
    assert abs(kraus_trajectory_speed(family, rho0, t, 1e-6) - direct) < 1e-8
