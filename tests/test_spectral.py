import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl import spectral
from liouqsl.exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NonUniqueSteadyStateError,
    ValidationError,
)
from liouqsl.liouville import _gather, _scatter
from liouqsl.qsl import _time_average
from liouqsl.spectral import _phased

from conftest import philox, rand_hermitian, rand_pure, rand_rho, rand_spec


def test_decomposition_reconstructs_the_generator():
    rng = philox(70)
    for d in (2, 3, 4, 6):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        sd = lq.spectral_decompose(L)
        recon = (sd.right_vectors * sd.eigenvalues) @ np.linalg.inv(sd.right_vectors)
        assert np.abs(recon - L).max() < 1e-8
        assert sd.condition < 1e-8
        gram = sd.left_vectors.conj().T @ sd.right_vectors
        assert np.abs(gram - np.eye(sd.size)).max() < 1e-8


def test_coherent_generators_decompose_through_the_hamiltonian():
    # -i[H, .] takes its modes |v_i><v_j| from the d x d eigh of H, in the real
    # pair layout: R is unitary and the modes rebuild L, both to rounding.
    rng = philox(140)
    for d in range(2, 17):
        L = -1j * lq.commutator_superop(rand_hermitian(rng, d))
        sd = lq.spectral_decompose(L)
        assert sd.route == "hermitian"
        assert np.array_equal(sd.eigenvalues[sd.partner], sd.eigenvalues.conj())
        r = sd.right_vectors
        assert np.abs(r.conj().T @ r - np.eye(d * d)).max() <= 1e-14
        recon = (r * sd.eigenvalues) @ sd.left_vectors.conj().T
        assert np.abs(recon - L).max() <= 1e-14 * max(1.0, np.abs(L).max())
        v = rng.normal(size=(2, d * d)) + 1j * rng.normal(size=(2, d * d))
        assert np.abs(sd.overlaps(v) - v @ sd.left_vectors.conj()).max() <= 1e-13


def test_a_hermitian_generator_that_is_no_commutator_takes_the_real_route():
    # X -> -i(AXB - BXA) has an exactly Hermitian iL and an imaginary diagonal,
    # but its first block does not rebuild it as -i[H, .]: eig of B^+ L B.
    rng = philox(141)
    a, b = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
    L = -1j * (np.kron(b.T, a) - np.kron(a.T, b))
    assert np.array_equal(1j * L, (1j * L).conj().T) and not L.diagonal().real.any()
    sd = lq.spectral_decompose(L)
    assert sd.route == "real"
    v = lq.vectorize(rand_rho(rng, 3))
    assert np.abs(sd.overlaps(v) - v @ sd.left_vectors.conj()).max() <= 1e-14
    t = np.linspace(0.0, 2.0, 21)
    ref = np.array([_gather(expm(L * s) @ v).real for s in t])
    assert np.abs(sd.propagate_real(_gather(v).real, t) - ref).max() <= 1e-14


def test_condition_bounds_the_liouville_defect():
    # condition is measured in the real form B^+ L B; B is unitary with two
    # nonzeros per column, so in Liouville coordinates the reconstruction
    # defect is at most twice that, plus the rounding of the product.
    rng = philox(78)
    dims = [d for d in (2, 3, 4, 5, 6) for _ in range(3)] + [16]
    for d in dims:
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        sd = lq.spectral_decompose(L)
        assert sd.route == "real"
        recon = (sd.right_vectors * sd.eigenvalues) @ sd.left_vectors.conj().T
        assert np.abs(recon - L).max() <= 2.0 * sd.condition + 1e-14 * np.abs(L).max()


def test_real_route_inverts_in_real_arithmetic(monkeypatch):
    # The pair matrix W is inverted as a real matrix, and reading condition
    # forms no complex vectors.
    inv = np.linalg.inv

    def real_inv(a):
        assert not np.iscomplexobj(a), "complex inverse on the real route"
        return inv(a)

    rng = philox(79)
    generators = [lq.build_liouvillian(rand_spec(rng, d)).full for d in (2, 3, 5)]
    monkeypatch.setattr(np.linalg, "inv", real_inv)
    for L in generators:
        sd = lq.spectral_decompose(L)
        assert sd.route == "real"
        assert np.iscomplexobj(sd.eigenvalues)
        assert sd.condition < 1e-12
        assert "right_vectors" not in vars(sd) and "left_vectors" not in vars(sd)


def test_lindblad_eigensystem_is_that_of_a_real_form():
    # A Hermiticity-preserving generator is diagonalized as a real matrix:
    # complex eigenvalues come in exactly conjugate pairs, adjacent after
    # the sort, and the stationary mode is an exactly Hermitian matrix.
    rng = philox(76)
    for d in (2, 3, 4, 5):
        sd = lq.spectral_decompose(lq.build_liouvillian(rand_spec(rng, d)).full)
        w = sd.eigenvalues
        nonreal = np.flatnonzero(w.imag != 0.0)
        assert nonreal.size % 2 == 0
        first, second = nonreal[0::2], nonreal[1::2]
        assert np.array_equal(second, first + 1)
        assert np.array_equal(w[second], w[first].conj())
        r0 = lq.devectorize(sd.right_vectors[:, 0])
        assert np.array_equal(r0, r0.conj().T)


def test_eigenpairs_satisfy_both_sides():
    rng = philox(71)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    sd = lq.spectral_decompose(L)
    for i in range(sd.size):
        r = sd.right_vectors[:, i]
        l = sd.left_vectors[:, i]
        assert np.abs(L @ r - sd.eigenvalues[i] * r).max() < 1e-10
        assert np.abs(L.conj().T @ l - np.conj(sd.eigenvalues[i]) * l).max() < 1e-10


def test_eigenvalue_ordering():
    rng = philox(72)
    L = lq.build_liouvillian(rand_spec(rng, 3)).full
    sd = lq.spectral_decompose(L)
    mags = np.abs(sd.eigenvalues.real)
    assert np.all(np.diff(mags) >= -1e-12)
    assert abs(sd.eigenvalues[0]) < 1e-10
    with pytest.raises(ValidationError):
        lq.spectral_decompose(np.zeros((3, 4)))


def test_defective_generator_raises():
    # A real Jordan block S in Hermitian coordinates: L = B S B^+ preserves
    # Hermiticity, so the real route meets the defect.
    jordan = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -2.0],
        ]
    )
    b = _scatter(np.eye(4)).T
    with pytest.raises(DefectiveGeneratorError):
        lq.spectral_decompose(b @ jordan @ b.conj().T)


def test_non_hermiticity_preserving_generator_is_refused_before_any_eigensolver(
    monkeypatch,
):
    def no_solver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eig", no_solver)
    monkeypatch.setattr(np.linalg, "eigh", no_solver)
    x = philox(79).normal(size=(9, 9)) + 1j * philox(78).normal(size=(9, 9))
    for L in (x, 1j * (x + x.conj().T)):
        with pytest.raises(ValidationError, match="preserve Hermiticity"):
            lq.spectral_decompose(L)


def test_empty_generator_is_refused():
    with pytest.raises(ValidationError, match="non-empty"):
        lq.spectral_decompose(np.zeros((0, 0)))


def test_defect_threshold_scales_with_the_generator():
    L = lq.build_liouvillian(rand_spec(philox(5), 2)).full
    base = lq.spectral_decompose(L).eigenvalues
    scaled = lq.spectral_decompose(1e12 * L).eigenvalues
    assert np.abs(scaled - 1e12 * base).max() < 1e-9 * np.abs(1e12 * base).max()


_STORED = ("eigenvalues", "vectors", "inverse", "real_form", "partner")


def _counted_eigensolvers(monkeypatch):
    """Empty the slot; count the eig and eigh calls that follow."""
    calls = []
    monkeypatch.setattr(spectral, "_last", None)
    for name in ("eig", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, _solver=solver, _name=name):
            calls.append(_name)
            return _solver(a)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_a_repeated_generator_is_decomposed_once(monkeypatch):
    # The same bits in a new array hit the slot: the stored eigensystem comes
    # back bit for bit, on the caller's own array, with no eigensolver run.
    calls = _counted_eigensolvers(monkeypatch)
    rng = philox(31)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    generators = (
        lq.build_liouvillian(rand_spec(rng, 3)).full,
        -1j * lq.commutator_superop((h + h.conj().T) / 2),
    )
    for route, L in zip(("real", "hermitian"), generators):
        first = lq.spectral_decompose(L)
        again = L.copy()
        hit = lq.spectral_decompose(again)
        assert hit.route == first.route == route
        assert hit.generator is again and first.generator is L
        for name in ("condition", "biorthogonality"):
            assert getattr(hit, name) == getattr(first, name)
        for name in _STORED:
            a, b = getattr(first, name), getattr(hit, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal(hit.right_vectors, first.right_vectors)
    assert calls == ["eig", "eigh"]


def test_stored_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(spectral, "_last", None)
    L = lq.build_liouvillian(rand_spec(philox(32), 2)).full
    for sd in (lq.spectral_decompose(L), lq.spectral_decompose(L)):
        for name in _STORED:
            with pytest.raises(ValueError, match="read-only"):
                getattr(sd, name)[0] = 0


def test_negative_zero_and_a_changed_generator_miss(monkeypatch):
    # The key is the bits of L: -0.0 differs from 0.0, and an array the
    # caller scales in place after a call is decomposed again.
    calls = _counted_eigensolvers(monkeypatch)
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.3, 0.2)).full
    base = lq.spectral_decompose(L).eigenvalues
    L *= 2.0
    doubled = lq.spectral_decompose(L).eigenvalues
    assert len(calls) == 2
    assert np.abs(doubled - 2.0 * base).max() < 1e-14
    flipped = L.copy()
    zero = np.flatnonzero((flipped == 0) & ~np.signbit(flipped.real))[0]
    flipped.ravel()[zero] = complex(-0.0, 0.0)
    assert np.array_equal(flipped, L)
    assert lq.spectral_decompose(flipped).generator is flipped
    assert len(calls) == 3


def test_refused_generators_are_not_stored(monkeypatch):
    calls = _counted_eigensolvers(monkeypatch)
    jordan = np.diag([1.0, 0.0, 0.0], k=1) + np.diag([0.0, 0.0, -1.0, -2.0])
    b = _scatter(np.eye(4)).T
    nan = lq.build_liouvillian(lq.amplitude_damping_spec(0.3, 0.2)).full
    nan[0, 0] = np.nan
    x = philox(33).normal(size=(4, 4))
    cases = (
        (b @ jordan @ b.conj().T, DefectiveGeneratorError, "defective"),
        (nan, ValidationError, "nan"),
        (1j * (x + x.T), ValidationError, "preserve Hermiticity"),
    )
    for L, error, match in cases:
        for _ in range(2):
            with pytest.raises(error, match=match):
                lq.spectral_decompose(L)
            assert spectral._last is None
    assert calls == ["eig", "eig"]


def test_a_miss_releases_the_stored_eigensystem(monkeypatch):
    # The old eigensystem is dropped before the new one is computed, so a
    # refused miss leaves the slot empty and memory holds one eigensystem.
    monkeypatch.setattr(spectral, "_last", None)
    lq.spectral_decompose(lq.build_liouvillian(lq.amplitude_damping_spec(0.3, 0.2)).full)
    stored = weakref.ref(spectral._last)
    x = philox(33).normal(size=(4, 4))
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        lq.spectral_decompose(1j * (x + x.T))
    assert spectral._last is None and stored() is None


def test_steady_state_thermal_qubit():
    for n in (0.0, 0.5, 2.0):
        spec = lq.amplitude_damping_spec(0.01, n)
        sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
        ss = lq.steady_state(sd)
        expected = np.diag([(n + 1.0) / (2.0 * n + 1.0), n / (2.0 * n + 1.0)])
        assert np.abs(ss - expected).max() < 1e-10


def test_steady_state_random_specs():
    rng = philox(74)
    for d in (2, 3):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        ss = lq.steady_state(lq.spectral_decompose(L))
        lq.validate_density_matrix(ss)
        assert np.abs(L @ lq.vectorize(ss)).max() < 1e-9


def test_steady_state_tolerances_scale_with_the_generator():
    rng = philox(141)
    for d in (2, 3, 4):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        ss = lq.steady_state(lq.spectral_decompose(L))
        for s in (1e3, 1e6, 1e8):
            scaled = lq.steady_state(lq.spectral_decompose(s * L))
            assert np.abs(scaled - ss).max() < 1e-12


def test_steady_state_reads_the_stationary_column_of_w():
    # On the real route steady_state takes the zero mode from W: it forms
    # neither complex vector matrix and gives the state they give.
    rng = philox(73)
    for d in (2, 3, 4, 5, 6, 16):
        sd = lq.spectral_decompose(lq.build_liouvillian(rand_spec(rng, d)).full)
        assert sd.route == "real"
        ss = lq.steady_state(sd)
        assert "right_vectors" not in vars(sd) and "left_vectors" not in vars(sd)
        rho = lq.rehermitize(lq.devectorize(sd.right_vectors[:, 0]))
        assert np.array_equal(ss, rho / np.trace(rho).real)


def test_degenerate_steady_space_raises():
    sz = np.diag([1.0, -1.0]).astype(complex)
    spec = lq.LindbladSpec(hamiltonian=np.zeros((2, 2)), jumps=[(0.5, sz)])
    sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
    with pytest.raises(NonUniqueSteadyStateError):
        lq.steady_state(sd)


def test_traceless_stationary_mode_raises():
    # In Hermitian coordinates J = -(1 - z z^T) with z = sigma_z / sqrt(2):
    # Hermiticity is preserved and the one zero mode is sigma_z itself.
    z = lq.vectorize(np.diag([1.0, -1.0])) / np.sqrt(2.0)
    sd = lq.spectral_decompose(np.outer(z, z) - np.eye(4))
    assert sd.route == "real"
    with pytest.raises(NonUniqueSteadyStateError, match="traceless"):
        lq.steady_state(sd)


def test_mode_overlaps_resolve_the_state():
    rng = philox(75)
    L = lq.build_liouvillian(rand_spec(rng, 2)).full
    sd = lq.spectral_decompose(L)
    rho0 = rand_rho(rng, 2)
    c = lq.mode_overlaps(sd, rho0)
    assert np.abs(sd.right_vectors @ c - lq.vectorize(rho0)).max() < 1e-10


def _mode_route_cases():
    """The damped qubit, then random specs d = 2...6 from mixed and pure starts."""
    spec = lq.amplitude_damping_spec(0.05, 0.3)
    yield lq.build_liouvillian(spec).full, lq.superposition_state(0.7)
    rng = philox(77)
    for d in range(2, 7):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        yield L, rand_rho(rng, d)
        yield L, rand_pure(rng, d)


def test_mode_route_speed_and_angle():
    for L, rho0 in _mode_route_cases():
        sd = lq.spectral_decompose(L)
        c = lq.mode_overlaps(sd, rho0)
        for t in (0.0, 2.0, 10.0, 40.0):
            trace = lq.propagate_expm(L, rho0, np.array([0.0, max(t, 1e-12)]))
            direct_speed = lq.speed(L, lq.normalize_state(trace.states[-1]))
            assert abs(lq.speed_from_modes(sd, c, t) - direct_speed) < 1e-10
            direct_angle = lq.liouville_angle(rho0, trace.states[-1])
            assert abs(lq.angle_from_modes(sd, c, rho0, t) - direct_angle) < 1e-10


def test_mode_route_takes_a_time_grid():
    grids = (np.linspace(0.0, 40.0, 401), np.array([0.0, 1e-6, 0.3, 2.0, 17.0]))
    for L, rho0 in _mode_route_cases():
        sd = lq.spectral_decompose(L)
        c = lq.mode_overlaps(sd, rho0)
        for ts in grids:
            speeds = lq.speed_from_modes(sd, c, ts)
            angles = lq.angle_from_modes(sd, c, rho0, ts)
            assert speeds.shape == angles.shape == ts.shape
            one_speed = [lq.speed_from_modes(sd, c, t) for t in ts]
            one_angle = [lq.angle_from_modes(sd, c, rho0, t) for t in ts]
            assert_allclose(speeds, one_speed, rtol=1e-12, atol=0.0)
            # at t = 0 the angle is round-off, about 1e-16, in either form
            assert_allclose(angles, one_angle, rtol=1e-12, atol=1e-15)


def test_mode_route_angle_at_short_times():
    rng = philox(57)
    L = lq.build_liouvillian(rand_spec(rng, 5)).full
    sd = lq.spectral_decompose(L)
    rho0 = rand_rho(rng, 5)
    c = lq.mode_overlaps(sd, rho0)
    assert lq.angle_from_modes(sd, c, rho0, 0.0) < 1e-14
    for t in (1e-9, 1e-6):
        trace = lq.propagate_expm(L, rho0, np.array([0.0, t]))
        direct = lq.liouville_angle(rho0, trace.states[-1])
        assert abs(lq.angle_from_modes(sd, c, rho0, t) - direct) < 1e-5 * direct


def test_mode_route_agrees_with_propagation_over_the_grid():
    # 2001 points, so both routes take their phases from the anchor x offset table.
    rng = philox(83)
    ts = np.linspace(0.0, 10.0, 2001)
    for d in range(2, 9):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        sd = lq.spectral_decompose(L)
        for rho0 in (rand_rho(rng, d), rand_pure(rng, d)):
            c = lq.mode_overlaps(sd, rho0)
            trace = lq.propagate_expm(L, rho0, ts)
            unit = lq.normalize_state(trace.states)
            for got, ref in (
                (lq.speed_from_modes(sd, c, ts), lq.speed(L, unit)),
                (lq.angle_from_modes(sd, c, rho0, ts), lq.liouville_angle(rho0, trace.states)),
            ):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mode_route_needs_no_unique_steady_state():
    # A mode sum is a propagation: it runs on generators whose stationary
    # subspace is degenerate, where steady_state has nothing unique to return.
    rng = philox(84)
    plus = np.full((2, 2), 0.5)
    one = np.zeros((4, 4))
    one[0, 1] = 1.0
    cases = (
        (lq.LindbladSpec(np.diag([0.0, 1.0, 3.0])), rand_rho(rng, 3)),
        (lq.LindbladSpec(np.zeros((2, 2)), [(0.5, np.diag([1.0, -1.0]))]), plus),
        (lq.LindbladSpec(np.diag([0.0, 0.5, 1.3, 2.0]), [(0.4, one)]), rand_rho(rng, 4)),
    )
    ts = np.linspace(0.0, 10.0, 201)
    for spec, rho0 in cases:
        L = lq.build_liouvillian(spec).full
        sd = lq.spectral_decompose(L)
        with pytest.raises(NonUniqueSteadyStateError):
            lq.steady_state(sd)
        c = lq.mode_overlaps(sd, rho0)
        trace = lq.propagate_expm(L, rho0, ts)
        speeds = lq.speed(L, lq.normalize_state(trace.states))
        angles = lq.liouville_angle(rho0, trace.states)
        assert np.abs(lq.speed_from_modes(sd, c, ts) - speeds).max() <= 1e-14
        assert np.abs(lq.angle_from_modes(sd, c, rho0, ts) - angles).max() <= 1e-14


def test_mode_route_checks_its_inputs():
    rng = philox(84)
    sd = lq.spectral_decompose(lq.build_liouvillian(rand_spec(rng, 2)).full)
    rho0, wide = rand_rho(rng, 2), rand_rho(rng, 3)
    c = lq.mode_overlaps(sd, rho0)
    for call in (
        lambda: lq.mode_overlaps(sd, wide),
        lambda: lq.angle_from_modes(sd, c, wide, 1.0),
        lambda: lq.mode_elimination_search(sd, wide, [1, 2]),
        lambda: lq.speed_from_modes(sd, c[:3], 1.0),
        lambda: lq.angle_from_modes(sd, np.append(c, 0.0), rho0, 1.0),
    ):
        with pytest.raises(DimensionError):
            call()
    bad = c.copy()
    bad[1] = np.nan
    for call in (
        lambda: lq.speed_from_modes(sd, c, np.nan),
        lambda: lq.angle_from_modes(sd, c, rho0, [0.0, np.inf]),
        lambda: lq.speed_from_modes(sd, bad, 1.0),
        lambda: lq.angle_from_modes(sd, bad, rho0, 1.0),
        lambda: lq.mode_overlaps(sd, np.full((2, 2), np.nan)),
    ):
        with pytest.raises(ValidationError, match="finite|nan"):
            call()


def test_tqsl_from_modes_matches_direct_route():
    # The mode route's angle over its averaged speed is exact_qsl's bound_mt.
    horizon = 60.0
    ts = np.linspace(0.0, horizon, 801)
    for L, rho0 in _mode_route_cases():
        sd = lq.spectral_decompose(L)
        c = lq.mode_overlaps(sd, rho0)
        avg = _time_average(lq.speed_from_modes(sd, c, ts), ts)
        got = lq.angle_from_modes(sd, c, rho0, horizon) / avg
        trace = lq.propagate_expm(L, rho0, ts)
        theta = lq.liouville_angle(rho0, trace.states[-1])
        direct = theta / lq.average_speed(trace, L)
        assert abs(got - direct) < 1e-10
        assert abs(got - lq.exact_qsl(trace, L).bound_mt) < 1e-10


def test_tqsl_from_modes_stationary_start():
    spec = lq.amplitude_damping_spec(0.05, 0.3)
    L = lq.build_liouvillian(spec).full
    sd = lq.spectral_decompose(L)
    ss = lq.steady_state(sd)
    ts = np.linspace(0.0, 10.0, 2001)
    assert not lq.speed_from_modes(sd, lq.mode_overlaps(sd, ss), ts).any()
    assert lq.exact_qsl(lq.propagate_expm(L, ss, ts), L).bound_mt == 0.0


def test_mode_elimination_feasible_case():
    spec = lq.amplitude_damping_spec(0.01, 0.0)
    sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
    rho0 = lq.superposition_state(1.0 / np.sqrt(2.0))
    rows = sd.left_vectors[:, [1, 2]].conj().T
    before = float(np.sum(np.abs(rows @ lq.vectorize(rho0)) ** 2))
    assert before > 0.1
    u, residual = lq.mode_elimination_search(sd, rho0, [1, 2])
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
    assert residual < 1e-10
    rotated = u @ rho0 @ u.conj().T
    assert float(np.sum(np.abs(rows @ lq.vectorize(rotated)) ** 2)) < 1e-10


def test_mode_elimination_infeasible_case():
    spec = lq.amplitude_damping_spec(0.01, 0.5)
    sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
    rho0 = lq.superposition_state(1.0 / np.sqrt(2.0))
    _, residual = lq.mode_elimination_search(sd, rho0, [1, 2, 3])
    assert residual > 0.1


def test_mode_elimination_edge_cases():
    spec = lq.amplitude_damping_spec(0.01, 0.0)
    sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
    rho0 = lq.superposition_state(0.6)
    u, residual = lq.mode_elimination_search(sd, rho0, [])
    assert residual == 0.0
    assert_allclose(u, np.eye(2))
    with pytest.raises(ValidationError):
        lq.mode_elimination_search(sd, rho0, [0])
    with pytest.raises(ValidationError):
        lq.mode_elimination_search(sd, rho0, [4])


def test_mode_elimination_deterministic():
    spec = lq.amplitude_damping_spec(0.01, 0.0)
    sd = lq.spectral_decompose(lq.build_liouvillian(spec).full)
    rho0 = lq.superposition_state(1.0 / np.sqrt(2.0))
    u1, r1 = lq.mode_elimination_search(sd, rho0, [1, 2], seed=3)
    u2, r2 = lq.mode_elimination_search(sd, rho0, [1, 2], seed=3)
    assert r1 == r2
    assert np.array_equal(u1, u2)


def _phase_table_generators():
    """A coherent and a Lindblad generator, d = 3."""
    rng = philox(80)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    yield "hermitian", -1j * lq.commutator_superop((h + h.conj().T) / 2)
    yield "real", lq.build_liouvillian(rand_spec(rng, 3)).full


def _direct_weights(sd, c, t, modes=slice(None)):
    phases = np.exp(np.multiply.outer(t, sd.eigenvalues[modes]))
    return phases.reshape(np.shape(t) + (1,) * (c.ndim - 1) + (-1,)) * c


def _phase_table_cases():
    rng = philox(81)
    for route, L in _phase_table_generators():
        sd = lq.spectral_decompose(L)
        assert sd.route == route
        rhos = np.array([rand_rho(rng, 3), rand_pure(rng, 3)])
        for v in (lq.vectorize(rhos[0]), lq.vectorize(rhos)):
            yield sd, v, sd.overlaps(v)


def test_phase_table_matches_the_direct_exponentials(monkeypatch):
    # On a linspace grid the weights exp(lambda t) c come from an anchor x
    # offset table; each may differ from the direct exponential by at most
    # 8 eps (1 + max|lambda| t_max) max|c|, which the right vectors carry
    # into a vector entry at most max_j sum_i |R_ji| times.
    eps = np.finfo(float).eps
    calls = []
    exp = np.exp

    def counted_exp(z):
        calls.append(np.size(z))
        return exp(z)

    monkeypatch.setattr(np, "exp", counted_exp)
    for sd, v, c in _phase_table_cases():
        for points in (5, 201, 2001, 40001):
            t = np.linspace(0.0, 20.0, points)
            weight_tol = 8.0 * eps * (1.0 + np.abs(sd.eigenvalues).max() * 20.0)
            tol = weight_tol * np.abs(c).max() * np.abs(sd.right_vectors).sum(1).max()
            ref = _direct_weights(sd, c, t) @ sd.right_vectors.T
            calls.clear()
            got = _scatter(sd.propagate_real(_gather(v).real, t))
            assert sum(calls) <= 2 * (np.sqrt(points) + 1) * sd.size
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= tol
            if sd.route == "real":
                lead = np.flatnonzero(sd.eigenvalues.imag >= 0.0)
                weights = _phased(sd.eigenvalues[lead], 2.0 * c[..., lead], t)
                direct = _direct_weights(sd, 2.0 * c[..., lead], t, lead)
                assert np.abs(weights - direct).max() <= 2.0 * weight_tol * np.abs(c).max()


def test_phase_table_leaves_other_grids_to_the_direct_exponentials():
    # A grid that anchors and offsets do not reproduce, a 3-point grid and a
    # scalar time keep exp(lambda t) c bit for bit.
    uniform = np.linspace(0.0, 20.0, 201)
    grids = [np.concatenate([np.linspace(0.0, 1.0, 21), [1.3, 2.0, 2.05, 3.5]])]
    for k in (1, 14, 100, 200):
        moved = uniform.copy()
        moved[k] += 1e-13 * uniform[-1]
        grids.append(moved)
    grids += [np.linspace(0.0, 20.0, 3), 0.7]
    for sd, _, c in _phase_table_cases():
        lead = np.flatnonzero(sd.eigenvalues.imag >= 0.0)
        for t in grids:
            weights = _direct_weights(sd, c, t)
            assert np.array_equal(_phased(sd.eigenvalues, c, t), weights)
            assert np.array_equal(
                _phased(sd.eigenvalues[lead], c[..., lead], t), _direct_weights(sd, c[..., lead], t, lead)
            )
