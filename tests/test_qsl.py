import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl import cli, qsl
from liouqsl.exceptions import (
    DimensionError,
    NumericalConsistencyError,
    QuadratureError,
    ValidationError,
)
from liouqsl.liouville import _gather, _real_form
from liouqsl.qsl import _BLOCK_BYTES, BasisSet, _ClassicalSplit

from conftest import (
    philox,
    rand_hermitian,
    rand_pure,
    rand_rho,
    rand_spec,
    superop_variance,
)


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


def _sum_rule_cases():
    """Two hand-picked draws, then seeded draws d = 2-6 from mixed and pure states."""
    rng = philox(52)
    for d in (2, 3):
        yield lq.build_liouvillian(rand_spec(rng, d)), rand_rho(rng, d)
    rng = philox(152)
    for draw in range(20):
        d = 2 + draw % 5
        start = rand_pure if draw // 5 % 2 else rand_rho
        yield lq.build_liouvillian(rand_spec(rng, d)), start(rng, d)


def test_speed_decomposition_sum_rule():
    for parts, rho in _sum_rule_cases():
        s = lq.normalize_state(rho)
        var_h, var_d, cross = lq.speed_decomposition(parts, s)
        total = lq.speed(parts.full, s) ** 2
        assert abs(var_h + var_d + cross - total) < 1e-10
        assert abs(cross) <= 2.0 * np.sqrt(var_h * var_d) + 1e-12


def test_average_speed_is_simpson_average_of_speed_column():
    from scipy.integrate import simpson

    L, trace = _ad_trace()
    avg = lq.average_speed(trace, L)
    unit = lq.normalize_state(trace.states)
    column = lq.speed(L, unit)
    assert column.shape == trace.times.shape
    direct = np.array([lq.speed(L, s) for s in unit])
    assert_allclose(column, direct)
    horizon = trace.times[-1] - trace.times[0]
    assert_allclose(avg, simpson(column, x=trace.times) / horizon, rtol=1e-14)
    assert avg > 0.0


def test_average_speed_of_a_stack_is_that_of_each_trajectory():
    rng = philox(140)
    times = np.linspace(0.0, 2.0, 201)
    for d in (2, 3, 4):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        stack = np.array([rand_rho(rng, d), rand_pure(rng, d), rand_rho(rng, d)])
        trace = lq.propagate_expm(L, stack, times)
        avg = lq.average_speed(trace, L)
        assert avg.shape == (3,)
        for a in range(3):
            one = lq.EvolutionTrace(times, trace.coordinates[a])
            one = lq.average_speed(one, L)
            assert np.array_equal(avg[a], one)


def _critical_qubit():
    """H = sigma_x/8 with one jump (1, sigma_-): defective, so propagation steps."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return lq.LindbladSpec(hamiltonian=sx / 8.0, jumps=[(1.0, lower)])


def _assert_speed_column(got, L, states):
    want = lq.speed(L, lq.normalize_state(states))
    eps = np.finfo(float).eps
    assert np.abs(got - want).max() <= 16 * eps * np.abs(want).max()


def test_trace_speed_is_the_speed_of_the_unit_vectors():
    # average_speed averages the speed of u = x/sqrt(p) under B^+ L B, which
    # equals lq.speed of the complex unit vectors within 16 eps of the column
    # maximum: propagated and rebuilt traces, single and stacked starts, and
    # the stepping fallback.
    rng = philox(143)
    times = np.linspace(0.0, 2.0, 101)
    cases = []
    for d in (2, 3, 4, 6, 8, 12, 16):
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        stack = np.array([rand_rho(rng, d), rand_pure(rng, d)])
        for rho0 in (stack[0], stack):
            trace = lq.propagate_expm(L, rho0, times)
            cases += [(L, trace), (L, lq.build_trace(times, trace.states))]
    L = lq.build_liouvillian(_critical_qubit()).full
    trace = lq.propagate_expm(L, lq.superposition_state(0.5), np.linspace(0, 20, 401))
    assert trace.modes is None
    cases.append((L, trace))
    for L, trace in cases:
        column = qsl._trace_speed(trace, L)
        _assert_speed_column(column, L, trace.states)
        avg = lq.average_speed(trace, L)
        assert np.array_equal(avg, qsl._time_average(column, trace.times))


def test_evolve_speed_column_is_the_speed_of_the_unit_vectors(tmp_path):
    rng = philox(144)
    specs = [(rand_spec(rng, d), rand_rho(rng, d)) for d in (4, 16)]
    specs.append((_critical_qubit(), lq.superposition_state(0.5)))
    for spec, rho0 in specs:
        paths = [tmp_path / "spec.json", tmp_path / "rho0.json"]
        lq.dump_json(lq.spec_to_json(spec), paths[0])
        lq.dump_json(lq.matrix_to_json(rho0), paths[1])
        args = ["evolve", "--spec", str(paths[0]), "--rho0", str(paths[1])]
        args += ["--t-max", "2", "--points", "101", "--out", str(tmp_path)]
        assert cli.main(args + ["--dump-states"]) == 0
        table = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)
        d = spec.dim
        states = table[:, 4 : 4 + d * d] + 1j * table[:, 4 + d * d :]
        L = lq.build_liouvillian(lq.load_spec(str(paths[0]))).full
        _assert_speed_column(table[:, 3], L, states.reshape(-1, d, d))


def test_a_trace_refuses_a_generator_without_a_real_form():
    # A trace is read through its real coordinates, so a generator that does not
    # preserve Hermiticity is refused; one of the wrong shape stays a DimensionError.
    L, trace = _ad_trace()
    for functional in (lq.average_speed, lq.exact_qsl, lq.sff_bound_check):
        with pytest.raises(ValidationError, match="does not preserve Hermiticity"):
            functional(trace, 1j * L)
        for wrong in (np.zeros((9, 9)), np.zeros((4, 5)), L[:3, :3]):
            with pytest.raises(DimensionError):
                functional(trace, wrong)


def test_average_speed_needs_odd_grid():
    L, trace = _ad_trace(points=101)
    even = lq.build_trace(trace.times[:100], trace.states[:100])
    with pytest.raises(QuadratureError):
        lq.average_speed(even, L)


def test_an_even_grid_is_bad_input():
    # QuadratureError is a ValidationError: the CLI exits 1 on it.
    L, trace = _ad_trace(points=5)
    even = lq.build_trace(trace.times[:4], trace.states[:4])
    with pytest.raises(ValidationError, match="odd"):
        lq.exact_qsl(even, L)


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
    # The damped qubit, then seeded draws with d = 2-4 and pure or mixed starts.
    cases = [(lq.amplitude_damping_spec(0.05, 0.2), lq.superposition_state(0.7))]
    rng = philox(141)
    for draw in range(12):
        dim = 2 + draw % 3
        start = rand_pure if draw % 2 == 0 else rand_rho
        cases.append((rand_spec(rng, dim), start(rng, dim)))
    for spec, rho0 in cases:
        L = lq.build_liouvillian(spec).full
        for horizon in 10.0 ** np.arange(-8, 3):
            trace = lq.propagate_expm(L, rho0, np.linspace(0.0, horizon, 201))
            report = lq.exact_qsl(trace, L)
            assert report.bound_hsnorm <= report.bound_opnorm * (1.0 + 1e-12)
            assert report.bound_opnorm <= report.bound_mt * (1.0 + 1e-12)
            assert report.bound_mt <= report.bound_nc * (1.0 + 1e-12)
            # The angle comes from unit vectors whose entries carry rounding of
            # a few eps, so it may exceed the integrated speed by 1e-14.
            assert report.bound_nc <= report.T + 1e-14 / report.avg_nc_speed
            assert abs(report.exact_time - report.T) < 1e-10 * report.T
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


def test_operator_norm_is_the_largest_singular_value():
    # sqrt of the top eigenvalue of A^+ A: on real forms, on complex generators
    # (taken through their real form), on complex superoperators without one
    # and on a complex non-square matrix
    rng = philox(61)
    worst = 0.0
    for d in (2, 3, 4, 8, 12, 16):
        n = d * d
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        skew = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        wide = skew[: n // 2 + 1]
        for a in (L, _real_form(L), skew, wide):
            want = np.linalg.norm(a, 2)
            worst = max(worst, abs(lq.operator_norm(a) - want) / want)
    assert worst <= 1e-14


def test_bound_ratio_is_elementwise():
    from liouqsl.qsl import _bound_ratio

    num = np.array([0.5, 0.0, 1e-13, 2.0, 0.0])
    den = np.array([2.0, 0.0, 0.0, 4.0, 0.7])
    got = _bound_ratio(num, den)
    assert got.shape == num.shape
    assert got.tolist() == [_bound_ratio(a, b) for a, b in zip(num, den)]
    assert got.tolist() == [0.25, 0.0, 0.0, 0.5, 0.0]
    assert isinstance(_bound_ratio(num[0], den[0]), float)
    with pytest.raises(NumericalConsistencyError, match="7.000e-01"):
        _bound_ratio(np.array([0.3, 0.7]), np.array([1.0, 0.0]))


def test_complete_basis_orthonormal():
    # complete_basis skips BasisSet's Gram check, so its closed form is held to
    # it here: random, pure, basis-vector, dropped-direction and near-pure starts
    rng = philox(54)
    states = [np.diag([1.0 - e, e]).astype(complex) for e in (1e-17, 1e-20, 1e-30)]
    states += [np.array([[1.0 - 1e-17, 3e-9], [3e-9, 1e-17]], dtype=complex)]
    for d in range(2, 17):
        states += [rand_rho(rng, d), rand_pure(rng, d), np.diag(np.eye(d)[0])]
        states += [_near_pure(d)]
    for rho in states:
        s = lq.normalize_state(rho)
        basis = lq.complete_basis(s)
        n = s.vector.size
        assert basis.size == n and basis.vectors.dtype == complex
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert np.abs(basis.vectors[:, 0] - s.vector).max() <= 1e-12
    ground = lq.normalize_state(np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(lq.complete_basis(ground).vectors, np.eye(4))
    real = lq.NormalizedState(vector=np.array([0.6, 0.0, 0.0, 0.8]), purity=1.0)
    assert lq.complete_basis(real).vectors.dtype == complex


def _gram_schmidt_oracle(v0):
    """The completion loop as it was before the conjugate block was kept."""
    n = v0.size
    rows = np.empty((n, n), dtype=complex)
    rows[0] = v0 / np.linalg.norm(v0)
    k = 1
    for j in range(n):
        q = rows[:k]
        cand = -(q[:, j].conj() @ q)
        cand[j] += 1.0
        cand -= (q.conj() @ cand) @ q
        norm = np.linalg.norm(cand)
        if norm < 1e-8:
            continue
        rows[k] = cand / norm
        k += 1
        if k == n:
            break
    return rows.T


def _near_pure(d, eps=1e-17):
    """diag(1 - (d - 1) eps, eps, ...): e_0 is within 1e-8 of the span of v."""
    return np.diag([1.0 - (d - 1) * eps] + [eps] * (d - 1)).astype(complex)


def test_complete_basis_matches_the_plain_loop_to_rounding():
    rng = philox(59)
    states = [np.diag([1.0 - e, e]).astype(complex) for e in (1e-17, 1e-20, 1e-30)]
    # e_0 is dropped; s_3/s_2 is below 1e-8 too, but e_2 must be kept
    states += [np.array([[1.0 - 1e-17, 3e-9], [3e-9, 1e-17]], dtype=complex)]
    states += [_near_pure(3), _near_pure(4)]
    for d in (2, 3, 4, 7, 16):
        states += [rand_rho(rng, d), rand_pure(rng, d), np.diag(np.eye(d)[0])]
    for rho in states:
        s = lq.normalize_state(rho)
        delta = lq.complete_basis(s).vectors - _gram_schmidt_oracle(s.vector)
        assert np.abs(delta).max() <= 4 * np.finfo(float).eps


def test_exact_qsl_from_a_near_pure_start_uses_the_loop_basis():
    # Dropping only an exactly dependent candidate keeps e_0 here and moves
    # bound_nc and wootters_length by up to 15%.
    for d in (3, 4):
        L = lq.build_liouvillian(rand_spec(philox(5), d)).full
        trace = lq.propagate_expm(L, _near_pure(d), np.linspace(0.0, 2.0, 401))
        unit = lq.normalize_state(trace.states[0])
        oracle = BasisSet(_gram_schmidt_oracle(unit.vector))
        report = lq.exact_qsl(trace, L).to_json()
        expected = lq.exact_qsl(trace, L, basis=oracle).to_json()
        for key, value in expected.items():
            assert_allclose(report[key], value, rtol=1e-14, err_msg=key)


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
        var_cl = superop_variance(c, s)
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


def _complex_split(superop, basis, v):
    """Columns of the split, per state, from whole-array complex products alone."""
    ov = v @ superop.T
    amps, oamps = v @ basis.vectors.conj(), ov @ basis.vectors.conj()
    pops = np.abs(amps) ** 2
    keep = pops >= 1e-14
    safe = np.where(keep, pops, 1.0)
    mean = np.sum(v.conj() * ov, axis=-1)
    beta = np.where(keep, np.imag(oamps * amps.conj()) / safe, 0.0)
    var = np.sum(np.abs(ov) ** 2, axis=-1) - np.abs(mean) ** 2
    var_cl = np.sum(beta**2 * pops, axis=-1) - np.sum(beta * pops, axis=-1) ** 2
    rate = oamps - mean.real[..., None] * amps
    kept = np.real(rate * amps.conj()) ** 2 / safe
    diag = 2.0 * np.real(oamps * amps.conj()) - 2.0 * mean.real[..., None] * pops
    return {
        "var": var,
        "nc": np.sqrt(np.maximum(var - var_cl, 0.0)),
        "wootters": np.sqrt(np.sum(np.where(keep, kept, np.abs(rate) ** 2), axis=-1)),
        "fisher": np.sum(np.where(keep, diag**2 / safe, 0.0), axis=-1),
        "beta": beta,
    }


def test_split_matches_the_complex_formula_and_refuses_non_hermitian_inputs():
    # Hermitian states under a Lindblad generator match the complex-coordinate
    # formula, and so does a density matrix skewed by 1e-11, which validation
    # accepts, through its Hermitian part. A non-Hermitian state vector, or a
    # superoperator that does not preserve Hermiticity, is refused.
    rng = philox(60)
    functionals = (lq.nonclassical_speed, lq.exact_uncertainty, lq.classical_part)
    for d in (2, 3, 4):
        n = d * d
        L = lq.build_liouvillian(rand_spec(rng, d)).full
        skew = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        basis = lq.complete_basis(lq.normalize_state(rand_rho(rng, d)))
        rho = rand_rho(rng, d)
        hermitian = lq.normalize_state(rho).vector
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        oracle = _complex_split(L, basis, hermitian)
        nc, delta = oracle["nc"], oracle["fisher"] ** -0.5
        assert_allclose(lq.nonclassical_speed(L, basis, hermitian), nc, rtol=1e-12)
        assert_allclose(lq.exact_uncertainty(L, basis, hermitian), (delta, nc), rtol=1e-12)
        refusals = ((L, v, "state is not Hermitian"), (skew, hermitian, "preserve Hermiticity"))
        for superop, state, match in refusals:
            for functional in functionals:
                with pytest.raises(ValidationError, match=match):
                    functional(superop, basis, state)
        # the bound: Im B^+ v at 0.9e-10 of max |B^+ v| passes, at 1.1e-10 not
        e0 = np.eye(n)[0] * np.abs(_gather(hermitian)).max()  # (0, 0): a coordinate
        lq.nonclassical_speed(L, basis, hermitian + 0.9e-10j * e0)
        with pytest.raises(ValidationError, match="state is not Hermitian"):
            lq.nonclassical_speed(L, basis, hermitian + 1.1e-10j * e0)
        k = np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 1)
        k -= k.conj().T
        skewed = rho + 0.5e-11 * k / np.abs(k).max()
        assert np.abs(skewed - skewed.conj().T).max() == pytest.approx(1e-11, rel=1e-6)
        lq.validate_density_matrix(skewed)
        state = lq.normalize_state(skewed)
        for functional in functionals:
            want = np.asarray(functional(L, basis, hermitian))
            got = functional(L, basis, state)
            assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_split_keeps_the_variance_floor():
    # Parseval gives var = |O v|² - |(v|O v)|² = 4 - 16 for a bare array of
    # norm 2 under the identity
    rng = philox(62)
    basis = lq.complete_basis(lq.normalize_state(rand_rho(rng, 3)))
    hermitian = 2.0 * lq.normalize_state(rand_rho(rng, 3)).vector
    with pytest.raises(NumericalConsistencyError, match="below floor -1e-10"):
        lq.nonclassical_speed(np.eye(9), basis, hermitian)


def test_split_within_the_gram_defect_bound_of_the_direct_forms():
    # A user's basis with Gram defect delta = ||A^+ A - 1||_2 moves the Parseval
    # mean, scale and var of a unit v from the direct forms by at most
    # delta |O v|, delta |O v|² and (3 delta + delta²) |O v|², as documented
    rng = philox(63)
    d, n = 4, 16
    L = lq.build_liouvillian(rand_spec(rng, d)).full
    trace = lq.propagate_expm(L, rand_rho(rng, d), np.linspace(0.0, 2.0, 101))
    unit = lq.normalize_state(trace.states)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h += h.conj().T
    a = lq.complete_basis(unit[0]).vectors @ (np.eye(n) + 5e-12 * h / np.linalg.norm(h, 2))
    basis = BasisSet(a)
    delta = np.linalg.norm(a.conj().T @ a - np.eye(n), 2)
    assert 5e-12 < delta < 2e-11
    split = _ClassicalSplit(L, basis, unit)
    ov = unit.vector @ L.T
    scale = np.sum(np.abs(ov) ** 2, axis=1)
    z = np.sum(unit.vector.conj() * ov, axis=1)
    rounding = 1e-14 * scale
    assert np.all(np.abs(split.mean - z.real) <= delta * np.sqrt(scale) + rounding)
    assert np.all(np.abs(split.scale - scale) <= delta * scale + rounding)
    var = scale - np.abs(z) ** 2
    assert np.all(np.abs(split.var - var) <= (3 * delta + delta**2) * scale + rounding)
    # the defect shows above rounding, so the bound is not met by rounding alone
    assert np.abs(split.scale - scale).max() > 100 * rounding.max()


@pytest.fixture(scope="module")
def d16():
    rng = philox(133)
    L = lq.build_liouvillian(rand_spec(rng, 16)).full
    trace = lq.propagate_expm(L, rand_rho(rng, 16), np.linspace(0.0, 3.0, 2001))
    return L, trace, lq.complete_basis(lq.normalize_state(trace.states[0]))


def _assert_split_matches_oracle(superop, basis, v):
    split = _ClassicalSplit(superop, basis, v, beta=True)
    oracle = _complex_split(superop, basis, v)
    # beta_i is ill-conditioned where p_i is small, beta_i p_i = Im(c'_i c_i*) is not
    pops = np.abs(basis.amplitudes(v)) ** 2
    want = oracle.pop("beta") * pops
    assert_allclose(split.beta * pops, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    for key, value in oracle.items():
        # fisher is round-off where populations are stationary; exact_uncertainty
        # treats it as zero below 1e-24 of its scale
        atol = 1e-24 * value.max() if key == "fisher" else 0.0
        assert_allclose(getattr(split, key), value, rtol=1e-12, atol=atol, err_msg=key)


def _block_rows(n):
    return _BLOCK_BYTES // (32 * n)


def test_blocked_split_matches_the_whole_array_oracle(d16):
    rng = philox(134)
    L, trace = _ad_trace(points=2 * _block_rows(4) + 1)
    unit = lq.normalize_state(trace.states)
    cases = [(L, lq.complete_basis(unit[0]), unit.vector)]
    L3 = lq.build_liouvillian(rand_spec(rng, 3)).full
    short = lq.propagate_expm(L3, rand_rho(rng, 3), np.linspace(0.0, 1.0, 3))
    unit = lq.normalize_state(short.states)
    cases.append((L3, lq.complete_basis(unit[0]), unit.vector))
    L16, trace16, basis16 = d16
    v16 = lq.normalize_state(trace16.states).vector
    assert len(v16) % _block_rows(256) != 0
    cases += [(L16, basis16, v16[: 2 * _block_rows(256) + 1]), (L16, basis16, v16)]
    for superop, basis, v in cases:
        _assert_split_matches_oracle(superop, basis, v)


def test_blocked_split_drops_directions_across_a_block_boundary():
    rng = philox(135)
    L = lq.build_liouvillian(rand_spec(rng, 8)).full
    rows = _block_rows(64)
    trace = lq.propagate_expm(L, rand_pure(rng, 8), np.linspace(0.0, 1.0, 2 * rows + 1))
    unit = lq.normalize_state(trace.states)
    v = unit.vector.copy()
    v[rows - 2 : rows + 2] = v[0]  # the pure start again, on both sides of a boundary
    basis = lq.complete_basis(unit[0])
    dropped = np.abs(v @ basis.vectors.conj()) ** 2 < 1e-14
    assert dropped[rows - 1].sum() == dropped[rows].sum() == 63
    assert not dropped[rows + 2 :].any()
    _assert_split_matches_oracle(L, basis, v)


def test_blocked_split_refuses_a_skew_superoperator_or_one_non_hermitian_state(d16):
    rng = philox(136)
    L, trace, basis = d16
    v = lq.normalize_state(trace.states[: 2 * _block_rows(256) + 1]).vector
    skew = rng.normal(size=L.shape) + 1j * rng.normal(size=L.shape)
    with pytest.raises(ValidationError, match="does not preserve Hermiticity"):
        _ClassicalSplit(skew, basis, v, beta=True)
    # one non-Hermitian state in the last block refuses the whole stack
    v[-1] = rng.normal(size=v.shape[1]) + 1j * rng.normal(size=v.shape[1])
    v[-1] /= np.linalg.norm(v[-1])
    with pytest.raises(ValidationError, match="state is not Hermitian"):
        _ClassicalSplit(L, basis, v, beta=True)


def test_split_reads_the_coordinates_of_a_propagated_trace(monkeypatch):
    # A propagate_expm trace keeps the real coordinates of its states, so the
    # split of exact_qsl and krylov_bound_check gathers no state; a trace
    # rebuilt from the states alone gathers them once in build_trace, to within
    # 4 eps of the propagated ones, and its report gathers no state either and
    # agrees within 1e-15 relative.
    rng = philox(139)
    times = np.linspace(0.0, 2.0, 201)
    L = lq.build_liouvillian(rand_spec(rng, 4)).full
    starts = (rand_rho(rng, 4), rand_pure(rng, 4))
    traces = [lq.propagate_expm(L, rho0, times) for rho0 in starts]
    kd = lq.krylov_build(rand_hermitian(rng, 5), rand_pure(rng, 5), times)
    rows, gather = [], qsl._gather

    def counted(v, sign=-1):
        rows.append(len(v))
        return gather(v, sign)

    monkeypatch.setattr(qsl, "_gather", counted)
    reports = [lq.exact_qsl(trace, L).to_json() for trace in traces]
    lq.krylov_bound_check(kd)
    assert rows and times.size not in rows
    for trace, report in zip(traces, reports):
        rebuilt = lq.build_trace(trace.times, trace.states)
        x = trace.coordinates
        eps = np.finfo(float).eps
        assert np.abs(rebuilt.coordinates - x).max() <= 4 * eps * np.abs(x).max()
        rows.clear()
        again = lq.exact_qsl(rebuilt, L).to_json()
        assert times.size not in rows
        for key, value in report.items():
            assert_allclose(again[key], value, rtol=1e-15, atol=0, err_msg=key)


def test_exact_qsl_peak_memory_d16(d16):
    L, trace, basis = d16
    tracemalloc.start()
    try:
        lq.exact_qsl(trace, L, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_propagate_expm_peak_memory_d16(d16):
    # the coordinates alone take 2001 x 256 x 8 bytes = 4.1 MB; validating the
    # states as one (2001, 16, 16) complex stack peaked at 28.7 MB. The
    # eigensystem is decomposed first, so only propagation is measured.
    L, trace, _ = d16
    rho0 = trace.states[0]
    lq.spectral_decompose(L)
    tracemalloc.start()
    try:
        lq.propagate_expm(L, rho0, trace.times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_randomized_split_invariants():
    # Seeded draws: d = 2-6, pure and mixed starts, horizons 1e-3 ... 1e1.
    rng = philox(137)
    for draw in range(10):
        dim = 2 + draw % 5
        start = rand_pure if draw % 2 == 0 else rand_rho
        L = lq.build_liouvillian(rand_spec(rng, dim)).full
        rho0 = start(rng, dim)
        for horizon in 10.0 ** np.arange(-3, 2):
            trace = lq.propagate_expm(L, rho0, np.linspace(0.0, horizon, 201))
            unit = lq.normalize_state(trace.states)
            basis = lq.complete_basis(unit[0])
            split = _ClassicalSplit(L, basis, unit)
            nc = lq.nonclassical_speed(L, basis, unit)
            assert_allclose(split.wootters, nc, rtol=1e-10)
            # delta * nc = 1/2 needs every population above the 1e-14 floor: a
            # dropped direction leaves the Fisher sum but not nc
            full = (np.abs(basis.amplitudes(unit.vector)) ** 2 >= 1e-14).all(1)
            assert full.sum() >= 190
            delta, nc = lq.exact_uncertainty(L, basis, unit[full])
            assert np.abs(delta * nc - 0.5).max() < 1e-9


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


def test_speed_decomposition_and_uncertainty_product_of_a_stack():
    rng = philox(60)
    parts = lq.build_liouvillian(rand_spec(rng, 3))
    b = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    stack = lq.normalize_state(np.array([rand_rho(rng, 3) for _ in range(5)]))
    functionals = (
        lambda s: lq.speed_decomposition(parts, s),
        lambda s: lq.uncertainty_product(parts.full, b, s),
    )
    for functional in functionals:
        columns = functional(stack)
        for k in range(5):
            for column, value in zip(columns, functional(stack[k])):
                assert column.shape == (5,) and np.ndim(value) == 0
                assert abs(column[k] - value) <= 1e-14 * abs(value)


def test_wootters_length_dominates_angle():
    for alpha in (0.4, 0.7, 0.9):
        L, trace = _ad_trace(alpha=alpha, points=401)
        basis = lq.complete_basis(lq.normalize_state(trace.states[0]))
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
        basis = lq.complete_basis(lq.normalize_state(trace.states[0]))
        lengths.append(lq.wootters_length(trace, L, basis))
    assert abs(lengths[0] - lengths[1]) / lengths[1] < 1e-10


def test_wootters_length_handles_modulus_kinks():
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    spec = lq.LindbladSpec(hamiltonian=h)
    L = lq.build_liouvillian(spec).full
    rho0 = lq.superposition_state(1.0 / np.sqrt(2.0))
    coarse = lq.propagate_expm(L, rho0, np.linspace(0.0, 3.0, 201))
    fine = lq.propagate_expm(L, rho0, np.linspace(0.0, 3.0, 2001))
    basis = lq.complete_basis(lq.normalize_state(coarse.states[0]))
    a = lq.wootters_length(coarse, L, basis)
    b = lq.wootters_length(fine, L, basis)
    assert abs(a - b) < 1e-4


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


def test_exact_qsl_frozen_d16_report():
    # Recorded from the complex-coordinate implementation (dense products with
    # the Hermitian basis); the real-coordinate one must reproduce it.
    rng = philox(131)
    L = lq.build_liouvillian(rand_spec(rng, 16)).full
    trace = lq.propagate_expm(L, rand_rho(rng, 16), np.linspace(0.0, 3.0, 2001))
    frozen = {
        "T": 3.0,
        "theta": 1.0053151282832566,
        "wootters_length": 8.487941102316732,
        "avg_speed": 3.8316075183438536,
        "avg_nc_speed": 2.829313700772244,
        "bound_mt": 0.26237424461412134,
        "bound_nc": 0.35532119609390145,
        "exact_time": 3.0,
        "bound_opnorm": 0.07207686433567669,
        "bound_hsnorm": 0.011343389208857186,
        "efficiency": 0.27471013567540314,
    }
    report = lq.exact_qsl(trace, L).to_json()
    assert report.keys() == frozen.keys()
    for key, value in frozen.items():
        assert_allclose(report[key], value, rtol=1e-13, err_msg=key)


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
