"""Showcase analyses: spectral form factor, Krylov complexity, and the
dissipative Mpemba effect for a damped qubit.

The qubit closed forms (state, angles to the initial and steady states,
speed, operator norm) are transcribed for the thermal amplitude-damping
model with rate gamma and bath occupation n; they act as oracles for the
numerical pipeline. The SFF and Krylov sections bound spectral-form-
factor decay and complexity growth by the integrated non-classical
speed, plus the complementary trade-off between the two. Both checks
return columns over the grid, which the krylov command writes as they are.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalConsistencyError, ValidationError
from .evolve import EvolutionTrace, propagate_expm
from .lindblad import (
    LindbladSpec,
    _checked_hamiltonian,
    build_liouvillian,
    commutator_superop,
)
from .liouville import liouville_angle, vectorize
from .qsl import (
    _bound_ratio,
    _cumulative_simpson,
    _horizon_grid,
    average_speed,
    complete_basis,
    nonclassical_speed,
    operator_norm,
)

__all__ = [
    "KrylovData",
    "MpembaReport",
    "coherent_gibbs_state",
    "sff",
    "sff_bound_check",
    "krylov_build",
    "krylov_bound_check",
    "krylov_precursor_margins",
    "tradeoff_check",
    "amplitude_damping_spec",
    "superposition_state",
    "amplitude_damping_closed_forms",
    "mpemba_report",
]


def coherent_gibbs_state(hamiltonian, beta):
    """Pure state with Boltzmann-weighted amplitudes in the energy basis.

    |psi> = Z^{-1/2} sum_n e^{-beta E_n / 2} |n>; returns the projector.
    """
    h = _checked_hamiltonian(hamiltonian)
    if not 0.0 <= beta < np.inf:
        raise ValidationError("beta must be nonnegative and finite")
    energies, vectors = np.linalg.eigh(h)
    weights = np.exp(-0.5 * beta * (energies - energies.min()))
    psi = vectors @ (weights / np.linalg.norm(weights))
    return np.outer(psi, psi.conj())


def sff(trace):
    """Re tr(rho_0 rho_t) at every grid point: from a pure rho_0, such as
    coherent_gibbs_state, the spectral form factor of the channel family
    behind the trace (any family fits through build_trace(times, states)).
    """
    vecs = vectorize(trace.states)
    return np.real(vecs @ vecs[0].conj())


def _nc_integral(trace, liouvillian, basis):
    if basis is None:
        basis = complete_basis(trace.normalized[0])
    nc = nonclassical_speed(liouvillian, basis, trace.normalized)
    return _cumulative_simpson(nc, trace.times)


def sff_bound_check(trace, liouvillian, basis=None):
    """Bound on the overlap decay of a trace started from a pure state.

    Returns the columns (lhs, rhs) over the grid: lhs is the Liouville
    angle between the initial and the current state, evaluated so that
    small angles stay accurate, and rhs the running integral of the
    non-classical speed; lhs never exceeds rhs.
    """
    lhs = liouville_angle(trace.states[0], trace.states)
    return lhs, _nc_integral(trace, liouvillian, basis)


@dataclass
class KrylovData:
    """Lanczos basis and occupation amplitudes for Hamiltonian dynamics.

    basis holds the orthonormal vectors |K_n)) as columns; amplitudes has
    one row per time with phi_n(t) = (-i)^n (K_n|rho_t~); complexity is
    sum_n n |phi_n|² per time; trace is the propagated trajectory the
    amplitudes were projected from, and generator the -1j L_H it was
    propagated under.
    """

    basis: np.ndarray
    lanczos_b: np.ndarray
    times: np.ndarray
    amplitudes: np.ndarray
    complexity: np.ndarray
    trace: EvolutionTrace
    generator: np.ndarray

    @property
    def dimension(self):
        return self.basis.shape[1]

    @property
    def ladder_norm(self):
        """Operator norm of the index operator: the largest Krylov index."""
        return float(self.dimension - 1)

    @property
    def complexity_ratio(self):
        """C_K/(2 norm) per time; 0 for a one-dimensional space, where C_K = 0."""
        return self.complexity / (2.0 * max(self.ladder_norm, 1.0))


def krylov_build(hamiltonian, rho0, times):
    """Lanczos basis of the commutator generator plus amplitudes in time.

    Runs the recursion on L_H = 1 kron H - H^T kron 1 from the unit
    vector of rho0 with full reorthogonalization, stopping when the
    off-diagonal coefficient falls below 1e-12; then propagates under
    exp(-i L_H t) and projects onto the basis. times must start at 0, as
    for propagate_expm.
    """
    h = _checked_hamiltonian(hamiltonian)
    d = h.shape[0]
    lh = commutator_superop(h)
    generator = -1j * lh
    trace = propagate_expm(generator, rho0, times)
    v0 = trace.normalized.vector[0]

    cols = [v0]
    bs = []
    prev = np.zeros_like(v0)
    b_prev = 0.0
    for _ in range(d * d - 1):
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
    basis = np.column_stack(cols)

    phases = (-1j) ** np.arange(basis.shape[1])
    amps = (trace.normalized.vector @ basis.conj()) * phases
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise NumericalConsistencyError(
            f"Krylov amplitudes lose norm by {np.abs(norms - 1.0).max():.3e}"
        )
    indices = np.arange(basis.shape[1])
    complexity = np.sum(indices * np.abs(amps) ** 2, axis=1)
    return KrylovData(
        basis=basis,
        lanczos_b=np.array(bs),
        times=trace.times,
        amplitudes=amps,
        complexity=complexity,
        trace=trace,
        generator=generator,
    )


def krylov_precursor_margins(kd):
    """Per-point slack of C_K²/(4 norm²) ≤ 1 - overlap²."""
    return 1.0 - kd.trace.overlap_with_initial**2 - kd.complexity_ratio**2


def krylov_bound_check(kd, basis=None):
    """Complexity-growth bound against the integrated non-classical speed.

    Returns the columns (lhs, rhs) over the grid: lhs = arcsin(C_K/(2
    norm)) and rhs the running integral of the non-classical speed along
    kd.trace; also verifies the pointwise precursor inequality feeding
    the arcsin step.
    """
    margins = krylov_precursor_margins(kd)
    if margins.min() < -1e-8:
        raise NumericalConsistencyError(
            f"precursor inequality violated by {-margins.min():.3e}"
        )
    lhs = np.arcsin(np.clip(kd.complexity_ratio, -1.0, 1.0))
    return lhs, _nc_integral(kd.trace, kd.generator, basis)


def tradeoff_check(kd, sff_values):
    """Maximum of C_K²/(4 norm²) + SFF² over the grid; at most 1."""
    vals = np.asarray(sff_values, dtype=float)
    if vals.shape != kd.times.shape:
        raise ValidationError("SFF values and Krylov grid have different lengths")
    return float(np.max(kd.complexity_ratio**2 + vals**2))


def amplitude_damping_spec(gamma, n):
    """Thermal damping qubit: H = 0, decay rate gamma(1+n), pumping gamma n."""
    if not 0.0 < gamma < np.inf:
        raise ValidationError("gamma must be positive and finite")
    if not 0.0 <= n < np.inf:
        raise ValidationError("bath occupation n must be nonnegative and finite")
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise_ = lower.conj().T
    jumps = [(gamma * (1.0 + n), lower)]
    if n > 0.0:
        jumps.append((gamma * n, raise_))
    return LindbladSpec(hamiltonian=np.zeros((2, 2), dtype=complex), jumps=jumps)


def superposition_state(alpha):
    """Projector onto alpha|0> + sqrt(1-alpha²)|1>."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha {alpha} outside [0, 1]")
    psi = np.array([alpha, np.sqrt(1.0 - alpha**2)], dtype=complex)
    return np.outer(psi, psi.conj())


def amplitude_damping_closed_forms(alpha, gamma, n, t):
    """Closed-form state, angles, speed, and norm for the damped qubit.

    Returns a dict with rho_t, theta_0t (angle to the initial state),
    theta_ss_t (angle to the steady state), speed, and opnorm. A
    denominator underflow (removable t -> 0 limits) falls back to an
    epsilon-shifted evaluation.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha {alpha} outside [0, 1]")
    if not (0.0 < gamma < np.inf and 0.0 <= n < np.inf and 0.0 <= t < np.inf):
        raise ValidationError("need finite gamma > 0, n >= 0, t >= 0")
    a2 = alpha * alpha
    m = 2.0 * n + 1.0
    eh = np.exp(0.5 * gamma * m * t)
    e = eh * eh
    edec = 1.0 / e

    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = (n + edec * (a2 + n * (2.0 * a2 - 1.0) - 1.0) + 1.0) / m
    rho[0, 1] = np.sqrt(edec) * alpha * np.sqrt(1.0 - a2)
    rho[1, 0] = rho[0, 1]
    rho[1, 1] = edec * (-a2 + n * (-2.0 * a2 + e + 1.0) + 1.0) / m

    x = a2 + (2.0 * a2 - 1.0) * n - 1.0
    y = a2 * a2 * m * m - 2.0 * a2 * (n + 1.0) * m + n + 1.0
    k = 2.0 * n * (n + 1.0) + 1.0
    f = 2.0 * x * x - 2.0 * y * e

    sec_num = m * e * np.sqrt(
        f / (e * e * m * m) + 0.5 * (1.0 / (m * m) + 1.0)
    )
    sec_den = (
        2.0 * a2 * a2 * m
        - a2 * (4.0 * n + 3.0)
        - 2.0 * (a2 - 1.0) * a2 * m * eh
        + (a2 + n) * e
        + n
        + 1.0
    )
    g = -2.0 * y * e + k * e * e
    ss_arg = k * (2.0 * x * x + g)
    h1 = 2.0 * x * (a2 * a2 + (2.0 * a2 - 1.0) * n - 1.0) * e - 2.0 * a2 * (
        a2 - 1.0
    ) * (a2 * (-m) + n + 1.0) ** 2
    h2 = f
    speed_den = np.sqrt(2.0) * (h2 + k * e * e)

    if min(abs(sec_num), abs(ss_arg), abs(speed_den)) < 1e-12:
        shift = 1e-9 / (gamma * m)
        return amplitude_damping_closed_forms(alpha, gamma, n, t + shift)

    theta_0t = float(np.arccos(np.clip(sec_den / sec_num, -1.0, 1.0)))
    ss_num = a2 + (2.0 * a2 - 1.0) * n + k * e - 1.0
    theta_ss_t = float(np.arccos(np.clip(ss_num / np.sqrt(ss_arg), -1.0, 1.0)))
    speed_num = gamma * m * m * eh * np.sqrt(
        max(h1 - a2 * (a2 - 1.0) * k * e * e, 0.0)
    )
    speed = float(speed_num / speed_den)
    opnorm = gamma * np.sqrt(max(2.0 * (1.0 + 2.0 * n * (1.0 + n)), 0.25 * m * m))
    return {
        "rho_t": rho,
        "theta_0t": theta_0t,
        "theta_ss_t": theta_ss_t,
        "speed": speed,
        "opnorm": float(opnorm),
    }


@dataclass
class MpembaReport:
    """Per-alpha efficiency, distance-to-steady-state curves, bound offsets,
    and the times where curves for different alphas cross."""

    alphas: np.ndarray
    gamma: float
    n_bath: float
    times: np.ndarray
    eta: np.ndarray
    theta_ss: np.ndarray
    delta: np.ndarray
    crossing_times: list

    def to_json(self):
        return {
            "alphas": self.alphas.tolist(),
            "gamma": self.gamma,
            "n_bath": self.n_bath,
            "eta": self.eta.tolist(),
            "delta": self.delta.tolist(),
            "crossings": [
                {"alpha_a": a, "alpha_b": b, "time": t}
                for a, b, t in self.crossing_times
            ],
        }


def mpemba_report(alphas, gamma, n, horizon, points=2001):
    """Sweep initial superpositions of the damped qubit.

    For each alpha: propagate, record eta (averaged speed over operator
    norm), the angle to the steady state per time, and the offset
    delta = T - theta/averaged-speed. Crossings of the theta curves for
    different alphas signal faster relaxation from farther states. The
    generator, its norm, the steady state and the grid are shared by
    every alpha, and all initial states are propagated as one block;
    theta_ss has one row per alpha.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValidationError("alphas must be a non-empty list of amplitudes")
    times = _horizon_grid(horizon, points)
    L = build_liouvillian(amplitude_damping_spec(gamma, n)).full
    norm = operator_norm(L)
    rho_ss = np.diag([(n + 1.0) / (2.0 * n + 1.0), n / (2.0 * n + 1.0)]).astype(
        complex
    )
    eta = np.empty(alphas.size)
    delta = np.empty(alphas.size)
    theta_ss = np.empty((alphas.size, points))
    rho0s = np.array([superposition_state(a) for a in alphas])
    for i, trace in enumerate(propagate_expm(L, rho0s, times)):
        avg = average_speed(trace, L)
        eta[i] = _bound_ratio(avg, norm)
        theta = liouville_angle(trace.states[0], trace.states[-1])
        delta[i] = times[-1] - _bound_ratio(theta, avg)
        theta_ss[i] = liouville_angle(rho_ss, trace.states)
    crossings = []
    for i in range(alphas.size):
        for j in range(i + 1, alphas.size):
            diff = theta_ss[i] - theta_ss[j]
            signs = np.sign(diff)
            for k in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                frac = diff[k] / (diff[k] - diff[k + 1])
                tc = times[k] + frac * (times[k + 1] - times[k])
                crossings.append((float(alphas[i]), float(alphas[j]), float(tc)))
    crossings.sort(key=lambda item: item[2])
    return MpembaReport(
        alphas=alphas,
        gamma=float(gamma),
        n_bath=float(n),
        times=times,
        eta=eta,
        theta_ss=theta_ss,
        delta=delta,
        crossing_times=crossings,
    )
