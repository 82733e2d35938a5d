"""Showcase analyses: spectral form factor, Krylov complexity, and the
dissipative Mpemba effect for a damped qubit.

The qubit closed forms (state, angles to the initial and steady states,
speed, operator norm) are transcribed for the thermal amplitude-damping
model with rate gamma and bath occupation n; they act as oracles for the
numerical pipeline. The SFF and Krylov sections bound spectral-form-
factor decay and complexity growth by the integrated non-classical
speed, plus the complementary trade-off between the two. Both checks
return columns over the grid, which the krylov command writes as they are.
krylov_build reads the Krylov chain of L_H from its spectral measure at
rho_0~ in the trajectory's eigenmodes: nodes E_i - E_j merged within 1e-12
max(1, E_max - E_min), nodes of weight at most 1e-24 dropped. K is the
number of nodes, exactly, and Lanczos on them takes K - 1 steps.
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
from .liouville import _gather, _hermitian_matrices, _unit_angle
from .liouville import normalize_state, vectorize
from .qsl import (
    _bound_ratio,
    _cumulative_simpson,
    _horizon_grid,
    _one_trajectory,
    _trace_split,
    average_speed,
    operator_norm,
)
from .spectral import _phased, spectral_decompose, steady_state

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
    _one_trajectory(trace.coordinates)
    return trace.coordinates @ trace.coordinates[0]


def _nc_integral(trace, liouvillian):
    nc = _trace_split(trace, liouvillian).nc
    return _cumulative_simpson(nc, trace.times)


def sff_bound_check(trace, liouvillian):
    """Bound on the overlap decay of a trace started from a pure state.

    Returns the columns (lhs, rhs) over the grid: lhs is the Liouville
    angle between the initial and the current state, evaluated so that
    small angles stay accurate, and rhs the running integral of the
    non-classical speed; lhs never exceeds rhs.
    """
    _one_trajectory(trace.coordinates)
    lhs = _unit_angle(trace.coordinates[0], trace.coordinates)
    return lhs, _nc_integral(trace, liouvillian)


@dataclass
class KrylovData:
    """Lanczos coefficients and occupation amplitudes for Hamiltonian dynamics.

    lanczos_b holds b_1..b_{K-1} of the Krylov chain of L_H from rho_0~, K the
    number of nodes E_i - E_j of its spectral measure in trace.modes (merged
    within 1e-12 max(1, E_max - E_min), weight above 1e-24); amplitudes is
    real, one row per time, phi_n(t) = (-i)^n (K_n|rho_t~); complexity is
    sum_n n phi_n² per time; trace is the propagated trajectory, generator
    its -1j L_H.
    """

    lanczos_b: np.ndarray
    times: np.ndarray
    amplitudes: np.ndarray
    complexity: np.ndarray
    trace: EvolutionTrace
    generator: np.ndarray

    @property
    def dimension(self):
        return self.lanczos_b.size + 1

    @property
    def ladder_norm(self):
        """Operator norm of the index operator: the largest Krylov index."""
        return float(self.dimension - 1)

    @property
    def complexity_ratio(self):
        """C_K/(2 norm) per time; 0 for a one-dimensional space, where C_K = 0."""
        return self.complexity / (2.0 * max(self.ladder_norm, 1.0))


def krylov_build(hamiltonian, rho0, times):
    """Krylov chain of the commutator generator plus amplitudes in time.

    The trajectory is propagate_expm's under -1j L_H, and everything Krylov
    comes from spectral_decompose's modes of it, those the trajectory took,
    read off the d x d eigh of H: eigenvalues -i omega, omega = E_i - E_j,
    and overlaps c = (l|rho_0~).
    The omega sorted and merged within 1e-12 max(1, max omega), each node
    weighted by the sum of its |c|², nodes of weight at most 1e-24 dropped,
    form a discrete spectral measure; K is its number of nodes. Lanczos on
    diag(omega) from sqrt(p), with full reorthogonalization, takes exactly
    K - 1 steps to the rows q_n, and phi_n(t) = Re((-i)^n sum_k q_n(k)
    sqrt(p_k) exp(-i omega_k t)) is one real product over the float view of
    the weights sqrt(p_k) exp(-i omega_k t), taken from spectral._phased's
    anchor x offset table. times must start at 0, as for propagate_expm; a
    stack of initial states raises ValidationError up front.
    """
    _one_trajectory(rho0)
    h = _checked_hamiltonian(hamiltonian)
    generator = -1j * commutator_superop(h)
    trace = propagate_expm(generator, rho0, times)

    modes = spectral_decompose(generator)
    omega = np.real(1j * modes.eigenvalues)
    tol = 1e-12 * max(1.0, omega.max())
    start = _hermitian_matrices(trace.coordinates[0])  # the bits of trace.states[0]
    c = modes.overlaps(normalize_state(start).vector)
    order = np.argsort(omega, kind="stable")
    first = np.flatnonzero(np.diff(omega[order], prepend=-np.inf) > tol)
    weights = np.add.reduceat(np.abs(c[order]) ** 2, first)
    keep = weights > 1e-24
    nodes, root = omega[order[first[keep]]], np.sqrt(weights[keep])
    k = nodes.size
    q, bs = np.empty((k, k)), np.empty(k - 1)
    q[0] = root / np.linalg.norm(root)
    for n in range(1, k):
        x = nodes * q[n - 1]
        for _ in range(2):
            x -= q[:n].T @ (q[:n] @ x)
        bs[n - 1] = np.linalg.norm(x)
        q[n] = x / bs[n - 1]

    phases = _phased(-1j * nodes, root, trace.times)
    rows = (1j ** np.arange(k))[:, None] * q
    amps = phases.view(float) @ rows.view(float).T
    pops = amps**2
    worst = np.abs(np.sum(pops, axis=1) - 1.0).max()
    if worst > 1e-10:
        raise NumericalConsistencyError(f"Krylov amplitudes lose norm by {worst:.3e}")
    return KrylovData(bs, trace.times, amps, pops @ np.arange(k), trace, generator)


def krylov_precursor_margins(kd):
    """Per-point slack of C_K²/(4 norm²) ≤ 1 - overlap²."""
    return 1.0 - kd.trace.overlap_with_initial**2 - kd.complexity_ratio**2


def krylov_bound_check(kd):
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
    return lhs, _nc_integral(kd.trace, kd.generator)


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
    theta_ss_t (angle to the steady state), speed, and opnorm. The forms
    are written in q = exp(-gamma (2n+1) t), so late times reach the steady
    state instead of overflowing. Every denominator is a positive multiple
    of purity = (2n+1)^2 tr rho_t^2 >= (2n+1)^2 / 2, so none vanishes.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha {alpha} outside [0, 1]")
    if not (0.0 < gamma < np.inf and 0.0 <= n < np.inf and 0.0 <= t < np.inf):
        raise ValidationError("need finite gamma > 0, n >= 0, t >= 0")
    a2 = alpha * alpha
    m = 2.0 * n + 1.0
    qh = np.exp(-0.5 * gamma * m * t)
    q = qh * qh
    x = a2 + (2.0 * a2 - 1.0) * n - 1.0
    y = a2 * a2 * m * m - 2.0 * a2 * (n + 1.0) * m + n + 1.0
    k = 2.0 * n * (n + 1.0) + 1.0

    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = (n + 1.0 + q * x) / m
    rho[0, 1] = qh * alpha * np.sqrt(1.0 - a2)
    rho[1, 0] = rho[0, 1]
    rho[1, 1] = (n - q * x) / m

    purity = (2.0 * x * x * q - 2.0 * y) * q + k
    overlap = (
        (2.0 * a2 * a2 * m - a2 * (4.0 * n + 3.0) + n + 1.0) * q
        - 2.0 * (a2 - 1.0) * a2 * m * qh
        + a2
        + n
    )
    theta_0t = float(np.arccos(np.clip(overlap / np.sqrt(purity), -1.0, 1.0)))
    ss_cos = (x * q + k) / np.sqrt(k * purity)
    theta_ss_t = float(np.arccos(np.clip(ss_cos, -1.0, 1.0)))
    h = 2.0 * x * (a2 * a2 + (2.0 * a2 - 1.0) * n - 1.0) * q - 2.0 * a2 * (
        a2 - 1.0
    ) * (n + 1.0 - a2 * m) ** 2 * q * q
    rate = np.sqrt(max(h - a2 * (a2 - 1.0) * k, 0.0))
    speed = float(gamma * m * m * qh * rate / (np.sqrt(2.0) * purity))
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

    For each alpha: eta (averaged speed over operator norm), the angle to
    the steady state per time, and the offset delta = T - theta/averaged-
    speed. Crossings of the theta curves for different alphas, interpolated
    at each sign change of a pair's difference, signal faster relaxation
    from farther states. All initial states are propagated as one stack, so
    each quantity is one array expression over its coordinates x; the steady
    state is the stationary mode of the propagation's eigensystem, and
    theta_ss has one row per alpha.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValidationError("alphas must be a non-empty list of amplitudes")
    times = _horizon_grid(horizon, points)
    L = build_liouvillian(amplitude_damping_spec(gamma, n)).full
    rho0s = np.array([superposition_state(a) for a in alphas])
    trace = propagate_expm(L, rho0s, times)
    sd = spectral_decompose(L)
    rho_ss = steady_state(sd)
    avg = average_speed(trace, L)
    eta = _bound_ratio(avg, operator_norm(L))
    theta = _unit_angle(trace.coordinates[:, 0], trace.coordinates[:, -1])
    delta = times[-1] - _bound_ratio(theta, avg)
    theta_ss = _unit_angle(_gather(vectorize(rho_ss)).real, trace.coordinates)
    i, j = np.triu_indices(alphas.size, 1)
    diff = theta_ss[i] - theta_ss[j]
    signs = np.sign(diff)
    pair, k = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0)
    frac = diff[pair, k] / (diff[pair, k] - diff[pair, k + 1])
    tc = times[k] + frac * (times[k + 1] - times[k])
    rows = np.column_stack([alphas[i][pair], alphas[j][pair], tc])
    crossings = [tuple(r) for r in rows[np.argsort(tc, kind="stable")].tolist()]
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
