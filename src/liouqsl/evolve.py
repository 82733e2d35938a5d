"""Trajectory propagation and trajectory-level speed evaluation.

Propagators return an EvolutionTrace: stacked arrays over the T grid
points, not a list of per-point objects. For states of dimension d it
holds

    times                  (T,)
    states                 (T, d, d)  validated, re-Hermitized states
    purities               (T,)       tr rho^2, also normalized.purity
    normalized.vector      (T, d^2)   unit Liouville vectors v_k
    overlap_with_initial   (T,)       Re(v_0|v_k)
    speeds                 (T,)       None until a generator is supplied

trace.normalized[k] and trace.states[k] give the k-th point, and the
speed functionals of the qsl module take trace.normalized whole.
propagate_expm also takes a stack of A initial states (A, d, d) under one
generator and grid: it steps them as one (A, d^2) block and returns a
list of A such traces, one per initial state. Two
derivative-free speed routes live here as well: a central-difference
evaluation on the stored trace and a Kraus-family route that never
touches the generator.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .exceptions import DimensionError, NumericalConsistencyError, ValidationError
from .lindblad import build_liouvillian, kraus_to_superop
from .liouville import (
    NormalizedState,
    devectorize,
    normalize_state,
    rehermitize,
    validate_density_matrix,
    vectorize,
)

__all__ = [
    "EvolutionTrace",
    "IntegratorConfig",
    "build_trace",
    "propagate_expm",
    "propagate_ode",
    "normalized_rhs",
    "projector_rhs",
    "generic_speed",
    "kraus_trajectory_speed",
]

_NORM_CAP = 1e12
# Steps between exact restarts v_k = exp(L t_k) v_0 on a uniform grid, so
# that round-off from repeated exp(L dt) products cannot build up.
_REANCHOR_STEPS = 1024


@dataclass
class EvolutionTrace:
    """Stacked record of a propagated trajectory (layout in the module docstring).

    speeds is None until filled (qsl.average_speed does this); all other
    arrays are aligned with times along their first axis.
    """

    times: np.ndarray
    states: np.ndarray
    purities: np.ndarray
    normalized: NormalizedState
    overlap_with_initial: np.ndarray
    speeds: np.ndarray = None

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[-1]


@dataclass
class IntegratorConfig:
    method: str = "rk45_adaptive"
    step: float = None
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.method not in ("matrix_exponential", "rk4", "rk45_adaptive"):
            raise ValidationError(f"unknown integrator method {self.method!r}")
        if self.method == "rk45_adaptive" and (self.rtol <= 0 or self.atol <= 0):
            raise ValidationError("adaptive integration needs positive rtol and atol")
        if self.step is not None and self.step <= 0:
            raise ValidationError("step must be positive")


def _check_grid(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("time grid must be 1-D with at least two points")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    return t


def build_trace(times, states, trace_tol=1e-12, eig_floor=-1e-10):
    """Assemble an EvolutionTrace from T raw states, validating each one."""
    t = _check_grid(times)
    rhos = np.asarray(states, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[0] != t.size or rhos.shape[1] != rhos.shape[2]:
        raise ValidationError(f"states of shape {rhos.shape} do not match the grid")
    rhos = rehermitize(rhos)
    try:
        validate_density_matrix(rhos, trace_tol=trace_tol, eig_floor=eig_floor)
    except ValidationError as exc:
        raise ValidationError(f"state at t={t[exc.index]:g}: {exc}") from exc
    normalized = normalize_state(rhos)
    overlaps = np.real(normalized.vector @ normalized.vector[0].conj())
    if abs(overlaps[0] - 1.0) > 1e-12:
        raise NumericalConsistencyError(
            f"initial self-overlap {overlaps[0]} deviates from 1"
        )
    return EvolutionTrace(
        times=t,
        states=rhos,
        purities=normalized.purity,
        normalized=normalized,
        overlap_with_initial=overlaps,
    )


def _expm_steps(generator, v0, times):
    """Stack of exp(G (t_k - t_0)) v0 over the grid, shape (T, ...) + v0.shape.

    v0 is one vector (n,) or a block (..., n) of vectors stepped together.
    On a uniform grid exp(G dt) is computed once and applied repeatedly,
    restarting from an exact exp(G (t_k - t_0)) v0 every _REANCHOR_STEPS
    steps; otherwise each output time gets its own exponential. Rows are
    multiplied from the right by the transposed exponential, which gives
    the same bits as exp(G dt) @ v for a single vector.
    """
    out = np.empty((times.size,) + v0.shape, dtype=complex)
    out[0] = v0
    dts = np.diff(times)
    uniform = times.size > 1 and np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15)
    step_t = expm(generator * dts[0]).T if uniform else None
    for k in range(1, times.size):
        if uniform and k % _REANCHOR_STEPS:
            out[k] = out[k - 1] @ step_t
        else:
            out[k] = v0 @ expm(generator * (times[k] - times[0])).T
    return out


def propagate_expm(liouvillian, rho0, times):
    """Exact propagation states[k] = unvec(exp(L t_k) vec(rho0)).

    rho0 is one initial state (d, d), which gives one EvolutionTrace, or
    a stack (A, d, d), which gives a list of A EvolutionTraces, one per
    initial state and each laid out as for a single state. A stack is
    validated and stepped as one (A, d^2) block; an invalid initial state
    raises a ValidationError that names its index in the stack. On a
    uniform grid exp(L dt) is computed once and applied repeatedly, with
    an exact restart every 1024 steps; otherwise each output time gets
    its own exponential.
    """
    t = _check_grid(times)
    if abs(t[0]) > 1e-12:
        raise ValidationError("propagate_expm expects times[0] = 0")
    L = np.asarray(liouvillian, dtype=complex)
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise DimensionError(
            f"expected a (d, d) state or an (A, d, d) stack, got shape {rho.shape}"
        )
    try:
        validate_density_matrix(rho)
    except ValidationError as exc:
        if rho.ndim == 2:
            raise
        raise ValidationError(f"initial state {exc.index}: {exc}") from exc
    v = vectorize(rho)
    n = v.shape[-1]
    if L.shape != (n, n):
        raise ValidationError(
            f"generator shape {L.shape} does not act on dim {n} vectors"
        )
    vecs = _expm_steps(L, v, t)
    bounded = np.linalg.norm(vecs, axis=-1) <= _NORM_CAP
    if not bounded.all():
        first = t[np.argmin(bounded.reshape(t.size, -1).all(axis=1))]
        raise NumericalConsistencyError(f"state norm overflow at t={first:g}")
    if rho.ndim == 2:
        return build_trace(t, devectorize(vecs))
    return [build_trace(t, devectorize(vecs[:, a])) for a in range(rho.shape[0])]


def propagate_ode(spec, rho0, times, cfg=None):
    """Integrate the vectorized master equation on the given grid.

    rk4 takes fixed steps (cfg.step subdivides grid intervals when set);
    rk45_adaptive delegates to scipy's embedded pair. Positivity floors
    are relaxed to the integrator tolerance scale.
    """
    cfg = cfg or IntegratorConfig()
    t = _check_grid(times)
    validate_density_matrix(rho0)
    L = build_liouvillian(spec).full
    v0 = vectorize(np.asarray(rho0, dtype=complex))
    if cfg.method == "matrix_exponential":
        return propagate_expm(L, rho0, t)
    if cfg.method == "rk4":
        vecs = [v0]
        v = v0
        for a, b in zip(t[:-1], t[1:]):
            nsub = 1 if cfg.step is None else max(1, int(np.ceil((b - a) / cfg.step)))
            h = (b - a) / nsub
            for _ in range(nsub):
                k1 = L @ v
                k2 = L @ (v + 0.5 * h * k1)
                k3 = L @ (v + 0.5 * h * k2)
                k4 = L @ (v + h * k3)
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            vecs.append(v)
    else:
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            lambda _, y: L @ y,
            (t[0], t[-1]),
            v0,
            t_eval=t,
            method="RK45",
            rtol=cfg.rtol,
            atol=cfg.atol,
        )
        if not sol.success:
            raise NumericalConsistencyError(f"adaptive integration failed: {sol.message}")
        vecs = sol.y.T
    return build_trace(t, devectorize(vecs), trace_tol=1e-8, eig_floor=-1e-8)


def normalized_rhs(liouvillian, state):
    """Time derivative of the unit Liouville vector.

    Returns (L - e) v with e the symmetrized expectation
    (⟨v, Lv⟩ + ⟨v, L†v⟩)/2; Re⟨v, rhs⟩ vanishes identically.
    """
    v = state.vector
    L = np.asarray(liouvillian, dtype=complex)
    if L.shape != (v.size, v.size):
        raise ValidationError("generator and state dimensions disagree")
    lv = L @ v
    e = np.real(np.vdot(v, lv))
    return lv - e * v


def projector_rhs(liouvillian, state):
    """Time derivative of the rank-one projector onto the unit vector.

    L P + P L† - P tr[(L + L†) P]; Hermitian and traceless.
    """
    v = state.vector
    L = np.asarray(liouvillian, dtype=complex)
    if L.shape != (v.size, v.size):
        raise ValidationError("generator and state dimensions disagree")
    lv = L @ v
    lp = np.outer(lv, v.conj())
    e = 2.0 * np.real(np.vdot(v, lv))
    return lp + lp.conj().T - e * np.outer(v, v.conj())


def generic_speed(trace, k):
    """Central-difference speed at interior grid point k.

    sqrt(⟨dv/dt, dv/dt⟩ - |⟨v, dv/dt⟩|²) from the stored unit vectors;
    needs no generator, so it applies to arbitrary recorded dynamics.
    """
    if not 1 <= k <= len(trace) - 2:
        raise ValidationError(f"index {k} is not an interior grid point")
    vm, v, vp = trace.normalized.vector[k - 1 : k + 2]
    dv = (vp - vm) / (trace.times[k + 1] - trace.times[k - 1])
    var = np.real(np.vdot(dv, dv)) - abs(np.vdot(v, dv)) ** 2
    return np.sqrt(max(var, 0.0))


def kraus_trajectory_speed(ks_provider, rho0, t, h):
    """Speed at time t from a differentiable Kraus family.

    Normalizes each supermatrix K_t so that K_t v0 is a unit vector,
    differentiates by central differences with step h, and evaluates
    sqrt(tr(dK† dK P0) - tr(dK† P_t dK P0)) with P0, P_t the projectors
    onto the initial and current unit vectors.
    """
    if h <= 0:
        raise ValidationError("central-difference step must be positive")
    s0 = normalize_state(np.asarray(rho0, dtype=complex))
    v0 = s0.vector

    def normalized_super(tau):
        K = kraus_to_superop(ks_provider(tau))
        return K / np.linalg.norm(K @ v0)

    dK = (normalized_super(t + h) - normalized_super(t - h)) / (2.0 * h)
    vt = normalized_super(t) @ v0
    p0 = np.outer(v0, v0.conj())
    pt = np.outer(vt, vt.conj())
    var = np.trace(dK.conj().T @ dK @ p0) - np.trace(dK.conj().T @ pt @ dK @ p0)
    return np.sqrt(max(np.real(var), 0.0))
