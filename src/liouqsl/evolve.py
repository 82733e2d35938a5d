"""Trajectory propagation and trajectory-level speed evaluation.

propagate_expm is the package's only propagator. It returns an
EvolutionTrace: stacked arrays over the T grid points, not a list of
per-point objects. For states of dimension d it holds

    times                  (T,)
    states                 (T, d, d)  validated, exactly Hermitian states
    normalized.vector      (T, d^2)   unit Liouville vectors v_k
    normalized.purity      (T,)       tr rho^2
    overlap_with_initial   (T,)       Re(v_0|v_k)
    modes                             SpectralData of the modal route, else None
    coordinates            (T, d^2)   real x_k = B^+ vec(rho_k), None from build_trace

trace.normalized[k] and trace.states[k] give the k-th point, and the
speed functionals of the qsl module take trace.normalized whole, so
qsl.speed(L, trace.normalized) is the speed column. States
from any other channel family, such as a Kraus family, become a trace
through build_trace(times, states).
propagate_expm also takes a stack of A initial states (A, d, d) under one
generator and grid: it propagates them as one (A, d^2) block and returns
one trace, states (A, T, d, d) and each array with the same leading stack
axis, so the time-averaged functionals give one value per initial state.

propagate_expm writes a time-independent generator through the
eigenmodes of spectral.spectral_decompose, the same ones the spectral
command and the mode route use, so the two agree by construction; it
refuses, before any eigensolver runs, a generator that does not preserve
Hermiticity. Every start enters as the real coordinates x_0 of its Hermitian
part; one real product gives every x_k on any grid for any block of starts,
and liouville._hermitian_matrices maps them to exactly Hermitian states.
Two derivative-free speed routes live here as well: a central-difference
evaluation on the stored trace and a Kraus-family route that never
touches the generator.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NumericalConsistencyError,
    ValidationError,
)
from .lindblad import kraus_to_superop
from .liouville import (
    NormalizedState,
    _gather,
    _hermitian_matrices,
    _real_form,
    _variance,
    normalize_state,
    rehermitize,
    validate_density_matrix,
    vectorize,
)
from .spectral import spectral_decompose

__all__ = [
    "EvolutionTrace",
    "build_trace",
    "propagate_expm",
    "generic_speed",
    "kraus_trajectory_speed",
]

_NORM_CAP = 1e12
# Steps between exact restarts v_k = exp(L t_k) v_0 on a uniform grid, so
# that round-off from repeated exp(L dt) products cannot build up.
_REANCHOR_STEPS = 1024
# Largest biorthogonality defect (max|W^-1 W - 1| on the real route) for which
# propagation takes the eigenmodes. The critically driven decaying qubit at drive
# offsets 0, 1e-8, 1e-6, 1e-3 reads 5.4e-9, 6.2e-13, 1.6e-13 (rounding noise) and
# 2.2e-15; modal error < 3e-15, stepping < 2e-14 of the largest entry. Random
# d = 16 generators read 3e-15 to 6e-15.
_MODAL_DEFECT_MAX = 1e-13


@dataclass
class EvolutionTrace:
    """Stacked record of a propagated trajectory (layout in the module docstring).

    Arrays are aligned with times along the axis before the per-state axes,
    after the leading stack axis of a stack of trajectories.
    """

    times: np.ndarray
    states: np.ndarray
    normalized: NormalizedState
    overlap_with_initial: np.ndarray
    modes: object = None
    coordinates: np.ndarray = None

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[-1]


def _check_grid(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("time grid must be 1-D with at least two points")
    if not np.isfinite(t).all():
        raise ValidationError("time grid must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    return t


def build_trace(times, states, *, _modes=None, _coordinates=None):
    """Assemble an EvolutionTrace from T raw states, validating each one.

    Each state must have unit trace within 1e-12, tighter than the 1e-10
    that validate_density_matrix allows an input state. States built from
    _coordinates are exactly Hermitian and kept as they are.

    states may also be a stack (A, T, d, d) of A trajectories on one grid:
    they are re-Hermitized, validated and normalized in one pass and give
    one trace with a leading stack axis. An invalid state is reported at its
    earliest time, and for a stack in the first trajectory that holds one.
    """
    t = _check_grid(times)
    rhos = np.asarray(states, dtype=complex)
    if (
        rhos.ndim not in (3, 4)
        or rhos.shape[-3] != t.size
        or rhos.shape[-1] != rhos.shape[-2]
        or not rhos.size
    ):
        raise ValidationError(f"states of shape {rhos.shape} do not match the grid")
    rhos = rehermitize(rhos) if _coordinates is None else rhos
    try:
        validate_density_matrix(rhos, trace_tol=1e-12, _hermitian=True)
    except ValidationError as exc:
        a, k = divmod(exc.index, t.size)
        where = f"state at t={t[k]:g}"
        if rhos.ndim == 4:
            where = f"initial state {a}: {where}"
        raise ValidationError(f"{where}: {exc}") from exc
    normalized = normalize_state(rhos)
    vecs = normalized.vector
    overlaps = np.real(vecs @ vecs[..., 0, :, None].conj())[..., 0]
    worst = np.abs(overlaps[..., 0] - 1.0).max(initial=0.0)
    if worst > 1e-12:
        raise NumericalConsistencyError(
            f"initial self-overlap deviates from 1 by {worst:.3e}"
        )
    return EvolutionTrace(
        times=t,
        states=rhos,
        normalized=normalized,
        overlap_with_initial=overlaps,
        modes=_modes,
        coordinates=_coordinates,
    )


def _expm_steps(generator, x0, times):
    """Stack of exp(G (t_k - t_0)) x0 over the grid, shape (T, ...) + x0.shape.

    The real fallback for generators without a well-conditioned eigenbasis:
    G = B^+ L B, x0 one coordinate vector (n,) or a block (..., n) of them.
    On a uniform grid exp(G dt) is computed once and applied repeatedly,
    restarting from an exact exp(G (t_k - t_0)) x0 every _REANCHOR_STEPS
    steps; otherwise each output time gets its own exponential. Rows are
    multiplied from the right by the transposed exponential, which gives
    the same bits as exp(G dt) @ x for a single vector.
    """
    from scipy.linalg import expm

    out = np.empty((times.size,) + x0.shape)
    out[0] = x0
    dts = np.diff(times)
    uniform = times.size > 1 and np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15)
    step_t = expm(generator * dts[0]).T if uniform else None
    for k in range(1, times.size):
        if uniform and k % _REANCHOR_STEPS:
            out[k] = out[k - 1] @ step_t
        else:
            out[k] = x0 @ expm(generator * (times[k] - times[0])).T
    return out


def propagate_expm(liouvillian, rho0, times):
    """Exact propagation states[k] = unvec(exp(L t_k) vec(rho0)).

    rho0 is one initial state (d, d) or a stack (A, d, d); either gives
    one EvolutionTrace, for a stack with a leading axis of length A on
    every array. A stack is validated and propagated as one (A, d^2)
    block; an invalid initial state raises a ValidationError that names
    its index in the stack.

    rho0 enters as x_0 = Re B^+ vec(rho0), the coordinates of its Hermitian
    part. Every grid point comes at once from the eigensystem L = R diag(lambda)
    R^-1 of spectral_decompose, kept as the trace's modes, through
    SpectralData.propagate_real; it raises ValidationError unless L is finite
    and preserves Hermiticity. When R is singular or its biorthogonality defect
    exceeds 1e-13, as near an exceptional point, scipy's expm of B^+ L B steps
    x over a uniform grid (restarting exactly every 1024 steps), and over any
    other grid per point; only that fallback imports scipy. The trace keeps x_k
    as coordinates and maps them to exactly Hermitian states.
    """
    t = _check_grid(times)
    if abs(t[0]) > 1e-12:
        raise ValidationError("propagate_expm expects times[0] = 0")
    L = np.asarray(liouvillian, dtype=complex)
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2] or not rho.size:
        raise DimensionError(
            f"expected a (d, d) state or a non-empty (A, d, d) stack, got {rho.shape}"
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
    try:
        modes = spectral_decompose(L)
    except DefectiveGeneratorError:
        modes = None
    x0 = _gather(v).real
    if modes is None or modes.biorthogonality > _MODAL_DEFECT_MAX:
        real = _real_form(L) if modes is None else modes.real_form
        xs, modes = _expm_steps(real, x0, t), None
    else:
        xs = modes.propagate_real(x0, t - t[0])
    bounded = np.linalg.norm(xs, axis=-1) <= _NORM_CAP
    if not bounded.all():
        first = t[np.argmin(bounded.reshape(t.size, -1).all(axis=1))]
        raise NumericalConsistencyError(f"state norm overflow at t={first:g}")
    xs = np.ascontiguousarray(np.moveaxis(xs, 0, -2))  # (..., T, n)
    return build_trace(t, _hermitian_matrices(xs), _modes=modes, _coordinates=xs)


def generic_speed(trace, k):
    """Central-difference speed at interior grid point k, per trajectory of a stack.

    sqrt(⟨dv/dt, dv/dt⟩ - |⟨v, dv/dt⟩|²) from the stored unit vectors;
    needs no generator, so it applies to arbitrary recorded dynamics.
    """
    if not 1 <= k <= len(trace) - 2:
        raise ValidationError(f"index {k} is not an interior grid point")
    vm, v, vp = np.moveaxis(trace.normalized.vector[..., k - 1 : k + 2, :], -2, 0)
    dv = (vp - vm) / (trace.times[k + 1] - trace.times[k - 1])
    return np.sqrt(_variance(v, dv))


def kraus_trajectory_speed(ks_provider, rho0, t, h):
    """Speed at time t from a differentiable Kraus family.

    Normalizes each supermatrix K_t so that K_t v0 is a unit vector,
    differentiates by central differences with step h, and evaluates
    sqrt(tr(dK† dK P0) - tr(dK† P_t dK P0)) with P0, P_t the projectors
    onto the initial and current unit vectors v0, v_t. That equals
    |dK v0|² - |(v_t|dK v0)|²: the speed of the unit vector v_t, whose
    time derivative is dK v0.
    """
    if not 0.0 < h < np.inf:
        raise ValidationError("central-difference step must be positive and finite")
    s0 = normalize_state(np.asarray(rho0, dtype=complex))
    v0 = s0.vector

    def normalized_super(tau):
        K = kraus_to_superop(ks_provider(tau))
        return K / np.linalg.norm(K @ v0)

    dK = (normalized_super(t + h) - normalized_super(t - h)) / (2.0 * h)
    vt = normalized_super(t) @ v0
    return np.sqrt(_variance(vt, dK @ v0))
