"""Trajectory propagation and trajectory-level speed evaluation.

propagate_expm is the package's only propagator. It returns an
EvolutionTrace: stacked arrays over the T grid points, not a list of
per-point objects. For states of dimension d it holds

    times                  (T,)
    states                 (T, d, d)  validated, re-Hermitized states
    normalized.vector      (T, d^2)   unit Liouville vectors v_k
    normalized.purity      (T,)       tr rho^2
    overlap_with_initial   (T,)       Re(v_0|v_k)

trace.normalized[k] and trace.states[k] give the k-th point, and the
speed functionals of the qsl module take trace.normalized whole, so
qsl.speed(L, trace.normalized) is the speed column. States
from any other channel family, such as a Kraus family, become a trace
through build_trace(times, states).
propagate_expm also takes a stack of A initial states (A, d, d) under one
generator and grid: it propagates them as one (A, d^2) block and returns
a list of A such traces, one per initial state.

propagate_expm writes a time-independent generator through its
eigenmodes, L = R diag(lambda) R^-1, so the whole trajectory is one
product V = (exp(t lambda) * c) R^T with c = R^-1 v_0, on any grid and
for any block of initial states. The eigensystem and the product are
those of spectral.spectral_decompose and SpectralData.evolve, the same
ones the spectral command and the mode-route formulas use, so
propagation and the mode route agree by construction. It falls back to
stepping with scipy's expm only where the eigenmodes are not to be
trusted (see its docstring for the routes). Two derivative-free speed
routes live here as well: a central-difference evaluation on the stored
trace and a Kraus-family route that never touches the generator.
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
    _variance,
    devectorize,
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
# Largest biorthogonality defect max|R^-1 R - 1| of the eigenvector matrix
# for which propagation goes through eigenmodes. Approaching the exceptional
# point of a critically driven decaying qubit, the modal error relative to
# the largest entry tracks the defect (defect 9e-15: error 9e-15; 6e-14:
# 3e-14; 9e-14: 9e-14; 8e-13 falls back), while stepping stays below 2e-14.
# Random d = 16 generators measure 5e-15 to 3e-14.
_MODAL_DEFECT_MAX = 1e-13


@dataclass
class EvolutionTrace:
    """Stacked record of a propagated trajectory (layout in the module docstring).

    All arrays are aligned with times along their first axis.
    """

    times: np.ndarray
    states: np.ndarray
    normalized: NormalizedState
    overlap_with_initial: np.ndarray

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


def build_trace(times, states):
    """Assemble an EvolutionTrace from T raw states, validating each one.

    Each state must have unit trace within 1e-12, tighter than the 1e-10
    that validate_density_matrix allows an input state.

    states may also be a stack (A, T, d, d) of A trajectories on one grid:
    they are re-Hermitized, validated and normalized in one pass and give
    a list of A traces. An invalid state is reported at its earliest time,
    and for a stack in the first trajectory that holds one.
    """
    t = _check_grid(times)
    rhos = np.asarray(states, dtype=complex)
    if (
        rhos.ndim not in (3, 4)
        or rhos.shape[-3] != t.size
        or rhos.shape[-1] != rhos.shape[-2]
    ):
        raise ValidationError(f"states of shape {rhos.shape} do not match the grid")
    rhos = rehermitize(rhos)
    try:
        validate_density_matrix(rhos, trace_tol=1e-12)
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

    def trace(a=Ellipsis):
        return EvolutionTrace(
            times=t,
            states=rhos[a],
            normalized=normalized[a],
            overlap_with_initial=overlaps[a],
        )

    if rhos.ndim == 3:
        return trace()
    return [trace(a) for a in range(rhos.shape[0])]


def _modal_steps(generator, v0, times):
    """Stack of exp(G (t_k - t_0)) v0 through the eigenmodes of G, or None.

    Shape (T,) + v0.shape, for one vector (n,) or a block (..., n): the
    mode sum of spectral_decompose's eigensystem at c = R^-1 v0, on any of
    its routes. None is returned when G is numerically defective or when
    the biorthogonality defect of the eigenvector matrix exceeds
    _MODAL_DEFECT_MAX.
    """
    try:
        sd = spectral_decompose(generator)
    except DefectiveGeneratorError:
        return None
    if sd.biorthogonality > _MODAL_DEFECT_MAX:
        return None
    return sd.evolve(sd.overlaps(v0), times - times[0])


def _expm_steps(generator, v0, times):
    """Stack of exp(G (t_k - t_0)) v0 over the grid, shape (T, ...) + v0.shape.

    The fallback for generators without a well-conditioned eigenbasis.
    v0 is one vector (n,) or a block (..., n) of vectors stepped together.
    On a uniform grid exp(G dt) is computed once and applied repeatedly,
    restarting from an exact exp(G (t_k - t_0)) v0 every _REANCHOR_STEPS
    steps; otherwise each output time gets its own exponential. Rows are
    multiplied from the right by the transposed exponential, which gives
    the same bits as exp(G dt) @ v for a single vector.
    """
    from scipy.linalg import expm

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
    validated and propagated as one (A, d^2) block; an invalid initial
    state raises a ValidationError that names its index in the stack.

    The eigensystem L = R diag(lambda) R^-1 comes from spectral_decompose:
    eigh when 1j L is Hermitian (coherent dynamics, such as -1j L_H), and
    eig of the real form in a basis of Hermitian matrices when L
    preserves Hermiticity, as every Lindblad generator does, and eig of L
    itself for any other L. Each gives every grid point at once as
    (exp(t lambda) * R^-1 v0) R^T (SpectralData.evolve). When R is
    singular or its biorthogonality defect max|R^-1 R - 1| exceeds 1e-13,
    as near an exceptional point, scipy's expm is applied step by step on
    a uniform grid (with an exact restart every 1024 steps) and per point
    otherwise. Only that stepping fallback imports scipy.
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
    vecs = _modal_steps(L, v, t)
    if vecs is None:
        vecs = _expm_steps(L, v, t)
    bounded = np.linalg.norm(vecs, axis=-1) <= _NORM_CAP
    if not bounded.all():
        first = t[np.argmin(bounded.reshape(t.size, -1).all(axis=1))]
        raise NumericalConsistencyError(f"state norm overflow at t={first:g}")
    # (T, ..., n) -> (..., T, d, d): one trajectory per initial state.
    return build_trace(t, devectorize(np.moveaxis(vecs, 0, -2)))


def generic_speed(trace, k):
    """Central-difference speed at interior grid point k.

    sqrt(⟨dv/dt, dv/dt⟩ - |⟨v, dv/dt⟩|²) from the stored unit vectors;
    needs no generator, so it applies to arbitrary recorded dynamics.
    """
    if not 1 <= k <= len(trace) - 2:
        raise ValidationError(f"index {k} is not an interior grid point")
    vm, v, vp = trace.normalized.vector[k - 1 : k + 2]
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
