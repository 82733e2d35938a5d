"""Trajectory propagation and its stacked trace.

propagate_expm is the package's only propagator. It returns an
EvolutionTrace: stacked arrays over the T grid points, not a list of
per-point objects. For states of dimension d it holds

    times                  (T,)
    states                 (T, d, d)  validated, exactly Hermitian states
    coordinates            (T, d^2)   real x_k = B^+ vec(rho_k), the one stored form
    modes                             SpectralData of the modal route, else None
    purity                 (T,)       p_k = tr rho_k^2 = x_k . x_k, derived
    overlap_with_initial   (T,)       x_0 . x_k / sqrt(p_0 p_k), derived

The qsl module reads a trace through x alone. States from any other channel
family, such as a Kraus family, become a trace through build_trace(times, states).
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
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NumericalConsistencyError,
    ValidationError,
)
from .liouville import (
    _dot,
    _gather,
    _hermitian_matrices,
    _real_form,
    rehermitize,
    validate_density_matrix,
    vectorize,
)
from .spectral import spectral_decompose

__all__ = [
    "EvolutionTrace",
    "build_trace",
    "propagate_expm",
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
    coordinates: np.ndarray
    modes: object = None

    def __len__(self):
        return len(self.times)

    @functools.cached_property
    def purity(self):
        return _dot(self.coordinates, self.coordinates)

    @functools.cached_property
    def overlap_with_initial(self):
        x, p = self.coordinates, self.purity
        return (x @ x[..., 0, :, None])[..., 0] / np.sqrt(p * p[..., :1])

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
    that validate_density_matrix allows an input state, and pass its other
    checks, Hermiticity included; only then is it re-Hermitized, so that the
    coordinates x = B^+ vec(rho) are exactly real. States built from
    _coordinates are exactly Hermitian and kept with them, so their skew is
    not formed.

    states may also be a stack (A, T, d, d) of A trajectories on one grid:
    they are validated, re-Hermitized and gathered in one pass and give
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
    hermitian = _coordinates is not None
    try:
        validate_density_matrix(rhos, trace_tol=1e-12, _hermitian=hermitian)
    except ValidationError as exc:
        a, k = divmod(exc.index, t.size)
        where = f"state at t={t[k]:g}"
        if rhos.ndim == 4:
            where = f"initial state {a}: {where}"
        raise ValidationError(f"{where}: {exc}") from exc
    if not hermitian:
        rhos = rehermitize(rhos)
        _coordinates = np.ascontiguousarray(_gather(vectorize(rhos)).real)
    return EvolutionTrace(t, rhos, _coordinates, _modes)


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
