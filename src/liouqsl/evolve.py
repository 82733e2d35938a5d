"""Trajectory propagation and its stacked trace.

propagate_expm is the package's only propagator. It returns an
EvolutionTrace: stacked arrays over the T grid points, not a list of
per-point objects. For states of dimension d it holds

    times                  (T,)
    coordinates            (T, d^2)   real x_k = B^+ vec(rho_k), the one stored form
    modes                             SpectralData of the modal route, else None
    states                 (T, d, d)  exactly Hermitian states, derived from x
    purity                 (T,)       p_k = tr rho_k^2 = x_k . x_k, derived
    overlap_with_initial   (T,)       x_0 . x_k / sqrt(p_0 p_k), derived

The qsl and applications modules read a trace through x alone. States from any
other channel family, such as a Kraus family, become a trace through
build_trace(times, states). propagate_expm also takes a stack of A initial
states (A, d, d) under one generator and grid: it propagates them as one (A, d^2)
block and returns one trace, coordinates (A, T, d^2) and each array with the
same leading stack axis, so the time-averaged functionals give one value per
initial state.

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
    _BLOCK_BYTES,
    _dot,
    _gather,
    _hermitian_matrices,
    _real_form,
    validate_density_matrix,
    vectorize,
)
from .spectral import _blocks, spectral_decompose

__all__ = [
    "EvolutionTrace",
    "build_trace",
    "propagate_expm",
]

_NORM_CAP = 1e12
# Largest biorthogonality defect (max|W^-1 W - 1| on the real route) for which
# propagation takes the eigenmodes. The critically driven decaying qubit at drive
# offsets 0, 1e-8, 1e-6, 1e-3 reads 5.4e-9, 6.2e-13, 1.6e-13 (rounding noise) and
# 2.2e-15; modal error < 3e-15, stepping < 1.1e-14 of the largest entry over
# 401 to 40001 points. Random d = 16 generators read 3e-15 to 6e-15.
_MODAL_DEFECT_MAX = 1e-13


@dataclass
class EvolutionTrace:
    """Stacked record of a propagated trajectory (layout in the module docstring).

    Arrays are aligned with times along the axis before the per-state axes,
    after the leading stack axis of a stack of trajectories.
    """

    times: np.ndarray
    coordinates: np.ndarray
    modes: object = None

    def __len__(self):
        return len(self.times)

    @functools.cached_property
    def states(self):
        return _hermitian_matrices(self.coordinates)

    @functools.cached_property
    def purity(self):
        return _dot(self.coordinates, self.coordinates)

    @functools.cached_property
    def overlap_with_initial(self):
        x, p = self.coordinates, self.purity
        return (x @ x[..., 0, :, None])[..., 0] / np.sqrt(p * p[..., :1])

    @property
    def dim(self):
        return round(self.coordinates.shape[-1] ** 0.5)


def _check_grid(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("time grid must be 1-D with at least two points")
    if not np.isfinite(t).all():
        raise ValidationError("time grid must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    return t


def _check_states(t, rhos, hermitian=False, start=0, stacked=False):
    """Validate (..., T, d, d) states, trace within 1e-12; an error names the time.

    rhos may be a block, from flat index start, of the states flattened
    trajectory-major (stacked: of A trajectories); the first failing state in
    trajectory-major order is reported, for a stack with its initial state."""
    try:
        validate_density_matrix(rhos, trace_tol=1e-12, _hermitian=hermitian)
    except ValidationError as exc:
        a, k = divmod(start + exc.index, t.size)
        where = f"state at t={t[k]:g}"
        if stacked or rhos.ndim == 4:
            where = f"initial state {a}: {where}"
        raise ValidationError(f"{where}: {exc}") from exc


def build_trace(times, states):
    """Assemble an EvolutionTrace from T raw states, validating each one.

    Each state must have unit trace within 1e-12, tighter than the 1e-10
    that validate_density_matrix allows an input state, and pass its other
    checks, Hermiticity included; the trace then stores x = Re B^+ vec(rho),
    the coordinates of its Hermitian part, and its states are derived from x.

    states may also be a stack (A, T, d, d) of A trajectories on one grid:
    they are validated and gathered in one pass and give one trace with a
    leading stack axis. An invalid state is reported at its earliest time,
    and for a stack in the first trajectory that holds one.
    """
    t = _check_grid(times)
    rhos = np.asarray(states, dtype=complex)
    d = rhos.shape[-1] if rhos.ndim in (3, 4) else -1
    if rhos.shape[-3:] != (t.size, d, d) or not rhos.size:
        raise ValidationError(f"states of shape {rhos.shape} do not match the grid")
    _check_states(t, rhos)
    return EvolutionTrace(t, np.ascontiguousarray(_gather(vectorize(rhos)).real))


def _expm_steps(generator, x0, times):
    """Stack of exp(G (t_k - t_0)) x0 over the grid, shape (T, ...) + x0.shape.

    The real fallback for generators without a well-conditioned eigenbasis:
    G = B^+ L B, x0 one coordinate vector (n,) or a block (..., n) of them.
    On a grid spectral._blocks takes, J = exp(G (t_B - t_0)) steps x0 along
    the anchors and S = exp(G (t_1 - t_0)) every anchor along the offsets,
    one batched product per offset: two exponentials, chains of at most
    2 (sqrt(T) - 1) products. Other grids take one exponential per time.
    Rows are multiplied from the right by the transposed exponential.
    """
    from scipy.linalg import expm

    if (blocks := _blocks(times)) is None:
        exps = (expm(generator * (s - times[0])).T for s in times[1:])
        return np.stack([x0, *(x0 @ e for e in exps)])
    anchors, offsets = blocks
    jump, step = (expm(generator * (s - times[0])).T for s in (anchors[1], times[1]))
    out = np.empty((anchors.size, offsets.size) + x0.shape)
    out[0, 0] = x0
    for j in range(1, anchors.size):
        out[j, 0] = out[j - 1, 0] @ jump
    for i in range(1, offsets.size):
        out[:, i] = out[:, i - 1] @ step
    return out.reshape((-1,) + x0.shape)[: times.size]


def propagate_expm(liouvillian, rho0, times):
    """Exact propagation states[k] = unvec(exp(L t_k) vec(rho0)).

    rho0 is one initial state (d, d) or a stack (A, d, d); either gives
    one EvolutionTrace, for a stack with a leading axis of length A on
    every array. A stack is validated and propagated as one (A, d^2)
    block; an invalid initial state raises a ValidationError that names
    its index in the stack.

    rho0 enters as x_0 = Re B^+ vec(rho0), the coordinates of its Hermitian
    part, divided by its trace if that is off 1 by more than 1e-12: validation
    allows a start 1e-10, and every propagated state 1e-12. Every grid point
    comes at once from the eigensystem L = R diag(lambda) R^-1 of
    spectral_decompose, kept as the trace's modes, through
    SpectralData.propagate_real; it raises ValidationError unless L is finite
    and preserves Hermiticity. When R is singular or its biorthogonality defect
    exceeds 1e-13, as near an exceptional point, _expm_steps steps x with
    scipy's expm of B^+ L B, two exponentials on a uniform grid and one per
    point on any other; only that fallback imports scipy. The trace keeps x_k
    as coordinates; their exactly Hermitian states are validated as temporaries,
    in blocks of _BLOCK_BYTES // (16 d^2) states along the trajectory-major flat
    state axis (one call if the stack fits), and the first failing state in that
    order is reported, as for one whole-stack call.
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
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    x0 = _gather(v).real / np.where(np.abs(tr - 1.0) > 1e-12, tr, 1.0)[..., None]
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
    flat, size = xs.reshape(-1, n), max(1, _BLOCK_BYTES // (16 * n))
    for i, block in enumerate(np.split(flat, range(size, len(flat), size))):
        _check_states(t, _hermitian_matrices(block), True, i * size, xs.ndim == 3)
    return EvolutionTrace(t, xs, modes)
