"""Eigenmode analysis of time-independent generators.

A diagonalizable generator decomposes as L = sum_i lambda_i |r_i))((l_i|
with biorthonormal left/right eigenvectors. spectral_decompose is the one
eigendecomposition of the package and takes only generators that preserve
Hermiticity; it keeps the real pair matrix W of B^+ L B with its real
inverse, from the d x d eigh of H for a commutator -i[H, .] and from eig of
B^+ L B otherwise, and forms complex vectors only when they are read;
steady_state reads the stationary column of W and forms none. A slot keeps
the last generator decomposed, so a process decomposes each one once.
The mode sums sum_i exp(lambda_i t) c_i |r_i)), c_i = (l_i|rho0), of
propagate_expm and of the mode route's speed and angle run on one real
kernel, propagate_real, for the coordinates x_t = B^+ rho_t. On a grid of
T points that _blocks, the package's one uniform-grid rule, accepts, it reads
exp(lambda_i t) off an anchor x offset table, about 2 sqrt(T) exponentials
per mode instead of T, each weight within 8 eps (1 + max|lambda| t_max)
max|c| of the direct one; other grids keep the direct exponentials. A search
over unitary rotations of the initial state can suppress chosen decay modes.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    ValidationError,
)
from .lindblad import commutator_superop
from .liouville import (
    _gather,
    _real_form,
    _scatter,
    _unit_angle,
    _variance,
    devectorize,
    rehermitize,
    vectorize,
)

__all__ = [
    "SpectralData",
    "spectral_decompose",
    "steady_state",
    "mode_overlaps",
    "speed_from_modes",
    "angle_from_modes",
    "mode_elimination_search",
]

_GAP_TOL = 1e-10
_last = None  # last SpectralData, on a copy of its generator


def _blocks(t):
    """Anchors t[::B] and offsets t[:B] - t[0], B = isqrt(T) >= 2, of a uniform grid.

    Uniform: 1-D, anchor_j + offset_i = t_{jB+i}, anchor_j - t_0 = j (t_B - t_0)
    and offset_i = i (t_1 - t_0), each within 4 eps max|t|, as on linspace grids
    from 0; else None.
    """
    block = int(t.size**0.5) if t.ndim == 1 else 0
    if block < 2:
        return None
    anchors, offsets = t[::block], t[:block] - t[0]
    steps = np.arange(anchors.size) * (t[block] - t[0]), np.arange(block) * offsets[1]
    grid = (anchors[:, None] + offsets).ravel()[: t.size]
    misfit = np.concatenate([grid - t, anchors - t[0] - steps[0], offsets - steps[1]])
    if np.abs(misfit).max() <= 4.0 * np.finfo(float).eps * np.abs(t).max():
        return anchors, offsets


def _phased(w, c, t):
    """Weights exp(w_i t) c_i, shape t.shape + c.shape, for rates w over c's last axis.

    The table (exp(w anchors) c) x exp(w offsets) on _blocks, else exp(w t) c.
    """
    t = np.asarray(t, dtype=float)
    shape = (1,) * (np.ndim(c) - 1) + (w.size,)
    if (blocks := _blocks(t)) is not None:
        head = np.exp(np.outer(blocks[0], w)).reshape((-1, 1) + shape) * c
        tail = np.exp(np.outer(blocks[1], w)).reshape((blocks[1].size,) + shape)
        return (head * tail).reshape((-1,) + c.shape)[: t.size]
    phases = np.exp(np.multiply.outer(t, w))
    return phases.reshape(t.shape + shape) * c


@dataclass
class SpectralData:
    """Sorted eigensystem of a Hermiticity-preserving generator, in one layout.

    eigenvalues ascend in |Re lambda|, ties by Im lambda (a real array when all are
    real, as from numpy's eig). vectors and inverse are the real pair matrix W of
    real_form = B^+ L B and W^-1 on both routes, partner[i] the mode conjugate to
    mode i (i itself for a real mode); right_vectors and left_vectors hold |r_i))
    and |l_i)), (l_i|r_j) = delta_ij, formed when first read; propagate_real, the
    one mode sum, reads neither. condition and biorthogonality are
    spectral_decompose's defects.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: float
    biorthogonality: float
    route: str
    generator: np.ndarray
    real_form: np.ndarray
    partner: np.ndarray

    @functools.cached_property
    def _pair_index(self):
        """Columns of W holding Re r_i and s_i Im r_i, with s_i = sign Im lambda_i."""
        s, i = np.sign(self.eigenvalues.imag), np.arange(self.size)
        return np.where(s < 0, self.partner, i), np.where(s < 0, i, self.partner), s

    @functools.cached_property
    def right_vectors(self):
        re, im, s = self._pair_index
        r, pair = self.vectors[:, re].astype(complex), s != 0
        r.imag[:, pair] = s[pair] * self.vectors[:, im[pair]]
        return _scatter(r.T).T

    @functools.cached_property
    def _left_coordinates(self):
        """Columns c_i with (l_i|v) = B^+ v . c_i, read from W^-1."""
        (re, im, s), u = self._pair_index, self.inverse.T
        return (u[:, re] - 1j * s * u[:, im]) * np.where(s, 0.5, 1.0)

    @functools.cached_property
    def left_vectors(self):
        return _scatter(self._left_coordinates.T, -1).conj().T

    @property
    def size(self):
        return self.eigenvalues.size

    @functools.cached_property
    def stationary(self):
        """Mask of the modes that do not decay: |Re lambda| <= _GAP_TOL max(1, |L|)."""
        scale = max(1.0, float(np.abs(self.generator).max()))
        return np.abs(self.eigenvalues.real) <= _GAP_TOL * scale

    def overlaps(self, vector):
        """Coefficients (l_i|v) of a Liouville vector, or of each row of a block."""
        return _gather(vector) @ self._left_coordinates

    def propagate_real(self, x0, t):
        """Real kernel: B^+ exp(L t) B x0 = Re sum_k w_k B^+ r_k, x0 (n,) or (..., n).

        w = exp(lambda t) c: one mode per conjugate pair, twice its c from W^-1 x0,
        and each real mode; one product [Re w, Im w] @ [Re; -Im] B^+ r."""
        lead = np.flatnonzero(self.eigenvalues.imag >= 0)
        pair, p = -1j * (self.eigenvalues.imag[lead, None] > 0), self.partner[lead]
        u, z = ((m[lead] + pair * m[p]).T for m in (self.inverse, self.vectors.T))
        weights, z = _phased(self.eigenvalues[lead], x0 @ u, t), np.ascontiguousarray(z)
        x = weights.reshape(-1, z.shape[1]).view(float) @ z.view(float).T
        return x.reshape(weights.shape[:-1] + (-1,))


def spectral_decompose(liouvillian):
    """Biorthonormal eigensystem of a Hermiticity-preserving generator.

    L must be square, non-empty and finite, and its real form B^+ L B in the
    basis B of Hermitian matrices (liouville._real_form) must exist, as for
    every Lindblad generator; else ValidationError is raised before any
    eigensolver runs. B^+ L B is kept as real_form. Two routes, recorded in
    route, write one layout:
    - "hermitian": when L = -1j [H, .], that is when H' = 1j L[:d, :d] =
      H - H_00 1 rebuilds 1j L as 1 x H' - H'^T x 1 within 8 eps max(1,
      max|L_ij|). numpy's eigh of the d x d H' gives E and V; mode d j + i is
      |v_i><v_j|, lambda = -i (E_i - E_j). A pair of exactly equal levels
      gives lambda = 0 twice: two real modes, sqrt(2) Re r and sqrt(2) Im r;
    - "real": otherwise, numpy's eig of B^+ L B; complex eigenvalues come
      in exactly conjugate pairs.
    The real matrix W holds Re r, and Im r in the column of conj(r): B^+ L B
    = W D W^-1 with D = [[a, b], [-b, a]] on a +- ib. W^-1 is numpy's inv of W; on
    the hermitian route W has orthogonal columns and W^-1 = (W / |columns|^2)^T.
    condition is the biorthogonality max|W^-1 W - 1| plus max|W D W^-1 -
    B^+ L B|, at least half the Liouville-space defect; L is numerically
    defective when the first plus the second over max(1, max|L_ij|) exceeds
    1e-4, so a rescaled generator is judged alike.

    The last eigensystem computed is kept, with a copy of L, in one
    module-level slot, its arrays read-only; a call on a generator of the
    same shape and bits (-0.0 is not 0.0) returns it on the new L without
    an eigensolver. A miss empties the slot; a call that raises keeps nothing.
    """
    L = np.asarray(liouvillian, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or not L.size:
        raise ValidationError(f"generator must be square and non-empty, got {L.shape}")
    if not np.isfinite(L).all():
        raise ValidationError("generator has a nan or infinite entry")
    global _last
    if (hit := _slot(L)) is not None:
        return replace(hit, generator=L)
    _last = None  # free the old eigensystem before computing the new one
    real = _real_form(L)
    if real is None:
        raise ValidationError("generator does not preserve Hermiticity")
    d, scale = round(L.shape[0] ** 0.5), max(1.0, float(np.abs(L).max()))
    h, tol = 1j * L[:d, :d], 8.0 * np.finfo(float).eps * scale
    # -i[H, .] has an imaginary diagonal: an O(d^2) test that spares Lindblad
    # generators the O(d^4) one
    coherent = np.abs(L.diagonal().real).max() <= tol
    if coherent and np.abs(commutator_superop(h) - 1j * L).max() <= tol:
        route, (energies, v) = "hermitian", np.linalg.eigh(h)
        gap = energies - energies[:, None]  # mode d j + i is |v_i><v_j|, E_i - E_j
        w, r = -1j * gap.ravel(), _gather(np.kron(v.conj(), v).T).T
        above = np.arange(d) > np.arange(d)[:, None]  # i > j, so Im lambda <= 0
        vectors = np.where(above.ravel(), -r.imag, r.real)
        tied = ((gap == 0) & (above | above.T)).ravel()  # lambda = 0 twice: real modes
        vectors[:, tied] *= np.sqrt(2.0)
        index = np.arange(d * d).reshape(d, d)
        partner = np.where(tied, index.ravel(), index.T.ravel())
        inverse = (vectors / np.einsum("ij,ij->j", vectors, vectors)).T
    else:
        route, (w, vectors) = "real", np.linalg.eig(real)
        partner = np.arange(w.size) + np.sign(w.imag).astype(int)
        vectors = np.where(w.imag < 0, -vectors.imag, vectors.real)
        try:
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError as exc:
            raise DefectiveGeneratorError(
                f"right-eigenvector matrix is singular: {exc}"
            ) from exc
    scaled = vectors * w.real - vectors[:, partner] * w.imag
    biorth = float(np.abs(inverse @ vectors - np.eye(w.size)).max())
    recon = float(np.abs(scaled @ inverse - real).max())
    defect = biorth + recon / scale
    if defect > 1e-4:
        raise DefectiveGeneratorError(
            f"generator is numerically defective (defect {defect:.3e})"
        )
    order = np.lexsort((w.imag, np.abs(w.real)))
    partner = np.argsort(order)[partner[order]]
    sd = SpectralData(
        w[order], vectors[:, order], inverse[order], biorth + recon, biorth, route,
        generator=L, real_form=real, partner=partner,
    )
    for a in (sd.eigenvalues, sd.vectors, sd.inverse, real, partner):
        a.flags.writeable = False
    _last = replace(sd, generator=L.copy())
    return sd


def _slot(L):
    """The slot's SpectralData if it holds a generator of complex L's shape and bits."""
    bits = np.ascontiguousarray(L).view(np.uint64)
    if _last is not None and np.array_equal(_last.generator.view(np.uint64), bits):
        return _last


def steady_state(sd):
    """Unit-trace Hermitian state spanning the zero mode; |L vec(rho)| <= 1e-9 scale.

    Mode 0 must be stationary and no other mode, scale = max(1, max|L_ij|).
    """
    w, scale = sd.eigenvalues, max(1.0, float(np.abs(sd.generator).max()))
    if not sd.stationary[0]:
        raise NonUniqueSteadyStateError(
            f"no stationary mode: smallest eigenvalue {w[0]:.3e}"
        )
    if sd.stationary[1:].any():
        raise NonUniqueSteadyStateError(
            "stationary subspace is degenerate; no unique steady state"
        )
    rho = rehermitize(devectorize(_scatter(sd.vectors[:, 0])))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise NonUniqueSteadyStateError("stationary mode is traceless")
    rho = rho / tr
    defect = float(np.linalg.norm(sd.generator @ vectorize(rho)))
    if defect > 1e-9 * scale:
        raise NumericalConsistencyError(
            f"steady-state residual {defect:.3e} exceeds {1e-9 * scale:.3e}"
        )
    return rho


def _checked(sd, vector, what):
    """A complex array over sd's modes on its last axis, every entry finite."""
    v = np.asarray(vector, dtype=complex)
    if v.shape[-1:] != (sd.size,):
        raise DimensionError(f"{what} has shape {v.shape}, expected ({sd.size},)")
    if not np.isfinite(v).all():
        raise ValidationError(f"{what} has a nan or infinite entry")
    return v


def mode_overlaps(sd, rho0):
    """Decomposition coefficients c_i = (l_i|vec(rho0))."""
    return sd.overlaps(_checked(sd, vectorize(rho0), "state"))


def _mode_sum(sd, c, t):
    """B^+ sum_i exp(lambda_i t) c_i |r_i)) by propagate_real, c over the last axis."""
    if not np.isfinite(t := np.asarray(t, dtype=float)).all():
        raise ValidationError("times must be finite")
    return sd.propagate_real(_gather(_checked(sd, c, "c") @ sd.right_vectors.T).real, t)


def speed_from_modes(sd, c, t):
    """Evolution speed from the mode sums alone, at a time t or a 1-D grid of them.

    c is the overlap vector of a Hermitian state, as mode_overlaps returns it, so
    x_0 = Re B^+ R c loses nothing. The starts c and lambda c give x_t and B^+ L B x_t
    in one product: the speed is their _variance at |x_t| = 1."""
    c = _checked(sd, c, "c")
    x, dx = np.moveaxis(_mode_sum(sd, np.stack([c, sd.eigenvalues * c], -2), t), -2, 0)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.sqrt(_variance(x / norm, dx / norm))[()]


def angle_from_modes(sd, c, rho0, t):
    """Angle between rho0 and the mode sum at a time t or a 1-D grid of them.

    c is the overlap vector of the Hermitian state rho0, as mode_overlaps returns it."""
    x0 = _gather(_checked(sd, vectorize(rho0), "state")).real
    return _unit_angle(x0, _mode_sum(sd, c, t))[()]


def mode_elimination_search(sd, rho0, kill_set, seed=0, restarts=8):
    """Search for a unitary rotation of rho0 that empties chosen modes.

    Minimizes sum over the kill set of |(l_i|vec(U rho0 U+))|² over
    U = exp(iA) with A Hermitian (d² real coordinates in the basis of
    liouville._hermitian_index), using a
    quasi-Newton local optimizer from the identity plus random restarts.
    Returns (best U, residual); residual below 1e-8 counts as success,
    anything else is reported as found, not raised.
    """
    kill = sorted({int(k) for k in kill_set})
    r0 = devectorize(_checked(sd, vectorize(rho0), "state"))
    d = r0.shape[0]
    if not kill:
        return np.eye(d, dtype=complex), 0.0
    if kill[0] < 1 or kill[-1] >= sd.size:
        raise ValidationError(
            f"kill set must name decay modes in [1, {sd.size - 1}], got {kill}"
        )
    from scipy.linalg import expm
    from scipy.optimize import minimize

    rows = sd.left_vectors[:, kill].conj().T

    def residual(u):
        v = vectorize(u @ r0 @ u.conj().T)
        return float(np.sum(np.abs(rows @ v) ** 2))

    def objective(x):
        return residual(expm(1j * devectorize(_scatter(x))))

    best_u = np.eye(d, dtype=complex)
    best_r = residual(best_u)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = [np.zeros(d * d)]
    starts += [rng.normal(scale=1.0, size=d * d) for _ in range(restarts)]
    for x0 in starts:
        res = minimize(objective, x0, method="BFGS", options={"maxiter": 400})
        if res.fun < best_r:
            best_r = float(res.fun)
            best_u = expm(1j * devectorize(_scatter(res.x)))
        if best_r < 1e-14:
            break
    return best_u, best_r
