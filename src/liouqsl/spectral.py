"""Eigenmode analysis of time-independent generators.

A diagonalizable generator decomposes as L = sum_i lambda_i |r_i))((l_i|
with biorthonormal left/right eigenvectors. spectral_decompose is the one
eigendecomposition of the package and takes only generators that preserve
Hermiticity; on its real route it keeps the real pair matrix W of B^+ L B
with its real inverse, and forms complex vectors only when they are read;
steady_state reads the stationary column of W and forms none. A slot keeps
the last generator decomposed, so a process decomposes each one once.
Mode sums sum_i exp(lambda_i t) c_i |r_i)), c_i = (l_i|rho0), come from the
same modes: SpectralData.evolve in complex arithmetic for the mode route, and
on both routes one real kernel, propagate_real, for the coordinates
x_t = B^+ rho_t that propagate_expm propagates.
On a uniform grid of T points both take exp(lambda_i t) from an anchor x
offset table, about 2 sqrt(T) exponentials per mode instead of T, each
weight within 8 eps (1 + max|lambda| t_max) max|c| of the direct one; other
grids keep the direct exponentials bit for bit. Speed, angle and time bound
follow from the mode sum without stepping, and a search over unitary
rotations of the initial state can suppress chosen decay modes.
"""

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    DefectiveGeneratorError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    ValidationError,
)
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
from .qsl import _bound_ratio, _horizon_grid, _time_average

__all__ = [
    "SpectralData",
    "spectral_decompose",
    "steady_state",
    "mode_overlaps",
    "speed_from_modes",
    "angle_from_modes",
    "tqsl_from_modes",
    "mode_elimination_search",
]

_GAP_TOL = 1e-10
_last = None  # last SpectralData, on a copy of its generator


def _phased(w, c, t):
    """Weights exp(w_i t) c_i, shape t.shape + c.shape, for rates w over c's last axis.

    A 1-D grid of T points is cut into blocks of B = isqrt(T). When the
    anchors t[::B] plus the offsets t[:B] - t[0] reproduce every t_k within
    4 eps max|t|, as on every linspace grid, the weights are the table
    (exp(w anchors) c) x exp(w offsets); any other t, or B < 2, takes
    exp(w t) c directly.
    """
    t = np.asarray(t, dtype=float)
    shape = (1,) * (np.ndim(c) - 1) + (w.size,)
    block = int(t.size**0.5) if t.ndim == 1 else 0
    if block >= 2:
        anchors, offsets = t[::block], t[:block] - t[0]
        grid = (anchors[:, None] + offsets).ravel()[: t.size]
        if np.abs(grid - t).max() <= 4.0 * np.finfo(float).eps * np.abs(t).max():
            head = np.exp(np.outer(anchors, w)).reshape((-1, 1) + shape) * c
            tail = np.exp(np.outer(offsets, w)).reshape((block,) + shape)
            return (head * tail).reshape((-1,) + c.shape)[: t.size]
    phases = np.exp(np.multiply.outer(t, w))
    return phases.reshape(t.shape + shape) * c


@dataclass
class SpectralData:
    """Sorted eigensystem of a Hermiticity-preserving generator.

    eigenvalues ascend in |Re lambda|, ties by Im lambda (a real array when
    all are real, as from numpy's eig). vectors and inverse are taken in the
    coordinates diagonalized (W, W^-1 on the real route, with partner[i] the
    mode conjugate to mode i); right_vectors and left_vectors hold |r_i)) and
    |l_i)), (l_i|r_j) = delta_ij, formed when first read. condition and
    biorthogonality are spectral_decompose's defects; real_form is B^+ L B
    of generator on both routes, the array decomposed on the real one.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: float
    biorthogonality: float
    route: str
    generator: np.ndarray
    real_form: np.ndarray
    partner: np.ndarray = None

    @functools.cached_property
    def _pair_index(self):
        """Columns of W holding Re r_i and s_i Im r_i, with s_i = sign Im lambda_i."""
        s, i = np.sign(self.eigenvalues.imag), np.arange(self.size)
        return np.where(s < 0, self.partner, i), np.where(s < 0, i, self.partner), s

    @functools.cached_property
    def right_vectors(self):
        if self.partner is None:
            return self.vectors
        re, im, s = self._pair_index
        r, pair = self.vectors[:, re].astype(complex), s != 0
        r.imag[:, pair] = s[pair] * self.vectors[:, im[pair]]
        return _scatter(r.T).T

    @functools.cached_property
    def left_vectors(self):
        if self.partner is None:
            return self.inverse.conj().T
        (re, im, s), u = self._pair_index, self.inverse.T
        c = (u[:, re] - 1j * s * u[:, im]) * np.where(s, 0.5, 1.0)
        return _scatter(c.T, -1).conj().T

    @property
    def size(self):
        return self.eigenvalues.size

    def overlaps(self, vector):
        """Coefficients (l_i|v) of a Liouville vector, or of each row of a block."""
        return vector @ self.left_vectors.conj()

    def evolve(self, c, t):
        """Mode sums sum_i exp(lambda_i t) c_i |r_i)) at the times t.

        c holds the coefficients of one vector (n,) or of a block (..., n);
        the result has shape t.shape + c.shape. With c = overlaps(v0) it is
        exp(L t) v0, one product (exp(t lambda) * c) R^T for every time. On
        the grids of _phased's table, each weight with Re lambda_i <= 0 is
        within 8 eps (1 + max|lambda| t_max) max|c| of the direct one.
        """
        weights = _phased(self.eigenvalues, c, t)
        vectors = weights.reshape(-1, self.size) @ self.right_vectors.T
        return vectors.reshape(weights.shape)

    def propagate_real(self, x0, t):
        """Real kernel: B^+ exp(L t) B x0 = Re sum_k w_k B^+ r_k, x0 (n,) or (..., n).

        w = exp(lambda t) c: all modes (c = x0 @ conj(B^+ R)), or one per conjugate
        pair, twice its c from W^-1 x0; one product [Re w, Im w] @ [Re; -Im] B^+ r."""
        if self.partner is None:
            lead, u = slice(None), _gather(self.vectors.T).conj().T
            z = u
        else:
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
    route:
    - "hermitian": when 1j L is exactly Hermitian (coherent dynamics such
      as -1j L_H), numpy's eigh gives a unitary R, so R^-1 = R^+;
    - "real": otherwise, numpy's eig of B^+ L B; complex eigenvalues come
      in exactly conjugate pairs. The real matrix W holds Re r, and Im r in
      the column of conj(r): B^+ L B = W D W^-1 with D = [[a, b], [-b, a]]
      on a +- ib.
    condition is the biorthogonality max|R^-1 R - 1| plus max|R diag(lambda)
    R^-1 - L|, both in the coordinates diagonalized (max|W^-1 W - 1| and
    max|W D W^-1 - B^+ L B|, at least half the Liouville-space defect); L is
    numerically defective when the first plus the second over max(1, max|L_ij|)
    exceeds 1e-4, so a rescaled generator is judged alike.

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
    bits = np.ascontiguousarray(L).view(np.uint64)
    if _last is not None and np.array_equal(_last.generator.view(np.uint64), bits):
        return replace(_last, generator=L)
    _last = None  # free the old eigensystem before computing the new one
    real = _real_form(L)
    if real is None:
        raise ValidationError("generator does not preserve Hermiticity")
    hermitian = None if L.diagonal().real.any() else 1j * L
    if hermitian is not None and np.array_equal(hermitian, hermitian.conj().T):
        route, partner = "hermitian", None
        energies, vectors = np.linalg.eigh(hermitian)
        w, inverse = -1j * energies, vectors.conj().T
        target, scaled = L, vectors * w
    else:
        route = "real"
        w, vectors = np.linalg.eig(real)
        partner = np.arange(w.size) + np.sign(w.imag).astype(int)
        vectors = np.where(w.imag < 0, -vectors.imag, vectors.real)
        target, scaled = real, vectors * w.real - vectors[:, partner] * w.imag
        try:
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError as exc:
            raise DefectiveGeneratorError(
                f"right-eigenvector matrix is singular: {exc}"
            ) from exc
    biorth = float(np.abs(inverse @ vectors - np.eye(w.size)).max())
    recon = float(np.abs(scaled @ inverse - target).max())
    defect = biorth + recon / max(1.0, float(np.abs(L).max()))
    if defect > 1e-4:
        raise DefectiveGeneratorError(
            f"generator is numerically defective (defect {defect:.3e})"
        )
    order = np.lexsort((w.imag, np.abs(w.real)))
    partner = None if partner is None else np.argsort(order)[partner[order]]
    sd = SpectralData(
        w[order], vectors[:, order], inverse[order], biorth + recon, biorth, route,
        generator=L, real_form=real, partner=partner,
    )
    for a in (sd.eigenvalues, sd.vectors, sd.inverse, real, partner):
        if a is not None:
            a.flags.writeable = False
    _last = replace(sd, generator=bits.copy().view(complex))
    return sd


def _require_unique_zero(sd):
    """Check for one zero mode within _GAP_TOL max(1, max|L_ij|); return that scale."""
    w, scale = sd.eigenvalues, max(1.0, float(np.abs(sd.generator).max()))
    if abs(w[0]) > _GAP_TOL * scale:
        raise NonUniqueSteadyStateError(
            f"no stationary mode: smallest eigenvalue {w[0]:.3e}"
        )
    if w.size > 1 and abs(w[1].real) <= _GAP_TOL * scale:
        raise NonUniqueSteadyStateError(
            "stationary subspace is degenerate; no unique steady state"
        )
    return scale


def steady_state(sd):
    """Unit-trace Hermitian state spanning the zero mode; |L vec(rho)| <= 1e-9 scale."""
    scale = _require_unique_zero(sd)
    r0 = sd.vectors[:, 0] if sd.partner is None else _scatter(sd.vectors[:, 0])
    rho = rehermitize(devectorize(r0))
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


def mode_overlaps(sd, rho0):
    """Decomposition coefficients c_i = (l_i|vec(rho0))."""
    return sd.overlaps(vectorize(np.asarray(rho0, dtype=complex)))


def speed_from_modes(sd, c, t):
    """Evolution speed from the mode sums alone, at a time t or a 1-D grid of them.

    _variance of v' = L v at v = evolve(c, t), both scaled so |v| = 1; the
    derivative v' = evolve(lambda * c, t) comes out of the same product.
    """
    _require_unique_zero(sd)
    c = np.asarray(c, dtype=complex)
    both = sd.evolve(np.array([c, sd.eigenvalues * c]), np.asarray(t, dtype=float))
    both /= np.linalg.norm(both[..., :1, :], axis=-1, keepdims=True)
    return np.sqrt(_variance(both[..., 0, :], both[..., 1, :]))[()]


def angle_from_modes(sd, c, rho0, t):
    """Angle between rho0 and the mode sum at a time t or a 1-D grid of them."""
    _require_unique_zero(sd)
    vt = sd.evolve(np.asarray(c, dtype=complex), np.asarray(t, dtype=float))
    v0 = vectorize(rho0)
    vt /= np.linalg.norm(vt, axis=-1, keepdims=True)
    return _unit_angle(v0 / np.linalg.norm(v0), vt)[()]


def tqsl_from_modes(sd, rho0, horizon, points=2001):
    """Angle over averaged speed, both evaluated through the modes.

    Returns 0 for a stationary initial state (all decay overlaps vanish).
    """
    _require_unique_zero(sd)
    ts = _horizon_grid(horizon, points)
    c = mode_overlaps(sd, rho0)
    if np.abs(c[1:]).max() < 1e-12:
        warnings.warn("stationary initial state; bound is trivially 0", RuntimeWarning)
        return 0.0
    avg = _time_average(speed_from_modes(sd, c, ts), ts)
    return _bound_ratio(angle_from_modes(sd, c, rho0, ts[-1]), avg)


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
    r0 = np.asarray(rho0, dtype=complex)
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
