"""Eigenmode analysis of time-independent generators.

A diagonalizable generator decomposes as L = sum_i lambda_i |r_i))((l_i|
with biorthonormal left/right eigenvectors. The initial state splits
into a stationary component and decay modes weighted by c_i = (l_i|rho0);
speed, angle to the initial state, and the resulting time bound then
follow from closed mode sums without propagating anything. A local
search over unitary rotations of the initial state can suppress chosen
decay modes.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DefectiveGeneratorError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    ValidationError,
)
from .liouville import _unit_angle, devectorize, rehermitize, vectorize
from .qsl import _bound_ratio, _odd_grid, _time_average

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


@dataclass
class SpectralData:
    """Sorted eigensystem of a generator.

    eigenvalues ascend in |Re lambda| with ties broken by Im lambda;
    right_vectors and left_vectors hold |r_i)) and |l_i)) as columns with
    (l_i|r_j) = delta_ij; condition is the measured biorthogonality plus
    reconstruction defect.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition: float

    @property
    def size(self):
        return self.eigenvalues.size

    def overlaps(self, vector):
        """Coefficients (l_i|v) of a Liouville vector."""
        return self.left_vectors.conj().T @ vector

    def apply(self, vector):
        """L v evaluated through the mode decomposition."""
        return self.right_vectors @ (self.eigenvalues * self.overlaps(vector))


def spectral_decompose(liouvillian):
    """Biorthonormal eigensystem with defect measurement.

    Left vectors come from the inverse of the right-eigenvector matrix,
    which enforces (l_i|r_j) = delta_ij up to the conditioning of that
    inverse. The generator counts as numerically defective when the
    biorthogonality defect plus the reconstruction defect relative to
    max(1, max |L_ij|) exceeds 1e-4, so a rescaled generator is judged
    alike.
    """
    L = np.asarray(liouvillian, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValidationError(f"generator must be square, got shape {L.shape}")
    w, vr = np.linalg.eig(L)
    order = np.lexsort((w.imag, np.abs(w.real)))
    w = w[order]
    vr = vr[:, order]
    try:
        inv = np.linalg.inv(vr)
    except np.linalg.LinAlgError as exc:
        raise DefectiveGeneratorError(
            f"right-eigenvector matrix is singular: {exc}"
        ) from exc
    biorth = float(np.abs(inv @ vr - np.eye(w.size)).max())
    recon = float(np.abs((vr * w) @ inv - L).max())
    defect = biorth + recon / max(1.0, float(np.abs(L).max()))
    if defect > 1e-4:
        raise DefectiveGeneratorError(
            f"generator is numerically defective (defect {defect:.3e})"
        )
    return SpectralData(
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=inv.conj().T,
        condition=biorth + recon,
    )


def _require_unique_zero(sd):
    w = sd.eigenvalues
    if abs(w[0]) > _GAP_TOL:
        raise NonUniqueSteadyStateError(
            f"no stationary mode: smallest eigenvalue {w[0]:.3e}"
        )
    if w.size > 1 and abs(w[1].real) <= _GAP_TOL:
        raise NonUniqueSteadyStateError(
            "stationary subspace is degenerate; no unique steady state"
        )


def steady_state(sd):
    """Unit-trace Hermitian state spanning the zero mode."""
    _require_unique_zero(sd)
    rho = rehermitize(devectorize(sd.right_vectors[:, 0]))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise NonUniqueSteadyStateError("stationary mode is traceless")
    rho = rho / tr
    defect = float(np.linalg.norm(sd.apply(vectorize(rho))))
    if defect > 1e-9:
        raise NumericalConsistencyError(
            f"steady-state residual {defect:.3e} exceeds 1e-9"
        )
    return rho


def mode_overlaps(sd, rho0):
    """Decomposition coefficients c_i = (l_i|vec(rho0))."""
    return sd.overlaps(vectorize(np.asarray(rho0, dtype=complex)))


class _ModeTables:
    """Precomputed decay-mode sums shared by speed and angle formulas."""

    def __init__(self, sd, c):
        mats = [devectorize(sd.right_vectors[:, j]) for j in range(sd.size)]
        self.v_ss = c[0] * sd.right_vectors[:, 0]
        self.decay_vectors = sd.right_vectors[:, 1:]
        self.rho_ss = c[0] * mats[0]
        self.p_ss = float(np.real(np.trace(self.rho_ss @ self.rho_ss)))
        self.lam = sd.eigenvalues[1:]
        self.c = c[1:]
        decay = mats[1:]
        self.gram = np.array(
            [[np.trace(a.conj().T @ b) for b in decay] for a in decay]
        )
        self.s = np.array([np.trace(self.rho_ss @ m) for m in decay])

    def weights(self, t):
        """exp(lambda_i t) c_i; one row per time for an array of times."""
        return np.exp(np.multiply.outer(t, self.lam)) * self.c

    def gram_form(self, x, y):
        """Re sum_ij conj(x_i) gram_ij y_j, one value per row of x and y."""
        return np.real(np.sum(x.conj() * (y @ self.gram.T), axis=-1))

    def modulus_squared(self, t):
        w = self.weights(t)
        return self.p_ss + 2.0 * np.real(w @ self.s) + self.gram_form(w, w)

    def speed(self, t):
        w = self.weights(t)
        lw = self.lam * w
        a = self.gram_form(lw, lw)
        b = np.real(lw @ self.s) + self.gram_form(w, lw)
        d = self.modulus_squared(t)
        return np.sqrt(np.maximum(a / d - (b / d) ** 2, 0.0))

    def angle(self, rho0, t):
        """Angle between rho0 and the time-t state summed from the modes."""
        vt = self.v_ss + self.decay_vectors @ self.weights(t)
        v0 = vectorize(rho0)
        return float(_unit_angle(v0 / np.linalg.norm(v0), vt / np.linalg.norm(vt)))


def speed_from_modes(sd, c, t):
    """Evolution speed at time t from the mode sums alone."""
    _require_unique_zero(sd)
    return float(_ModeTables(sd, np.asarray(c, dtype=complex)).speed(float(t)))


def angle_from_modes(sd, c, rho0, t):
    """Angle between rho0 and the time-t state from the mode sums."""
    _require_unique_zero(sd)
    tables = _ModeTables(sd, np.asarray(c, dtype=complex))
    return tables.angle(rho0, float(t))


def tqsl_from_modes(sd, rho0, horizon, points=2001):
    """Angle over averaged speed, both evaluated through the modes.

    Returns 0 for a stationary initial state (all decay overlaps vanish).
    """
    _require_unique_zero(sd)
    _odd_grid(points)
    c = mode_overlaps(sd, rho0)
    if np.abs(c[1:]).max() < 1e-12:
        warnings.warn("stationary initial state; bound is trivially 0", RuntimeWarning)
        return 0.0
    tables = _ModeTables(sd, c)
    ts = np.linspace(0.0, float(horizon), points)
    avg = _time_average(tables.speed(ts), ts)
    return _bound_ratio(tables.angle(rho0, float(horizon)), avg)


def _hermitian_from_params(x, d):
    a = np.zeros((d, d), dtype=complex)
    a[np.diag_indices(d)] = x[:d]
    iu = np.triu_indices(d, 1)
    m = d * (d - 1) // 2
    a[iu] = x[d : d + m] + 1j * x[d + m : d + 2 * m]
    return a + np.triu(a, 1).conj().T


def mode_elimination_search(sd, rho0, kill_set, seed=0, restarts=8):
    """Search for a unitary rotation of rho0 that empties chosen modes.

    Minimizes sum over the kill set of |(l_i|vec(U rho0 U+))|² over
    U = exp(iA) with A Hermitian (d² real parameters), using a
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
        return residual(expm(1j * _hermitian_from_params(x, d)))

    best_u = np.eye(d, dtype=complex)
    best_r = residual(best_u)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = [np.zeros(d * d)]
    starts += [rng.normal(scale=1.0, size=d * d) for _ in range(restarts)]
    for x0 in starts:
        res = minimize(objective, x0, method="BFGS", options={"maxiter": 400})
        if res.fun < best_r:
            best_r = float(res.fun)
            best_u = expm(1j * _hermitian_from_params(res.x, d))
        if best_r < 1e-14:
            break
    return best_u, best_r
