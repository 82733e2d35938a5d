"""Speed-limit functionals on Liouville-space trajectories.

Everything here works on the unit vector |rho)/sqrt(tr rho^2) and a
supermatrix generator. The pieces: the evolution speed (standard
deviation of the generator on the current unit vector) and its
unitary/dissipative decomposition, time-averaged Mandelstam-Tamm type
bounds with operator-norm and Hilbert-Schmidt relaxations, a split of
the generator into a part diagonal in a fixed orthonormal basis and its
non-classical remainder, a Wootters-style length of the basis amplitude
moduli, and the exact-time relation length / averaged non-classical
speed. The basis is anchored at the initial state and never re-derived
along the trajectory.

The length integrates the rate of change of the amplitude moduli, taken
from the generator on the same basis amplitudes as the non-classical
speed. The two integrands agree point by point, so the exact time
recovers the horizon to rounding, not only to quadrature error.

The per-state functionals (speed, non-classical speed, classical part,
exact uncertainty) take a single NormalizedState or a stacked one, such
as trace.normalized, and then return one value per state.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    NumericalConsistencyError,
    QuadratureError,
    ValidationError,
)
from .liouville import _apply, _dot, _variance, liouville_angle

__all__ = [
    "QslReport",
    "BasisSet",
    "speed",
    "speed_decomposition",
    "average_speed",
    "operator_norm",
    "complete_basis",
    "classical_part",
    "nonclassical_speed",
    "exact_uncertainty",
    "wootters_length",
    "exact_qsl",
    "uncertainty_product",
]

_POP_FLOOR = 1e-14
_ANGLE_FLOOR = 1e-12


@dataclass
class QslReport:
    """All bound and equality quantities for one trajectory."""

    T: float
    theta: float
    wootters_length: float
    avg_speed: float
    avg_nc_speed: float
    bound_mt: float
    bound_nc: float
    exact_time: float
    bound_opnorm: float
    bound_hsnorm: float
    efficiency: float

    def to_json(self):
        return {k: float(v) for k, v in self.__dict__.items()}


@dataclass
class BasisSet:
    """Orthonormal Liouville-space basis stored as matrix columns.

    Column 0 is the unit vector of the reference state; the Gram matrix
    must be the identity within 1e-10.
    """

    vectors: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.vectors, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("basis must be a square matrix of column vectors")
        defect = np.abs(m.conj().T @ m - np.eye(m.shape[1])).max()
        if defect > 1e-10:
            raise NumericalConsistencyError(
                f"basis Gram defect {defect:.3e} exceeds 1e-10"
            )
        self.vectors = m

    @property
    def size(self):
        return self.vectors.shape[1]

    def amplitudes(self, vector):
        """Components (a_i|v) of a Liouville vector, or of each row of a stack."""
        return vector @ self.vectors.conj()


def _simpson(y, x):
    """Composite Simpson integral of samples y on an odd, possibly non-uniform grid x.

    A port of scipy's simpson for an odd number of points: each
    pair of intervals (h0, h1) gets the parabola through its three
    samples. Operations and their order follow scipy's, so the result is
    the same to the last bit.
    """
    _odd_grid(len(x))
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    panels = (
        hsum
        / 6.0
        * (
            y[:-2:2] * (2.0 - 1.0 / ratio)
            + y[1:-1:2] * (hsum * (hsum / (h0 * h1)))
            + y[2::2] * (2.0 - ratio)
        )
    )
    return float(np.sum(panels))


def _cumulative_simpson(y, x):
    """Running Simpson integral of y over an odd grid x, 0 at x[0].

    scipy's cumulative_simpson(y, x=x, initial=0) to the last bit:
    intervals 2j and 2j + 1 take the parabola through points 2j to 2j + 2,
    so at even indices the value is the composite Simpson sum.
    """
    _odd_grid(len(x))
    halves = []
    for f, h in ((y, np.diff(x)), (y[::-1], np.diff(x)[::-1])):
        r = h[:-1] / (h[:-1] + h[1:])
        q = r * (h[:-1] / h[1:])
        weighted = (3 - r) * f[:-2] + (3 + q + r) * f[1:-1] - q * f[2:]
        halves.append(h[:-1] / 6 * weighted)
    parts = np.empty(len(x) - 1)
    parts[0::2], parts[1::2] = halves[0][::2], halves[1][::-2]
    return np.concatenate([[0.0], np.cumsum(parts)])


def _time_average(values, times):
    return _simpson(values, times) / (times[-1] - times[0])


def _odd_grid(n):
    """Raise QuadratureError unless n points suit composite Simpson quadrature."""
    if n < 3 or n % 2 == 0:
        raise QuadratureError(
            f"Simpson quadrature needs an odd grid of at least 3 points, got {n}"
        )


def _horizon_grid(horizon, points):
    """Uniform Simpson grid of points times on [0, horizon], horizon finite > 0."""
    _odd_grid(points)
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    return np.linspace(0.0, horizon, points)


def _bound_ratio(numerator, denominator):
    """Every ratio of the bound chain: a distance or a speed over a speed or a norm.

    A vanishing denominator gives 0 against a vanishing numerator, as for
    a stationary state or a zero generator, and raises otherwise.
    """
    if denominator < 1e-14 * max(numerator, 1.0):
        if numerator < _ANGLE_FLOOR:
            return 0.0
        raise NumericalConsistencyError(
            f"vanishing speed or norm against a finite numerator {numerator:.3e}"
        )
    return float(numerator / denominator)


def speed(liouvillian, state):
    """Evolution speed sqrt(tr(L†L P) - tr(L† P) tr(L P))."""
    return np.sqrt(_variance(*_apply(liouvillian, state)))


def speed_decomposition(parts, state):
    """Split the squared speed into unitary, dissipative, and cross terms.

    Returns (var_unitary, var_dissipative, cross) with
    cross = Re[i((v|L_H L_D|v) - (v|L_D† L_H|v))]; the three sum to the
    squared speed of the full generator on physical states.
    """
    v, hv = _apply(parts.hermitian_generator, state)
    _, dv = _apply(parts.dissipative, state)
    cross = np.real(1j * (_dot(hv, dv) - _dot(dv, hv)))
    return float(_variance(v, hv)), float(_variance(v, dv)), float(cross)


def average_speed(trace, liouvillian):
    """Simpson time average of the speed along the trace."""
    _odd_grid(len(trace))
    return _time_average(speed(liouvillian, trace.normalized), trace.times)


def operator_norm(superop):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(superop, dtype=complex), 2))


def complete_basis(state):
    """Deterministic orthonormal completion seeded by the state vector.

    Gram-Schmidt over the state vector followed by the canonical unit
    vectors, discarding candidates whose residual norm falls below 1e-8;
    each candidate is projected twice against all accepted vectors at
    once, for a clean Gram matrix.
    """
    v0 = state.vector
    n = v0.size
    rows = np.empty((n, n), dtype=complex)
    rows[0] = v0 / np.linalg.norm(v0)
    k = 1
    for j in range(n):
        q = rows[:k]
        cand = -(q[:, j].conj() @ q)
        cand[j] += 1.0
        cand -= (q.conj() @ cand) @ q
        norm = np.linalg.norm(cand)
        if norm < 1e-8:
            continue
        rows[k] = cand / norm
        k += 1
        if k == n:
            break
    if k != n:
        raise NumericalConsistencyError("basis completion fell short of full dimension")
    return BasisSet(vectors=rows.T)


class _ClassicalSplit:
    """Basis amplitudes of v and O v, populations, variance and beta, per state.

    Directions with population below 1e-14 are dropped: there keep is
    False and beta_i = i Im((a_i|O v)(v|a_i)) / (a_i|P|a_i) is set to 0.
    """

    def __init__(self, superop, basis, state):
        self.v, self.ov = _apply(superop, state)
        self.amps = basis.amplitudes(self.v)
        self.oamps = basis.amplitudes(self.ov)
        self.pops = np.abs(self.amps) ** 2
        self.var = _variance(self.v, self.ov)
        self.keep = self.pops >= _POP_FLOOR
        self.beta = self.per_population(1j * np.imag(self.oamps * self.amps.conj()))

    def per_population(self, x):
        """x_i / pops_i on kept directions, 0 on dropped ones."""
        return np.divide(x, self.pops, out=np.zeros_like(x), where=self.keep)

    def nonclassical_speed(self):
        mean = np.sum(self.beta * self.pops, axis=-1)
        var_cl = np.sum(np.abs(self.beta) ** 2 * self.pops, axis=-1) - np.abs(mean) ** 2
        return np.sqrt(np.maximum(self.var - var_cl, 0.0))

    def wootters_speed(self):
        """sqrt(sum_i (d|c_i|/dt)²) for the amplitudes c_i = (a_i|v) under v' = O v.

        With c_i' = (a_i|O v) - Re(v|O v) c_i, d|c_i|/dt = Re(c_i* c_i')/|c_i|;
        a dropped direction takes its one-sided limit |c_i'|. Equals the
        non-classical speed point by point.
        """
        rate = self.oamps - np.real(_dot(self.v, self.ov))[..., None] * self.amps
        kept = self.per_population(np.real(rate * self.amps.conj()) ** 2)
        dropped = np.where(self.keep, 0.0, np.abs(rate) ** 2)
        return np.sqrt(np.sum(kept + dropped, axis=-1))


def classical_part(liouvillian, basis, state):
    """Component of the generator diagonal in the basis.

    Sum of |a_i)((a_i| (a_i|C|a_i)/(a_i|P|a_i) with C = (L P - P L†)/2
    and P the projector onto the state vector; basis directions with
    population below 1e-14 are dropped. The result is anti-Hermitian by
    construction; a detectable defect is reported, not assumed away.
    """
    beta = _ClassicalSplit(liouvillian, basis, state).beta
    cols = basis.vectors
    out = (cols * beta[..., None, :]) @ cols.conj().T
    defect = np.abs(out + np.swapaxes(out, -1, -2).conj()).max()
    if defect > 1e-12:
        warnings.warn(
            f"classical part anti-Hermiticity defect {defect:.3e}", RuntimeWarning
        )
    return out


def nonclassical_speed(liouvillian, basis, state):
    """Speed of the non-diagonal remainder: sqrt(max(var - var_cl, 0))."""
    return _ClassicalSplit(liouvillian, basis, state).nonclassical_speed()


def exact_uncertainty(superop, basis, state):
    """Population sensitivity scale and non-classical deviation of a superoperator.

    The scale delta obeys delta^{-2} = sum_i Re((a_i|G|a_i))² / (a_i|P|a_i)
    with G = B P + P B† - P tr[(B + B†)P]; the product of the returned
    pair (delta, nonclassical deviation) equals one half identically.
    """
    split = _ClassicalSplit(superop, basis, state)
    mean2 = 2.0 * np.real(_dot(split.v, split.ov))[..., None]
    diag = 2.0 * np.real(split.oamps * split.amps.conj()) - split.pops * mean2
    fisher = np.sum(split.per_population(diag**2), axis=-1)
    scale = np.real(_dot(split.ov, split.ov))
    if np.any(fisher <= 1e-24 * np.maximum(scale, 1e-300)):
        raise NumericalConsistencyError(
            "stationary populations; the sensitivity scale diverges"
        )
    return fisher**-0.5, split.nonclassical_speed()


def wootters_length(trace, liouvillian, basis):
    """Path length of the basis amplitude moduli along the trace.

    Simpson integral of the Wootters speed sqrt(sum_i (d|c_i|/dt)²) with
    c_i = (a_i|rho_t~). The speed comes exactly from the generator at each
    grid point, not from differences of the moduli, so the only error left
    is that of the quadrature, the same as for the averaged non-classical
    speed.
    """
    _odd_grid(len(trace))
    speeds = _ClassicalSplit(liouvillian, basis, trace.normalized).wootters_speed()
    return _simpson(speeds, trace.times)


def exact_qsl(trace, liouvillian, basis=None):
    """Full bound-and-equality report for a recorded trajectory."""
    theta = float(liouville_angle(trace.states[0], trace.states[-1]))
    if basis is None:
        basis = complete_basis(trace.normalized[0])
    _odd_grid(len(trace))
    split = _ClassicalSplit(liouvillian, basis, trace.normalized)
    avg = _time_average(np.sqrt(split.var), trace.times)
    avg_nc = _time_average(split.nonclassical_speed(), trace.times)
    length = _simpson(split.wootters_speed(), trace.times)
    norm = operator_norm(liouvillian)
    return QslReport(
        T=float(trace.times[-1] - trace.times[0]),
        theta=theta,
        wootters_length=length,
        avg_speed=avg,
        avg_nc_speed=avg_nc,
        bound_mt=_bound_ratio(theta, avg),
        bound_nc=_bound_ratio(theta, avg_nc),
        exact_time=_bound_ratio(length, avg_nc),
        bound_opnorm=_bound_ratio(theta, norm),
        bound_hsnorm=_bound_ratio(theta, float(np.linalg.norm(liouvillian))),
        efficiency=_bound_ratio(avg, norm),
    )


def uncertainty_product(a_superop, b_superop, state):
    """Variance product and squared covariance of two superoperators.

    Returns (lhs, rhs) = ((ΔA)²(ΔB)², |tr(A†BP) - tr(A†P)tr(BP)|²) with
    P the projector onto the state vector; lhs ≥ rhs always.
    """
    v, av = _apply(a_superop, state)
    _, bv = _apply(b_superop, state)
    lhs = _variance(v, av) * _variance(v, bv)
    cov = _dot(av, bv) - np.conj(_dot(v, av)) * _dot(v, bv)
    return float(lhs), float(abs(cov) ** 2)
