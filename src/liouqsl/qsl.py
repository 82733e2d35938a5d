"""Speed-limit functionals on Liouville-space trajectories.

Everything here works on the unit vector |rho)/sqrt(tr rho^2) and a
supermatrix generator. The pieces: the evolution speed (standard
deviation of the generator on the current unit vector) and its
unitary/dissipative decomposition, time-averaged Mandelstam-Tamm type
bounds with operator-norm and Hilbert-Schmidt relaxations, a split of
the generator into a part diagonal in a fixed orthonormal basis and its
non-classical remainder, a Wootters-style length of the basis amplitude
moduli, and the exact-time relation length / averaged non-classical
speed. The basis, anchored at the initial state and never re-derived along
the trajectory, is Gram-Schmidt over the initial unit vector and then the
unit vectors e_j in index order, dropping the first within 1e-8 of the span,
in closed form: orthonormal by construction, so it skips BasisSet's Gram check.

The length integrates the rate of change of the amplitude moduli, taken
from the generator on the same basis amplitudes as the non-classical
speed. The two integrands agree point by point, so the exact time
recovers the horizon to rounding, not only to quadrature error. One pass
over blocks of states of about 512 KB of temporaries gives both: one
product with the fused [M | L_r^T M] gives the amplitudes of u and L u in
amplitude-major slabs, Parseval the speed. On a trace u = x/sqrt(p), L_r = B^+ L B.

The per-state functionals (speed, non-classical speed, classical part, exact
uncertainty) take any superoperator and a single NormalizedState or a stacked
one, such as normalize_state(trace.states), and return one value per state.
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
from .liouville import _BLOCK_BYTES, _apply, _dot, _gather, _hermitian_matrices
from .liouville import _operands, _real_form, _real_part, _unit_angle, _variance
from .liouville import _floored, normalize_state
from .spectral import _slot

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
    """Composite Simpson integral over the last axis of y on an odd grid x.

    A port of scipy's simpson for an odd number of points: each
    pair of intervals (h0, h1) gets the parabola through its three
    samples. Operations and their order follow scipy's, so the result is
    the same to the last bit; a stack of rows gives one integral per row.
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
            y[..., :-2:2] * (2.0 - 1.0 / ratio)
            + y[..., 1:-1:2] * (hsum * (hsum / (h0 * h1)))
            + y[..., 2::2] * (2.0 - ratio)
        )
    )
    return np.sum(panels, axis=-1)


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
    """Uniform Simpson grid of points times on [0, horizon], horizon finite > 0.

    The step h must have h^2 a normal float: Simpson's middle weight divides
    by it, and a subnormal or infinite h^2 gives wrong or NaN time averages.
    """
    _odd_grid(points)
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    step = horizon / (points - 1)
    if not np.finfo(float).tiny <= step * step < np.inf:
        raise ValidationError(
            f"horizon {horizon:g} gives a step {step:g} whose square is not a normal float"
        )
    return np.linspace(0.0, horizon, points)


def _one_trajectory(array):
    """Raise ValidationError when a state (d, d) or coordinates (T, n) are stacked."""
    if np.ndim(array) > 2:
        raise ValidationError(f"expected one trajectory, got a stack of {len(array)}")


def _bound_ratio(numerator, denominator):
    """Every ratio of the bound chain: a distance or a speed over a speed or a norm.

    Elementwise over broadcast arrays; scalars give a float. A vanishing
    denominator gives 0 against a vanishing numerator, as for a stationary
    state or a zero generator, and raises when any numerator is finite.
    """
    num, den = np.broadcast_arrays(np.asarray(numerator, float), denominator)
    vanishing = den < 1e-14 * np.maximum(num, 1.0)
    finite = vanishing & ~(num < _ANGLE_FLOOR)
    if finite.any():
        raise NumericalConsistencyError(
            f"vanishing speed or norm against a finite numerator {num[finite][0]:.3e}"
        )
    ratio = np.divide(num, den, out=np.zeros(num.shape), where=~vanishing)
    return ratio if ratio.ndim else float(ratio)


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
    return _variance(v, hv), _variance(v, dv), cross


def _trace_real_form(trace, liouvillian):
    """B^+ L B, from trace.modes or spectral's slot if either holds L, else built."""
    if getattr(trace.modes, "generator", None) is liouvillian:
        return trace.modes.real_form
    _, o = _operands(liouvillian, trace.coordinates, float)
    real = hit.real_form if (hit := _slot(o)) is not None else _real_form(o)
    if real is None:
        raise ValidationError("generator does not preserve Hermiticity")
    return real


def _trace_speed(trace, liouvillian):
    """Speed column of a trace: that of u = x/sqrt(p) under B^+ L B."""
    u = trace.coordinates / np.sqrt(trace.purity)[..., None]
    return np.sqrt(_variance(u, u @ _trace_real_form(trace, liouvillian).T))


def average_speed(trace, liouvillian):
    """Simpson time average of the speed along the trace, per trajectory of a stack."""
    _odd_grid(len(trace))
    return _time_average(_trace_speed(trace, liouvillian), trace.times)


def operator_norm(superop):
    """Largest singular value, sqrt(max eig A^+ A); a complex A on its real form."""
    a = np.atleast_2d(superop)
    a = real if np.iscomplexobj(a) and (real := _real_form(a)) is not None else a
    return float(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[-1]))


def complete_basis(state):
    """Gram-Schmidt over the state vector v and then e_0, e_1, ..., in closed form.

    With p_k = |v_k|², s_j² = sum_{k>=j} p_k and j* the first j with
    s_{j+1} < 1e-8 s_j, e_j* is dropped and every other e_j gives q_j with
    q_j[j] = r_{j+1}/r_j and q_j[k] = -v_k conj(v_j)/(r_j r_{j+1}) for k > j,
    and for k = j* if j > j*, where r_k² = s_k² + p_j* [k > j*].
    """
    v = state.vector / np.linalg.norm(state.vector)
    n, p = v.size, np.abs(v) ** 2
    s2 = np.append(np.cumsum(p[::-1])[::-1], 0.0)
    skip = int(np.argmax(np.sqrt(s2[1:]) < 1e-8 * np.sqrt(s2[:-1])))
    r = np.sqrt(s2 + p[skip] * (np.arange(n + 1) > skip))
    below = np.tri(n, k=-1, dtype=bool)
    below[skip, skip + 1 :] = True
    q = np.where(below, -np.outer(v, v.conj() / (r[:-1] * r[1:])), 0j)
    q[np.diag_indices(n)] = r[1:] / r[:-1]
    basis = BasisSet.__new__(BasisSet)  # orthonormal by construction: no Gram check
    basis.vectors = np.column_stack([v, np.delete(q, skip, axis=1)])
    return basis


class _ClassicalSplit:
    """Per-state columns of the split of a superoperator O in a fixed basis.

    With c_i = (a_i|v), c'_i = (a_i|O v) and p_i = |c_i|², directions with
    p_i < 1e-14 are dropped; beta_i = Im(c'_i c_i*)/p_i, 0 where dropped, and
    g_i = Re(c'_i c_i*) - mean p_i = |c_i| d|c_i|/dt. Columns: var (squared speed),
    nc, wootters = sqrt(sum_i (d|c_i|/dt)²), fisher = 4 sum_kept g_i²/p_i, scale =
    |O v|², mean = Re(v|O v), and beta on request. With the real form B^+ O B = O_r
    (real_form, or built here) and Hermitian v, the stack takes x = B^+ v, else
    complex coordinates. Each block of about _BLOCK_BYTES takes c and c' from one
    product with [M | O_r^T M], M = B^T conj(A) (complex: [conj A | O^T conj A]), as
    amplitude-major (n, b) slabs Re c, Re c', Im c, Im c'. mean, scale and var =
    scale - |sum_i c'_i c_i*|² follow by Parseval: for a unit v, a basis with Gram
    defect delta = ||A^+ A - 1||_2 moves them by at most delta |O v|, delta |O v|²
    and (3 delta + delta²) |O v|². Given purity, state holds raw coordinates
    B^+ vec(rho) instead, real_form is required, and x is each over sqrt(purity).
    """

    def __init__(self, superop, basis, state, beta=False, real_form=None, purity=None):
        v, o = _operands(superop, state, complex if purity is None else float)
        lead, n = v.shape[:-1], v.shape[-1]
        v, m = v.reshape(-1, n), basis.vectors.conj().T
        self.real_form = _real_form(o) if real_form is None else real_form
        root = None if purity is None else np.sqrt(purity).reshape(-1, 1)
        if root is None and self.real_form is not None:
            v = x if (x := _real_part(_gather(v))) is not None else v
        self.real = not np.iscomplexobj(v)
        if self.real:
            o, m = self.real_form, _gather(m, 1)
            m = np.stack([m.real, m.imag])
        fused = np.stack([m, m @ o], axis=-3).reshape(-1, n)
        self.beta = np.zeros(lead + (n,)) if beta else None
        self.columns, rows = np.empty((6, len(v))), max(1, _BLOCK_BYTES // (32 * n))
        for s in range(0, len(v), rows):
            x = v[s : s + rows]
            x = x if root is None else x / root[s : s + rows]
            b, amps = len(x), fused @ x.T
            if not self.real:
                amps = np.stack([amps.real, amps.imag])
            cr, dr, ci, di = amps = amps.reshape(4, n, b)
            re, im = dr * cr + di * ci, di * cr - dr * ci
            mean, scale = re.sum(0), np.einsum("kij,kij->j", amps[1::2], amps[1::2])
            var = _floored(scale - mean * mean - im.sum(0) ** 2)
            pops = cr * cr + ci * ci
            keep = pops >= _POP_FLOOR
            inv = keep / np.maximum(pops, _POP_FLOOR)
            beta, g = im * inv, re - mean * pops
            kept = np.einsum("ij,ij->j", g * inv, g)
            bp = np.einsum("ij,ij->j", beta, pops)
            var_cl = np.einsum("ij,ij->j", beta * beta, pops) - bp * bp
            # a dropped direction takes the one-sided limit |c'_i - Re(v|O v) c_i|²
            i, j = np.divmod(np.flatnonzero(~keep), b)
            rate = dr[i, j] + 1j * di[i, j] - mean[j] * (cr[i, j] + 1j * ci[i, j])
            dropped = np.bincount(j, np.abs(rate) ** 2, minlength=b)
            nc = np.sqrt(np.maximum(var - var_cl, 0.0))
            cols = var, nc, np.sqrt(kept + dropped), 4.0 * kept, scale, mean
            self.columns[:, s : s + b] = cols
            if self.beta is not None:
                self.beta.reshape(-1, n)[s : s + b] = beta.T
        self.var, self.nc, self.wootters, self.fisher, self.scale, self.mean = (
            c.reshape(lead)[()] for c in self.columns
        )


def classical_part(liouvillian, basis, state):
    """Component of the generator diagonal in the basis.

    Sum of |a_i)((a_i| (a_i|C|a_i)/(a_i|P|a_i) with C = (L P - P L†)/2
    and P the projector onto the state vector; basis directions with
    population below 1e-14 are dropped. The result is anti-Hermitian by
    construction; a detectable defect is reported, not assumed away.
    """
    beta = _ClassicalSplit(liouvillian, basis, state, beta=True).beta
    cols = basis.vectors
    out = (cols * 1j * beta[..., None, :]) @ cols.conj().T
    defect = np.abs(out + np.swapaxes(out, -1, -2).conj()).max()
    if defect > 1e-12:
        warnings.warn(
            f"classical part anti-Hermiticity defect {defect:.3e}", RuntimeWarning
        )
    return out


def nonclassical_speed(liouvillian, basis, state):
    """Speed of the non-diagonal remainder: sqrt(max(var - var_cl, 0))."""
    return _ClassicalSplit(liouvillian, basis, state).nc


def exact_uncertainty(superop, basis, state):
    """Population sensitivity scale and non-classical deviation of a superoperator.

    The scale delta obeys delta^{-2} = sum_i Re((a_i|G|a_i))² / (a_i|P|a_i)
    with G = B P + P B† - P tr[(B + B†)P]. The product of the returned
    pair (delta, nonclassical deviation) equals one half only where every
    population is at least 1e-14: a direction below that floor leaves the
    Fisher sum but not the deviation. On draw 1 of philox(137) in the tests
    (d = 3, mixed start, horizon 1e-3, 201 points) the first point after
    t = 0 has a smallest population of 7.0e-15 and the product is off by
    4.7e-5.
    """
    split = _ClassicalSplit(superop, basis, state)
    if np.any(split.fisher <= 1e-24 * np.maximum(split.scale, 1e-300)):
        raise NumericalConsistencyError(
            "stationary populations; the sensitivity scale diverges"
        )
    return split.fisher**-0.5, split.nc


def _trace_split(trace, liouvillian, basis=None):
    """_ClassicalSplit of x under _trace_real_form; basis defaults to one at rho_0."""
    if basis is None:
        start = _hermitian_matrices(trace.coordinates[0])  # the bits of trace.states[0]
        basis = complete_basis(normalize_state(start))
    real = _trace_real_form(trace, liouvillian)
    x = trace.coordinates
    return _ClassicalSplit(liouvillian, basis, x, real_form=real, purity=trace.purity)


def wootters_length(trace, liouvillian, basis):
    """Path length of the basis amplitude moduli along the trace.

    Simpson integral of the Wootters speed sqrt(sum_i (d|c_i|/dt)²) with
    c_i = (a_i|rho_t~). The speed comes exactly from the generator at each
    grid point, not from differences of the moduli, so the only error left
    is that of the quadrature, the same as for the averaged non-classical
    speed.
    """
    _odd_grid(len(trace))
    return _simpson(_trace_split(trace, liouvillian, basis).wootters, trace.times)


def exact_qsl(trace, liouvillian, basis=None):
    """Bound-and-equality report; takes B^+ L B from trace.modes or spectral's slot."""
    _one_trajectory(trace.coordinates)
    theta = float(_unit_angle(trace.coordinates[0], trace.coordinates[-1]))
    _odd_grid(len(trace))
    split = _trace_split(trace, liouvillian, basis)
    T = float(trace.times[-1] - trace.times[0])
    rows = np.stack([np.sqrt(split.var), split.nc, split.wootters])
    avg, avg_nc, length = _simpson(rows, trace.times) / [T, T, 1.0]
    norm, hs = operator_norm(split.real_form), float(np.linalg.norm(liouvillian))
    # in the report's order, so an error names the first failing ratio
    ratios = _bound_ratio(
        [theta, theta, length, theta, theta, avg], [avg, avg_nc, avg_nc, norm, hs, norm]
    )
    return QslReport(T, theta, length, avg, avg_nc, *ratios.tolist())


def uncertainty_product(a_superop, b_superop, state):
    """Variance product and squared covariance of two superoperators.

    Returns (lhs, rhs) = ((ΔA)²(ΔB)², |tr(A†BP) - tr(A†P)tr(BP)|²) with
    P the projector onto the state vector; lhs ≥ rhs always.
    """
    v, av = _apply(a_superop, state)
    _, bv = _apply(b_superop, state)
    lhs = _variance(v, av) * _variance(v, bv)
    cov = _dot(av, bv) - np.conj(_dot(v, av)) * _dot(v, bv)
    return lhs, abs(cov) ** 2
