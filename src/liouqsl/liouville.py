"""Liouville-space representation of operators and states.

A d x d operator A = sum_ij a_ij |i><j| is flattened by column stacking
into the vector |A) = sum_ij a_ij |j> kron |i> of length d^2, so that
entry A[i, j] sits at flat index d*j + i. The inner product is the
Hilbert-Schmidt one, (A|B) = tr(A^+ B). Under this convention the
operator product A B C vectorizes as (C^T kron A)|B), which is how all
superoperators in this package are assembled.

Density matrices enter most formulas through the normalized vector
|rho~) = |rho)/sqrt(tr rho^2), whose projector P = |rho~)(rho~| carries
expectation values tr(O P) = (rho~|O|rho~) of superoperators O.

Vectorization, validation, normalization, angles and variances act on
the last one (vectors) or two (matrices) axes, so a (T, d, d) stack of
states along a trajectory goes through the same code as a single state.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NumericalConsistencyError, ValidationError

__all__ = [
    "vectorize",
    "devectorize",
    "rehermitize",
    "validate_density_matrix",
    "NormalizedState",
    "normalize_state",
    "liouville_angle",
    "superop_expectation",
]

_BLOCK_BYTES = 1 << 19  # temporaries per block: the split's rows, a trace's validation


def vectorize(operator):
    """Column-stack a square operator (or a stack of them) into Liouville vectors."""
    a = np.asarray(operator, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (a.shape[-1] ** 2,))


def devectorize(vector):
    """Inverse of vectorize along the last axis; its length must be a square."""
    v = np.asarray(vector, dtype=complex)
    d = int(round(np.sqrt(v.shape[-1])))
    if d * d != v.shape[-1]:
        raise DimensionError(f"length {v.shape[-1]} is not a perfect square")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


@functools.lru_cache(maxsize=None)
def _hermitian_index(n):
    """Flat diagonal, upper, lower indices of d x d operators, n = d^2; else None.

    They fix the unitary basis B in which Hermitian matrices are real: |k><k|,
    then (|i><j| + |j><i|)/sqrt(2) and then i(|i><j| - |j><i|)/sqrt(2), i < j.
    """
    d = math.isqrt(n)
    if d * d == n:
        rows, cols = np.triu_indices(d, 1)
        return np.arange(d) * (d + 1), d * cols + rows, d * rows + cols


def _gather(v, sign=-1):
    """B^+ v (sign -1) or B^T v (sign +1) over the last axis of a complex v."""
    diagonal, upper, lower = _hermitian_index(v.shape[-1])
    a, b = (np.take(v, k, axis=-1) * np.sqrt(0.5) for k in (upper, lower))
    x = np.concatenate([np.take(v, diagonal, axis=-1), a + b, a - b], axis=-1)
    x[..., diagonal.size + upper.size :] *= sign * 1j
    return x


def _scatter(x, sign=1):
    """B x (sign +1) or conj(B) x (sign -1) over the last axis; inverts _gather."""
    re, im = (vectorize(_hermitian_matrices(part)) for part in (np.real(x), np.imag(x)))
    return re + 1j * im if sign > 0 else re.conj() + 1j * im.conj()


@functools.lru_cache(maxsize=None)
def _unfold_map(n):
    """Index into x and factor per float of B x; off-diagonal sqrt(0.5) as _gather."""
    diagonal, upper, lower = _hermitian_index(n)
    d, m, root = diagonal.size, upper.size, np.sqrt(0.5)
    index, scale = np.empty((n, 2), dtype=np.intp), np.zeros((n, 2))
    index[diagonal], scale[diagonal, 0] = np.arange(d)[:, None], 1.0
    index[upper] = index[lower] = d + np.arange(m)[:, None] + [0, m]
    scale[upper], scale[lower] = root, [root, -root]
    return index.ravel(), scale.ravel()


def _hermitian_matrices(x):
    """Exactly Hermitian devectorize(B x) of real x (..., n), a view of B x: one take
    from x into its float view, one multiply; the imaginary diagonal is x_k * 0."""
    index, scale = _unfold_map(x.shape[-1])
    f = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
    np.multiply(np.take(x, index, axis=-1, out=f, mode="wrap"), scale, out=f)
    return devectorize(f.view(complex))


def _real_part(a):
    """Contiguous a.real if max |Im a| <= 1e-14 max |a| (real-form test), else None."""
    if np.abs(a.imag).max(initial=0.0) <= 1e-14 * np.abs(a).max(initial=0.0):
        return np.ascontiguousarray(a.real)


def _real_form(superop):
    """Real B^+ S B if S acts on d x d operators and preserves Hermiticity."""
    if _hermitian_index(superop.shape[-1]) is not None:
        return _real_part(_gather(_gather(superop, 1).T).T)


def rehermitize(matrix):
    """Average a matrix with its adjoint; removes round-off skew."""
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def validate_density_matrix(rho, trace_tol=1e-10, *, _hermitian=False):
    """Check the structural requirements on a density matrix or a stack of them.

    Raises DimensionError for an empty or non-square rho; else ValidationError
    when an entry is not finite, the trace deviates from one beyond trace_tol,
    hermiticity is violated beyond 1e-10, or the smallest eigenvalue of the
    Hermitian part H lies below -1e-10. For a stack the error describes the
    first failing state, and its index attribute holds that state's flat index
    over the leading axes.

    Positivity is certified by the Cholesky factorization of H + 1e-10 * 1,
    which exists iff every such eigenvalue is above the floor: for d = 2 by its
    pivots a = Re h_00 + 1e-10 > 0 and a (Re h_11 + 1e-10) - |h_01|^2 > 0, in
    closed form over the stack, else by one stacked LAPACK call. For a stack
    not certified eigvalsh alone decides and names the first failing state.
    _hermitian skips the skew of an exactly Hermitian rho.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2] or not r.size:
        raise DimensionError(f"expected a non-empty square matrix, got shape {r.shape}")
    d = r.shape[-1]
    r = r.reshape((-1, d, d))
    finite = np.isfinite(r).all(axis=(1, 2))
    if not finite.all():
        # check the rest with 1/d in its place, so an earlier failure is reported first
        r = np.where(finite[:, None, None], r, np.eye(d) / d)
    trace_defect = np.abs(np.trace(r, axis1=1, axis2=2) - 1.0)
    h, herm_defect = r, np.zeros(r.shape[0])
    if not _hermitian:
        skew = r - np.swapaxes(r, 1, 2).conj()
        h, herm_defect = r - 0.5 * skew, np.abs(skew).max(axis=(1, 2))
    ok = finite & (trace_defect <= trace_tol) & (herm_defect <= 1e-10)
    certified = True
    if d == 2:  # the two Cholesky pivots of H + 1e-10 * 1, in closed form
        a, c, b = h[:, 0, 0].real + 1e-10, h[:, 1, 1].real + 1e-10, h[:, 0, 1]
        with np.errstate(over="ignore", invalid="ignore"):  # entries may overflow
            certified = ((a > 0) & (a * c - (b.real**2 + b.imag**2) > 0)).all()
    else:
        try:
            np.linalg.cholesky(h + 1e-10 * np.eye(d))
        except np.linalg.LinAlgError:
            certified = False
    if not certified:
        lowest = np.linalg.eigvalsh(h).min(axis=1)
        ok &= lowest >= -1e-10
    if ok.all():
        return
    k = int(np.argmin(ok))
    if not finite[k]:
        message = "non-finite entry"
    elif trace_defect[k] > trace_tol:
        message = f"trace deviates from 1 by {trace_defect[k]:.3e}"
    elif herm_defect[k] > 1e-10:
        message = f"hermiticity defect {herm_defect[k]:.3e}"
    else:
        message = f"negative eigenvalue {lowest[k]:.3e}"
    err = ValidationError(message)
    err.index = k
    raise err


@dataclass
class NormalizedState:
    """Unit Liouville vector of a state together with its purity.

    vector is |rho~) = vec(rho)/sqrt(tr rho^2) and purity is tr(rho^2)
    of the state it came from. A stack of states has vector of shape
    (..., d^2) and purity of shape (...); indexing it with [k] gives the
    k-th state.
    """

    vector: np.ndarray
    purity: float

    def __getitem__(self, k):
        return NormalizedState(vector=self.vector[k], purity=self.purity[k])


def _dot(a, b):
    """Row-wise inner product (a|b) over the last axis; a real a is not copied."""
    return np.einsum("...i,...i->...", a.conj() if np.iscomplexobj(a) else a, b)


def normalize_state(rho):
    """Build the NormalizedState of a density matrix or a stack of them."""
    v = vectorize(rho)
    purity = _dot(v, v).real
    if not np.all(np.isfinite(purity) & (purity > 0.0)):
        raise ValidationError("state has non-positive purity")
    return NormalizedState(vector=v / np.sqrt(purity)[..., None], purity=purity)


def _unit_angle(a, b):
    """Angle 2 arcsin(|a~ - b~|/2) of a~ = a/|a| and b~ = b/|b|, over the last axis.

    Equals arccos Re(a~|b~) but keeps full relative accuracy as the angle
    goes to zero, where the cosine no longer resolves it.
    """
    a, b = (v / np.sqrt(_dot(v, v).real)[..., None] for v in (a, b))
    return 2.0 * np.arcsin(np.minimum(0.5 * np.linalg.norm(a - b, axis=-1), 1.0))


def liouville_angle(rho_a, rho_b):
    """Angle between two states in Liouville space.

    Theta = arccos[ Re(rho_a|rho_b) / sqrt((rho_a|rho_a)(rho_b|rho_b)) ],
    which is tr(rho_a rho_b)/sqrt(tr rho_a^2 tr rho_b^2) for Hermitian
    states, evaluated as the chord form _unit_angle of the two unit
    vectors so that small angles stay accurate. Symmetric in its
    arguments and zero iff the states coincide up to normalization.
    Stacks of states broadcast against each other and give an array.
    """
    a, b = vectorize(rho_a), vectorize(rho_b)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError("states of different dimension")
    pa, pb = _dot(a, a).real, _dot(b, b).real
    if not np.all(np.isfinite(pa) & (pa > 0.0) & np.isfinite(pb) & (pb > 0.0)):
        raise ValidationError("state has non-positive purity")
    return _unit_angle(a, b)


def _kron(a, b):
    """a ⊗ b of square matrices by one broadcast; numpy's kron bit for bit."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _operands(superop, state, dtype=complex):
    """(v, O) for the vector(s) v of a NormalizedState or an array; O complex."""
    if isinstance(state, NormalizedState):
        state = state.vector
    v = np.asarray(state, dtype=dtype)
    o = np.asarray(superop, dtype=complex)
    n = v.shape[-1]
    if o.shape != (n, n):
        raise DimensionError(f"superoperator shape {o.shape} does not act on dim {n}")
    return v, o


def _apply(superop, state):
    """(v, O v) for the unit vector(s) v of a NormalizedState or an array."""
    v, o = _operands(superop, state)
    return v, v @ o.T


def _variance(v, ov):
    """|O v|^2 - |(v|O v)|^2 per unit vector v; the squared speed for O = L.

    Round-off down to -1e-10 is clamped to zero; anything lower raises.
    """
    value = _dot(ov, ov).real - np.abs(_dot(v, ov)) ** 2
    low = np.min(value)
    if low < -1e-10:
        raise NumericalConsistencyError(f"variance {low:.3e} below floor -1e-10")
    return np.maximum(value, 0.0)


def superop_expectation(superop, state):
    """Expectation (rho~|O|rho~) = tr(O P) of a superoperator, per state."""
    return _dot(*_apply(superop, state))
