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
    "sandwich_superop",
    "superop_expectation",
    "superop_variance",
]


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


def _hermitian_basis(d):
    """Unitary (d^2, d^2) matrix whose columns vectorize a basis of Hermitian matrices.

    The columns are |i><i| for each i, then (|i><j| + |j><i|)/sqrt(2) and
    i(|i><j| - |j><i|)/sqrt(2) for each i < j; they are orthonormal under
    the trace inner product. A Hermitian operator has real coordinates
    B^+ |A), and a Hermiticity-preserving superoperator S is a real matrix
    B^+ S B.
    """
    n = d * d
    rows, cols = np.triu_indices(d, 1)
    upper, lower = d * cols + rows, d * rows + cols
    sym = d + np.arange(rows.size)
    anti = sym + rows.size
    basis = np.zeros((n, n), dtype=complex)
    basis[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    basis[upper, sym] = basis[lower, sym] = np.sqrt(0.5)
    basis[upper, anti] = 1j * np.sqrt(0.5)
    basis[lower, anti] = -1j * np.sqrt(0.5)
    return basis


def rehermitize(matrix):
    """Average a matrix with its adjoint; removes round-off skew."""
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def validate_density_matrix(rho, trace_tol=1e-10):
    """Check the structural requirements on a density matrix or a stack of them.

    Raises ValidationError when the trace deviates from one beyond
    trace_tol, hermiticity is violated beyond 1e-10, or the smallest
    eigenvalue of the Hermitian part lies below -1e-10. For a stack
    the error describes the first failing state, and its index attribute
    holds that state's flat index over the leading axes.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {r.shape}")
    r = r.reshape((-1,) + r.shape[-2:])
    trace_ok = np.abs(np.trace(r, axis1=1, axis2=2) - 1.0) <= trace_tol
    herm_ok = np.abs(r - np.swapaxes(r, 1, 2).conj()).max(axis=(1, 2)) <= 1e-10
    lowest = np.linalg.eigvalsh(rehermitize(r)).min(axis=1)
    ok = trace_ok & herm_ok & (lowest >= -1e-10)
    if ok.all():
        return
    k = int(np.argmin(ok))
    if not trace_ok[k]:
        message = f"trace deviates from 1 by {abs(np.trace(r[k]) - 1.0):.3e}"
    elif not herm_ok[k]:
        message = f"hermiticity defect {np.abs(r[k] - r[k].conj().T).max():.3e}"
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
    """Row-wise inner product (a|b) over the last axis."""
    return np.einsum("...i,...i->...", a.conj(), b)


def normalize_state(rho):
    """Build the NormalizedState of a density matrix or a stack of them."""
    v = vectorize(rho)
    purity = _dot(v, v).real
    if not np.all(np.isfinite(purity) & (purity > 0.0)):
        raise ValidationError("state has non-positive purity")
    return NormalizedState(vector=v / np.sqrt(purity)[..., None], purity=purity)


def _unit_angle(a, b):
    """Angle between unit Liouville vectors, 2 arcsin(|a - b|/2), over the last axis.

    Equals arccos Re(a|b) but keeps full relative accuracy as the angle
    goes to zero, where the cosine no longer resolves it.
    """
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
    a = vectorize(rho_a)
    b = vectorize(rho_b)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError("states of different dimension")
    pa = _dot(a, a).real
    pb = _dot(b, b).real
    if np.any(pa <= 0.0) or np.any(pb <= 0.0):
        raise ValidationError("state has non-positive purity")
    return _unit_angle(a / np.sqrt(pa)[..., None], b / np.sqrt(pb)[..., None])


def sandwich_superop(left, right):
    """Superoperator of X -> left @ X @ right.

    Returns right^T kron left, so that applying it to vec(X) yields
    vec(left X right).
    """
    l = np.asarray(left, dtype=complex)
    r = np.asarray(right, dtype=complex)
    if l.shape != r.shape or l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise DimensionError("factors must be square matrices of equal dimension")
    return np.kron(r.T, l)


def _apply(superop, state):
    """(v, O v) for the unit vector(s) v of a NormalizedState or an array."""
    if isinstance(state, NormalizedState):
        state = state.vector
    v = np.asarray(state, dtype=complex)
    o = np.asarray(superop, dtype=complex)
    n = v.shape[-1]
    if o.shape != (n, n):
        raise DimensionError(f"superoperator shape {o.shape} does not act on dim {n}")
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


def superop_variance(superop, state):
    """Variance tr(O^+ O P) - tr(O^+ P) tr(O P) of a superoperator.

    Equals ||O v||^2 - |(v|O|v)|^2 for the unit vector v; a stacked state
    gives one value per state. Negative round-off down to -1e-10 is
    clamped to zero; a lower value raises NumericalConsistencyError.
    """
    return _variance(*_apply(superop, state))
