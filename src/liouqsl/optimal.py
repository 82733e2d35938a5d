"""Time-optimal dissipative dynamics between orthogonal states.

Given orthogonal density matrices rho0 and rho0_perp sharing a spectrum,
the generator gamma (U* kron U - 1) with U rho0 U+ = rho0_perp drives the
state along the straight line P_t rho0 + (1 - P_t) rho0_perp; as U+ U = 1,
it is the Lindblad generator of the one jump sqrt(gamma) U with H = 0. For
the involutory U produced here the weight is P_t = (1 + exp(-2 gamma t))/2,
which reaches the equal mixture as t grows; the Mandelstam-Tamm type
bound is saturated along the whole path.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError
from .lindblad import LindbladSpec, build_liouvillian
from .liouville import validate_density_matrix

__all__ = [
    "GeodesicSpec",
    "optimal_liouvillian",
    "connecting_unitary",
    "relative_purity",
    "physicality_check",
]

_TOL = 1e-10


@dataclass
class GeodesicSpec:
    """Endpoint pair, decay rate, and connecting_unitary's involution between them."""

    rho0: np.ndarray
    rho0_perp: np.ndarray
    gamma: float
    unitary: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rho0 = np.asarray(self.rho0, dtype=complex)
        self.rho0_perp = np.asarray(self.rho0_perp, dtype=complex)
        validate_density_matrix(self.rho0)
        validate_density_matrix(self.rho0_perp)
        overlap = abs(np.trace(self.rho0 @ self.rho0_perp))
        if overlap > _TOL:
            raise ValidationError(f"endpoint overlap {overlap:.3e} exceeds {_TOL}")
        self.gamma = float(self.gamma)
        if not 0.0 < self.gamma < np.inf:
            raise ValidationError("gamma must be positive and finite")
        u = connecting_unitary(self.rho0, self.rho0_perp)
        if np.abs(u.conj().T @ u - np.eye(self.dim)).max() > _TOL:
            raise ValidationError("connecting matrix is not unitary")
        if np.abs(u @ self.rho0 @ u.conj().T - self.rho0_perp).max() > _TOL:
            raise ValidationError("unitary does not map rho0 onto rho0_perp")
        self.unitary = u

    @property
    def dim(self):
        return self.rho0.shape[0]


def optimal_liouvillian(gs):
    """Generator gamma (U* kron U - 1): build_liouvillian of the jump sqrt(gamma) U."""
    spec = LindbladSpec(np.zeros((gs.dim, gs.dim)), [(gs.gamma, gs.unitary)])
    return build_liouvillian(spec).full


def connecting_unitary(rho0, rho0_perp):
    """Involutory unitary swapping rho0 and rho0_perp.

    Both inputs are diagonalized, eigenvalues sorted descending; the two
    spectra must match within 1e-8 and the states must be orthogonal. The
    paired support vectors are exchanged and the orthogonal complement is
    left fixed, so U is Hermitian with U^2 = 1 and conjugation maps the
    states onto each other in both directions. A one-way eigenvector
    pairing would also map rho0 onto rho0_perp, but only the involution
    keeps the generated mixing path on the line between the endpoints.
    """
    a = np.asarray(rho0, dtype=complex)
    b = np.asarray(rho0_perp, dtype=complex)
    if abs(np.trace(a @ b)) > 1e-8:
        raise ValidationError("states are not orthogonal")
    wa, va = np.linalg.eigh(a)
    wb, vb = np.linalg.eigh(b)
    order = slice(None, None, -1)
    wa, va = wa[order], va[:, order]
    wb, vb = wb[order], vb[:, order]
    if np.abs(wa - wb).max() > 1e-8:
        raise ValidationError(
            "no connecting unitary: sorted spectra differ by "
            f"{np.abs(wa - wb).max():.3e}"
        )
    k = int(np.count_nonzero(wa > 1e-12))
    sa, sb = va[:, :k], vb[:, :k]
    return (
        sb @ sa.conj().T
        + sa @ sb.conj().T
        + np.eye(a.shape[0], dtype=complex)
        - sa @ sa.conj().T
        - sb @ sb.conj().T
    )


def relative_purity(rho0, trace):
    """tr(rho0 rho_t)/tr(rho0^2) at each grid point."""
    r0 = np.asarray(rho0, dtype=complex)
    p0 = np.real(np.trace(r0 @ r0))
    return np.real(np.einsum("ij,tji->t", r0, trace.states)) / p0


def physicality_check(rho0, trace):
    """Whether rho_t - P_t rho0 is positive semidefinite per grid point.

    P_t is the relative purity; a True flag means the remainder, rescaled
    by 1/(1 - P_t), is itself a physical state orthogonal-in-overlap to
    rho0's share of the mixture.
    """
    r0 = np.asarray(rho0, dtype=complex)
    rest = trace.states - relative_purity(rho0, trace)[:, None, None] * r0
    return np.linalg.eigvalsh(rest).min(axis=1) >= -1e-10
