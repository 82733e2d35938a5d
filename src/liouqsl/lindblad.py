"""Lindblad generators and their Liouville-space supermatrices.

A master equation drho/dt = -i[H, rho] + sum_k g_k (L_k rho L_k^+
- {L_k^+ L_k, rho}/2) is captured by a LindbladSpec. build_liouvillian
turns it into the supermatrix

    L = -i (1 kron H - H^T kron 1)
        + sum_k g_k [ L_k* kron L_k
                      - (1 kron L_k^+ L_k + (L_k^+ L_k)^T kron 1)/2 ]

acting on column-stacked states. The same object also carries two
useful splits: the Hamiltonian/dissipative split above, and the
reversible/irreversible one L = -i L_plus + L_minus with L_plus
Hermitian (purity preserving) and L_minus = (L_D + L_D^+)/2.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError
from .liouville import _kron, rehermitize

__all__ = [
    "LindbladSpec",
    "LiouvillianParts",
    "commutator_superop",
    "build_liouvillian",
]

_HERM_TOL = 1e-12


def _checked_hamiltonian(hamiltonian):
    """Exact Hermitian part of H if square, non-empty, finite, skewed <= 1e-12."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise DimensionError(f"hamiltonian must be square and non-empty, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("hamiltonian has non-finite entries")
    if np.abs(h - h.conj().T).max() > _HERM_TOL:
        raise ValidationError("hamiltonian is not Hermitian")
    return rehermitize(h)


@dataclass
class LindbladSpec:
    """Hamiltonian plus a list of (rate, jump operator) pairs.

    The Hamiltonian is stored as its exact Hermitian part, so every
    generator built from it preserves Hermiticity to rounding, and -1j L_H
    takes the hermitian route of spectral_decompose, the eigh of H itself.
    """

    hamiltonian: np.ndarray
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        self.hamiltonian = _checked_hamiltonian(self.hamiltonian)
        d = self.dim
        cleaned = []
        for rate, op in self.jumps:
            rate = float(rate)
            if not 0.0 <= rate < np.inf:
                raise ValidationError(f"jump rate {rate} is not nonnegative and finite")
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise DimensionError(
                    f"jump operator shape {op.shape} does not match dim {d}"
                )
            if not np.isfinite(op).all():
                raise ValidationError("jump operator has non-finite entries")
            cleaned.append((rate, op))
        if len(cleaned) > d * d - 1:
            raise ValidationError(
                f"{len(cleaned)} jump operators exceed the d^2-1 = {d * d - 1} maximum"
            )
        self.jumps = cleaned

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


@dataclass
class LiouvillianParts:
    """Supermatrix of a Lindblad generator and its standard splits.

    full = -i*hermitian_generator + dissipative, and equivalently
    full = -i*reversible + irreversible with reversible Hermitian.
    """

    full: np.ndarray
    hermitian_generator: np.ndarray
    dissipative: np.ndarray

    @property
    def reversible(self):
        ld = self.dissipative
        return self.hermitian_generator + 0.5j * (ld - ld.conj().T)

    @property
    def irreversible(self):
        return 0.5 * (self.dissipative + self.dissipative.conj().T)


def _add_identity_krons(out, left, right, scale):
    """out += scale (1 kron left + right^T kron 1) on its nonzeros, bit for bit."""
    d, eye = left.shape[0], np.eye(left.shape[0])
    blocks = out.reshape(d, d, d, d)  # out[p, i, q, j]; einsum gives writable diagonals
    first, second = np.einsum("pipj->pij", blocks), np.einsum("piqi->ipq", blocks)
    second += scale * (right.T * (1.0 - eye))
    first += scale * (left + eye * right.diagonal()[:, None, None])
    return out


def commutator_superop(hamiltonian):
    """Supermatrix 1 kron H - H^T kron 1 of X -> [H, X]."""
    h = np.asarray(hamiltonian, dtype=complex)
    return _add_identity_krons(np.zeros((h.size, h.size), dtype=complex), h, -h, 1.0)


def build_liouvillian(spec):
    """Assemble the LiouvillianParts of a LindbladSpec."""
    d = spec.dim
    lh = commutator_superop(spec.hamiltonian)
    ld = np.zeros((d * d, d * d), dtype=complex)
    for rate, op in spec.jumps:
        opdop = op.conj().T @ op
        ld += rate * _add_identity_krons(_kron(op.conj(), op), opdop, opdop, -0.5)
    return LiouvillianParts(full=-1j * lh + ld, hermitian_generator=lh, dissipative=ld)
