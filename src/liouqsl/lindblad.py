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
from .liouville import sandwich_superop

__all__ = [
    "LindbladSpec",
    "LiouvillianParts",
    "commutator_superop",
    "build_liouvillian",
    "kraus_to_superop",
]

_HERM_TOL = 1e-12


def _checked_hamiltonian(hamiltonian):
    """The Hamiltonian as a complex array if square, non-empty, finite, Hermitian."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise DimensionError(f"hamiltonian must be square and non-empty, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("hamiltonian has non-finite entries")
    if np.abs(h - h.conj().T).max() > _HERM_TOL:
        raise ValidationError("hamiltonian is not Hermitian")
    return h


@dataclass
class LindbladSpec:
    """Hamiltonian plus a list of (rate, jump operator) pairs."""

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
    reversible: np.ndarray
    irreversible: np.ndarray


def commutator_superop(hamiltonian):
    """Supermatrix 1 kron H - H^T kron 1 of X -> [H, X]."""
    h = np.asarray(hamiltonian, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return np.kron(eye, h) - np.kron(h.T, eye)


def build_liouvillian(spec):
    """Assemble the LiouvillianParts of a LindbladSpec."""
    d = spec.dim
    eye = np.eye(d, dtype=complex)
    lh = commutator_superop(spec.hamiltonian)
    ld = np.zeros((d * d, d * d), dtype=complex)
    for rate, op in spec.jumps:
        opdop = op.conj().T @ op
        ld += rate * (
            np.kron(op.conj(), op)
            - 0.5 * (np.kron(eye, opdop) + np.kron(opdop.T, eye))
        )
    full = -1j * lh + ld
    reversible = lh + 0.5j * (ld - ld.conj().T)
    irreversible = 0.5 * (ld + ld.conj().T)
    return LiouvillianParts(
        full=full,
        hermitian_generator=lh,
        dissipative=ld,
        reversible=reversible,
        irreversible=irreversible,
    )


def kraus_to_superop(kraus):
    """Supermatrix sum_i K_i* kron K_i of a list of Kraus operators."""
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ValidationError("empty Kraus set")
    if any(k.shape != ops[0].shape for k in ops):
        raise DimensionError("Kraus operators of inconsistent shape")
    return sum(sandwich_superop(k, k.conj().T) for k in ops)
