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
    "apply_dissipator",
    "KrausSet",
    "kraus_to_superop",
    "kraus_from_lindblad_step",
]

_HERM_TOL = 1e-12


@dataclass
class LindbladSpec:
    """Hamiltonian plus a list of (rate, jump operator) pairs."""

    hamiltonian: np.ndarray
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"hamiltonian must be square, got {h.shape}")
        if not np.isfinite(h).all():
            raise ValidationError("hamiltonian has non-finite entries")
        if np.abs(h - h.conj().T).max() > _HERM_TOL:
            raise ValidationError("hamiltonian is not Hermitian")
        self.hamiltonian = h
        d = h.shape[0]
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


def apply_dissipator(spec, rho):
    """Dissipative part of drho/dt in matrix form.

    Returns sum_k g_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2); agrees with
    devectorize(dissipative @ vec(rho)).
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (spec.dim, spec.dim):
        raise DimensionError("state does not match the spec dimension")
    out = np.zeros_like(r)
    for rate, op in spec.jumps:
        opdop = op.conj().T @ op
        out += rate * (op @ r @ op.conj().T - 0.5 * (opdop @ r + r @ opdop))
    return out


@dataclass
class KrausSet:
    """Kraus operators of a channel with their completeness defect.

    completeness_defect = max |sum_i K_i^+ K_i - 1|; zero for an exactly
    trace-preserving channel.
    """

    operators: list
    completeness_defect: float = None

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.operators]
        if not ops:
            raise ValidationError("empty Kraus set")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimensionError("Kraus operators of inconsistent shape")
        self.operators = ops
        acc = sum(k.conj().T @ k for k in ops)
        self.completeness_defect = float(np.abs(acc - np.eye(d)).max())


def kraus_to_superop(kraus):
    """Supermatrix sum_i K_i* kron K_i of a Kraus set or operator list."""
    ops = kraus.operators if isinstance(kraus, KrausSet) else list(kraus)
    return sum(sandwich_superop(k, k.conj().T) for k in ops)


def kraus_from_lindblad_step(spec, dt):
    """First-order Kraus representation of exp(L dt).

    K_0 = 1 + (-iH - sum_k g_k L_k^+ L_k / 2) dt and K_k = sqrt(g_k dt) L_k.
    The completeness defect of the result is O(dt^2).
    """
    if not 0.0 <= dt < np.inf:
        raise ValidationError(f"time step {dt} is not nonnegative and finite")
    d = spec.dim
    drift = -1j * spec.hamiltonian.astype(complex)
    for rate, op in spec.jumps:
        drift -= 0.5 * rate * (op.conj().T @ op)
    ops = [np.eye(d, dtype=complex) + drift * dt]
    ops += [np.sqrt(rate * dt) * op for rate, op in spec.jumps if rate > 0.0]
    return KrausSet(operators=ops)
