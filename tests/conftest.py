import numpy as np

import liouqsl as lq


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def rand_spec(rng, dim, jumps=2):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2
    ops = []
    for _ in range(jumps):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m /= np.linalg.norm(m)
        ops.append((rng.uniform(0.2, 1.0), m))
    return lq.LindbladSpec(hamiltonian=h, jumps=ops)


def rand_rho(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    r = m @ m.conj().T
    return r / np.trace(r).real


def rand_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def rand_hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2


def rotated_state(rng, dim, lam):
    """U diag(1 - lam, lam, 0, ...) U^+ for a random unitary U."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(m)
    p = np.zeros(dim)
    p[:2] = 1.0 - lam, lam
    return (u * p) @ u.conj().T
