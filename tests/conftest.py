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


# Independent references for the package's speed and generator checks, in
# plain numpy on unit Liouville vectors v (column-stacked, as in the package).


def variance(v, ov):
    """|O v|^2 - |(v|O v)|^2 over the last axis, one value per row."""
    norm2 = np.einsum("...i,...i->...", ov.conj(), ov).real
    mean = np.einsum("...i,...i->...", v.conj(), ov)
    return norm2 - abs(mean) ** 2


def superop_variance(superop, state):
    """Variance of a superoperator in a NormalizedState."""
    return variance(state.vector, state.vector @ superop.T)


def kraus_to_superop(kraus):
    """Supermatrix sum_i K_i* kron K_i of a list of Kraus operators."""
    return sum(np.kron(k.conj(), k) for k in kraus)


def generic_speed(trace, k):
    """Central-difference speed at interior grid point k, per trajectory of a stack."""
    unit = lq.normalize_state(trace.states[..., k - 1 : k + 2, :, :])
    vm, v, vp = np.moveaxis(unit.vector, -2, 0)
    return np.sqrt(variance(v, (vp - vm) / (trace.times[k + 1] - trace.times[k - 1])))


def kraus_trajectory_speed(family, rho0, t, h):
    """Speed at time t of the unit vector K_t v0 / |K_t v0| of a Kraus family
    K_t = family(t), by central differences with step h."""
    v0 = lq.normalize_state(rho0).vector

    def unit(tau):
        kv = kraus_to_superop(family(tau)) @ v0
        return kv / np.linalg.norm(kv)

    return np.sqrt(variance(unit(t), (unit(t + h) - unit(t - h)) / (2.0 * h)))
