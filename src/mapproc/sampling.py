"""Seeded random states, unitaries and measurements.

Everything takes an explicit seed or numpy Generator so simulations are
reproducible by construction.
"""

from __future__ import annotations

import numpy as np


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_pure_state(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_operator(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Full-rank random density operator (normalized Ginibre G G^dagger)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_rank_one_measurement(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Random ordered orthonormal-basis measurement: (d, d, d) stack of rank-1 projectors."""
    u = haar_unitary(dim, seed)
    return np.einsum("ik,jk->kij", u, u.conj())
