"""Dense complex linear algebra for small quantum systems.

Operators are plain complex numpy arrays, states are 1-D complex arrays.
Subsystem ordering is data-first everywhere: in a product basis vector
|ab> the first factor's index a is the slow (most significant) index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Structural checks (unitarity, hermiticity, c*I) use an absolute max-norm
# tolerance.  Every construction in this package is exact at the dimensions
# it is used for, so it only absorbs float rounding.  Every tolerance in the
# package is a named module constant; the README's "Numerical notes" table
# lists each one with its value and what it decides.
ATOL = 1e-10

# sigma_0 = I, sigma_x, sigma_y, sigma_z as one (4, 2, 2) stack
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
_PAULI.setflags(write=False)


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix; index 0 is the 2x2 identity."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in 0..3, got {k}")
    return _PAULI[k].copy()


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor slow."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def bell_anchor() -> np.ndarray:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    return m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - dag(m))) <= tol)


def is_unitary(m: np.ndarray) -> bool:
    """True when m^dagger m equals the identity within ATOL (max-norm)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"is_unitary expects a square matrix, got shape {m.shape}")
    # entries of a unitary lie in the unit disc; refusing larger ones first
    # keeps huge finite entries from overflowing in the product
    if not np.abs(m).max() <= 1 + ATOL:
        return False
    return bool(np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= ATOL)


def is_density_operator(m: np.ndarray, tol: float = ATOL) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -tol."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1] or not _is_hermitian(m, tol):
        return False
    if abs(np.trace(m).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


@dataclass(frozen=True)
class BlochExpansion:
    """Pauli expansion ``h = scalar*I + vector . sigma`` of a Hermitian qubit operator."""

    scalar: float
    vector: np.ndarray

    def assemble(self) -> np.ndarray:
        return np.tensordot(np.append(self.scalar, self.vector), _PAULI, axes=1)


def bloch_expand(h: np.ndarray) -> BlochExpansion:
    """Expand a Hermitian 2x2 operator in the Pauli basis.

    scalar = Tr(h)/2 and vector_j = Tr(h sigma_j)/2, so reassembling is
    exact to rounding (within 1e-12).
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"bloch_expand expects a 2x2 operator, got shape {h.shape}")
    if not _is_hermitian(h, ATOL):
        raise ValueError("bloch_expand expects a Hermitian operator")
    scalar = 0.5 * np.trace(h).real
    vector = 0.5 * np.einsum("ij,kji->k", h, _PAULI[1:]).real
    return BlochExpansion(scalar=scalar, vector=vector)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (both Hermitian)."""
    evals = np.linalg.eigvalsh(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return 0.5 * float(np.sum(np.abs(evals)))
