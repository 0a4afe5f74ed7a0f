"""Dense complex linear algebra for small quantum systems.

Operators are plain complex numpy arrays, states are 1-D complex arrays.
Subsystem ordering is data-first everywhere: in a product basis vector
|ab> the first factor's index a is the slow (most significant) index.
"""

from __future__ import annotations

import operator

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


class InfeasibleError(ValueError):
    """The input is well formed, but the object it asks for cannot exist.

    The base of every refusal the CLI reports with exit 3.
    """


def _index(value, name: str) -> int:
    """``value`` as a Python int; booleans and non-integers raise ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _shape(element) -> tuple[int, ...] | None:
    """np.shape of one element, or None for a ragged nested sequence."""
    try:
        return np.shape(element)
    except ValueError:
        return None


def _stack_defect(ops) -> str:
    """Why ``ops``, which does not read as an (n, d, d) stack with n, d >= 1, is not one."""
    try:
        n = len(ops)
        first = _shape(ops[0]) if n else None
    except (TypeError, KeyError):  # a scalar, a 0-d array or a mapping
        return f"expected a sequence of (d, d) operators, got {ops!r}"
    if n == 0:
        return "expected at least one (d, d) operator"
    if not first or first[0] == 0:
        return "element 0 is not a (d, d) operator with d >= 1"
    d = first[0]
    i = next((i for i, e in enumerate(ops) if _shape(e) != (d, d)), None)
    if i is None:
        return "elements must be (d, d) operators of numbers in the float range"
    shape = _shape(ops[i])
    return f"element {i} has shape {'ragged' if shape is None else shape}, expected ({d}, {d})"


def _operator_stack(ops) -> np.ndarray:
    """``ops`` as one complex (n, d, d) array, n, d >= 1; otherwise ValueError naming the defect."""
    try:
        f = np.asarray(ops, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # entries that are no numbers, or no stack
        f = None
    if f is None or f.ndim != 3 or f.shape[1] != f.shape[2] or f.size == 0:
        raise ValueError(_stack_defect(ops))
    return f


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix; index 0 is the 2x2 identity."""
    k = _index(k, "Pauli index")
    if not 0 <= k <= 3:
        raise ValueError(f"Pauli index must be in 0..3, got {k}")
    return _PAULI[k].copy()


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _is_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """Per square matrix over the last two axes: within tol of its adjoint (NaN is not)."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol


def is_unitary(m: np.ndarray) -> bool:
    """True when m^dagger m equals the identity within ATOL (max-norm)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"is_unitary expects a square matrix, got shape {m.shape}")
    # entries of a unitary lie in the unit disc; refusing larger ones first
    # keeps huge finite entries from overflowing in the product
    if not np.abs(m).max() <= 1 + ATOL:
        return False
    return bool(np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= ATOL)


def is_density_operator(m: np.ndarray, tol: float = ATOL) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -tol."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    # |m_ij| <= sqrt(m_ii m_jj) <= 1 for a state; refusing larger entries
    # first keeps huge finite ones from overflowing in the checks
    if not np.abs(m).max() <= 1 + tol or not _is_hermitian(m, tol):
        return False
    if abs(np.trace(m).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (both Hermitian)."""
    evals = np.linalg.eigvalsh(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return 0.5 * float(np.sum(np.abs(evals)))
