"""Dense complex linear algebra for small quantum systems.

Operators are plain complex numpy arrays, states are 1-D complex arrays.
Subsystem ordering is data-first everywhere: in a product basis vector
|ab> the first factor's index a is the slow (most significant) index.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from itertools import takewhile

import numpy as np

# Structural checks (unitarity, hermiticity, c*I) use an absolute max-norm
# tolerance.  Every construction in this package is exact at the dimensions
# it is used for, so it only absorbs float rounding.  Every tolerance in the
# package is a named module constant; the README's "Numerical notes" table
# lists each one with its value and what it decides.
ATOL = 1e-10
# relative cutoff on the stacked POVM's singular values (closed form for Pauli conjugates)
RANK_CUTOFF = 1e-9
# the largest count numpy's sampler takes, and the bound of every count read
_COUNT_MAX = 2**63 - 1

# sigma_0 = I, sigma_x, sigma_y, sigma_z as one (4, 2, 2) stack
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
_PAULI.setflags(write=False)
# sigma_k M sigma_k gathers the entries of a 2x2 M: entry [k, i, j] is M.ravel()[|t| - 1]
# with the sign of t = _CONJUGATION[k, i, j]
_CONJUGATION = np.reshape([1, 2, 3, 4, 4, 3, 2, 1, 4, -3, -2, 1, 1, -2, -3, 4], (4, 2, 2))
_SOURCES, _SIGNS = abs(_CONJUGATION) - 1, np.sign(_CONJUGATION) + 0j


class InfeasibleError(ValueError):
    """The input is well formed, but the object it asks for cannot exist.

    The base of every refusal the CLI reports with exit 3.
    """


def _brief(value) -> str:
    """repr(value) on one line, cut to 100 characters; an integer past 64 bits by its size."""
    if isinstance(value, int) and value.bit_length() > 64:  # str() fails past 4300 digits
        return f"an integer of {value.bit_length()} bits"
    try:
        text = " ".join(repr(_prefix(value, [101])).split())
    except Exception:  # a failing repr: a list holding such an integer
        return f"an object of type {type(value).__name__}"
    return text if len(text) <= 100 else text[:97] + "..."


def _prefix(value, budget: list[int]):
    """``value``, its repr unchanged if at most 100 characters, in bounded work: nested lists,
    tuples and dicts cut after budget[0] items in all, strings after 100 characters."""
    budget[0] -= 1
    kind = type(value)
    if kind not in (list, tuple, dict):
        return value[:100] if kind is str else value
    items = takewhile(lambda _: budget[0] > 0, value.items() if kind is dict else value)
    if kind is dict:
        return {_prefix(k, budget): _prefix(v, budget) for k, v in items}
    return kind(_prefix(item, budget) for item in items)


def _index(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int in lo..hi (None: unbounded); else ValueError naming it.

    Booleans and non-integers are refused, and a value out of range as
    "<name> must be in lo..hi" (or "at least lo", "at most hi"), "got v".
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            k = operator.index(value)
        except TypeError:
            pass
        else:
            if (lo is None or k >= lo) and (hi is None or k <= hi):
                return k
            bound = f"in {lo}..{hi}" if None not in (lo, hi) else (
                f"at least {lo}" if hi is None else f"at most {hi}")
            raise ValueError(f"{name} must be {bound}, got {_brief(k)}")
    raise ValueError(f"{name} must be an integer, got {_brief(value)}")


def _index_rows(rows, name: str, index_name: str, lo=None, hi=None) -> tuple[tuple[int, ...], ...]:
    """``rows``, a sequence of integer sequences, as int tuples read by _index; else ValueError."""
    try:
        return tuple(tuple(_index(k, index_name, lo, hi) for k in row) for row in rows)
    except TypeError:  # rows, or a row, that is no sequence
        got = _brief(rows)
        raise ValueError(f"{name} must be a sequence of integer sequences, got {got}") from None


def _real(value, name: str, lo: float | None = None) -> float:
    """``value``, a finite real number of at least ``lo`` (None: unbounded), as a float."""
    # a float skips the abstract-class check; booleans are no real numbers here
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {_brief(value)}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got a number too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    return value


def _typed(value, cls: type, name: str):
    """``value`` if it is a ``cls``, unconverted; else ValueError "<name> is not a(n) <cls>"."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise ValueError(f"{name} is not {article} {cls.__name__}")


def _shape(element) -> tuple[int, ...] | None:
    """np.shape of one element, or None for a ragged nested sequence."""
    try:
        return np.shape(element)
    except ValueError:
        return None


def _stack_defect(ops) -> str:
    """Why ``ops``, which does not read as an (n, d, d) stack with n, d >= 1, is not one."""
    try:
        shapes = [_shape(ops[i]) for i in range(len(ops))]
    except (TypeError, KeyError):  # a scalar, a 0-d array or a mapping
        return f"expected a sequence of (d, d) operators, got {_brief(ops)}"
    if not shapes:
        return "expected at least one (d, d) operator"
    d = shapes[0][0] if shapes[0] else 0  # 0 for a ragged or a 0-d element too
    if not d:
        return "element 0 is not a (d, d) operator with d >= 1"
    i = next((i for i, s in enumerate(shapes) if s != (d, d)), None)
    if i is None:
        return "elements must be (d, d) operators of numbers in the float range"
    shape = "ragged" if shapes[i] is None else shapes[i]
    return f"element {i} has shape {shape}, expected ({d}, {d})"


@lru_cache(maxsize=64)
def _fits(shape: tuple[int | None, ...], got: tuple[int, ...]) -> bool:
    """``got`` fits ``shape``, in which None matches any length >= 1 (cached: few pairs occur)."""
    return len(got) == len(shape) and all(n and s in (None, n) for s, n in zip(shape, got))


def _array(obj, dtype, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """``obj`` as one ``dtype`` array of ``shape`` (None: any length >= 1); else ValueError."""
    try:
        a = np.asarray(obj, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # entries that are no numbers, or ragged
        got = "no rectangular array of numbers in the float range"
    else:
        got = a.shape
        if got == shape or _fits(shape, got):
            return a
    dims = ", ".join("n" if s is None else _brief(s) for s in shape) + "," * (len(shape) == 1)
    spec = f"({dims})" + (" with n >= 1" if None in shape else "")
    raise ValueError(f"{name} must have shape {spec}, got {got}")


def _operator_stack(ops) -> np.ndarray:
    """``ops`` as one complex (n, d, d) array, n, d >= 1; otherwise ValueError naming the defect."""
    try:
        f = _array(ops, complex, (None, None, None), "operators")
    except ValueError:
        f = None
    if f is None or f.shape[1] != f.shape[2]:
        raise ValueError(_stack_defect(ops))
    return f


def _square(m, name: str) -> np.ndarray:
    """``m`` as one complex (n, n) array, n >= 1; otherwise ValueError naming it."""
    m = _array(m, complex, (None, None), name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix; index 0 is the 2x2 identity."""
    return _PAULI[_index(k, "Pauli index", 0, 3)].copy()


def _pauli_conjugates(m: np.ndarray) -> np.ndarray:
    """The (4, 2, 2) stack sigma_k m sigma_k of a 2x2 ``m``: one gather, exact in value."""
    return m.ravel()[_SOURCES] * _SIGNS


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _is_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """Per square matrix over the last two axes: within tol of its adjoint (NaN is not)."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol


def is_unitary(m: np.ndarray) -> bool:
    """True when m^dagger m equals the identity within ATOL (max-norm)."""
    m = _square(m, "operator")
    # entries of a unitary lie in the unit disc; refusing larger ones first
    # keeps huge finite entries from overflowing in the product
    return bool(
        np.abs(m).max() <= 1 + ATOL and np.abs(dag(m) @ m - np.eye(len(m))).max() <= ATOL
    )


def _qubit_spectrum(a: float, b: complex, e: float) -> tuple[float, float]:
    """Centre m and half-gap r of the Hermitian [[a, b], [conj(b), e]]: eigenvalues m -+ r."""
    return (a + e) / 2, math.hypot((a - e) / 2, abs(b))


def is_density_operator(m: np.ndarray, tol: float = ATOL) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -tol; False for what is no square matrix."""
    tol = _real(tol, "tol", 0)
    try:
        m = _square(m, "operator")
    except ValueError:
        return False
    # |m_ij| <= sqrt(m_ii m_jj) <= 1 for a state; refusing larger entries
    # first keeps huge finite ones from overflowing in the checks
    return bool(
        np.abs(m).max() <= 1 + tol and _is_hermitian(m, tol)
        and abs(np.trace(m).real - 1.0) <= tol and np.linalg.eigvalsh(m).min() >= -tol
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b; ValueError naming the operand unless it is a finite
    Hermitian matrix within ATOL, or when the trace norm of a - b leaves the float range."""
    a = _square(a, "operand a")
    b = _array(b, complex, a.shape, "operand b")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for name, m in (("a", a), ("b", b)):
            if not np.isfinite(m).all():
                raise ValueError(f"operand {name} has an entry that is not finite")
            if not _is_hermitian(m, ATOL):  # eigvalsh would read one triangle only
                raise ValueError(f"operand {name} is not Hermitian within {ATOL}")
        norm = float(np.abs(np.linalg.eigvalsh(a - b)).sum())
    if not math.isfinite(norm):
        raise ValueError("operand a - b has a trace norm beyond the float range")
    return 0.5 * norm
