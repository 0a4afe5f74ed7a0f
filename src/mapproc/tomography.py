"""State reconstruction from POVM statistics by linear inversion.

The probabilities p_j = Tr(rho F_j) are the stacked POVM F applied to
rho.  Its singular values decide informational completeness and the
canonical dual frame D = G^+ F, G_jk = Tr(F_j F_k), inverts it, so
overcomplete POVMs work too; under-determined ones are refused.  Both come
in closed form for a stack of Pauli conjugates, as every QID POVM is, and
from one SVD F = U S V^dagger, D = U S^-1 V^dagger, for any other stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL, RANK_CUTOFF, InfeasibleError, _array, _is_hermitian, _operator_stack, _pauli_conjugates,
    _real,
)
from .processor import _povm_entry

PROB_SUM_TOL = 1e-6
RESIDUAL_TOL = 1e-6


class UnderdeterminedPovmError(InfeasibleError):
    """POVM does not span the operator space; reconstruction is ambiguous."""

    def __init__(self, rank: int, needed: int):
        super().__init__(
            f"POVM spans a rank-{rank} operator subspace but reconstruction "
            f"needs rank {needed}"
        )
        self.rank = rank
        self.needed = needed


class InconsistentProbabilitiesError(InfeasibleError):
    """No operator reproduces the supplied probabilities within tolerance."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"probability vector is inconsistent with the POVM "
            f"(residual {residual:.3e} > {tolerance:.3e})"
        )
        self.residual = residual
        self.tolerance = tolerance


def gram_matrix(povm: np.ndarray) -> np.ndarray:
    """Real symmetric matrix of pairwise overlaps Tr(F_j F_k) of an (n, d, d) stack."""
    f = _operator_stack(povm)
    skew = ~_is_hermitian(f, ATOL)
    if skew.any():
        raise ValueError(f"POVM element {int(np.argmax(skew))} is not Hermitian")
    return np.einsum("jab,kba->jk", f, f).real


def is_informationally_complete(povm: np.ndarray) -> bool:
    """True when the elements, checked as by validate_povm, span the d^2-dimensional operators."""
    return isinstance(_inversion(povm)[1], Tomographer)


@dataclass(frozen=True, eq=False)
class Tomographer:
    """Precomputed inversion data for one informationally complete POVM.

    ``povm`` and ``dual_frame`` are (n, d, d) stacks; the dual operators D_k,
    each exactly Hermitian, give rho = sum_k Tr(rho F_k) D_k.  They exist only
    for informationally complete POVMs, so ``build``, the one way to make an
    instance, fails otherwise.  It makes every array read-only, so instances
    are immutable and safe to share; it returns one per POVM content while the
    POVM's memo entry lasts.  An instance also keeps, outside the dataclass
    fields, both stacks as (n, 2 d^2) real views of the same memory, real and
    imaginary parts interleaved, so an inversion is two real products.
    """

    povm: np.ndarray
    dual_frame: np.ndarray

    def __post_init__(self):
        raise TypeError("a Tomographer is made by Tomographer.build(povm), not from arrays")

    @classmethod
    def build(cls, povm: np.ndarray) -> "Tomographer":
        f, built = _inversion(povm)
        if not isinstance(built, Tomographer):
            raise UnderdeterminedPovmError(built, f.shape[1] ** 2)
        return built

    def _invert(
        self, probabilities: np.ndarray, residual_tol: float
    ) -> tuple[np.ndarray, float]:
        """rho = sum_k p_k D_k and its residual ||Tr(F_j rho) - p_j||.

        The residual equals ||G G^+ p - p||, the part of p no operator
        reproduces; above ``residual_tol`` the inversion is refused.  Both
        are real products: the entries of rho, real and imaginary parts
        interleaved, are p times the real dual rows, and for Hermitian F_j
        Tr(F_j rho) is the real dot of those with row j of the real POVM.
        A Hermitian dual frame makes rho exactly Hermitian.
        """
        p = _array(probabilities, float, (len(self.povm),), "probabilities")
        total = sum(p.tolist())  # a Python sum overflows to inf without a warning
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        x = p @ self._dual_real
        r = self._povm_real @ x - p
        residual = math.sqrt(r @ r)  # bitwise np.linalg.norm of a real vector
        if not residual <= residual_tol:
            raise InconsistentProbabilitiesError(residual, residual_tol)
        d = self.povm.shape[1]
        return x.view(complex).reshape(d, d), residual

    def reconstruct(self, probabilities: np.ndarray) -> np.ndarray:
        """Invert a probability vector to the unique matching operator.

        The result is Hermitian but not forced positive; consistent
        probabilities of a valid state return that state exactly (to
        rounding).  A residual above RESIDUAL_TOL is refused.
        """
        return self._invert(probabilities, RESIDUAL_TOL)[0]


def _inversion(povm: np.ndarray) -> list:
    """The POVM memo entry [F, inversion] of ``povm``, the inversion made on first use.

    The inversion is F's Tomographer, or its rank if below d^2: the rank counts
    the singular values of the (n, d^2) stack above RANK_CUTOFF * s_max.  A stack
    that is exactly F_k = sigma_k F_0 sigma_k, F_0 = sum_i c_i sigma_i, is H diag(sqrt(2) c)
    in the basis sigma_i / sqrt(2), H / 2 orthogonal: singular values 2 sqrt(2) |c_i|,
    inverse D_k = sigma_k D_0 sigma_k with D_0 = sum_i sigma_i / (8 conj(c_i)).  Any
    other stack takes one SVD F = U S V^dagger and D = U S^-1 V^dagger.  The Hermitian
    part of D is kept, once; the path is chosen by F's values alone.
    """
    f, inversion = entry = _povm_entry(povm)
    if inversion is not None:  # threads that race past here store equal inversions
        return entry
    n, d, _ = f.shape
    closed = f.shape == (4, 2, 2) and bool((_pauli_conjugates(f[0]) == f).all())
    if closed:
        a, b, c, e = f[0].ravel().tolist()
        coefficients = [(a + e) / 2, (b + c) / 2, 1j * (b - c) / 2, (a - e) / 2]
        values = [abs(x) for x in coefficients]
    else:
        u, s, vh = np.linalg.svd(f.reshape(n, d * d), full_matrices=False)
        values = s.tolist()
    cutoff = RANK_CUTOFF * max(values)
    rank = sum(v > cutoff for v in values)
    if rank < d * d:
        entry[1] = rank
        return entry
    if closed:  # the Hermitian part sum_i Re(1 / (8 c_i)) sigma_i, exactly Hermitian as built
        r0, r1, r2, r3 = [(1 / (8 * x)).real for x in coefficients]
        dual = _pauli_conjugates(np.array([r0 + r3, r1 - 1j * r2, r1 + 1j * r2, r0 - r3]))
    else:
        dual = ((u / s) @ vh).reshape(f.shape)
        dual = 0.5 * (dual + dual.conj().swapaxes(1, 2))
    dual.setflags(write=False)
    tomographer = object.__new__(Tomographer)  # past the constructor, which refuses
    vars(tomographer).update(povm=f, dual_frame=dual, _povm_real=f.reshape(n, -1).view(float),
                             _dual_real=dual.reshape(n, -1).view(float))
    entry[1] = tomographer
    return entry


def reconstruct(probabilities: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """One-shot linear inversion; see Tomographer.reconstruct."""
    return Tomographer.build(povm).reconstruct(probabilities)


@dataclass(frozen=True)
class ReconstructionDiagnostics:
    residual: float
    eigenvalues: tuple[float, ...]
    projected: bool


def _project(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """The density operator closest in Frobenius norm to the Hermitian estimate ``eigh`` gave.

    Keeps the eigenvectors and projects the eigenvalues onto the
    probability simplex: lambda_i = max(mu_i - theta, 0) with theta fixed
    by unit trace (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

    One pass over the eigenvalues in descending order: theta is
    (mu_1 + ... + mu_k - 1)/k for the last k with k mu_k above the
    numerator.  The sum runs left to right and subtracts 1 last, as
    ``np.cumsum(mu) - 1`` does; grouping it as -1 + mu_1 + ... changes
    theta in its last bit on many spectra.
    """
    mus = evals.tolist()
    theta = None
    total = 0.0
    for k, mu in enumerate(reversed(mus), 1):
        total += mu
        excess = total - 1.0
        if mu * k > excess:
            theta = excess / k
    if theta is None:  # k = 1 qualifies unless mu_1 is not finite or |mu_1| > 2^53
        raise ValueError(f"estimate spectrum {mus} has no simplex threshold")
    # max(0.0, x) keeps +0.0 for x = -0.0, as np.maximum(x, 0.0) does
    return (evecs * [max(0.0, mu - theta) for mu in mus]) @ evecs.conj().T


def reconstruct_from_probabilities(
    probabilities: np.ndarray,
    povm: np.ndarray,
    project: bool = False,
    residual_tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, ReconstructionDiagnostics]:
    """Linear inversion with diagnostics.

    With ``project`` the estimate is replaced by the closest density
    operator (see _project); the diagnostics always report the
    pre-projection spectrum and the inversion residual.  ``residual_tol``
    must be a finite real number of at least 0.
    """
    residual_tol = _real(residual_tol, "residual_tol", 0)
    estimate, residual = Tomographer.build(povm)._invert(probabilities, residual_tol)
    evals, evecs = np.linalg.eigh(estimate)
    diagnostics = ReconstructionDiagnostics(
        residual=residual,
        eigenvalues=tuple(evals.tolist()),
        projected=bool(project),
    )
    if project:
        return _project(evals, evecs), diagnostics
    return estimate, diagnostics


def reconstruct_from_counts(
    counts: np.ndarray,
    povm: np.ndarray,
    project: bool = False,
    residual_tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, ReconstructionDiagnostics]:
    """Linear inversion of observed frequencies.

    Feeds counts/total to reconstruct_from_probabilities.
    """
    array = _array(counts, None, (None,), "counts")
    dtype = array.dtype
    if array is not counts and any(isinstance(c, (bool, np.bool_)) for c in counts):
        dtype = np.dtype(bool)  # numpy reads a list mixing booleans and numbers as numbers
    if dtype.kind not in "iuf":  # booleans, strings, objects and complex numbers are no counts
        raise ValueError(f"counts must be real numbers, got entries of type {dtype}")
    values = array.tolist()
    if not all(c >= 0 for c in values):  # NaN is not
        raise ValueError("counts must be nonnegative")
    # a Python sum overflows to inf without numpy's warning; refused before
    # dividing, so an infinite total never reaches a NaN
    total = sum(values)
    if not 0 < total < math.inf:
        raise ValueError(f"counts must have a positive finite total, got {total}")
    return reconstruct_from_probabilities(
        array / float(total), povm, project=project, residual_tol=residual_tol
    )
