"""State reconstruction from POVM statistics by linear inversion.

The probabilities p_j = Tr(rho F_j) relate linearly to the expansion
coefficients of rho in the POVM-element basis through the Gram matrix
L_jk = Tr(F_j F_k).  Reconstruction solves that system with a pseudo-
inverse, so overcomplete POVMs work too; it refuses under-determined ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import dag, is_hermitian, operator_rank
from .processor import validate_povm

GRAM_RCOND = 1e-9
PROB_SUM_TOL = 1e-6
RESIDUAL_TOL = 1e-6


class UnderdeterminedPovmError(ValueError):
    """POVM does not span the operator space; reconstruction is ambiguous."""

    def __init__(self, rank: int, needed: int):
        super().__init__(
            f"POVM spans a rank-{rank} operator subspace but reconstruction "
            f"needs rank {needed}"
        )
        self.rank = rank
        self.needed = needed


class InconsistentProbabilitiesError(ValueError):
    """No operator reproduces the supplied probabilities within tolerance."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"probability vector is inconsistent with the POVM "
            f"(residual {residual:.3e} > {tolerance:.3e})"
        )
        self.residual = residual
        self.tolerance = tolerance


def gram_matrix(povm: list[np.ndarray]) -> np.ndarray:
    """Real symmetric matrix of pairwise overlaps Tr(F_j F_k)."""
    for i, f in enumerate(povm):
        if not is_hermitian(np.asarray(f, dtype=complex)):
            raise ValueError(f"POVM element {i} is not Hermitian")
    n = len(povm)
    gram = np.empty((n, n), dtype=float)
    for j in range(n):
        for k in range(j, n):
            gram[j, k] = gram[k, j] = np.trace(
                np.asarray(povm[j], dtype=complex) @ np.asarray(povm[k], dtype=complex)
            ).real
    return gram


def is_informationally_complete(povm: list[np.ndarray]) -> bool:
    """True when the elements span the full d^2-dimensional operator space."""
    validate_povm(povm)
    d = np.asarray(povm[0]).shape[0]
    return operator_rank(list(povm)) == d * d


@dataclass(frozen=True)
class Tomographer:
    """Precomputed inversion data for one informationally complete POVM.

    ``dual_frame`` holds operators D_k with rho = sum_k Tr(rho F_k) D_k;
    it exists only for informationally complete POVMs, so construction
    fails otherwise.  Instances are immutable and safe to share.
    """

    povm: tuple[np.ndarray, ...]
    gram: np.ndarray
    dual_frame: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, povm: list[np.ndarray]) -> "Tomographer":
        validate_povm(povm)
        d = np.asarray(povm[0]).shape[0]
        rank = operator_rank(list(povm))
        if rank < d * d:
            raise UnderdeterminedPovmError(rank, d * d)
        gram = gram_matrix(povm)
        inv = np.linalg.pinv(gram, rcond=GRAM_RCOND)
        duals = []
        for k in range(len(povm)):
            dual = np.zeros((d, d), dtype=complex)
            for j in range(len(povm)):
                dual += inv[k, j] * np.asarray(povm[j], dtype=complex)
            duals.append(dual)
        return cls(povm=tuple(np.asarray(f, dtype=complex) for f in povm),
                   gram=gram, dual_frame=tuple(duals))

    def _invert(
        self, probabilities: np.ndarray, residual_tol: float
    ) -> tuple[np.ndarray, float]:
        """rho = sum_k p_k D_k and its residual ||Tr(F_j rho) - p_j||.

        The residual equals ||G G^+ p - p||, the part of p no operator
        reproduces; above ``residual_tol`` the inversion is refused.
        """
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (len(self.povm),):
            raise ValueError(
                f"expected {len(self.povm)} probabilities, got shape {p.shape}"
            )
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
        rho = np.tensordot(p, np.asarray(self.dual_frame), axes=1)
        fitted = np.einsum("kij,ji->k", np.asarray(self.povm), rho).real
        residual = float(np.linalg.norm(fitted - p))
        if residual > residual_tol:
            raise InconsistentProbabilitiesError(residual, residual_tol)
        return 0.5 * (rho + dag(rho)), residual

    def reconstruct(
        self, probabilities: np.ndarray, residual_tol: float = RESIDUAL_TOL
    ) -> np.ndarray:
        """Invert a probability vector to the unique matching operator.

        The result is Hermitized but not forced positive; consistent
        probabilities of a valid state return that state exactly (to
        rounding).
        """
        return self._invert(probabilities, residual_tol)[0]


def reconstruct(
    probabilities: np.ndarray,
    povm: list[np.ndarray],
    residual_tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """One-shot linear inversion; see Tomographer.reconstruct."""
    return Tomographer.build(povm).reconstruct(probabilities, residual_tol=residual_tol)


@dataclass(frozen=True)
class ReconstructionDiagnostics:
    residual: float
    eigenvalues: tuple[float, ...]
    projected: bool


def project_to_state(estimate: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace to 1."""
    evals, evecs = np.linalg.eigh(np.asarray(estimate, dtype=complex))
    clipped = np.clip(evals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("estimate has no positive eigenvalue mass to project onto")
    clipped /= total
    return (evecs * clipped) @ evecs.conj().T


def reconstruct_from_probabilities(
    probabilities: np.ndarray,
    povm: list[np.ndarray],
    project: bool = False,
    residual_tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, ReconstructionDiagnostics]:
    """Linear inversion with diagnostics.

    With ``project`` the estimate is moved to the closest point of the PSD
    unit-trace cone by eigenvalue clipping; the diagnostics always report
    the pre-projection spectrum and the Gram-system residual.
    """
    estimate, residual = Tomographer.build(povm)._invert(probabilities, residual_tol)
    diagnostics = ReconstructionDiagnostics(
        residual=residual,
        eigenvalues=tuple(float(v) for v in np.linalg.eigvalsh(estimate)),
        projected=bool(project),
    )
    if project:
        return project_to_state(estimate), diagnostics
    return estimate, diagnostics


def reconstruct_from_counts(
    counts: np.ndarray,
    povm: list[np.ndarray],
    project: bool = False,
    residual_tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, ReconstructionDiagnostics]:
    """Linear inversion of observed frequencies.

    Feeds counts/total to reconstruct_from_probabilities.
    """
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts must have a positive total")
    return reconstruct_from_probabilities(
        counts / float(total), povm, project=project, residual_tol=residual_tol
    )
