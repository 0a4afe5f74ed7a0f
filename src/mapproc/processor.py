"""General measurement-assisted programmable processor model.

A processor is a fixed unitary on data (x) program together with an
orthonormal basis in which the program register is measured.  Feeding it a
program state induces an instrument on the data register: one Kraus branch
per program outcome, grouped into coarse outcomes by a partition of the
outcome indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import ATOL, dag, identity_multiple, is_unitary
from .sampling import as_generator

PROB_FLOOR = 1e-12


class InvalidPovmError(ValueError):
    """The supplied operators do not form a POVM."""


class ImpossibleOutcomeError(ValueError):
    """Conditioning on an outcome whose probability vanishes."""

    def __init__(self, outcome: int, probability: float):
        super().__init__(
            f"outcome {outcome} is impossible (probability {probability:.3e}); "
            "no post-measurement state exists"
        )
        self.outcome = outcome
        self.probability = probability


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Processor:
    """Fixed unitary ``gate`` on data (x) program plus the measured program basis.

    ``program_basis`` is a (program_dim, program_dim) array whose row k is
    the basis vector |k>; it defaults to the computational basis.
    """

    data_dim: int
    program_dim: int
    gate: np.ndarray
    program_basis: np.ndarray | None = None

    def __post_init__(self):
        dim = self.data_dim * self.program_dim
        gate = np.asarray(self.gate, dtype=complex)
        if gate.shape != (dim, dim):
            raise ValueError(f"gate shape {gate.shape} does not match data*program = {dim}")
        if not is_unitary(gate, ATOL):
            raise ValueError("processor gate must be unitary")
        basis = self.program_basis
        if basis is None:
            basis = np.eye(self.program_dim, dtype=complex)
        basis = np.asarray(basis, dtype=complex)
        if basis.shape != (self.program_dim, self.program_dim):
            raise ValueError("program_basis must hold program_dim vectors of length program_dim")
        overlaps = basis.conj() @ basis.T
        if np.max(np.abs(overlaps - np.eye(self.program_dim))) > ATOL:
            raise ValueError("program_basis must be orthonormal")
        object.__setattr__(self, "gate", _freeze(gate))
        object.__setattr__(self, "program_basis", _freeze(basis))

    @property
    def dim(self) -> int:
        return self.data_dim * self.program_dim


@dataclass(frozen=True)
class ProgramState:
    """Program-register state as a convex mixture of pure components.

    ``components`` holds (weight, state vector) pairs; the weights sum to 1
    and each vector is normalized.  A pure program is a single component.
    """

    components: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("program state needs at least one component")
        total = 0.0
        frozen = []
        dim = len(np.asarray(self.components[0][1]))
        for w, v in self.components:
            v = np.asarray(v, dtype=complex)
            if v.ndim != 1 or len(v) != dim:
                raise ValueError("program components must share one dimension")
            if w < -ATOL or w > 1 + ATOL:
                raise ValueError(f"component weight {w} outside [0, 1]")
            if abs(np.linalg.norm(v) - 1.0) > ATOL:
                raise ValueError("program component states must be normalized")
            total += w
            frozen.append((float(w), _freeze(v)))
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"component weights sum to {total}, expected 1")
        object.__setattr__(self, "components", tuple(frozen))

    @classmethod
    def pure(cls, state: np.ndarray) -> "ProgramState":
        return cls(components=((1.0, np.asarray(state, dtype=complex)),))

    @classmethod
    def from_density(cls, xi: np.ndarray, tol: float = ATOL) -> "ProgramState":
        """Spectral decomposition of a density operator into weighted pure parts."""
        xi = np.asarray(xi, dtype=complex)
        evals, evecs = np.linalg.eigh(xi)
        comps = [
            (float(w), evecs[:, j])
            for j, w in enumerate(evals)
            if w > tol
        ]
        return cls(components=tuple(comps))

    @property
    def dim(self) -> int:
        return len(self.components[0][1])

    def density(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for w, v in self.components:
            out += w * np.outer(v, v.conj())
        return out


@dataclass(frozen=True)
class OutcomePartition:
    """Disjoint index blocks covering the program outcomes 0..n-1."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(k) for k in b) for b in self.blocks)
        seen: set[int] = set()
        for b in blocks:
            for k in b:
                if k in seen:
                    raise ValueError(f"outcome index {k} appears in two blocks")
                seen.add(k)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover a contiguous index range 0..n-1")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def finest(cls, n: int) -> "OutcomePartition":
        return cls(blocks=tuple((k,) for k in range(n)))

    @classmethod
    def single(cls, n: int) -> "OutcomePartition":
        return cls(blocks=(tuple(range(n)),))

    @property
    def num_indices(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class InducedInstrument:
    """Per-outcome Kraus branches and the matching POVM elements."""

    branches: tuple[tuple[tuple[float, int, np.ndarray], ...], ...]
    povm: tuple[np.ndarray, ...]


def kraus_operators(
    proc: Processor, program: ProgramState
) -> list[tuple[float, int, np.ndarray]]:
    """Extract the Kraus branches induced by a program state.

    Returns (weight, outcome index k, operator) triples, one per program
    component and outcome, where the operator is the gate contracted with
    <k| on the program output and the component state on the program
    input.  The weighted squared branches sum to the identity.
    """
    if program.dim != proc.program_dim:
        raise ValueError(
            f"program dimension {program.dim} does not match processor "
            f"program_dim {proc.program_dim}"
        )
    d, dp = proc.data_dim, proc.program_dim
    g4 = proc.gate.reshape(d, dp, d, dp)
    out = []
    for w, v in program.components:
        contracted = np.einsum("imjn,n->imj", g4, v)
        for k in range(dp):
            a_k = np.einsum("m,imj->ij", proc.program_basis[k].conj(), contracted)
            out.append((w, k, a_k))
    return out


def induced_instrument(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> InducedInstrument:
    """Group the Kraus branches by partition block and form the POVM."""
    if partition.num_indices != proc.program_dim:
        raise ValueError("partition does not cover the program outcomes")
    triples = kraus_operators(proc, program)
    branches = []
    povm = []
    for block in partition.blocks:
        blk = tuple(t for t in triples if t[1] in block)
        f = np.zeros((proc.data_dim, proc.data_dim), dtype=complex)
        for w, _, a in blk:
            f += w * (dag(a) @ a)
        branches.append(blk)
        povm.append(f)
    return InducedInstrument(branches=tuple(branches), povm=tuple(povm))


def induced_povm(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> list[np.ndarray]:
    """POVM element per partition block: weighted sums of A^dagger A."""
    return list(induced_instrument(proc, program, partition).povm)


def validate_povm(povm: list[np.ndarray], tol: float = ATOL) -> None:
    """Raise InvalidPovmError unless the elements are PSD and sum to identity.

    Negative eigenvalue dust above -tol is tolerated (treated as zero).
    """
    if len(povm) == 0:
        raise InvalidPovmError("empty POVM")
    d = np.asarray(povm[0]).shape[0]
    total = np.zeros((d, d), dtype=complex)
    for i, f in enumerate(povm):
        f = np.asarray(f, dtype=complex)
        if f.shape != (d, d):
            raise InvalidPovmError(f"element {i} has shape {f.shape}, expected ({d}, {d})")
        if np.max(np.abs(f - dag(f))) > tol:
            raise InvalidPovmError(f"element {i} is not Hermitian")
        if np.linalg.eigvalsh(f).min() < -tol:
            raise InvalidPovmError(f"element {i} is not positive semidefinite")
        total += f
    if np.max(np.abs(total - np.eye(d))) > tol:
        raise InvalidPovmError("elements do not sum to the identity")


def outcome_probabilities(rho: np.ndarray, povm: list[np.ndarray]) -> np.ndarray:
    """p_a = Tr(rho F_a) for each POVM element, unclamped."""
    validate_povm(povm)
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ f).real for f in povm])


def post_measurement_state(
    proc: Processor,
    program: ProgramState,
    rho: np.ndarray,
    outcome: int,
    partition: OutcomePartition,
) -> np.ndarray:
    """Normalized data state after observing one coarse outcome.

    Raises ImpossibleOutcomeError when the outcome probability is below
    1e-12, since the conditional state is undefined there.
    """
    inst = induced_instrument(proc, program, partition)
    if outcome < 0 or outcome >= len(inst.povm):
        raise ValueError(f"outcome {outcome} outside 0..{len(inst.povm) - 1}")
    rho = np.asarray(rho, dtype=complex)
    p = np.trace(rho @ inst.povm[outcome]).real
    if p <= PROB_FLOOR:
        raise ImpossibleOutcomeError(outcome, p)
    out = np.zeros_like(rho)
    for w, _, a in inst.branches[outcome]:
        out += w * (a @ rho @ dag(a))
    out /= p
    return 0.5 * (out + dag(out))


def sample_outcomes(
    rho: np.ndarray, povm: list[np.ndarray], n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Multinomial outcome counts; deterministic for a fixed seed."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    p = outcome_probabilities(rho, povm)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    if n == 0:
        return np.zeros(len(povm), dtype=np.int64)
    return as_generator(seed).multinomial(n, p)


def is_trivial_povm(povm: list[np.ndarray], tol: float = ATOL) -> np.ndarray | None:
    """Return the scalars c_k when every element is c_k * identity, else None.

    A trivial POVM yields data-independent statistics.
    """
    validate_povm(povm, tol)
    cs = []
    for f in povm:
        c = identity_multiple(f, tol)
        if c is None or c.real < -tol:
            return None
        cs.append(max(c.real, 0.0))
    return np.array(cs)
