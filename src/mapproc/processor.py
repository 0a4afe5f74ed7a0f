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
        if not np.max(np.abs(overlaps - np.eye(self.program_dim))) <= ATOL:
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
            if not -ATOL <= w <= 1 + ATOL:
                raise ValueError(f"component weight {w} outside [0, 1]")
            if not abs(np.linalg.norm(v) - 1.0) <= ATOL:
                raise ValueError("program component states must be normalized")
            total += w
            frozen.append((float(w), _freeze(v)))
        if not abs(total - 1.0) <= ATOL:
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
        weights, states = zip(*self.components)
        return np.einsum("c,ci,cj->ij", weights, states, np.conj(states))


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
    """Per-block Kraus branches and the matching POVM elements.

    ``branches[b]`` is the (m_b, d, d) stack of the Kraus operators whose
    outcomes fall in block b; ``povm`` is the (blocks, d, d) stack of
    sum A^dagger A over each block.
    """

    branches: tuple[np.ndarray, ...]
    povm: np.ndarray


def kraus_operators(proc: Processor, program: ProgramState) -> np.ndarray:
    """Extract the Kraus operators induced by a program state.

    Returns a (components, program_dim, d, d) array whose entry [c, k] is
    sqrt(w_c) times the gate contracted with <k| on the program output and
    the component state on the program input, so the squared operators
    sum to the identity over both leading axes.  Weights are clipped at 0,
    since ProgramState admits rounding dust down to -ATOL.
    """
    if program.dim != proc.program_dim:
        raise ValueError(
            f"program dimension {program.dim} does not match processor "
            f"program_dim {proc.program_dim}"
        )
    d, dp = proc.data_dim, proc.program_dim
    weights, states = zip(*program.components)
    inputs = np.sqrt(np.clip(weights, 0.0, None))[:, None] * np.array(states)
    contracted = proc.gate.reshape(d, dp, d, dp) @ inputs.T
    return np.einsum("km,imjc->ckij", proc.program_basis.conj(), contracted)


def induced_instrument(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> InducedInstrument:
    """Group the Kraus operators by partition block and form the POVM."""
    if partition.num_indices != proc.program_dim:
        raise ValueError("partition does not cover the program outcomes")
    d = proc.data_dim
    ops = kraus_operators(proc, program)
    branches = tuple(ops[:, list(block)].reshape(-1, d, d) for block in partition.blocks)
    povm = np.array([np.einsum("kji,kjl->il", b.conj(), b) for b in branches])
    return InducedInstrument(branches=branches, povm=povm)


def induced_povm(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> np.ndarray:
    """(blocks, d, d) stack of POVM elements: sums of A^dagger A per block."""
    return induced_instrument(proc, program, partition).povm


def validate_povm(povm: np.ndarray, tol: float = ATOL) -> np.ndarray:
    """Return the elements as one (n, d, d) stack if they form a POVM.

    ``povm`` is a stack or any sequence of (d, d) operators.  Raises
    InvalidPovmError, naming the first offending element, unless every
    element is Hermitian and PSD and they sum to the identity.  Negative
    eigenvalue dust above -tol is tolerated (treated as zero).
    """
    if len(povm) == 0:
        raise InvalidPovmError("empty POVM")
    d = np.shape(povm[0])[0]
    try:
        f = np.asarray(povm, dtype=complex)
    except ValueError:  # elements of different shapes do not stack
        f = np.empty(0)
    if f.shape[1:] != (d, d):
        i = next((i for i, e in enumerate(povm) if np.shape(e) != (d, d)), None)
        if i is None:
            raise InvalidPovmError("elements must be numeric (d, d) operators")
        raise InvalidPovmError(f"element {i} has shape {np.shape(povm[i])}, expected ({d}, {d})")
    skew = ~(np.abs(f - f.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= tol)
    bad = skew | (np.linalg.eigvalsh(f).min(axis=1) < -tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidPovmError(
            f"element {i} is not {'Hermitian' if skew[i] else 'positive semidefinite'}"
        )
    if not np.max(np.abs(f.sum(axis=0) - np.eye(d))) <= tol:
        raise InvalidPovmError("elements do not sum to the identity")
    return f


def outcome_probabilities(rho: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """p_a = Tr(rho F_a) for each POVM element, unclamped."""
    f = validate_povm(povm)
    return np.einsum("ij,kji->k", np.asarray(rho, dtype=complex), f).real


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
    branch = inst.branches[outcome]
    out = np.einsum("kij,jl,kml->im", branch, rho, branch.conj()) / p
    return 0.5 * (out + dag(out))


def sample_outcomes(
    rho: np.ndarray, povm: np.ndarray, n: int, seed: int | np.random.Generator
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


def is_trivial_povm(povm: np.ndarray, tol: float = ATOL) -> np.ndarray | None:
    """Return the scalars c_k when every element is c_k * identity, else None.

    A trivial POVM yields data-independent statistics.
    """
    c = identity_multiple(validate_povm(povm, tol), tol)
    if c is None or np.any(c.real < -tol):
        return None
    return np.maximum(c.real, 0.0)
