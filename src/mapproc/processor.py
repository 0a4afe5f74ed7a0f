"""General measurement-assisted programmable processor model.

A processor is a fixed unitary on data (x) program together with an
orthonormal basis in which the program register is measured.  Feeding it a
program state induces an instrument on the data register: one Kraus branch
per program outcome, grouped into coarse outcomes by a partition of the
outcome indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import ATOL, dag, is_unitary
from .sampling import as_generator

PROB_FLOOR = 1e-12

# Validated POVMs kept by content; every entry pins its stack, so the bound
# stays small (one tomography POVM and a few others in use at a time).
_POVM_MEMO_SIZE = 4


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


def _freeze(a: np.ndarray, dtype: type = complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
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
        if not is_unitary(gate):
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
    """Program-register state as a convex mixture of pure states.

    ``weights`` is a (c,) array of weights summing to 1 and row c of the
    (c, program_dim) array ``vectors`` is the normalized state of weight
    ``weights[c]``; both are read-only copies.  A pure program is one row.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        weights, vectors = _freeze(self.weights, float), _freeze(self.vectors)
        if weights.ndim != 1 or vectors.ndim != 2 or not 0 < len(weights) == len(vectors):
            raise ValueError("program state needs (c,) weights and (c, dp) vectors, c > 0")
        total = 0.0  # scalar checks per row beat array reductions on so few rows
        for w, v in zip(weights.tolist(), vectors):
            if not -ATOL <= w <= 1 + ATOL:
                raise ValueError(f"component weight {w} outside [0, 1]")
            if not abs(math.sqrt(np.vdot(v, v).real) - 1.0) <= ATOL:
                raise ValueError("program component states must be normalized")
            total += w
        if not abs(total - 1.0) <= ATOL:
            raise ValueError(f"component weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def pure(cls, state: np.ndarray) -> "ProgramState":
        return cls(weights=(1.0,), vectors=(state,))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


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


def _branches(proc: Processor, rows: np.ndarray) -> np.ndarray:
    """Branches [c, k] = (I (x) <k|) gate (I (x) |rows[c]>) of (c, program_dim) rows."""
    d, dp = proc.data_dim, proc.program_dim
    contracted = proc.gate.reshape(d, dp, d, dp) @ rows.T  # [i, m, j, c]
    branched = proc.program_basis.conj() @ contracted.reshape(d, dp, -1)  # [i, k, (j, c)]
    return branched.reshape(d, dp, d, -1).transpose(3, 1, 0, 2)


def kraus_operators(proc: Processor, program: ProgramState) -> np.ndarray:
    """Extract the Kraus operators induced by a program state.

    Returns a (c, program_dim, d, d) array whose entry [c, k] is sqrt(w_c)
    times the gate contracted with <k| on the program output and row c of
    ``program.vectors`` on the program input, so the squared operators sum
    to the identity over both leading axes.  Weights are clipped at 0,
    since ProgramState admits rounding dust down to -ATOL.
    """
    if program.dim != proc.program_dim:
        raise ValueError(
            f"program dimension {program.dim} does not match processor "
            f"program_dim {proc.program_dim}"
        )
    rows = np.sqrt(np.maximum(program.weights, 0.0))[:, None] * program.vectors
    return _branches(proc, rows)


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


def _shape(element) -> tuple[int, ...] | None:
    """np.shape of one element, or None for a ragged nested sequence."""
    try:
        return np.shape(element)
    except ValueError:
        return None


def validate_povm(povm: np.ndarray) -> np.ndarray:
    """Return the elements as one read-only (n, d, d) stack if they form a POVM.

    ``povm`` is a stack or any sequence of (d, d) operators with d >= 1.
    Raises InvalidPovmError, naming the first offending element, unless
    every element is Hermitian and PSD and they sum to the identity, all
    within ATOL; negative eigenvalue dust above -ATOL is treated as zero.
    A stack that passed is remembered by its exact content, so repeated
    calls on one POVM skip the checks and share the returned array.
    """
    if len(povm) == 0:
        raise InvalidPovmError("empty POVM")
    first = _shape(povm[0])
    if not first or first[0] == 0:
        raise InvalidPovmError("element 0 is not a (d, d) operator with d >= 1")
    d = first[0]
    try:
        f = np.asarray(povm, dtype=complex)
    except ValueError:  # elements of different shapes do not stack
        f = np.empty(0)
    if f.shape[1:] != (d, d):
        i = next((i for i, e in enumerate(povm) if _shape(e) != (d, d)), None)
        if i is None:
            raise InvalidPovmError("elements must be numeric (d, d) operators")
        shape = _shape(povm[i])
        raise InvalidPovmError(
            f"element {i} has shape {'ragged' if shape is None else shape}, expected ({d}, {d})"
        )
    return _checked_povm(f.shape, f.tobytes())


@lru_cache(maxsize=_POVM_MEMO_SIZE)
def _checked_povm(shape: tuple[int, ...], data: bytes) -> np.ndarray:
    """The numerical POVM checks on a stack given by content; raising is not cached."""
    f = np.frombuffer(data, dtype=complex).reshape(shape)  # read-only view
    d = shape[1]
    skew = ~(np.abs(f - f.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= ATOL)
    bad = skew | (np.linalg.eigvalsh(f).min(axis=1) < -ATOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidPovmError(
            f"element {i} is not {'Hermitian' if skew[i] else 'positive semidefinite'}"
        )
    if not np.max(np.abs(f.sum(axis=0) - np.eye(d))) <= ATOL:
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

    Raises ImpossibleOutcomeError when the outcome probability is at or
    below PROB_FLOOR, since the conditional state is undefined there.
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
