"""General measurement-assisted programmable processor model.

A processor is a fixed unitary on data (x) program followed by a
measurement of the program register in the computational basis.  Feeding
it a program state induces an instrument on the data register: one Kraus
branch per program outcome, grouped into coarse outcomes by a partition of
the outcome indices.  Measuring in another orthonormal basis B, row k
being |b_k>, is the processor with gate (I (x) B.conj()) @ gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import ATOL, _index, _is_hermitian, _operator_stack, dag, is_unitary
from .sampling import as_generator

PROB_FLOOR = 1e-12
# A state, typed or rounded by hand, passes within STATE_TOL: its outcome
# probabilities before sampling, and a density-operator document in full.
STATE_TOL = 1e-8

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


@dataclass(frozen=True, eq=False)
class Processor:
    """Fixed unitary ``gate`` on data (x) program; the program is measured in |k>.

    To measure the program in another orthonormal basis B whose row k is
    |b_k>, use the gate np.kron(np.eye(data_dim), B.conj()) @ gate: its
    outcome k gives the branch (I (x) <b_k|) gate.
    """

    data_dim: int
    program_dim: int
    gate: np.ndarray

    def __post_init__(self):
        d, dp = _index(self.data_dim, "data_dim"), _index(self.program_dim, "program_dim")
        if d < 1 or dp < 1:
            raise ValueError(f"data_dim and program_dim must be at least 1, got {d} and {dp}")
        dim = d * dp
        gate = np.asarray(self.gate, dtype=complex)
        if gate.shape != (dim, dim):
            raise ValueError(f"gate shape {gate.shape} does not match data*program = {dim}")
        if not is_unitary(gate):
            raise ValueError("processor gate must be unitary")
        object.__setattr__(self, "data_dim", d)
        object.__setattr__(self, "program_dim", dp)
        object.__setattr__(self, "gate", _freeze(gate))


@dataclass(frozen=True, eq=False)
class ProgramState:
    """Program-register state as a convex mixture of pure states.

    ``weights`` is a (c,) array of weights summing to 1 and row c of the
    (c, program_dim) array ``vectors`` is the normalized state of weight
    ``weights[c]``; both are read-only copies.  A pure program is one row.
    Construction also stores, outside the dataclass fields, the read-only
    rows sqrt(w_c) v_c that ``kraus_operators`` contracts with the gate;
    weights are clipped at 0 there, since rounding dust down to -ATOL is
    admitted.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        weights, vectors = _freeze(self.weights, float), _freeze(self.vectors)
        if weights.ndim != 1 or vectors.ndim != 2 or not 0 < len(weights) == len(vectors):
            raise ValueError("program state needs (c,) weights and (c, dp) vectors, c > 0")
        total = 0.0  # scalar checks per row beat array reductions on so few rows
        scales = []
        for w, v in zip(weights.tolist(), vectors):
            if not -ATOL <= w <= 1 + ATOL:
                raise ValueError(f"component weight {w} outside [0, 1]")
            if not abs(math.sqrt(np.vdot(v, v).real) - 1.0) <= ATOL:
                raise ValueError("program component states must be normalized")
            total += w
            scales.append(math.sqrt(max(0.0, w)))
        if not abs(total - 1.0) <= ATOL:
            raise ValueError(f"component weights sum to {total}, expected 1")
        rows = np.array(scales)[:, None] * vectors
        rows.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def pure(cls, state: np.ndarray) -> "ProgramState":
        return cls(weights=(1.0,), vectors=(state,))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class OutcomePartition:
    """Disjoint index blocks covering the program outcomes 0..n-1.

    Construction also precomputes, outside the dataclass fields, the
    outcomes in block order, each block's span in that order and the
    (blocks, n) 0/1 membership matrix, so grouping an outcome family by
    block is one index and one matmul.  Both arrays are read-only, so
    one partition can be shared.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(_index(k, "outcome index") for k in b) for b in self.blocks)
        seen: set[int] = set()
        for b in blocks:
            for k in b:
                if k in seen:
                    raise ValueError(f"outcome index {k} appears in two blocks")
                seen.add(k)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover a contiguous index range 0..n-1")
        object.__setattr__(self, "blocks", blocks)
        order: list[int] = []
        spans = []
        for b in blocks:
            spans.append((len(order), len(order) + len(b)))
            order.extend(b)
        membership = np.array([[k in b for k in range(len(order))] for b in blocks], dtype=complex)
        membership.setflags(write=False)
        order = np.array(order, dtype=np.intp)
        order.setflags(write=False)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_spans", tuple(spans))
        object.__setattr__(self, "_membership", membership)

    @classmethod
    def finest(cls, n: int) -> "OutcomePartition":
        return cls(blocks=tuple((k,) for k in range(n)))

    @property
    def num_indices(self) -> int:
        return len(self._order)

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True, eq=False)
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
    contracted = proc.gate.reshape(d, dp, d, dp) @ rows.T  # [i, k, j, c]
    return contracted.transpose(3, 1, 0, 2)


def kraus_operators(proc: Processor, program: ProgramState) -> np.ndarray:
    """Extract the Kraus operators induced by a program state.

    Returns a (c, program_dim, d, d) array whose entry [c, k] is sqrt(w_c)
    times the gate contracted with <k| on the program output and row c of
    ``program.vectors`` on the program input, so the squared operators sum
    to the identity over both leading axes.
    """
    if program.dim != proc.program_dim:
        raise ValueError(
            f"program dimension {program.dim} does not match processor "
            f"program_dim {proc.program_dim}"
        )
    return _branches(proc, program._rows)


def induced_instrument(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> InducedInstrument:
    """Group the Kraus operators by partition block and form the POVM."""
    if partition.num_indices != proc.program_dim:
        raise ValueError("partition does not cover the program outcomes")
    d, n = proc.data_dim, proc.program_dim
    ops = kraus_operators(proc, program)
    grouped = ops[:, partition._order]
    branches = tuple(grouped[:, a:b].reshape(-1, d, d) for a, b in partition._spans)
    # stacking the c components of outcome k as rows makes sum_c A_ck^dag A_ck
    # one product; the view needs no copy for a pure program (c = 1)
    stacked = ops.swapaxes(0, 1).reshape(n, -1, d)
    elements = stacked.conj().swapaxes(1, 2) @ stacked
    povm = (partition._membership @ elements.reshape(n, d * d)).reshape(-1, d, d)
    return InducedInstrument(branches=branches, povm=povm)


def induced_povm(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> np.ndarray:
    """(blocks, d, d) stack of POVM elements: sums of A^dagger A per block."""
    return induced_instrument(proc, program, partition).povm


def validate_povm(povm: np.ndarray) -> np.ndarray:
    """Return the elements as one read-only (n, d, d) stack if they form a POVM.

    ``povm`` is a stack or any sequence of (d, d) operators with d >= 1.
    Raises InvalidPovmError, naming the first offending element, unless
    every element is Hermitian and PSD and they sum to the identity, all
    within ATOL; negative eigenvalue dust above -ATOL is treated as zero.
    An element with an entry that is not finite or above 1 + ATOL in
    modulus is refused as such, before its other checks.  A stack that
    passed is remembered by its exact content, so repeated calls on one
    POVM skip the checks and share the returned array.
    """
    try:
        f = _operator_stack(povm)
    except ValueError as exc:
        raise InvalidPovmError(str(exc)) from None
    return _checked_povm(f.shape, f.tobytes())


@lru_cache(maxsize=_POVM_MEMO_SIZE)
def _checked_povm(shape: tuple[int, ...], data: bytes) -> np.ndarray:
    """The numerical POVM checks on a stack given by content; raising is not cached.

    One decision over the whole stack; only a refusal walks the elements
    to name the first bad one.  Every entry of 0 <= F <= I lies in the unit
    disc, so larger or non-finite entries are refused first: the later
    checks then cannot overflow or warn.
    """
    f = np.frombuffer(data, dtype=complex).reshape(shape)  # read-only view
    d = shape[1]
    if (
        np.abs(f).max() <= 1 + ATOL
        and np.abs(f - f.conj().swapaxes(1, 2)).max() <= ATOL
        and np.linalg.eigvalsh(f)[:, 0].min() >= -ATOL  # eigvalsh sorts ascending
        and np.abs(f.sum(axis=0) - np.eye(d)).max() <= ATOL
    ):
        return f
    for i, e in enumerate(f):
        if not np.abs(e).max() <= 1 + ATOL:
            raise InvalidPovmError(f"element {i} has an entry not finite or above 1 in modulus")
        if not _is_hermitian(e, ATOL):
            raise InvalidPovmError(f"element {i} is not Hermitian")
        if np.linalg.eigvalsh(e)[0] < -ATOL:
            raise InvalidPovmError(f"element {i} is not positive semidefinite")
    raise InvalidPovmError("elements do not sum to the identity")


def outcome_probabilities(rho: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """p_a = Tr(rho F_a) for each POVM element, unclamped."""
    f = validate_povm(povm)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != f.shape[1:]:
        raise ValueError(
            f"state shape {rho.shape} does not match POVM element shape {f.shape[1:]}"
        )
    return np.einsum("ij,kji->k", rho, f).real


def post_measurement_state(
    proc: Processor,
    program: ProgramState,
    rho: np.ndarray,
    outcome: int,
    partition: OutcomePartition,
) -> np.ndarray:
    """Normalized data state after observing one coarse outcome.

    ``outcome`` is an integer block index and ``rho`` a (d, d) operator.
    Raises ImpossibleOutcomeError when the outcome probability is not
    above PROB_FLOOR (a NaN probability included), since the conditional
    state is undefined there.
    """
    outcome = _index(outcome, "outcome")
    if partition.num_indices != proc.program_dim:
        raise ValueError("partition does not cover the program outcomes")
    ops = kraus_operators(proc, program)
    if outcome < 0 or outcome >= len(partition):
        raise ValueError(f"outcome {outcome} outside 0..{len(partition) - 1}")
    rho = np.asarray(rho, dtype=complex)
    d = proc.data_dim
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match data_dim {d}")
    a, b = partition._spans[outcome]
    branch = ops[:, partition._order[a:b]].reshape(-1, d, d)
    out = (branch @ rho @ branch.conj().swapaxes(-1, -2)).sum(axis=0)
    p = out.trace().real  # Tr(sum B rho B^dagger) = Tr(rho F_b)
    if not p > PROB_FLOOR:
        raise ImpossibleOutcomeError(outcome, p)
    out = out / p
    return 0.5 * (out + dag(out))


def sample_outcomes(
    rho: np.ndarray, povm: np.ndarray, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Multinomial counts of ``n`` shots, a nonnegative integer; deterministic for a fixed seed.

    Raises ValueError naming the outcome probabilities p_k = Tr(rho F_k)
    unless they form a distribution within STATE_TOL: no p_k below
    -STATE_TOL and |sum p - 1| <= STATE_TOL.  Only p is checked, not
    ``rho``: an operator that is not a state but gives such p, such as
    (I + 1.2 n.sigma)/2 with n a tetrahedron vertex on the tetrahedron
    POVM, is sampled.  Check ``rho`` with ``is_density_operator`` first
    when it may not be a state, as ``simulate`` does.
    """
    n = _index(n, "sample count")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    p = outcome_probabilities(rho, povm)
    # scalar checks on a few floats beat array reductions; a NaN fails the sum
    probs = p.tolist()
    if not (min(probs) >= -STATE_TOL and abs(sum(probs) - 1.0) <= STATE_TOL):
        raise ValueError(
            f"outcome probabilities {probs} are not a distribution: rho is not a state"
        )
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    if n == 0:
        return np.zeros(len(povm), dtype=np.int64)
    return as_generator(seed).multinomial(n, p)
