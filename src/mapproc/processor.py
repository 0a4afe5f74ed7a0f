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
import threading
from dataclasses import dataclass

import numpy as np

from .qcore import (
    _COUNT_MAX, ATOL, _array, _index, _index_rows, _is_hermitian, _operator_stack, _qubit_spectrum,
    _typed, dag, is_density_operator, is_unitary,
)

PROB_FLOOR = 1e-12
# A state, typed or rounded by hand, passes within STATE_TOL: every rho argument,
# a density-operator document and a projection-postulate sample (see _state).
STATE_TOL = 1e-8

# One memo of checked POVMs by content, entries [read-only stack, inversion], the
# inversion None until tomography stores the Tomographer or rank; entries pin their
# stacks, so the bound stays small (one tomography POVM and a few others in use).
_POVM_MEMO_SIZE = 4
_POVM_MEMO: dict[tuple, list] = {}  # in order of entry, the oldest first
_POVM_LOCK = threading.Lock()


def _state(rho, d: int | None, name: str) -> np.ndarray:
    """``rho`` as a complex (d, d) array (None: any n) if it is a density operator within
    STATE_TOL, as is_density_operator decides; else one ValueError line naming it.

    A 2x2 is decided in closed form on Python scalars, by is_density_operator's
    checks: entries in the unit disc, Hermitian, unit trace, and the smallest
    eigenvalue m - r of the lower triangle, as eigvalsh reads it (see
    qcore._qubit_spectrum).  A NaN entry fails a comparison.
    """
    rho = _array(rho, complex, (d, d), name)
    if rho.shape == (2, 2):
        (a, b), (c, e) = rho.tolist()
        bound = 1 + STATE_TOL  # |rho_ij| <= sqrt(rho_ii rho_jj) <= 1
        try:  # abs of a finite complex beyond the float range raises
            m, r = _qubit_spectrum(a.real, c, e.real)
            valid = (
                abs(a) <= bound >= abs(e) and abs(b) <= bound >= abs(c)
                and abs(b - c.conjugate()) <= STATE_TOL
                and 2 * abs(a.imag) <= STATE_TOL >= 2 * abs(e.imag)
                and abs(a.real + e.real - 1.0) <= STATE_TOL and m - r >= -STATE_TOL
            )
        except OverflowError:
            valid = False
    else:
        valid = is_density_operator(rho, STATE_TOL)
    if not valid:
        raise ValueError(f"{name} is not a density operator within {STATE_TOL}")
    return rho


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
        d, dp = _index(self.data_dim, "data_dim", 1), _index(self.program_dim, "program_dim", 1)
        gate = _array(self.gate, complex, (d * dp, d * dp), "gate")
        if not is_unitary(gate):
            raise ValueError("processor gate must be unitary")
        object.__setattr__(self, "data_dim", d)
        object.__setattr__(self, "program_dim", dp)
        object.__setattr__(self, "gate", _freeze(gate))


@dataclass(frozen=True, eq=False)
class ProgramState:
    """Pure program-register state: ``vector``, a normalized (program_dim,) read-only copy.

    A mixture of programs induces the same mixture of instruments, by
    linearity, so it needs no form of its own.
    """

    vector: np.ndarray

    def __post_init__(self):
        vector = _freeze(_array(self.vector, complex, (None,), "program vector"))
        if not abs(math.sqrt(np.vdot(vector, vector).real) - 1.0) <= ATOL:
            raise ValueError("program vector must be normalized")
        object.__setattr__(self, "vector", vector)

    @property
    def dim(self) -> int:
        return len(self.vector)


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
        blocks = _index_rows(self.blocks, "blocks", "outcome index")
        seen: set[int] = set()
        for b in blocks:
            for k in b:
                if k in seen:
                    raise ValueError(f"outcome index {k} appears in two blocks")
                seen.add(k)
        if not seen:  # as finest refuses a count below 1
            raise ValueError("blocks must hold at least one outcome index, got none")
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover a contiguous index range 0..n-1")
        self._store(np.zeros((len(blocks), len(seen)), dtype=complex), blocks)

    def _store(self, membership: np.ndarray, blocks: tuple) -> None:
        """Keep ``blocks`` and their tables, setting the 0/1 entries of the zero ``membership``."""
        sizes = [len(b) for b in blocks]
        order = np.array([k for b in blocks for k in b], dtype=np.intp)
        membership[np.repeat(np.arange(len(blocks)), sizes), order] = 1.0
        ends = np.cumsum(sizes).tolist()
        order.setflags(write=False)
        membership.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_spans", tuple(zip([0, *ends], ends)))
        object.__setattr__(self, "_membership", membership)

    @classmethod
    def finest(cls, n: int) -> "OutcomePartition":
        n = _index(n, "outcome count", 1, _COUNT_MAX)
        partition = object.__new__(cls)
        # the table is allocated before the loop over n, so a count beyond memory fails at once
        partition._store(np.zeros((n, n), dtype=complex), tuple(zip(range(n))))
        return partition

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
    """Branches [r, k] = (I (x) <k|) gate (I (x) |rows[r]>) of a (rows, program_dim) batch."""
    d, dp = proc.data_dim, proc.program_dim
    contracted = proc.gate.reshape(d, dp, d, dp) @ rows.T  # [i, k, j, r]
    return contracted.transpose(3, 1, 0, 2)


def kraus_operators(proc: Processor, program: ProgramState) -> np.ndarray:
    """Extract the Kraus operators induced by a program state.

    Returns a (program_dim, d, d) array whose entry k is the gate contracted
    with <k| on the program output and ``program.vector`` on the program
    input, so the squared operators sum to the identity.
    """
    proc, program = _typed(proc, Processor, "proc"), _typed(program, ProgramState, "program")
    if program.dim != proc.program_dim:
        raise ValueError(
            f"program dimension {program.dim} does not match processor "
            f"program_dim {proc.program_dim}"
        )
    return _branches(proc, program.vector[None])[0]


def _kraus_for(proc: Processor, program: ProgramState, partition: OutcomePartition) -> np.ndarray:
    """``kraus_operators(proc, program)``, once ``partition`` is shown to cover their outcomes."""
    ops = kraus_operators(proc, program)
    if _typed(partition, OutcomePartition, "partition").num_indices != proc.program_dim:
        raise ValueError("partition does not cover the program outcomes")
    return ops


def induced_instrument(
    proc: Processor, program: ProgramState, partition: OutcomePartition
) -> InducedInstrument:
    """Group the Kraus operators by partition block and form the POVM."""
    ops = _kraus_for(proc, program, partition)
    d, n = proc.data_dim, proc.program_dim
    grouped = ops[partition._order]
    branches = tuple(grouped[a:b] for a, b in partition._spans)
    elements = ops.conj().swapaxes(1, 2) @ ops
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
    passed, or came from ``qid_povm``, is remembered by its exact content,
    so repeated calls on one POVM skip the checks and share the returned array.
    """
    return _povm_entry(povm)[0]


def _povm_entry(povm: np.ndarray, checked: bool = False) -> list:
    """The memo entry of ``povm``; a miss is checked unless ``checked`` vouches for it."""
    try:
        f = _operator_stack(povm)
    except ValueError as exc:
        raise InvalidPovmError(str(exc)) from None
    key = (f.shape, f.tobytes())
    entry = _POVM_MEMO.get(key)  # one atomic read: a hit takes no lock
    if entry is None:
        f = np.frombuffer(key[1], dtype=complex).reshape(f.shape)  # read-only view
        entry = [f if checked else _checked_povm(f), None]
        with _POVM_LOCK:  # entry and eviction of the oldest entry as one step
            _POVM_MEMO[key] = entry
            if len(_POVM_MEMO) > _POVM_MEMO_SIZE:
                del _POVM_MEMO[next(iter(_POVM_MEMO))]
    return entry


def _checked_povm(f: np.ndarray) -> np.ndarray:
    """``f``, an (n, d, d) complex stack, if it passes the numerical POVM checks.

    One walk refuses the first bad element: its entries must lie in the unit
    disc, as those of 0 <= F <= I do (so the later checks cannot overflow or
    warn), then it must be Hermitian, then PSD, all within ATOL.  Last, the
    elements must sum to the identity.
    """
    for i, e in enumerate(f):
        if not np.abs(e).max() <= 1 + ATOL:
            raise InvalidPovmError(f"element {i} has an entry not finite or above 1 in modulus")
        if not _is_hermitian(e, ATOL):
            raise InvalidPovmError(f"element {i} is not Hermitian")
        if not np.linalg.eigvalsh(e)[0] >= -ATOL:  # eigvalsh sorts ascending
            raise InvalidPovmError(f"element {i} is not positive semidefinite")
    if not np.abs(f.sum(axis=0) - np.eye(f.shape[1])).max() <= ATOL:
        raise InvalidPovmError("elements do not sum to the identity")
    return f


def outcome_probabilities(rho: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """p_a = Tr(rho F_a) for each POVM element, unclamped; ``rho`` is read by _state."""
    f = validate_povm(povm)
    return np.einsum("ij,kji->k", _state(rho, f.shape[1], "state"), f).real


def post_measurement_state(
    proc: Processor,
    program: ProgramState,
    rho: np.ndarray,
    outcome: int,
    partition: OutcomePartition,
) -> np.ndarray:
    """Normalized data state after observing one coarse outcome.

    ``outcome`` is an integer block index and ``rho`` a (d, d) density
    operator, read by _state.  Raises ImpossibleOutcomeError when the
    outcome probability is not above PROB_FLOOR, since the conditional
    state is undefined there.
    """
    ops = _kraus_for(proc, program, partition)
    outcome = _index(outcome, "outcome", 0, len(partition) - 1)
    rho = _state(rho, proc.data_dim, "state")
    a, b = partition._spans[outcome]
    branch = ops[partition._order[a:b]]
    out = (branch @ rho @ branch.conj().swapaxes(-1, -2)).sum(axis=0)
    p = out.trace().real  # Tr(sum B rho B^dagger) = Tr(rho F_b)
    if not p > PROB_FLOOR:
        raise ImpossibleOutcomeError(outcome, p)
    out = out / p
    return 0.5 * (out + dag(out))


def sample_outcomes(
    rho: np.ndarray, povm: np.ndarray, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Multinomial counts of ``n`` shots, 0 <= n < 2**63; deterministic for a fixed seed.

    ``seed`` is a Generator, used as given, or an integer >= 0.  It is read
    with ``n``, before the probabilities, so n = 0 refuses a bad seed too.

    ``rho`` must be a density operator within STATE_TOL; it is read once, by
    ``outcome_probabilities``, which refuses anything else in one line,
    "state is not a density operator within 1e-08".  Rounding can leave a
    probability a little below 0: it is sampled as 0, and p renormalized.
    """
    n = _index(n, "sample count", 0, _COUNT_MAX)
    if not isinstance(seed, np.random.Generator):
        seed = _index(seed, "seed", 0)
    p = np.maximum(outcome_probabilities(rho, povm), 0.0)
    p = p / p.sum()
    return np.random.default_rng(seed).multinomial(n, p)
