"""Programmability of von Neumann measurements.

Which collections of rank-1 projective measurements fit on one processor,
and how to synthesize a processor that realizes them: the joint-
programmability condition on outcome-paired bases, zero-operator padding
(always works, program space N*d), and the relaxed shift construction
(program space d, projection postulate sacrificed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import ATOL, dag, identity_multiple
from .processor import PROB_FLOOR, Processor, ProgramState, kraus_operators
from .sampling import as_generator, random_rank_one_measurement

POSTULATE_ATOL = 1e-8


class IsometryViolationError(ValueError):
    """The padded operator families cannot be completed to a unitary."""

    def __init__(self, first: int, second: int, slots: tuple[int, ...]):
        super().__init__(
            f"slot products of measurements {first} and {second} do not cancel "
            f"(offending slots {slots}); the processor map is not an isometry"
        )
        self.first = first
        self.second = second
        self.slots = slots


def _rank_one_pvm_defect(projs: np.ndarray, tol: float) -> str | None:
    """Why the (n, d, d) stack is not d orthogonal rank-1 projectors summing to I, or None."""
    d = projs.shape[1]
    if len(projs) != d:
        return f"need {d} projectors on dimension {d}, got {len(projs)}"
    if projs.shape != (d, d, d):
        return "projectors must share one dimension"
    skew = np.abs(projs - projs.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    idempotency = np.abs(projs @ projs - projs).max(axis=(1, 2))
    trace = np.abs(np.trace(projs, axis1=1, axis2=2).real - 1.0)
    bad = np.flatnonzero(~((skew <= tol) & (idempotency <= tol) & (trace <= tol)))
    if bad.size:
        return f"element {bad[0]} is not a rank-1 projector"
    if not np.max(np.abs(projs.sum(axis=0) - np.eye(d))) <= tol:
        return "projectors must sum to the identity"
    products = np.abs(projs[:, None] @ projs[None, :]).max(axis=(2, 3))
    bad = np.argwhere(np.triu(products > tol, 1))
    if len(bad):
        return f"projectors {bad[0][0]} and {bad[0][1]} are not orthogonal"
    return None


@dataclass(frozen=True)
class VonNeumannMeasurement:
    """Ordered complete family of d mutually orthogonal rank-1 projectors.

    ``projectors`` is held as one (d, d, d) stack; any sequence of (d, d)
    operators is accepted.
    """

    projectors: np.ndarray

    def __post_init__(self):
        if len(self.projectors) == 0:
            raise ValueError("measurement needs at least one projector")
        try:
            projs = np.asarray(self.projectors, dtype=complex)
        except ValueError as exc:  # the projectors do not stack
            raise ValueError("projectors must share one dimension") from exc
        defect = _rank_one_pvm_defect(projs, ATOL)
        if defect is not None:
            raise ValueError(defect)
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "VonNeumannMeasurement":
        """Measurement whose k-th projector is |v_k><v_k| for the rows v_k of ``vectors``."""
        vs = np.asarray(vectors, dtype=complex)
        return cls(projectors=vs[..., :, None] * vs[..., None, :].conj())

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    def basis_vector(self, k: int) -> np.ndarray:
        """Unit vector of the k-th projector (phase fixed by the largest entry)."""
        evals, evecs = np.linalg.eigh(self.projectors[k])
        v = evecs[:, int(np.argmax(evals))]
        pivot = v[int(np.argmax(np.abs(v)))]
        return v * (pivot.conjugate() / abs(pivot))


def kraus_compatibility(
    ops_a: np.ndarray, ops_b: np.ndarray, tol: float = ATOL
) -> tuple[np.ndarray, complex | None]:
    """Evaluate sum_j A_j^dagger B_j for two outcome-paired operator families.

    Each family is an (n, d, d) stack or a sequence of (d, d) operators.
    Two families realizable on the same processor must make this a scalar
    multiple k*I of the identity, with k the overlap of their program
    states.  Returns (S, k), with k None when S is not scalar.
    """
    if len(ops_a) != len(ops_b):
        raise ValueError("families must pair outcomes one-to-one")
    try:
        a = np.asarray(ops_a, dtype=complex)
        b = np.asarray(ops_b, dtype=complex)
    except ValueError as exc:  # a family does not stack
        raise ValueError("paired operators must share one dimension") from exc
    if a.ndim != 3 or a.shape != b.shape or a.shape[1] != a.shape[2]:
        raise ValueError("paired operators must share one dimension")
    s = np.einsum("kji,kjl->il", a.conj(), b)
    return s, identity_multiple(s, tol)


def coprogram_condition(
    m1: VonNeumannMeasurement,
    m2: VonNeumannMeasurement,
    pairing: list[tuple[int, int]] | None = None,
    weights: list[float] | None = None,
    tol: float = ATOL,
) -> tuple[np.ndarray, complex | None]:
    """Joint-programmability operator for two measurements.

    S = sum_t w_t <e_i|g_j> |e_i><g_j| = sum_t w_t E_i G_j over the paired
    outcomes (i, j); the default pairing is by index with unit weights.
    Working with projector products keeps S independent of basis-vector
    phases.  The scalar k is present exactly when S = k*I, in which case
    programs with overlap k are admissible; otherwise the program states
    must be orthogonal.  An explicit pairing (with repetitions and
    weights) expresses realizations that spread one measurement over
    several processor outcomes.
    """
    if m1.dim != m2.dim:
        raise ValueError("measurements must share one dimension")
    n1, n2 = len(m1.projectors), len(m2.projectors)
    if pairing is None:
        if n1 != n2:
            raise ValueError("index pairing needs equal outcome counts")
        pairing = [(j, j) for j in range(n1)]
    if weights is None:
        weights = [1.0] * len(pairing)
    if len(weights) != len(pairing):
        raise ValueError("weights must match the pairing length")
    pairs = np.array(pairing, dtype=int).reshape(len(pairing), 2)
    i, j = pairs.T
    outside = (i < 0) | (i >= n1) | (j < 0) | (j >= n2)
    if outside.any():
        t = int(np.argmax(outside))
        raise ValueError(f"pairing ({i[t]}, {j[t]}) outside the outcome ranges")
    s = np.einsum("t,tab,tbc->ac", weights, m1.projectors[i], m2.projectors[j])
    return s, identity_multiple(s, tol)


@dataclass(frozen=True)
class SlotAssignment:
    """Placement of measurement outcomes into processor outcome slots.

    Measurement alpha carries the orthonormal program state
    ``program_states[alpha]`` (a row of an (n, program_dim) array) and its
    outcome j lands in processor slot ``slot_maps[alpha][j]``; slots it
    does not use hold the zero operator.
    """

    program_dim: int
    program_states: np.ndarray
    slot_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        states = np.asarray(self.program_states, dtype=complex)
        if len(states) != len(self.slot_maps):
            raise ValueError("one slot map per program state required")
        if states.shape != (len(states), self.program_dim):
            raise ValueError("program states must live in the program space")
        if not np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= ATOL):
            raise ValueError("program states must be normalized")
        gram = states.conj() @ states.T
        if not np.all(np.abs(gram - np.diag(np.diag(gram))) <= ATOL):
            raise ValueError("program states must be pairwise orthogonal")
        maps = tuple(tuple(int(s) for s in m) for m in self.slot_maps)
        for m in maps:
            if len(set(m)) != len(m):
                raise ValueError("slot maps must be injective")
            if any(s < 0 or s >= self.program_dim for s in m):
                raise ValueError("slot index outside the program space")
        object.__setattr__(self, "program_states", states)
        object.__setattr__(self, "slot_maps", maps)


def pad_with_zero_slots(measurements: list[VonNeumannMeasurement]) -> SlotAssignment:
    """Disjoint-slot assignment that works for any N measurements.

    Measurement alpha gets slots [alpha*d, (alpha+1)*d) of an N*d program
    space and the alpha-th computational program state, so all cross
    products vanish and the processor map is an isometry by construction.
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    d = measurements[0].dim
    for m in measurements:
        if m.dim != d:
            raise ValueError("measurements must share one dimension")
    n = len(measurements)
    dp = n * d
    return SlotAssignment(
        program_dim=dp,
        program_states=np.eye(dp, dtype=complex)[:n],
        slot_maps=tuple(tuple(range(a * d, (a + 1) * d)) for a in range(n)),
    )


@dataclass(frozen=True)
class MeasurementRealization:
    """How one program of a synthesized processor performs its measurement.

    ``projectors`` is the measurement's (d, d, d) stack and
    ``realized_povm`` the (program_dim, d, d) stack of A_k^dagger A_k the
    program induces, indexed by processor outcome.
    """

    index: int
    projectors: np.ndarray
    program_state: np.ndarray
    slot_map: tuple[int, ...]
    realized_povm: np.ndarray
    realized: bool
    postulate_compliant: bool
    relabeling: np.ndarray | None


@dataclass(frozen=True)
class SynthesisReport:
    """Synthesized processor plus per-measurement verification records."""

    processor: Processor
    unitary: bool
    completion_used: bool
    measurements: tuple[MeasurementRealization, ...]

    @property
    def gate(self) -> np.ndarray:
        return self.processor.gate


def _complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of v's columns."""
    q, _ = np.linalg.qr(v, mode="complete")
    return q[:, v.shape[1]:]


def _check_isometry(image: np.ndarray, padded: np.ndarray) -> None:
    """Raise IsometryViolationError unless image^dagger image = I.

    Block (a, b) of the Gram matrix is sum_k padded[a, k]^dagger padded[b, k];
    the first failing block in row-major order is reported with the slots
    whose cross terms do not vanish.
    """
    n, _, d, _ = padded.shape
    gram = dag(image) @ image
    defect = np.abs(gram - np.eye(n * d)).reshape(n, d, n, d).max(axis=(1, 3))
    bad = np.argwhere(defect > ATOL)
    if len(bad) == 0:
        return
    a, b = (int(x) for x in bad[0])
    slots: tuple[int, ...] = ()
    if a != b:
        cross = np.einsum("kri,krj->kij", padded[a].conj(), padded[b])
        slots = tuple(int(k) for k in np.flatnonzero(np.abs(cross).max(axis=(1, 2)) > ATOL))
    raise IsometryViolationError(a, b, slots)


def _post_states_match(
    ops: np.ndarray,
    slot_map: tuple[int, ...],
    projectors: np.ndarray,
    rho: np.ndarray,
    floor: float,
) -> bool:
    """Projection postulate on one input state.

    Every processor outcome k with probability Tr(A_k rho A_k^dagger) above
    ``floor`` must leave the data in the projector of the measurement
    outcome placed in slot k.  Slots outside the slot map target the zero
    operator, which no unit-trace post-state matches, so a likely outcome
    there fails.
    """
    branches = ops @ rho @ ops.conj().transpose(0, 2, 1)
    p = np.trace(branches, axis1=1, axis2=2).real
    target = np.zeros_like(branches)
    target[list(slot_map)] = projectors
    live = p > floor
    posts = branches[live] / p[live, None, None]
    return bool(np.all(np.abs(posts - target[live]) <= POSTULATE_ATOL))


def _synthesize(
    padded: np.ndarray,
    states: np.ndarray,
    measurements: list[VonNeumannMeasurement],
    slot_maps: tuple[tuple[int, ...], ...],
    relabelings: tuple[np.ndarray | None, ...],
) -> SynthesisReport:
    """Processor acting as psi (x) states[a] -> sum_k (padded[a, k] psi) (x) |k>.

    ``padded`` has shape (n, dp, d, d) and ``states`` (n, dp).  Column
    (a, i) of the image isometry V is the image of e_i (x) states[a], and
    the same column of the domain isometry W is e_i (x) states[a] itself,
    so the gate is V W^dagger plus V_perp W_perp^dagger on the orthogonal
    complements.
    """
    n, dp, d, _ = padded.shape
    image = padded.transpose(2, 1, 0, 3).reshape(d * dp, n * d)
    _check_isometry(image, padded)
    domain = np.einsum("ij,am->jmai", np.eye(d), states).reshape(d * dp, n * d)
    gate = image @ dag(domain) + _complement(image) @ dag(_complement(domain))
    proc = Processor(data_dim=d, program_dim=dp, gate=gate)
    mixed = np.eye(d, dtype=complex) / d
    records = []
    for a, m in enumerate(measurements):
        ops = kraus_operators(proc, ProgramState.pure(states[a]))[0]
        realized = ops.conj().transpose(0, 2, 1) @ ops
        wanted = padded[a].conj().transpose(0, 2, 1) @ padded[a]
        records.append(
            MeasurementRealization(
                index=a,
                projectors=m.projectors,
                program_state=states[a],
                slot_map=slot_maps[a],
                realized_povm=realized,
                realized=bool(np.max(np.abs(realized - wanted)) <= 10 * ATOL),
                postulate_compliant=_post_states_match(
                    ops, slot_maps[a], m.projectors, mixed, PROB_FLOOR
                ),
                relabeling=relabelings[a],
            )
        )
    return SynthesisReport(
        processor=proc, unitary=True, completion_used=dp > n, measurements=tuple(records)
    )


def build_orthogonal_processor(
    assign: SlotAssignment, measurements: list[VonNeumannMeasurement]
) -> SynthesisReport:
    """Synthesize a processor realizing each measurement from its program state.

    The slot assignment places each measurement's projectors in its slots
    (zero elsewhere); the map extends to a unitary exactly when all cross
    products between different measurements' slot operators cancel, which
    is checked first and reported as IsometryViolationError naming the
    offending measurement pair and slots.
    """
    if len(measurements) != len(assign.program_states):
        raise ValueError("one measurement per program state required")
    d = measurements[0].dim
    padded = np.zeros((len(measurements), assign.program_dim, d, d), dtype=complex)
    for a, (m, slots) in enumerate(zip(measurements, assign.slot_maps)):
        if m.dim != d:
            raise ValueError("measurements must share one dimension")
        if len(slots) != d:
            raise ValueError(f"slot map {a} needs {d} slots, got {len(slots)}")
        padded[a, list(slots)] = m.projectors
    return _synthesize(
        padded, assign.program_states, measurements, assign.slot_maps,
        (None,) * len(measurements),
    )


def relaxed_pvm_processor(pvms: list[VonNeumannMeasurement]) -> SynthesisReport:
    """Shift-construction processor for up to d measurements on a d-size program.

    Measurement alpha is realized through the relabeling unitary U_alpha
    mapping its k-th basis vector to |(k + alpha) mod d>, which makes all
    cross products cancel for arbitrary inputs.  Outcome statistics are
    exact; post-measurement states are U E U^dagger, so the projection
    postulate only survives when U_alpha is trivial.
    """
    if not pvms:
        raise ValueError("need at least one measurement")
    d = pvms[0].dim
    n = len(pvms)
    if n > d:
        raise ValueError(f"shift construction fits at most d={d} measurements, got {n}")
    for m in pvms:
        if m.dim != d:
            raise ValueError("measurements must share one dimension")
    outcomes = np.arange(d)
    # slot k of program alpha holds |(k + alpha) mod d><phi_k|
    padded = np.zeros((n, d, d, d), dtype=complex)
    for a, m in enumerate(pvms):
        phis = np.array([m.basis_vector(k) for k in outcomes])
        padded[a, outcomes, (outcomes + a) % d] = phis.conj()
    return _synthesize(
        padded, np.eye(d, dtype=complex)[:n], pvms,
        (tuple(range(d)),) * n, tuple(padded.sum(axis=1)),
    )


def verify_projection_postulate(
    report: SynthesisReport,
    measurement: VonNeumannMeasurement,
    samples: list[np.ndarray],
) -> bool:
    """Check post-measurement states against the measurement's projectors.

    For every sample state and every outcome with probability above 1e-10,
    the conditional post-state must equal the outcome's projector within
    1e-8.  The measurement must be one the report realizes.
    """
    record = next(
        (
            rec
            for rec in report.measurements
            if rec.projectors.shape == measurement.projectors.shape
            and np.max(np.abs(rec.projectors - measurement.projectors)) <= POSTULATE_ATOL
        ),
        None,
    )
    if record is None:
        raise ValueError("measurement is not realized by this report")
    ops = kraus_operators(report.processor, ProgramState.pure(record.program_state))[0]
    return all(
        _post_states_match(
            ops, record.slot_map, measurement.projectors, np.asarray(rho, dtype=complex), 1e-10
        )
        for rho in samples
    )


@dataclass(frozen=True)
class FeasibilityViolation:
    """One broken necessary condition for a shared d-dimensional program."""

    kind: str  # "row_orthogonality" or "column_permutation"
    first: int
    second: int
    row: int | None = None


def feasibility_table_check(
    columns: list[VonNeumannMeasurement], tol: float = ATOL
) -> list[FeasibilityViolation]:
    """Necessary conditions for realizing the columns with a d-size program.

    Checks that outcome-paired vectors of different columns are orthogonal
    (row orthogonality) and that no column is an outcome permutation of
    another up to phases.  An empty result means the collection passes
    the necessary conditions; it is not a sufficiency certificate.
    """
    if not columns:
        return []
    d = columns[0].dim
    for m in columns:
        if m.dim != d:
            raise ValueError("columns must share one dimension")
    if len(columns) > d:
        raise ValueError(f"at most d={d} columns can share a d-size program")
    n = len(columns)
    flat = np.array([m.projectors for m in columns]).reshape(n * d, d * d)
    # overlaps[a, k, b, l] = Tr(P_ak P_bl); the projectors are Hermitian
    overlaps = (flat @ flat.conj().T).real.reshape(n, d, n, d)
    rows = np.einsum("akbk->abk", overlaps) > tol
    matches = overlaps > 1.0 - tol
    violations = []
    for a, b in zip(*np.triu_indices(n, 1)):
        a, b = int(a), int(b)
        violations += [
            FeasibilityViolation(kind="row_orthogonality", first=a, second=b, row=int(k))
            for k in np.flatnonzero(rows[a, b])
        ]
        # column b permutes column a's outcomes when every outcome of each
        # matches exactly one outcome of the other
        hits = matches[a, :, b]
        if np.all(hits.sum(axis=0) == 1) and np.all(hits.sum(axis=1) == 1):
            violations.append(
                FeasibilityViolation(kind="column_permutation", first=a, second=b)
            )
    return violations


@dataclass(frozen=True)
class PairSearchResult:
    """Outcome of a randomized hunt for a feasible distinct measurement pair."""

    dim: int
    trials: int
    hits: tuple[tuple[VonNeumannMeasurement, VonNeumannMeasurement], ...]


def search_coprogrammable_pair(
    dim: int, trials: int, seed: int | np.random.Generator
) -> PairSearchResult:
    """Randomized search for two distinct measurements passing the table check.

    Each trial draws a random measurement, then draws candidate partner
    vectors inside the orthogonal complement of each outcome (so row
    orthogonality holds by construction) and keeps the partner only when
    those vectors happen to form a measurement that is not an outcome
    permutation of the first.  No hit is expected for dim 2 or 3.
    """
    rng = as_generator(seed)
    hits = []
    for _ in range(trials):
        first = VonNeumannMeasurement(projectors=random_rank_one_measurement(dim, rng))
        candidate = []
        for k in range(dim):
            e = first.basis_vector(k)
            comp = _complement(e[:, None])
            coeff = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
            v = comp @ (coeff / np.linalg.norm(coeff))
            candidate.append(v)
        candidate = np.array(candidate)
        if np.max(np.abs(candidate.conj() @ candidate.T - np.eye(dim))) > 1e-8:
            continue
        second = VonNeumannMeasurement.from_basis(candidate)
        if not feasibility_table_check([first, second]):
            hits.append((first, second))
    return PairSearchResult(dim=dim, trials=trials, hits=tuple(hits))


@dataclass(frozen=True)
class ExtraProgramSearchResult:
    """Programs beyond the construction basis that realize some measurement."""

    trials: int
    hits: tuple[np.ndarray, ...]


def search_extra_relaxed_program(
    pvms: list[VonNeumannMeasurement], trials: int, seed: int | np.random.Generator
) -> ExtraProgramSearchResult:
    """Look for extra program states of a shift-construction processor.

    Draws random genuinely superposed program states and reports those
    whose induced outcome operators form a measurement (rank-1 orthogonal
    projectors).  Whether such states exist beyond the basis programs is
    an open question; this utility only reports what it finds.
    """
    report = relaxed_pvm_processor(pvms)
    proc = report.processor
    rng = as_generator(seed)
    hits = []
    for _ in range(trials):
        v = rng.normal(size=proc.program_dim) + 1j * rng.normal(size=proc.program_dim)
        v /= np.linalg.norm(v)
        if np.max(np.abs(v)) > 1.0 - 1e-6:
            continue
        ops = kraus_operators(proc, ProgramState.pure(v))[0]
        if _rank_one_pvm_defect(ops.conj().transpose(0, 2, 1) @ ops, 1e-8) is None:
            hits.append(v)
    return ExtraProgramSearchResult(trials=trials, hits=tuple(hits))
