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

from .qcore import ATOL, InfeasibleError, _array, _index_rows, _operator_stack, _typed, dag
from .processor import Processor, _branches, _checked_povm, _freeze, _state

# A post-measurement state matches its projector within POSTULATE_ATOL;
# outcomes at or below POSTULATE_FLOOR in probability are not checked.
POSTULATE_ATOL = 1e-8
POSTULATE_FLOOR = 1e-10
# A realized POVM element is read back from the synthesized gate; its
# program columns are copies of the image, and the check still allows ten
# times the structural tolerance rather than demanding equal bits.
REALIZED_ATOL = 10 * ATOL


def _shared_dim(measurements: list[VonNeumannMeasurement]) -> int:
    """The one dimension of a nonempty measurement list; ValueError otherwise."""
    if not isinstance(measurements, (list, tuple)) or not measurements:
        raise ValueError("measurements must be a nonempty list of VonNeumannMeasurement")
    for i, m in enumerate(measurements):
        _typed(m, VonNeumannMeasurement, f"measurement {i}")
    d = measurements[0].dim
    if any(m.dim != d for m in measurements):
        raise ValueError("measurements must share one dimension")
    return d


class IsometryViolationError(InfeasibleError):
    """The padded operator families cannot be completed to a unitary."""

    def __init__(self, first: int, second: int, slots: tuple[int, ...]):
        super().__init__(
            f"slot products of measurements {first} and {second} do not cancel "
            f"(offending slots {slots}); the processor map is not an isometry"
        )
        self.first = first
        self.second = second
        self.slots = slots


@dataclass(frozen=True, eq=False)
class VonNeumannMeasurement:
    """Ordered complete family of d mutually orthogonal rank-1 projectors.

    ``projectors`` is held as one read-only (d, d, d) stack; any sequence
    of (d, d) operators is accepted, read by ``qcore._operator_stack``.
    It is checked as a POVM of d elements by the checks of
    ``validate_povm`` (raising InvalidPovmError), run without its memo: a
    measurement is checked once, and its entry would only push out the
    POVMs that are measured with.  Each element must also have unit trace
    and be idempotent within ATOL.  Orthogonality then follows: with
    P_k ~ |v_k><v_k| and V = [v_1 ... v_d], the sum's defect VV^dagger - I
    has the spectrum of V^dagger V - I, whose off-diagonal entries are the
    overlaps <v_j|v_k>, so every |P_j P_k| entry is at most d times the
    sum's max-norm defect, d * ATOL to first order.
    """

    projectors: np.ndarray

    def __post_init__(self):
        projs = _operator_stack(self.projectors)
        d = projs.shape[1]
        if len(projs) != d:
            raise ValueError(f"need {d} projectors on dimension {d}, got {len(projs)}")
        projs = _checked_povm(_freeze(projs))
        idempotency = np.abs(projs @ projs - projs).max(axis=(1, 2))
        trace = np.abs(np.trace(projs, axis1=1, axis2=2).real - 1.0)
        bad = np.flatnonzero(~((idempotency <= ATOL) & (trace <= ATOL)))
        if bad.size:
            raise ValueError(f"element {bad[0]} is not a rank-1 projector")
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "VonNeumannMeasurement":
        """Measurement whose k-th projector is |v_k><v_k| for the rows v_k of ``vectors``."""
        vs = _array(vectors, complex, (None, None), "basis")
        # an entry above 1 in modulus, or its overflow, is refused in its projector
        with np.errstate(over="ignore", invalid="ignore"):
            projs = vs[:, :, None] * vs[:, None, :].conj()
        return cls(projectors=projs)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    def basis_vector(self, k: int) -> np.ndarray:
        """Unit vector of the k-th projector (phase fixed by the largest entry)."""
        evals, evecs = np.linalg.eigh(self.projectors[k])
        v = evecs[:, int(np.argmax(evals))]
        pivot = v[int(np.argmax(np.abs(v)))]
        return v * (pivot.conjugate() / abs(pivot))


def _pair_sums(left: np.ndarray, right: np.ndarray, d: int, scalars: np.ndarray | None = None):
    """Blocks S_ab = sum_k A^a_k^dagger B^b_k of the one product dag(left) @ right.

    Column (a, j) of an image stacks A^a_k e_j over the outcomes k.  Returns the
    (n_left, n_right, d, d) blocks, their scalars (Tr(S_ab)/d unless given) and
    the first pair, row-major, whose block is not scalars[a, b] * I within ATOL.
    """
    s = dag(left) @ right
    s = s.reshape(len(s) // d, d, -1, d).swapaxes(1, 2)
    k = np.trace(s, axis1=2, axis2=3) / d if scalars is None else scalars
    bad = np.argwhere(~(np.abs(s - k[..., None, None] * np.eye(d)).max(axis=(2, 3)) <= ATOL))
    return s, k, (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def kraus_compatibility(ops_a: np.ndarray, ops_b: np.ndarray) -> tuple[np.ndarray, complex | None]:
    """Evaluate sum_j A_j^dagger B_j for two outcome-paired operator families.

    Each family is an (n, d, d) stack or a sequence of (d, d) operators.
    Two families realizable on the same processor must make this a scalar
    multiple k*I of the identity, with k the overlap of their program
    states.  Returns (S, k), with k None when S is not scalar within ATOL.
    """
    a, b = _operator_stack(ops_a), _operator_stack(ops_b)
    if len(a) != len(b):
        raise ValueError("families must pair outcomes one-to-one")
    if a.shape != b.shape:
        raise ValueError("paired operators must share one dimension")
    d = a.shape[1]
    s, k, bad = _pair_sums(a.reshape(-1, d), b.reshape(-1, d), d)
    return s[0, 0], None if bad else k[0, 0]


def coprogram_condition(
    m1: VonNeumannMeasurement,
    m2: VonNeumannMeasurement,
    pairing: list[tuple[int, int]] | None = None,
    weights: list[float] | None = None,
) -> tuple[np.ndarray, complex | None]:
    """Joint-programmability operator for two measurements.

    S = sum_t w_t <e_i|g_j> |e_i><g_j| = sum_t w_t E_i G_j over the paired
    outcomes (i, j); the default pairing is by index with unit weights.
    Working with projector products keeps S independent of basis-vector
    phases.  The scalar k is present exactly when S = k*I within ATOL, in
    which case programs with overlap k are admissible; otherwise, or when
    |k| <= ATOL (overlap 0), the program states must be orthogonal.  An
    explicit pairing (with repetitions and weights) expresses realizations
    that spread one measurement over several processor outcomes.
    """
    d = _shared_dim([m1, m2])  # a measurement on dimension d has d outcomes
    if pairing is None:
        pairing = [(j, j) for j in range(d)]
    pairs = _index_rows(pairing, "pairing", "pairing index", 0, d - 1)
    if not pairs:
        raise ValueError("pairing must hold at least one (i, j) pair, got none")
    for t, row in enumerate(pairs):
        if len(row) != 2:
            raise ValueError(f"pairing row {t} is not an (i, j) pair")
    w = np.ones(len(pairs)) if weights is None else _array(weights, float, (len(pairs),), "weights")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w[~np.isfinite(w)][0]}")
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    return kraus_compatibility(m1.projectors[i], w[:, None, None] * m2.projectors[j])


@dataclass(frozen=True)
class SlotAssignment:
    """Placement of measurement outcomes into processor outcome slots.

    Measurement alpha carries the program state |alpha> and its outcome j
    lands in processor slot ``slot_maps[alpha][j]``; slots it does not use
    hold the zero operator.  The program space is the smallest that holds
    every program and every slot: max(N, 1 + largest slot) for N maps.
    """

    slot_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        maps = _index_rows(self.slot_maps, "slot maps", "slot index", 0)
        if not maps:
            raise ValueError("need at least one slot map")
        if any(len(set(m)) != len(m) for m in maps):
            raise ValueError("slot maps must be injective")
        object.__setattr__(self, "slot_maps", maps)

    @property
    def program_dim(self) -> int:
        top = max((s for m in self.slot_maps for s in m), default=-1)
        return max(len(self.slot_maps), 1 + top)


def pad_with_zero_slots(measurements: list[VonNeumannMeasurement]) -> SlotAssignment:
    """Disjoint-slot assignment that works for any N measurements.

    Measurement alpha gets slots [alpha*d, (alpha+1)*d) of an N*d program
    space and the alpha-th computational program state, so all cross
    products vanish and the processor map is an isometry by construction.
    """
    d = _shared_dim(measurements)
    return SlotAssignment(
        slot_maps=tuple(tuple(range(a * d, (a + 1) * d)) for a in range(len(measurements)))
    )


@dataclass(frozen=True, eq=False)
class MeasurementRealization:
    """How one program of a synthesized processor performs its measurement.

    ``projectors`` is the measurement's (d, d, d) stack and
    ``realized_povm`` the (program_dim, d, d) stack of A_k^dagger A_k the
    program induces, indexed by processor outcome; the arrays are read-only.
    """

    index: int
    projectors: np.ndarray
    program_state: np.ndarray
    slot_map: tuple[int, ...]
    realized_povm: np.ndarray
    realized: bool
    postulate_compliant: bool
    relabeling: np.ndarray | None

    def __post_init__(self):
        for name in ("projectors", "program_state", "realized_povm", "relabeling"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Synthesized processor plus per-measurement verification records."""

    processor: Processor
    unitary: bool
    completion_used: bool
    measurements: tuple[MeasurementRealization, ...]

    @property
    def gate(self) -> np.ndarray:
        return self.processor.gate


def _check_isometry(image: np.ndarray, padded: np.ndarray) -> None:
    """Raise IsometryViolationError unless image^dagger image = I.

    Block (a, b) of the Gram matrix is sum_k padded[a, k]^dagger padded[b, k];
    the first block in row-major order that is not delta_ab * I is reported
    with the slots whose cross terms do not vanish.
    """
    n, _, d, _ = padded.shape
    _, _, bad = _pair_sums(image, image, d, np.eye(n))
    if bad is None:
        return
    a, b = bad
    slots: tuple[int, ...] = ()
    if a != b:
        cross = np.einsum("kri,krj->kij", padded[a].conj(), padded[b])
        slots = tuple(int(k) for k in np.flatnonzero(np.abs(cross).max(axis=(1, 2)) > ATOL))
    raise IsometryViolationError(a, b, slots)


def _post_states_match(
    ops: np.ndarray,
    slot_map: tuple[int, ...],
    projectors: np.ndarray,
    rhos: np.ndarray,
) -> bool:
    """Projection postulate on an (s, d, d) stack of input states.

    For every rho, each processor outcome k with probability
    Tr(A_k rho A_k^dagger) above POSTULATE_FLOOR must leave the data in the
    projector of the measurement outcome placed in slot k.  Slots outside
    the slot map target the zero operator, which no unit-trace post-state
    matches, so a likely outcome there fails.
    """
    branches = ops @ rhos[:, None] @ ops.conj().transpose(0, 2, 1)
    p = np.trace(branches, axis1=2, axis2=3).real
    target = np.zeros(ops.shape, dtype=complex)
    target[list(slot_map)] = projectors
    live, k = np.nonzero(p > POSTULATE_FLOOR)
    posts = branches[live, k] / p[live, k, None, None]
    return bool(np.all(np.abs(posts - target[k]) <= POSTULATE_ATOL))


def _synthesize(
    padded: np.ndarray,
    measurements: list[VonNeumannMeasurement],
    slot_maps: tuple[tuple[int, ...], ...],
    relabelings: tuple[np.ndarray | None, ...],
) -> SynthesisReport:
    """Processor acting as psi (x) |a> -> sum_k (padded[a, k] psi) (x) |k>.

    ``padded`` has shape (n, dp, d, d) and program a is the computational
    state |a>.  Column (a, i) of the image isometry is the image of
    e_i (x) |a>, so it is copied to gate column i*dp + a; the orthonormal
    complement of the image, from one complete QR, fills the columns
    (i, a >= n) in order; with dp = n there are none and no QR is run.
    """
    n, dp, d, _ = padded.shape
    image = padded.transpose(2, 1, 0, 3).reshape(d * dp, n * d)
    _check_isometry(image, padded)
    gate = np.empty((d * dp, d, dp), dtype=complex)
    gate[:, :, :n] = image.reshape(d * dp, n, d).swapaxes(1, 2)
    if dp > n:
        q, _ = np.linalg.qr(image, mode="complete")
        gate[:, :, n:] = q[:, n * d:].reshape(d * dp, d, dp - n)
    # + 0.0 turns a -0.0, copied or from the QR, into +0.0 (as in qid_povm),
    # so exported bytes stay stable
    gate += 0.0
    states = np.eye(n, dp, dtype=complex)
    proc = Processor(data_dim=d, program_dim=dp, gate=gate.reshape(d * dp, d * dp))
    ops = _branches(proc, states)
    realized = ops.conj().swapaxes(2, 3) @ ops
    wanted = padded.conj().swapaxes(2, 3) @ padded
    exact = np.abs(realized - wanted).max(axis=(1, 2, 3)) <= REALIZED_ATOL
    mixed = np.eye(d, dtype=complex)[None] / d
    records = tuple(
        MeasurementRealization(
            index=a,
            projectors=m.projectors,
            program_state=states[a],
            slot_map=slot_maps[a],
            realized_povm=realized[a],
            realized=bool(exact[a]),
            postulate_compliant=_post_states_match(ops[a], slot_maps[a], m.projectors, mixed),
            relabeling=relabelings[a],
        )
        for a, m in enumerate(measurements)
    )
    return SynthesisReport(
        processor=proc, unitary=True, completion_used=dp > n, measurements=records
    )


def build_orthogonal_processor(
    assign: SlotAssignment, measurements: list[VonNeumannMeasurement]
) -> SynthesisReport:
    """Synthesize a processor realizing each measurement from its program state.

    The slot assignment places each measurement's projectors in its slots
    (zero elsewhere); the map extends to a unitary exactly when all cross
    products between different measurements' slot operators cancel, which
    is checked first and reported as IsometryViolationError naming the
    offending measurement pair and slots.  Any injective assignment can be
    relabelled into the N*d slots of N measurements, so a slot index at or
    above N*d, which would only enlarge the gate, raises ValueError.
    """
    d = _shared_dim(measurements)
    n, dp = len(measurements), _typed(assign, SlotAssignment, "assign").program_dim
    if n != len(assign.slot_maps):
        raise ValueError("one measurement per slot map required")
    if dp > n * d:
        raise ValueError(
            f"slot index {dp - 1} outside 0..{n * d - 1}, the N*d slots of the inputs"
        )
    padded = np.zeros((n, dp, d, d), dtype=complex)
    for a, (m, slots) in enumerate(zip(measurements, assign.slot_maps)):
        if len(slots) != d:
            raise ValueError(f"slot map {a} needs {d} slots, got {len(slots)}")
        padded[a, list(slots)] = m.projectors
    return _synthesize(padded, measurements, assign.slot_maps, (None,) * n)


def relaxed_pvm_processor(pvms: list[VonNeumannMeasurement]) -> SynthesisReport:
    """Shift-construction processor for up to d measurements on a d-size program.

    Measurement alpha is realized through the relabeling unitary U_alpha
    mapping its k-th basis vector to |(k + alpha) mod d>, which makes all
    cross products cancel for arbitrary inputs.  Outcome statistics are
    exact; post-measurement states are U E U^dagger, so the projection
    postulate only survives when U_alpha is trivial.  More than d
    measurements raise InfeasibleError.
    """
    d, n = _shared_dim(pvms), len(pvms)
    if n > d:
        raise InfeasibleError(f"the shift construction fits at most d={d} measurements, got {n}")
    outcomes = np.arange(d)
    # slot k of program alpha holds |(k + alpha) mod d><phi_k|
    padded = np.zeros((n, d, d, d), dtype=complex)
    for a, m in enumerate(pvms):
        phis = np.array([m.basis_vector(k) for k in outcomes])
        padded[a, outcomes, (outcomes + a) % d] = phis.conj()
    return _synthesize(padded, pvms, (tuple(range(d)),) * n, tuple(padded.sum(axis=1)))


def verify_projection_postulate(
    report: SynthesisReport,
    measurement: VonNeumannMeasurement,
    samples: list[np.ndarray],
) -> bool:
    """Check post-measurement states against the measurement's projectors.

    For every sample state and every outcome with probability above
    POSTULATE_FLOOR, the conditional post-state must equal the outcome's
    projector within POSTULATE_ATOL.  The measurement must be one the
    report realizes, and every sample a density operator within STATE_TOL.
    """
    _typed(measurement, VonNeumannMeasurement, "measurement")
    for record in _typed(report, SynthesisReport, "report").measurements:
        same = record.projectors.shape == measurement.projectors.shape
        if same and np.max(np.abs(record.projectors - measurement.projectors)) <= POSTULATE_ATOL:
            break
    else:
        raise ValueError("measurement is not realized by this report")
    ops = _branches(report.processor, record.program_state[None])[0]
    rhos = _array(samples, complex, (None, measurement.dim, measurement.dim), "samples")
    for i, rho in enumerate(rhos):  # a NaN sample would leave no outcome to check
        _state(rho, measurement.dim, f"samples[{i}]")
    return _post_states_match(ops, record.slot_map, measurement.projectors, rhos)


@dataclass(frozen=True)
class FeasibilityViolation:
    """One broken necessary condition for a shared d-dimensional program."""

    kind: str  # "row_orthogonality" or "column_permutation"
    first: int
    second: int
    row: int | None = None


def feasibility_table_check(columns: list[VonNeumannMeasurement]) -> list[FeasibilityViolation]:
    """Necessary conditions for realizing the columns with a d-size program.

    Checks that outcome-paired vectors of different columns are orthogonal
    (row orthogonality) and that no column is an outcome permutation of
    another up to phases.  An empty result means the collection passes
    the necessary conditions; it is not a sufficiency certificate.  More
    than d columns raise InfeasibleError.
    """
    if isinstance(columns, (list, tuple)) and not columns:
        return []
    d = _shared_dim(columns)
    if len(columns) > d:
        raise InfeasibleError(f"at most d={d} columns can share a d-size program")
    n = len(columns)
    flat = np.array([m.projectors for m in columns]).reshape(n * d, d * d)
    # overlaps[a, k, b, l] = Tr(P_ak P_bl); the projectors are Hermitian
    overlaps = (flat @ flat.conj().T).real.reshape(n, d, n, d)
    rows = np.einsum("akbk->abk", overlaps) > ATOL
    matches = overlaps > 1.0 - ATOL
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
