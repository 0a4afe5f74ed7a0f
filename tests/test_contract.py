"""One input contract for the whole public surface.

Every name ``mapproc`` exports is either listed in ``CONTRACT`` with the
argument positions that take an array, an integer, a real number, a list or
an object of the package (a ``Processor``, a ``ProgramState``, a partition,
a slot assignment, a report, a QID program, a measurement passed alone), or
excluded by name in ``EXCLUDED`` as an error or result type; a new public
name without a row fails ``test_every_export_has_a_row``.  A typed position
refuses every other value as "<name> is not a(n) <type>", unconverted.

Each position is fed every value of ``JUNK`` with its other arguments valid.
A call may return, or raise ValueError (InvalidPovmError and InfeasibleError
are ValueErrors) with a one-line message of at most ``MESSAGE_MAX`` characters
that matches the position's pattern, which names the argument.  Any other
exception, any warning (warnings are errors here) and a call that runs past
``LIMIT`` seconds fail.

``Tomographer`` is made only by ``Tomographer.build``: ``DIRECT`` lists
the positions of its dataclass constructor, and each, fed its valid value
or any value of ``JUNK``, is refused with one TypeError that points to
``build``.

``RANGES`` is the contract's range column: every bounded integer or real
argument with its range.  Each edge value is accepted, or refused for
another reason, and each value just outside the range is refused with
exactly "<name> must be in lo..hi" (or "at least lo", "at most hi"),
"got v".  ``EMPTY`` lists the list arguments whose empty value would build
an object of nothing; each is refused at the call, in the words of the
argument, not later where the object is used.
"""

import re
import warnings

import numpy as np
import pytest

import mapproc as mp
from mapproc.tomography import reconstruct_from_probabilities
from timelimit import time_limit

LIMIT = 2.0
# the longest refusal a junk value may produce: a quoted value is cut short
MESSAGE_MAX = 300


def nested(depth):
    """[[...[]...]] ``depth`` lists deep: its repr exceeds the recursion limit."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


JUNK = {
    "float": 5.0,
    "mapping": {"a": 1},
    "string": "x",
    "none": None,
    "flat-list": [1, 0],
    "ragged-list": [[1, 0], [1]],
    "huge-int": 10**400,
    # str() of an int fails past 4300 digits
    "huger-int": 10**5000,
    "long-string": "x" * 100_000,
    "deep-list": nested(100_000),
    "nans": np.full((2, 2), np.nan),
    "huge-entries": [1e200, 0, 0],
    "bool": True,
    "empty": [],
    "nested-empty": [[[]]],
    "4-d": np.zeros((1, 1, 2, 2)),
}

SIC = mp.qid_povm(mp.sic_program()).elements
RHO = np.eye(2) / 2
PROC = mp.qid_unitary()
PROGRAM = mp.sic_program().program_state()
PARTITION = mp.OutcomePartition.finest(4)
SZ = mp.VonNeumannMeasurement.from_basis(np.eye(2))
SX = mp.VonNeumannMeasurement.from_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
REPORT = mp.build_orthogonal_processor(mp.pad_with_zero_slots([SZ]), [SZ])
TOMOGRAPHER = mp.Tomographer.build(SIC)

# the words an operator-stack refusal names its input with
STACK = r"\(d, d\) operator|^element \d"
MEASUREMENTS = r"measurement"
PROC_IS_NOT = r"^proc is not a Processor$"
PROGRAM_IS_NOT = r"^program is not a ProgramState$"
PARTITION_IS_NOT = r"^partition is not an OutcomePartition$"

# name: ((label, pattern, call, valid value), ...)
CONTRACT = {
    "OutcomePartition": (
        ("blocks", r"^blocks|^outcome index", lambda x: mp.OutcomePartition(blocks=x), [[0, 1]]),
        ("finest", r"^outcome count", mp.OutcomePartition.finest, 4),
    ),
    "Processor": (
        # a huge dimension is read; the gate then has the wrong shape for it
        ("data_dim", r"^data_dim|^gate must have shape",
         lambda x: mp.Processor(data_dim=x, program_dim=4, gate=PROC.gate), 2),
        ("program_dim", r"^program_dim|^gate must have shape",
         lambda x: mp.Processor(data_dim=2, program_dim=x, gate=PROC.gate), 4),
        ("gate", r"^gate|^processor gate",
         lambda x: mp.Processor(data_dim=1, program_dim=2, gate=x), np.eye(2)),
    ),
    "ProgramState": (("vector", r"^program vector", mp.ProgramState, [1, 0]),),
    "induced_instrument": (
        ("proc", PROC_IS_NOT, lambda x: mp.induced_instrument(x, PROGRAM, PARTITION), PROC),
        ("program", PROGRAM_IS_NOT, lambda x: mp.induced_instrument(PROC, x, PARTITION), PROGRAM),
        ("partition", PARTITION_IS_NOT,
         lambda x: mp.induced_instrument(PROC, PROGRAM, x), PARTITION),
    ),
    "induced_povm": (
        ("proc", PROC_IS_NOT, lambda x: mp.induced_povm(x, PROGRAM, PARTITION), PROC),
        ("program", PROGRAM_IS_NOT, lambda x: mp.induced_povm(PROC, x, PARTITION), PROGRAM),
        ("partition", PARTITION_IS_NOT, lambda x: mp.induced_povm(PROC, PROGRAM, x), PARTITION),
    ),
    "kraus_operators": (
        ("proc", PROC_IS_NOT, lambda x: mp.kraus_operators(x, PROGRAM), PROC),
        ("program", PROGRAM_IS_NOT, lambda x: mp.kraus_operators(PROC, x), PROGRAM),
    ),
    "outcome_probabilities": (
        ("rho", r"^state", lambda x: mp.outcome_probabilities(x, SIC), RHO),
        ("povm", STACK, lambda x: mp.outcome_probabilities(RHO, x), SIC),
    ),
    "post_measurement_state": (
        ("proc", PROC_IS_NOT,
         lambda x: mp.post_measurement_state(x, PROGRAM, RHO, 0, PARTITION), PROC),
        ("program", PROGRAM_IS_NOT,
         lambda x: mp.post_measurement_state(PROC, x, RHO, 0, PARTITION), PROGRAM),
        ("partition", PARTITION_IS_NOT,
         lambda x: mp.post_measurement_state(PROC, PROGRAM, RHO, 0, x), PARTITION),
        # a NaN state gives a NaN probability, which is no possible outcome
        ("rho", r"^state|^outcome 0 is impossible",
         lambda x: mp.post_measurement_state(PROC, PROGRAM, x, 0, PARTITION), RHO),
        ("outcome", r"^outcome",
         lambda x: mp.post_measurement_state(PROC, PROGRAM, RHO, x, PARTITION), 0),
    ),
    "sample_outcomes": (
        ("rho", r"^state|rho is not a state", lambda x: mp.sample_outcomes(x, SIC, 10, 0), RHO),
        ("povm", STACK, lambda x: mp.sample_outcomes(RHO, x, 10, 0), SIC),
        ("n", r"^sample count", lambda x: mp.sample_outcomes(RHO, SIC, x, 0), 10),
        ("seed", r"^seed", lambda x: mp.sample_outcomes(RHO, SIC, 10, x), 0),
    ),
    "is_density_operator": (
        ("m", r"^operator", mp.is_density_operator, RHO),
        ("tol", r"^tol", lambda x: mp.is_density_operator(RHO, tol=x), 0.0),
    ),
    "is_unitary": (("m", r"^operator", mp.is_unitary, np.eye(2)),),
    "pauli": (("k", r"^Pauli index", mp.pauli, 1),),
    "trace_distance": (
        ("a", r"^operand a", lambda x: mp.trace_distance(x, RHO), RHO),
        ("b", r"^operand b", lambda x: mp.trace_distance(RHO, x), RHO),
    ),
    "QidProgram": (("amplitudes", r"^QID program amplitudes", mp.QidProgram, [1, 0, 0, 0]),),
    "pauli_measurement_program": (("axis", r"^axis", mp.pauli_measurement_program, 1),),
    "qid_circuit_search": (),
    "qid_povm": (("program", r"^program is not a QidProgram$", mp.qid_povm, mp.sic_program()),),
    "qid_unitary": (),
    "sic_program": (),
    "unitary_program": (("mu", r"^rotation vector", mp.unitary_program, [0.1, 0.2, 0.3]),),
    "Tomographer": (
        ("build", STACK, mp.Tomographer.build, SIC),
        ("reconstruct", r"^probabilities", TOMOGRAPHER.reconstruct, [0.25] * 4),
    ),
    "gram_matrix": (("povm", STACK, mp.gram_matrix, SIC),),
    "is_informationally_complete": (("povm", STACK, mp.is_informationally_complete, SIC),),
    "reconstruct": (
        ("probabilities", r"^probabilities", lambda x: mp.reconstruct(x, SIC), [0.25] * 4),
        ("povm", STACK, lambda x: mp.reconstruct([0.25] * 4, x), SIC),
    ),
    "reconstruct_from_counts": (
        # counts of the wrong length reach the inversion as probabilities
        ("counts", r"^counts|^probabilities",
         lambda x: mp.reconstruct_from_counts(x, SIC), [1, 1, 1, 1]),
        ("povm", STACK, lambda x: mp.reconstruct_from_counts([1, 1, 1, 1], x), SIC),
        ("residual_tol", r"^residual_tol",
         lambda x: mp.reconstruct_from_counts([1, 1, 1, 1], SIC, residual_tol=x), 1.0),
    ),
    "SlotAssignment": (
        ("slot_maps", r"^slot|slot map", lambda x: mp.SlotAssignment(slot_maps=x), [[0, 1]]),
    ),
    "VonNeumannMeasurement": (
        ("projectors", STACK, mp.VonNeumannMeasurement, SZ.projectors),
        ("from_basis", r"^basis|^element \d", mp.VonNeumannMeasurement.from_basis, np.eye(2)),
    ),
    "build_orthogonal_processor": (
        ("assign", r"^assign is not a SlotAssignment$",
         lambda x: mp.build_orthogonal_processor(x, [SZ]), mp.pad_with_zero_slots([SZ])),
        ("measurements", MEASUREMENTS,
         lambda x: mp.build_orthogonal_processor(mp.pad_with_zero_slots([SZ]), x), [SZ]),
    ),
    "coprogram_condition": (
        ("m1", r"^measurement 0 is not", lambda x: mp.coprogram_condition(x, SZ), SX),
        ("m2", r"^measurement 1 is not", lambda x: mp.coprogram_condition(SX, x), SZ),
        ("pairing", r"^pairing",
         lambda x: mp.coprogram_condition(SX, SZ, pairing=x), [[0, 0], [1, 1]]),
        ("weights", r"^weights", lambda x: mp.coprogram_condition(SX, SZ, weights=x), [1, 1]),
    ),
    "feasibility_table_check": (("columns", MEASUREMENTS, mp.feasibility_table_check, [SX]),),
    "kraus_compatibility": (
        ("ops_a", STACK, lambda x: mp.kraus_compatibility(x, SZ.projectors), SX.projectors),
        ("ops_b", STACK, lambda x: mp.kraus_compatibility(SX.projectors, x), SX.projectors),
    ),
    "pad_with_zero_slots": (("measurements", MEASUREMENTS, mp.pad_with_zero_slots, [SZ]),),
    "relaxed_pvm_processor": (("pvms", MEASUREMENTS, mp.relaxed_pvm_processor, [SZ, SX]),),
    "verify_projection_postulate": (
        ("report", r"^report is not a SynthesisReport$",
         lambda x: mp.verify_projection_postulate(x, SZ, [RHO]), REPORT),
        ("measurement", r"^measurement is not a VonNeumannMeasurement$",
         lambda x: mp.verify_projection_postulate(REPORT, x, [RHO]), SZ),
        ("samples", r"^samples",
         lambda x: mp.verify_projection_postulate(REPORT, SZ, x), [RHO]),
    ),
}

EXCLUDED = {
    "ImpossibleOutcomeError": "error type",
    "InconsistentProbabilitiesError": "error type",
    "InfeasibleError": "error type",
    "InvalidPovmError": "error type",
    "IsometryViolationError": "error type",
    "UnderdeterminedPovmError": "error type",
    "InducedInstrument": "result type of induced_instrument",
    "QidCircuit": "result type of qid_circuit_search",
    "QidPovmReport": "result type of qid_povm",
    "SynthesisReport": "result type of build_orthogonal_processor and relaxed_pvm_processor",
}

POSITIONS = [
    pytest.param(call, pattern, valid, id=f"{name}-{label}")
    for name, rows in CONTRACT.items()
    for label, pattern, call, valid in rows
]


def test_every_export_has_a_row():
    assert not set(CONTRACT) & set(EXCLUDED)
    assert set(CONTRACT) | set(EXCLUDED) == set(mp._MODULE_OF)


def outcome(call, value):
    """None for a return, the ValueError raised, or a description of any other exception."""
    try:
        with warnings.catch_warnings(), time_limit(LIMIT, "the call"):
            warnings.simplefilter("error")
            call(value)
    except ValueError as exc:
        return exc
    except Exception as exc:  # any other exception, a warning included, breaks the contract
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("call, pattern, valid", POSITIONS)
def test_junk_is_refused_in_one_line_naming_the_argument(call, pattern, valid, empty_povm_memo):
    # the POVM memo starts empty, so every POVM check runs here under the warnings filter
    assert outcome(call, valid) is None, "the valid value is refused"
    broken = {}
    for label, value in JUNK.items():
        result = outcome(call, value)
        if isinstance(result, ValueError):
            message = str(result)
            if "\n" in message or len(message) > MESSAGE_MAX or not re.search(pattern, message):
                broken[label] = f"ValueError: {message}"
        elif result is not None:
            broken[label] = result
    assert not broken, broken


# (label, call, valid value); the stacks a direct call once built unchecked are in the rows
DIRECT = [
    ("Tomographer-povm", lambda x: mp.Tomographer(povm=x, dual_frame=TOMOGRAPHER.dual_frame), SIC),
    ("Tomographer-dual_frame", lambda x: mp.Tomographer(povm=SIC, dual_frame=x),
     TOMOGRAPHER.dual_frame),
]
UNCHECKED = {"list": SIC.tolist(), "float-stack": SIC.real, "zero-stack": np.zeros((4, 2, 2))}


@pytest.mark.parametrize("call, valid", [pytest.param(*row[1:], id=row[0]) for row in DIRECT])
def test_a_direct_construction_is_refused_pointing_to_build(call, valid):
    for label, value in {"valid": valid, **UNCHECKED, **JUNK}.items():
        with pytest.raises(TypeError) as refusal:
            call(value)
        message = str(refusal.value)
        assert "Tomographer.build(povm)" in message and "\n" not in message, label


MAX = 2**63 - 1  # the largest count numpy's sampler takes

# (label, call, argument name, lo, hi, the range in words); None: unbounded
RANGES = [
    ("Processor-data_dim", lambda x: mp.Processor(data_dim=x, program_dim=4, gate=PROC.gate),
     "data_dim", 1, None, "at least 1"),
    ("Processor-program_dim", lambda x: mp.Processor(data_dim=2, program_dim=x, gate=PROC.gate),
     "program_dim", 1, None, "at least 1"),
    ("OutcomePartition-finest", mp.OutcomePartition.finest,
     "outcome count", 1, MAX, f"in 1..{MAX}"),
    ("sample_outcomes-n", lambda x: mp.sample_outcomes(RHO, SIC, x, 0),
     "sample count", 0, MAX, f"in 0..{MAX}"),
    ("sample_outcomes-seed", lambda x: mp.sample_outcomes(RHO, SIC, 10, x),
     "seed", 0, None, "at least 0"),
    ("post_measurement_state-outcome",
     lambda x: mp.post_measurement_state(PROC, PROGRAM, RHO, x, PARTITION),
     "outcome", 0, 3, "in 0..3"),
    ("pauli-k", mp.pauli, "Pauli index", 0, 3, "in 0..3"),
    ("pauli_measurement_program-axis", mp.pauli_measurement_program, "axis", 1, 3, "in 1..3"),
    ("SlotAssignment-slot_maps", lambda x: mp.SlotAssignment(slot_maps=[[x]]),
     "slot index", 0, None, "at least 0"),
    ("coprogram_condition-pairing", lambda x: mp.coprogram_condition(SX, SZ, pairing=[[x, x]]),
     "pairing index", 0, 1, "in 0..1"),
    ("reconstruct_from_probabilities-residual_tol",
     lambda x: reconstruct_from_probabilities([0.25] * 4, SIC, residual_tol=x),
     "residual_tol", 0.0, None, "at least 0"),
    ("reconstruct_from_counts-residual_tol",
     lambda x: mp.reconstruct_from_counts([1, 1, 1, 1], SIC, residual_tol=x),
     "residual_tol", 0.0, None, "at least 0"),
    ("is_density_operator-tol", lambda x: mp.is_density_operator(RHO, tol=x),
     "tol", 0.0, None, "at least 0"),
]

# what a real argument refuses besides its range: no number, a boolean, no finite number
NO_REAL = {"mapping": {"a": 1}, "bool": True, "string": "x", "nan": np.nan, "inf": np.inf}


@pytest.mark.parametrize(
    "call, name, lo, hi, bound", [pytest.param(*row[1:], id=row[0]) for row in RANGES]
)
def test_each_range_is_read_with_its_argument(call, name, lo, hi, bound, empty_povm_memo):
    for edge in (lo, hi):
        result = None if edge is None else outcome(call, edge)
        # accepted, or refused for another reason
        assert result is None or isinstance(result, ValueError), result
        assert not str(result or "").startswith(f"{name} must be"), result
    # every real range here is bounded below only
    outside = [np.nextafter(lo, -1.0).item() if isinstance(lo, float) else lo - 1]
    if hi is not None:
        outside.append(hi + 1)
    for value in outside:
        result = outcome(call, value)
        assert isinstance(result, ValueError), result
        assert str(result) == f"{name} must be {bound}, got {value}"
    if isinstance(lo, float):
        for label, value in NO_REAL.items():
            result = outcome(call, value)
            assert isinstance(result, ValueError), (label, result)
            message = str(result)
            assert message.startswith(f"{name} must be ") and "\n" not in message, (label, message)


# (label, call, the refusal of an empty list)
EMPTY = [
    ("OutcomePartition-blocks", lambda x: mp.OutcomePartition(blocks=x),
     "blocks must hold at least one outcome index, got none"),
    ("coprogram_condition-pairing", lambda x: mp.coprogram_condition(SX, SZ, pairing=x),
     "pairing must hold at least one (i, j) pair, got none"),
]


@pytest.mark.parametrize("call, message", [pytest.param(*row[1:], id=row[0]) for row in EMPTY])
def test_an_empty_list_is_refused_in_the_words_of_its_argument(call, message):
    for value in ([], ()):
        result = outcome(call, value)
        assert isinstance(result, ValueError) and str(result) == message, result
