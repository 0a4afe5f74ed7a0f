"""Measurement-assisted programmable quantum processors.

Compute the generalized measurement a processor-plus-program realizes,
run the quantum information distributor and its informationally complete
POVM with full state reconstruction, and decide or synthesize processors
implementing prescribed collections of von Neumann measurements.

Each exported name loads its submodule on first use (PEP 562), so
``import mapproc`` loads no submodule and the tomography path never loads
``vnmeas``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "processor": (
        "ImpossibleOutcomeError",
        "InducedInstrument",
        "InvalidPovmError",
        "OutcomePartition",
        "Processor",
        "ProgramState",
        "induced_instrument",
        "induced_povm",
        "kraus_operators",
        "outcome_probabilities",
        "post_measurement_state",
        "sample_outcomes",
    ),
    "qcore": (
        "InfeasibleError",
        "is_density_operator",
        "is_unitary",
        "pauli",
        "trace_distance",
    ),
    "qid": (
        "QidCircuit",
        "QidPovmReport",
        "QidProgram",
        "pauli_measurement_program",
        "qid_circuit_search",
        "qid_povm",
        "qid_unitary",
        "sic_program",
        "unitary_program",
    ),
    "tomography": (
        "InconsistentProbabilitiesError",
        "Tomographer",
        "UnderdeterminedPovmError",
        "gram_matrix",
        "is_informationally_complete",
        "reconstruct",
        "reconstruct_from_counts",
    ),
    "vnmeas": (
        "IsometryViolationError",
        "SlotAssignment",
        "SynthesisReport",
        "VonNeumannMeasurement",
        "build_orthogonal_processor",
        "coprogram_condition",
        "feasibility_table_check",
        "kraus_compatibility",
        "pad_with_zero_slots",
        "relaxed_pvm_processor",
        "verify_projection_postulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules an eager ``import mapproc`` used to bind
_SUBMODULES = frozenset((*_EXPORTS, "sampling"))

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
