"""Measurement-assisted programmable quantum processors.

Compute the generalized measurement a processor-plus-program realizes,
run the quantum information distributor and its informationally complete
POVM with full state reconstruction, and decide or synthesize processors
implementing prescribed collections of von Neumann measurements.
"""

__version__ = "0.1.0"

from .processor import (
    ImpossibleOutcomeError,
    InducedInstrument,
    InvalidPovmError,
    OutcomePartition,
    Processor,
    ProgramState,
    induced_instrument,
    induced_povm,
    kraus_operators,
    outcome_probabilities,
    post_measurement_state,
    sample_outcomes,
)
from .qcore import (
    InfeasibleError,
    is_density_operator,
    is_unitary,
    pauli,
    tensor,
    trace_distance,
)
from .qid import (
    QidCircuit,
    QidPovmReport,
    QidProgram,
    pauli_measurement_program,
    qid_circuit_search,
    qid_povm,
    qid_unitary,
    sic_program,
    unitary_program,
)
from .tomography import (
    InconsistentProbabilitiesError,
    Tomographer,
    UnderdeterminedPovmError,
    gram_matrix,
    is_informationally_complete,
    reconstruct,
    reconstruct_from_counts,
)
from .vnmeas import (
    IsometryViolationError,
    SlotAssignment,
    SynthesisReport,
    VonNeumannMeasurement,
    build_orthogonal_processor,
    coprogram_condition,
    feasibility_table_check,
    kraus_compatibility,
    pad_with_zero_slots,
    relaxed_pvm_processor,
    verify_projection_postulate,
)
