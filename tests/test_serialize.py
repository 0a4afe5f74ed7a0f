import numpy as np
import pytest

from mapproc import serialize
from mapproc.processor import OutcomePartition, ProgramState
from mapproc.qid import qid_unitary
from mapproc.vnmeas import VonNeumannMeasurement


def test_operator_round_trip():
    m = np.array([[1, 1j], [-1j, 0.5]], dtype=complex)
    obj = serialize.encode_operator(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert np.array_equal(serialize.decode_operator(obj), m)


def test_state_round_trip():
    v = np.array([0.6, 0.8j], dtype=complex)
    assert np.array_equal(serialize.decode_state(serialize.encode_state(v)), v)


def test_program_state_round_trip():
    ps = ProgramState(
        components=(
            (0.25, np.array([1, 0], dtype=complex)),
            (0.75, np.array([0, 1], dtype=complex)),
        )
    )
    back = serialize.decode_program_state(serialize.encode_program_state(ps))
    assert np.allclose(back.density(), ps.density(), atol=1e-15)


def test_processor_round_trip():
    proc = qid_unitary()
    back = serialize.decode_processor(serialize.encode_processor(proc))
    assert np.array_equal(back.gate, proc.gate)
    assert np.array_equal(back.program_basis, proc.program_basis)


def test_partition_round_trip():
    part = OutcomePartition(blocks=((0, 3), (1, 2)))
    assert serialize.decode_partition(serialize.encode_partition(part)).blocks == part.blocks


def test_measurement_both_forms():
    m = VonNeumannMeasurement.from_basis(
        [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    )
    via_projectors = serialize.decode_measurement(serialize.encode_measurement(m))
    assert np.allclose(via_projectors.projectors[0], m.projectors[0], atol=1e-15)
    via_basis = serialize.decode_measurement(
        {"dim": 2, "basis": [serialize.encode_state(m.basis_vector(k)) for k in range(2)]}
    )
    assert np.allclose(via_basis.projectors[1], m.projectors[1], atol=1e-12)


@pytest.mark.parametrize(
    "decoder,payload",
    [
        (serialize.decode_operator, {"rows": 2, "cols": 2, "data": [[0, 0]]}),
        (serialize.decode_operator, {"rows": 2, "cols": 2}),
        (serialize.decode_operator, "nope"),
        (serialize.decode_complex, [1.0]),
        (serialize.decode_complex, ["a", "b"]),
        (serialize.decode_state, {"dim": 3, "amp": [[1, 0]]}),
        (serialize.decode_povm, {"elements": []}),
        (serialize.decode_measurement, {"dim": 2}),
        (serialize.decode_measurement_list, {"measurements": "x"}),
        (serialize.decode_complex, [True, 0]),
        (serialize.decode_complex, [float("nan"), 0]),
        (serialize.decode_complex, [0, float("inf")]),
        (serialize.decode_state, {"dim": 1, "amp": [[float("nan"), 0]]}),
        (serialize.decode_operator, {"rows": 1, "cols": 1, "data": [[0, float("-inf")]]}),
    ],
)
def test_malformed_documents_raise_value_error(decoder, payload):
    with pytest.raises(ValueError):
        decoder(payload)
