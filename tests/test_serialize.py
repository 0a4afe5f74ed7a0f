import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jsonfuzz import mutants
from mapproc import serialize
from mapproc.processor import Processor
from mapproc.qid import qid_unitary, sic_program
from mapproc.vnmeas import VonNeumannMeasurement


def test_operator_round_trip():
    m = np.array([[1, 1j], [-1j, 0.5]], dtype=complex)
    obj = serialize.encode_operator(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert np.array_equal(serialize.decode_operator(obj), m)


def test_state_round_trip():
    v = np.array([0.6, 0.8j], dtype=complex)
    assert np.array_equal(serialize.decode_state(serialize.encode_state(v)), v)


def test_processor_round_trip():
    proc = qid_unitary()
    back = serialize.decode_processor(serialize.encode_processor(proc))
    assert np.array_equal(back.gate, proc.gate)


def test_processor_with_a_program_basis_is_refused():
    doc = serialize.encode_processor(qid_unitary())
    doc["program_basis"] = [serialize.encode_state(v) for v in np.eye(4)]
    with pytest.raises(ValueError) as caught:
        serialize.decode_processor(doc)
    message = str(caught.value)
    assert message.startswith("processor key program_basis is not read")
    assert "(I (x) B.conj()) @ gate" in message and "\n" not in message


def test_measurement_both_forms():
    m = VonNeumannMeasurement.from_basis(
        [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    )
    via_projectors = serialize.decode_measurement(
        {"dim": 2, "projectors": [serialize.encode_operator(p) for p in m.projectors]}
    )
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
        (serialize.decode_operator, {"rows": True, "cols": True, "data": [[1, 0]]}),
        (serialize.decode_state, {"dim": 1.9, "amp": [[1, 0]]}),
        (serialize.decode_measurement, {"dim": True, "basis": [{"dim": 1, "amp": [[1, 0]]}]}),
        (
            serialize.decode_processor,
            {"data_dim": 1.5, "program_dim": 1, "gate": {"rows": 1, "cols": 1, "data": [[1, 0]]}},
        ),
        (serialize.decode_operator, {"rows": 0, "cols": 1, "data": []}),
        (serialize.decode_state, {"dim": 0, "amp": []}),
        (serialize.decode_measurement, {"dim": -1, "basis": []}),
        (serialize.decode_numbers, [True, 1]),
        (serialize.decode_numbers, [0.5, float("nan")]),
        (serialize.decode_numbers, {"weights": [1]}),
        (serialize.decode_qid_program, {"alpha": [[1, 0], [0, 0], [0, 0]]}),
        (serialize.decode_qid_program, {"alpha": [[float("nan"), 0], [0, 0], [0, 0], [0, 0]]}),
        (serialize.decode_tomography_data, {"counts": [1, 2]}),
        (serialize.decode_tomography_data, {"outcome_counts": [True, 2]}),
        (serialize.decode_density_operator, {"state": {"rows": 1, "cols": 1}}),
    ],
)
def test_malformed_documents_raise_value_error(decoder, payload):
    with pytest.raises(ValueError):
        decoder(payload)


@pytest.mark.parametrize(
    "decoder, payload, message",
    [
        (serialize.decode_operator, {"rows": 0, "cols": 1, "data": []},
         "rows must be at least 1, got 0"),
        (serialize.decode_operator, {"rows": 1, "cols": -2, "data": []},
         "cols must be at least 1, got -2"),
        (serialize.decode_state, {"dim": 0, "amp": []}, "dim must be at least 1, got 0"),
        (serialize.decode_measurement, {"dim": 0, "basis": []}, "dim must be at least 1, got 0"),
        (serialize.decode_processor,
         {"data_dim": 0, "program_dim": 1, "gate": {"rows": 1, "cols": 1, "data": [[1, 0]]}},
         "data_dim must be at least 1, got 0"),
        (serialize.decode_complex, ["a", 0], "real part must be a real number, got 'a'"),
        (serialize.decode_complex, [0, 1e400], "imaginary part must be finite, got inf"),
        (serialize.decode_complex, [10**400, 0],
         "real part must be finite, got a number too large for a float"),
        (serialize.decode_numbers, [0.5, True], "list entry must be a real number, got True"),
        # rows * cols is not quoted: past 4300 digits str() of it fails
        (serialize.decode_operator, {"rows": 10**300, "cols": 1, "data": []},
         "operator data must hold rows * cols entries, got 0"),
        (serialize.decode_operator, {"rows": 10**3000, "cols": 10**3000, "data": [[1, 0]]},
         "operator data must hold rows * cols entries, got 1"),
        (serialize.decode_operator, {"rows": 1, "cols": 1, "data": "ab"},
         "operator data must hold rows * cols entries, got no list"),
        (serialize.decode_complex, [1.0],
         "complex value must be a [re, im] pair, got a list of length 1"),
        (serialize.decode_complex, "ab",
         "complex value must be a [re, im] pair, got an object of type str"),
    ],
)
def test_refusals_name_the_key_or_the_number(decoder, payload, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        decoder(payload)


def test_a_huge_refused_value_is_quoted_in_one_short_line():
    doc = {"rows": 1, "cols": 1, "data": [list(range(100_000))]}
    with pytest.raises(ValueError) as refusal:
        serialize.decode_operator(doc)
    message = str(refusal.value)
    assert "\n" not in message and len(message) <= 200 and "[re, im] pair" in message


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PLUS = serialize.encode_state(np.array([1, 1]) / np.sqrt(2))
_MINUS = serialize.encode_state(np.array([1, -1]) / np.sqrt(2))
VALID_DOCUMENTS = {
    "decode_complex": [0.5, -1],
    "decode_operator": serialize.encode_operator(_HADAMARD),
    "decode_state": _PLUS,
    "decode_processor": serialize.encode_processor(
        Processor(data_dim=1, program_dim=2, gate=_HADAMARD)
    ),
    "decode_povm": serialize.encode_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    "decode_measurement": {"dim": 2, "basis": [_PLUS, _MINUS]},
    "decode_measurement_list": {"measurements": [
        {"dim": 2, "basis": [_PLUS, _MINUS]},
        {"dim": 2, "projectors": [serialize.encode_operator(np.diag(d)) for d in np.eye(2)]},
    ]},
    "decode_numbers": [0.5, 0.5, 1, 0],
    "decode_qid_program": serialize.encode_qid_program(sic_program()),
    "decode_density_operator": {"state": serialize.encode_operator(np.eye(2) / 2)},
    "decode_tomography_data": {"outcome_counts": [400, 300, 200, 100]},
}


def test_every_decoder_has_a_valid_document():
    decoders = {name for name in dir(serialize) if name.startswith("decode_")}
    assert decoders == set(VALID_DOCUMENTS)
    for name, doc in VALID_DOCUMENTS.items():
        getattr(serialize, name)(doc)


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: every draw is ``doc``."""

    def __init__(self, doc):
        self.doc = doc

    def draw(self, strategy):
        return self.doc


# an entry this large overflowed in the products of VonNeumannMeasurement
# and from_basis, so numpy warned before any refusal
_HUGE_PROJECTORS = {"dim": 2, "projectors": [
    serialize.encode_operator(np.diag([1e200, 0])), serialize.encode_operator(np.diag([0, 1])),
]}
_HUGE_BASIS = {"dim": 2, "basis": [serialize.encode_state(np.array([1e200, 0])), _MINUS]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(VALID_DOCUMENTS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
@example(data=_Draws(_HUGE_PROJECTORS))
@example(data=_Draws(_HUGE_BASIS))
@example(data=_Draws({"measurements": [_HUGE_PROJECTORS, _HUGE_BASIS]}))
def test_decoders_raise_only_value_error(name, data):
    doc = data.draw(mutants(VALID_DOCUMENTS[name]))
    try:
        getattr(serialize, name)(doc)
    except ValueError:
        pass
