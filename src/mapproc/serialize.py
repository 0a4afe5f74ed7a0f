"""Canonical JSON encodings shared by the CLI and all file formats, and their text.

A complex number is a two-element [re, im] array.  Matrices are row-major:
{"rows": n, "cols": m, "data": [[re, im], ...]}.  A pure state is
{"dim": n, "amp": [[re, im], ...]}.  Every JSON number is read by one
number reader, ``qcore._real``, and every JSON integer by the package's one
integer reader, ``qcore._index``.  Decoders raise ValueError on any
malformed document so callers can map that to a clean exit.  ``read_json``
parses every JSON text and ``json_text`` writes every artifact.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

import numpy as np

from .processor import OutcomePartition, Processor, _state
from .qcore import ATOL, _brief, _index, _real

if TYPE_CHECKING:
    from .qid import QidPovmReport, QidProgram
    from .tomography import ReconstructionDiagnostics
    from .vnmeas import SynthesisReport, VonNeumannMeasurement


def read_json(source: str, text: str | None = None):
    """The document in ``text``, or else in the file ``source`` ('-': stdin).

    A text Python cannot parse (no UTF-8 JSON, nested too deeply, an integer
    past 4300 digits) raises one ValueError line "<source>: invalid JSON (<why>)".
    """
    try:
        if text is not None:
            return json.loads(text)
        if source == "-":
            return json.load(sys.stdin)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"{source}: invalid JSON ({exc})") from None


def json_text(doc) -> str:
    """``doc`` as one compact line and a newline; floats by repr, NaN or infinity a ValueError."""
    return json.dumps(doc, allow_nan=False) + "\n"


def _pairs(a) -> list[list[float]]:
    """The entries of a complex array or scalar, row-major, as [re, im] pairs."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def _complexes(data, n: int, message: str) -> np.ndarray:
    """``data``, a list of n [re, im] pairs, as a complex vector; else ValueError(message).

    Its "{}" gets the length found, not n: str() of a huge n fails past 4300 digits.
    """
    if not isinstance(data, list) or len(data) != n:
        raise ValueError(message.format(len(data) if isinstance(data, list) else "no list"))
    return np.array([decode_complex(z) for z in data], dtype=complex)


def decode_complex(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        got = (f"a list of length {len(obj)}" if isinstance(obj, (list, tuple))
               else f"an object of type {type(obj).__name__}")
        raise ValueError(f"complex value must be a [re, im] pair, got {got}")
    return complex(_real(obj[0], "real part"), _real(obj[1], "imaginary part"))


def decode_numbers(obj) -> np.ndarray:
    """A JSON list of finite numbers, such as the weights of a pairing."""
    if not isinstance(obj, list):
        raise ValueError("expected a list of numbers")
    return np.array([_real(x, "list entry") for x in obj], dtype=float)


def encode_operator(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("operator must be a matrix")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": _pairs(m),
    }


def decode_operator(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("operator must be an object with rows/cols/data")
    rows, cols = _index(obj.get("rows"), "rows", 1), _index(obj.get("cols"), "cols", 1)
    data = obj.get("data")
    message = "operator data must hold rows * cols entries, got {}"
    return _complexes(data, rows * cols, message).reshape(rows, cols)


def decode_density_operator(obj) -> np.ndarray:
    """A bare operator document, or the {"state": operator} output of reconstruct.

    The operator must be a density operator within STATE_TOL, as processor._state reads it.
    """
    if isinstance(obj, dict) and "state" in obj:
        obj = obj["state"]
    return _state(decode_operator(obj), None, "state")


def encode_state(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError("state must be a vector")
    return {"dim": int(len(v)), "amp": _pairs(v)}


def decode_state(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("state must be an object with dim/amp")
    dim = _index(obj.get("dim"), "dim", 1)
    return _complexes(obj.get("amp"), dim, f"state needs {_brief(dim)} amplitudes")


def encode_processor(p: Processor) -> dict:
    return {
        "data_dim": p.data_dim,
        "program_dim": p.program_dim,
        "gate": encode_operator(p.gate),
    }


def decode_processor(obj) -> Processor:
    if not isinstance(obj, dict):
        raise ValueError("processor must be an object")
    if "program_basis" in obj:
        raise ValueError(
            "processor key program_basis is not read: the program is measured in the "
            "computational basis; for a basis B with rows |b_k>, use the gate (I (x) B.conj()) @ gate"
        )
    gate = decode_operator(obj.get("gate"))
    return Processor(obj.get("data_dim"), obj.get("program_dim"), gate)  # it reads both dims


def encode_partition(part: OutcomePartition) -> dict:
    return {"blocks": [list(b) for b in part.blocks]}


def encode_qid_program(program: QidProgram, partition: OutcomePartition | None = None) -> dict:
    """{"alpha": [4 complex]}, plus the outcome partition when one is given."""
    payload: dict = {"alpha": _pairs(program.amplitudes)}
    if partition is not None:
        payload["partition"] = encode_partition(partition)
    return payload


def decode_qid_program(obj) -> QidProgram:
    from .qid import QidProgram

    if not isinstance(obj, dict) or "alpha" not in obj:
        raise ValueError("QID program must carry an alpha list")
    alpha = _complexes(obj["alpha"], 4, "alpha must list 4 complex amplitudes")
    return QidProgram(amplitudes=alpha)


def encode_povm(elements: np.ndarray) -> dict:
    return {"elements": [encode_operator(f) for f in elements]}


def decode_povm(obj) -> list[np.ndarray]:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ValueError("POVM must carry an elements list")
    if not isinstance(obj["elements"], list) or not obj["elements"]:
        raise ValueError("POVM elements must be a nonempty list")
    return [decode_operator(f) for f in obj["elements"]]


def encode_qid_povm_report(report: QidPovmReport) -> dict:
    """The report as a document whose ``elements`` field is also a POVM document."""
    return {
        "program_operator": encode_operator(report.program_operator),
        **encode_povm(report.elements),
        "anchor_bloch": [float(x) for x in report.anchor_bloch],
        "informationally_complete": report.informationally_complete,
        "bloch_points": [
            {"label": label, "x": x, "y": y, "z": z}
            for label, x, y, z in report.bloch_points()
        ],
    }


def encode_counts(counts: np.ndarray, seed: int) -> dict:
    counts = [int(c) for c in counts]
    return {"outcome_counts": counts, "n": sum(counts), "seed": seed}


def decode_tomography_data(obj) -> tuple[np.ndarray, bool]:
    """(values, True) for an outcome_counts document, (values, False) for probabilities."""
    for key in ("outcome_counts", "probabilities"):
        if isinstance(obj, dict) and key in obj:
            return decode_numbers(obj[key]), key == "outcome_counts"
    raise ValueError("expected outcome_counts or probabilities")


def encode_reconstruction(state: np.ndarray, diag: ReconstructionDiagnostics) -> dict:
    return {
        "state": encode_operator(state),
        "diagnostics": {
            "residual": diag.residual,
            "eigenvalues": list(diag.eigenvalues),
            "projected": diag.projected,
        },
    }


def decode_measurement(obj) -> VonNeumannMeasurement:
    """Accept either projector or basis form."""
    from .vnmeas import VonNeumannMeasurement

    if not isinstance(obj, dict):
        raise ValueError("measurement must be an object with a dim")
    dim = _index(obj.get("dim"), "dim", 1)
    if isinstance(obj.get("projectors"), list):
        projs = [decode_operator(e) for e in obj["projectors"]]
        if any(p.shape != (dim, dim) for p in projs):
            raise ValueError("projector shape does not match dim")
        return VonNeumannMeasurement(projectors=projs)
    if isinstance(obj.get("basis"), list):
        vectors = [decode_state(v) for v in obj["basis"]]
        if any(len(v) != dim for v in vectors):
            raise ValueError("basis vector length does not match dim")
        return VonNeumannMeasurement.from_basis(vectors)
    raise ValueError("measurement needs a projectors or a basis list")


def decode_measurement_list(obj) -> list[VonNeumannMeasurement]:
    if not isinstance(obj, dict) or "measurements" not in obj:
        raise ValueError("expected an object with a measurements list")
    ms = obj["measurements"]
    if not isinstance(ms, list) or not ms:
        raise ValueError("measurements must be a nonempty list")
    return [decode_measurement(m) for m in ms]


def encode_coprogram_condition(s: np.ndarray, k: complex | None) -> dict:
    return {
        "condition_operator": encode_operator(s),
        "scalar": None if k is None else _pairs(k)[0],
        "orthogonal_programs_required": k is None or bool(abs(k) <= ATOL),
    }


def encode_synthesis_report(report: SynthesisReport) -> dict:
    return {
        "processor": encode_processor(report.processor),
        "unitary": report.unitary,
        "completion_used": report.completion_used,
        "measurements": [
            {
                "index": rec.index,
                "slot_map": list(rec.slot_map),
                "program_state": encode_state(rec.program_state),
                "realized": rec.realized,
                "postulate_compliant": rec.postulate_compliant,
                "realized_povm": [encode_operator(f) for f in rec.realized_povm],
                "relabeling": None
                if rec.relabeling is None
                else encode_operator(rec.relabeling),
            }
            for rec in report.measurements
        ],
    }
