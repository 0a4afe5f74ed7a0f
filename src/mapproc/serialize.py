"""Canonical JSON encodings shared by the CLI and all file formats.

A complex number is a two-element [re, im] array.  Matrices are row-major:
{"rows": n, "cols": m, "data": [[re, im], ...]}.  A pure state is
{"dim": n, "amp": [[re, im], ...]}.  Decoders raise ValueError on any
malformed document so callers can map that to a clean exit.
"""

from __future__ import annotations

import math

import numpy as np

from .processor import OutcomePartition, Processor, ProgramState
from .vnmeas import VonNeumannMeasurement


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _real(x) -> float:
    """A finite JSON number as a float; booleans are refused."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError as exc:
        raise ValueError("number too large for a float") from exc
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {x!r}")
    return value


def _dimension(obj: dict, key: str) -> int:
    """obj[key] as a positive JSON integer; booleans and floats are refused."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def decode_complex(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"complex value must be a [re, im] pair, got {obj!r}")
    return complex(_real(obj[0]), _real(obj[1]))


def encode_operator(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("operator must be a matrix")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [encode_complex(z) for z in m.ravel()],
    }


def decode_operator(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("operator must be an object with rows/cols/data")
    rows, cols, data = _dimension(obj, "rows"), _dimension(obj, "cols"), obj.get("data")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"operator needs {rows * cols} entries, got {len(data) if isinstance(data, list) else 'non-list'}")
    return np.array([decode_complex(z) for z in data], dtype=complex).reshape(rows, cols)


def encode_state(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError("state must be a vector")
    return {"dim": int(len(v)), "amp": [encode_complex(z) for z in v]}


def decode_state(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("state must be an object with dim/amp")
    dim, amp = _dimension(obj, "dim"), obj.get("amp")
    if not isinstance(amp, list) or len(amp) != dim:
        raise ValueError(f"state needs {dim} amplitudes")
    return np.array([decode_complex(z) for z in amp], dtype=complex)


def encode_program_state(ps: ProgramState) -> dict:
    return {
        "components": [
            {"weight": float(w), "state": encode_state(v)} for w, v in ps.components
        ]
    }


def decode_program_state(obj) -> ProgramState:
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValueError("program state must carry a components list")
    comps = []
    for c in obj["components"]:
        if not isinstance(c, dict) or "weight" not in c or "state" not in c:
            raise ValueError("each component needs weight and state")
        comps.append((_real(c["weight"]), decode_state(c["state"])))
    return ProgramState(components=tuple(comps))


def encode_processor(p: Processor) -> dict:
    return {
        "data_dim": p.data_dim,
        "program_dim": p.program_dim,
        "gate": encode_operator(p.gate),
        "program_basis": [encode_state(v) for v in p.program_basis],
    }


def decode_processor(obj) -> Processor:
    if not isinstance(obj, dict):
        raise ValueError("processor must be an object")
    data_dim, program_dim = _dimension(obj, "data_dim"), _dimension(obj, "program_dim")
    gate = decode_operator(obj.get("gate"))
    basis = None
    if "program_basis" in obj:
        if not isinstance(obj["program_basis"], list) or not obj["program_basis"]:
            raise ValueError("program_basis must be a nonempty list of states")
        basis = np.stack([decode_state(v) for v in obj["program_basis"]])
    return Processor(data_dim=data_dim, program_dim=program_dim, gate=gate, program_basis=basis)


def encode_partition(part: OutcomePartition) -> dict:
    return {"blocks": [list(b) for b in part.blocks]}


def decode_partition(obj) -> OutcomePartition:
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ValueError("partition must carry a blocks list")
    blocks = obj["blocks"]
    if not all(
        isinstance(b, list) and all(isinstance(k, int) and not isinstance(k, bool) for k in b)
        for b in blocks
    ):
        raise ValueError("partition blocks must be lists of integer outcome indices")
    return OutcomePartition(blocks=tuple(tuple(b) for b in blocks))


def encode_povm(elements: np.ndarray) -> dict:
    return {"elements": [encode_operator(f) for f in elements]}


def decode_povm(obj) -> list[np.ndarray]:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ValueError("POVM must carry an elements list")
    if not isinstance(obj["elements"], list) or not obj["elements"]:
        raise ValueError("POVM elements must be a nonempty list")
    return [decode_operator(f) for f in obj["elements"]]


def encode_measurement(m: VonNeumannMeasurement) -> dict:
    return {"dim": m.dim, "projectors": [encode_operator(e) for e in m.projectors]}


def decode_measurement(obj) -> VonNeumannMeasurement:
    """Accept either projector or basis form."""
    if not isinstance(obj, dict):
        raise ValueError("measurement must be an object with a dim")
    dim = _dimension(obj, "dim")
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
