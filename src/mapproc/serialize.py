"""Canonical JSON encodings shared by the CLI and all file formats.

A complex number is a two-element [re, im] array.  Matrices are row-major:
{"rows": n, "cols": m, "data": [[re, im], ...]}.  A pure state is
{"dim": n, "amp": [[re, im], ...]}.  Decoders raise ValueError on any
malformed document so callers can map that to a clean exit.
"""

from __future__ import annotations

import cmath

import numpy as np

from .processor import OutcomePartition, Processor, ProgramState
from .vnmeas import VonNeumannMeasurement


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"complex value must be a [re, im] pair, got {obj!r}")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj):
        raise ValueError(f"complex components must be numbers, got {obj!r}")
    z = complex(*obj)
    if not cmath.isfinite(z):
        raise ValueError(f"complex components must be finite, got {obj!r}")
    return z


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
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError("operator dimensions must be positive")
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
    try:
        dim, amp = int(obj["dim"]), obj["amp"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state: {exc}") from exc
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
    if not isinstance(obj, dict) or "components" not in obj:
        raise ValueError("program state must carry a components list")
    comps = []
    for c in obj["components"]:
        if not isinstance(c, dict) or "weight" not in c or "state" not in c:
            raise ValueError("each component needs weight and state")
        comps.append((float(c["weight"]), decode_state(c["state"])))
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
    try:
        data_dim = int(obj["data_dim"])
        program_dim = int(obj["program_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed processor: {exc}") from exc
    gate = decode_operator(obj["gate"])
    basis = None
    if "program_basis" in obj:
        basis = np.stack([decode_state(v) for v in obj["program_basis"]])
    return Processor(data_dim=data_dim, program_dim=program_dim, gate=gate, program_basis=basis)


def encode_partition(part: OutcomePartition) -> dict:
    return {"blocks": [list(b) for b in part.blocks]}


def decode_partition(obj) -> OutcomePartition:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError("partition must carry a blocks list")
    return OutcomePartition(blocks=tuple(tuple(int(k) for k in b) for b in obj["blocks"]))


def encode_povm(elements: list[np.ndarray]) -> dict:
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
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("measurement must carry a dim")
    dim = int(obj["dim"])
    if "projectors" in obj:
        projs = [decode_operator(e) for e in obj["projectors"]]
        if any(p.shape != (dim, dim) for p in projs):
            raise ValueError("projector shape does not match dim")
        return VonNeumannMeasurement(projectors=tuple(projs))
    if "basis" in obj:
        vectors = [decode_state(v) for v in obj["basis"]]
        if any(len(v) != dim for v in vectors):
            raise ValueError("basis vector length does not match dim")
        return VonNeumannMeasurement.from_basis(vectors)
    raise ValueError("measurement needs either projectors or basis")


def decode_measurement_list(obj) -> list[VonNeumannMeasurement]:
    if not isinstance(obj, dict) or "measurements" not in obj:
        raise ValueError("expected an object with a measurements list")
    ms = obj["measurements"]
    if not isinstance(ms, list) or not ms:
        raise ValueError("measurements must be a nonempty list")
    return [decode_measurement(m) for m in ms]
