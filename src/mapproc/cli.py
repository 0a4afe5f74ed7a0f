"""Command-line surface.

Subcommands compute induced POVMs, build program encodings, simulate
outcome statistics, reconstruct states, and check or synthesize
measurement processors.  Every command is a pure function of its inputs,
flags and seed; identical invocations produce byte-identical artifacts,
each of which embeds a small run manifest.

Exit codes: 0 success, 2 malformed or invalid input, 3 mathematically
infeasible request.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import qid, serialize, tomography, vnmeas
from .processor import InvalidPovmError, sample_outcomes
from .qcore import is_density_operator
from .tomography import InconsistentProbabilitiesError, UnderdeterminedPovmError
from .vnmeas import IsometryViolationError


class _InfeasibleRequest(Exception):
    """Input is well-formed but the requested object cannot exist."""


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _write_text(args, text: str) -> None:
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(args, payload: dict) -> None:
    _write_text(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _manifest(args, command: str, inputs: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "seed": args.seed,
        "tolerance": getattr(args, "tol", None),
        "tool_version": __version__,
    }


def _decode_qid_program(obj) -> qid.QidProgram:
    if not isinstance(obj, dict) or "alpha" not in obj:
        raise ValueError("QID program must carry an alpha list")
    alpha = obj["alpha"]
    if not isinstance(alpha, list) or len(alpha) != 4:
        raise ValueError("alpha must list 4 complex amplitudes")
    return qid.QidProgram(
        amplitudes=np.array([serialize.decode_complex(z) for z in alpha])
    )


def _encode_qid_program(program: qid.QidProgram) -> dict:
    return {"alpha": [serialize.encode_complex(z) for z in program.amplitudes]}


def _povm_report_payload(report: qid.QidPovmReport) -> dict:
    return {
        "program_operator": serialize.encode_operator(report.program_operator),
        "elements": [serialize.encode_operator(f) for f in report.elements],
        "anchor_bloch": [float(x) for x in report.anchor_bloch],
        "informationally_complete": report.informationally_complete,
        "bloch_points": [
            {"label": label, "x": x, "y": y, "z": z}
            for label, x, y, z in report.bloch_points()
        ],
    }


def _resolve_program(args) -> tuple[qid.QidProgram, list[str]]:
    if args.sic:
        if args.program is not None:
            raise ValueError("give either a program file or --sic, not both")
        return qid.sic_program(), []
    if args.program is None:
        raise ValueError("a program file or --sic is required")
    return _decode_qid_program(_load_json(args.program)), [args.program]


def _cmd_qid_povm(args) -> int:
    program, inputs = _resolve_program(args)
    payload = _povm_report_payload(qid.qid_povm(program))
    payload["manifest"] = _manifest(args, "qid-povm", inputs)
    _emit_json(args, payload)
    return 0


def _cmd_qid_program(args) -> int:
    chosen = [bool(args.sic), args.unitary is not None, args.pauli_axis is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --sic, --unitary, --pauli-axis")
    payload: dict
    if args.sic:
        payload = _encode_qid_program(qid.sic_program())
    elif args.unitary is not None:
        payload = _encode_qid_program(qid.unitary_program(np.array(args.unitary)))
    else:
        program, partition = qid.pauli_measurement_program(args.pauli_axis)
        payload = _encode_qid_program(program)
        payload["partition"] = serialize.encode_partition(partition)
    payload["manifest"] = _manifest(args, "qid-program", [])
    _emit_json(args, payload)
    return 0


def _load_state(path: str) -> np.ndarray:
    obj = _load_json(path)
    if isinstance(obj, dict) and "state" in obj:
        obj = obj["state"]
    rho = serialize.decode_operator(obj)
    if not is_density_operator(rho, tol=1e-8):
        raise ValueError(f"{path}: not a density operator")
    return rho


def _cmd_simulate(args) -> int:
    rho = _load_state(args.state)
    povm = serialize.decode_povm(_load_json(args.povm))
    counts = sample_outcomes(rho, povm, args.n, args.seed)
    payload = {
        "outcome_counts": [int(c) for c in counts],
        "n": args.n,
        "seed": args.seed,
        "manifest": _manifest(args, "simulate", [args.state, args.povm]),
    }
    _emit_json(args, payload)
    return 0


def _finite_numbers(obj: dict, key: str) -> np.ndarray:
    values = obj[key]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"{key} must be a list of numbers")
    out = np.array(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{key} must be finite")
    return out


def _cmd_reconstruct(args) -> int:
    obj = _load_json(args.data)
    povm = serialize.decode_povm(_load_json(args.povm))
    residual_tol = args.tol if args.tol is not None else tomography.RESIDUAL_TOL
    if isinstance(obj, dict) and "outcome_counts" in obj:
        data = _finite_numbers(obj, "outcome_counts")
        estimate = tomography.reconstruct_from_counts
    elif isinstance(obj, dict) and "probabilities" in obj:
        data = _finite_numbers(obj, "probabilities")
        estimate = tomography.reconstruct_from_probabilities
    else:
        raise ValueError(f"{args.data}: expected outcome_counts or probabilities")
    state, diag = estimate(data, povm, project=args.project, residual_tol=residual_tol)
    payload = {
        "state": serialize.encode_operator(state),
        "diagnostics": {
            "residual": diag.residual,
            "eigenvalues": list(diag.eigenvalues),
            "projected": diag.projected,
        },
        "manifest": _manifest(args, "reconstruct", [args.data, args.povm]),
    }
    _emit_json(args, payload)
    return 0


def _cmd_vn_check(args) -> int:
    ms = serialize.decode_measurement_list(_load_json(args.measurements))
    if len(ms) != 2:
        raise ValueError(f"vn-check needs exactly 2 measurements, got {len(ms)}")
    pairing = None
    if args.pairing is not None:
        raw = json.loads(args.pairing)
        pairing = [(int(i), int(j)) for i, j in raw]
    weights = None
    if args.weights is not None:
        weights = [float(w) for w in json.loads(args.weights)]
    s, k = vnmeas.coprogram_condition(ms[0], ms[1], pairing=pairing, weights=weights)
    payload = {
        "condition_operator": serialize.encode_operator(s),
        "scalar": None if k is None else serialize.encode_complex(k),
        "orthogonal_programs_required": k is None,
        "manifest": _manifest(args, "vn-check", [args.measurements]),
    }
    _emit_json(args, payload)
    return 0


def _synthesis_payload(report: vnmeas.SynthesisReport) -> dict:
    return {
        "processor": serialize.encode_processor(report.processor),
        "unitary": report.unitary,
        "completion_used": report.completion_used,
        "measurements": [
            {
                "index": rec.index,
                "slot_map": list(rec.slot_map),
                "program_state": serialize.encode_state(rec.program_state),
                "realized": rec.realized,
                "postulate_compliant": rec.postulate_compliant,
                "realized_povm": [serialize.encode_operator(f) for f in rec.realized_povm],
                "relabeling": None
                if rec.relabeling is None
                else serialize.encode_operator(rec.relabeling),
            }
            for rec in report.measurements
        ],
    }


def _cmd_vn_synth(args) -> int:
    ms = serialize.decode_measurement_list(_load_json(args.measurements))
    if args.slots is not None:
        slot_maps = tuple(tuple(int(s) for s in m) for m in json.loads(args.slots))
        if args.program_dim is None:
            raise ValueError("--slots requires --program-dim")
        assign = vnmeas.SlotAssignment(
            program_dim=args.program_dim,
            program_states=np.eye(args.program_dim, dtype=complex)[: len(ms)],
            slot_maps=slot_maps,
        )
    else:
        assign = vnmeas.pad_with_zero_slots(ms)
    report = vnmeas.build_orthogonal_processor(assign, ms)
    payload = _synthesis_payload(report)
    payload["manifest"] = _manifest(args, "vn-synth", [args.measurements])
    _emit_json(args, payload)
    return 0


def _cmd_vn_relaxed(args) -> int:
    ms = serialize.decode_measurement_list(_load_json(args.measurements))
    if len(ms) > ms[0].dim:
        raise _InfeasibleRequest(
            f"the shift construction fits at most d={ms[0].dim} measurements, got {len(ms)}"
        )
    report = vnmeas.relaxed_pvm_processor(ms)
    payload = _synthesis_payload(report)
    payload["manifest"] = _manifest(args, "vn-relaxed", [args.measurements])
    _emit_json(args, payload)
    return 0


def _cmd_bloch_export(args) -> int:
    program, inputs = _resolve_program(args)
    report = qid.qid_povm(program)
    manifest = _manifest(args, "bloch-export", inputs)
    lines = [f"# manifest: {json.dumps(manifest)}", "label,x,y,z"]
    for label, x, y, z in report.bloch_points():
        lines.append(f"{label},{x!r},{y!r},{z!r}")
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--output", default=None, help="output path ('-' = stdout)")

    parser = argparse.ArgumentParser(
        prog="mapproc",
        description="Measurement-assisted programmable processor toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("qid-povm", parents=[common], help="POVM realized by a QID program")
    p.add_argument("program", nargs="?", help="program JSON ('-' = stdin)")
    p.add_argument("--sic", action="store_true", help="use the tetrahedron program")
    p.set_defaults(handler=_cmd_qid_povm)

    p = sub.add_parser("qid-program", parents=[common], help="generate a QID program")
    p.add_argument("--sic", action="store_true")
    p.add_argument("--unitary", type=float, nargs=3, metavar=("MX", "MY", "MZ"))
    p.add_argument("--pauli-axis", type=int, choices=(1, 2, 3))
    p.set_defaults(handler=_cmd_qid_program)

    p = sub.add_parser("simulate", parents=[common], help="sample outcome counts")
    p.add_argument("state", help="density operator JSON")
    p.add_argument("povm", help="POVM JSON")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[common], help="linear-inversion tomography")
    p.add_argument("data", help="counts or probabilities JSON")
    p.add_argument("povm", help="POVM JSON")
    p.add_argument("--project", action="store_true", help="project onto valid states")
    p.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("vn-check", parents=[common], help="joint-programmability condition")
    p.add_argument("measurements", help="JSON with exactly two measurements")
    p.add_argument("--pairing", help="JSON outcome pairs, e.g. [[0,0],[0,1],[1,1],[1,0]]")
    p.add_argument("--weights", help="JSON weights matching the pairing")
    p.set_defaults(handler=_cmd_vn_check)

    p = sub.add_parser("vn-synth", parents=[common], help="padded processor synthesis")
    p.add_argument("measurements", help="measurements JSON")
    p.add_argument("--slots", help="explicit slot maps as JSON (default: disjoint padding)")
    p.add_argument("--program-dim", type=int, help="program dimension for --slots")
    p.set_defaults(handler=_cmd_vn_synth)

    p = sub.add_parser("vn-relaxed", parents=[common], help="shift-construction synthesis")
    p.add_argument("measurements", help="measurements JSON")
    p.set_defaults(handler=_cmd_vn_relaxed)

    p = sub.add_parser("bloch-export", parents=[common], help="CSV of POVM Bloch points")
    p.add_argument("program", nargs="?", help="program JSON")
    p.add_argument("--sic", action="store_true")
    p.set_defaults(handler=_cmd_bloch_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (
        UnderdeterminedPovmError,
        InconsistentProbabilitiesError,
        IsometryViolationError,
        _InfeasibleRequest,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        ValueError, InvalidPovmError, OSError, KeyError, TypeError, IndexError, OverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
