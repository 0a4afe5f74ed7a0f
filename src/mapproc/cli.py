"""Command-line surface.

Subcommands compute induced POVMs, build program encodings, simulate
outcome statistics, reconstruct states, and check or synthesize
measurement processors.  Every command is a pure function of its inputs
and flags (``simulate``'s include its seed); identical invocations produce
byte-identical artifacts, each of which embeds a small run manifest.

Exit codes: 0 success, 2 malformed or invalid input, 3 mathematically
infeasible request (the library's InfeasibleError).

Each handler imports the library module it runs, so a subcommand loads
only what it uses: ``simulate`` never loads ``qid``, ``tomography`` or
``vnmeas``.  A handler returns its document and input paths; ``main`` adds
the manifest and writes the artifact through ``serialize.json_text``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, serialize
from .qcore import InfeasibleError

if TYPE_CHECKING:
    from .qid import QidPovmReport


def _qid_report(args) -> tuple[QidPovmReport, list[str]]:
    from . import qid

    if args.sic:
        if args.program is not None:
            raise ValueError("give either a program file or --sic, not both")
        return qid.qid_povm(qid.sic_program()), []
    if args.program is None:
        raise ValueError("a program file or --sic is required")
    program = serialize.decode_qid_program(serialize.read_json(args.program))
    return qid.qid_povm(program), [args.program]


def _cmd_qid_povm(args) -> tuple[dict, list[str]]:
    report, inputs = _qid_report(args)
    return serialize.encode_qid_povm_report(report), inputs


def _cmd_qid_program(args) -> tuple[dict, list[str]]:
    from . import qid

    chosen = [bool(args.sic), args.unitary is not None, args.pauli_axis is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --sic, --unitary, --pauli-axis")
    partition = None
    if args.sic:
        program = qid.sic_program()
    elif args.unitary is not None:
        program = qid.unitary_program(np.array(args.unitary))
    else:
        program, partition = qid.pauli_measurement_program(args.pauli_axis)
    return serialize.encode_qid_program(program, partition), []


def _cmd_simulate(args) -> tuple[dict, list[str]]:
    from .processor import sample_outcomes

    rho = serialize.decode_density_operator(serialize.read_json(args.state))
    povm = serialize.decode_povm(serialize.read_json(args.povm))
    counts = sample_outcomes(rho, povm, args.n, args.seed)
    return serialize.encode_counts(counts, args.seed), [args.state, args.povm]


def _cmd_reconstruct(args) -> tuple[dict, list[str]]:
    from . import tomography

    data, counts = serialize.decode_tomography_data(serialize.read_json(args.data))
    povm = serialize.decode_povm(serialize.read_json(args.povm))
    residual_tol = args.tol if args.tol is not None else tomography.RESIDUAL_TOL
    estimate = (
        tomography.reconstruct_from_counts if counts
        else tomography.reconstruct_from_probabilities
    )
    state, diag = estimate(data, povm, project=args.project, residual_tol=residual_tol)
    return serialize.encode_reconstruction(state, diag), [args.data, args.povm]


def _cmd_vn_check(args) -> tuple[dict, list[str]]:
    from . import vnmeas

    ms = serialize.decode_measurement_list(serialize.read_json(args.measurements))
    if len(ms) != 2:
        raise ValueError(f"vn-check needs exactly 2 measurements, got {len(ms)}")
    pairing = weights = None
    if args.pairing is not None:
        pairing = serialize.read_json("--pairing", args.pairing)
    if args.weights is not None:
        weights = serialize.decode_numbers(serialize.read_json("--weights", args.weights))
    s, k = vnmeas.coprogram_condition(ms[0], ms[1], pairing=pairing, weights=weights)
    return serialize.encode_coprogram_condition(s, k), [args.measurements]


def _cmd_vn_synth(args) -> tuple[dict, list[str]]:
    from . import vnmeas

    ms = serialize.decode_measurement_list(serialize.read_json(args.measurements))
    if args.slots is None:
        assign = vnmeas.pad_with_zero_slots(ms)
    else:
        assign = vnmeas.SlotAssignment(serialize.read_json("--slots", args.slots))
    report = vnmeas.build_orthogonal_processor(assign, ms)
    return serialize.encode_synthesis_report(report), [args.measurements]


def _cmd_vn_relaxed(args) -> tuple[dict, list[str]]:
    from . import vnmeas

    ms = serialize.decode_measurement_list(serialize.read_json(args.measurements))
    report = vnmeas.relaxed_pvm_processor(ms)
    return serialize.encode_synthesis_report(report), [args.measurements]


def _cmd_bloch_export(args) -> tuple[str, list[str]]:
    report, inputs = _qid_report(args)
    rows = "".join(f"{label},{x!r},{y!r},{z!r}\n" for label, x, y, z in report.bloch_points())
    return f"label,x,y,z\n{rows}", inputs


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
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
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
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
        # an overflow or NaN on the way is malformed input, not a warning
        with np.errstate(over="raise", invalid="raise"):
            doc, inputs = args.handler(args)
        manifest = {
            "command": args.command,
            "inputs": inputs,
            "seed": getattr(args, "seed", None),
            "tolerance": getattr(args, "tol", None),
            "tool_version": __version__,
        }
        if isinstance(doc, str):  # a CSV body carries the manifest as its comment line
            text = f"# manifest: {serialize.json_text(manifest)}{doc}"
        else:
            text = serialize.json_text({**doc, "manifest": manifest})
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except (ValueError, OSError, FloatingPointError) as exc:  # InfeasibleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InfeasibleError) else 2


if __name__ == "__main__":
    sys.exit(main())
