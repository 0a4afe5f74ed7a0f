import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonfuzz import json_values, mutants, strict_json
from mapproc import serialize
from mapproc.cli import _build_parser, main
from mapproc.qcore import pauli, trace_distance
from mapproc.qid import qid_povm, sic_program


def run(tmp_path, *argv):
    out = tmp_path / f"out{len(argv)}.json"
    code = main([*argv, "--output", str(out)])
    return code, out


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def sic_povm_file(tmp_path):
    elements = [np.asarray(f) for f in qid_povm(sic_program()).elements]
    return write_json(tmp_path, "sic.json", serialize.encode_povm(elements))


def mixed_state_file(tmp_path):
    return write_json(
        tmp_path, "mixed.json", serialize.encode_operator(np.eye(2, dtype=complex) / 2)
    )


def measurements_file(tmp_path, name="ms.json"):
    sx = {
        "dim": 2,
        "basis": [
            serialize.encode_state(np.array([1, 1]) / np.sqrt(2)),
            serialize.encode_state(np.array([1, -1]) / np.sqrt(2)),
        ],
    }
    sz = {
        "dim": 2,
        "basis": [
            serialize.encode_state(np.array([1.0, 0.0])),
            serialize.encode_state(np.array([0.0, 1.0])),
        ],
    }
    return write_json(tmp_path, name, {"measurements": [sx, sz]})


class TestQidPovm:
    def test_sic_flag_emits_tetrahedron(self, tmp_path):
        code, out = run(tmp_path, "qid-povm", "--sic")
        assert code == 0
        doc = json.loads(out.read_text())
        f0 = serialize.decode_operator(doc["elements"][0])
        expected = 0.25 * (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3))
        assert np.max(np.abs(f0 - expected)) < 1e-12
        assert doc["informationally_complete"] is True
        assert doc["manifest"]["command"] == "qid-povm"

    def test_trivial_program_file(self, tmp_path):
        prog = write_json(tmp_path, "p.json", {"alpha": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        code, out = run(tmp_path, "qid-povm", prog)
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["informationally_complete"] is False
        for el in doc["elements"]:
            assert np.allclose(serialize.decode_operator(el), np.eye(2) / 4, atol=1e-12)

    def test_two_amplitude_program(self, tmp_path):
        s = 1 / np.sqrt(2)
        prog = write_json(tmp_path, "p.json", {"alpha": [[s, 0], [s, 0], [0, 0], [0, 0]]})
        code, out = run(tmp_path, "qid-povm", prog)
        doc = json.loads(out.read_text())
        assert doc["informationally_complete"] is False
        assert np.allclose(doc["anchor_bloch"], [1, 0, 0], atol=1e-12)

    def test_nearly_normalized_program_gives_a_povm_simulate_accepts(self, tmp_path):
        # |alpha| = 1 + 0.9e-10 is within ATOL of 1; the program is stored
        # normalized, so its elements sum to I and simulate reads the report
        alpha = sic_program().amplitudes * (1 + 0.9e-10)
        prog = write_json(tmp_path, "prog.json", {"alpha": [[a.real, a.imag] for a in alpha]})
        code, report = run(tmp_path, "qid-povm", prog)
        assert code == 0
        assert json.loads(report.read_text())["informationally_complete"] is True
        code, counts = run(tmp_path, "simulate", mixed_state_file(tmp_path), str(report), "--n", "100")
        assert code == 0
        assert json.loads(counts.read_text())["n"] == 100

    def test_non_normalized_program_exits_2(self, tmp_path, capsys):
        prog = write_json(tmp_path, "p.json", {"alpha": [[1, 0], [1, 0], [0, 0], [0, 0]]})
        code, _ = run(tmp_path, "qid-povm", prog)
        assert code == 2
        assert "normalized" in capsys.readouterr().err


class TestQidProgram:
    def test_pauli_axis_includes_partition(self, tmp_path):
        code, out = run(tmp_path, "qid-program", "--pauli-axis", "2")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["partition"]["blocks"] == [[0, 2], [1, 3]]
        s = 1 / np.sqrt(2)
        assert np.allclose(doc["alpha"], [[s, 0], [0, 0], [s, 0], [0, 0]], atol=1e-15)

    def test_unitary_program(self, tmp_path):
        code, out = run(tmp_path, "qid-program", "--unitary", "0", "0", "0")
        doc = json.loads(out.read_text())
        assert doc["alpha"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

    def test_requires_exactly_one_mode(self, tmp_path):
        code, _ = run(tmp_path, "qid-program")
        assert code == 2


class TestSimulate:
    def test_zero_samples(self, tmp_path):
        code, out = run(
            tmp_path, "simulate", mixed_state_file(tmp_path), sic_povm_file(tmp_path), "--n", "0"
        )
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["outcome_counts"] == [0, 0, 0, 0]

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        state = mixed_state_file(tmp_path)
        povm = sic_povm_file(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["simulate", state, povm, "--n", "5000", "--seed", "9", "--output", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reference_seed_counts_are_balanced(self, tmp_path):
        code, out = run(
            tmp_path,
            "simulate", mixed_state_file(tmp_path), sic_povm_file(tmp_path),
            "--n", "1000000",
        )
        counts = json.loads(out.read_text())["outcome_counts"]
        assert sum(counts) == 10**6
        assert all(245000 <= c <= 255000 for c in counts)

    def test_fractional_dimension_exits_2(self, tmp_path, capsys):
        # rows 2.9 used to be read as int(2.9) = 2 and the state accepted
        doc = serialize.encode_operator(np.eye(2, dtype=complex) / 2)
        state = write_json(tmp_path, "state.json", {**doc, "rows": 2.9})
        code, out = run(tmp_path, "simulate", state, sic_povm_file(tmp_path), "--n", "10")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "rows" in err and err.count("\n") == 1

    def test_trace_one_state_that_is_not_positive_exits_2(self, tmp_path, capsys):
        state = write_json(tmp_path, "state.json", serialize.encode_operator(np.diag([2.0, -1.0])))
        code, out = run(tmp_path, "simulate", state, sic_povm_file(tmp_path), "--n", "10")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not a density operator" in err and err.count("\n") == 1

    def test_count_numpy_cannot_take_exits_2_naming_the_count(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "simulate", mixed_state_file(tmp_path), sic_povm_file(tmp_path),
            "--n", str(2**63),
        )
        assert code == 2
        assert not out.exists()
        message = "sample count must be in 0..9223372036854775807, got 9223372036854775808"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "10"], ids=["zero", "ten"])
    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys, n):
        # --n 0 used to write an artifact recording seed -1, --n 10 to print numpy's message
        code, out = run(
            tmp_path, "simulate", mixed_state_file(tmp_path), sic_povm_file(tmp_path),
            "--n", n, "--seed", "-1",
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(tmp_path, "simulate", str(bad), sic_povm_file(tmp_path), "--n", "10")
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestReconstruct:
    def test_uniform_probabilities(self, tmp_path):
        probs = write_json(tmp_path, "p.json", {"probabilities": [0.25, 0.25, 0.25, 0.25]})
        code, out = run(tmp_path, "reconstruct", probs, sic_povm_file(tmp_path))
        doc = json.loads(out.read_text())
        state = serialize.decode_operator(doc["state"])
        assert trace_distance(state, np.eye(2) / 2) < 1e-12

    def test_round_trip_ground_state(self, tmp_path):
        elements = [np.asarray(f) for f in qid_povm(sic_program()).elements]
        rho = np.diag([1.0, 0.0]).astype(complex)
        p = [float(np.trace(rho @ f).real) for f in elements]
        probs = write_json(tmp_path, "p.json", {"probabilities": p})
        code, out = run(tmp_path, "reconstruct", probs, sic_povm_file(tmp_path))
        state = serialize.decode_operator(json.loads(out.read_text())["state"])
        assert trace_distance(state, rho) < 1e-10

    def test_counts_with_projection(self, tmp_path):
        counts = write_json(tmp_path, "c.json", {"outcome_counts": [1, 0, 0, 0]})
        code, out = run(tmp_path, "reconstruct", counts, sic_povm_file(tmp_path), "--project")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["diagnostics"]["projected"] is True
        assert min(doc["diagnostics"]["eigenvalues"]) < -0.5
        state = serialize.decode_operator(doc["state"])
        assert np.linalg.eigvalsh(state).min() > -1e-12

    def test_probabilities_report_the_inversion_residual(self, tmp_path):
        # six Pauli eigenprojectors / 3; (1, 1, -1, -1, 0, 0) lies outside the
        # range of their Gram matrix, so it survives as residual 2e-7
        elements = [(np.eye(2) + s * pauli(axis)) / 6 for axis in (3, 1, 2) for s in (1, -1)]
        povm = write_json(tmp_path, "mub.json", serialize.encode_povm(elements))
        p = np.full(6, 1 / 6) + 1e-7 * np.array([1, 1, -1, -1, 0, 0])
        probs = write_json(tmp_path, "p.json", {"probabilities": list(p)})
        code, out = run(tmp_path, "reconstruct", probs, povm, "--tol", "3e-7")
        doc = json.loads(out.read_text())
        assert code == 0
        assert abs(doc["diagnostics"]["residual"] - 2e-7) < 1e-12
        assert doc["manifest"]["tolerance"] == 3e-7
        code, _ = run(tmp_path, "reconstruct", probs, povm, "--tol", "1e-7")
        assert code == 3

    @pytest.mark.parametrize(
        "text",
        [
            '{"probabilities": [0.25, NaN, 0.25, 0.5]}',
            '{"outcome_counts": [true, 300, 250, 250]}',
            '{"outcome_counts": [1' + "0" * 400 + ', 300, 250, 250]}',
        ],
    )
    def test_nan_boolean_or_overflowing_data_exits_2(self, tmp_path, capsys, text):
        data = tmp_path / "bad.json"
        data.write_text(text)
        code, out = run(tmp_path, "reconstruct", str(data), sic_povm_file(tmp_path))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("kind", ["outcome_counts", "probabilities"])
    def test_negative_or_non_finite_tol_exits_2(self, tmp_path, capsys, tol, kind):
        data = write_json(tmp_path, "d.json", {kind: [0.25, 0.25, 0.25, 0.25]})
        code, out = run(tmp_path, "reconstruct", data, sic_povm_file(tmp_path), "--tol", tol)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "residual_tol must be" in err and tol.lstrip("-") in err

    def test_pvm_input_exits_3_naming_rank(self, tmp_path, capsys):
        pvm = write_json(
            tmp_path,
            "pvm.json",
            serialize.encode_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
        )
        probs = write_json(tmp_path, "p.json", {"probabilities": [0.5, 0.5]})
        code, _ = run(tmp_path, "reconstruct", probs, pvm)
        assert code == 3
        assert "rank-2" in capsys.readouterr().err


class TestVnCommands:
    def test_check_four_outcome_pairing(self, tmp_path):
        ms = measurements_file(tmp_path)
        code, out = run(
            tmp_path,
            "vn-check", ms,
            "--pairing", "[[0,0],[0,1],[1,1],[1,0]]",
            "--weights", "[0.5,0.5,0.5,0.5]",
        )
        doc = json.loads(out.read_text())
        assert code == 0
        assert abs(doc["scalar"][0] - 0.5) < 1e-12 and abs(doc["scalar"][1]) < 1e-12
        s = serialize.decode_operator(doc["condition_operator"])
        assert np.max(np.abs(s - 0.5 * np.eye(2))) < 1e-12

    def test_check_index_pairing_requires_orthogonal_programs(self, tmp_path):
        code, out = run(tmp_path, "vn-check", measurements_file(tmp_path))
        doc = json.loads(out.read_text())
        assert doc["scalar"] is None
        assert doc["orthogonal_programs_required"] is True

    def test_check_zero_scalar_requires_orthogonal_programs(self, tmp_path):
        # S = P0 P1 + P1 P0 = 0: the programs' overlap k = 0 makes them orthogonal
        ms = write_json(tmp_path, "two-z.json", {"measurements": [_SZ, _SZ]})
        code, out = run(tmp_path, "vn-check", ms, "--pairing", "[[0,1],[1,0]]")
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["scalar"] == [0.0, 0.0]
        assert doc["orthogonal_programs_required"] is True

    def test_synth_two_measurements(self, tmp_path):
        code, out = run(tmp_path, "vn-synth", measurements_file(tmp_path))
        doc = json.loads(out.read_text())
        assert code == 0
        proc = serialize.decode_processor(doc["processor"])
        assert proc.gate.shape == (8, 8)
        assert all(rec["realized"] for rec in doc["measurements"])
        assert all(rec["postulate_compliant"] for rec in doc["measurements"])

    def test_synth_overlapping_slots_exits_3(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "vn-synth", measurements_file(tmp_path),
            "--slots", "[[0,1],[1,2]]",
        )
        assert code == 3
        assert "isometry" in capsys.readouterr().err

    def test_relaxed_two_qubit_pvms(self, tmp_path):
        code, out = run(tmp_path, "vn-relaxed", measurements_file(tmp_path))
        doc = json.loads(out.read_text())
        assert code == 0
        proc = serialize.decode_processor(doc["processor"])
        assert proc.program_dim == 2
        assert all(rec["realized"] for rec in doc["measurements"])

    def test_relaxed_three_qubit_pvms_exits_3(self, tmp_path, capsys):
        sy = {
            "dim": 2,
            "basis": [
                serialize.encode_state(np.array([1, 1j]) / np.sqrt(2)),
                serialize.encode_state(np.array([1, -1j]) / np.sqrt(2)),
            ],
        }
        doc = json.loads(Path(measurements_file(tmp_path)).read_text())
        doc["measurements"].append(sy)
        ms = write_json(tmp_path, "three.json", doc)
        code, _ = run(tmp_path, "vn-relaxed", ms)
        assert code == 3
        assert "at most" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["vn-relaxed"], ["vn-synth", "--slots", "[[0,1],[2,3,4],[5,6,7]]"]],
        ids=["vn-relaxed", "vn-synth-slots"],
    )
    def test_mixed_dimensions_exit_2(self, tmp_path, capsys, argv):
        # three measurements of dimensions 2, 3, 3: the dimension is named
        # before the shift bound N <= d or the slot bound N*d is read
        qutrit = {"dim": 3, "basis": [serialize.encode_state(v) for v in np.eye(3)]}
        doc = json.loads(Path(measurements_file(tmp_path)).read_text())
        doc["measurements"][1:] = [qutrit, qutrit]
        ms = write_json(tmp_path, "mixed.json", doc)
        code, out = run(tmp_path, argv[0], ms, *argv[1:])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: measurements must share one dimension\n"


class TestBlochExport:
    def test_sic_tetrahedron_csv(self, tmp_path):
        out = tmp_path / "points.csv"
        assert main(["bloch-export", "--sic", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "label,x,y,z"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["F0", "F1", "F2", "F3"]
        coords = np.array([[float(x) for x in r[1:]] for r in rows])
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)
        assert np.allclose(coords[0], np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["bloch-export", "--sic", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_stdout_and_stdin_streams(tmp_path, capsys, monkeypatch):
    import io

    assert main(["qid-program", "--sic", "--output", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"alpha": doc["alpha"]})))
    assert main(["qid-povm", "-", "--output", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["informationally_complete"] is True


def test_exit_3_is_decided_by_one_library_class():
    import mapproc

    refusals = (mapproc.UnderdeterminedPovmError, mapproc.InconsistentProbabilitiesError,
                mapproc.IsometryViolationError)
    assert all(issubclass(cls, mapproc.InfeasibleError) for cls in refusals)
    # still a ValueError, so library callers that catch ValueError keep working
    assert issubclass(mapproc.InfeasibleError, ValueError)


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["qid-povm", "--sic"], ["qid-program", "--sic"], ["reconstruct", "data", "povm"],
    ["vn-check", "ms"], ["vn-synth", "ms"], ["vn-relaxed", "ms"], ["bloch-export", "--sic"],
], ids=lambda argv: argv[0])
def test_seed_belongs_to_simulate_only(tmp_path, capsys, argv):
    # only simulate draws random numbers; elsewhere a seed would be recorded
    # in the manifest without changing the artifact
    files = {"data": write_json(tmp_path, "data.json", {"outcome_counts": [4, 3, 2, 1]}),
             "povm": sic_povm_file(tmp_path), "ms": measurements_file(tmp_path)}
    argv = [files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    code, out = run(tmp_path, *argv)
    assert code == 0 and '"seed": null' in out.read_text()


def test_tol_belongs_to_reconstruct_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["qid-povm", "--sic", "--tol", "1e-3"])
    assert exc.value.code == 2
    code, out = run(tmp_path, "qid-povm", "--sic")
    assert code == 0
    assert json.loads(out.read_text())["manifest"]["tolerance"] is None


_SX = {"dim": 2, "basis": [
    serialize.encode_state(np.array([1, 1]) / np.sqrt(2)),
    serialize.encode_state(np.array([1, -1]) / np.sqrt(2)),
]}
_SZ = {"dim": 2, "projectors": [serialize.encode_operator(np.diag(d)) for d in np.eye(2)]}
DOCUMENTS = {
    "program": serialize.encode_qid_program(sic_program()),
    "state": serialize.encode_operator(np.array([[0.7, 0.2j], [-0.2j, 0.3]])),
    "povm": serialize.encode_povm(qid_povm(sic_program()).elements),
    "data": {"outcome_counts": [400, 300, 200, 100]},
    "probabilities": {"probabilities": [0.4, 0.3, 0.2, 0.1]},
    "measurements": {"measurements": [_SX, _SZ]},
}
numbers = st.one_of(st.integers(min_value=-3, max_value=6), st.floats()).map(repr)
json_text = st.one_of(json_values.map(json.dumps), st.text(max_size=6))


@st.composite
def invocations(draw, command):
    """argv, with a (name,) tuple in place of each input file, and the documents."""
    files = []

    def doc(name):
        files.append((name, draw(mutants(DOCUMENTS[name]))))
        return (name,)

    def optional(*flag):
        return list(flag) if draw(st.booleans()) else []

    if command in ("qid-povm", "bloch-export"):
        argv = ["--sic"] if draw(st.booleans()) else [doc("program")]
    elif command == "qid-program":
        modes = [["--sic"], ["--unitary", *(draw(numbers) for _ in range(3))],
                 ["--pauli-axis", str(draw(st.integers(min_value=-1, max_value=4)))]]
        argv = [arg for mode in draw(st.lists(st.sampled_from(modes), max_size=2)) for arg in mode]
    elif command == "simulate":
        argv = [doc("state"), doc("povm"), "--n", str(draw(st.integers(-2, 10**5))),
                *optional("--seed", str(draw(st.integers(-1, 2**40))))]
    elif command == "reconstruct":
        argv = [doc(draw(st.sampled_from(["data", "probabilities"]))), doc("povm"),
                *optional("--project"), *optional("--tol", draw(numbers))]
    elif command == "vn-check":
        argv = [doc("measurements"),
                *optional("--pairing", draw(st.just("[[0,0],[0,1],[1,1],[1,0]]") | json_text)),
                *optional("--weights", draw(st.just("[0.5,0.5,0.5,0.5]") | json_text))]
    elif command == "vn-synth":
        argv = [doc("measurements"),
                *optional("--slots", draw(st.just("[[0,1],[2,3]]") | json_text))]
    else:
        argv = [doc("measurements")]
    return [command, *argv], files


COMMANDS = ("qid-povm", "qid-program", "simulate", "reconstruct", "vn-check", "vn-synth",
            "vn-relaxed", "bloch-export")


def test_every_subcommand_is_fuzzed():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == set(COMMANDS)


# Every settable value by dest: (flags, positionals in order), 20 flags and
# 9 positionals in all.  A new option fails here until it is added on purpose.
OPTIONS = {
    "qid-povm": ({"output", "sic"}, ("program",)),
    "qid-program": ({"output", "sic", "unitary", "pauli_axis"}, ()),
    "simulate": ({"seed", "output", "n"}, ("state", "povm")),
    "reconstruct": ({"output", "project", "tol"}, ("data", "povm")),
    "vn-check": ({"output", "pairing", "weights"}, ("measurements",)),
    "vn-synth": ({"output", "slots"}, ("measurements",)),
    "vn-relaxed": ({"output"}, ("measurements",)),
    "bloch-export": ({"output", "sic"}, ("program",)),
}


def test_every_option_is_pinned():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    found = {
        name: (
            {a.dest for a in p._actions if a.option_strings and a.dest != "help"},
            tuple(a.dest for a in p._actions if not a.option_strings),
        )
        for name, p in subparsers.choices.items()
    }
    assert found == OPTIONS
    assert sum(len(flags) for flags, _ in found.values()) == 20
    assert sum(len(positionals) for _, positionals in found.values()) == 9


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_cleanly(command, data):
    argv, files = data.draw(invocations(command))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files:
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([paths[arg[0]] if isinstance(arg, tuple) else arg for arg in argv]
                            + ["--output", str(out)])
            except SystemExit as exc:  # argparse refusing the flags
                assert exc.code == 2
                return
        if code != 0:
            assert code in (2, 3)
            assert not out.exists()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        elif command == "bloch-export":
            lines = out.read_text(encoding="utf-8").splitlines()
            strict_json(lines[0].removeprefix("# manifest: "))
            assert all(np.isfinite(float(x)) for line in lines[2:] for x in line.split(",")[1:])
        else:
            strict_json(out.read_text(encoding="utf-8"))


# finite documents whose numbers overflow on the way
_HUGE = {
    "huge-program": {"alpha": [[1e200, 0], [1e200, 0], [0, 0], [0, 0]]},
    "huge-amplitude": {"measurements": [_SX, {"dim": 2, "basis": [
        {"dim": 2, "amp": [[1e200, 0], [0, 0]]}, {"dim": 2, "amp": [[0, 0], [1, 0]]},
    ]}]},
    "huge-projector": {"measurements": [_SX, {"dim": 2, "projectors": [
        serialize.encode_operator(np.diag([1e300, 0])), serialize.encode_operator(np.diag([0, 1])),
    ]}]},
    "two-z": {"measurements": [_SZ, _SZ]},
    "three-measurements": {"measurements": [_SX, _SZ, _SX]},
    "empty-basis": {"measurements": [_SX, {"dim": 2, "basis": []}]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["vn-check", ("measurements",), "--pairing", "[[0.9,0],[1.2,1]]"],
        ["vn-check", ("measurements",), "--pairing", "[[true,0],[1,true]]"],
        ["vn-check", ("measurements",), "--weights", "[true, 1]"],
        ["vn-synth", ("measurements",), "--slots", "[[0.5,1.7],[2,3]]"],
        ["qid-program", "--unitary", "1e308", "1e308", "0"],
        ["qid-program", "--unitary", "nan", "0", "0"],
        ["qid-program", "--unitary", "inf", "0", "0"],
        # 2 qubit measurements fit in 4 slots; a larger index would ask for a larger gate
        ["vn-synth", ("measurements",), "--slots", "[[0,1],[2,4]]"],
        ["vn-synth", ("measurements",), "--slots", "[[0,1],[2,40]]"],
        ["qid-povm", ("huge-program",)],
        ["vn-synth", ("huge-amplitude",)],
        ["vn-relaxed", ("huge-amplitude",)],
        ["vn-synth", ("huge-projector",)],
        ["vn-relaxed", ("huge-projector",)],
        # S = 1e308 I overflows its trace
        ["vn-check", ("two-z",), "--pairing", "[[0,0],[1,1]]", "--weights", "[1e308, 1e308]"],
    ],
)
def test_non_integer_index_or_non_finite_flag_exits_2(tmp_path, capsys, argv):
    # warnings are errors here, so a numpy warning on the way also fails
    code, out = run_with_documents(tmp_path, argv)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def run_with_documents(tmp_path, argv):
    """``run`` with each (name,) in argv replaced by a file holding that document."""
    docs = {**DOCUMENTS, **_HUGE}
    return run(tmp_path, *[
        write_json(tmp_path, f"{arg[0]}.json", docs[arg[0]]) if isinstance(arg, tuple) else arg
        for arg in argv
    ])


_UNBOUNDED = "element 0 has an entry not finite or above 1 in modulus"


# index lists that are no lists of integer lists, each refused by the reader
# of the library argument it becomes
_INDEX_LISTS = {
    "fraction": ("[[0.9,0]]", "{index} must be an integer, got 0.9"),
    "bool": ("[[true,0]]", "{index} must be an integer, got True"),
    "flat": ("[0,1]", "{rows} must be a sequence of integer sequences, got [0, 1]"),
    "string": ('"ab"', "{index} must be an integer, got 'a'"),
    "object": ('{"a":[1]}', "{index} must be an integer, got 'a'"),
}
_INDEX_LIST_CASES = {
    f"{flag[2:]}-{label}": (
        [command, ("measurements",), flag, text], message.format(rows=rows, index=index)
    )
    for command, flag, rows, index in (("vn-check", "--pairing", "pairing", "pairing index"),
                                       ("vn-synth", "--slots", "slot maps", "slot index"))
    for label, (text, message) in _INDEX_LISTS.items()
}


# a pairing row that is not a pair, an empty pairing, an empty basis, a
# measurement entry that would overflow and a wrong number of inputs are each
# refused in words that name them
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        # the range is read with each index, before the row's length
        (["vn-check", ("measurements",), "--pairing", "[[0,1,2]]"],
         "pairing index must be in 0..1, got 2"),
        (["vn-check", ("measurements",), "--pairing", "[[0,0],[1]]"],
         "pairing row 1 is not an (i, j) pair"),
        (["vn-check", ("measurements",), "--pairing", "[]"],
         "pairing must hold at least one (i, j) pair, got none"),
        (["vn-synth", ("huge-projector",)], _UNBOUNDED),
        (["vn-synth", ("huge-amplitude",)], _UNBOUNDED),
        (["vn-check", ("huge-projector",)], _UNBOUNDED),
        (["vn-synth", ("empty-basis",)], "basis must have shape (n, n) with n >= 1, got (0,)"),
        (["vn-check", ("three-measurements",)], "vn-check needs exactly 2 measurements, got 3"),
        (["qid-povm", ("program",), "--sic"], "give either a program file or --sic, not both"),
        (["qid-povm"], "a program file or --sic is required"),
        (["bloch-export"], "a program file or --sic is required"),
        *_INDEX_LIST_CASES.values(),
    ],
    ids=["three-indices", "one-index", "empty-pairing", "huge-projector", "huge-amplitude",
         "vn-check-huge-projector", "empty-basis", "vn-check-three", "program-and-sic",
         "no-program", "bloch-export-no-program", *_INDEX_LIST_CASES],
)
def test_refusal_names_the_input(tmp_path, capsys, argv, message):
    code, out = run_with_documents(tmp_path, argv)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def skeleton(doc):
    """Keys in order, nesting and list lengths of a JSON document, each number
    and string replaced by its type name; a list of equal skeletons is
    (length, skeleton)."""
    if isinstance(doc, dict):
        return [(key, skeleton(value)) for key, value in doc.items()]
    if isinstance(doc, list):
        items = [skeleton(value) for value in doc]
        return (len(items), items[0]) if items and items.count(items[0]) == len(items) else items
    return type(doc).__name__


COMPLEX = (2, "float")


def operator(rows, cols=None):
    return [("rows", "int"), ("cols", "int"), ("data", (rows * (cols or rows), COMPLEX))]


def state(dim):
    return [("dim", "int"), ("amp", (dim, COMPLEX))]


def manifest(inputs, tolerance="NoneType", seed="NoneType"):
    return [("command", "str"), ("inputs", (inputs, "str") if inputs else []), ("seed", seed),
            ("tolerance", tolerance), ("tool_version", "str")]


def povm_report(inputs):
    return [
        ("program_operator", operator(2)),
        ("elements", (4, operator(2))),
        ("anchor_bloch", (3, "float")),
        ("informationally_complete", "bool"),
        ("bloch_points", (4, [("label", "str"), ("x", "float"), ("y", "float"), ("z", "float")])),
        ("manifest", manifest(inputs)),
    ]


def reconstruction(tolerance):
    return [
        ("state", operator(2)),
        ("diagnostics", [("residual", "float"), ("eigenvalues", (2, "float")),
                         ("projected", "bool")]),
        ("manifest", manifest(2, tolerance)),
    ]


def coprogram(scalar):
    return [("condition_operator", operator(2)), ("scalar", scalar),
            ("orthogonal_programs_required", "bool"), ("manifest", manifest(1))]


def synthesis(program_dim, relabeling):
    return [
        ("processor", [
            ("data_dim", "int"), ("program_dim", "int"), ("gate", operator(2 * program_dim)),
        ]),
        ("unitary", "bool"),
        ("completion_used", "bool"),
        ("measurements", (2, [
            ("index", "int"), ("slot_map", (2, "int")), ("program_state", state(program_dim)),
            ("realized", "bool"), ("postulate_compliant", "bool"),
            ("realized_povm", (program_dim, operator(2))), ("relabeling", relabeling),
        ])),
        ("manifest", manifest(1)),
    ]


PROGRAM = ("alpha", (4, COMPLEX))
WIRE_FORMATS = [
    (["qid-program", "--sic"], [PROGRAM, ("manifest", manifest(0))]),
    (["qid-program", "--pauli-axis", "2"],
     [PROGRAM, ("partition", [("blocks", (2, (2, "int")))]), ("manifest", manifest(0))]),
    (["qid-povm", ("program",)], povm_report(1)),
    (["qid-povm", "--sic"], povm_report(0)),
    (["simulate", ("state",), ("povm",), "--n", "100"],
     [("outcome_counts", (4, "int")), ("n", "int"), ("seed", "int"),
      ("manifest", manifest(2, seed="int"))]),
    (["reconstruct", ("data",), ("povm",), "--project"], reconstruction("NoneType")),
    (["reconstruct", ("probabilities",), ("povm",), "--tol", "0.1"], reconstruction("float")),
    (["vn-check", ("measurements",), "--pairing", "[[0,0],[0,1],[1,1],[1,0]]",
      "--weights", "[0.5,0.5,0.5,0.5]"], coprogram(COMPLEX)),
    (["vn-check", ("measurements",)], coprogram("NoneType")),
    (["vn-synth", ("measurements",)], synthesis(4, "NoneType")),
    (["vn-synth", ("measurements",), "--slots", "[[0,1],[2,3]]"], synthesis(4, "NoneType")),
    (["vn-relaxed", ("measurements",)], synthesis(2, operator(2))),
    (["bloch-export", "--sic"], [
        ("manifest", manifest(0)), ("header", "str"),
        ("rows", (4, ["str", "float", "float", "float"])),
    ]),
]


def test_every_subcommand_has_a_wire_format():
    assert {argv[0] for argv, _ in WIRE_FORMATS} == set(COMMANDS)


def label(argv):
    return " ".join(arg if isinstance(arg, str) else arg[0] for arg in argv)


@pytest.mark.parametrize("argv,expected", WIRE_FORMATS, ids=[label(a) for a, _ in WIRE_FORMATS])
def test_artifact_wire_format(tmp_path, argv, expected):
    paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in DOCUMENTS.items()}
    code, out = run(tmp_path, *[paths[arg[0]] if isinstance(arg, tuple) else arg for arg in argv])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    if argv[0] == "bloch-export":
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[2:]]
        doc = {"manifest": json.loads(lines[0].removeprefix("# manifest: ")), "header": lines[1],
               "rows": [[name, *map(float, xyz)] for name, *xyz in rows]}
    else:
        doc = json.loads(text)
    assert skeleton(doc) == expected
