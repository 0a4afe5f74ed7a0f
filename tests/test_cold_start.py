"""Load on first use: each entry point loads only the modules it runs.

``import mapproc`` binds its exported names lazily (PEP 562), and each CLI
subcommand imports the library module it calls.  The module sets are read
from ``sys.modules`` of a fresh interpreter, so no test here depends on
what earlier tests imported; nothing is timed.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mapproc
from mapproc import serialize
from mapproc.qid import qid_povm, sic_program

SRC = str(Path(mapproc.__file__).parents[1])

EXPORTS = {
    "processor": {
        "ImpossibleOutcomeError", "InducedInstrument", "InvalidPovmError", "OutcomePartition",
        "Processor", "ProgramState", "induced_instrument", "induced_povm", "kraus_operators",
        "outcome_probabilities", "post_measurement_state", "sample_outcomes",
    },
    "qcore": {
        "InfeasibleError", "is_density_operator", "is_unitary", "pauli", "trace_distance",
    },
    "qid": {
        "QidCircuit", "QidPovmReport", "QidProgram", "pauli_measurement_program",
        "qid_circuit_search", "qid_povm", "qid_unitary", "sic_program", "unitary_program",
    },
    "tomography": {
        "InconsistentProbabilitiesError", "Tomographer", "UnderdeterminedPovmError",
        "gram_matrix", "is_informationally_complete", "reconstruct", "reconstruct_from_counts",
    },
    "vnmeas": {
        "IsometryViolationError", "SlotAssignment", "SynthesisReport", "VonNeumannMeasurement",
        "build_orthogonal_processor", "coprogram_condition", "feasibility_table_check",
        "kraus_compatibility", "pad_with_zero_slots", "relaxed_pvm_processor",
        "verify_projection_postulate",
    },
}
SUBMODULES = ("processor", "qcore", "qid", "sampling", "tomography", "vnmeas")

TOMOGRAPHY_PATH = {"processor", "qcore", "qid", "sampling", "tomography"}
SIMULATE = {"cli", "serialize", "processor", "qcore", "sampling"}


def loaded_after(code: str, cwd: Path | None = None) -> set[str]:
    """The mapproc submodules a fresh interpreter holds after running ``code``."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {SRC!r})",
        code,
        "import json",
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('mapproc'))))",
    ])
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout.splitlines()[-1])
    assert "mapproc" in names
    return {name.removeprefix("mapproc.") for name in names if name != "mapproc"}


def test_import_loads_no_submodule():
    assert loaded_after("import mapproc") == set()


def test_tomography_path_never_loads_vnmeas():
    code = """
import numpy as np
import mapproc as mp
povm = mp.qid_povm(mp.sic_program()).elements
counts = mp.sample_outcomes(np.eye(2) / 2, povm, 100, 0)
mp.reconstruct_from_counts(counts, povm)
"""
    assert loaded_after(code) == TOMOGRAPHY_PATH


@pytest.fixture
def documents(tmp_path):
    povm = serialize.encode_povm(qid_povm(sic_program()).elements)
    basis = [serialize.encode_state(v) for v in ([1, 0], [0, 1])]
    docs = {
        "state.json": serialize.encode_operator([[0.5, 0], [0, 0.5]]),
        "povm.json": povm,
        "counts.json": {"outcome_counts": [4, 3, 2, 1]},
        "meas.json": {"measurements": [{"dim": 2, "basis": basis}]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv, modules", [
    (["simulate", "state.json", "povm.json", "--n", "10"], SIMULATE),
    (["reconstruct", "counts.json", "povm.json"], SIMULATE | {"tomography"}),
    (["vn-synth", "meas.json"], SIMULATE | {"vnmeas"}),
    (["qid-povm", "--sic"], SIMULATE | {"qid", "tomography"}),
], ids=["simulate", "reconstruct", "vn-synth", "qid-povm"])
def test_each_subcommand_loads_only_what_it_runs(documents, argv, modules):
    code = f"""
import mapproc.cli
assert mapproc.cli.main({[*argv, "--output", "out.json"]!r}) == 0
"""
    assert loaded_after(code, cwd=documents) == modules


class TestNamespace:
    def test_all_lists_the_exported_names(self):
        assert sorted(mapproc.__all__) == sorted(set().union(*EXPORTS.values()))
        assert len(mapproc.__all__) == 44

    def test_each_name_is_its_defining_modules_object(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"mapproc.{module}")
            for name in names:
                assert getattr(mapproc, name) is getattr(defining, name), name

    def test_submodules_and_version_resolve(self):
        for module in SUBMODULES:
            assert getattr(mapproc, module) is importlib.import_module(f"mapproc.{module}")
        assert mapproc.__version__ == "0.1.0"

    def test_dir_and_star_import_cover_all(self):
        assert set(mapproc.__all__) <= set(dir(mapproc))
        namespace = {}
        exec("from mapproc import *", namespace)
        assert set(mapproc.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mapproc.no_such_name  # noqa: B018

    def test_first_access_caches_the_name_in_the_module(self):
        code = """
import mapproc
assert "qid_povm" not in vars(mapproc)
mapproc.qid_povm
assert vars(mapproc)["qid_povm"] is mapproc.qid.qid_povm
"""
        assert loaded_after(code) == TOMOGRAPHY_PATH
