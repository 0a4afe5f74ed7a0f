"""Each script in scripts/ runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY_ARGS = {
    "coprogram_search.py": ["--dims", "2", "3", "--trials", "5"],
    "find_qid_circuit.py": [],
    "tomography_demo.py": ["--states", "2", "--shots", "100", "1000", "--project"],
}


def test_every_script_has_tiny_arguments():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == set(TINY_ARGS)


@pytest.mark.parametrize("script", sorted(TINY_ARGS))
def test_script_runs(script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *TINY_ARGS[script]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
