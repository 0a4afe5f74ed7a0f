"""Each script in scripts/ runs to completion at a tiny size."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY_ARGS = {
    "coprogram_search.py": ["--dims", "2", "3", "4", "--trials", "5"],
    "find_qid_circuit.py": [],
    "tomography_demo.py": ["--states", "2", "--shots", "100", "1000", "--project"],
}


def test_every_script_has_tiny_arguments():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == set(TINY_ARGS)


@pytest.mark.parametrize("script", sorted(TINY_ARGS))
def test_script_runs(script):
    assert run_script(script)


def run_script(script):
    """The script's stdout at its tiny arguments; it must exit 0."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *TINY_ARGS[script]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_coprogram_search_prints_the_exact_answers():
    lines = run_script("coprogram_search.py").splitlines()
    assert lines[0].startswith("d=2: no partner")
    assert lines[1].startswith("d=3: no partner")
    assert lines[2].startswith("d=4: partner") and lines[2].endswith(", 0 table violations")
    deviations = [float(re.search(r"within (\S+) over", line).group(1)) for line in lines[3:]]
    assert len(deviations) == 3 and max(deviations) <= 1e-12
