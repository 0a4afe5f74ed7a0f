"""Smoke test of the benchmark at tiny sizes.  It never gates on timing.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness checks run and catch a wrong output, and that the
benchmark refuses to run without the library it measures.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert WORKLOADS == [w for w in run.WORKLOAD_NAMES if w not in run.BY_HAND]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.per_layer_units().items())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = json.loads(report_line)["report"]
    assert report["error_rate"] == 0
    assert report["environment"]["seed"] == 3
    if workload == "cli-pipeline":
        # The NaN and `true` documents are accepted at this commit; the
        # benchmark must report that, not drop them.
        assert report["reject_miss_rate"] is not None
    if trace:
        assert "vnmeas.gate_bytes" in report["labels"]["computed, not measured"]
    if trace and workload == "cli-pipeline":
        assert set(report["cli_floor_s"]) == {
            "cli.interpreter_s", "cli.import_numpy_s", "cli.import_mapproc_s"}
        assert "cli.reject.p50_ms" in report["cli_p50_ms"]


def test_all_workloads_in_one_command():
    done = bench("--workload", "all", "--seed", "4", "--seconds", "0.2", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w}.{m}" for w in run.WORKLOAD_NAMES
                                      for m in run.END_TO_END}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture
def ready(tmp_path):
    """A tiny workload, set up in this process, and a tracer that is off."""
    def make(name):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        ctx = SimpleNamespace(workdir=tmp_path, child_env=env)
        w = workloads.WORKLOADS[name](np.random.default_rng(0), True, ctx)
        t = spans.Tracer()
        w.setup(t)
        w.check_setup()
        return w, t
    return make


def fails(w, x, out, check="check"):
    with pytest.raises(workloads.CheckFailed):
        getattr(w, check)(x, out, defaultdict(int))


def opposite_state(rho):
    """Eigenprojector of rho's smaller eigenvalue: trace distance >= 1/2 from rho."""
    _, vectors = np.linalg.eigh(rho)
    return np.outer(vectors[:, 0], vectors[:, 0].conj())


def test_sic_checks_catch_wrong_outputs(ready):
    w, t = ready("sic-tomography")
    w.shots = 10_000  # shot-noise bound 0.23, below the 0.5 of the state below
    x = w.make_input(0)
    p, counts, estimate = w.op(t, x)
    w.check(x, (p, counts, estimate), defaultdict(int))
    fails(w, x, (p + 1e-9, counts, estimate))
    fails(w, x, (p, counts + 1, estimate))
    fails(w, x, (p, counts, np.diag([1.5, -0.5])))
    fails(w, x, (p, counts, opposite_state(x[0])))


def test_program_sweep_checks_catch_wrong_outputs(ready):
    w, t = ready("program-sweep")
    cycle = w.make_input(0)
    w.check(cycle, w.op(t, cycle), defaultdict(int))
    fails(w, cycle, w.op(t, cycle)[:-1])
    for x in cycle:
        out = w.run_program(t, x)
        w.check_program(x, out, defaultdict(int))
        fails(w, x, {**out, "ic": not out["ic"]}, "check_program")
        if "recon" in out:
            fails(w, x, {**out, "recon": [r + 1e-8 for r in out["recon"]]}, "check_program")
        else:
            fails(w, x, {**out, "refused": False}, "check_program")
        if "post" in out:
            fails(w, x, {**out, "post": out["post"][::-1]}, "check_program")


def test_vn_synthesis_checks_catch_wrong_outputs(ready):
    w, t = ready("vn-synthesis")
    x = w.make_input(0)
    out = w.op(t, x)
    w.check(x, out, defaultdict(int))
    for j, (problem, (report, extra)) in enumerate(zip(x, out)):
        def with_result(result):
            return out[:j] + [result] + out[j + 1:]
        fails(w, x, with_result((dataclasses.replace(report, unitary=False), extra)))
        record = dataclasses.replace(report.measurements[0], realized=False)
        fails(w, x, with_result(
            (dataclasses.replace(report, measurements=(record,) + report.measurements[1:]), extra)))
        fails(w, x, with_result((report, False if problem[0] == "padded" else extra[1:])))
    fails(w, x, out[:-1])


def test_cli_checks_catch_wrong_outputs(ready):
    w, t = ready("cli-pipeline")
    x = w.make_input(0)
    codes, rejects, parsed = w.op(t, x)
    w.check(x, (codes, rejects, parsed), defaultdict(int))
    fails(w, x, ({**codes, "simulate": 2}, rejects, parsed))
    crashed = subprocess.CompletedProcess(rejects[0].args, 1, "", "Traceback")
    fails(w, x, (codes, [crashed] + rejects[1:], parsed))
    docs, decoded = parsed
    fails(w, x, (codes, rejects, (docs, {**decoded, "estimate": opposite_state(x[0])})))
    fails(w, x, (codes, rejects, (docs, {**decoded, "encoded": "{}"})))
    assert w.repeat_is_identical(x)
