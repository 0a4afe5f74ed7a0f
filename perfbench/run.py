"""perfbench: end-to-end and per-layer benchmark of mapproc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One caller, closed loop: the next op starts only after the previous one
returned and was checked.  mapproc is imported from ``src/`` of the
checkout this file sits in, and the CLI runs as ``python -m mapproc.cli``
against the same tree.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("sic-tomography", "program-sweep", "vn-synthesis", "cli-pipeline")
# Run by hand and by --workload all, but not listed in BENCHMARK.json: its ops
# last about a second, so its latency follows the shared host's speed from
# minute to minute (see "Why vn-synthesis is not listed" in README.md).
BY_HAND = ("vn-synthesis",)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 15
MAX_REPORTED_FAILURES = 5
CHUNKS = 10
LOW_QUANTILE = 0.001

# Listed in BENCHMARK.json.  throughput and p50_ms are printed and kept in the
# report line but not listed: see "Why p0.1_ms" in README.md.
END_TO_END = {"p0.1_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
REPORTED = {"throughput": "1/s", "p50_ms": "ms", **END_TO_END}

LAYERS = ("processor", "qid", "tomography", "vnmeas", "serialize", "cli")
FUNCTIONS = (
    "processor.outcome_probabilities",
    "processor.sample_outcomes",
    "tomography.reconstruct_from_counts",
    "qid.QidProgram",
    "qid.unitary_program",
    "qid.pauli_measurement_program",
    "qid.QidProgram.program_state",
    "processor.induced_instrument",
    "processor.post_measurement_state",
    "qid.qid_povm",
    "tomography.is_informationally_complete",
    "tomography.Tomographer.build",
    "tomography.Tomographer.reconstruct",
    "tomography.reconstruct",
    "vnmeas.VonNeumannMeasurement.from_basis",
    "vnmeas.pad_with_zero_slots",
    "vnmeas.build_orthogonal_processor",
    "vnmeas.relaxed_pvm_processor",
    "vnmeas.verify_projection_postulate",
    "vnmeas.feasibility_table_check",
    "cli.qid-program",
    "cli.qid-povm",
    "cli.simulate",
    "cli.reconstruct",
    "cli.vn-synth",
    "cli.reject",
    "serialize.decode_povm",
    "serialize.decode_operator",
    "serialize.decode_measurement_list",
    "serialize.decode_processor",
    "serialize.encode_processor",
)
COUNTS = {
    "tomography.refused": "count",
    "tomography.ic_ratio": "ratio",
    "vnmeas.gate_bytes": "B",
    "vnmeas.completion_columns": "count",
    "serialize.bytes_out": "B",
}
# Untimed ops run under cProfile in a traced run, per workload.
PROFILE_OPS = {"sic-tomography": 500, "program-sweep": 20, "vn-synthesis": 1, "cli-pipeline": 1}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run prints, with its unit, in BENCHMARK.json order."""
    units = {
        "trace.overhead.throughput": "1/s",
        "trace.overhead.p50_ms": "ms",
        "trace.overhead.p0.1_ms": "ms",
        "trace.overhead.setup_s": "s",
        "trace.span_coverage": "%",
        "trace.spans": "count",
    }
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_share"] = "%"
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.busy_share"] = "%"
    units.update(COUNTS)
    for group in spans.PROFILE_GROUPS:
        units[f"profile.{group}.self_share"] = "%"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest input sizes, for the smoke test; not comparable")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "mapproc" / "__init__.py").is_file():
        print(f"perfbench: no mapproc package under {src}", file=sys.stderr)
        return 1
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    origin = Path(importlib.util.find_spec("mapproc").origin).resolve()
    if src.resolve() not in origin.parents:
        print(f"perfbench: mapproc resolves to {origin}, not to {src}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    pythonpath = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    ctx = SimpleNamespace(workdir=workdir, child_env={**os.environ, "PYTHONPATH": pythonpath})
    try:
        return Bench(args, ctx).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Bench:
    def __init__(self, args, ctx):
        import numpy as np
        import workloads

        self.np, self.wl = np, workloads
        self.args = args
        self.tracer = spans.Tracer()
        self.workload = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), args.tiny, ctx)
        self.attempted = 0
        self.failures: list[str] = []
        self.tally = defaultdict(int)
        self.latency = {False: [], True: []}
        self.setup = {False: [], True: []}

    def set_up(self, rep) -> None:
        """Time one set-up; in a traced run every other one is traced."""
        t = self.tracer
        t.enabled = bool(self.args.trace and rep % 2)
        start = time.perf_counter()
        self.workload.setup(t)
        self.setup[t.enabled].append(time.perf_counter() - start)
        t.enabled = False
        self.workload.check_setup()

    def run(self) -> int:
        args, w = self.args, self.workload
        reps = SETUP_REPS * (2 if args.trace else 1)
        self.set_up(0)

        first = w.make_input(0)
        self.op(0, first, traced=False, tally=defaultdict(int))
        if hasattr(w, "repeat_is_identical") and not w.repeat_is_identical(first):
            self.fail(0, "repeating the first pipeline did not reproduce its artifacts")
        for i in range(1, w.warmup):
            self.op(i, w.make_input(i), traced=False, tally=defaultdict(int))
        self.latency[False].clear()  # warm-up ops are checked but not timed

        # The other set-ups are spread evenly over the timed loop, so that
        # their median sees the same machine as the ops.
        i, rep = w.warmup, 1
        start = time.perf_counter()
        while True:
            for _ in range(2 if args.trace else 1):
                traced = bool(args.trace and i % 2)  # ops alternate
                self.op(i, w.make_input(i), traced=traced, tally=self.tally)
                i += 1
            elapsed = time.perf_counter() - start
            if rep < reps and elapsed >= rep * args.seconds / reps:
                self.set_up(rep)
                rep += 1
            if elapsed >= args.seconds:
                break
        for rep in range(rep, reps):
            self.set_up(rep)
        wall = time.perf_counter() - start

        extra = {}
        if args.trace:
            extra = self.traced_extras(i)
        rss = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
        ).ru_maxrss / 1024
        e2e = {traced: self.end_to_end(self.latency[traced], self.setup[traced], rss)
               for traced in ((False, True) if args.trace else (False,))}
        self.print_report(e2e, wall, extra)
        if args.trace:
            metrics = self.per_layer_metrics(e2e, extra)
            units = per_layer_units()
        else:
            metrics, units = e2e[False], END_TO_END
        failed = len(self.failures)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0

    def op(self, i, x, traced, tally):
        """Run, time and check one op; returns nothing, records everything."""
        w, t = self.workload, self.tracer
        self.attempted += 1
        t.enabled = traced
        t.begin_op(i)
        start = time.perf_counter()
        try:
            out = w.op(t, x)
        except Exception:  # an unexpected error fails the op, the run goes on
            self.fail(i, traceback.format_exc())
            return
        finally:
            end = time.perf_counter()
            t.end_op(start, end)
            t.enabled = False
        try:
            w.check(x, out, tally)
        except self.wl.CheckFailed as exc:
            self.fail(i, f"check failed: {exc}")
            return
        except Exception:
            self.fail(i, traceback.format_exc())
            return
        self.latency[traced].append(end - start)

    def fail(self, i, message):
        self.failures.append(message)
        if len(self.failures) <= MAX_REPORTED_FAILURES:
            print(f"perfbench: op {i} failed: {message}", file=sys.stderr)

    def end_to_end(self, latency, setup, rss):
        if not latency:
            raise RuntimeError("no op succeeded; nothing to measure")
        return {
            "throughput": self.throughput(latency),
            "p50_ms": statistics.median(latency) * 1e3,
            "p0.1_ms": float(self.np.quantile(latency, LOW_QUANTILE)) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss,
        }

    def throughput(self, latency):
        """Ops per busy second: the median over up to CHUNKS chunks of consecutive ops.

        A median of chunks, not one total, so that a burst of load from
        elsewhere on the machine moves one chunk and not the figure.
        """
        chunks = self.np.array_split(self.np.asarray(latency), min(CHUNKS, len(latency)))
        return statistics.median(len(ops) / ops.sum() for ops in chunks)

    def traced_extras(self, next_op):
        """Profile split, per-dimension synthesis times and CLI start-up floors."""
        w, np = self.workload, self.np
        count = PROFILE_OPS[self.args.workload]
        if self.args.tiny:
            count = 1
        inputs = [w.make_input(next_op + j) for j in range(count)]
        outputs = []
        split = spans.profile_split(
            lambda: outputs.extend(w.op(self.tracer, x) for x in inputs))
        for x, out in zip(inputs, outputs):
            self.attempted += 1
            try:
                w.check(x, out, defaultdict(int))
            except self.wl.CheckFailed as exc:
                self.fail(-1, f"check failed under the profiler: {exc}")
        extra = {"profile_self_s": split, "profile_ops": count}
        by_dim = defaultdict(list)
        for name, start, end, _, _, tag in self.tracer.spans:
            if name in ("vnmeas.build_orthogonal_processor", "vnmeas.relaxed_pvm_processor"):
                by_dim[f"{name}.{tag}.ms"].append((end - start) * 1e3)
        extra["per_dimension_p50"] = {k: float(np.median(v)) for k, v in sorted(by_dim.items())}
        if self.args.workload == "cli-pipeline":
            extra["cli_floor_s"] = {
                "cli.interpreter_s": w.import_floor("pass"),
                "cli.import_numpy_s": w.import_floor("import numpy"),
                "cli.import_mapproc_s": w.import_floor("import mapproc.cli"),
            }
        spans_file = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        self.tracer.write(spans_file)
        extra["spans_file"] = str(spans_file.relative_to(ROOT))
        return extra

    def per_layer_metrics(self, e2e, extra):
        summary = self.tracer.summary()
        calls = summary["calls"]
        untraced, traced = e2e[False], e2e[True]
        m = {
            "trace.overhead.throughput": traced["throughput"] - untraced["throughput"],
            "trace.overhead.p50_ms": traced["p50_ms"] - untraced["p50_ms"],
            "trace.overhead.p0.1_ms": traced["p0.1_ms"] - untraced["p0.1_ms"],
            "trace.overhead.setup_s": traced["setup_s"] - untraced["setup_s"],
            "trace.span_coverage": 100 * summary["coverage"],
            "trace.spans": len(self.tracer.spans),
        }
        for layer in LAYERS:
            mine = [c for name, c in calls.items() if name.startswith(layer + ".")]
            m[f"{layer}.calls"] = sum(c["calls"] for c in mine)
            m[f"{layer}.busy_share"] = 100 * sum(c["busy_share"] for c in mine)
        for fn in FUNCTIONS:
            c = calls.get(fn, {"calls": 0, "busy_share": 0.0})
            m[f"{fn}.calls"] = c["calls"]
            m[f"{fn}.busy_share"] = 100 * c["busy_share"]
        tally = self.tally
        m["tomography.refused"] = tally["refused"]
        m["tomography.ic_ratio"] = ratio(tally["ic_programs"], tally["programs"])
        m["vnmeas.gate_bytes"] = tally["gate_bytes"]
        m["vnmeas.completion_columns"] = tally["completion_columns"]
        m["serialize.bytes_out"] = ratio(tally["bytes_out"], tally["encoded"])
        split = extra["profile_self_s"]
        total = sum(split.values())
        for group in spans.PROFILE_GROUPS:
            m[f"profile.{group}.self_share"] = 100 * split[group] / total
        unknown = set(calls) - set(FUNCTIONS)
        if unknown:
            raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
        return m

    def print_report(self, e2e, wall, extra):
        """Human-readable lines, then one JSON line with the full report."""
        args, np = self.args, self.np
        untraced = self.latency[False]
        timed = len(self.latency[False]) + len(self.latency[True])
        failed = len(self.failures)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: {timed} timed ops in {wall:.1f} s, "
              f"{self.workload.warmup} untimed warm-up ops")
        for traced, metrics in e2e.items():
            label = "traced ops" if traced else "untraced ops"
            for name, unit in REPORTED.items():
                print(f"  {name:<18} {metrics[name]:>14.6g} {unit:<5} ({label})")
        p99 = float(np.quantile(untraced, 0.99)) * 1e3 if len(untraced) >= 1000 else None
        print(f"  {'p99_ms':<18} " + (f"{p99:>14.6g} ms    (n={len(untraced)})" if p99 is not None
                                      else f"{'-':>14} ms    (n={len(untraced)} < 1000)"))
        error_rate = failed / self.attempted
        print(f"  {'error_rate':<18} {error_rate:>14.6g}       ({failed}/{self.attempted} ops)")
        malformed = self.tally["malformed"]
        miss = self.tally["accepted_malformed"] / malformed if malformed else None
        if miss is not None:
            print(f"  {'reject_miss_rate':<18} {miss:>14.6g}       "
                  f"({self.tally['accepted_malformed']}/{malformed} malformed documents accepted)")
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "timed_ops": timed,
            "untraced_samples": len(untraced),
            "end_to_end": {("traced" if k else "untraced"): v for k, v in e2e.items()},
            "p99_ms": p99,
            "error_rate": error_rate,
            "reject_miss_rate": miss,
            "environment": environment(args.seed),
        }
        if args.trace:
            summary = self.tracer.summary()
            report["spans"] = summary["calls"]
            report["span_coverage"] = summary["coverage"]
            report.update(extra)
            cli = {f"{name}.p50_ms": c["p50_us"] / 1e3
                   for name, c in summary["calls"].items() if name.startswith("cli.")}
            if cli:
                report["cli_p50_ms"] = cli
            report["labels"] = {
                "computed, not measured": ["vnmeas.gate_bytes", "vnmeas.completion_columns"],
                "profiler-attributed": ["profile_self_s", "profile.<group>.self_share"],
            }
        print(json.dumps({"report": report}))


def ratio(part, whole):
    """part / whole, or 0 when the workload never did the thing counted."""
    return part / whole if whole else 0


def environment(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "pinned": False,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
