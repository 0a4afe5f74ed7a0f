"""The four perfbench workloads: seeded inputs, one op, and its checks.

Every input comes from the workload's own ``numpy.random.Generator``;
``mapproc.sampling`` is never used, so a library change cannot change the
inputs.  The expected values the checks compare against are computed here
with plain numpy, not with the library under test, except where a check
is defined as a library predicate (``is_density_operator``, ``is_unitary``).
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Per-outcome false-alarm probability of the shot-noise bound below.
SHOT_NOISE_DELTA = 1e-12


class CheckFailed(Exception):
    """An op returned a wrong result."""


def require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density operator G G^dagger / Tr, G complex Ginibre."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary: QR of a Ginibre matrix with the phases of R divided out."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def shot_noise_bound(shots: int) -> float:
    """Trace distance that tetrahedron tomography of ``shots`` shots stays within.

    With F_k = (I + n_k.sigma)/4 on a regular tetrahedron, linear inversion
    gives the Bloch vector r = 3 sum_k f_k n_k, so the error is
    dr = 3 sum_k (f_k - p_k) n_k and the trace distance is |dr|/2.  By
    Hoeffding each |f_k - p_k| <= t = sqrt(ln(2/delta) / (2 shots)) except
    with probability delta, hence the distance is at most 6 t.  Projecting
    onto the Bloch ball (eigenvalue clipping, for a qubit) cannot increase
    the distance to a state inside the ball.
    """
    return 6.0 * math.sqrt(math.log(2.0 / SHOT_NOISE_DELTA) / (2.0 * shots))


def check_tetrahedron(elements) -> None:
    """Four PSD elements summing to I with Tr F_j F_k = 1/4 and 1/12."""
    f = np.asarray(elements, dtype=complex)
    require(f.shape == (4, 2, 2), f"tetrahedron POVM shape {f.shape}")
    require(max_abs(f.sum(axis=0), np.eye(2)) <= 1e-10, "POVM does not sum to I")
    require(all(np.linalg.eigvalsh(e).min() >= -1e-10 for e in f), "POVM element not PSD")
    gram = np.einsum("jab,kba->jk", f, f).real
    want = np.full((4, 4), 1 / 12) + np.eye(4) * (1 / 4 - 1 / 12)
    require(max_abs(gram, want) <= 1e-10, "tetrahedron Gram values are not 1/4 and 1/12")


def fresh_import(t, module: str = "mapproc"):
    """Import ``module`` from scratch, dropping any mapproc already loaded.

    Set-up is timed several times per run; purging the package makes every
    repetition pay the same import a new user process pays (numpy, which
    the benchmark itself needs, stays loaded).
    """
    for name in [n for n in sys.modules if n == "mapproc" or n.startswith("mapproc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return t.call(f"import.{module}", importlib.import_module, module)


class SicTomography:
    """Tetrahedron (SIC) tomography of one random qubit state per op."""

    name = "sic-tomography"

    def __init__(self, rng, tiny: bool, ctx):
        self.rng = rng
        self.shots = 1_000 if tiny else 10_000
        self.warmup = 5 if tiny else 200

    def setup(self, t) -> None:
        mp = fresh_import(t)
        report = t.call("qid.qid_povm", mp.qid_povm, mp.sic_program())
        self.mp = mp
        self.povm = list(report.elements)

    def check_setup(self) -> None:
        check_tetrahedron(self.povm)

    def make_input(self, i: int):
        return random_density(self.rng, 2), int(self.rng.integers(2**63))

    def op(self, t, x):
        rho, seed = x
        mp, povm = self.mp, self.povm
        p = t.call("processor.outcome_probabilities", mp.outcome_probabilities, rho, povm)
        counts = t.call("processor.sample_outcomes", mp.sample_outcomes,
                        rho, povm, self.shots, seed)
        estimate, _ = t.call("tomography.reconstruct_from_counts", mp.reconstruct_from_counts,
                             counts, povm, project=True)
        return p, counts, estimate

    def check(self, x, out, tally) -> None:
        rho, _ = x
        p, counts, estimate = out
        want = np.einsum("ij,kji->k", rho, np.asarray(self.povm)).real
        require(max_abs(p, want) <= 1e-12, "outcome probabilities differ from Tr(rho F)")
        counts = np.asarray(counts)
        require(counts.shape == (4,) and counts.min() >= 0 and counts.sum() == self.shots,
                "counts are not a 4-outcome sample of the requested size")
        require(self.mp.is_density_operator(estimate), "projected estimate is not a state")
        require(trace_distance(estimate, rho) <= shot_noise_bound(self.shots),
                "estimate is farther from the state than shot noise allows")


# Program kinds in a fixed cycle: 60 % generic (IC), 20 % unitary, 20 % Pauli.
PROGRAM_KINDS = ("generic", "generic", "unitary", "generic", "pauli")


def _qid_elements(amps: np.ndarray) -> np.ndarray:
    """sigma_k A^dagger A sigma_k with A = (1/2) sum_j alpha_j sigma_j."""
    a = 0.5 * sum(c * s for c, s in zip(amps, PAULI))
    base = a.conj().T @ a
    return np.array([s @ base @ s for s in PAULI])


class ProgramSweep:
    """One pass over the cycle of QID program kinds per op.

    Each program goes through instrument, POVM, IC test and tomography.
    The op is the whole cycle, not one program: the kinds differ in cost
    (a unitary program takes about half as long as a generic one), so the
    median of single programs would sit in the gap between two kinds and
    jump whenever their costs shift against each other.
    """

    name = "program-sweep"

    def __init__(self, rng, tiny: bool, ctx):
        self.rng = rng
        self.warmup = 2 if tiny else 20

    def setup(self, t) -> None:
        mp = fresh_import(t)
        self.proc = t.call("qid.qid_unitary", mp.qid_unitary)
        self.circuit = t.call("qid.qid_circuit_search", mp.qid_circuit_search)
        self.finest = mp.OutcomePartition.finest(4)
        self.mp = mp

    def check_setup(self) -> None:
        c = self.circuit
        require(c is not None, "no 4-CNOT circuit found for the QID gate")
        realized = np.kron(np.eye(2), c.relabeling) @ c.unitary()
        require(max_abs(realized, self.proc.gate) <= 1e-10,
                "circuit search result does not realize the QID gate")

    def make_input(self, i: int):
        return [self.make_program(kind) for kind in PROGRAM_KINDS]

    def make_program(self, kind: str):
        rng = self.rng
        states = [random_density(rng, 2) for _ in range(4)]
        if kind == "generic":
            while True:
                amps = rng.normal(size=4) + 1j * rng.normal(size=4)
                amps /= np.linalg.norm(amps)
                s = np.linalg.svd(_qid_elements(amps).reshape(4, 4), compute_uv=False)
                # Inversion through the Gram matrix loses about
                # (s[0]/s[-1])^2 * 1e-16; above this ratio (0.4 % of draws
                # fall below it) a 1e-9 round trip is attainable.
                if s[-1] > 1e-3 * s[0]:
                    return kind, amps, states
        if kind == "unitary":
            return kind, rng.normal(size=3), states
        return kind, int(rng.integers(1, 4)), states

    def op(self, t, x):
        return [self.run_program(t, program) for program in x]

    def run_program(self, t, x):
        kind, param, states = x
        mp = self.mp
        if kind == "generic":
            program = t.call("qid.QidProgram", mp.QidProgram, param)
            partition = self.finest
        elif kind == "unitary":
            program = t.call("qid.unitary_program", mp.unitary_program, param)
            partition = self.finest
        else:
            program, partition = t.call("qid.pauli_measurement_program",
                                        mp.pauli_measurement_program, param)
        state = t.call("qid.QidProgram.program_state", program.program_state)
        inst = t.call("processor.induced_instrument", mp.induced_instrument,
                      self.proc, state, partition)
        report = t.call("qid.qid_povm", mp.qid_povm, program)
        elements = list(report.elements)
        ic = t.call("tomography.is_informationally_complete",
                    mp.is_informationally_complete, elements)
        stack = np.asarray(elements)
        probs = [np.einsum("ij,kji->k", rho, stack).real for rho in states]
        out = {"partition": partition, "inst": inst, "report": report, "ic": ic}
        if kind == "generic":
            tom = t.call("tomography.Tomographer.build", mp.Tomographer.build, elements)
            out["recon"] = [t.call("tomography.Tomographer.reconstruct", tom.reconstruct, p)
                            for p in probs]
        else:
            try:
                t.call("tomography.reconstruct", mp.reconstruct, probs[0], elements)
                out["refused"] = False
            except mp.UnderdeterminedPovmError:
                out["refused"] = True
        if kind == "pauli":
            out["post"] = [t.call("processor.post_measurement_state", mp.post_measurement_state,
                                  self.proc, state, states[0], b, partition)
                           for b in range(2)]
        return out

    def check(self, x, out, tally) -> None:
        require(len(out) == len(x), "a program returned no result")
        for program, result in zip(x, out):
            self.check_program(program, result, tally)

    def check_program(self, x, out, tally) -> None:
        kind, param, states = x
        report, inst = out["report"], out["inst"]
        expect_ic = kind == "generic"
        tally["programs"] += 1
        tally["ic_programs"] += bool(out["ic"])
        require(out["ic"] is expect_ic and report.informationally_complete is expect_ic,
                f"{kind} program classified IC={out['ic']}")
        blocks = out["partition"].blocks
        coarse = [sum(report.elements[k] for k in block) for block in blocks]
        require(len(inst.povm) == len(blocks)
                and all(max_abs(a, b) <= 1e-10 for a, b in zip(inst.povm, coarse)),
                "induced_instrument POVM differs from the qid_povm closed form")
        if kind == "generic":
            require(max_abs(report.elements, _qid_elements(param)) <= 1e-10,
                    "qid_povm differs from sigma_k A^dagger A sigma_k")
            require(all(max_abs(r, rho) <= 1e-9 for r, rho in zip(out["recon"], states)),
                    "exact-probability round trip is off by more than 1e-9")
        else:
            require(out["refused"], f"{kind} (non-IC) program was not refused")
            tally["refused"] += 1
        if kind == "pauli":
            sigma = PAULI[param]
            projectors = [(PAULI[0] + sigma) / 2, (PAULI[0] - sigma) / 2]
            for povm_b, post in zip(inst.povm, out["post"]):
                require(any(max_abs(povm_b, e) <= 1e-10 for e in projectors),
                        "coarse Pauli outcome is not an eigenprojector")
                require(max_abs(post, povm_b) <= 1e-9,
                        "Pauli post-measurement state is not the eigenprojector")


def _padded(d: int, n: int):
    return "padded", d, n


def _shift(d: int):
    return "shift", d, d


# (kind, d, N): gate dimension N*d*d for padded, d*d for shift.
SYNTHESIS_CYCLE = (_padded(2, 2), _padded(2, 8), _padded(3, 8), _padded(4, 8), _padded(4, 16),
                   _shift(2), _shift(4), _shift(8), _shift(16))
SYNTHESIS_CYCLE_TINY = (_padded(2, 2), _padded(2, 3), _shift(2), _shift(3))


def gate_dim(kind: str, d: int, n: int) -> int:
    return n * d * d if kind == "padded" else d * d


class VnSynthesis:
    """One pass over a fixed cycle of von Neumann synthesis problems per op.

    The op is the whole cycle, not one problem: the sizes span three
    orders of magnitude, so the median of single problems would be the
    latency of whichever problem sits in the middle of the range.
    """

    name = "vn-synthesis"
    warmup = 1

    def __init__(self, rng, tiny: bool, ctx):
        self.rng = rng
        self.problems = SYNTHESIS_CYCLE_TINY if tiny else SYNTHESIS_CYCLE

    def setup(self, t) -> None:
        self.mp = fresh_import(t)

    def check_setup(self) -> None:
        pass

    def make_input(self, i: int):
        rng = self.rng
        return [(kind, d, n, [random_unitary(rng, d) for _ in range(n)],
                 [random_density(rng, d) for _ in range(2)], int(rng.integers(n)))
                for kind, d, n in self.problems]

    def op(self, t, x):
        return [self.solve(t, problem) for problem in x]

    def solve(self, t, problem):
        kind, d, n, bases, samples, which = problem
        mp = self.mp
        t.tag = f"D{gate_dim(kind, d, n)}"
        try:
            ms = [t.call("vnmeas.VonNeumannMeasurement.from_basis",
                         mp.VonNeumannMeasurement.from_basis, list(u.T)) for u in bases]
            if kind == "padded":
                assign = t.call("vnmeas.pad_with_zero_slots", mp.pad_with_zero_slots, ms)
                report = t.call("vnmeas.build_orthogonal_processor",
                                mp.build_orthogonal_processor, assign, ms)
                extra = t.call("vnmeas.verify_projection_postulate",
                               mp.verify_projection_postulate, report, ms[which], samples)
            else:
                report = t.call("vnmeas.relaxed_pvm_processor", mp.relaxed_pvm_processor, ms)
                extra = t.call("vnmeas.feasibility_table_check", mp.feasibility_table_check, ms)
        finally:
            t.tag = None
        return report, extra

    def check(self, x, out, tally) -> None:
        require(len(out) == len(x), "a synthesis problem returned no result")
        for (kind, d, n, bases, _, _), (report, extra) in zip(x, out):
            dim = gate_dim(kind, d, n)
            require(report.gate.shape == (dim, dim), f"gate shape {report.gate.shape}")
            require(report.unitary is True, "report does not claim a unitary gate")
            require(self.mp.is_unitary(report.gate), "gate fails the independent unitarity check")
            require(len(report.measurements) == n
                    and all(r.realized for r in report.measurements),
                    "a measurement is not realized")
            if kind == "padded":
                require(all(r.postulate_compliant for r in report.measurements),
                        "a padded record violates the projection postulate")
                require(extra is True, "verify_projection_postulate failed on sample states")
            else:
                rows = sum(abs(np.vdot(bases[a][:, k], bases[b][:, k])) ** 2 > 1e-10
                           for a in range(n) for b in range(a + 1, n) for k in range(d))
                kinds = [v.kind for v in extra]
                require(kinds.count("row_orthogonality") == rows
                        and kinds.count("column_permutation") == 0,
                        "feasibility table differs from the direct overlap count")
            tally["gate_bytes"] += 16 * dim * dim
            tally["completion_columns"] += dim - n * d


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


CLI_ARTIFACTS = ("prog.json", "povm.json", "counts.json", "est.json", "synth.json")


class CliPipeline:
    """The documented CLI chain plus synthesis and three malformed documents.

    Each step is a ``python -m mapproc.cli`` subprocess, run one after
    another, so at most one child is alive at a time.
    """

    name = "cli-pipeline"
    warmup = 1

    def __init__(self, rng, tiny: bool, ctx):
        self.rng = rng
        self.shots = 10_000 if tiny else 1_000_000
        self.bases = 2 if tiny else 8
        self.dim = 4
        self.ctx = ctx
        self.workdir: Path = ctx.workdir

    def run(self, *argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=self.workdir, env=self.ctx.child_env,
                              capture_output=True, text=True, timeout=120)

    def cli(self, *argv) -> subprocess.CompletedProcess:
        return self.run("-m", "mapproc.cli", *argv)

    def setup(self, t) -> None:
        """Cold start of the CLI: a fresh interpreter importing mapproc.cli."""
        done = t.call("import.mapproc.cli", self.run, "-c", "import mapproc.cli")
        require(done.returncode == 0, f"importing mapproc.cli failed: {done.stderr.strip()}")
        self.serialize = importlib.import_module("mapproc.serialize")

    def check_setup(self) -> None:
        pass

    def import_floor(self, code: str) -> float:
        """Median wall time of five fresh interpreters running ``code``."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            done = self.run("-c", code)
            times.append(time.perf_counter() - start)
            require(done.returncode == 0, f"python -c {code!r} failed")
        return float(np.median(times))

    def make_input(self, i: int):
        rng = self.rng
        rho = random_density(rng, 2)
        seed = int(rng.integers(2**31))
        bases = [random_unitary(rng, self.dim) for _ in range(self.bases)]
        probs = rng.dirichlet(np.ones(4))
        probs[int(rng.integers(4))] = float("nan")
        counts = [int(c) for c in rng.multinomial(1000, np.full(4, 0.25))]
        docs = {
            "state.json": _operator_doc(rho),
            "meas.json": {"measurements": [
                {"dim": self.dim, "basis": [_state_doc(u[:, k]) for k in range(self.dim)]}
                for u in bases]},
            # JSON NaN probability, then a JSON true count, then an operator
            # with one entry missing: each must exit 2.
            "bad_nan.json": {"probabilities": [float(p) for p in probs]},
            "bad_true.json": {"outcome_counts": [True] + counts[1:]},
            "bad_trunc.json": {**_operator_doc(rho), "data": _operator_doc(rho)["data"][:3]},
        }
        for name, doc in docs.items():
            (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        return rho, seed, docs["meas.json"]

    def steps(self, seed: int):
        return (
            ("qid-program", "--sic", "--output", "prog.json"),
            ("qid-povm", "prog.json", "--output", "povm.json"),
            ("simulate", "state.json", "povm.json", "--n", str(self.shots), "--seed", str(seed),
             "--output", "counts.json"),
            ("reconstruct", "counts.json", "povm.json", "--project", "--output", "est.json"),
            ("vn-synth", "meas.json", "--output", "synth.json"),
        )

    def op(self, t, x):
        _, seed, meas_doc = x
        codes = {}
        for argv in self.steps(seed):
            codes[argv[0]] = t.call(f"cli.{argv[0]}", self.cli, *argv).returncode
        rejects = [t.call("cli.reject", self.cli, *argv) for argv in (
            ("reconstruct", "bad_nan.json", "povm.json"),
            ("reconstruct", "bad_true.json", "povm.json"),
            ("simulate", "bad_trunc.json", "povm.json", "--n", "10"),
        )]
        if any(code != 0 for code in codes.values()):
            return codes, rejects, None
        docs = {name: strict_json((self.workdir / name).read_text(encoding="utf-8"))
                for name in CLI_ARTIFACTS}
        ser = self.serialize
        povm = t.call("serialize.decode_povm", ser.decode_povm, docs["povm.json"])
        estimate = t.call("serialize.decode_operator", ser.decode_operator,
                          docs["est.json"]["state"])
        measurements = t.call("serialize.decode_measurement_list", ser.decode_measurement_list,
                              meas_doc)
        proc = t.call("serialize.decode_processor", ser.decode_processor,
                      docs["synth.json"]["processor"])
        text = t.call("serialize.encode_processor",
                      lambda p: json.dumps(ser.encode_processor(p)), proc)
        decoded = {"povm": povm, "estimate": estimate, "measurements": measurements,
                   "processor": proc, "encoded": text}
        return codes, rejects, (docs, decoded)

    def check(self, x, out, tally) -> None:
        rho, _, _ = x
        codes, rejects, parsed = out
        for step, code in codes.items():
            require(code == 0, f"{step} exited {code}")
        for done in rejects:
            require(done.returncode in (0, 2),
                    f"malformed document ended in exit {done.returncode}, not 2")
            tally["malformed"] += 1
            tally["accepted_malformed"] += done.returncode == 0
        docs, decoded = parsed
        check_tetrahedron(decoded["povm"])
        counts = docs["counts.json"]["outcome_counts"]
        require(len(counts) == 4 and sum(counts) == self.shots and min(counts) >= 0,
                "simulate did not return a 4-outcome sample of the requested size")
        estimate = decoded["estimate"]
        require(max_abs(estimate, estimate.conj().T) <= 1e-10
                and abs(np.trace(estimate).real - 1) <= 1e-10
                and np.linalg.eigvalsh(estimate).min() >= -1e-10,
                "reconstructed state is not a density operator")
        require(trace_distance(estimate, rho) <= shot_noise_bound(self.shots),
                "reconstructed state is farther from the input than shot noise allows")
        require(len(decoded["measurements"]) == self.bases, "measurement list length")
        synth = docs["synth.json"]
        require(synth["unitary"] is True and all(
            m["realized"] and m["postulate_compliant"] for m in synth["measurements"]),
            "vn-synth artifact reports an unrealized or non-compliant measurement")
        gate = decoded["processor"].gate
        dim = self.bases * self.dim * self.dim
        require(gate.shape == (dim, dim) and max_abs(gate.conj().T @ gate, np.eye(dim)) <= 1e-10,
                "synthesized gate is not unitary")
        require(json.loads(decoded["encoded"]) == synth["processor"],
                "processor does not re-encode to the artifact's document")
        tally["bytes_out"] += len(decoded["encoded"])
        tally["encoded"] += 1

    def repeat_is_identical(self, x) -> bool:
        """Rerun the op's valid steps with identical arguments; compare artifacts bytewise."""
        first = {name: (self.workdir / name).read_bytes() for name in CLI_ARTIFACTS}
        for argv in self.steps(x[1]):
            if self.cli(*argv).returncode != 0:
                return False
        return all((self.workdir / name).read_bytes() == data for name, data in first.items())


def _state_doc(v: np.ndarray) -> dict:
    return {"dim": len(v), "amp": [[float(z.real), float(z.imag)] for z in v]}


def _operator_doc(m: np.ndarray) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.ravel()]}


WORKLOADS = {w.name: w for w in (SicTomography, ProgramSweep, VnSynthesis, CliPipeline)}
