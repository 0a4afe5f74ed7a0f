"""Structural guard on the QID -> POVM -> tomography path.

The path runs on 2x2 operators, where numpy's generic contractions
(``einsum``, ``tensordot``, ``cross``) cost more than the arithmetic.  Each
call below runs with those three replaced by a function that raises, so a
generic contraction cannot come back unnoticed.  ``outcome_probabilities``
is left out: its summation order fixes the sampled counts.  The POVM
memo is emptied first, so the SVD of each POVM runs under the guard
whatever ran before.  The cases cover an informationally complete POVM
(the SIC), the three Pauli pairings and a unitary program, whose rank-1
stack takes the refusal path.

``qid_povm`` reads informational completeness from the anchor Bloch
vector, and its stack, a POVM by construction, enters the POVM memo as
checked.  The inversion of a stack of Pauli conjugates F_k = sigma_k F_0
sigma_k, which every QID stack is, is in closed form.  So the QID path
runs no decomposition: in the same five cases ``qid_povm``,
``is_informationally_complete`` and ``Tomographer.build`` run with
``np.linalg.svd``, ``eigvalsh`` and ``eigh`` replaced by a function that
raises, after the memo is emptied, and one program-sweep cycle per kind
counts 0 ``svd`` and 0 ``eigvalsh`` calls.  Any other stack, a reordered
SIC or a random qubit POVM, runs exactly one ``svd``.  The same bytes
decoded from JSON into an empty memo are checked once, and the dual frame
is the same bits whichever way the stack enters the memo.

``ProgramState.pure`` builds its one row directly, without the mixture
constructor's per-row loop: in the same five cases the program state is
built, and its instrument and post-measurement states formed, with
``ProgramState.__post_init__`` replaced by a function that raises.
"""

import numpy as np
import pytest

from mapproc import processor
from mapproc.processor import (
    OutcomePartition,
    ProgramState,
    induced_instrument,
    post_measurement_state,
    validate_povm,
)
from mapproc.qid import (
    QidProgram,
    pauli_measurement_program,
    qid_povm,
    qid_unitary,
    sic_program,
    unitary_program,
)
from mapproc.sampling import random_density_operator
from mapproc.serialize import decode_povm, encode_povm, json_text, read_json
from mapproc.tomography import (
    Tomographer,
    UnderdeterminedPovmError,
    is_informationally_complete,
    reconstruct,
    reconstruct_from_counts,
    reconstruct_from_probabilities,
)

GENERIC_CONTRACTIONS = ("einsum", "tensordot", "cross")


def _refuse(*args, **kwargs):
    raise AssertionError("generic contraction on the QID hot path")


def refuse_generic_contractions(monkeypatch):
    for name in GENERIC_CONTRACTIONS:
        monkeypatch.setattr(np, name, _refuse)


def test_the_guard_refuses_each_contraction(monkeypatch):
    refuse_generic_contractions(monkeypatch)
    for name in GENERIC_CONTRACTIONS:
        with pytest.raises(AssertionError, match="generic contraction"):
            getattr(np, name)(np.ones(3), np.ones(3))


@pytest.mark.parametrize(
    "case", ["sic", 1, 2, 3, "unitary"], ids=["sic", "pauli-x", "pauli-y", "pauli-z", "unitary"]
)
def test_hot_path_runs_without_generic_contractions(monkeypatch, case, empty_povm_memo):
    proc = qid_unitary()  # built before the patch: its gate is assembled by einsum
    rho = random_density_operator(2, np.random.default_rng(case if case in (1, 2, 3) else 0))

    refuse_generic_contractions(monkeypatch)
    if case == "sic":
        program, partition = sic_program(), OutcomePartition.finest(4)
    elif case == "unitary":  # every element is I/4: a rank-1 stack
        program, partition = unitary_program([0.3, -0.2, 0.9]), OutcomePartition.finest(4)
    else:
        program, partition = pauli_measurement_program(case)
    state = program.program_state()
    report = qid_povm(program)
    inst = induced_instrument(proc, state, partition)
    posts = [post_measurement_state(proc, state, rho, b, partition) for b in range(len(partition))]
    p = np.array([np.vdot(f, rho).real for f in report.elements])
    if case == "sic":
        assert report.informationally_complete
        estimate = Tomographer.build(report.elements).reconstruct(p)
        assert np.max(np.abs(estimate - rho)) < 1e-12
        projected, _ = reconstruct_from_probabilities(p, report.elements, project=True)
        assert np.max(np.abs(projected - rho)) < 1e-12
        counted, _ = reconstruct_from_counts(np.round(p * 1e6), report.elements, project=True)
        assert np.max(np.abs(counted - rho)) < 1e-5
    else:
        assert not report.informationally_complete
        with pytest.raises(UnderdeterminedPovmError):
            Tomographer.build(report.elements)
        if case == "unitary":
            assert np.max(np.abs(report.elements - np.eye(2) / 4)) < 1e-12
            with pytest.raises(UnderdeterminedPovmError, match="rank-1 operator subspace"):
                reconstruct_from_probabilities(p, report.elements)
    assert np.max(np.abs(inst.povm.sum(axis=0) - np.eye(2))) < 1e-12
    assert all(abs(np.trace(post) - 1) < 1e-12 for post in posts)


DECOMPOSITIONS = ("svd", "eigvalsh", "eigh")


def qid_case(case):
    """The QID program of a case: the SIC, a Pauli axis or a unitary program."""
    if case == "sic":
        return sic_program()
    if case == "unitary":
        return unitary_program([0.3, -0.2, 0.9])
    return pauli_measurement_program(case)[0]


def _refuse_decomposition(*args, **kwargs):
    raise AssertionError("linear-algebra decomposition under the guard")


@pytest.mark.parametrize(
    "case", ["sic", 1, 2, 3, "unitary"], ids=["sic", "pauli-x", "pauli-y", "pauli-z", "unitary"]
)
def test_qid_povm_runs_no_decomposition(monkeypatch, case, empty_povm_memo):
    program = qid_case(case)
    for name in DECOMPOSITIONS:
        monkeypatch.setattr(np.linalg, name, _refuse_decomposition)
    report = qid_povm(program)
    assert report.informationally_complete == (case == "sic")
    # the closed-form rank and dual frame of a stack of Pauli conjugates
    assert is_informationally_complete(report.elements) == (case == "sic")
    if case == "sic":
        assert Tomographer.build(report.elements).dual_frame.shape == (4, 2, 2)
    # a decomposition elsewhere still meets the guard
    with pytest.raises(AssertionError, match="decomposition"):
        np.linalg.svd(report.elements.reshape(4, 4))


def _counting(monkeypatch, module, name: str) -> dict:
    """Replace module.name by a wrapper that counts its calls; the count is under "calls"."""
    tally, original = {"calls": 0}, getattr(module, name)

    def counted(*args, **kwargs):
        tally["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return tally


@pytest.mark.parametrize(
    "case", ["sic", 1, 2, 3, "unitary"], ids=["sic", "pauli-x", "pauli-y", "pauli-z", "unitary"]
)
def test_a_qid_povm_enters_the_memo_checked(monkeypatch, case, empty_povm_memo):
    report = qid_povm(qid_case(case))
    svd = _counting(monkeypatch, np.linalg, "svd")
    eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
    assert is_informationally_complete(report.elements) == (case == "sic")
    assert (svd["calls"], eigvalsh["calls"]) == (0, 0)


def test_the_same_bytes_from_json_are_checked_once(monkeypatch, empty_povm_memo):
    elements = qid_povm(sic_program()).elements
    decoded = decode_povm(read_json("povm", json_text(encode_povm(elements))))
    assert np.array(decoded).tobytes() == elements.tobytes()
    empty_povm_memo.clear()  # the bytes no longer come from qid_povm
    checks = _counting(monkeypatch, processor, "_checked_povm")
    assert is_informationally_complete(decoded)
    Tomographer.build(decoded)
    assert validate_povm(decoded).tobytes() == elements.tobytes()
    assert checks["calls"] == 1


CYCLE_KINDS = ["sic", 1, 2, 3, "unitary", "generic"]


def cycle_program(case):
    """The program and pairing of a program-sweep cycle kind; "generic" is a random program."""
    if case == "generic":
        rng = np.random.default_rng(7)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        return QidProgram(amplitudes=amps / np.linalg.norm(amps)), OutcomePartition.finest(4)
    if case in (1, 2, 3):
        return pauli_measurement_program(case)
    return qid_case(case), OutcomePartition.finest(4)


@pytest.mark.parametrize("case", CYCLE_KINDS)
def test_a_program_sweep_cycle_runs_no_svd(monkeypatch, case, empty_povm_memo):
    proc = qid_unitary()
    rho = random_density_operator(2, np.random.default_rng(3))
    svd = _counting(monkeypatch, np.linalg, "svd")
    eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
    program, partition = cycle_program(case)
    state = program.program_state()
    inst = induced_instrument(proc, state, partition)
    report = qid_povm(program)
    elements = list(report.elements)
    p = np.array([np.vdot(f, rho).real for f in report.elements])
    if is_informationally_complete(elements):
        estimate = Tomographer.build(elements).reconstruct(p)
        assert np.max(np.abs(estimate - rho)) < 1e-12
    else:
        with pytest.raises(UnderdeterminedPovmError):
            reconstruct(p, elements)
    assert report.informationally_complete == (case in ("sic", "generic"))
    assert np.max(np.abs(inst.povm.sum(axis=0) - np.eye(2))) < 1e-12
    assert (svd["calls"], eigvalsh["calls"]) == (0, 0)


def random_qubit_povm(rng):
    """Four random positive operators, normalized to sum to the identity."""
    a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    a = a @ a.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(a.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    f = root @ a @ root
    return (f + f.conj().swapaxes(1, 2)) / 2


@pytest.mark.parametrize("case", ["reordered-sic", "random"])
def test_a_stack_of_no_pauli_conjugates_runs_one_svd(monkeypatch, case, empty_povm_memo):
    sic = qid_povm(sic_program()).elements
    povm = sic[[1, 0, 2, 3]] if case == "reordered-sic" else random_qubit_povm(
        np.random.default_rng(11))
    svd = _counting(monkeypatch, np.linalg, "svd")
    tomographer = Tomographer.build(povm)
    assert is_informationally_complete(povm)
    assert svd["calls"] == 1
    rho = random_density_operator(2, np.random.default_rng(4))
    p = np.array([np.vdot(f, rho).real for f in povm])
    assert np.max(np.abs(tomographer.reconstruct(p) - rho)) < 1e-12


@pytest.mark.parametrize("case", ["sic", "generic"])
def test_the_dual_frame_depends_only_on_the_bytes(case, empty_povm_memo):
    elements = qid_povm(cycle_program(case)[0]).elements
    entered = Tomographer.build(elements).dual_frame.tobytes()
    empty_povm_memo.clear()
    decoded = decode_povm(read_json("povm", json_text(encode_povm(elements))))
    from_json = Tomographer.build(decoded).dual_frame.tobytes()
    others = [pauli_measurement_program(axis)[0] for axis in (1, 2, 3)]
    for program in others + [unitary_program([0.1, 0.2, 0.3])]:  # evict the stack
        qid_povm(program)
    assert not any(entry[0].tobytes() == elements.tobytes() for entry in empty_povm_memo.values())
    again = Tomographer.build(elements).dual_frame.tobytes()
    assert entered == from_json == again


def _refuse_mixture(*args, **kwargs):
    raise AssertionError("mixture constructor under the guard")


@pytest.mark.parametrize(
    "case", ["sic", 1, 2, 3, "unitary"], ids=["sic", "pauli-x", "pauli-y", "pauli-z", "unitary"]
)
def test_pure_program_state_skips_the_mixture_constructor(monkeypatch, case):
    proc = qid_unitary()
    if case == "sic":
        program, partition = sic_program(), OutcomePartition.finest(4)
    elif case == "unitary":
        program, partition = unitary_program([0.3, -0.2, 0.9]), OutcomePartition.finest(4)
    else:
        program, partition = pauli_measurement_program(case)
    expected = ProgramState(weights=(1.0,), vectors=(program.state_vector(),))

    monkeypatch.setattr(ProgramState, "__post_init__", _refuse_mixture)
    state = program.program_state()
    inst = induced_instrument(proc, state, partition)
    rho = np.eye(2) / 2
    posts = [post_measurement_state(proc, state, rho, b, partition) for b in range(len(partition))]
    assert state._rows.tobytes() == expected._rows.tobytes()
    assert inst.povm.tobytes() == induced_instrument(proc, expected, partition).povm.tobytes()
    assert all(abs(np.trace(post) - 1) < 1e-12 for post in posts)
    # a mixture, even of one row, still runs the generic constructor and meets the guard
    with pytest.raises(AssertionError, match="mixture constructor"):
        ProgramState(weights=(1.0,), vectors=(program.state_vector(),))
