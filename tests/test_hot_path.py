"""Structural guard on the QID -> POVM -> tomography path.

The path runs on 2x2 operators, where numpy's generic contractions
(``einsum``, ``tensordot``, ``cross``) cost more than the arithmetic.  Each
call below runs with those three replaced by a function that raises, so a
generic contraction cannot come back unnoticed.  ``outcome_probabilities``
is left out: its summation order fixes the sampled counts.
"""

import numpy as np
import pytest

from mapproc.processor import OutcomePartition, induced_instrument, post_measurement_state
from mapproc.qid import pauli_measurement_program, qid_povm, qid_unitary, sic_program
from mapproc.sampling import random_density_operator
from mapproc.tomography import (
    Tomographer,
    UnderdeterminedPovmError,
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


@pytest.mark.parametrize("axis", [None, 1, 2, 3], ids=["sic", "pauli-x", "pauli-y", "pauli-z"])
def test_hot_path_runs_without_generic_contractions(monkeypatch, axis):
    proc = qid_unitary()  # built before the patch: its gate is assembled by einsum
    if axis is None:
        program, partition = sic_program(), OutcomePartition.finest(4)
    else:
        program, partition = pauli_measurement_program(axis)
    rho = random_density_operator(2, np.random.default_rng(axis or 0))

    refuse_generic_contractions(monkeypatch)
    state = program.program_state()
    report = qid_povm(program)
    inst = induced_instrument(proc, state, partition)
    posts = [post_measurement_state(proc, state, rho, b, partition) for b in range(len(partition))]
    p = np.array([np.vdot(f, rho).real for f in report.elements])
    if axis is None:
        assert report.informationally_complete
        estimate = Tomographer.build(report.elements).reconstruct(p)
        assert np.max(np.abs(estimate - rho)) < 1e-12
        projected, _ = reconstruct_from_probabilities(p, report.elements, project=True)
        assert np.max(np.abs(projected - rho)) < 1e-12
    else:
        assert not report.informationally_complete
        with pytest.raises(UnderdeterminedPovmError):
            Tomographer.build(report.elements)
    assert np.max(np.abs(inst.povm.sum(axis=0) - np.eye(2))) < 1e-12
    assert all(abs(np.trace(post) - 1) < 1e-12 for post in posts)
