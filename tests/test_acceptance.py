"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from mapproc import serialize
from mapproc.cli import main
from mapproc.processor import (
    OutcomePartition,
    ProgramState,
    induced_povm,
    kraus_operators,
    outcome_probabilities,
    post_measurement_state,
    sample_outcomes,
)
from mapproc.qcore import dag, pauli, trace_distance
from mapproc.qid import (
    pauli_measurement_program,
    qid_povm,
    qid_unitary,
    sic_program,
    unitary_program,
)
from mapproc.sampling import random_density_operator, random_rank_one_measurement
from mapproc.tomography import gram_matrix, reconstruct, reconstruct_from_counts
from mapproc.vnmeas import (
    IsometryViolationError,
    SlotAssignment,
    VonNeumannMeasurement,
    build_orthogonal_processor,
    coprogram_condition,
    pad_with_zero_slots,
    relaxed_pvm_processor,
    verify_projection_postulate,
)

QID = qid_unitary()
SIC = [np.asarray(f) for f in qid_povm(sic_program()).elements]

SZ = VonNeumannMeasurement(projectors=(np.diag([1.0, 0.0]).astype(complex),
                                       np.diag([0.0, 1.0]).astype(complex)))
SX = VonNeumannMeasurement.from_basis(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def random_measurement(dim, rng):
    return VonNeumannMeasurement(projectors=tuple(random_rank_one_measurement(dim, rng)))


def test_criterion_1_sic_povm_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sic.json"
    assert main(["qid-povm", "--sic", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    elements = [serialize.decode_operator(e) for e in doc["elements"]]
    assert len(elements) == 4
    f0_expected = 0.25 * (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3))
    f1_expected = 0.25 * (np.eye(2) + (pauli(1) - pauli(2) - pauli(3)) / np.sqrt(3))
    assert np.max(np.abs(elements[0] - f0_expected)) < 1e-12
    assert np.max(np.abs(elements[1] - f1_expected)) < 1e-12
    assert np.max(np.abs(elements[2] - pauli(2) @ elements[0] @ pauli(2))) < 1e-12
    assert np.max(np.abs(elements[3] - pauli(3) @ elements[0] @ pauli(3))) < 1e-12
    assert np.max(np.abs(sum(elements) - np.eye(2))) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    verdict(1, f"tetrahedron POVM reproduced entrywise to 1e-12 in {elapsed:.3f}s")


def test_criterion_2_gram_values():
    gram = gram_matrix(SIC)
    computed = np.full((4, 4), 1 / 12) + (0.25 - 1 / 12) * np.eye(4)
    assert np.max(np.abs(gram - computed)) < 1e-12
    # a swapped assignment (1/12 diagonal, 1/4 off-diagonal) circulates in
    # print for this POVM; it does not match the operators
    swapped = np.full((4, 4), 0.25) + (1 / 12 - 0.25) * np.eye(4)
    assert np.max(np.abs(gram - swapped)) > 0.1
    verdict(2, "overlaps are 1/4 diagonal and 1/12 off-diagonal; swapped variant rejected")


def test_criterion_3_tomographic_round_trip():
    start = time.perf_counter()
    exact_distances = []
    finite_distances = []
    for seed in range(100):
        rho = random_density_operator(2, seed=seed)
        p = outcome_probabilities(rho, SIC)
        exact_distances.append(trace_distance(reconstruct(p, SIC), rho))
        counts = sample_outcomes(rho, SIC, 10**6, seed=seed)
        estimate, _ = reconstruct_from_counts(counts, SIC)
        finite_distances.append(trace_distance(estimate, rho))
    elapsed = time.perf_counter() - start
    assert max(exact_distances) <= 1e-10
    assert np.median(finite_distances) <= 0.005
    assert np.quantile(finite_distances, 0.99) <= 0.02
    assert elapsed < 30.0
    verdict(
        3,
        f"exact round trip max {max(exact_distances):.2e}; finite-statistics median "
        f"{np.median(finite_distances):.4f}, p99 {np.quantile(finite_distances, 0.99):.4f} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_unitary_programs():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        mu = rng.normal(size=3)
        program = unitary_program(mu)
        povm = induced_povm(QID, program.program_state(), OutcomePartition.finest(4))
        for _ in range(20):
            rho = random_density_operator(2, rng)
            assert np.max(np.abs(outcome_probabilities(rho, povm) - 0.25)) < 1e-12
        u = expm(1j * sum(mu[j] * pauli(j + 1) for j in range(3)))
        branch0 = kraus_operators(QID, program.program_state())[0]
        rho = random_density_operator(2, rng)
        got = branch0 @ rho @ dag(branch0) / 0.25
        assert np.max(np.abs(got - u @ rho @ dag(u))) < 1e-10
    verdict(4, "rotation programs give flat 1/4 statistics and the exact branch-0 channel")


def test_criterion_5_qid_pauli_measurements():
    rng = np.random.default_rng(55)
    states = []
    for axis in (1, 2, 3):
        program, partition = pauli_measurement_program(axis)
        states.append(program.state_vector())
        coarse = induced_povm(QID, program.program_state(), partition)
        p_plus = 0.5 * (np.eye(2) + pauli(axis))
        p_minus = 0.5 * (np.eye(2) - pauli(axis))
        assert np.max(np.abs(coarse[0] - p_plus)) < 1e-12
        assert np.max(np.abs(coarse[1] - p_minus)) < 1e-12
        for _ in range(5):
            rho = random_density_operator(2, rng)
            post_plus = post_measurement_state(QID, program.program_state(), rho, 0, partition)
            post_minus = post_measurement_state(QID, program.program_state(), rho, 1, partition)
            assert np.max(np.abs(post_plus - p_plus)) < 1e-10
            assert np.max(np.abs(post_minus - p_minus)) < 1e-10
    for j in range(3):
        for k in range(j + 1, 3):
            assert abs(states[j].conj() @ states[k] - 0.5) < 1e-12
    verdict(5, "all three Pauli programs project correctly with pairwise overlap 1/2")


def test_criterion_6_coprogrammability_condition():
    s, k = coprogram_condition(
        SX, SZ, pairing=[(0, 0), (0, 1), (1, 1), (1, 0)], weights=[0.5] * 4
    )
    assert np.max(np.abs(s - 0.5 * np.eye(2))) < 1e-12
    assert abs(k - 0.5) < 1e-12
    _, k_same = coprogram_condition(SZ, SZ)
    assert abs(k_same - 1.0) < 1e-12
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m1 = random_measurement(2, rng)
        m2 = random_measurement(2, rng)
        _, k_rand = coprogram_condition(m1, m2)
        assert k_rand is None
    verdict(6, "condition gives I/2 on the paired axes, 1 on equality, no scalar generically")


def test_criterion_7_padded_synthesis():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = seed % 3 + 1
        d = 2 + (seed // 3) % 2
        ms = [random_measurement(d, rng) for _ in range(n)]
        report = build_orthogonal_processor(pad_with_zero_slots(ms), ms)
        gate = report.gate
        assert np.max(np.abs(dag(gate) @ gate - np.eye(n * d * d))) < 1e-12
        for rec, m in zip(report.measurements, ms):
            ops = kraus_operators(report.processor, ProgramState(rec.program_state))
            for _ in range(20):
                rho = random_density_operator(d, rng)
                for j, slot in enumerate(rec.slot_map):
                    got = np.trace(dag(ops[slot]) @ ops[slot] @ rho).real
                    expected = np.trace(m.projectors[j] @ rho).real
                    assert abs(got - expected) < 1e-10
    assign = SlotAssignment(slot_maps=((0, 1), (1, 2)))
    with pytest.raises(IsometryViolationError) as err:
        build_orthogonal_processor(assign, [SZ, SX])
    assert (err.value.first, err.value.second, 1 in err.value.slots) == (0, 1, True)
    verdict(7, "50 padded syntheses are unitary and exact; 3-slot overlap fails structurally")


def test_criterion_8_relaxed_construction():
    phi = np.array([0.6, 0.8], dtype=complex)
    m_phi = VonNeumannMeasurement.from_basis([phi, np.array([0.8, -0.6], dtype=complex)])
    cases = [[SZ, m_phi]]
    rng = np.random.default_rng(808)
    cases.append([random_measurement(3, rng) for _ in range(3)])
    sample_rng = np.random.default_rng(809)
    for pvms in cases:
        d = pvms[0].dim
        report = relaxed_pvm_processor(pvms)
        gate = report.gate
        assert np.max(np.abs(dag(gate) @ gate - np.eye(d * d))) < 1e-12
        samples = [random_density_operator(d, sample_rng) for _ in range(10)]
        for rec, m in zip(report.measurements, pvms):
            ops = kraus_operators(report.processor, ProgramState(rec.program_state))
            povm = [dag(op) @ op for op in ops]
            for rho in samples:
                got = outcome_probabilities(rho, povm)
                expected = [np.trace(e @ rho).real for e in m.projectors]
                assert np.max(np.abs(np.array(got) - expected)) < 1e-10
            shift_trivial = np.max(np.abs(rec.relabeling - np.eye(d))) < 1e-10
            if shift_trivial:
                assert verify_projection_postulate(report, m, samples)
            else:
                assert not verify_projection_postulate(report, m, samples)
    verdict(8, "shift processors are unitary with exact statistics; nontrivial shifts break the postulate")


def test_criterion_9_projector_frame_coefficients():
    frame = [2 * f for f in SIC]
    for seed in range(100):
        rho = random_density_operator(2, seed=seed)
        p = outcome_probabilities(rho, SIC)
        gram = np.array([[np.trace(a @ b).real for b in frame] for a in frame])
        x = np.linalg.solve(gram, 2 * p)
        assert np.max(np.abs(x - (3 * p - 0.5))) < 1e-12
        rebuilt = sum(c * f for c, f in zip(x, frame))
        assert trace_distance(rebuilt, rho) < 1e-12
    verdict(9, "frame coefficients are 3p - 1/2 with exact round trip on 100 states")


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form coefficients -21/5 and 9/5 sometimes quoted for this "
    "frame do not invert it; the Gram system gives 3p - 1/2",
)
def test_criterion_9_alternative_printed_coefficients_fail():
    frame = [2 * f for f in SIC]
    rho = random_density_operator(2, seed=7)
    p = outcome_probabilities(rho, SIC)
    rebuilt = sum(
        (-21 / 5 * p[k] + 9 / 5 * (p.sum() - p[k])) * frame[k] for k in range(4)
    )
    assert trace_distance(rebuilt, rho) < 1e-10
