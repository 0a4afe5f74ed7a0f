import re

import numpy as np
import pytest
from scipy.linalg import expm

from mapproc.processor import OutcomePartition, induced_povm, kraus_operators, outcome_probabilities
from mapproc.qcore import ATOL, dag, pauli
from mapproc.qid import (
    QidProgram,
    pauli_measurement_program,
    qid_circuit_search,
    qid_povm,
    sic_program,
    unitary_program,
)
from mapproc.sampling import random_density_operator, random_pure_state
from mapproc.vnmeas import kraus_compatibility


def bell_like(k):
    """Bell-like program vector Xi_k, the QID program with amplitude 1 on k."""
    return QidProgram(amplitudes=np.eye(4)[k]).state_vector()


def pauli_product_index(m, k):
    """Index l with sigma_m sigma_k proportional to sigma_l (trace oracle)."""
    prod = pauli(m) @ pauli(k)
    for l in range(4):
        if abs(np.trace(pauli(l) @ prod)) > 1.9:
            return l
    raise AssertionError("pauli product not proportional to a pauli")


class TestBellLikeFamily:
    def test_normalized(self):
        anchor = np.array([1, 0, 0, 1]) / np.sqrt(2)  # (|00> + |11>)/sqrt(2)
        assert np.array_equal(bell_like(0), anchor)
        for k in range(4):
            assert abs(np.linalg.norm(bell_like(k)) - 1.0) < 1e-14

    def test_pauli_translates_are_orthonormal(self):
        family = [bell_like(k) for k in range(4)]
        for k in range(4):
            assert np.array_equal(family[k], np.kron(pauli(k), np.eye(2)) @ family[0])
        overlaps = np.array([[a.conj() @ b for b in family] for a in family])
        assert np.allclose(overlaps, np.eye(4), atol=1e-14)


class TestQidUnitary:
    def test_gate_is_unitary(self, qid_proc):
        g = qid_proc.gate
        assert np.max(np.abs(dag(g) @ g - np.eye(8))) < 1e-12

    def test_action_on_anchor_program(self, qid_proc):
        psi = random_pure_state(2, seed=1)
        out = qid_proc.gate @ np.kron(psi, bell_like(0))
        expected = np.kron(psi, 0.5 * np.ones(4))
        assert np.allclose(out, expected, atol=1e-12)

    def test_action_on_x_translate_has_sign_pattern(self, qid_proc):
        # sigma_k sigma_x sigma_k signs are (+, +, -, -)
        psi = random_pure_state(2, seed=2)
        out = qid_proc.gate @ np.kron(psi, bell_like(1))
        expected = np.kron(pauli(1) @ psi, 0.5 * np.array([1, 1, -1, -1]))
        assert np.allclose(out, expected, atol=1e-12)


class TestQidPovm:
    def test_anchor_program_is_trivial_and_not_ic(self):
        report = qid_povm(QidProgram(amplitudes=np.array([1, 0, 0, 0], dtype=complex)))
        for f in report.elements:
            assert np.allclose(f, np.eye(2) / 4, atol=1e-12)
        assert not report.informationally_complete

    def test_sic_program_matches_tetrahedron(self, sic_elements):
        report = qid_povm(sic_program())
        f0 = 0.25 * (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3))
        assert np.allclose(report.elements[0], f0, atol=1e-12)
        for k in range(4):
            assert np.allclose(report.elements[k], pauli(k) @ f0 @ pauli(k), atol=1e-12)
        assert report.informationally_complete
        assert np.allclose(report.anchor_bloch, np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_two_amplitude_program_is_not_ic(self):
        # anchor vector by hand: 2 * (1/sqrt(2))^2 * e_x = (1, 0, 0)
        program = QidProgram(
            amplitudes=np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], dtype=complex)
        )
        report = qid_povm(program)
        assert np.allclose(report.anchor_bloch, [1, 0, 0], atol=1e-12)
        assert not report.informationally_complete

    def test_report_consistent_with_processor_model(self, qid_proc):
        rng = np.random.default_rng(33)
        for _ in range(5):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            program = QidProgram(amplitudes=amps / np.linalg.norm(amps))
            report = qid_povm(program)
            povm = induced_povm(
                qid_proc, program.program_state(), OutcomePartition.finest(4)
            )
            for got, expected in zip(povm, report.elements):
                assert np.allclose(got, expected, atol=1e-12)

    def test_elements_complete_and_psd_for_random_programs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            report = qid_povm(QidProgram(amplitudes=amps / np.linalg.norm(amps)))
            total = sum(report.elements)
            assert np.allclose(total, np.eye(2), atol=1e-10)
            for f in report.elements:
                assert np.linalg.eigvalsh(f).min() > -1e-10

    def test_pauli_covariance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            report = qid_povm(QidProgram(amplitudes=amps))
            state = QidProgram(amplitudes=amps).state_vector()
            for m in range(1, 4):
                translated = np.kron(pauli(m), np.eye(2)) @ state
                new_amps = np.array(
                    [bell_like(j).conj() @ translated for j in range(4)]
                )
                new_report = qid_povm(QidProgram(amplitudes=new_amps))
                for k in range(4):
                    pk = pauli_product_index(m, k)
                    expected = pauli(m) @ report.elements[pk] @ pauli(m)
                    assert np.allclose(new_report.elements[k], expected, atol=1e-10)


class TestSicProgram:
    def test_amplitudes(self):
        amps = sic_program().amplitudes
        assert np.allclose(
            amps, [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)]
        )

    def test_overlap_identity(self, sic_elements):
        for j in range(4):
            for k in range(4):
                overlap = np.trace(sic_elements[j] @ sic_elements[k]).real
                expected = 0.25 if j == k else 1 / 12
                assert abs(overlap - expected) < 1e-12

    def test_bloch_vectors_form_regular_tetrahedron(self):
        points = qid_povm(sic_program()).bloch_points()
        vecs = [np.array(p[1:]) for p in points]
        for v in vecs:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for j in range(4):
            for k in range(j + 1, 4):
                assert abs(vecs[j] @ vecs[k] + 1 / 3) < 1e-12


class TestUnitaryProgram:
    def test_zero_rotation_is_identity_channel(self, qid_proc):
        program = unitary_program(np.zeros(3))
        assert np.allclose(program.amplitudes, [1, 0, 0, 0])
        rho = random_density_operator(2, seed=3)
        a0 = kraus_operators(qid_proc, program.program_state())[0, 0]
        assert np.allclose(a0 @ rho @ dag(a0) / 0.25, rho, atol=1e-12)

    def test_half_pi_x_rotation(self):
        program = unitary_program(np.array([np.pi / 2, 0, 0]))
        # matrix exponential oracle: exp(i (pi/2) sigma_x) = i sigma_x
        assert np.allclose(expm(1j * (np.pi / 2) * pauli(1)), 1j * pauli(1), atol=1e-12)
        assert np.allclose(program.amplitudes, [np.cos(np.pi / 2), 1j, 0, 0], atol=1e-12)

    def test_probabilities_quarter_and_branch_zero_conjugation(self, qid_proc):
        rng = np.random.default_rng(10)
        for _ in range(5):
            mu = rng.normal(size=3)
            program = unitary_program(mu)
            povm = induced_povm(
                qid_proc, program.program_state(), OutcomePartition.finest(4)
            )
            rho = random_density_operator(2, rng)
            assert np.allclose(outcome_probabilities(rho, povm), 0.25, atol=1e-12)
            u = expm(1j * sum(mu[j] * pauli(j + 1) for j in range(3)))
            a0 = kraus_operators(qid_proc, program.program_state())[0, 0]
            got = a0 @ rho @ dag(a0) / 0.25
            assert np.allclose(got, u @ rho @ dag(u), atol=1e-10)


class TestPauliMeasurementProgram:
    def test_axis_one_povm_halves(self, qid_proc):
        program, partition = pauli_measurement_program(1)
        fine = induced_povm(qid_proc, program.program_state(), OutcomePartition.finest(4))
        p_plus = 0.5 * (np.eye(2) + pauli(1))
        p_minus = 0.5 * (np.eye(2) - pauli(1))
        assert np.allclose(fine[0], 0.5 * p_plus, atol=1e-12)
        assert np.allclose(fine[1], 0.5 * p_plus, atol=1e-12)
        assert np.allclose(fine[2], 0.5 * p_minus, atol=1e-12)
        assert np.allclose(fine[3], 0.5 * p_minus, atol=1e-12)
        coarse = induced_povm(qid_proc, program.program_state(), partition)
        assert np.allclose(coarse[0], p_plus, atol=1e-12)
        assert np.allclose(coarse[1], p_minus, atol=1e-12)

    def test_partition_pairs_zero_with_axis(self):
        for axis in (1, 2, 3):
            _, partition = pauli_measurement_program(axis)
            assert partition.blocks[0] == (0, axis)
            assert set(partition.blocks[0]) | set(partition.blocks[1]) == {0, 1, 2, 3}

    def test_program_overlaps_are_half(self):
        states = [
            pauli_measurement_program(axis)[0].state_vector() for axis in (1, 2, 3)
        ]
        for j in range(3):
            for k in range(3):
                expected = 1.0 if j == k else 0.5
                assert abs(states[j].conj() @ states[k] - expected) < 1e-12

    def test_eigenstate_probabilities(self, qid_proc):
        program, partition = pauli_measurement_program(3)
        povm = induced_povm(qid_proc, program.program_state(), partition)
        p = outcome_probabilities(np.diag([1.0, 0.0]), povm)
        assert np.allclose(p, [1.0, 0.0], atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            pauli_measurement_program(0)

    @pytest.mark.parametrize("axis", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_axis_is_refused(self, axis):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {axis!r}")):
            pauli_measurement_program(axis)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_pairing_is_built_once_and_read_only(self, axis):
        _, partition = pauli_measurement_program(axis)
        assert pauli_measurement_program(axis)[1] is partition
        others = tuple(k for k in (1, 2, 3) if k != axis)
        fresh = OutcomePartition(blocks=((0, axis), others))
        assert partition == fresh and hash(partition) == hash(fresh)
        assert repr(partition) == f"OutcomePartition(blocks={((0, axis), others)!r})"
        for private in (partition._order, partition._membership):
            with pytest.raises(ValueError, match="read-only"):
                private[0] = 1

    def test_coprogrammability_identity(self, qid_proc):
        # (1/2)(P+P0 + P+P1 + P-P1 + P-P0) = (1/2) I across the x and z programs
        prog_x, _ = pauli_measurement_program(1)
        prog_z, _ = pauli_measurement_program(3)
        ops_x = kraus_operators(qid_proc, prog_x.program_state())[0]
        ops_z = kraus_operators(qid_proc, prog_z.program_state())[0]
        s, k = kraus_compatibility(ops_x, ops_z)
        assert np.allclose(s, 0.5 * np.eye(2), atol=1e-12)
        overlap = prog_x.state_vector().conj() @ prog_z.state_vector()
        assert abs(k - overlap) < 1e-12


class TestCircuitSearch:
    def test_search_finds_four_cnot_circuit(self, qid_proc):
        # the copying network: data onto each program qubit, then back
        circuit = qid_circuit_search()
        assert circuit.gates == ((0, 1), (0, 2), (1, 0), (2, 0))
        assert circuit.input_layer == ("I", "I")
        assert circuit.output_layer == ("H", "I")
        relabeled = np.kron(np.eye(2), circuit.relabeling) @ circuit.unitary()
        assert np.max(np.abs(relabeled - qid_proc.gate)) <= ATOL

    def test_relabeling_is_monomial(self):
        m = qid_circuit_search().relabeling
        mags = np.abs(m)
        hot = mags > 0.5
        assert np.all(hot.sum(axis=0) == 1) and np.all(hot.sum(axis=1) == 1)
        assert np.allclose(mags[hot], 1.0, atol=1e-12)
        assert np.max(mags[~hot]) < 1e-12

    def test_search_is_deterministic(self):
        a = qid_circuit_search()
        b = qid_circuit_search()
        assert a.gates == b.gates
        assert a.input_layer == b.input_layer and a.output_layer == b.output_layer
        assert np.array_equal(a.relabeling, b.relabeling)

    def test_relabeling_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            qid_circuit_search().relabeling[0, 0] = 0
