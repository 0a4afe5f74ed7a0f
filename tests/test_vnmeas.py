import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.processor import (
    OutcomePartition,
    Processor,
    ProgramState,
    induced_instrument,
    induced_povm,
    kraus_operators,
    outcome_probabilities,
)
from mapproc.qcore import InfeasibleError, dag, is_unitary, pauli
from mapproc.qid import QidCircuit, qid_povm, qid_unitary, sic_program
from mapproc.sampling import (
    haar_unitary,
    random_density_operator,
    random_pure_state,
    random_rank_one_measurement,
)
from mapproc.tomography import Tomographer
from mapproc.vnmeas import (
    IsometryViolationError,
    MeasurementRealization,
    SlotAssignment,
    SynthesisReport,
    VonNeumannMeasurement,
    build_orthogonal_processor,
    coprogram_condition,
    feasibility_table_check,
    kraus_compatibility,
    pad_with_zero_slots,
    relaxed_pvm_processor,
    verify_projection_postulate,
)

E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
SZ = VonNeumannMeasurement(projectors=(E0, E1))
SX = VonNeumannMeasurement.from_basis(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)
FOUR_OUTCOME_PAIRING = [(0, 0), (0, 1), (1, 1), (1, 0)]


def random_measurement(dim, rng):
    return VonNeumannMeasurement(projectors=tuple(random_rank_one_measurement(dim, rng)))


class TestVonNeumannMeasurement:
    def test_rejects_non_projectors(self):
        with pytest.raises(ValueError, match="rank-1"):
            VonNeumannMeasurement(projectors=(np.eye(2) / 2, np.eye(2) / 2))

    def test_rejects_non_hermitian_idempotents(self):
        # idempotent, unit trace and summing to I: only the Hermitian test fails
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="element 0 is not Hermitian$"):
            VonNeumannMeasurement(projectors=(oblique, np.eye(2) - oblique))

    def test_rejects_incomplete_family(self):
        with pytest.raises(ValueError, match="identity"):
            VonNeumannMeasurement(projectors=(E0, E0))

    def test_measurements_leave_the_povm_memo_to_measured_povms(self, empty_povm_memo):
        # a measurement's stack is checked once; four of them used to evict the SIC
        rho, sic = np.eye(2) / 2, qid_povm(sic_program()).elements
        empty_povm_memo.clear()  # qid_povm entered the stack; the first call below checks it
        outcome_probabilities(rho, sic)
        (entry,) = empty_povm_memo.values()
        rng = np.random.default_rng(5)
        for _ in range(4):
            VonNeumannMeasurement.from_basis(haar_unitary(2, rng))
        outcome_probabilities(rho, sic)
        # a hit: the entry the first call made is still the only one
        assert len(empty_povm_memo) == 1 and next(iter(empty_povm_memo.values())) is entry

    @pytest.mark.parametrize(
        "projectors, message",
        [
            ([1.0], "element 0 is not a (d, d) operator with d >= 1"),
            (np.eye(2), "element 0 has shape (2,), expected (2, 2)"),
            (np.zeros((1, 1, 2, 2)), "element 0 has shape (1, 2, 2), expected (1, 1)"),
        ],
        ids=["1-d", "2-d", "4-d"],
    )
    def test_rejects_an_array_that_is_no_operator_stack(self, projectors, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            VonNeumannMeasurement(projectors=projectors)

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (0.5, "basis must have shape (n, n) with n >= 1, got ()"),
            (
                {"a": 1},
                "basis must have shape (n, n) with n >= 1, "
                "got no rectangular array of numbers in the float range",
            ),
            ([1, 0], "basis must have shape (n, n) with n >= 1, got (2,)"),
            ([], "basis must have shape (n, n) with n >= 1, got (0,)"),
        ],
        ids=["scalar", "mapping", "one-vector", "empty"],
    )
    def test_from_basis_refuses_input_that_is_no_basis(self, vectors, message):
        # the basis is read as one (d, d) array and named with its shape, not as
        # the (d, d) operators of the outer products the caller never passed
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            VonNeumannMeasurement.from_basis(vectors)

    def test_check_builds_no_pairwise_product(self):
        # the checks hold a few (d, d, d) stacks of d**3 * 16 B (512 KiB at d = 32);
        # a (d, d, d, d) product of the pairs alone would take d**4 * 16 B (16 MiB)
        d = 32
        rng = np.random.default_rng(32)
        VonNeumannMeasurement.from_basis(haar_unitary(d, rng))  # warm-up
        basis = haar_unitary(d, rng)
        tracemalloc.start()
        try:
            VonNeumannMeasurement.from_basis(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d**3 * 16

    def test_from_basis(self):
        m = VonNeumannMeasurement.from_basis([np.array([0, 1]), np.array([1, 0])])
        assert np.allclose(m.projectors[0], E1)

    def test_basis_vector_matches_projector(self):
        v = SX.basis_vector(0)
        assert np.allclose(np.outer(v, v.conj()), SX.projectors[0], atol=1e-12)


class TestCoprogramCondition:
    def test_identical_measurements(self):
        s, k = coprogram_condition(SZ, SZ)
        assert np.allclose(s, np.eye(2), atol=1e-12)
        assert abs(k - 1.0) < 1e-12

    def test_x_z_index_pairing_has_no_scalar(self):
        s, k = coprogram_condition(SX, SZ)
        assert k is None
        # S = P+ P0 + P- P1 has off-diagonal weight
        assert np.max(np.abs(s - np.trace(s) / 2 * np.eye(2))) > 0.1

    def test_x_z_four_outcome_pairing(self):
        s, k = coprogram_condition(SX, SZ, pairing=FOUR_OUTCOME_PAIRING, weights=[0.5] * 4)
        assert np.allclose(s, 0.5 * np.eye(2), atol=1e-12)
        assert abs(k - 0.5) < 1e-12

    def test_swapped_computational_basis(self):
        swapped = VonNeumannMeasurement(projectors=(E1, E0))
        s, k = coprogram_condition(SZ, swapped)
        assert np.max(np.abs(s)) < 1e-14
        assert abs(k) < 1e-14

    def test_conjugation_covariance(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            m1 = random_measurement(2, rng)
            m2 = random_measurement(2, rng)
            w = haar_unitary(2, rng)
            rot1 = VonNeumannMeasurement(
                projectors=tuple(w @ e @ dag(w) for e in m1.projectors)
            )
            rot2 = VonNeumannMeasurement(
                projectors=tuple(w @ e @ dag(w) for e in m2.projectors)
            )
            _, k = coprogram_condition(m1, m2)
            _, k_rot = coprogram_condition(rot1, rot2)
            if k is None:
                assert k_rot is None
            else:
                assert abs(k - k_rot) < 1e-10

    # np.array(pairing, dtype=int) would pair (0.7, 0), (1.2, 1) as (0, 0), (1, 1)
    @pytest.mark.parametrize(
        "pairing", [[(0.7, 0), (1.2, 1)], [(True, 0), (1, 1)]], ids=["float", "bool"]
    )
    def test_pairing_index_must_be_an_integer(self, pairing):
        with pytest.raises(ValueError, match="pairing index must be an integer"):
            coprogram_condition(SX, SZ, pairing=pairing)

    def test_numpy_integer_pairing_is_read(self):
        pairing = [tuple(np.array(p)) for p in FOUR_OUTCOME_PAIRING]
        s, k = coprogram_condition(SX, SZ, pairing=pairing, weights=[0.5] * 4)
        assert np.allclose(s, 0.5 * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"weights must be finite, got {bad}"):
            coprogram_condition(SZ, SZ, weights=[bad, 1.0])

    @pytest.mark.parametrize(
        "pairing, weights, message",
        [
            (5, None, "pairing must be a sequence of integer sequences, got 5"),
            ([[0, 0], [1, 1]], 0.5, "weights must have shape (2,), got ()"),
        ],
        ids=["pairing", "weights"],
    )
    def test_scalar_pairing_or_weights_are_refused(self, pairing, weights, message):
        # both leaked TypeError from len()
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            coprogram_condition(SZ, SZ, pairing=pairing, weights=weights)

    def test_dimension_mismatch(self):
        m3 = random_measurement(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension"):
            coprogram_condition(SZ, m3)


class TestKrausCompatibility:
    def test_scaled_projector_families(self):
        ops_x = [SX.projectors[0], SX.projectors[0], SX.projectors[1], SX.projectors[1]]
        ops_z = [SZ.projectors[0], SZ.projectors[1], SZ.projectors[1], SZ.projectors[0]]
        s, k = kraus_compatibility(
            [a / np.sqrt(2) for a in ops_x], [b / np.sqrt(2) for b in ops_z]
        )
        assert np.allclose(s, 0.5 * np.eye(2), atol=1e-12)
        assert abs(k - 0.5) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one-to-one"):
            kraus_compatibility([E0], [E0, E1])

    def test_nan_is_not_a_multiple_of_the_identity(self):
        _, k = kraus_compatibility([np.diag([np.nan, 1.0])], [np.eye(2)])
        assert k is None


class TestPadding:
    # these leaked AttributeError, KeyError or TypeError from the first .dim
    @pytest.mark.parametrize(
        "call", [pad_with_zero_slots, relaxed_pvm_processor, feasibility_table_check],
        ids=["pad", "relaxed", "feasibility"],
    )
    @pytest.mark.parametrize(
        "measurements, message",
        [
            ([SZ, E0], "measurement 1 is not a VonNeumannMeasurement"),
            ({"a": 1}, "measurements must be a nonempty list of VonNeumannMeasurement"),
            (SZ, "measurements must be a nonempty list of VonNeumannMeasurement"),
        ],
        ids=["array-element", "mapping", "one-measurement"],
    )
    def test_a_list_that_holds_no_measurements_is_named(self, call, measurements, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call(measurements)

    def test_single_measurement(self):
        assign = pad_with_zero_slots([SZ])
        assert assign.program_dim == 2
        assert assign.slot_maps == ((0, 1),)

    def test_two_qubit_measurements(self):
        assign = pad_with_zero_slots([SZ, SX])
        assert assign.program_dim == 4
        assert assign.slot_maps == ((0, 1), (2, 3))

    def test_three_qutrit_measurements(self):
        rng = np.random.default_rng(50)
        ms = [random_measurement(3, rng) for _ in range(3)]
        assign = pad_with_zero_slots(ms)
        assert assign.program_dim == 9
        report = build_orthogonal_processor(assign, ms)
        assert report.unitary
        assert all(rec.realized for rec in report.measurements)


class TestSlotAssignment:
    # int() would read 0.5 as 0, 1.7 as 1 and True as 1
    @pytest.mark.parametrize(
        "slot_maps", [((0.5, 1.7),), ((True, False),), ((0, 1), (2.0, 3))],
        ids=["fraction", "bool", "integral-float"],
    )
    def test_slot_index_must_be_an_integer(self, slot_maps):
        with pytest.raises(ValueError, match="slot index must be an integer"):
            SlotAssignment(slot_maps=slot_maps)


# each function's own rules, past the reading of its arguments
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VonNeumannMeasurement(projectors=[E0]), "need 2 projectors on dimension 2, got 1"),
        (lambda: kraus_compatibility([E0, E1], np.zeros((2, 3, 3))),
         "paired operators must share one dimension"),
        (lambda: SlotAssignment(slot_maps=[[0, 1], [2, 2]]), "slot maps must be injective"),
        (lambda: build_orthogonal_processor(SlotAssignment(slot_maps=[[0, 1], [2, 3]]), [SZ]),
         "one measurement per slot map required"),
    ],
    ids=["too-few-projectors", "paired-dimensions", "repeated-slot", "maps-and-measurements"],
)
def test_each_rule_is_refused_in_its_own_words(call, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call()


class TestBuildOrthogonalProcessor:
    def test_single_measurement_identity_slots(self):
        assign = SlotAssignment(slot_maps=((0, 1),))
        assert assign.program_dim == 2
        report = build_orthogonal_processor(assign, [SZ])
        assert report.unitary
        # one program state in a two-dimensional program space leaves a
        # complement for the completion to fill
        assert report.completion_used
        assert report.measurements[0].realized
        assert report.measurements[0].postulate_compliant

    def test_disjoint_slots_for_z_and_x(self):
        report = build_orthogonal_processor(pad_with_zero_slots([SZ, SX]), [SZ, SX])
        g = report.gate
        assert np.max(np.abs(dag(g) @ g - np.eye(8))) < 1e-12
        assert report.completion_used
        for rec, m in zip(report.measurements, [SZ, SX]):
            assert rec.realized
            assert rec.postulate_compliant
            for j, slot in enumerate(rec.slot_map):
                assert np.allclose(rec.realized_povm[slot], m.projectors[j], atol=1e-10)

    def test_overlapping_slots_are_infeasible(self):
        assign = SlotAssignment(slot_maps=((0, 1), (1, 2)))
        assert assign.program_dim == 3
        with pytest.raises(IsometryViolationError) as err:
            build_orthogonal_processor(assign, [SZ, SX])
        assert (err.value.first, err.value.second) == (0, 1)
        assert 1 in err.value.slots

    def test_realizes_probabilities_for_random_collections(self):
        rng = np.random.default_rng(60)
        ms = [random_measurement(2, rng) for _ in range(2)]
        report = build_orthogonal_processor(pad_with_zero_slots(ms), ms)
        for rec, m in zip(report.measurements, ms):
            program = ProgramState(rec.program_state)
            ops = kraus_operators(report.processor, program)
            for _ in range(5):
                rho = random_density_operator(2, rng)
                for j, slot in enumerate(rec.slot_map):
                    op = ops[slot]
                    p = np.trace(dag(op) @ op @ rho).real
                    assert abs(p - np.trace(m.projectors[j] @ rho).real) < 1e-10


    def test_slot_map_must_cover_every_outcome(self):
        assign = SlotAssignment(slot_maps=((0,),))
        with pytest.raises(ValueError, match="needs 2 slots"):
            build_orthogonal_processor(assign, [SZ])

    @pytest.mark.parametrize("slot_maps,top", [(((0, 100),), 100), (((0, 1), (2, 4)), 4)],
                             ids=["one-measurement", "two-measurements"])
    def test_slot_index_must_lie_in_the_n_d_slots(self, slot_maps, top):
        # one large slot index would set the gate dimension d * (1 + index)
        n = len(slot_maps)
        with pytest.raises(ValueError, match=re.escape(
            f"slot index {top} outside 0..{2 * n - 1}, the N*d slots of the inputs"
        )):
            build_orthogonal_processor(SlotAssignment(slot_maps), [SZ, SX][:n])

    def test_mixed_dimensions_are_named_before_the_slot_bound(self):
        ms = [SZ, random_measurement(3, np.random.default_rng(61)),
              random_measurement(3, np.random.default_rng(62))]
        assign = SlotAssignment(((0, 1), (2, 3, 4), (5, 6, 7)))
        with pytest.raises(ValueError, match="share one dimension"):
            build_orthogonal_processor(assign, ms)


class TestSynthesisInvariants:
    """Unitarity, realization and the defining gate action on every size."""

    @staticmethod
    def assert_gate_applies(report, padded):
        # gate (e_i (x) state_a) = sum_k (padded[a][k] e_i) (x) |k>
        d, dp = report.processor.data_dim, report.processor.program_dim
        eye_d, eye_p = np.eye(d), np.eye(dp)
        for ops, rec in zip(padded, report.measurements):
            for i in range(d):
                want = sum(np.kron(ops[k] @ eye_d[i], eye_p[k]) for k in range(dp))
                got = report.gate @ np.kron(eye_d[i], rec.program_state)
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_padded_synthesis(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        ms = [random_measurement(d, rng) for _ in range(n)]
        assign = pad_with_zero_slots(ms)
        report = build_orthogonal_processor(assign, ms)
        assert is_unitary(report.gate)
        assert all(rec.realized and rec.postulate_compliant for rec in report.measurements)
        padded = []
        for m, slots in zip(ms, assign.slot_maps):
            ops = [np.zeros((d, d))] * assign.program_dim
            for j, slot in enumerate(slots):
                ops[slot] = m.projectors[j]
            padded.append(ops)
        self.assert_gate_applies(report, padded)

    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4, 5) for n in range(1, d + 1)])
    def test_shift_synthesis(self, d, n):
        rng = np.random.default_rng(100 + 10 * d + n)
        ms = [random_measurement(d, rng) for _ in range(n)]
        report = relaxed_pvm_processor(ms)
        assert is_unitary(report.gate)
        assert all(rec.realized for rec in report.measurements)
        eye = np.eye(d)
        padded = [
            [np.outer(eye[(k + a) % d], m.basis_vector(k).conj()) for k in range(d)]
            for a, m in enumerate(ms)
        ]
        self.assert_gate_applies(report, padded)


def test_no_completion_qr_when_the_image_fills_the_gate(monkeypatch):
    # the shift construction with N = d has dp = n: every gate column is an
    # image column, so the complete QR would fill an empty slice
    def refuse(*args, **kwargs):
        raise AssertionError("complete QR for zero completion columns")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    report = relaxed_pvm_processor([SZ, SX])
    assert not report.completion_used and is_unitary(report.gate)
    with pytest.raises(AssertionError, match="zero completion columns"):
        relaxed_pvm_processor([SX])


class TestRelaxedProcessor:
    def test_qubit_pair_matches_shift_structure(self):
        phi = np.array([0.6, 0.8], dtype=complex)
        phi_perp = np.array([0.8, -0.6], dtype=complex)
        m2 = VonNeumannMeasurement.from_basis([phi, phi_perp])
        report = relaxed_pvm_processor([SZ, m2])
        assert report.processor.program_dim == 2
        ops = kraus_operators(report.processor, ProgramState(np.eye(2)[1]))
        # shifted operators send phi to |1> and phi_perp to |0>
        assert np.allclose(dag(ops[0]) @ ops[0], m2.projectors[0], atol=1e-12)
        assert np.allclose(ops[0] @ dag(ops[0]), E1, atol=1e-12)
        assert np.allclose(ops[1] @ dag(ops[1]), E0, atol=1e-12)
        # cross condition with the first program's operators vanishes
        first = kraus_operators(report.processor, ProgramState(np.eye(2)[0]))
        s, k = kraus_compatibility(first, ops)
        assert np.max(np.abs(s)) < 1e-12
        assert abs(k) < 1e-12

    def test_single_measurement_reduces_to_plain_statistics(self):
        report = relaxed_pvm_processor([SX])
        rec = report.measurements[0]
        assert rec.realized
        for slot in range(2):
            assert np.allclose(rec.realized_povm[slot], SX.projectors[slot], atol=1e-12)

    def test_three_random_qutrit_measurements(self):
        rng = np.random.default_rng(70)
        ms = [random_measurement(3, rng) for _ in range(3)]
        report = relaxed_pvm_processor(ms)
        g = report.gate
        assert np.max(np.abs(dag(g) @ g - np.eye(9))) < 1e-12
        for rec, m in zip(report.measurements, ms):
            program = ProgramState(rec.program_state)
            povm = [dag(a) @ a for a in kraus_operators(report.processor, program)]
            for _ in range(10):
                rho = random_density_operator(3, rng)
                got = outcome_probabilities(rho, povm)
                expected = [np.trace(e @ rho).real for e in m.projectors]
                assert np.allclose(got, expected, atol=1e-10)

    def test_too_many_measurements(self):
        rng = np.random.default_rng(71)
        ms = [random_measurement(2, rng) for _ in range(3)]
        with pytest.raises(InfeasibleError, match="at most d=2 measurements, got 3"):
            relaxed_pvm_processor(ms)

    def test_mixed_dimensions_are_named_before_the_count(self):
        rng = np.random.default_rng(72)
        ms = [SZ, random_measurement(3, rng), random_measurement(3, rng)]
        with pytest.raises(ValueError, match="share one dimension"):
            relaxed_pvm_processor(ms)


class TestProjectionPostulate:
    def test_padded_synthesis_complies(self):
        report = build_orthogonal_processor(pad_with_zero_slots([SZ, SX]), [SZ, SX])
        rng = np.random.default_rng(80)
        samples = [random_density_operator(2, rng) for _ in range(5)]
        assert verify_projection_postulate(report, SZ, samples)
        assert verify_projection_postulate(report, SX, samples)

    def test_eigenstate_post_state_is_itself(self):
        report = build_orthogonal_processor(pad_with_zero_slots([SZ]), [SZ])
        assert verify_projection_postulate(report, SZ, [E0, E1])

    def test_relaxed_nontrivial_shift_violates(self):
        phi = np.array([0.6, 0.8], dtype=complex)
        m2 = VonNeumannMeasurement.from_basis([phi, np.array([0.8, -0.6], dtype=complex)])
        report = relaxed_pvm_processor([SZ, m2])
        rng = np.random.default_rng(81)
        samples = [random_density_operator(2, rng) for _ in range(5)]
        # program 0 is the computational measurement with the identity relabeling
        assert verify_projection_postulate(report, SZ, samples)
        assert not verify_projection_postulate(report, m2, samples)

    def test_rotated_kraus_branch_violates(self):
        # gate realizing A_0 = E_0, A_1 = sigma_x E_1: same PVM, post-state
        # sigma_x E_1 sigma_x instead of E_1
        gate = np.zeros((4, 4), dtype=complex)
        eye2 = np.eye(2, dtype=complex)
        tilde = (E0, pauli(1) @ E1)
        partner = (np.outer(eye2[1], eye2[1]), np.outer(eye2[1], eye2[0]))
        for k in range(2):
            gate += np.kron(tilde[k], np.outer(eye2[k], eye2[0]))
            gate += np.kron(partner[k], np.outer(eye2[k], eye2[1]))
        proc = Processor(data_dim=2, program_dim=2, gate=gate)
        record = MeasurementRealization(
            index=0,
            projectors=SZ.projectors,
            program_state=eye2[0],
            slot_map=(0, 1),
            realized_povm=SZ.projectors,
            realized=True,
            postulate_compliant=False,
            relabeling=None,
        )
        report = SynthesisReport(
            processor=proc, unitary=True, completion_used=False, measurements=(record,)
        )
        rng = np.random.default_rng(82)
        samples = [random_density_operator(2, rng) for _ in range(5)]
        assert not verify_projection_postulate(report, SZ, samples)

    def test_unknown_measurement_rejected(self):
        report = build_orthogonal_processor(pad_with_zero_slots([SZ]), [SZ])
        with pytest.raises(ValueError, match="not realized"):
            verify_projection_postulate(report, SX, [E0])

    # each would pass unrefused: a NaN sample has no outcome above the floor, and
    # in the other two outcome 1 has negative probability, so only E0 is checked
    @pytest.mark.parametrize(
        "sample", [np.full((2, 2), np.nan), np.diag([1.0, -1.0]), np.diag([1.5, -0.5])],
        ids=["nan", "traceless", "negative"],
    )
    def test_a_sample_that_is_no_state_is_refused(self, sample):
        report = build_orthogonal_processor(pad_with_zero_slots([SZ]), [SZ])
        message = "samples[1] is not a density operator within 1e-08"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_projection_postulate(report, SZ, [E0, sample])


class TestFeasibilityTable:
    def test_x_z_violates_row_orthogonality(self):
        violations = feasibility_table_check([SX, SZ])
        kinds = {v.kind for v in violations}
        assert "row_orthogonality" in kinds

    def test_swapped_basis_is_permutation_related(self):
        swapped = VonNeumannMeasurement(projectors=(E1, E0))
        violations = feasibility_table_check([SZ, swapped])
        assert all(v.kind == "column_permutation" for v in violations)
        assert len(violations) == 1

    def test_single_column_passes(self):
        assert feasibility_table_check([SZ]) == []

    def test_too_many_columns(self):
        with pytest.raises(InfeasibleError, match="at most"):
            feasibility_table_check([SZ, SX, VonNeumannMeasurement(projectors=(E1, E0))])


class TestProgrammabilityLimits:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**32 - 1))
    def test_superposed_program_mixes_the_shift_measurements(self, d, seed):
        # program psi realizes F_k = sum_a |psi_a|^2 P^a_k, as <k+a|k+b> = delta_ab
        rng = np.random.default_rng(seed)
        ms = [random_measurement(d, rng) for _ in range(d)]
        proc = relaxed_pvm_processor(ms).processor
        psi = random_pure_state(d, rng)
        povm = induced_povm(proc, ProgramState(psi), OutcomePartition.finest(d))
        weights = np.abs(psi) ** 2
        closed = sum(w * m.projectors for w, m in zip(weights, ms))
        assert np.max(np.abs(povm - closed)) <= 1e-12

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_zero_diagonal_partner_passes_the_table(self, d):
        # f_k = sum_j W_kj e_j with W = S (I - 2 u u^dagger), u = (sqrt(3) e_0 + e_2)/2:
        # zero diagonal (rows orthogonal), and W is not monomial (no permutation)
        u = np.zeros(d)
        u[0], u[2] = np.sqrt(3) / 2, 1 / 2
        w = np.roll(np.eye(d) - 2 * np.outer(u, u), 1, axis=0)
        assert np.all(np.diag(w) == 0) and np.count_nonzero(w) > d
        first = haar_unitary(d, 100 + d)
        pair = [VonNeumannMeasurement.from_basis(v) for v in (first, w @ first)]
        assert feasibility_table_check(pair) == []


def test_dataclass_arrays_are_read_only():
    projectors = np.array([E0, E1])
    measurement = VonNeumannMeasurement(projectors=projectors)
    projectors[0, 0, 0] = 5  # the caller's array stays the caller's
    assert measurement.projectors[0, 0, 0] == 1
    vector = np.eye(2, dtype=complex)[0]
    program = ProgramState(vector)
    vector[0] = 5
    assert program.vector[0] == 1
    assign = pad_with_zero_slots([SZ, SX])
    qid = qid_povm(sic_program())
    arrays = [measurement.projectors, qid.elements, qid.program_operator, qid.anchor_bloch,
              program.vector]
    padded = build_orthogonal_processor(assign, [SZ, SX])
    relaxed = relaxed_pvm_processor([SZ, SX])
    for record in padded.measurements + relaxed.measurements:
        arrays += [record.projectors, record.program_state, record.realized_povm]
    arrays += [record.relabeling for record in relaxed.measurements]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 5


def test_array_holding_dataclasses_compare_by_identity():
    # generated __eq__ and __hash__ would compare and hash the arrays, which
    # raises; these classes compare by identity and hash like any object
    relaxed = relaxed_pvm_processor([SZ, SX])
    builders = [
        qid_unitary,
        lambda: sic_program().program_state(),
        sic_program,
        lambda: qid_povm(sic_program()),
        lambda: induced_instrument(
            qid_unitary(), sic_program().program_state(), OutcomePartition.finest(4)
        ),
        lambda: Tomographer.build(qid_povm(sic_program()).elements),  # memoized: one instance
        lambda: VonNeumannMeasurement(projectors=(E0, E1)),
        lambda: relaxed.measurements[0],  # one instance
        lambda: relaxed_pvm_processor([SZ, SX]),
        lambda: QidCircuit(gates=(), input_layer=("I", "I"), output_layer=("I", "I"),
                           relabeling=np.eye(4)),
    ]
    for build in builders:
        x, y = build(), build()
        assert x == x and not x != x
        assert (x == y) is (x is y)
        assert hash(x) == hash(x) and {x: 1}[x] == 1
        assert len({x, y}) == (1 if x is y else 2)


def test_value_dataclasses_compare_by_value():
    assert SlotAssignment(slot_maps=((0, 1),)) == SlotAssignment(slot_maps=[np.arange(2)])
    assert hash(SlotAssignment(slot_maps=((0, 1),))) == hash(SlotAssignment(slot_maps=((0, 1),)))
    first, second = feasibility_table_check([SX, SZ]), feasibility_table_check([SX, SZ])
    assert first == second and hash(first[0]) == hash(second[0])
