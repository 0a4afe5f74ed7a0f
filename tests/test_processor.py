import re

import numpy as np
import pytest

from mapproc.processor import (
    STATE_TOL,
    ImpossibleOutcomeError,
    InvalidPovmError,
    OutcomePartition,
    Processor,
    ProgramState,
    induced_instrument,
    induced_povm,
    kraus_operators,
    outcome_probabilities,
    post_measurement_state,
    sample_outcomes,
    validate_povm,
    _state,
)
from mapproc.qcore import dag, is_density_operator, pauli
from mapproc.qid import QidProgram, pauli_measurement_program, sic_program, unitary_program
from mapproc.sampling import haar_unitary, random_density_operator, random_pure_state
from mapproc.tomography import gram_matrix
from mapproc.vnmeas import SlotAssignment, VonNeumannMeasurement, kraus_compatibility
from timelimit import time_limit


NOT_FLOATS = "elements must be (d, d) operators of numbers in the float range"
NOT_A_STATE = r"^state is not a density operator within 1e-08$"

# every public function that reads an (n, d, d) operator stack
STACK_READERS = {
    "VonNeumannMeasurement": VonNeumannMeasurement,
    "kraus_compatibility-first": lambda ops: kraus_compatibility(ops, ops),
    "kraus_compatibility-second": lambda ops: kraus_compatibility(np.eye(2)[None], ops),
    "gram_matrix": gram_matrix,
}


def unbounded(element):
    return f"element {element} has an entry not finite or above 1 in modulus"


def dilated_probabilities(proc, program, rho, partition):
    """Independent oracle: Tr[(I (x) Q_a) G (rho (x) xi) G^dagger]."""
    xi = np.outer(program.vector, program.vector.conj())
    big = proc.gate @ np.kron(rho, xi) @ dag(proc.gate)
    probs = []
    for block in partition.blocks:
        q = np.zeros((proc.program_dim, proc.program_dim), dtype=complex)
        for k in block:
            q[k, k] = 1.0  # e_k e_k^dagger
        probs.append(np.trace(big @ np.kron(np.eye(proc.data_dim), q)).real)
    return np.array(probs)


class TestValidation:
    def test_gate_must_be_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Processor(data_dim=2, program_dim=2, gate=np.ones((4, 4)))

    def test_gate_shape_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            Processor(data_dim=2, program_dim=2, gate=np.eye(8))

    @pytest.mark.parametrize(
        "dims, gate, message",
        [
            ((True, 4), np.eye(4), "data_dim must be an integer, got True"),
            ((2.0, 2), np.eye(4), "data_dim must be an integer, got 2.0"),
            ((2, "2"), np.eye(4), "program_dim must be an integer, got '2'"),
            ((-2, -2), np.eye(4), "data_dim must be at least 1, got -2"),
            ((0, 2), np.eye(0), "data_dim must be at least 1, got 0"),
            ((2, 0), np.eye(0), "program_dim must be at least 1, got 0"),
        ],
        ids=["bool", "float", "str", "negative", "zero-data", "zero-program"],
    )
    def test_dimensions_must_be_positive_integers(self, dims, gate, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Processor(*dims, gate)

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        proc = Processor(data_dim=np.int64(2), program_dim=np.int32(2), gate=np.eye(4))
        assert (proc.data_dim, proc.program_dim) == (2, 2)
        assert type(proc.data_dim) is int and type(proc.program_dim) is int

    @pytest.mark.parametrize(
        "vector, message",
        [
            (np.eye(2) + 0j, "program vector must have shape (n,) with n >= 1, got (2, 2)"),
            # an empty vector is a shape defect, refused before the norm check
            (np.zeros(0), "program vector must have shape (n,) with n >= 1, got (0,)"),
            (np.array([1.0, 1.0]), "program vector must be normalized"),
            (0.5, "program vector must have shape (n,) with n >= 1, got ()"),
            ([np.nan, 0.0], "program vector must be normalized"),
        ],
        ids=["2-d", "empty", "unnormalized", "scalar", "nan"],
    )
    def test_program_state_is_one_unit_vector(self, vector, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProgramState(vector)

    def test_partition_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError, match="two blocks"):
            OutcomePartition(blocks=((0, 1), (1, 2)))

    def test_partition_blocks_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            OutcomePartition(blocks=((0,), (2,)))

    # zero blocks, or blocks with no index, would cover zero outcomes, as finest(0) would
    @pytest.mark.parametrize(
        "blocks", [(), [], ((),), ((), ())], ids=["none", "list", "one-empty", "two-empty"]
    )
    def test_partition_of_no_outcome_is_refused(self, blocks):
        message = "blocks must hold at least one outcome index, got none"
        with pytest.raises(ValueError, match=f"^{message}$"):
            OutcomePartition(blocks=blocks)

    # int() would read 0.5 as 0 and True as 1
    @pytest.mark.parametrize("blocks", [((0.5,), (1,)), ((True,), (0,))], ids=["float", "bool"])
    def test_partition_index_must_be_an_integer(self, blocks):
        with pytest.raises(ValueError, match="outcome index must be an integer"):
            OutcomePartition(blocks=blocks)

    @pytest.mark.parametrize(
        "n, message",
        [
            (True, "outcome count must be an integer, got True"),
            (2.0, "outcome count must be an integer, got 2.0"),
            (0, "outcome count must be in 1..9223372036854775807, got 0"),
            (-1, "outcome count must be in 1..9223372036854775807, got -1"),
        ],
        ids=["bool", "float", "zero", "negative"],
    )
    def test_finest_count_is_read_and_bounded(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OutcomePartition.finest(n)

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["int64-overflow", "huge"])
    def test_finest_refuses_a_huge_count_before_any_loop(self, n):
        # a loop over range(n) would not end; the timer turns one into a failure
        with time_limit(1.0, f"finest({n})"):
            message = re.escape("outcome count must be in 1..9223372036854775807, got ")
            with pytest.raises(ValueError, match=message):
                OutcomePartition.finest(n)

    def test_finest_allocates_before_any_loop(self):
        # the (n, n) membership is allocated first, so numpy refuses a count
        # beyond memory at once instead of after a loop over range(n)
        with time_limit(1.0, "finest(2**62)"):
            with pytest.raises(ValueError, match="array is too big"):
                OutcomePartition.finest(2**62)

    @pytest.mark.parametrize("seed", range(20))
    def test_membership_is_bitwise_the_block_test(self, seed):
        # the index assignment against the quadratic [[k in b for k in range(n)] ...] table
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        cuts = np.sort(rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n)), replace=False))
        blocks = [tuple(b.tolist()) for b in np.split(rng.permutation(n), cuts)]
        partition = OutcomePartition(blocks=blocks)
        old = np.array([[k in b for k in range(n)] for b in blocks], dtype=complex)
        assert partition._membership.shape == old.shape
        assert partition._membership.tobytes() == old.tobytes()
        assert not partition._membership.flags.writeable
        finest = OutcomePartition.finest(n)
        assert finest == OutcomePartition(blocks=[(k,) for k in range(n)])
        assert finest._membership.tobytes() == np.eye(n, dtype=complex).tobytes()
        assert finest._spans == tuple((k, k + 1) for k in range(n))

    def test_finest_partition_has_one_block_per_outcome(self):
        assert OutcomePartition.finest(np.int64(3)).blocks == ((0,), (1,), (2,))
        assert OutcomePartition.finest(1).num_indices == 1

    # each check compares a defect with a tolerance; NaN compares False
    # both ways, so every check must be phrased to pass only when within it
    @pytest.mark.parametrize(
        "build",
        [
            lambda: QidProgram(amplitudes=[np.nan, 0, 0, 0]),
            lambda: ProgramState([np.nan, 0.0]),
            lambda: Processor(data_dim=1, program_dim=2, gate=[[1, 0], [0, np.nan]]),
            lambda: SlotAssignment(slot_maps=((np.nan,),)),
            lambda: VonNeumannMeasurement(projectors=[np.diag([1, 0]), np.diag([0, np.nan])]),
            lambda: validate_povm([np.diag([np.nan, 0.5]), np.diag([0.0, 0.5])]),
        ],
        ids=["qid-program", "program-vector", "gate", "slot-maps", "projector", "povm"],
    )
    def test_nan_is_refused(self, build):
        with pytest.raises(ValueError):  # InvalidPovmError is a ValueError
            build()

    # amplitudes, gate and POVM entries this large overflow in a norm,
    # product or sum; warnings are errors here, so they must be refused first
    # (0 <= F <= I bounds every POVM entry by 1)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: QidProgram(amplitudes=[1e200, 1e200, 0, 0]), "must be normalized"),
            (lambda: QidProgram(amplitudes=[1e308 + 1e308j, 0, 0, 0]), "must be normalized"),
            (lambda: QidProgram(amplitudes=[0, 0, np.inf, 0]), "must be normalized"),
            (lambda: unitary_program([1e200, 0, 0]), "has no finite norm"),
            (lambda: unitary_program([np.nan, 0, 0]), "has no finite norm"),
            (
                lambda: Processor(data_dim=1, program_dim=2, gate=np.full((2, 2), 1e200)),
                "must be unitary",
            ),
            (lambda: validate_povm([np.diag([np.inf, 0.0]), np.eye(2)]), unbounded(0)),
            (lambda: validate_povm([np.diag([1e308, 0.0])] * 2), unbounded(0)),
            (lambda: validate_povm([np.eye(2) / 2, np.full((2, 2), 1e200 + 1e200j)]), unbounded(1)),
            (lambda: validate_povm([np.eye(2) / 2, np.diag([np.nan, 0.5])]), unbounded(1)),
            (lambda: VonNeumannMeasurement([np.diag([1e200, 0.0]), np.eye(2)]), unbounded(0)),
            (lambda: VonNeumannMeasurement([np.eye(2), np.diag([np.inf, 0.0])]), unbounded(1)),
            (lambda: VonNeumannMeasurement.from_basis([[1.0, 0.0], [0.0, 1e200]]), unbounded(1)),
        ],
        ids=[
            "qid-program", "qid-program-complex", "qid-program-inf", "rotation", "rotation-nan",
            "gate",
            "povm-inf", "povm-huge", "povm-huge-complex", "povm-nan",
            "measurement-huge", "measurement-inf", "basis-huge",
        ],
    )
    def test_huge_finite_input_is_refused_without_warnings(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_amplitude_within_tolerance_above_one_is_accepted(self):
        program = QidProgram(amplitudes=[1 + 5e-11, 0, 0, 0])
        assert program.amplitudes.tolist() == [1, 0, 0, 0]


class TestKrausOperators:
    def test_anchor_program_gives_identity_branches(self, qid_proc):
        program = QidProgram(amplitudes=np.eye(4)[0]).program_state()
        ops = kraus_operators(qid_proc, program)
        assert ops.shape == (4, 2, 2)
        for a in ops:
            assert np.allclose(a, 0.5 * np.eye(2), atol=1e-12)

    def test_sic_program_branches_are_pauli_conjugates(self, qid_proc):
        a_op = 0.5 * (np.eye(2) / np.sqrt(2) + (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(6))
        for k, a in enumerate(kraus_operators(qid_proc, sic_program().program_state())):
            assert np.allclose(a, pauli(k) @ a_op @ pauli(k), atol=1e-12)

    def test_completeness_for_random_gate_and_program(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            proc = Processor(data_dim=2, program_dim=2, gate=haar_unitary(4, rng))
            program = ProgramState(random_pure_state(2, rng))
            total = sum(dag(a) @ a for a in kraus_operators(proc, program))
            assert np.allclose(total, np.eye(2), atol=1e-10)

    def test_dimension_mismatch(self, qid_proc):
        with pytest.raises(ValueError, match="dimension"):
            kraus_operators(qid_proc, ProgramState(np.array([1.0, 0.0])))


class TestInducedPovm:
    def test_single_block_gives_identity(self, qid_proc):
        povm = induced_povm(
            qid_proc, sic_program().program_state(), OutcomePartition(blocks=(tuple(range(4)),))
        )
        assert len(povm) == 1
        assert np.allclose(povm[0], np.eye(2), atol=1e-12)

    def test_finest_partition_on_sic_program_gives_tetrahedron(self, qid_proc, sic_elements):
        povm = induced_povm(
            qid_proc, sic_program().program_state(), OutcomePartition.finest(4)
        )
        for got, expected in zip(povm, sic_elements):
            assert np.allclose(got, expected, atol=1e-12)

    def test_maximally_mixed_program_gives_trivial_povm(self, qid_proc):
        # the POVM is linear in the program's density operator, so the maximally
        # mixed program I/4, the mean of the four Bell-like Xi_k, induces the mean
        # of the four Xi_k programs' POVMs
        finest = OutcomePartition.finest(4)
        povm = sum(
            induced_povm(qid_proc, QidProgram(amplitudes=e).program_state(), finest)
            for e in np.eye(4)
        ) / 4
        for f in povm:
            assert np.allclose(f, np.eye(2) / 4, atol=1e-12)

    def test_coarse_graining_consistency(self, qid_proc):
        program = sic_program().program_state()
        fine = induced_povm(qid_proc, program, OutcomePartition.finest(4))
        merged = induced_povm(
            qid_proc, program, OutcomePartition(blocks=((0, 2), (1, 3)))
        )
        assert np.allclose(merged[0], fine[0] + fine[2], atol=1e-14)
        assert np.allclose(merged[1], fine[1] + fine[3], atol=1e-14)
        rho = random_density_operator(2, seed=44)
        p_fine = outcome_probabilities(rho, fine)
        p_merged = outcome_probabilities(rho, merged)
        assert abs(p_merged[0] - (p_fine[0] + p_fine[2])) < 1e-12
        assert abs(p_merged[1] - (p_fine[1] + p_fine[3])) < 1e-12


class TestOutcomeProbabilities:
    def test_trivial_povm_is_state_independent(self):
        povm = [np.eye(2) / 4] * 4
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = random_density_operator(2, rng)
            assert np.allclose(outcome_probabilities(rho, povm), 0.25, atol=1e-12)

    def test_sic_on_maximally_mixed(self, sic_elements):
        assert np.allclose(
            outcome_probabilities(np.eye(2) / 2, sic_elements), 0.25, atol=1e-12
        )

    def test_sic_on_ground_state(self, sic_elements):
        # direct trace oracle: p_k = (1 + z_k/sqrt(3))/4 with z signs (+,-,-,+)
        p = outcome_probabilities(np.diag([1.0, 0.0]), sic_elements)
        z = np.array([1, -1, -1, 1]) / np.sqrt(3)
        assert np.allclose(p, 0.25 * (1 + z), atol=1e-12)

    def test_invalid_povm_rejected(self):
        # twice each: a refusal is never remembered as a pass
        for _ in range(2):
            with pytest.raises(InvalidPovmError):
                outcome_probabilities(np.eye(2) / 2, [np.eye(2), np.eye(2)])
            with pytest.raises(InvalidPovmError):
                outcome_probabilities(np.eye(2) / 2, [np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
            with pytest.raises(InvalidPovmError):
                outcome_probabilities(np.eye(2) / 2, [1.0])
            with pytest.raises(InvalidPovmError):
                outcome_probabilities(np.eye(2) / 2, [[[1, 0], [0]]])
            with pytest.raises(InvalidPovmError):
                outcome_probabilities(np.eye(2) / 2, np.zeros((1, 0, 0)))

    def test_in_place_edit_is_checked_again(self, sic_elements):
        povm = np.array(sic_elements)
        rho = np.diag([1.0, 0.0])
        first = outcome_probabilities(rho, povm)
        assert np.array_equal(outcome_probabilities(rho, povm), first)
        povm[0, 0, 0] += 1e-9
        with pytest.raises(InvalidPovmError, match="sum to the identity"):
            outcome_probabilities(rho, povm)
        povm[:] = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2))]
        assert np.array_equal(outcome_probabilities(rho, povm), [1.0, 0.0, 0.0, 0.0])

    def test_first_non_hermitian_element_is_named(self):
        skew = np.array([[0.25, 0.1], [0.0, 0.25]])
        with pytest.raises(InvalidPovmError, match="element 1 is not Hermitian"):
            validate_povm([np.eye(2) / 2, skew, np.eye(2) / 2 - skew])

    @pytest.mark.parametrize("povm", [5, np.array(1.0)], ids=["int", "0-d-array"])
    def test_non_sequence_is_not_a_povm(self, povm):
        with pytest.raises(InvalidPovmError, match="expected a sequence"):
            validate_povm(povm)

    # input that does not read as an (n, d, d) stack with n, d >= 1 never
    # reaches a numerical check; every operator-stack reader refuses it in
    # the same words, naming what is wrong with it, and validate_povm raises
    # its InvalidPovmError; warnings are errors here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "povm, message",
        [
            ([[[1, 0], [0]]], "element 0 is not a (d, d) operator with d >= 1"),
            ([np.eye(2) / 2, [[0.5, 0], [0]]], "element 1 has shape ragged, expected (2, 2)"),
            ([], "expected at least one (d, d) operator"),
            (np.zeros((0, 2, 2)), "expected at least one (d, d) operator"),
            (5, "expected a sequence of (d, d) operators, got 5"),
            (5.0, "expected a sequence of (d, d) operators, got 5.0"),
            ({"a": 1}, "expected a sequence of (d, d) operators, got {'a': 1}"),
            ([1.0], "element 0 is not a (d, d) operator with d >= 1"),
            (np.eye(2), "element 0 has shape (2,), expected (2, 2)"),
            (np.zeros((1, 1, 2, 2)), "element 0 has shape (1, 2, 2), expected (1, 1)"),
            (np.zeros((1, 0, 0)), "element 0 is not a (d, d) operator with d >= 1"),
            (np.zeros((2, 2, 3)), "element 0 has shape (2, 3), expected (2, 2)"),
            ([np.eye(2) / 2, np.eye(3) / 2], "element 1 has shape (3, 3), expected (2, 2)"),
            ([[["a", "b"], ["c", "d"]]], NOT_FLOATS),
            ([[[10**400, 0], [0, 1]]], NOT_FLOATS),
        ],
        ids=[
            "ragged-first", "ragged-later", "empty", "empty-stack", "scalar", "float", "mapping",
            "1-d", "2-d", "4-d", "zero-dim", "not-square", "not-stacking", "strings",
            "int-overflow",
        ],
    )
    def test_malformed_input_is_named(self, povm, message):
        with pytest.raises(InvalidPovmError, match=re.escape(message) + "$"):
            validate_povm(povm)
        messages = {}
        for name, read in STACK_READERS.items():
            with pytest.raises(ValueError) as caught:
                read(povm)
            messages[name] = str(caught.value)
        assert messages == dict.fromkeys(STACK_READERS, message)

    def test_validated_stack_is_read_only(self, sic_elements):
        f = validate_povm(sic_elements)
        assert f is validate_povm(np.array(sic_elements))
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0, 0] = 0.0

    @pytest.mark.parametrize(
        "rho, shape",
        [(np.eye(3) / 3, r"\(3, 3\)"), (np.ones(2) / 2, r"\(2,\)"), (0.5, r"\(\)")],
        ids=["qutrit", "vector", "scalar"],
    )
    def test_state_shape_must_match_the_elements(self, sic_elements, rho, shape):
        message = r"state must have shape \(2, 2\), got " + shape + "$"
        with pytest.raises(ValueError, match=message):
            outcome_probabilities(rho, sic_elements)
        with pytest.raises(ValueError, match=message):
            sample_outcomes(rho, sic_elements, 10, seed=0)

    def test_agrees_with_dilated_computation(self, qid_proc):
        rng = np.random.default_rng(17)
        program = sic_program().program_state()
        partition = OutcomePartition(blocks=((0, 3), (1,), (2,)))
        povm = induced_povm(qid_proc, program, partition)
        for _ in range(10):
            rho = random_density_operator(2, rng)
            direct = outcome_probabilities(rho, povm)
            dilated = dilated_probabilities(qid_proc, program, rho, partition)
            assert np.allclose(direct, dilated, atol=1e-10)


@pytest.mark.parametrize(
    "call",
    [
        induced_instrument,
        lambda proc, program, partition: post_measurement_state(
            proc, program, np.eye(2) / 2, 0, partition
        ),
    ],
    ids=["induced_instrument", "post_measurement_state"],
)
def test_partition_must_cover_the_program_outcomes(qid_proc, call):
    with pytest.raises(ValueError, match="^partition does not cover the program outcomes$"):
        call(qid_proc, sic_program().program_state(), OutcomePartition.finest(3))


class TestPostMeasurementState:
    def test_identity_program_leaves_state_alone(self, qid_proc):
        program = QidProgram(amplitudes=np.eye(4)[0]).program_state()
        rng = np.random.default_rng(4)
        rho = random_density_operator(2, rng)
        for a in range(4):
            post = post_measurement_state(
                qid_proc, program, rho, a, OutcomePartition.finest(4)
            )
            assert np.allclose(post, rho, atol=1e-12)

    def test_pauli_program_projects(self, qid_proc):
        program, partition = pauli_measurement_program(1)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        post = post_measurement_state(
            qid_proc, program.program_state(), rho, 0, partition
        )
        assert np.allclose(post, 0.5 * (np.eye(2) + pauli(1)), atol=1e-10)

    def test_impossible_outcome_raises(self, qid_proc):
        program, partition = pauli_measurement_program(3)
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ImpossibleOutcomeError, match="impossible"):
            post_measurement_state(qid_proc, program.program_state(), rho, 1, partition)

    def test_branches_reassemble_channel_output(self, qid_proc):
        # direct summation oracle: sum_a p_a rho'_a = sum_kn pi_n A rho A^dagger
        rng = np.random.default_rng(9)
        rho = random_density_operator(2, rng)
        program = sic_program().program_state()
        partition = OutcomePartition(blocks=((0, 1), (2, 3)))
        povm = induced_povm(qid_proc, program, partition)
        probs = outcome_probabilities(rho, povm)
        total = sum(
            probs[a] * post_measurement_state(qid_proc, program, rho, a, partition)
            for a in range(2)
        )
        channel = sum(
            a @ rho @ dag(a) for a in kraus_operators(qid_proc, program)
        )
        assert np.allclose(total, channel, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_nan_state_is_refused(self, qid_proc):
        # a NaN entry is no density operator: refused before any probability is formed
        program, partition = pauli_measurement_program(1)
        rho = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=NOT_A_STATE) as caught:
            post_measurement_state(qid_proc, program.program_state(), rho, 0, partition)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize(
        "outcome", [True, 1.5, np.float64(1.0), "1"], ids=["bool", "fraction", "float64", "str"]
    )
    def test_non_integer_outcome_is_refused(self, qid_proc, outcome):
        program, partition = pauli_measurement_program(1)
        rho = np.eye(2) / 2
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {outcome!r}")):
            post_measurement_state(qid_proc, program.program_state(), rho, outcome, partition)

    def test_numpy_integer_outcome_is_an_index(self, qid_proc):
        program, partition = pauli_measurement_program(2)
        state, rho = program.program_state(), random_density_operator(2, np.random.default_rng(3))
        post = post_measurement_state(qid_proc, state, rho, np.int64(1), partition)
        assert np.array_equal(post, post_measurement_state(qid_proc, state, rho, 1, partition))

    def test_state_shape_must_match_data_dim(self, qid_proc):
        program, partition = pauli_measurement_program(1)
        with pytest.raises(ValueError, match=re.escape("state must have shape (2, 2), got (4, 4)")):
            post_measurement_state(
                qid_proc, program.program_state(), np.eye(4) / 4, 0, partition
            )


class TestSampling:
    def test_zero_samples(self, sic_elements):
        counts = sample_outcomes(np.eye(2) / 2, sic_elements, 0, seed=7)
        assert counts.tolist() == [0, 0, 0, 0]

    def test_deterministic_for_fixed_seed(self, sic_elements):
        rho = np.diag([0.8, 0.2]).astype(complex)
        a = sample_outcomes(rho, sic_elements, 1000, seed=42)
        b = sample_outcomes(rho, sic_elements, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_trivial_povm_counts_within_five_sigma(self):
        n = 10**6
        counts = sample_outcomes(np.eye(2) / 2, [np.eye(2) / 4] * 4, n, seed=123)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 5 * sigma)
        assert counts.sum() == n

    @pytest.mark.parametrize("n", [2.5, True, 2.0, "3"], ids=["fraction", "bool", "float", "str"])
    def test_non_integer_count_is_refused(self, sic_elements, n):
        message = re.escape(f"sample count must be an integer, got {n!r}")
        with pytest.raises(ValueError, match=message):
            sample_outcomes(np.eye(2) / 2, sic_elements, n, seed=7)

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["int64-overflow", "huge"])
    def test_count_numpy_cannot_take_is_refused_before_the_probabilities(self, n):
        # the POVM is not one: a refusal after the probabilities would name it instead
        message = re.escape("sample count must be in 0..9223372036854775807, got ")
        with pytest.raises(ValueError, match=message):
            sample_outcomes(np.eye(2) / 2, [np.eye(2)] * 4, n, seed=7)

    def test_largest_int64_count_is_sampled(self, sic_elements):
        counts = sample_outcomes(np.eye(2) / 2, sic_elements, 2**63 - 1, seed=7)
        assert sum(counts.tolist()) == 2**63 - 1

    def test_generator_seed_is_used_as_given(self, sic_elements):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        first = sample_outcomes(np.eye(2) / 2, sic_elements, 1000, seed=rng)
        assert np.array_equal(first, twin.multinomial(1000, [0.25] * 4))
        assert not np.array_equal(sample_outcomes(np.eye(2) / 2, sic_elements, 1000, rng), first)

    @pytest.mark.parametrize("n", [0, 10], ids=["zero", "ten"])
    def test_negative_seed_is_refused_for_every_count(self, sic_elements, n):
        # n = 0 used to return zeros before the seed was read
        with pytest.raises(ValueError, match=re.escape("seed must be at least 0, got -1") + "$"):
            sample_outcomes(np.eye(2) / 2, sic_elements, n, seed=-1)

    @pytest.mark.parametrize("n", [0, 10], ids=["zero", "ten"])
    @pytest.mark.parametrize("seed", [True, 2.0, "7"], ids=["bool", "float", "str"])
    def test_non_integer_seed_is_refused_for_every_count(self, sic_elements, seed, n):
        message = re.escape(f"seed must be an integer, got {seed!r}") + "$"
        with pytest.raises(ValueError, match=message):
            sample_outcomes(np.eye(2) / 2, sic_elements, n, seed=seed)

    def test_numpy_integer_seed_is_read(self, sic_elements):
        counts = sample_outcomes(np.eye(2) / 2, sic_elements, 50, seed=np.int64(7))
        assert np.array_equal(counts, sample_outcomes(np.eye(2) / 2, sic_elements, 50, seed=7))

    def test_numpy_integer_count(self, sic_elements):
        counts = sample_outcomes(np.eye(2) / 2, sic_elements, np.int64(50), seed=7)
        assert np.array_equal(counts, sample_outcomes(np.eye(2) / 2, sic_elements, 50, seed=7))

    @pytest.mark.parametrize(
        "rho",
        [np.diag([2.0, -1.0]), np.zeros((2, 2))],  # trace 1, not positive; trace 0
        ids=["not-positive", "zero"],
    )
    def test_non_state_is_refused(self, sic_elements, rho):
        with pytest.raises(ValueError, match=NOT_A_STATE):
            sample_outcomes(rho, sic_elements, 1000, seed=0)

    # counts recorded when negative rounding dust was clipped with np.clip;
    # the antipode of the first tetrahedron vertex has p_0 = -4.2e-17
    @pytest.mark.parametrize(
        "state, seed, n, counts",
        [
            ("mixed", 7, 10000, [2495, 3036, 1306, 3163]),
            ("mixed", 2026, 1000, [240, 321, 130, 309]),
            ("ground", 7, 10000, [3937, 1023, 1038, 4002]),
            ("ground", 2026, 1000, [382, 115, 103, 400]),
            ("antipode", 7, 10000, [0, 3327, 3378, 3295]),
        ],
    )
    def test_counts_of_fixed_seeds_are_pinned(self, sic_elements, state, seed, n, counts):
        rho = {
            "mixed": np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]),
            "ground": np.diag([1.0, 0.0]).astype(complex),
            "antipode": 0.5 * (np.eye(2) - (pauli(1) + pauli(2) + pauli(3)) / np.sqrt(3)),
        }[state]
        assert sample_outcomes(rho, sic_elements, n, seed).tolist() == counts


# inputs once read without a word: Tr(rho F) of a non-Hermitian operator and of a
# trace-1 operator with a negative eigenvalue, which blamed the outcome instead
FOUND_NON_STATES = {"non-hermitian": [[1, 3], [0, 0]], "not-positive": np.diag([1.5, -0.5])}


def near_cutoff_operator(rng):
    """A 2x2 whose defects for is_density_operator's checks lie around STATE_TOL.

    A Bloch radius of 1 + 2x puts the smallest eigenvalue at -x; an upper
    entry off by about STATE_TOL breaks hermiticity, a shifted diagonal the
    trace, an imaginary diagonal both.  One in eight is a random Hermitian
    matrix instead, mostly far from any cutoff.
    """
    t = STATE_TOL
    if rng.random() < 0.125:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return (g + dag(g)) / 4 + np.eye(2) / 2
    v = rng.normal(size=3)
    v *= (1 + 2 * t * rng.uniform(-3, 3)) / np.linalg.norm(v)
    rho = (np.eye(2) + sum(x * pauli(k) for k, x in enumerate(v, 1))) / 2
    if rng.random() < 0.5:
        rho[0, 1] += t * rng.uniform(0, 2) * np.exp(2j * np.pi * rng.random())
    if rng.random() < 0.5:
        rho[0, 0] += t * rng.uniform(-2, 2)
    if rng.random() < 0.25:
        rho[1, 1] += 1j * t * rng.uniform(-1, 1)
    return rho


def reads_as_state(rho) -> bool:
    try:
        _state(rho, 2, "state")
    except ValueError as exc:
        assert str(exc) == "state is not a density operator within 1e-08"
        return False
    return True


class TestStateReader:
    """Every rho argument is read once, as a density operator within STATE_TOL."""

    @pytest.mark.parametrize("rho", FOUND_NON_STATES.values(), ids=FOUND_NON_STATES.keys())
    def test_a_non_state_is_refused_naming_the_argument(self, qid_proc, sic_elements, rho):
        program, partition = sic_program().program_state(), OutcomePartition.finest(4)
        calls = [
            lambda: outcome_probabilities(rho, sic_elements),
            lambda: sample_outcomes(rho, sic_elements, 10, seed=0),
        ] + [
            lambda b=b: post_measurement_state(qid_proc, program, rho, b, partition)
            for b in range(4)
        ]
        for call in calls:
            with pytest.raises(ValueError, match=NOT_A_STATE) as caught:
                call()
            assert type(caught.value) is ValueError  # not an outcome refused as impossible

    def test_a_non_state_with_a_distribution_is_not_sampled(self, sic_elements):
        # (I + 1.2 n.sigma)/2 for the first tetrahedron vertex n has eigenvalues -0.1
        # and 1.1, yet tetrahedron probabilities [0.55, 0.15, 0.15, 0.15]
        n = [2 * np.trace(sic_elements[0] @ pauli(k)).real for k in (1, 2, 3)]
        rho = (np.eye(2) + 1.2 * sum(x * pauli(k) for k, x in enumerate(n, 1))) / 2
        p = np.einsum("ij,kji->k", rho, sic_elements).real
        assert np.allclose(p, [0.55, 0.15, 0.15, 0.15], atol=1e-12)
        with pytest.raises(ValueError, match=NOT_A_STATE):
            sample_outcomes(rho, sic_elements, 1000, seed=0)

    def test_the_qubit_verdict_is_is_density_operator_outside_the_cutoff_band(self):
        # the closed form and eigvalsh round differently, so matrices whose defect for
        # any of the four checks lies within BAND of its cutoff are not compared
        band, rng = 1e-13, np.random.default_rng(31)
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            rho = near_cutoff_operator(rng)
            defects = [
                np.abs(rho).max() - 1 - STATE_TOL,
                np.abs(rho - dag(rho)).max() - STATE_TOL,
                abs(np.trace(rho).real - 1) - STATE_TOL,
                -np.linalg.eigvalsh(rho)[0] - STATE_TOL,
            ]
            if min(abs(x) for x in defects) < band:
                continue
            verdict = is_density_operator(rho, STATE_TOL)
            assert reads_as_state(rho) is verdict, rho
            verdicts[verdict] += 1
        assert min(verdicts.values()) > 5_000, verdicts

    @pytest.mark.parametrize(
        "rho",
        [
            [[np.nan, 0], [0, 1]],
            [[1, 0], [0, np.inf]],
            [[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]],  # abs overflows
            [[1 + 1.5e-8, 0], [0, -0.8e-8]],  # only an entry above 1 + STATE_TOL
            [[0.5, 0], [0, 0.5 + 1e-8j]],  # only the defect 2 Im rho_11 of hermiticity
        ],
        ids=["nan", "inf", "overflow", "entry", "imaginary-diagonal"],
    )
    @pytest.mark.filterwarnings("error")
    def test_a_qubit_no_state_is_refused_as_is_density_operator_refuses_it(self, rho):
        assert not is_density_operator(rho, STATE_TOL)
        assert not reads_as_state(rho)

    def test_other_dimensions_take_is_density_operator(self):
        assert _state([[1]], 1, "state").shape == (1, 1)
        assert np.array_equal(_state(np.eye(3) / 3, None, "state"), np.eye(3) / 3)
        for rho in (np.diag([1.2, -0.1, -0.1]), np.ones((2, 3)) / 2):
            with pytest.raises(ValueError, match=NOT_A_STATE):
                _state(rho, None, "state")
        with pytest.raises(ValueError, match=r"^samples\[3\] is not a density operator"):
            _state(np.eye(2), 2, "samples[3]")
