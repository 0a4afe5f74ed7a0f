import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.processor import outcome_probabilities, sample_outcomes
from mapproc.qcore import is_density_operator, pauli, trace_distance
from mapproc.qid import QidProgram, pauli_measurement_program, qid_povm
from mapproc.sampling import haar_unitary, random_density_operator
from mapproc.tomography import (
    InconsistentProbabilitiesError,
    Tomographer,
    UnderdeterminedPovmError,
    gram_matrix,
    is_informationally_complete,
    project_to_state,
    reconstruct,
    reconstruct_from_counts,
    reconstruct_from_probabilities,
)
from mapproc.tomography import _project

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def mub_povm():
    """Six-outcome qubit POVM from all Pauli eigenprojectors, each weighted 1/3."""
    els = []
    for axis in (3, 1, 2):
        els.append((np.eye(2) + pauli(axis)) / 6)
        els.append((np.eye(2) - pauli(axis)) / 6)
    return els


class TestGramMatrix:
    def test_computational_pvm(self):
        assert np.allclose(gram_matrix([P0, P1]), np.eye(2), atol=1e-14)

    def test_trivial_povm_rank_one(self):
        gram = gram_matrix([np.eye(2) / 4] * 4)
        assert np.allclose(gram, np.full((4, 4), 1 / 8), atol=1e-14)
        assert np.linalg.matrix_rank(gram) == 1

    def test_sic_values(self, sic_elements):
        # direct trace oracle, frozen: 1/4 on the diagonal, 1/12 off it
        gram = gram_matrix(sic_elements)
        expected = np.full((4, 4), 1 / 12) + (0.25 - 1 / 12) * np.eye(4)
        assert np.max(np.abs(gram - expected)) < 1e-12

    def test_rejects_non_hermitian(self):
        # a NaN entry fails the Hermitian test too: NaN compares false
        for element in ([[0, 1], [0, 0]], [[np.nan, 0], [0, 1]]):
            with pytest.raises(ValueError, match="Hermitian"):
                gram_matrix([np.array(element, dtype=complex)])

    @pytest.mark.parametrize(
        "povm, message",
        [
            (np.ones((2, 2, 3)), "element 0 has shape (2, 3), expected (2, 2)"),
            (np.eye(2), "element 0 has shape (2,), expected (2, 2)"),
            ([], "expected at least one (d, d) operator"),
        ],
        ids=["non-square", "one-operator", "empty"],
    )
    def test_rejects_a_stack_of_the_wrong_shape(self, povm, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            gram_matrix(povm)


class TestInformationalCompleteness:
    def test_sic_is_complete(self, sic_elements):
        assert is_informationally_complete(sic_elements)

    def test_qubit_pvm_is_not(self):
        assert not is_informationally_complete([P0, P1])

    def test_trivial_is_not(self):
        assert not is_informationally_complete([np.eye(2) / 4] * 4)


class TestReconstruct:
    def test_uniform_probabilities_give_maximally_mixed(self, sic_elements):
        rho = reconstruct(np.full(4, 0.25), sic_elements)
        assert trace_distance(rho, np.eye(2) / 2) < 1e-12

    def test_ground_state_round_trip(self, sic_elements):
        p = outcome_probabilities(P0, sic_elements)
        assert trace_distance(reconstruct(p, sic_elements), P0) < 1e-10

    def test_projector_frame_coefficients(self, sic_elements):
        # Gram-inversion oracle in the rank-1 frame Pi_k = 2 F_k:
        # M_jk = delta_jk + (1 - delta_jk)/3, x = M^-1 (2p)  ==> x_k = 3 p_k - 1/2
        rng = np.random.default_rng(6)
        frame = [2 * f for f in sic_elements]
        m = np.eye(4) + (np.ones((4, 4)) - np.eye(4)) / 3
        for _ in range(10):
            rho = random_density_operator(2, rng)
            p = outcome_probabilities(rho, sic_elements)
            x = np.linalg.solve(m, 2 * p)
            assert np.allclose(x, 3 * p - 0.5, atol=1e-12)
            rebuilt = sum(c * f for c, f in zip(x, frame))
            assert trace_distance(rebuilt, rho) < 1e-12

    def test_underdetermined_error_carries_rank(self):
        with pytest.raises(UnderdeterminedPovmError) as err:
            reconstruct(np.array([0.5, 0.5]), [P0, P1])
        assert err.value.rank == 2
        assert err.value.needed == 4

    def test_inconsistent_probabilities_report_residual(self):
        povm = mub_povm()
        assert is_informationally_complete(povm)
        bad = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InconsistentProbabilitiesError) as err:
            reconstruct(bad, povm)
        assert err.value.residual > 1e-3

    def test_overcomplete_consistent_probabilities_work(self):
        povm = mub_povm()
        rho = random_density_operator(2, seed=12)
        p = outcome_probabilities(rho, povm)
        assert trace_distance(reconstruct(p, povm), rho) < 1e-10

    def test_residual_is_the_part_no_operator_reproduces(self):
        # (1, 1, -1, -1, 0, 0) is orthogonal to Tr(F_j X) for every operator X
        povm = mub_povm()
        rho = random_density_operator(2, seed=13)
        p = outcome_probabilities(rho, povm) + 1e-7 * np.array([1, 1, -1, -1, 0, 0])
        state, diag = reconstruct_from_probabilities(p, povm)
        gram = gram_matrix(povm)
        assert np.isclose(diag.residual, np.linalg.norm(gram @ np.linalg.pinv(gram) @ p - p))
        assert np.isclose(diag.residual, 2e-7, rtol=1e-6)
        assert trace_distance(state, rho) < 1e-10

    def test_affine_in_probabilities(self, sic_elements):
        rng = np.random.default_rng(19)
        p = outcome_probabilities(random_density_operator(2, rng), sic_elements)
        q = outcome_probabilities(random_density_operator(2, rng), sic_elements)
        t = 0.3
        mix = reconstruct(t * p + (1 - t) * q, sic_elements)
        parts = t * reconstruct(p, sic_elements) + (1 - t) * reconstruct(q, sic_elements)
        assert np.allclose(mix, parts, atol=1e-12)


class TestTomographer:
    def test_dual_frame_reconstructs_spanning_set(self, sic_elements):
        tom = Tomographer.build(sic_elements)
        basis = [P0, P1, (np.eye(2) + pauli(1)) / 2, (np.eye(2) + pauli(2)) / 2]
        for rho in basis:
            p = np.array([np.trace(rho @ f).real for f in sic_elements])
            rebuilt = sum(pk * dk for pk, dk in zip(p, tom.dual_frame))
            assert np.max(np.abs(rebuilt - rho)) < 1e-10

    def test_gram_consistency(self, sic_elements):
        # L from gram_matrix solves L rho_vec = p, and the dual frame is
        # D = L^-1 F, so both give the same operator
        tom = Tomographer.build(sic_elements)
        gram = gram_matrix(sic_elements)
        rng = np.random.default_rng(23)
        rho = random_density_operator(2, rng)
        p = outcome_probabilities(rho, sic_elements)
        coeff = np.linalg.solve(gram, p)
        assert np.allclose(gram @ coeff, p, atol=1e-12)
        rebuilt = sum(c * f for c, f in zip(coeff, sic_elements))
        assert trace_distance(rebuilt, rho) < 1e-12
        dual = np.tensordot(np.linalg.inv(gram), np.array(sic_elements), axes=1)
        assert np.max(np.abs(tom.dual_frame - dual)) < 1e-12

    def test_build_rejects_underdetermined(self):
        for _ in range(2):  # a refusal is never remembered as a pass
            with pytest.raises(UnderdeterminedPovmError):
                Tomographer.build([P0, P1])

    def test_build_is_shared_and_read_only(self, sic_elements):
        stack = np.array(sic_elements)
        tom = Tomographer.build(stack)
        assert Tomographer.build(list(stack)) is tom
        # the (n, 2 d^2) real views share the stacks' memory and stay read-only
        for array in (tom.povm, tom.dual_frame, tom._povm_real, tom._dual_real):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert np.shares_memory(tom._povm_real, tom.povm)
        assert np.shares_memory(tom._dual_real, tom.dual_frame)


def test_the_povm_memo_is_shared_safely_between_threads(empty_povm_memo):
    # six POVMs over four entries: each thread's calls evict entries the others use
    rng = np.random.default_rng(17)
    programs = [pauli_measurement_program(1)[0]] + [
        QidProgram(amplitudes=a / np.linalg.norm(a))
        for a in rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    ]
    povms = [np.array(qid_povm(program).elements) for program in programs]  # caller copies
    rho = random_density_operator(2, rng)

    def work(start):
        out = []
        for i in range(start, start + 300):
            k = i % 6
            elements = qid_povm(programs[(k + 1) % 6]).elements
            p = outcome_probabilities(rho, povms[k])
            out.append(elements.tobytes() + p.tobytes())
            if is_informationally_complete(povms[k]):
                tom = Tomographer.build(povms[k])
                out.append(tom.dual_frame.tobytes() + tom.reconstruct(p).tobytes())
        return out

    expected = [work(start) for start in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so memo updates interleave
    try:
        empty_povm_memo.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert len(empty_povm_memo) <= 4


class TestReconstructFromCounts:
    def test_exact_count_ratios_match_reconstruct(self, sic_elements):
        rho = np.eye(2) / 2
        p = outcome_probabilities(rho, sic_elements)
        counts = (p * 4000).astype(int)
        state, diag = reconstruct_from_counts(counts, sic_elements)
        assert np.allclose(state, reconstruct(p, sic_elements), atol=1e-12)
        assert not diag.projected
        # a repeated call reuses the built Tomographer and gives the same bits
        again, diag_again = reconstruct_from_counts(counts, sic_elements)
        assert np.array_equal(again, state) and diag_again == diag

    def test_finite_statistics_concentrate(self, sic_elements):
        distances = []
        for seed in range(100):
            counts = sample_outcomes(np.eye(2) / 2, sic_elements, 10**6, seed=seed)
            state, _ = reconstruct_from_counts(counts, sic_elements)
            distances.append(trace_distance(state, np.eye(2) / 2))
        assert np.quantile(distances, 0.99) < 0.01

    def test_vertex_counts_need_projection(self, sic_elements):
        counts = np.array([1, 0, 0, 0])
        state, diag = reconstruct_from_counts(counts, sic_elements)
        # linear estimate is I/2 + (3/2) n0 . sigma: eigenvalues 2 and -1
        assert np.allclose(sorted(diag.eigenvalues), [-1.0, 2.0], atol=1e-10)
        assert np.linalg.eigvalsh(state).min() < -0.5
        projected, diag2 = reconstruct_from_counts(counts, sic_elements, project=True)
        assert diag2.projected
        evals = np.linalg.eigvalsh(projected)
        assert evals.min() > -1e-12
        assert abs(np.trace(projected).real - 1.0) < 1e-12

    def test_rejects_bad_counts(self, sic_elements):
        with pytest.raises(ValueError, match="nonnegative"):
            reconstruct_from_counts(np.array([-1, 1, 0, 0]), sic_elements)
        with pytest.raises(ValueError, match="positive finite total"):
            reconstruct_from_counts(np.zeros(4, dtype=int), sic_elements)

    @pytest.mark.parametrize(
        "counts, dtype",
        [(["a"] * 4, "<U1"), ([1, 2, 3, None], "object"), ([1j, 1, 1, 1], "complex128"),
         # numpy reads the mixed list as integers; the JSON reader and _index refuse booleans too
         ([True, 1, 1, 1], "bool"), (np.ones(4, dtype=bool), "bool")],
        ids=["str", "object", "complex", "bool-among-integers", "bool-array"],
    )
    def test_counts_must_be_real_numbers(self, sic_elements, counts, dtype):
        message = f"counts must be real numbers, got entries of type {dtype}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            reconstruct_from_counts(counts, sic_elements)

    def test_integer_total_is_exact(self, sic_elements):
        # 2^64 overflows int64, but the Python sum of the counts is exact
        counts = np.full(4, 2**62, dtype=np.int64)
        state, _ = reconstruct_from_counts(counts, sic_elements)
        assert np.max(np.abs(state - np.eye(2) / 2)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_infinite_total_is_refused_before_dividing(self, sic_elements):
        with pytest.raises(ValueError, match="positive finite total, got inf"):
            reconstruct_from_counts([np.inf, 1, 1, 1], sic_elements)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_is_refused_without_a_warning(self, sic_elements):
        with pytest.raises(ValueError, match="positive finite total, got inf"):
            reconstruct_from_counts([1e308, 1e308, 1, 1], sic_elements)


# each check passes only when within its bound, and NaN is within none
@pytest.mark.parametrize(
    "call",
    [
        lambda f: reconstruct([np.nan, 0.25, 0.25, 0.5], f),
        lambda f: reconstruct_from_counts([np.nan, 1, 1, 1], f),
        lambda f: reconstruct_from_probabilities(np.full(4, 0.25), f, residual_tol=np.nan),
        lambda f: reconstruct_from_counts([1, 1, 1, 1], f, residual_tol=-1.0),
    ],
    ids=["probabilities", "counts", "nan-tolerance", "negative-tolerance"],
)
def test_nan_or_negative_input_is_refused(sic_elements, call):
    with pytest.raises(ValueError):
        call(sic_elements)


def scaled_tetrahedron(eps):
    """Tetrahedron POVM whose Bloch vectors have their z-parts scaled by eps.

    The stacked POVM has singular values sqrt(2)/2 for I, sqrt(2/3) for x
    and y, and eps * sqrt(2/3) for z, so z falls below the cutoff
    (1e-9 of the largest) between eps = 1e-8 and 1e-9.
    """
    signs = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / np.sqrt(3)
    paulis = np.array([pauli(k) for k in (1, 2, 3)])
    return np.array([(np.eye(2) + np.tensordot(r * [1, 1, eps], paulis, axes=1)) / 4
                     for r in signs])


class TestScaledTetrahedron:
    RHO = np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_exact_probabilities_round_trip(self, eps):
        f = scaled_tetrahedron(eps)
        p = np.einsum("ij,kji->k", self.RHO, f).real
        assert np.max(np.abs(reconstruct(p, f) - self.RHO)) < 1e-9

    def test_below_the_cutoff_is_refused(self):
        with pytest.raises(UnderdeterminedPovmError) as err:
            Tomographer.build(scaled_tetrahedron(1e-9))
        assert err.value.rank == 3

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(3, 13)])
    def test_complete_exactly_when_build_succeeds(self, eps):
        f = scaled_tetrahedron(eps)
        try:
            Tomographer.build(f)
            built = True
        except UnderdeterminedPovmError:
            built = False
        assert is_informationally_complete(f) is built


def test_project_to_state_idempotent_on_states():
    rho = random_density_operator(2, seed=31)
    assert np.allclose(project_to_state(rho), rho, atol=1e-12)


def test_project_to_state_is_the_nearest_state_for_a_qutrit():
    # clipping and rescaling would give (0, 0.417, 0.583); the simplex
    # projection subtracts 0.1 from the kept eigenvalues instead
    u = haar_unitary(3, seed=5)
    estimate = u @ np.diag([-0.2, 0.5, 0.7]) @ u.conj().T
    projected = project_to_state(estimate)
    assert np.allclose(np.linalg.eigvalsh(projected), [0.0, 0.4, 0.6], atol=1e-12)
    assert np.allclose(projected, u @ np.diag([0.0, 0.4, 0.6]) @ u.conj().T, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_project_to_state_satisfies_the_optimality_condition(d, seed):
    # rho minimizes ||rho - E||_F over states iff Tr(G sigma) >= Tr(G rho)
    # for every state sigma, G = rho - E, i.e. lambda_min(G) = Tr(G rho)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    estimate = (g + g.conj().T) * rng.uniform(0.05, 1.0)
    estimate += (1.0 - np.trace(estimate).real) / d * np.eye(d)
    rho = project_to_state(estimate)
    assert is_density_operator(rho)
    gradient = rho - estimate
    assert abs(np.linalg.eigvalsh(gradient).min() - np.trace(gradient @ rho).real) < 1e-10


# --- the one-pass simplex threshold against the vectorized formula -------


def project_oracle(evals, evecs):
    """The cumulative-sum projection the one-pass threshold replaced."""
    excess = np.cumsum(evals[::-1]) - 1.0
    kept = np.flatnonzero(evals[::-1] * np.arange(1, len(evals) + 1) > excess)[-1]
    projected = np.clip(evals - excess[kept] / (kept + 1), 0.0, None)
    return (evecs * projected) @ evecs.conj().T


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) * rng.uniform(0.05, 2.0)


def _spectrum(kind, d, rng):
    """Ascending eigenvalues of one kind; 'repeated' keeps exact ties."""
    if kind == "state":
        return np.sort(rng.dirichlet(np.ones(d)))
    if kind == "repeated":
        return np.sort(rng.choice([-0.25, 0.0, 0.125, 0.25, 0.5, 1.0], size=d))
    if kind == "negative":  # one eigenvalue below zero; unit trace when d > 1
        mu = rng.uniform(0.0, 1.0, size=d)
        mu[0] = -rng.uniform(0.0, 0.5)
        mu[1:] += (1.0 - mu.sum()) / max(d - 1, 1)
        return np.sort(mu)
    mu = np.linalg.eigvalsh(random_hermitian(d, rng))  # 'hermitian'
    return mu if rng.random() < 0.5 else mu + (1.0 - mu.sum()) / d


@pytest.mark.parametrize("kind", ["hermitian", "repeated", "state", "negative"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_one_pass_threshold_is_the_cumulative_sum_formula(d, kind):
    rng = np.random.default_rng([d, len(kind)])
    for _ in range(300):
        evals, evecs = _spectrum(kind, d, rng), haar_unitary(d, rng)
        assert np.array_equal(_project(evals, evecs), project_oracle(evals, evecs))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_projection_of_an_estimate_matches_the_formula_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(200):
        estimate = random_hermitian(d, rng)
        estimate += (1.0 - np.trace(estimate).real) / d * np.eye(d)
        evals, evecs = np.linalg.eigh(estimate)
        assert np.array_equal(project_to_state(estimate), project_oracle(evals, evecs))


def test_spectrum_beyond_float_precision_has_no_threshold(sic_elements):
    # mu - 1 rounds to mu once |mu| >= 2^53, so no k qualifies; the formula
    # above fails with an IndexError, the library with a ValueError
    evals, evecs = np.array([-3e17, 3e17]), np.eye(2, dtype=complex)
    with pytest.raises(IndexError):
        project_oracle(evals, evecs)
    with pytest.raises(ValueError, match="no simplex threshold"):
        _project(evals, evecs)
    p = np.array([1e17, -1e17, 0.5, 0.5])  # sums to 1, consistent for any tetrahedron
    with pytest.raises(ValueError, match="no simplex threshold"):
        reconstruct_from_probabilities(p, sic_elements, project=True, residual_tol=1e3)
