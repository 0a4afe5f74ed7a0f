"""Invariants of the operator-family calculus over random dimensions and seeds.

Every operator family is an (n, d, d) stack; the checks below compare each
library result against a direct loop over its elements.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproc.processor import (
    OutcomePartition,
    Processor,
    ProgramState,
    induced_instrument,
    induced_povm,
    kraus_operators,
    post_measurement_state,
    validate_povm,
)
from mapproc.qcore import ATOL, bloch_expand, dag
from mapproc.qid import QidProgram, qid_povm, qid_unitary
from mapproc.sampling import (
    haar_unitary,
    random_density_operator,
    random_pure_state,
    random_rank_one_measurement,
)
from mapproc.tomography import (
    Tomographer,
    UnderdeterminedPovmError,
    is_informationally_complete,
    project_to_state,
    reconstruct_from_probabilities,
)
from mapproc.vnmeas import (
    VonNeumannMeasurement,
    build_orthogonal_processor,
    feasibility_table_check,
    kraus_compatibility,
    pad_with_zero_slots,
    relaxed_pvm_processor,
)

dims = st.integers(min_value=2, max_value=5)
small_dims = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=25, deadline=None)


def random_processor(d, dp, rng):
    gate = haar_unitary(d * dp, rng)
    return Processor(data_dim=d, program_dim=dp, gate=gate, program_basis=haar_unitary(dp, rng))


def random_mixed_program(dp, rng):
    """Up to three weighted components, sometimes plus one of weight -1e-12.

    ProgramState admits rounding dust down to -ATOL; its Kraus operators
    must carry weight 0, not the square root of a negative number.
    """
    weights = list(rng.dirichlet(np.ones(int(rng.integers(1, 4)))))
    if rng.random() < 0.3:
        weights.append(-1e-12)
    return ProgramState(
        weights=weights, vectors=[random_pure_state(dp, rng) for _ in weights]
    )


def random_partition(n, rng):
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    return OutcomePartition(
        blocks=tuple(tuple(np.flatnonzero(labels == b)) for b in np.unique(labels))
    )


def random_scattered_partition(n, rng):
    """Blocks of a random permutation of 0..n-1, so blocks are rarely contiguous."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return OutcomePartition(blocks=tuple(map(tuple, np.split(rng.permutation(n), cuts))))


def random_complex_amplitudes(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def random_ic_povm(d, rng, extra=None):
    """n >= d^2 random PSD operators rescaled by S^(-1/2) to sum to I."""
    n = d * d + (int(rng.integers(0, 3)) if extra is None else extra)
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    a = g @ g.conj().transpose(0, 2, 1)
    evals, evecs = np.linalg.eigh(a.sum(axis=0))
    root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return root @ a @ root


@SETTINGS
@given(dims, st.integers(min_value=1, max_value=4), seeds)
def test_mixed_program_kraus_operators_are_trace_preserving(d, dp, seed):
    rng = np.random.default_rng(seed)
    program = random_mixed_program(dp, rng)
    ops = kraus_operators(random_processor(d, dp, rng), program)
    assert ops.shape == (len(program.weights), dp, d, d)
    total = sum(dag(a) @ a for a in ops.reshape(-1, d, d))
    assert np.max(np.abs(total - np.eye(d))) < 1e-10


@SETTINGS
@given(dims, st.integers(min_value=1, max_value=4), seeds)
def test_induced_povms_are_psd_and_complete(d, dp, seed):
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_mixed_program(dp, rng)
    partition = random_partition(dp, rng)
    inst = induced_instrument(proc, program, partition)
    assert inst.povm.shape == (len(partition), d, d)
    validate_povm(inst.povm)
    assert np.linalg.eigvalsh(inst.povm).min() > -1e-10
    assert np.max(np.abs(inst.povm.sum(axis=0) - np.eye(d))) < 1e-10
    for block, branch, element in zip(partition.blocks, inst.branches, inst.povm):
        assert branch.shape == (len(program.weights) * len(block), d, d)
        assert np.max(np.abs(sum(dag(a) @ a for a in branch) - element)) < 1e-10


@SETTINGS
@given(dims, seeds)
def test_tomographer_round_trip_on_random_ic_povms(d, seed):
    rng = np.random.default_rng(seed)
    povm = random_ic_povm(d, rng)
    assert is_informationally_complete(povm)
    tom = Tomographer.build(povm)
    assert tom.povm.shape == tom.dual_frame.shape == povm.shape
    rho = random_density_operator(d, rng)
    p = np.array([np.trace(rho @ f).real for f in povm])
    assert np.max(np.abs(tom.reconstruct(p) - rho)) < 1e-8


@SETTINGS
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=8), seeds)
def test_round_trip_with_one_direction_scaled_down(d, k, seed):
    # Mixing in t Tr(G_j) I/d lifts every eigenvalue to at least t Tr(G_j)/d.
    # Shrinking the component along a unit traceless H shifts element j by
    # at most (1 - t) Tr(G_j) ||H||_op^2 <= (1 - t) Tr(G_j) (d-1)/d, which
    # t = (d-1)/d makes equal to that bound, so every element stays PSD;
    # Tr H = 0 keeps the sum I.
    rng = np.random.default_rng(seed)
    t = (d - 1) / d
    g = random_ic_povm(d, rng)
    povm = (1 - t) * g + t * np.trace(g, axis1=1, axis2=2).real[:, None, None] * np.eye(d) / d
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    h -= np.trace(h) / d * np.eye(d)
    h /= np.linalg.norm(h)
    povm -= (1 - 10.0**-k) * np.einsum("jab,ba->j", povm, h).real[:, None, None] * h
    if not is_informationally_complete(povm):
        try:
            Tomographer.build(povm)
        except UnderdeterminedPovmError:
            return
        raise AssertionError("a POVM that is not IC was built")
    s = np.linalg.svd(povm.reshape(len(povm), -1), compute_uv=False)
    rho = random_density_operator(d, rng)
    p = np.einsum("ab,jba->j", rho, povm).real
    error = np.max(np.abs(Tomographer.build(povm).reconstruct(p) - rho))
    assert error <= 1e-13 * s[0] / s[-1]


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=3), st.floats(min_value=0.0, max_value=13.0))
def test_qid_completeness_is_the_rank_test_and_the_anchor_test(seed, j, u):
    # real amplitudes up to a global phase give anchor_bloch = 2 alpha_0 alpha_vec,
    # so shrinking alpha_j by 10^-u shrinks one anchor component or all three;
    # the stacked POVM's singular values are proportional to (1, |anchor|), and
    # the two tests differ only for min |anchor| between 1e-10 and 1e-9
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4)
    amps[j] *= 10.0**-u
    amps = np.exp(2j * np.pi * rng.random()) * amps / np.linalg.norm(amps)
    report = qid_povm(QidProgram(amplitudes=amps))
    assert report.informationally_complete == is_informationally_complete(report.elements)
    anchor = np.abs(report.anchor_bloch)
    if not 1e-12 <= anchor.min() <= 1e-8:
        assert report.informationally_complete == bool(np.all(anchor > ATOL))


@SETTINGS
@given(dims, st.integers(min_value=1, max_value=4), seeds)
def test_kraus_compatibility_is_the_pairwise_sum(d, dp, seed):
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    psi, phi = random_pure_state(dp, rng), random_pure_state(dp, rng)
    ops_a = kraus_operators(proc, ProgramState.pure(psi))[0]
    ops_b = kraus_operators(proc, ProgramState.pure(phi))[0]
    s, k = kraus_compatibility(ops_a, ops_b)
    assert np.max(np.abs(s - sum(dag(a) @ b for a, b in zip(ops_a, ops_b)))) < 1e-12
    # a unitary gate makes the sum the program overlap times the identity
    assert k is not None and abs(k - psi.conj() @ phi) < 1e-10
    g = rng.normal(size=(dp, d, d)) + 1j * rng.normal(size=(dp, d, d))
    s, _ = kraus_compatibility(list(ops_a), list(g))
    assert np.max(np.abs(s - sum(dag(a) @ b for a, b in zip(ops_a, g)))) < 1e-12


@SETTINGS
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4), st.booleans(),
       seeds)
def test_synthesis_records_match_the_per_program_kraus_operators(d, n, shift, seed):
    # synthesis extracts every program's Kraus family in one contraction;
    # kraus_operators on each program alone is the reference
    rng = np.random.default_rng(seed)
    ms = [VonNeumannMeasurement(random_rank_one_measurement(d, rng)) for _ in range(n)]
    if shift:
        report = relaxed_pvm_processor(ms[:d])
    else:
        report = build_orthogonal_processor(pad_with_zero_slots(ms), ms)
    for rec in report.measurements:
        ops = kraus_operators(report.processor, ProgramState.pure(rec.program_state))[0]
        assert np.max(np.abs(rec.realized_povm - ops.conj().transpose(0, 2, 1) @ ops)) <= 1e-12


@SETTINGS
@given(dims, seeds)
def test_feasibility_table_matches_a_direct_overlap_count(d, seed):
    rng = np.random.default_rng(seed)
    first = haar_unitary(d, rng)
    bases = [first]
    for _ in range(int(rng.integers(1, d))):
        if rng.random() < 0.5:  # outcome permutation of the first column, new phases
            phases = np.exp(2j * np.pi * rng.random(d))
            bases.append(first[:, rng.permutation(d)] * phases)
        else:
            bases.append(haar_unitary(d, rng))
    columns = [VonNeumannMeasurement.from_basis(u.T) for u in bases]
    assert columns[0].projectors.shape == (d, d, d)
    n = len(bases)
    rows = sum(
        abs(np.vdot(bases[a][:, k], bases[b][:, k])) ** 2 > 1e-10
        for a in range(n) for b in range(a + 1, n) for k in range(d)
    )
    perms = sum(
        all(
            any(abs(np.vdot(bases[a][:, k], bases[b][:, j])) > 1 - 1e-9 for j in range(d))
            for k in range(d)
        )
        for a in range(n) for b in range(a + 1, n)
    )
    kinds = [v.kind for v in feasibility_table_check(columns)]
    assert kinds.count("row_orthogonality") == rows
    assert kinds.count("column_permutation") == perms


# --- the flat-matmul kernels against the formulas they replaced ----------

QID = qid_unitary()


@SETTINGS
@given(seeds)
def test_qid_povm_is_the_induced_povm_of_the_qid_gate(seed):
    program = QidProgram(amplitudes=random_complex_amplitudes(np.random.default_rng(seed)))
    elements = qid_povm(program).elements
    oracle = induced_povm(QID, program.program_state(), OutcomePartition.finest(4))
    assert np.max(np.abs(elements - oracle)) < 1e-12


@SETTINGS
@given(seeds)
def test_anchor_bloch_is_the_bloch_vector_of_the_first_element(seed):
    # complex amplitudes make the conj(alpha) x alpha term nonzero, so a sign
    # or index slip in the written-out cross product shows here
    amps = random_complex_amplitudes(np.random.default_rng(seed))
    report = qid_povm(QidProgram(amplitudes=amps))
    expansion = bloch_expand(4 * report.elements[0] - np.eye(2))
    assert abs(expansion.scalar) < 1e-12
    assert np.max(np.abs(report.anchor_bloch - expansion.vector)) < 1e-12


@SETTINGS
@given(small_dims, small_dims, seeds)
def test_post_measurement_states_reassemble_the_channel(d, dp, seed):
    # sum_b p_b rho_b = sum_k A_k rho A_k^dagger with p_b = Tr(rho F_b)
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_mixed_program(dp, rng)
    partition = random_scattered_partition(dp, rng)
    rho = random_density_operator(d, rng)
    povm = induced_povm(proc, program, partition)
    total = sum(
        np.trace(rho @ povm[b]).real * post_measurement_state(proc, program, rho, b, partition)
        for b in range(len(partition))
    )
    channel = sum(a @ rho @ dag(a) for a in kraus_operators(proc, program).reshape(-1, d, d))
    assert np.max(np.abs(total - channel)) < 1e-10


@SETTINGS
@given(st.integers(min_value=1, max_value=6), seeds)
def test_partitions_with_the_same_blocks_are_equal(n, seed):
    rng = np.random.default_rng(seed)
    blocks = random_scattered_partition(n, rng).blocks
    a = OutcomePartition(blocks=blocks)
    b = OutcomePartition(blocks=[list(np.array(block)) for block in blocks])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"OutcomePartition(blocks={blocks!r})"
    if len(blocks) > 1:
        assert a != OutcomePartition(blocks=blocks[::-1])


@SETTINGS
@given(small_dims, seeds)
def test_reported_residual_is_the_fitted_probability_error(d, seed):
    # the parent formula: rho = sum_k p_k D_k, fitted_j = Tr(F_j rho) by einsum
    rng = np.random.default_rng(seed)
    povm = random_ic_povm(d, rng, extra=2)
    rho = random_density_operator(d, rng)
    noise = rng.normal(size=len(povm))
    p = np.einsum("ab,jba->j", rho, povm).real + 0.01 * (noise - noise.mean())
    _, diagnostics = reconstruct_from_probabilities(p, povm, residual_tol=1.0)
    raw = np.tensordot(p, Tomographer.build(povm).dual_frame, axes=1)
    fitted = np.einsum("kij,ji->k", povm, raw).real
    assert diagnostics.residual > 1e-6
    assert abs(diagnostics.residual - np.linalg.norm(fitted - p)) < 1e-14


@SETTINGS
@given(small_dims, seeds)
def test_one_eigendecomposition_gives_spectrum_and_projection(d, seed):
    rng = np.random.default_rng(seed)
    povm = random_ic_povm(d, rng)
    p = np.einsum("ab,jba->j", random_density_operator(d, rng), povm).real
    p = p + 0.2 * (np.eye(len(p))[0] - 1 / len(p))  # push the estimate off the state space
    estimate, diagnostics = reconstruct_from_probabilities(p, povm, residual_tol=1.0)
    projected, _ = reconstruct_from_probabilities(p, povm, project=True, residual_tol=1.0)
    # eigh and eigvalsh agree bit for bit on qubits, to rounding above that
    spectrum = np.linalg.eigvalsh(estimate)
    assert np.max(np.abs(np.subtract(diagnostics.eigenvalues, spectrum))) < 1e-12
    assert np.array_equal(projected, project_to_state(estimate))


@SETTINGS
@given(small_dims, seeds)
def test_reported_residual_is_bitwise_the_numpy_norm(d, seed):
    # the library takes sqrt(r @ r); numpy's norm of a real vector is the same dot
    rng = np.random.default_rng(seed)
    povm = random_ic_povm(d, rng, extra=2)
    noise = rng.normal(size=len(povm))
    p = np.einsum("ab,jba->j", random_density_operator(d, rng), povm).real
    p = p + 0.01 * (noise - noise.mean())
    _, diagnostics = reconstruct_from_probabilities(p, povm, residual_tol=1.0)
    n = len(povm)
    rho = (p @ Tomographer.build(povm).dual_frame.reshape(n, d * d)).reshape(d, d)
    fitted = (povm.reshape(n, d * d) @ rho.T.reshape(d * d)).real
    assert diagnostics.residual == np.linalg.norm(fitted - p)


@SETTINGS
@given(small_dims, small_dims, seeds)
def test_post_measurement_state_is_the_instrument_formula(d, dp, seed):
    # the formula through the whole instrument, as before the one-block slice
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_mixed_program(dp, rng)
    partition = random_scattered_partition(dp, rng)
    rho = random_density_operator(d, rng)
    inst = induced_instrument(proc, program, partition)
    for b, branch in enumerate(inst.branches):
        p = np.vdot(inst.povm[b], rho).real
        out = (branch @ rho @ branch.conj().swapaxes(-1, -2)).sum(axis=0) / p
        oracle = 0.5 * (out + dag(out))
        state = post_measurement_state(proc, program, rho, b, partition)
        assert np.max(np.abs(state - oracle)) < 1e-14
