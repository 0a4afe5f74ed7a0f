"""Invariants of the operator-family calculus over random dimensions and seeds.

Every operator family is an (n, d, d) stack; the checks below compare each
library result against a direct loop over its elements.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapproc.processor import (
    _POVM_MEMO,
    InvalidPovmError,
    OutcomePartition,
    Processor,
    ProgramState,
    induced_instrument,
    induced_povm,
    kraus_operators,
    _checked_povm,
    post_measurement_state,
    validate_povm,
)
from mapproc.qcore import _PAULI, ATOL, RANK_CUTOFF, dag, is_unitary, pauli
from mapproc.qid import (
    _FLIPS,
    QidProgram,
    pauli_measurement_program,
    qid_povm,
    qid_unitary,
    sic_program,
    unitary_program,
)
from mapproc.sampling import (
    haar_unitary,
    random_density_operator,
    random_pure_state,
    random_rank_one_measurement,
)
from mapproc.tomography import (
    Tomographer,
    UnderdeterminedPovmError,
    _project,
    is_informationally_complete,
    reconstruct_from_probabilities,
)
from mapproc.vnmeas import (
    SlotAssignment,
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
    return Processor(data_dim=d, program_dim=dp, gate=haar_unitary(d * dp, rng))


def random_program(dp, rng):
    return ProgramState(random_pure_state(dp, rng))


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
def test_program_kraus_operators_are_trace_preserving(d, dp, seed):
    rng = np.random.default_rng(seed)
    program = random_program(dp, rng)
    ops = kraus_operators(random_processor(d, dp, rng), program)
    assert ops.shape == (dp, d, d)
    total = sum(dag(a) @ a for a in ops)
    assert np.max(np.abs(total - np.eye(d))) < 1e-10


@SETTINGS
@given(small_dims, dims, seeds)
def test_a_measured_program_basis_folds_into_the_gate(d, dp, seed):
    """Measuring the program in basis B (row k = |b_k>) is the gate (I (x) B.conj()) @ U."""
    rng = np.random.default_rng(seed)
    u, basis = haar_unitary(d * dp, rng), haar_unitary(dp, rng)
    program = random_pure_state(dp, rng)
    folded = Processor(data_dim=d, program_dim=dp, gate=np.kron(np.eye(d), basis.conj()) @ u)
    expected = np.einsum("km,imjn,n->kij", basis.conj(), u.reshape(d, dp, d, dp), program)
    got = kraus_operators(folded, ProgramState(program))
    assert np.max(np.abs(got - expected)) <= 1e-12


@SETTINGS
@given(dims, st.integers(min_value=1, max_value=4), seeds)
def test_induced_povms_are_psd_and_complete(d, dp, seed):
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_program(dp, rng)
    partition = random_partition(dp, rng)
    inst = induced_instrument(proc, program, partition)
    assert inst.povm.shape == (len(partition), d, d)
    validate_povm(inst.povm)
    assert np.linalg.eigvalsh(inst.povm).min() > -1e-10
    assert np.max(np.abs(inst.povm.sum(axis=0) - np.eye(d))) < 1e-10
    for block, branch, element in zip(partition.blocks, inst.branches, inst.povm):
        assert branch.shape == (len(block), d, d)
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
    ops_a = kraus_operators(proc, ProgramState(psi))
    ops_b = kraus_operators(proc, ProgramState(phi))
    s, k = kraus_compatibility(ops_a, ops_b)
    assert np.max(np.abs(s - sum(dag(a) @ b for a, b in zip(ops_a, ops_b)))) < 1e-12
    # a unitary gate makes the sum the program overlap times the identity
    assert k is not None and abs(k - psi.conj() @ phi) < 1e-10
    g = rng.normal(size=(dp, d, d)) + 1j * rng.normal(size=(dp, d, d))
    s, _ = kraus_compatibility(list(ops_a), list(g))
    assert np.max(np.abs(s - sum(dag(a) @ b for a, b in zip(ops_a, g)))) < 1e-12


@SETTINGS
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from(["padded", "interleaved", "shift"]), seeds)
def test_synthesis_records_match_the_per_program_kraus_operators(d, n, layout, seed):
    # synthesis extracts every program's Kraus family in one contraction;
    # kraus_operators on each program alone is the reference.  The gate's
    # program columns |a>, a < n, are copies of the image columns, so they
    # equal the padded operators bitwise, and the completion keeps it unitary.
    rng = np.random.default_rng(seed)
    ms = [VonNeumannMeasurement(random_rank_one_measurement(d, rng)) for _ in range(n)]
    if layout == "shift":
        ms = ms[:d]
        report = relaxed_pvm_processor(ms)
        eye = np.eye(d)
        padded = np.array([
            [np.outer(eye[(k + a) % d], m.basis_vector(k).conj()) for k in range(d)]
            for a, m in enumerate(ms)
        ])
    else:
        # interleaved: measurement a uses slots a, a + n, a + 2n, ...
        assign = pad_with_zero_slots(ms) if layout == "padded" else SlotAssignment(
            tuple(tuple(a + n * j for j in range(d)) for a in range(n)))
        report = build_orthogonal_processor(assign, ms)
        padded = np.zeros((n, assign.program_dim, d, d), dtype=complex)
        for a, (m, slots) in enumerate(zip(ms, assign.slot_maps)):
            padded[a, list(slots)] = m.projectors
    n, dp = len(ms), report.processor.program_dim
    # column (i, a) of the gate is sum_k (padded[a, k] e_i) (x) |k>; + 0.0
    # as in the gate, since a copied -0.0 is exported as +0.0
    image = padded.transpose(2, 1, 3, 0).reshape(d * dp, d, n) + 0.0
    assert report.gate.reshape(d * dp, d, dp)[:, :, :n].tobytes() == image.tobytes()
    assert is_unitary(report.gate)
    for rec in report.measurements:
        ops = kraus_operators(report.processor, ProgramState(rec.program_state))
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


def special_amplitudes(kind, rng):
    """Random unit amplitudes: complex, real, imaginary, or complex with zeros."""
    amps = random_complex_amplitudes(rng)
    if kind == "real":
        amps = amps.real + 0j
    elif kind == "imaginary":
        amps = 1j * amps.imag
    elif kind == "zeros":
        amps[rng.choice(4, size=int(rng.integers(1, 4)), replace=False)] = 0
    return amps / np.linalg.norm(amps)


amplitude_kinds = st.sampled_from(["complex", "real", "imaginary", "zeros"])


def qid_program(kind, rng):
    """A seeded QID program: special amplitudes, or one of the named program families.

    ``shrunk`` scales one real amplitude by 10^-u, u in [0, 13], so min |b_i|
    falls on every scale from 1 down to far below RANK_CUTOFF.
    """
    if kind == "unitary":
        return unitary_program(rng.normal(size=3))
    if kind == "pauli":
        return pauli_measurement_program(int(rng.integers(1, 4)))[0]
    if kind == "sic":
        return sic_program()
    if kind == "shrunk":
        amps = rng.normal(size=4)
        amps[rng.integers(4)] *= 10.0 ** -rng.uniform(0, 13)
        phase = np.exp(2j * np.pi * rng.random())
        return QidProgram(amplitudes=phase * amps / np.linalg.norm(amps))
    return QidProgram(amplitudes=special_amplitudes(kind, rng))


program_kinds = st.sampled_from(
    ["complex", "real", "imaginary", "zeros", "shrunk", "unitary", "pauli", "sic"]
)
# The SVD fixes each singular value to about 1e-16 s_max, 1e-7 of the cutoff
# relatively, so only for min |b_i| within this relative band of RANK_CUTOFF
# may its rank test fall on the other side of the exact one.
CUTOFF_BAND = 1e-3


# the numpy expression qid_povm evaluated b with before it used four Python complex
# scalars: cyclic successors and predecessors of the Bloch axes gather conj(vec) x vec
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def numpy_anchor(alpha):
    vec, cvec = alpha[1:], alpha[1:].conj()
    cross = cvec[_NEXT] * vec[_PREV] - cvec[_PREV] * vec[_NEXT]
    return (alpha[0] * cvec + alpha[0].conjugate() * vec + 1j * cross).real


@settings(max_examples=300, deadline=None)
@given(program_kinds, seeds)
def test_qid_anchor_is_the_numpy_expression(kind, seed):
    # numpy's complex products may round differently from Python's, by at
    # most one ulp of 1 (the largest seen over 200,000 complex programs);
    # when every product has a zero real or imaginary part, both round alike
    program = qid_program(kind, np.random.default_rng(seed))
    anchor, oracle = qid_povm(program).anchor_bloch, numpy_anchor(program.amplitudes)
    assert np.abs(anchor - oracle).max() <= np.finfo(float).eps
    if kind in ("real", "imaginary", "unitary", "pauli", "sic"):
        assert anchor.tobytes() == oracle.tobytes()


@settings(max_examples=300, deadline=None)
@given(program_kinds, seeds)
def test_qid_completeness_is_the_numpy_anchor_rule_outside_the_cutoff_band(kind, seed):
    program = qid_program(kind, np.random.default_rng(seed))
    smallest = np.abs(numpy_anchor(program.amplitudes)).min()
    if abs(smallest / RANK_CUTOFF - 1.0) > CUTOFF_BAND:
        assert qid_povm(program).informationally_complete == (smallest > RANK_CUTOFF)


@settings(max_examples=300, deadline=None)
@given(program_kinds, seeds)
def test_every_qid_report_holds_a_povm(kind, seed):
    # qid_povm enters its stack into the memo unchecked, so the check runs here uncached
    elements = qid_povm(qid_program(kind, np.random.default_rng(seed))).elements
    assert _checked_povm(elements) is elements
    assert validate_povm(elements).tobytes() == elements.tobytes()


def scaled_program(scale, rng):
    """Random complex amplitudes, one to three of them scaled by ``scale``."""
    amps = random_complex_amplitudes(rng)
    amps[rng.choice(4, size=int(rng.integers(1, 4)), replace=False)] *= scale
    return QidProgram(amplitudes=amps / np.linalg.norm(amps))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1.0, 1e-8, 1e-150, 1e-300, "sic", 1, 2, 3, "unitary"]), seeds)
def test_the_uncached_check_accepts_every_qid_povm(kind, seed):
    # the guarantee that lets qid_povm enter its stacks into the POVM memo as checked
    rng = np.random.default_rng(seed)
    if kind == "sic":
        program = sic_program()
    elif kind == "unitary":
        program = unitary_program(rng.normal(size=3) * 10.0 ** rng.uniform(-8, 2))
    elif isinstance(kind, int):
        program = pauli_measurement_program(kind)[0]
    else:
        program = scaled_program(kind, rng)
    elements = qid_povm(program).elements
    assert _checked_povm(elements) is elements


@settings(max_examples=300, deadline=None)
@given(program_kinds, seeds)
def test_qid_dual_frame_is_the_closed_form(kind, seed):
    # F_k = (I + sum_i s_ki b_i sigma_i)/4 with s_k = _FLIPS[k]; the columns of
    # _FLIPS sum to 0 and are orthogonal with squared norm 4, so the duals
    # D_k = (I + sum_i s_ki sigma_i / b_i)/2 give sum_k Tr(rho F_k) D_k = rho
    report = qid_povm(qid_program(kind, np.random.default_rng(seed)))
    if not report.informationally_complete:
        return
    b = report.anchor_bloch
    closed = (np.eye(2) + np.einsum("ki,iab->kab", _FLIPS / b, _PAULI[1:])) / 2
    dual = Tomographer.build(report.elements).dual_frame
    # the SVD's relative error is about 1e-16 times the condition number 1/min |b_i|
    condition = 1.0 / np.abs(b).min()
    assert np.abs(dual - closed).max() <= 1e-13 * condition * np.abs(closed).max()


@settings(max_examples=300, deadline=None)
@given(program_kinds, seeds)
def test_qid_closed_form_inversion_is_the_svd_inversion(kind, seed):
    # the stack is Pauli conjugates of its element 0, so its inversion takes the
    # closed form; swapping F_0 and F_1 leaves it so only if b_2 = b_3 = 0, that
    # is below full rank, so a full-rank swapped stack takes the SVD
    _POVM_MEMO.clear()  # the swapped stack is inverted anew, whatever ran before
    report = qid_povm(qid_program(kind, np.random.default_rng(seed)))
    b, swap = report.anchor_bloch, [1, 0, 2, 3]
    values = np.linalg.svd(report.elements.reshape(4, 4), compute_uv=False)
    smallest = np.abs(b).min()
    # outside the band, the report's flag and the tomography test are the SVD rank decision
    if abs(smallest / RANK_CUTOFF - 1.0) > CUTOFF_BAND:
        svd_complete = (values > RANK_CUTOFF * values[0]).all()
        assert is_informationally_complete(report.elements) == svd_complete
        assert report.informationally_complete == svd_complete
    if not is_informationally_complete(report.elements):
        return
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        reference = Tomographer.build(report.elements[swap]).dual_frame[swap]
    assert svd.call_count == 1
    dual = Tomographer.build(report.elements).dual_frame
    condition = 1.0 / smallest
    assert np.abs(dual - reference).max() <= 1e-13 * condition * np.abs(reference).max()


@settings(max_examples=200, deadline=None)
@given(amplitude_kinds, seeds)
def test_qid_elements_are_bitwise_the_pauli_conjugation(kind, seed):
    # the elements are gathered entries of M = A^dagger A with signs; the
    # replaced formula is two stacked products with the Pauli matrices
    report = qid_povm(QidProgram(amplitudes=special_amplitudes(kind, np.random.default_rng(seed))))
    a = report.program_operator
    reference = _PAULI @ (dag(a) @ a) @ _PAULI + 0.0
    assert report.elements.tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=3))
def test_unitary_program_is_bitwise_the_numpy_norm_form(seed, scale, zeros):
    mu = np.random.default_rng(seed).normal(size=3) * 10.0**scale
    mu[:zeros] = 0.0
    norm = float(np.linalg.norm(mu))
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(norm)
    if norm > 0.0:
        amps[1:] = 1j * np.sin(norm) * mu / norm
    reference = QidProgram(amplitudes=amps).amplitudes
    assert unitary_program(mu).amplitudes.tobytes() == reference.tobytes()


@SETTINGS
@given(small_dims, small_dims, seeds)
def test_induced_povm_is_the_summed_products_of_the_kraus_operators(d, dp, seed):
    # the batched A_k^dagger A_k, summed over each block by the membership matrix
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_program(dp, rng)
    partition = random_scattered_partition(dp, rng)
    ops = kraus_operators(proc, program)
    elements = ops.conj().swapaxes(-1, -2) @ ops
    reference = (partition._membership @ elements.reshape(dp, d * d)).reshape(-1, d, d)
    assert induced_instrument(proc, program, partition).povm.tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(amplitude_kinds, seeds)
def test_qid_povm_is_a_function_of_its_anchor_bloch_vector(kind, seed):
    # F_0 = (I + b.sigma)/4, F_k = sigma_k F_0 sigma_k and |b| <= 1
    report = qid_povm(QidProgram(amplitudes=special_amplitudes(kind, np.random.default_rng(seed))))
    b = report.anchor_bloch
    first = (pauli(0) + sum(b[j - 1] * pauli(j) for j in (1, 2, 3))) / 4
    assert np.max(np.abs(report.elements[0] - first)) <= ATOL
    for k in range(4):
        conjugated = pauli(k) @ report.elements[0] @ pauli(k)
        assert np.max(np.abs(report.elements[k] - conjugated)) <= ATOL
    assert np.linalg.norm(b) <= 1 + ATOL


@SETTINGS
@given(seeds)
def test_anchor_bloch_is_the_bloch_vector_of_the_first_element(seed):
    # complex amplitudes make the conj(alpha) x alpha term nonzero, so a sign
    # or index slip in the written-out cross product shows here
    amps = random_complex_amplitudes(np.random.default_rng(seed))
    report = qid_povm(QidProgram(amplitudes=amps))
    h = 4 * report.elements[0] - np.eye(2)
    # h = b . sigma with b_j = Tr(h sigma_j)/2, and no identity part
    coefficients = [np.trace(h @ pauli(j)) / 2 for j in range(4)]
    assert np.max(np.abs(coefficients - np.append(0, report.anchor_bloch))) < 1e-12


@SETTINGS
@given(seeds)
def test_bloch_points_are_the_bloch_vectors_of_the_elements(seed):
    # point k is the Bloch vector r of 2 F_k = (I + r . sigma)/2, r_j = Tr(2 F_k sigma_j)
    amps = random_complex_amplitudes(np.random.default_rng(seed))
    report = qid_povm(QidProgram(amplitudes=amps))
    points = report.bloch_points()
    assert [label for label, *_ in points] == ["F0", "F1", "F2", "F3"]
    oracle = [[np.trace(2 * f @ pauli(j)).real for j in (1, 2, 3)] for f in report.elements]
    assert np.max(np.abs(np.array([xyz for _, *xyz in points]) - oracle)) < 1e-12


@SETTINGS
@given(small_dims, small_dims, seeds)
def test_post_measurement_states_reassemble_the_channel(d, dp, seed):
    # sum_b p_b rho_b = sum_k A_k rho A_k^dagger with p_b = Tr(rho F_b)
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_program(dp, rng)
    partition = random_scattered_partition(dp, rng)
    rho = random_density_operator(d, rng)
    povm = induced_povm(proc, program, partition)
    total = sum(
        np.trace(rho @ povm[b]).real * post_measurement_state(proc, program, rho, b, partition)
        for b in range(len(partition))
    )
    channel = sum(a @ rho @ dag(a) for a in kraus_operators(proc, program))
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
    spectrum = np.linalg.eigvalsh(estimate)
    assert np.max(np.abs(np.subtract(diagnostics.eigenvalues, spectrum))) < 1e-12
    if d > 2:  # a qubit takes the closed form: see test_qubit_closed_form_is_the_eigh_projection
        assert np.array_equal(projected, _project(*np.linalg.eigh(estimate)))


def qubit_bloch_cases(rng, n):
    """(trace, Bloch vector) of n random qubit estimates (t I + v.sigma)/2, then edge cases.

    The radii spread over [0, 2], inside and outside the Bloch ball, and the
    trace is 1 within PROB_SUM_TOL.  The edge cases: I/2, pure states, b = 0
    (v along z), a = e (v in the xy-plane), radii 1 -+ 1 ulp and 1 -+ 1e-9,
    and radii below rounding, which leave r zero (on the SIC) or at rounding level.
    """
    cases = []
    for _ in range(n):
        v = rng.normal(size=3)
        cases.append((1 + 1e-7 * rng.uniform(-1, 1), v / np.linalg.norm(v) * rng.uniform(0, 2)))
    unit = [np.array(v) / np.linalg.norm(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, -1], [1, 2, 2])]
    radii = [0.0, 1e-300, 1e-17, 0.3, 1 - 1e-9, 1 - 2**-53, 1.0, 1 + 2**-52, 1 + 1e-9, 1.5, 2.0]
    cases += [(1.0, u * radius) for u in unit for radius in radii]
    cases += [(1.0, np.array([0, 0, z])) for z in (-1.5, -1.0, -0.2, 0.7, 1.0, 1.2)]  # b = 0
    cases += [(1.0, np.array([x, y, 0])) for x, y in ((0.6, 0.8), (0.3, -0.2), (-1.1, 0.4))]
    return cases


@pytest.mark.parametrize("povm_kind", ["sic", "random"])
def test_qubit_closed_form_is_the_eigh_projection(povm_kind):
    # a qubit estimate runs no eigh: its spectrum m -+ r and its projection onto the
    # Bloch ball come in closed form, within 1e-13 of eigh + _project on the same
    # estimate, and the projection meets the optimality condition of the nearest state
    rng = np.random.default_rng(2 if povm_kind == "sic" else 3)
    povm = qid_povm(sic_program()).elements if povm_kind == "sic" else random_ic_povm(2, rng)
    for trace, v in qubit_bloch_cases(rng, 5_000):
        target = (trace * np.eye(2) + sum(x * pauli(k) for k, x in enumerate(v, 1))) / 2
        p = np.einsum("ab,jba->j", target, povm).real
        estimate, diagnostics = reconstruct_from_probabilities(p, povm)
        projected, again = reconstruct_from_probabilities(p, povm, project=True)
        assert diagnostics.eigenvalues == again.eigenvalues
        evals, evecs = np.linalg.eigh(estimate)
        assert np.max(np.abs(np.subtract(diagnostics.eigenvalues, evals))) < 1e-13
        assert np.max(np.abs(projected - _project(evals, evecs))) < 1e-13
        assert np.array_equal(projected, projected.conj().T)
        gradient = projected - estimate
        optimality = np.linalg.eigvalsh(gradient)[0] - np.trace(gradient @ projected).real
        assert abs(optimality) < 1e-13


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
    tom = Tomographer.build(povm)
    # rho and Tr(F_j rho) as real products: real and imaginary parts interleaved
    x = p @ tom.dual_frame.reshape(n, d * d).view(float)
    fitted = tom.povm.reshape(n, d * d).view(float) @ x
    assert diagnostics.residual == np.linalg.norm(fitted - p)


@settings(max_examples=100, deadline=None)
@given(small_dims, st.integers(min_value=0, max_value=4), seeds)
def test_every_estimate_is_exactly_hermitian(d, extra, seed):
    # the dual frame is made Hermitian once at build; rho then needs no
    # Hermitian step of its own, on exact and on noisy probabilities
    rng = np.random.default_rng(seed)
    povm = random_ic_povm(d, rng, extra=extra)
    tom = Tomographer.build(povm)
    assert np.array_equal(tom.dual_frame, tom.dual_frame.conj().swapaxes(1, 2))
    for _ in range(10):
        p = np.einsum("ab,jba->j", random_density_operator(d, rng), povm).real
        noise = rng.normal(size=len(povm))
        rho = tom.reconstruct(p)
        assert np.array_equal(rho, rho.conj().T)
        rho, _ = reconstruct_from_probabilities(
            p + 0.01 * (noise - noise.mean()), povm, residual_tol=1.0
        )
        assert np.array_equal(rho, rho.conj().T)


def per_element_povm_rule(f):
    """The refusal, if any, of checking element by element, then the sum."""
    for i, e in enumerate(f):
        if not np.abs(e - e.conj().T).max() <= ATOL:
            return f"element {i} is not Hermitian"
        if np.linalg.eigvalsh(e).min() < -ATOL:
            return f"element {i} is not positive semidefinite"
    if not np.abs(f.sum(axis=0) - np.eye(f.shape[1])).max() <= ATOL:
        return "elements do not sum to the identity"
    return None


@settings(max_examples=300, deadline=None)
@given(small_dims, seeds)
def test_whole_stack_povm_check_refuses_as_the_per_element_rule(d, seed):
    # defects of 1e-6 to 1e-13 put at random indices straddle ATOL = 1e-10
    rng = np.random.default_rng(seed)
    f = random_ic_povm(d, rng)
    for _ in range(int(rng.integers(0, 4))):
        i, eps = int(rng.integers(len(f))), 10.0 ** -rng.uniform(6, 13)
        kind = rng.integers(3)
        if kind == 0:  # not Hermitian
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            f[i] = f[i] + eps * g / np.abs(g).max()
        elif kind == 1:  # not PSD: lower the least eigenvalue to about -eps
            evals, evecs = np.linalg.eigh(f[i])
            v = evecs[:, 0]
            f[i] = f[i] - (evals[0] + eps) * np.outer(v, v.conj())
        else:  # the sum is off the identity
            f[i] = f[i] * (1 + eps)
    assume(np.abs(f).max() <= 1)
    try:
        validate_povm(f)
        refusal = None
    except InvalidPovmError as exc:
        refusal = str(exc)
    assert refusal == per_element_povm_rule(f)


def rank_one_pvm_rule(f):
    """The refusal, if any, of the count, then the POVM rule, then rank 1 element by element."""
    d = f.shape[1]
    if len(f) != d:
        return f"need {d} projectors on dimension {d}, got {len(f)}"
    refusal = per_element_povm_rule(f)
    if refusal is not None:
        return refusal
    for i, e in enumerate(f):
        if not (np.abs(e @ e - e).max() <= ATOL and abs(np.trace(e).real - 1) <= ATOL):
            return f"element {i} is not a rank-1 projector"
    return None


def defective_rank_one_stack(d, rng):
    """The projectors of a Haar basis, with 0-3 defects of 1e-6 to 1e-13 at random indices."""
    vs = haar_unitary(d, rng).T
    f = vs[:, :, None] * vs[:, None, :].conj()
    for _ in range(int(rng.integers(0, 4))):
        i, j = rng.choice(d, size=2, replace=False)
        eps = 10.0 ** -rng.uniform(6, 13)
        kind = rng.integers(4)
        if kind == 0:  # not Hermitian
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            f[i] = f[i] + eps * g / np.abs(g).max()
        elif kind == 1:  # not idempotent: two elements mix, their sum and traces kept
            f[i], f[j] = (1 - eps) * f[i] + eps * f[j], (1 - eps) * f[j] + eps * f[i]
        elif kind == 2:  # the sum is off the identity
            f[i] = f[i] * (1 + eps)
        else:  # one rotated vector: a rank-1 projector no longer orthogonal to f[j]
            v = np.cos(eps) * vs[i] + np.sin(eps) * vs[j]
            f[i] = np.outer(v, v.conj())
    return f


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=6), seeds)
def test_measurement_check_refuses_as_the_rank_one_pvm_rule(d, seed):
    # defects straddle ATOL = 1e-10; no pairwise product is checked, so an
    # accepted stack must be orthogonal by implication, within d * ATOL
    f = defective_rank_one_stack(d, np.random.default_rng(seed))
    assume(np.abs(f).max() <= 1)
    try:
        m = VonNeumannMeasurement(f)
    except ValueError as exc:
        refusal = str(exc)
        # only the rank-1 refusal is no POVM refusal
        assert isinstance(exc, InvalidPovmError) == ("rank-1" not in refusal)
    else:
        refusal = None
        products = np.abs(m.projectors[:, None] @ m.projectors[None, :]).max(axis=(2, 3))
        assert products[~np.eye(d, dtype=bool)].max() <= d * ATOL
    assert refusal == rank_one_pvm_rule(f)


@SETTINGS
@given(small_dims, small_dims, seeds)
def test_post_measurement_state_is_the_instrument_formula(d, dp, seed):
    # the formula through the whole instrument, as before the one-block slice
    rng = np.random.default_rng(seed)
    proc = random_processor(d, dp, rng)
    program = random_program(dp, rng)
    partition = random_scattered_partition(dp, rng)
    rho = random_density_operator(d, rng)
    inst = induced_instrument(proc, program, partition)
    for b, branch in enumerate(inst.branches):
        p = np.vdot(inst.povm[b], rho).real
        out = (branch @ rho @ branch.conj().swapaxes(-1, -2)).sum(axis=0) / p
        oracle = 0.5 * (out + dag(out))
        state = post_measurement_state(proc, program, rho, b, partition)
        assert np.max(np.abs(state - oracle)) < 1e-14
