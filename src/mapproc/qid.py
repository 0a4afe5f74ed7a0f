"""The quantum information distributor (QID) processor.

One data qubit, two program qubits.  On a program state with amplitudes
alpha over the Bell-like family Xi_k = (sigma_k (x) I)|anchor>, the four
branches act as sigma_k A sigma_k with A = (1/2) sum_j alpha_j sigma_j.
Program encodings are provided for informationally complete POVMs, unitary
rotations, and the three Pauli von Neumann measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import _PAULI, ATOL, RANK_CUTOFF, _array, _index, _pauli_conjugates, _typed, dag
from .processor import OutcomePartition, Processor, ProgramState, _povm_entry

DATA_DIM = 2
PROGRAM_DIM = 4

# row k is Xi_k = (sigma_k (x) I)|anchor>, the anchor being (|00> + |11>)/sqrt(2)
_XI = np.kron(_PAULI, np.eye(2)) @ (np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def qid_unitary() -> Processor:
    """Build the QID processor.

    The gate is assembled directly from its branch decomposition
    (1/2) sum_{k,j} (sigma_k sigma_j sigma_k) (x) |k><Xi_j|, which is
    unitary because sum_k sigma_k X sigma_k = 2 Tr(X) I.
    """
    branches = _PAULI[:, None] @ _PAULI[None, :] @ _PAULI[:, None]  # [k, j]
    g = 0.5 * np.einsum("kjab,jn->akbn", branches, _XI.conj()).reshape(8, 8)
    return Processor(data_dim=DATA_DIM, program_dim=PROGRAM_DIM, gate=g)


@dataclass(frozen=True, eq=False)
class QidProgram:
    """Program amplitudes over the Bell-like family; a norm within ATOL of 1 is divided out."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _array(self.amplitudes, complex, (4,), "QID program amplitudes")
        # a normalized vector has no amplitude above 1; testing that first keeps huge finite
        # amplitudes from overflowing in the norm (np.linalg.norm's sum: np.vdot rounds apart)
        bounded = max(np.abs(amps).tolist()) <= 1 + ATOL
        norm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag)) if bounded else 0.0
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError("QID program amplitudes must be normalized")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def state_vector(self) -> np.ndarray:
        """The two-qubit program vector sum_k alpha_k Xi_k."""
        return self.amplitudes @ _XI

    def program_state(self) -> ProgramState:
        return ProgramState.pure(self.state_vector())


# row k: the signs sigma_k sigma_j sigma_k = +-sigma_j puts on the Bloch axes j
_FLIPS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


@dataclass(frozen=True, eq=False)
class QidPovmReport:
    """The four-outcome POVM a QID program realizes.

    ``program_operator`` is A = (1/2) sum alpha_j sigma_j; ``elements`` is
    the (4, 2, 2) stack of sigma_k (A^dagger A) sigma_k.  In closed form,
    elements[0] = (I + b.sigma)/4 and elements[k] = sigma_k elements[0]
    sigma_k, where b = ``anchor_bloch`` = 2 Re(conj(alpha_0) alpha_vec)
    + i conj(alpha_vec) x alpha_vec has |b| <= 1, since 4 A^dagger A is
    positive with trace 2.  The arrays are read-only.  The stacked POVM has
    singular values (1, |b_1|, |b_2|, |b_3|)/sqrt(2), the largest 1/sqrt(2), so
    ``informationally_complete``, tomography's rank test, is min_i |b_i| > RANK_CUTOFF.
    """

    program_operator: np.ndarray
    elements: np.ndarray
    anchor_bloch: np.ndarray
    informationally_complete: bool

    def bloch_points(self) -> list[tuple[str, float, float, float]]:
        """Bloch-sphere coordinates of the states 2 F_k (unit vectors when rank 1).

        2 F_k = sigma_k (2 F_0) sigma_k, and conjugating by sigma_k flips the
        two Bloch components that anticommute with it, so point k is
        ``_FLIPS[k] * anchor_bloch``.
        """
        # + 0.0 keeps a flipped zero at +0.0
        points = _FLIPS * self.anchor_bloch + 0.0
        return [(f"F{k}", x, y, z) for k, (x, y, z) in enumerate(points.tolist())]


def qid_povm(program: QidProgram) -> QidPovmReport:
    """POVM induced by a QID program under the finest outcome partition."""
    alpha = _typed(program, QidProgram, "program").amplitudes
    a_op = 0.5 * (alpha @ _PAULI.reshape(4, 4)).reshape(2, 2)
    # the same bits as _PAULI @ M @ _PAULI + 0.0: + 0.0 turns a flipped
    # -0.0 into the +0.0 a summation gives, so exported bytes stay stable
    elements = _pauli_conjugates(dag(a_op) @ a_op) + 0.0
    # b_i = 2 Re(conj(a0) a_i) + i (conj(a_vec) x a_vec)_i on four Python complex
    # scalars; numpy calls on 3-element arrays cost more than the arithmetic
    a0, a1, a2, a3 = alpha.tolist()
    c0, c1, c2, c3 = a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate()
    b = [
        (a0 * c1 + c0 * a1 + 1j * (c2 * a3 - c3 * a2)).real,
        (a0 * c2 + c0 * a2 + 1j * (c3 * a1 - c1 * a3)).real,
        (a0 * c3 + c0 * a3 + 1j * (c1 * a2 - c2 * a1)).real,
    ]
    anchor = np.array(b)
    for array in (a_op, elements, anchor):
        array.setflags(write=False)
    # a POVM by construction (M = A^dagger A >= 0, sum_k F_k = 2 Tr(M) I = I): enter it checked
    _povm_entry(elements, checked=True)
    return QidPovmReport(
        program_operator=a_op,
        elements=elements,
        anchor_bloch=anchor,
        informationally_complete=min(map(abs, b)) > RANK_CUTOFF,
    )


def sic_program() -> QidProgram:
    """Program whose POVM is the symmetric informationally complete tetrahedron."""
    return QidProgram(amplitudes=[1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)])


def unitary_program(mu: np.ndarray) -> QidProgram:
    """Program applying exp(i mu . sigma) on every branch, each with probability 1/4.

    Amplitudes are alpha_0 = cos|mu| and alpha_vec = i sin|mu| mu/|mu|
    (zero vector part when mu = 0, the identity channel).
    """
    mu = _array(mu, float, (3,), "rotation vector")
    # np.linalg.norm computes sqrt(mu.dot(mu)); vdot makes the same product
    # but raises no overflow warning, so huge entries reach the refusal
    norm = math.sqrt(np.vdot(mu, mu))
    if not math.isfinite(norm):
        raise ValueError(f"rotation vector {mu.tolist()} has no finite norm")
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(norm)
    if norm > 0.0:
        amps[1:] = 1j * np.sin(norm) * mu / norm
    return QidProgram(amplitudes=amps)


# the three programs and pairings, built once; both are immutable, so callers share them
_PAULI_PROGRAMS = {
    axis: (QidProgram(amplitudes=[(k in (0, axis)) / np.sqrt(2) for k in range(4)]),
           OutcomePartition(blocks=((0, axis), tuple(k for k in (1, 2, 3) if k != axis))))
    for axis in (1, 2, 3)
}


def pauli_measurement_program(axis: int) -> tuple[QidProgram, OutcomePartition]:
    """Program plus outcome pairing realizing the sigma_axis measurement.

    The paired coarse POVM is the two eigenprojectors of sigma_axis and the
    post-measurement states follow the projection postulate.  Outcome 0 is
    paired with outcome ``axis``; the remaining two outcomes form the other
    block.
    """
    return _PAULI_PROGRAMS[_index(axis, "axis", 1, 3)]


# --- circuit realization ------------------------------------------------

def _cnot(control: int, target: int) -> np.ndarray:
    """CNOT on three qubits, 0 = data and 1, 2 = program register, qubit 0 the slow bit."""
    b = np.arange(8)
    # flipping the target bit where the control bit is set is its own inverse
    return np.eye(8, dtype=complex)[b ^ (((b >> (2 - control)) & 1) << (2 - target))]


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_LOCALS = {"I": np.eye(2, dtype=complex), "H": _HADAMARD}


@dataclass(frozen=True, eq=False)
class QidCircuit:
    """A 4-CNOT realization of the QID gate.

    ``gates`` lists (control, target) qubit pairs applied left-to-right
    (qubit 0 is the data qubit).  ``input_layer`` and ``output_layer`` are
    single-qubit basis changes ('I' or 'H') on the two program qubits
    before and after the CNOTs.  ``relabeling`` is the monomial matrix M
    (a permutation with per-outcome phases of the measured program basis)
    such that the QID gate equals (I (x) M) times the circuit unitary.
    """

    gates: tuple[tuple[int, int], ...]
    input_layer: tuple[str, str]
    output_layer: tuple[str, str]
    relabeling: np.ndarray

    def unitary(self) -> np.ndarray:
        u = self._layer(self.input_layer)
        for control, target in self.gates:
            u = _cnot(control, target) @ u
        return self._layer(self.output_layer) @ u

    @staticmethod
    def _layer(names: tuple[str, str]) -> np.ndarray:
        return np.kron(np.eye(2, dtype=complex), np.kron(_LOCALS[names[0]], _LOCALS[names[1]]))


_RELABELING = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex)
_RELABELING.setflags(write=False)

_QID_CIRCUIT = QidCircuit(
    gates=((0, 1), (0, 2), (1, 0), (2, 0)),
    input_layer=("I", "I"),
    output_layer=("H", "I"),
    relabeling=_RELABELING,
)


def qid_circuit_search() -> QidCircuit:
    """The 4-CNOT circuit realizing the QID gate.

    It is the copying network of Buzek, Braunstein, Hillery and Bruss,
    PRA 56, 3446 (1997): CNOTs from the data qubit onto each program qubit,
    then from each program qubit back onto the data, followed by a Hadamard
    on the first program qubit.  The QID gate equals (I (x) M) times this
    circuit, where M is the signed permutation of the measured program
    basis that fixes |0> and |1>, sends |3> to -|2> and |2> to |3>.
    """
    return _QID_CIRCUIT
