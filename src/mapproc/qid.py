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

from .qcore import _PAULI, ATOL, _index, dag
from .processor import OutcomePartition, Processor, ProgramState
from .tomography import is_informationally_complete

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
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError(f"QID program needs 4 amplitudes, got shape {amps.shape}")
        # a normalized vector has no amplitude above 1; refusing larger ones
        # first keeps huge finite amplitudes from overflowing in the norm
        if not max(np.abs(amps).tolist()) <= 1 + ATOL:
            raise ValueError("QID program amplitudes must be normalized")
        norm = math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))  # np.linalg.norm
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
    the (4, 2, 2) stack of sigma_k (A^dagger A) sigma_k.  ``anchor_bloch``
    is the Bloch vector of 4*elements[0] - I; the POVM spans the qubit
    operator space exactly when none of its components vanishes.  The
    arrays are read-only; ``informationally_complete`` is the rank test.
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


# cyclic successors of the Bloch axes: (a x b)_i = a_next b_prev - a_prev b_next
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def qid_povm(program: QidProgram) -> QidPovmReport:
    """POVM induced by a QID program under the finest outcome partition."""
    alpha = program.amplitudes
    a_op = 0.5 * (alpha @ _PAULI.reshape(4, 4)).reshape(2, 2)
    # each entry is one signed product; + 0.0 turns the -0.0 a BLAS product
    # can leave into the +0.0 a summation gives, so exported bytes stay stable
    elements = _PAULI @ (dag(a_op) @ a_op) @ _PAULI + 0.0
    vec, cvec = alpha[1:], alpha[1:].conj()
    cross = cvec[_NEXT] * vec[_PREV] - cvec[_PREV] * vec[_NEXT]  # conj(vec) x vec
    anchor = (alpha[0] * cvec + alpha[0].conjugate() * vec + 1j * cross).real
    for array in (a_op, elements, anchor):
        array.setflags(write=False)
    return QidPovmReport(
        program_operator=a_op,
        elements=elements,
        anchor_bloch=anchor,
        informationally_complete=is_informationally_complete(elements),
    )


def sic_program() -> QidProgram:
    """Program whose POVM is the symmetric informationally complete tetrahedron."""
    return QidProgram(
        amplitudes=np.array(
            [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)], dtype=complex
        )
    )


def unitary_program(mu: np.ndarray) -> QidProgram:
    """Program applying exp(i mu . sigma) on every branch, each with probability 1/4.

    Amplitudes are alpha_0 = cos|mu| and alpha_vec = i sin|mu| mu/|mu|
    (zero vector part when mu = 0, the identity channel).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (3,):
        raise ValueError(f"rotation vector needs 3 components, got shape {mu.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(mu))
    if not np.isfinite(norm):
        raise ValueError(f"rotation vector {mu.tolist()} has no finite norm")
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(norm)
    if norm > 0.0:
        amps[1:] = 1j * np.sin(norm) * mu / norm
    return QidProgram(amplitudes=amps)


# the three pairings, built once; a partition is immutable, so callers share it
_PAULI_PAIRINGS = {
    axis: OutcomePartition(blocks=((0, axis), tuple(k for k in (1, 2, 3) if k != axis)))
    for axis in (1, 2, 3)
}


def pauli_measurement_program(axis: int) -> tuple[QidProgram, OutcomePartition]:
    """Program plus outcome pairing realizing the sigma_axis measurement.

    The paired coarse POVM is the two eigenprojectors of sigma_axis and the
    post-measurement states follow the projection postulate.  Outcome 0 is
    paired with outcome ``axis``; the remaining two outcomes form the other
    block.
    """
    axis = _index(axis, "axis")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[axis] = 1 / np.sqrt(2)
    return QidProgram(amplitudes=amps), _PAULI_PAIRINGS[axis]


# --- circuit realization ------------------------------------------------

_QUBITS = 3  # 0 = data, 1 and 2 = program register


def _cnot(control: int, target: int) -> np.ndarray:
    m = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        bits = [(b >> (_QUBITS - 1 - q)) & 1 for q in range(_QUBITS)]
        if bits[control]:
            bits[target] ^= 1
        b2 = sum(bit << (_QUBITS - 1 - q) for q, bit in enumerate(bits))
        m[b2, b] = 1.0
    return m


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
