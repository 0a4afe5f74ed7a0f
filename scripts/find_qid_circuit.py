#!/usr/bin/env python3
"""Print the known 4-CNOT copying network of the QID gate and check it.

The residual is the largest entry of (I (x) M) U - G, with U the circuit
unitary, M the measurement-basis relabeling and G the QID gate.
"""

import numpy as np

from mapproc.qid import qid_circuit_search, qid_unitary

NAMES = {0: "data", 1: "prog1", 2: "prog2"}


def main() -> None:
    circuit = qid_circuit_search()
    print("gates (left to right):")
    for control, target in circuit.gates:
        print(f"  CNOT {NAMES[control]} -> {NAMES[target]}")
    print(f"input layer on program qubits:  {circuit.input_layer}")
    print(f"output layer on program qubits: {circuit.output_layer}")
    print("measurement-basis relabeling (monomial matrix):")
    print(np.round(circuit.relabeling, 6))
    residual = np.max(
        np.abs(np.kron(np.eye(2), circuit.relabeling) @ circuit.unitary() - qid_unitary().gate)
    )
    print(f"match residual: {residual:.2e}")


if __name__ == "__main__":
    main()
