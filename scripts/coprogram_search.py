#!/usr/bin/env python3
"""Exact answers on the limits of measurement programmability.

Part one: two distinct von Neumann measurements can pass the necessary
conditions for a shared d-dimensional program only for d >= 4.  Write the
partner basis as f_k = sum_j W_kj e_j over the first basis e, with W
unitary.  Row orthogonality is W_kk = 0, and "an outcome permutation up to
phases" is W monomial, so a partner exists exactly when a non-monomial
unitary with zero diagonal does.  For d <= 3 there is none: for d = 3, two
zero-diagonal columns can both be nonzero at one position only, so their
orthogonality zeroes one of those entries in every column pair, and unit
norms then leave one nonzero entry per column.  For d >= 4,
W = S (I - 2 u u^dagger), with S the cyclic shift and
u = (sqrt(3) e_0 + e_2) / 2, is one: the script rotates a random first
basis by it and prints the feasibility table check, which is empty.

Part two: on the shift processor of N = d measurements P^a, a program psi
realizes F_k = sum_a |psi_a|^2 P^a_k, because program a's branches are
|k + a><phi^a_k| and <k + a|k + b> = delta_ab.  So a superposed program
realizes a von Neumann measurement only when the measurements in its
support agree outcome by outcome, and then it is that same measurement.
The script prints the largest deviation of induced_povm from this closed
form over --trials random programs.
"""

import argparse

import numpy as np

from mapproc.processor import OutcomePartition, ProgramState, induced_povm
from mapproc.sampling import haar_unitary, random_pure_state
from mapproc.vnmeas import VonNeumannMeasurement, feasibility_table_check, relaxed_pvm_processor


def zero_diagonal_unitary(d: int) -> np.ndarray:
    """W = S (I - 2 u u^dagger) for d >= 4: unitary, zero diagonal, not monomial."""
    u = np.zeros(d)
    u[0], u[2] = np.sqrt(3) / 2, 1 / 2
    return np.roll(np.eye(d) - 2 * np.outer(u, u), 1, axis=0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--trials", type=int, default=50, help="random programs per dimension")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    for d in args.dims:
        if d <= 3:
            print(f"d={d}: no partner (d <= 3)")
            continue
        first = haar_unitary(d, rng)
        partner = zero_diagonal_unitary(d) @ first
        violations = feasibility_table_check(
            [VonNeumannMeasurement.from_basis(first), VonNeumannMeasurement.from_basis(partner)]
        )
        print(f"d={d}: partner W e of a random basis e, {len(violations)} table violations")

    for d in args.dims:
        pvms = [VonNeumannMeasurement.from_basis(haar_unitary(d, rng)) for _ in range(d)]
        proc = relaxed_pvm_processor(pvms).processor
        projectors = np.array([m.projectors for m in pvms])
        deviation = 0.0
        for _ in range(args.trials):
            psi = random_pure_state(d, rng)
            povm = induced_povm(proc, ProgramState(psi), OutcomePartition.finest(d))
            closed = np.tensordot(np.abs(psi) ** 2, projectors, axes=1)
            deviation = max(deviation, float(np.abs(povm - closed).max()))
        print(
            f"d={d} shift processor: F_k = sum_a |psi_a|^2 P^a_k within {deviation:.1e} "
            f"over {args.trials} random programs"
        )


if __name__ == "__main__":
    main()
