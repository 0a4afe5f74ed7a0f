#!/usr/bin/env python3
"""Finite-statistics tomography demo on the QID tetrahedron POVM.

Samples outcome counts for random qubit states, reconstructs them by
linear inversion, and prints trace-distance statistics versus sample size.
"""

import argparse

import numpy as np

from mapproc.processor import sample_outcomes
from mapproc.qcore import trace_distance
from mapproc.qid import qid_povm, sic_program
from mapproc.sampling import random_density_operator
from mapproc.tomography import reconstruct_from_counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=int, default=50)
    parser.add_argument("--shots", type=int, nargs="+", default=[10**3, 10**4, 10**6])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--project", action="store_true")
    args = parser.parse_args()

    povm = qid_povm(sic_program()).elements
    print(f"{'shots':>10}  {'median TD':>10}  {'p99 TD':>10}")
    for shots in args.shots:
        distances = []
        for i in range(args.states):
            rho = random_density_operator(2, seed=args.seed + i)
            counts = sample_outcomes(rho, povm, shots, seed=args.seed + i)
            estimate, _ = reconstruct_from_counts(counts, povm, project=args.project)
            distances.append(trace_distance(estimate, rho))
        print(
            f"{shots:>10}  {np.median(distances):>10.5f}  "
            f"{np.quantile(distances, 0.99):>10.5f}"
        )


if __name__ == "__main__":
    main()
