#!/usr/bin/env python3
"""Randomized searches around the limits of measurement programmability.

Part one hunts for two distinct measurements satisfying the necessary
conditions for a shared d-dimensional program register (none are expected
for d = 2 or 3).  Part two probes a shift-construction processor for
additional program states that realize some measurement.
"""

import argparse

import numpy as np

from mapproc.sampling import random_rank_one_measurement
from mapproc.vnmeas import (
    VonNeumannMeasurement,
    search_coprogrammable_pair,
    search_extra_relaxed_program,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for dim in args.dims:
        result = search_coprogrammable_pair(dim, trials=args.trials, seed=args.seed)
        print(
            f"d={dim}: {len(result.hits)} feasible distinct pair(s) "
            f"in {result.trials} trials"
        )

    for dim in args.dims:
        rng = np.random.default_rng(args.seed + 1)
        pvms = [
            VonNeumannMeasurement(projectors=random_rank_one_measurement(dim, rng))
            for _ in range(dim)
        ]
        extra = search_extra_relaxed_program(pvms, trials=args.trials, seed=args.seed)
        print(
            f"d={dim} shift processor: {len(extra.hits)} superposed program(s) "
            f"realizing a measurement in {extra.trials} trials"
        )


if __name__ == "__main__":
    main()
