#!/usr/bin/env python3
"""Match-score demo on a two-dimensional synthetic population.

Draws a large sample from a known 2D Gaussian, fits every constrained
family both to the exact population moments and to the sample, and
prints the two tables side by side.  With enough points the sampled
match scores land on top of the closed-form population values, which is
a quick end-to-end sanity check of the estimator, the fitters, and the
sampler.

    python3 scripts/population_demo.py --count 100000 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gaussmatch import Moments, estimate_moments, family_report, sample_gaussian

POPULATION_MEAN = np.array([3.0, 4.0])
POPULATION_COV = np.array([[1.0, 0.3], [0.3, 0.6]])
PINNED_MEAN = np.zeros(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100_000, help="sample size")
    parser.add_argument("--seed", type=int, default=7, help="sampler seed")
    args = parser.parse_args(argv)

    population = Moments(POPULATION_MEAN, POPULATION_COV)
    sample = sample_gaussian(POPULATION_MEAN, POPULATION_COV, args.count, args.seed)
    exact_rows = family_report(population, [PINNED_MEAN])
    sampled_rows = family_report(estimate_moments(sample), [PINNED_MEAN])

    print(f"population mean {POPULATION_MEAN.tolist()}, cov {POPULATION_COV.tolist()}")
    print(f"fixed means pinned at {PINNED_MEAN.tolist()}, sample size {args.count}, seed {args.seed}")
    print()
    print(f"{'family':<22} {'M (population)':>16} {'M (sampled)':>16} {'abs diff':>12}")
    for exact, observed in zip(exact_rows, sampled_rows):
        diff = abs(exact.match - observed.match)
        print(f"{exact.family.kind.value:<22} {exact.match:16.6f} {observed.match:16.6f} {diff:12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
