#!/usr/bin/env python3
"""Compare sumset-growth entropy estimates against the spectral values.

For each matrix the script computes the spectral entropy, then runs the
growth series from the unit-cube corner set and prints the per-n rates
log(s_n)/n alongside the tail-difference estimate.  For a hyperbolic
matrix whose images of the corner set overlap, every row stays above the
spectral value and the tail estimate closes in from above.  The squared
cat map is included as the known degenerate case: its images of the
corner set are in general position, the sumsets grow like free formal
sums (exactly 4^n), and the estimate stalls at log 4 regardless of n.
Finite-order matrices stall the same way, at a polynomial rather than
exponential rate, so their estimate drifts to 0 only slowly.

Usage:
    python3 scripts/growth_table.py [--n 14] [--cap 5000000]
"""

import argparse
import itertools
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dualent.groups import FgAbelianGroup, IntMatrix, AbelianAutomorphism
from dualent.growth import FiniteSubset, growth_series, growth_rate_estimate, DEFAULT_CAP
from dualent.spectral import eigen_entropy

MATRICES = {
    "cat map": ((2, 1), (1, 1)),
    "cat map squared": ((5, 3), (3, 2)),
    "inverse-symmetric": ((1, 1), (1, 2)),
    "tribonacci companion": ((0, 0, 1), (1, 0, 1), (0, 1, 1)),
    "quarter turn": ((0, -1), (1, 0)),
}


def corner_set(group: FgAbelianGroup) -> FiniteSubset:
    pts = [group.element(c) for c in itertools.product((0, 1), repeat=group.rank)]
    return FiniteSubset.of(group, pts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=14, help="number of sumset terms")
    ap.add_argument("--cap", type=int, default=DEFAULT_CAP, help="sumset size cap")
    args = ap.parse_args()

    for name, rows in MATRICES.items():
        matrix = IntMatrix(rows)
        group = FgAbelianGroup(matrix.dim)
        auto = AbelianAutomorphism.from_matrix(group, matrix)
        spectral = eigen_entropy(matrix)

        t0 = time.time()
        series = growth_series(auto, corner_set(group), args.n, cap=args.cap)
        elapsed = time.time() - t0

        print(f"\n{name}  {rows}")
        print(f"  spectral entropy: {spectral.value:.10f}")
        print(f"  {'n':>3s} {'s_n':>12s} {'log(s_n)/n':>12s} {'margin':>10s}")
        for n, size in enumerate(series.sizes, start=1):
            rate = math.log(size) / n
            print(f"  {n:3d} {size:12d} {rate:12.8f} {rate - spectral.value:+10.6f}")
        if series.capped:
            print(f"  capped at {args.cap} before term {args.n}")
        try:
            est = growth_rate_estimate(series)
            print(f"  tail estimate: {est.value:.10f}  "
                  f"(gap {est.value - spectral.value:+.6f}, {elapsed:.2f}s)")
        except ValueError as exc:
            print(f"  tail estimate unavailable: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
