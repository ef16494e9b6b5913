#!/usr/bin/env python3
"""Sweep the exact minimum-rank search over a grid of tolerances.

Runs min_rank_bruteforce on Z with the unit shift set for a descending
sequence of delta values and prints rank, witness defect, and wall time.
The table demonstrates the monotone staircase: tightening delta can only
grow the witness, and the exact defect of the best k-point witness is
2/k, so the rank jumps exactly when delta crosses one of those steps.
The sweep stops, with one line saying so, at the first delta that no
support inside the ball reaches; a ball of radius r holds 2r + 1 points
on Z, so delta = 1/5 needs radius 5.

Usage:
    python3 scripts/rank_sweep.py [--radius 8] [--rank 1]
"""

import argparse
import pathlib
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dualent.groups import FgAbelianGroup
from dualent.folner import RankSearchExhausted, min_rank_bruteforce

DELTAS = [Fraction(9, 10), Fraction(3, 4), Fraction(1, 2), Fraction(2, 5),
          Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=int, default=8, help="search ball radius")
    ap.add_argument("--rank", type=int, default=1, help="free rank of the group")
    args = ap.parse_args()

    group = FgAbelianGroup(args.rank)
    basis = group.basis()
    omega = [v for b in basis for v in (b, -b)]

    print(f"group Z^{args.rank}, omega = +/- standard basis, radius {args.radius}")
    print(f"{'delta':>8s} {'rank':>5s} {'defect':>10s} {'time':>8s}")
    previous = 0
    for delta in DELTAS:
        t0 = time.time()
        try:
            cert = min_rank_bruteforce(group, omega, delta, args.radius)
        except RankSearchExhausted:
            print(f"{str(delta):>8s} no support within radius {args.radius} reaches it; "
                  "a larger --radius reaches smaller deltas")
            break
        elapsed = time.time() - t0
        print(f"{str(delta):>8s} {cert.rank:5d} {str(cert.defect_exact):>10s} {elapsed:7.2f}s")
        if cert.rank < previous:
            print("  WARNING: rank decreased while delta tightened")
        previous = cert.rank
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
