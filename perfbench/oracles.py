"""Oracles for the benchmark jobs, written without calling dualent.

Every check returns None when the answer is right and a one-line reason
when it is wrong, so the runner can count the job as failed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ENTROPY_TOLERANCE = 1e-6
FLOAT_WEIGHT_TOLERANCE = 1e-12
FLOAT_DEFECT_TOLERANCE = 1e-9


# --- spectral -----------------------------------------------------------


def log_mahler(matrix) -> float:
    """Sum of log|lambda| over the numpy eigenvalues outside the unit disc."""
    eigenvalues = np.linalg.eigvals(np.array(matrix, dtype=float))
    return float(sum(math.log(abs(x)) for x in eigenvalues if abs(x) > 1.0))


def eigenvalue_gap(matrix) -> float:
    """Smallest distance between two numpy eigenvalues of the matrix."""
    ev = np.linalg.eigvals(np.array(matrix, dtype=float))
    return min(
        (abs(a - b) for i, a in enumerate(ev) for b in ev[i + 1:]),
        default=math.inf,
    )


def companion(coeffs) -> tuple[tuple[int, ...], ...]:
    """Companion matrix of the monic polynomial with the given coefficients,
    highest degree first."""
    if coeffs[0] != 1:
        raise ValueError("companion needs a monic polynomial")
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[n - i]
    return tuple(tuple(r) for r in rows)


def check_entropy(value: float, expected: float) -> str | None:
    if abs(value - expected) > ENTROPY_TOLERANCE:
        return f"entropy {value!r}, numpy log-Mahler value {expected!r}"
    return None


def check_zero_entropy(value: float) -> str | None:
    if value != 0.0:
        return f"entropy {value!r}, a product of cyclotomics has exactly 0.0"
    return None


def check_bytes(output: str, exit_code: int, golden: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    if output != golden:
        return "output differs from the recorded bytes"
    return None


# --- sumset growth ------------------------------------------------------


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def cat_corner_sizes(n: int) -> tuple[int, ...]:
    """|E + ... + A^(n-1) E| for the cat map and E the unit square's
    corners is F(2n+3) - 1."""
    return tuple(fibonacci(2 * k + 3) - 1 for k in range(1, n + 1))


def free_corner_sizes(n: int) -> tuple[int, ...]:
    """Corners in general position: the partial sums are free, 4^n."""
    return tuple(4 ** k for k in range(1, n + 1))


def sumset_sizes(matrix, mixing, orders, base, n: int) -> tuple[int, ...]:
    """Sizes of S_k = S_(k-1) + gamma^(k-1)(E) on int tuples, with E the
    base plus 0. gamma(v, t) = (M v, t + sum_i v_i mixing_i mod orders)."""
    p = len(matrix)

    def gamma(x):
        v, t = x[:p], x[p:]
        lat = tuple(sum(matrix[i][j] * v[j] for j in range(p)) for i in range(p))
        tor = tuple(
            (t[k] + sum(v[i] * mixing[i][k] for i in range(p))) % d
            for k, d in enumerate(orders)
        )
        return lat + tor

    def add(a, b):
        lat = tuple(a[i] + b[i] for i in range(p))
        tor = tuple((a[p + k] + b[p + k]) % d for k, d in enumerate(orders))
        return lat + tor

    layer = sorted(set(base) | {(0,) * (p + len(orders))})
    current = set(layer)
    sizes = [len(current)]
    for _ in range(1, n):
        layer = [gamma(x) for x in layer]
        current = {add(a, b) for a in current for b in layer}
        sizes.append(len(current))
    return tuple(sizes)


def check_sizes(sizes, capped: bool, expected) -> str | None:
    """The series must be complete and agree with every expected size;
    `expected` may be a prefix of the series."""
    sizes = tuple(sizes)
    if capped:
        return "series stopped at the cap"
    if sizes[: len(expected)] != tuple(expected):
        return f"sizes {sizes[:len(expected)]}, expected {tuple(expected)}"
    return None


# --- rank certificates --------------------------------------------------


def exact_defect(support, weights, omega, orders) -> Fraction:
    """max over s of sum_g |T(g - s) - T(g)|, on elements given as int
    tuples whose last len(orders) entries are torsion residues."""
    nt = len(orders)
    p = len(support[0]) - nt

    def move(g, s, sign):
        lat = tuple(g[i] + sign * s[i] for i in range(p))
        tor = tuple((g[p + k] + sign * s[p + k]) % d for k, d in enumerate(orders))
        return lat + tor

    t = dict(zip(support, weights))
    worst = Fraction(0)
    for s in omega:
        keys = set(support) | {move(g, s, 1) for g in support}
        total = sum(abs(t.get(move(g, s, -1), 0) - t.get(g, 0)) for g in keys)
        worst = max(worst, Fraction(total))
    return worst


def check_certificate(cert: dict, spec: dict) -> str | None:
    """cert: rank, support (int tuples), weights, exact, defect (Fraction
    when exact, float otherwise). spec: omega, orders, delta, pool (the
    candidate ball, or None), and the pinned rank, max_rank or defect."""
    support, weights = list(cert["support"]), list(cert["weights"])
    if len(support) != cert["rank"] or len(weights) != cert["rank"]:
        return "rank does not match the witness size"
    if "rank" in spec and cert["rank"] != spec["rank"]:
        return f"rank {cert['rank']}, pinned {spec['rank']}"
    if "max_rank" in spec and cert["rank"] > spec["max_rank"]:
        return f"rank {cert['rank']} above the bound {spec['max_rank']}"
    if len(set(support)) != len(support):
        return "witness support repeats an element"
    width = len(support[0])
    if (0,) * width not in support:
        return "witness support misses 0"
    if spec.get("pool") is not None and not set(support) <= spec["pool"]:
        return "witness support leaves the candidate ball"
    if any(w <= 0 for w in weights):
        return "nonpositive weight"
    exact = cert["exact"]
    weights = [Fraction(w) for w in weights]
    total = sum(weights)
    if exact and total != 1:
        return f"weights sum to {total}"
    if not exact and abs(total - 1) > FLOAT_WEIGHT_TOLERANCE:
        return f"weights sum to {float(total)!r}"
    achieved = exact_defect(support, weights, spec["omega"], spec["orders"])
    if achieved >= spec["delta"]:
        return f"witness defect {achieved} is not below delta {spec['delta']}"
    claimed = cert["defect"]
    if exact and achieved != claimed:
        return f"witness defect {achieved}, certificate says {claimed}"
    if not exact and abs(float(achieved) - claimed) > FLOAT_DEFECT_TOLERANCE:
        return f"witness defect {float(achieved)!r}, certificate says {claimed!r}"
    pinned = spec.get("defect")
    if pinned is not None and abs(achieved - pinned) > (0 if exact else FLOAT_DEFECT_TOLERANCE):
        return f"witness defect {achieved}, pinned {pinned}"
    return None
