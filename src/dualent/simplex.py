"""One-phase primal simplex over exact rationals, pivoted in integers.

Problems in this package are small (tens of variables and rows), and every
one is posed with upper-bound rows whose right-hand sides are nonnegative,
so x = 0 is feasible and the solve starts from the all-slack basis with no
phase 1. The tableau is integer throughout and shares one positive
denominator d: the rational tableau is T / d. Each input row, right-hand
side included, is scaled by the positive lcm of its denominators and gets
a slack coefficient of 1, which is the same LP with each slack rescaled by
a positive factor; the objective is scaled by a positive lcm too.

A pivot on (r, c) with p = T[r][c] > 0 keeps row r and replaces every other
row i by (p T[i] - T[i][c] T[r]) // d, an exact division (Edmonds 1967;
Bareiss, Math. Comp. 22, 1968); d becomes p.

Bland's rule keeps the heavily degenerate instances from cycling. It reads
only the signs of the reduced costs and compares ratios by
cross-multiplication, and positive rescalings of rows and columns change
neither, so every pivot and the optimal vertex are the ones a Fraction
tableau of the same LP would take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class UnboundedError(ArithmeticError):
    """The objective decreases without bound over the feasible region."""


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]


def _integers(values) -> tuple[list[int], int]:
    """values times the positive lcm of their denominators, as ints, and
    that lcm."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    exact = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def _pivot(tableau, basis, row, col, d) -> int:
    """Fraction-free step on (row, col) of the tableau T / d; returns the
    new denominator."""
    line = tableau[row]
    p = line[col]
    nonzero = [(j, b) for j, b in enumerate(line) if b]
    for i, other in enumerate(tableau):
        f = other[col]
        if i == row or (p == d and not f):
            continue
        if p == d:
            # (p a - f b) / d = a - f b / d: only the pivot row's nonzero
            # columns change.
            for j, b in nonzero:
                other[j] -= f * b // d
        elif f:
            tableau[i] = [(p * a - f * b) // d for a, b in zip(other, line)]
        else:
            tableau[i] = [p * a // d if a else 0 for a in other]
    basis[row] = col
    return p


def solve_lp(
    objective: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
    ub_rows: Sequence[Sequence[Fraction]],
    ub_rhs: Sequence[Fraction],
) -> SimplexResult:
    """Minimizes objective . x subject to ub_rows x <= ub_rhs and x >= 0
    componentwise. Every right-hand side must be nonnegative and eq_rows
    and eq_rhs empty: either kind of row would need a phase 1, and both
    raise ValueError."""
    if eq_rows or eq_rhs:
        raise ValueError("equality rows are not supported")
    n = len(objective)
    m = len(ub_rows)
    tableau = []
    for r, (row, b) in enumerate(zip(ub_rows, ub_rhs)):
        values, _ = _integers([*row, b])
        if values[-1] < 0:
            raise ValueError("every right-hand side must be nonnegative")
        line = values[:n] + [0] * m + values[-1:]
        line[n + r] = 1
        tableau.append(line)
    basis = list(range(n, n + m))
    c, scale = _integers(objective)
    tableau.append(c + [0] * (m + 1))  # every basic slack costs 0

    d = 1
    while True:
        # Bland: entering variable = lowest index with negative reduced cost.
        obj = tableau[-1]
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            break
        row = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                b = tableau[r][-1]
                if row is None:
                    row, best_b, best_a = r, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row, best_b, best_a = r, b, a
        if row is None:
            raise UnboundedError("no blocking constraint for entering column")
        d = _pivot(tableau, basis, row, col, d)

    x = [Fraction(0)] * n
    value = 0
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[r][-1], d)
            value += c[b] * tableau[r][-1]
    return SimplexResult(value=Fraction(value, scale * d), x=tuple(x))
