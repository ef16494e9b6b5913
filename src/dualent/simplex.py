"""Two-phase primal simplex over exact rationals, pivoted in integers.

Problems in this package are small (tens of variables and rows). The
tableau is integer throughout and shares one positive denominator d: the
rational tableau is T / d. Each input row, right-hand side included, is
scaled by the positive lcm of its denominators and gets a slack (or
artificial) coefficient of 1, which is the same LP with each slack and
artificial rescaled by a positive factor; the objectives are scaled by a
positive lcm too (phase 1 weighs each artificial by the inverse of its row's
scale, so it minimizes the same sum).

A pivot on (r, c) with p = T[r][c] keeps row r and replaces every other row
i by (p T[i] - T[i][c] T[r]) // d, an exact division (Edmonds 1967;
Bareiss, Math. Comp. 22, 1968); d becomes p, and if p < 0, which only the
drive-out of a basic artificial can produce, every row and d are negated.

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


class InfeasibleError(ArithmeticError):
    """The constraint system has no solution with x >= 0."""


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
    if p < 0:
        for i, other in enumerate(tableau):
            tableau[i] = [-a for a in other]
        p = -p
    return p


def _run_phase(tableau, basis, ncols, d) -> int:
    """Minimizes the cost row, carried as the last row of the tableau, over
    the first ncols columns in place; returns the final denominator."""
    while True:
        # Bland: entering variable = lowest index with negative reduced cost.
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return d
        row = None
        for r in range(len(tableau) - 1):
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


def solve_lp(
    objective: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
    ub_rows: Sequence[Sequence[Fraction]],
    ub_rhs: Sequence[Fraction],
) -> SimplexResult:
    """Minimizes objective . x subject to eq_rows x = eq_rhs,
    ub_rows x <= ub_rhs, and x >= 0 componentwise."""
    n = len(objective)
    eq = [_integers([*row, b]) for row, b in zip(eq_rows, eq_rhs)]
    ub = [_integers([*row, b]) for row, b in zip(ub_rows, ub_rhs)]
    m = len(eq) + len(ub)
    w = n + len(ub)  # structural vars | slacks | artificials | rhs
    # A bound with rhs >= 0 starts with its slack basic (coefficient +1);
    # every other row, negated if its rhs is negative, gets an artificial.
    art_scales = [scale for _, scale in eq] + [scale for values, scale in ub if values[-1] < 0]
    total = w + len(art_scales)
    tableau = []
    basis = []
    art = w
    for r, (values, _) in enumerate(eq + ub):
        line = values[:n] + [0] * (total - n) + values[-1:]
        slack = n + r - len(eq)
        if slack >= n:
            line[slack] = 1
        if values[-1] < 0:
            line = [-v for v in line]
        if slack >= n and values[-1] >= 0:
            basis.append(slack)
        else:
            basis.append(art)
            line[art] = 1
            art += 1
        tableau.append(line)

    d = 1
    if art_scales:
        # Phase 1: minimize the sum of the artificials of the unscaled rows,
        # i.e. artificial a of row scale s weighs lcm / s; the cost row is
        # expressed in the nonbasic variables.
        lcm = math.lcm(*art_scales)
        cost = [0] * (total + 1)
        for r, b in enumerate(basis):
            if b >= w:
                weight = lcm // art_scales[b - w]
                cost = [c - weight * v for c, v in zip(cost, tableau[r])]
                cost[b] = 0
        tableau.append(cost)
        d = _run_phase(tableau, basis, total, d)
        if tableau[-1][-1] != 0:
            raise InfeasibleError("phase-1 optimum is nonzero")
        tableau.pop()
        # Drive any artificial still basic out of the basis (degenerate rows).
        for r in range(m):
            if basis[r] >= w:
                col = next((j for j in range(w) if tableau[r][j] != 0), None)
                if col is None:
                    continue  # redundant all-zero row
                d = _pivot(tableau, basis, r, col, d)

    c, scale = _integers(objective)
    cost = [d * v for v in c] + [0] * (total - n + 1)
    for r, b in enumerate(basis):
        if b < n and c[b]:
            cost = [a - c[b] * v for a, v in zip(cost, tableau[r])]
    tableau.append(cost)
    # Artificial columns must never re-enter; make them unattractive by
    # excluding them from the eligible range.
    d = _run_phase(tableau, basis, w, d)

    x = [Fraction(0)] * n
    value = 0
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[r][-1], d)
            value += c[b] * tableau[r][-1]
    return SimplexResult(value=Fraction(value, scale * d), x=tuple(x))
