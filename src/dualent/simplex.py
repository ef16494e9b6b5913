"""Two-phase primal simplex over exact rationals.

Problems in this package are tiny (tens of variables), so the implementation
favors robustness: every pivot is a Fraction operation and Bland's rule keeps
the heavily degenerate instances from cycling.

The tableau is stored dense, but pivots update it sparsely: only the nonzero
entries of the pivot row are divided, and only rows with a nonzero entry in
the pivot column are reduced, in the pivot row's nonzero columns alone. The
skipped updates are exactly the ones that would leave an entry unchanged, so
every entry, every Bland choice and the optimal vertex are the same as with
a dense update.
"""

from __future__ import annotations

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


def _pivot(tableau, basis, row, col):
    """Gauss-Jordan step on (row, col) over nonzero entries only."""
    line = tableau[row]
    piv = line[col]
    nonzero = [(j, v / piv) for j, v in enumerate(line) if v]
    for j, v in nonzero:
        line[j] = v
    for r, other in enumerate(tableau):
        f = other[col]
        if r != row and f:
            for j, v in nonzero:
                other[j] -= f * v
    basis[row] = col


def _run_phase(tableau, basis, cost, ncols):
    """Minimizes cost (a full row over ncols columns) in place. The cost row
    is carried as the last row of the tableau."""
    while True:
        # Bland: entering variable = lowest index with negative reduced cost.
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        row = None
        for r in range(len(tableau) - 1):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best, row = ratio, r
        if row is None:
            raise UnboundedError("no blocking constraint for entering column")
        _pivot(tableau, basis, row, col)


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
    objective = [Fraction(c) for c in objective]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for row, b in zip(eq_rows, eq_rhs):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("eq")
    for row, b in zip(ub_rows, ub_rhs):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("ub")

    m = len(rows)
    nslack = sum(1 for k in kinds if k == "ub")

    # Layout: structural vars | slacks | artificials.
    slack_at = {}
    si = 0
    for r, k in enumerate(kinds):
        if k == "ub":
            slack_at[r] = n + si
            si += 1

    full = []
    for r in range(m):
        line = rows[r] + [Fraction(0)] * nslack
        if r in slack_at:
            line[slack_at[r]] = Fraction(1)
        if rhs[r] < 0:
            line = [-v for v in line]
            rhs[r] = -rhs[r]
        full.append(line)

    # Basis: slack where it has coefficient +1; otherwise an artificial.
    basis = [-1] * m
    art_cols = []
    w = n + nslack
    for r in range(m):
        sc = slack_at.get(r)
        if sc is not None and full[r][sc] == 1:
            basis[r] = sc
        else:
            art_cols.append(w)
            basis[r] = w
            w += 1
    total = w
    for r in range(m):
        full[r] = full[r] + [Fraction(0)] * (total - len(full[r]))
        if basis[r] >= n + nslack:
            full[r][basis[r]] = Fraction(1)
        full[r].append(rhs[r])

    tableau = full

    if art_cols:
        # Phase 1: minimize the sum of artificials.
        cost = [Fraction(0)] * total + [Fraction(0)]
        for c in art_cols:
            cost[c] = Fraction(1)
        # Express cost in terms of nonbasic variables.
        for r in range(m):
            if basis[r] in art_cols:
                cost = [a - b for a, b in zip(cost, tableau[r])]
        tableau.append(cost)
        _run_phase(tableau, basis, cost, total)
        if tableau[-1][-1] != 0:
            raise InfeasibleError("phase-1 optimum is nonzero")
        tableau.pop()
        # Drive any artificial still basic out of the basis (degenerate rows).
        for r in range(m):
            if basis[r] in art_cols:
                col = next(
                    (j for j in range(n + nslack) if tableau[r][j] != 0),
                    None,
                )
                if col is None:
                    continue  # redundant all-zero row
                _pivot(tableau, basis, r, col)

    cost = [Fraction(c) for c in objective] + [Fraction(0)] * (total - n) + [Fraction(0)]
    for c in art_cols:
        cost[c] = Fraction(0)
    for r in range(m):
        b = basis[r]
        if b < len(cost) - 1 and cost[b] != 0:
            f = cost[b]
            cost = [a - f * v for a, v in zip(cost, tableau[r])]
    tableau.append(cost)
    # Artificial columns must never re-enter; make them unattractive by
    # excluding them from the eligible range.
    _run_phase(tableau, basis, cost, n + nslack)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    value = sum(c * v for c, v in zip(objective, x))
    return SimplexResult(value=value, x=tuple(x))
