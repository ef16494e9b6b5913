import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualent import folner, simplex
from dualent.folner import min_rank_bruteforce
from dualent.groups import FgAbelianGroup
from dualent.simplex import solve_lp, SimplexResult, UnboundedError
from dualent.specdoc import parse_spec

from tests.conftest import EXAMPLE_DIR

F = Fraction


def test_prefers_cheaper_variable():
    # max 2x + y  s.t.  x + y <= 1  ->  all mass on x
    res = solve_lp([F(-2), F(-1)], [], [], [[F(1), F(1)]], [F(1)])
    assert res.value == -2
    assert res.x == (F(1), F(0))


def test_upper_bounds_bind():
    # min -x - y  s.t.  x <= 2, y <= 3
    res = solve_lp(
        [F(-1), F(-1)],
        [],
        [],
        [[F(1), F(0)], [F(0), F(1)]],
        [F(2), F(3)],
    )
    assert res.value == -5
    assert res.x == (F(2), F(3))


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        solve_lp([F(-1)], [], [], [], [])


@pytest.mark.parametrize("lp, message", [
    (([F(1), F(1)], [[F(1), F(1)]], [F(1)], [], []), "equality rows"),
    (([F(1), F(1)], [], [], [[F(1), F(-1)], [F(1), F(1)]], [F(1), F(-1, 2)]), "right-hand side"),
], ids=["equality-row", "negative-rhs"])
def test_rows_that_need_a_phase_1_raise(lp, message):
    with pytest.raises(ValueError, match=message):
        solve_lp(*lp)


def test_degenerate_instance_terminates():
    # Multiple redundant upper bounds tied at zero at the optimum; Bland's
    # rule must not cycle.
    res = solve_lp(
        [F(-1), F(-1), F(-1)],
        [],
        [],
        [[F(1), F(0), F(0)], [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1), F(1), F(1)]],
        [F(0), F(0), F(0), F(1)],
    )
    assert res.value == -1
    assert res.x == (F(0), F(0), F(1))


def test_result_is_exact_rational():
    # max x + 3y  s.t.  3x + 7y <= 1  ->  y = 1/7
    res = solve_lp([F(-1), F(-3)], [], [], [[F(3), F(7)]], [F(1)])
    assert isinstance(res.value, Fraction)
    assert all(isinstance(v, Fraction) for v in res.x)
    assert res.value == F(-3, 7)
    assert res.x == (F(0), F(1, 7))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.fractions(min_value=F(1, 2), max_value=4),
)
def test_capped_simplex_optimum_is_min_coefficient(costs, total):
    # min c.x over x >= 0 with sum x <= total: optimum is total * min(c, 0).
    res = solve_lp(
        [F(c) for c in costs],
        [],
        [],
        [[F(1), F(1), F(1)]],
        [F(total)],
    )
    assert res.value == total * min(0, *(F(c) for c in costs))
    assert sum(res.x) == (total if min(costs) < 0 else 0)


# --- equivalence with the Fraction tableau ----------------------------------
#
# A two-phase Bland simplex on a Fraction tableau, kept as the reference: on
# every phase-1-free LP the integer tableau must take the same pivots to the
# same vertex, and fail the same way. Its phase 1 serves the reference
# min-defect LP of the rank-search tests, which has an equality row.


def _reference_pivot(tableau, basis, row, col, pivots):
    pivots.append((row, col))
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


def _reference_run_phase(tableau, basis, ncols, pivots):
    while True:
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
        _reference_pivot(tableau, basis, row, col, pivots)


def reference_solve_lp(objective, eq_rows, eq_rhs, ub_rows, ub_rhs, pivots):
    n = len(objective)
    objective = [F(c) for c in objective]
    rows, rhs, kinds = [], [], []
    for row, b in zip(eq_rows, eq_rhs):
        rows.append([F(v) for v in row])
        rhs.append(F(b))
        kinds.append("eq")
    for row, b in zip(ub_rows, ub_rhs):
        rows.append([F(v) for v in row])
        rhs.append(F(b))
        kinds.append("ub")
    m = len(rows)
    nslack = kinds.count("ub")
    slack_at = {}
    for r, k in enumerate(kinds):
        if k == "ub":
            slack_at[r] = n + len(slack_at)
    full = []
    for r in range(m):
        line = rows[r] + [F(0)] * nslack
        if r in slack_at:
            line[slack_at[r]] = F(1)
        if rhs[r] < 0:
            line = [-v for v in line]
            rhs[r] = -rhs[r]
        full.append(line)
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
        full[r] = full[r] + [F(0)] * (total - len(full[r]))
        if basis[r] >= n + nslack:
            full[r][basis[r]] = F(1)
        full[r].append(rhs[r])
    tableau = full
    if art_cols:
        cost = [F(0)] * (total + 1)
        for c in art_cols:
            cost[c] = F(1)
        for r in range(m):
            if basis[r] in art_cols:
                cost = [a - b for a, b in zip(cost, tableau[r])]
        tableau.append(cost)
        _reference_run_phase(tableau, basis, total, pivots)
        if tableau[-1][-1] != 0:
            raise ArithmeticError("phase-1 optimum is nonzero: the LP is infeasible")
        tableau.pop()
        for r in range(m):
            if basis[r] in art_cols:
                col = next((j for j in range(n + nslack) if tableau[r][j] != 0), None)
                if col is None:
                    continue
                _reference_pivot(tableau, basis, r, col, pivots)
    cost = objective + [F(0)] * (total - n + 1)
    for r in range(m):
        f = cost[basis[r]]
        if f != 0:
            cost = [a - f * v for a, v in zip(cost, tableau[r])]
    tableau.append(cost)
    _reference_run_phase(tableau, basis, n + nslack, pivots)
    x = [F(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    return SimplexResult(value=sum(c * v for c, v in zip(objective, x)), x=tuple(x))


def _outcome(solve, lp):
    try:
        res = solve(*lp)
    except UnboundedError as exc:
        return type(exc), None, None
    return SimplexResult, res.value, res.x


def _compare(lp):
    """Both solvers on one LP: (outcome, pivots), after asserting that
    outcome and pivots agree."""
    reference_pivots = []
    expected = _outcome(lambda *a: reference_solve_lp(*a, reference_pivots), lp)
    pivots = []
    real = simplex._pivot

    def spy(tableau, basis, row, col, d):
        pivots.append((row, col))
        return real(tableau, basis, row, col, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", spy)
        got = _outcome(solve_lp, lp)
    assert got == expected
    assert pivots == reference_pivots
    return got, pivots


def _random_lp(rng: random.Random):
    def number():
        if rng.random() < 0.3:
            return 0
        value = F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
        return int(value) if value.denominator == 1 and rng.random() < 0.5 else value

    n = rng.randint(1, 5)
    # rows lean positive and the objective toward a maximization, so that
    # most LPs pivot away from x = 0 and some are blocked
    ub = [[abs(v) if rng.random() < 0.6 else v for v in (number() for _ in range(n))]
          for _ in range(rng.randint(0, 6))]
    ub_rhs = [abs(number()) for _ in ub]
    if ub and rng.random() < 0.3:
        # degenerate ties: repeated bounds at a shared zero level
        ub.append(list(ub[0]))
        ub_rhs[0] = 0
        ub_rhs.append(0)
    objective = [-abs(v) if rng.random() < 0.8 else v for v in (number() for _ in range(n))]
    return objective, [], [], ub, ub_rhs


def test_random_lps_take_the_reference_pivots():
    rng = random.Random(20240611)
    kinds = {SimplexResult: 0, UnboundedError: 0}
    multi_pivot = 0
    for _ in range(600):
        (kind, _, _), pivots = _compare(_random_lp(rng))
        kinds[kind] += 1
        multi_pivot += len(pivots) >= 2
    assert all(count >= 50 for count in kinds.values()), kinds
    assert multi_pivot >= 100


@pytest.mark.parametrize("case", [
    # every bound tied at zero
    ([F(-1), F(-1), F(0)], [], [], [[F(1), F(-1), F(0)], [F(-1), F(1), F(0)], [F(1), F(1), F(-1)]],
     [F(0), F(0), F(0)]),
    # Fraction data with distinct denominators in one row
    ([F(-1, 3), F(-2, 5)], [], [], [[F(1, 2), F(1, 3)], [F(3, 4), F(-1, 6)]], [F(5, 6), F(1, 10)]),
])
def test_hand_built_lps_take_the_reference_pivots(case):
    _compare(case)


def _run_rank_lp_searches():
    """The four searches of the benchmark's rank-lp workload."""
    z1 = FgAbelianGroup(1)
    shifts = [z1.element((s,)) for s in (1, -1, 2, -2)]
    min_rank_bruteforce(z1, shifts, F(3, 4), 6)
    min_rank_bruteforce(z1, shifts, F(1, 2), 6)
    for name, radius in (("rank_z1.json", 8), ("fg_abelian_mixed.json", 2)):
        doc = parse_spec(str(EXAMPLE_DIR / name))
        min_rank_bruteforce(doc.group, list(doc.omega), doc.params.delta, radius)


def test_every_lp_of_the_rank_lp_searches_takes_the_reference_pivots():
    lps = []

    def record(*lp):
        lps.append(lp)
        return solve_lp(*lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(folner, "solve_lp", record)
        _run_rank_lp_searches()
    # one decision LP per class of LPs equal up to the order of their
    # variables and rows, 35 in all, and one witness LP per search: the
    # accepting class's LP in its two-row form, whose vertex, rescaled, is
    # the witness
    assert len(lps) == 35 + 4
    for lp in lps:
        _compare(lp)
