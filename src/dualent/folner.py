"""Amenable delta-rank machinery: translation defects of finitely supported
weight functions, brute-force minimum-support rank search backed by exact
linear programming, and the constructive Folner-set upper bounds (intervals,
lattice parallelepipeds, convolution towers). Both rank searches, over a
lattice ball and over a finite table or crystal box, are one pool search,
`_pool_search`: one exact core, `_search_supports`, on the numbered
points' successor rows, and the witness checked on its own support.
The core enumerates only the supports that hold a run longer than 2/delta
along every shift whose action on the searched points has no cycle and
that have no isolated point other than 0, since no other support can be
the first to succeed; on a lattice pool it also skips every support with
a translate inside the pool that comes earlier or was rejected one size
down, so it meets each class of lattice translates once. It keys each
support by its images, the position in the support, read in key order,
of each shift's image of each of its points, and decides each class of
supports whose LPs agree up to the order of their variables and rows with
one exact LP; the class it accepts solves that LP once more, in the form
whose optimal vertex scales to the witness.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .groups import (
    DEFAULT_CAP,
    AbelianAutomorphism,
    AbelianElement,
    FgAbelianGroup,
    InternalInvariantError,
    NotInvertibleError,
    ShapeError,
    SumsetCapError,
    _smith_inverse,
)
from .simplex import UnboundedError, solve_lp


class RankSearchExhausted(ArithmeticError):
    """No support tried achieved the requested defect: none in a rank search's
    pool (ball, candidate list, table or crystal box), or in a box or tower
    route up to its limit."""


class DegenerateBasisError(ValueError):
    """Parallelepiped basis vectors are linearly dependent."""


def exact_delta(delta) -> Fraction:
    """Reads a threshold exactly. Floats are taken at their shortest decimal
    spelling (0.1 means 1/10, not the nearest binary double)."""
    if isinstance(delta, Fraction):
        return delta
    if isinstance(delta, int):
        return Fraction(delta)
    if isinstance(delta, float):
        return Fraction(str(delta))
    return Fraction(delta)


# --- weighted functions ----------------------------------------------------


@dataclass(frozen=True)
class WeightedFunction:
    """A normalized nonnegative weight function with finite support.

    Weights are exact rationals: each is an int or a Fraction (floats and
    bools raise TypeError), and they sum to exactly 1.
    """

    group: FgAbelianGroup
    support: tuple[AbelianElement, ...]
    weights: tuple

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ShapeError("support and weights must be parallel")
        if not self.support:
            raise ValueError("support must be nonempty")
        for e in self.support:
            if e.group != self.group:
                raise ShapeError("support element outside the group")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support contains duplicates")
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
                raise TypeError(f"weights must be ints or Fractions, got {w!r}")
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive on the support")
        if sum(ws) != 1:
            raise ValueError("weights must sum to 1 exactly")
        order = sorted(range(len(self.support)), key=lambda i: self.support[i].key())
        object.__setattr__(self, "support", tuple(self.support[i] for i in order))
        object.__setattr__(self, "weights", tuple(ws[i] for i in order))

    @classmethod
    def uniform(cls, group: FgAbelianGroup, elements: Iterable[AbelianElement]) -> "WeightedFunction":
        elems = list(dict.fromkeys(elements))
        n = len(elems)
        if n == 0:
            raise ValueError("uniform weighting needs a nonempty set")
        return cls(group, tuple(elems), (Fraction(1, n),) * n)

    @classmethod
    def point_mass(cls, element: AbelianElement) -> "WeightedFunction":
        return cls(element.group, (element,), (Fraction(1),))

    def value_map(self) -> dict:
        return dict(zip(self.support, self.weights))

    def translate(self, shift: AbelianElement) -> "WeightedFunction":
        return WeightedFunction(
            self.group,
            tuple(e + shift for e in self.support),
            self.weights,
        )

    def __call__(self, g: AbelianElement) -> Fraction:
        i = bisect.bisect_left(self.support, g.key(), key=AbelianElement.key)
        if i < len(self.support) and self.support[i] == g:
            return self.weights[i]
        return Fraction(0)


def _successor_rows(points: Sequence, multiply: Callable, shifts: Iterable) -> Iterator[list[int]]:
    """One successor row per shift, built when it is asked for: row[i] is the
    position in points of multiply(s, points[i]), or -1 where it leaves them."""
    index = {e: i for i, e in enumerate(points)}
    for s in shifts:
        yield [index.get(multiply(s, g), -1) for g in points]


def _rows_defect(rows: Iterable[Sequence[int]], weights: Sequence[Fraction]) -> Fraction:
    """The defect of the weights on points 0..n-1 under each successor row,
    maximized over the rows: the l1 distance between the weights and their
    push along the row. A point pushed to -1 leaves the points: its weight
    lands in one extra slot and counts once. The sums run over integer
    numerators over the lcm of the weights' denominators."""
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    worst = 0
    for row in rows:
        gap = nums + [0]
        for j, w in zip(row, nums):
            gap[j] -= w
        worst = max(worst, sum(map(abs, gap)))
    return Fraction(worst, den)


def defect(t: WeightedFunction, omega: Sequence[AbelianElement]) -> Fraction:
    """max over s in omega of the l1 distance between T and its s-translate,
    sum_g |T(g - s) - T(g)|, as an exact rational: `_rows_defect` on the
    support's successor rows."""
    if not omega:
        raise ValueError("omega must be nonempty")
    for s in omega:
        if s.group != t.group:
            raise ShapeError("shift outside the function's group")
    return _rows_defect(_successor_rows(t.support, operator.add, omega), t.weights)


def convolution(f: WeightedFunction, g: WeightedFunction, cap: Optional[int] = None) -> WeightedFunction:
    """(f * g)(x) = sum_h f(h) g(x - h); the result is again normalized
    because both inputs are."""
    if f.group != g.group:
        raise ShapeError("convolution of functions on different groups")
    acc: dict = {}
    for a, wa in zip(f.support, f.weights):
        for b, wb in zip(g.support, g.weights):
            x = a + b
            acc[x] = acc.get(x, 0) + wa * wb
        if cap is not None and len(acc) > cap:
            raise SumsetCapError(cap, len(acc))
    support = tuple(acc.keys())
    weights = tuple(acc[x] for x in support)
    return WeightedFunction(f.group, support, weights)


def _transport(f: WeightedFunction, auto: AbelianAutomorphism) -> WeightedFunction:
    """f composed with auto^-1, i.e. the weights pushed forward along auto."""
    return WeightedFunction(f.group, tuple(auto.apply(e) for e in f.support), f.weights)


def _tower_depths(
    f: WeightedFunction, gamma: AbelianAutomorphism, cap: Optional[int]
) -> Iterator[WeightedFunction]:
    """The towers of depth 1, 2, ... of `convolution_tower`, without end:
    each depth is the last one convolved with the next push-forward of f,
    built only when it is asked for."""
    result = pushed = f
    while True:
        yield result
        pushed = _transport(pushed, gamma)
        result = convolution(result, pushed, cap=cap)


def convolution_tower(
    f: WeightedFunction,
    gamma: AbelianAutomorphism,
    n: int,
    omega: Optional[Sequence[AbelianElement]] = None,
    cap: Optional[int] = DEFAULT_CAP,
) -> WeightedFunction:
    """f * (f . gamma^-1) * ... * (f . gamma^-(n-1)).

    The support is the iterated sumset of supp(f) under gamma, and each shift
    in omega union gamma(omega) union ... keeps a defect no worse than the
    corresponding shift of the base function (checked when omega is given).
    """
    if gamma.group != f.group:
        raise ShapeError("automorphism and function live on different groups")
    if n < 1:
        raise ValueError("n must be at least 1")
    result = next(itertools.islice(_tower_depths(f, gamma, cap), n - 1, None))
    if omega is not None:
        base = defect(f, omega)
        shifts = list(omega)
        for _ in range(n - 1):
            shifts += [gamma.apply(s) for s in shifts[-len(omega):]]
        for s, row in zip(shifts, _successor_rows(result.support, operator.add, shifts)):
            d = _rows_defect([row], result.weights)
            if d > base:
                raise InternalInvariantError(
                    f"tower defect {d} exceeds base defect {base} at shift {s}"
                )
    return result


def sqrt_overlap_check(t: WeightedFunction, h: AbelianElement) -> tuple[float, float, bool]:
    """Squared deviation of the square-root overlap sum from 1 is bounded by
    the translation defect: |1 - sum_g sqrt(T(g) T(g-h))|^2 <= defect(T, {h}).
    Returns (lhs, rhs, holds) with a 1e-12 float cushion; the successor row
    of -h gives both the pairs (g, g - h) and the defect, which h shares."""
    if h.group != t.group:
        raise ShapeError("shift outside the function's group")
    row = next(_successor_rows(t.support, operator.add, [-h]))
    overlap = 0.0
    for w, j in zip(t.weights, row):
        if j >= 0:
            overlap += math.sqrt(float(w) * float(t.weights[j]))
    lhs = (1.0 - overlap) ** 2
    rhs = float(_rows_defect([row], t.weights))
    return lhs, rhs, lhs <= rhs + 1e-12


# --- rank search -----------------------------------------------------------


@dataclass(frozen=True)
class RankCertificate:
    """A support size achieving defect < delta, with the witness that
    achieves it. From `min_rank_bruteforce` it is the least such size on the
    searched pool, a ball of search_radius or a candidate list
    (exhaustive_within_radius); from a box or tower route it is an upper
    bound, and search_radius is the box half-width or the tower depth."""

    rank: int
    witness: WeightedFunction
    defect: float
    delta: float
    omega: tuple[AbelianElement, ...]
    search_radius: int
    exhaustive_within_radius: bool
    defect_exact: Fraction = field(compare=False)
    exact: bool = True


def _shift_structure(images: Sequence[int]) -> tuple[list, list]:
    """Index bookkeeping for one shift of a k-point support, given images[i],
    the position in the support of the shift of point i, or -1 outside it:
    the pairs (i, j) with images[i] == j != i, and the solo indices, the
    sources leaving the support and then the targets not reached (a point
    may be both). The defect of T under this shift is
    sum_pairs |T_i - T_j| + sum_solo T_i; a point the shift fixes adds
    nothing."""
    pairs = [(i, j) for i, j in enumerate(images) if j >= 0 and j != i]
    hit = set(images)
    solo = [i for i, j in enumerate(images) if j < 0] + [j for j in range(len(images)) if j not in hit]
    return pairs, solo


def _max_mass_lp(
    k: int, structures: Sequence[tuple[list, list]], zero_defect: bool = False, one_row: bool = False
) -> Optional[tuple[Fraction, tuple[Fraction, ...]]]:
    """The rank search's LP: maximize sum T over weights T >= 0 on a k-point
    support whose defect under every shift is at most 1, or, when
    zero_defect, at most 0 with sum T at most 1. Each block gets one slot
    per unordered pair {i, j}, weighted in the block row by c, how often
    the block counts the pair (2 for a shift that swaps i and j); the block
    row adds the solo indices. Every right-hand side is 0 or 1, so the
    solve starts from the all-slack basis and has no phase 1. Returns the
    maximum and the optimal weights, or None when the maximum is unbounded
    (some nonzero T has defect 0).

    By default the slot is u with the two rows T_i - T_j - u <= 0 and
    T_j - T_i - u <= 0, and the block row carries c u. With one_row the
    slot is w with the one row T_i - T_j - w <= 0, and the block row
    carries c (2w - T_i + T_j). Both pose the same maximum, and are
    unbounded together: |x| = min{2w - x : w >= 0, w >= x}, reached at
    w = max(x, 0), just as |x| = min{u : u >= x, u >= -x}. So with c >= 0
    a T extends to a feasible point of one form exactly when it extends
    to one of the other, and the objective reads T alone. Over B blocks
    with P pairs in all, the one-row form has P + B rows instead of
    2P + B, and k + 2P + B tableau columns instead of k + 3P + B. Its
    optimal vertex may be another optimal T, so the search decides with
    the one-row form and takes its witness from the default one."""
    blocks = []
    for pairs, solo in structures:
        weight = {}
        for i, j in pairs:
            e = (min(i, j), max(i, j))
            weight[e] = weight.get(e, 0) + 1
        blocks.append((weight, solo))
    nvars = k + sum(len(weight) for weight, _ in blocks)
    rows, rhs = [], []
    slot = k
    for weight, solo in blocks:
        row = [0] * nvars
        for (i, j), c in weight.items():
            up = [0] * nvars
            up[i], up[j], up[slot] = 1, -1, -1
            rows.append(up)
            rhs.append(0)
            if one_row:
                row[i] -= c
                row[j] += c
                row[slot] = 2 * c
            else:
                down = [0] * nvars
                down[i], down[j], down[slot] = -1, 1, -1
                rows.append(down)
                rhs.append(0)
                row[slot] = c
            slot += 1
        for i in solo:
            row[i] += 1
        rows.append(row)
        rhs.append(0 if zero_defect else 1)
    if zero_defect:
        rows.append([1] * k + [0] * (nvars - k))
        rhs.append(1)
    try:
        result = solve_lp([-1] * k + [0] * (nvars - k), [], [], rows, rhs)
    except UnboundedError:
        return None
    return -result.value, result.x[:k]


def _inverse_row(row: Sequence[int]) -> tuple[int, ...]:
    """The successor row of the inverse partial injection: inverse[j] = i
    where row[i] == j, and -1 where j has no preimage."""
    inverse = [-1] * len(row)
    for i, j in enumerate(row):
        if j >= 0:
            inverse[j] = i
    return tuple(inverse)


def _acyclic(row: Sequence[int]) -> bool:
    """Whether the partial injection row has no cycle: walking forward from
    the points without a preimage then reaches every point."""
    reached = 0
    for start, back in enumerate(_inverse_row(row)):
        j = start if back < 0 else -1
        while j >= 0:
            reached, j = reached + 1, row[j]
    return reached == len(row)


def _lp_rows(n: int, rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The successor rows the LP needs, first occurrences in order, and the
    indices among them of the rows without a cycle on the points. A row that
    fixes every point gives defect 0; one that repeats a kept row or inverts
    one (s and -s) gives the same l1 defect as that row for every weighting.
    Neither needs a block of LP rows."""
    kept = []
    seen = {tuple(range(n))}  # the row that fixes every point
    for row in map(tuple, rows):
        if row not in seen:
            kept.append(row)
            seen.update((row, _inverse_row(row)))
    return kept, [r for r, row in enumerate(kept) if _acyclic(row)]


def _run_windows(n: int, row: Sequence[int], length: int) -> list[tuple[int, ...]]:
    """Every chain i, row[i], row[row[i]], ... of `length` points, as a
    sorted tuple of indices; row must be acyclic, so no point repeats."""
    windows = []
    for i in range(n):
        chain = [i]
        while len(chain) < length and chain[-1] >= 0:
            chain.append(row[chain[-1]])
        if chain[-1] >= 0:
            windows.append(tuple(sorted(chain)))
    return windows


def _feasible_supports(
    n: int, k: int, windows: Sequence[Sequence[tuple[int, ...]]], adjacent: Sequence[int],
    translates: Optional[_Translates] = None,
):
    """The k-point supports (0, *combo), combo from combinations(range(1, n),
    k - 1) in their lex order, restricted to the supports that contain a
    whole window of every shift and have no isolated point other than 0.
    adjacent[i] is the bitmask of the points that an LP row links to point
    i, i itself included when a row fixes it; a point is isolated in a
    support when none of them lies in the support. Yields (prefix, lasts):
    the supports are (*prefix, last) for last in lasts, in order.

    Backtracks over prefixes with an explicit stack. A window stays alive
    while its points up to the last chosen index are all chosen and at most
    the remaining slots of its points are still missing; a prefix is
    abandoned once some shift has no window alive, and a shift drops out
    once one of its windows is whole. Each window is kept as the bitmask of
    its missing points.

    A point placed with no link to itself or to the points before it is
    pending until a later point links to it. So a point may be left pending
    only when it has a neighbour above it, no later choice passes the
    highest neighbour of a pending point, and the last point must link to
    the prefix and to every pending point.

    With translates (a `_Translates`), the points are a lattice pool
    numbered in key order after the identity, and into[y] is the bitmask
    of the points p with p - y in the pool. A support S is then dropped
    when S lies in into[y] for a point y of S whose lattice part is
    lex-positive (rule R1), or, when 0 is isolated in S, when S without 0
    lies in into[y] for a point y != 0 of S (rule R2). `_search_supports`
    proves that neither drop changes the first support accepted or the
    classes it decides. R1 is applied to a whole prefix when the prefix
    and every point above its last lie in one such into[y]: each support
    under it then falls to R1, or to R2 when its 0 is isolated. Along a
    prefix P the walk keeps the points y of P that may still serve, and
    the AND of onto[p] over p in P, the points x with P inside into[x], so
    that the last point serving as y costs one bit test.
    """
    slots = k - 1
    alive = []
    for shift_windows in windows:
        missing = [sum(1 << p for p in w if p) for w in shift_windows]  # 0 is chosen
        if 0 in missing:
            continue  # point 0 alone is a window: this shift rules nothing out
        missing = [m for m in missing if m.bit_count() <= slots]
        if not missing:
            return
        alive.append(missing)
    if slots == 0:
        yield (), (0,)
        return
    looped = sum(1 << i for i, adj in enumerate(adjacent) if adj >> i & 1)
    may_wait = sum(1 << i for i, adj in enumerate(adjacent) if adj >> i)  # looped or a neighbour above
    top = (1 << n) - 1

    def choices(last: int, left: int, alive: list, reach: int, pending: tuple) -> list:
        # Choosing x keeps a window whose next missing point is x, or one
        # whose missing points all lie above x and fit in left - 1 slots.
        allowed = (1 << (n - left + 1)) - (2 << last)  # last < x <= n - left
        for ms in alive:
            below = 1  # the lowest missing bit of a window with a slot to spare
            firsts = 0
            for m in ms:
                first = m & -m
                firsts |= first
                if first > below and m.bit_count() < left:
                    below = first
            allowed &= (below - 1) | firsts
        # The last point links to the prefix or to itself, and to every
        # pending point; an earlier one is linked already or may be later,
        # and passes no pending point's highest neighbour.
        if left == 1:
            allowed &= reach | looped
            for adj in pending:
                allowed &= adj
        else:
            allowed &= reach | may_wait
            for adj in pending:
                allowed &= (1 << adj.bit_length()) - 1
        xs = []
        while allowed:
            low = allowed & -allowed
            xs.append(low.bit_length() - 1)
            allowed ^= low
        return xs

    if translates is not None:
        ahead, into, onto = translates.ahead, translates.into, translates.onto

    def moved(shifted: tuple, x: int) -> Optional[tuple]:
        # shifted is (inter, movers, lone) for the prefix P: inter holds the
        # points x with P in into[x], and movers the points y of P ahead with
        # P in into[y]. While 0 is isolated in P, lone is (spared, others):
        # the points x with P without 0 in into[x], and the points y != 0 of
        # P with P without 0 in into[y]; once 0 is linked, lone is None.
        # Returns the same for P extended by x, or None when R1 drops every
        # support under that prefix.
        inter, movers, lone = shifted
        bit = 1 << x
        movers = [y for y in movers if into[y] & bit]
        if ahead & inter & bit:
            movers.append(x)
        if movers:
            above = top ^ (2 * bit - 1)
            if any(into[y] & above == above for y in movers):
                return None
        if lone is not None:
            if adjacent[0] & bit:
                lone = None
            else:
                spared, others = lone
                others = [y for y in others if into[y] & bit]
                if spared & bit:
                    others.append(x)
                lone = spared & onto[x], others
        return inter & onto[x], movers, lone

    def unmoved(shifted: tuple, lasts: list) -> list:
        # The lasts that neither R1 nor R2 drops.
        inter, movers, lone = shifted
        drop = ahead & inter
        for y in movers:
            drop |= into[y]
        if lone is not None:  # R2, for a last point not linked to 0 either
            alone, others = lone
            for y in others:
                alone |= into[y]
            drop |= alone & ~adjacent[0]
        return [x for x in lasts if not drop >> x & 1]

    prefix = [0]
    shifted = None if translates is None else (onto[0], [], None if adjacent[0] & 1 else (top, []))
    stack = [(alive, iter(choices(0, slots, alive, adjacent[0], ())), adjacent[0], (), shifted)]
    while stack:
        alive, later, reach, pending, shifted = stack[-1]
        left = slots + 1 - len(stack)
        if left == 1:
            lasts = list(later)
            if shifted is not None:
                lasts = unmoved(shifted, lasts)
            if lasts:
                yield tuple(prefix), lasts
        else:
            x = next(later, None)
            if x is not None:
                further = None if shifted is None else moved(shifted, x)
                if shifted is not None and further is None:
                    continue  # R1 drops every support under the prefix extended by x
                bit = 1 << x
                upto = 2 * bit - 1
                kept = []
                for ms in alive:
                    if bit in ms:
                        continue  # x completes a window: the shift is satisfied
                    kept.append([m ^ bit if m & upto == bit else m for m in ms
                                 if m & upto == bit or (not m & upto and m.bit_count() < left)])
                reach |= adjacent[x]
                waiting = tuple(adj for adj in pending if not adj & bit)
                if not reach & bit:
                    waiting += (adjacent[x],)
                stack.append((kept, iter(choices(x, left - 1, kept, reach, waiting)), reach, waiting, further))
                prefix.append(x)
                continue
        stack.pop()
        prefix.pop()


def _shift_graph_form(k: int, images: Sequence[Sequence[int]]) -> tuple:
    """A canonical form of the LP that `_max_mass_lp` poses for a k-point
    support: images[s][i] is the position of shift s applied to point i, or
    -1. The LP reads each block only through `_shift_structure`, that is
    through the unordered pair {image, preimage} of each point, -1 for a
    link leaving the support. So it stays the same, up to the order of its
    variables and rows, when the points are relabelled, when the blocks are
    permuted, and when any one path or cycle of a block is reversed. Two
    supports get the same form exactly when a relabelling of the points and
    a permutation of the blocks carry one's pairs onto the other's.

    Each point gets a code per block: the number of its links leaving the
    support, or fixed, or swapped with a neighbour. Blocks are ordered by
    their sorted codes and permuted only within ties. Under each block
    order, a component is labelled by walks from each point of its
    smallest class of points with one signature (their sorted codes; among
    classes of one size, the larger signature, whose points branch less).
    A walk labels each point's unlabelled neighbours block by block, the
    one with the smaller signature first, and branches over both orders
    where the two tie. It reads each point, in label order, as one integer
    whose digits are its blocks' pairs of labels, smaller first. The least
    reading is the component's form, and the least sorted tuple of
    component forms over the block orders is the graph's. A walk is
    dropped as soon as its reading passes the least so far (individualise
    and refine, after McKay & Piperno, Practical graph isomorphism II,
    2014)."""
    pairs, codes = [], []
    for row in images:
        block = list(zip(row, _inverse_row(row)))
        pairs.append(block)
        codes.append([3 if a == i else 4 if a == c else (a < 0) + (c < 0) for i, (a, c) in enumerate(block)])
    signature = [tuple(sorted(s)) for s in zip(*codes)] if codes else [()] * k
    blocks = sorted((sorted(code), bl) for bl, code in enumerate(codes))
    ties = [[bl for _, bl in tie] for _, tie in itertools.groupby(blocks, key=lambda block: block[0])]

    roots = []  # per component, the class of points its walks start from
    seen = set()
    for start in range(k):
        if start not in seen:
            component = [start]
            seen.add(start)
            for i in component:
                for block in pairs:
                    for j in block[i]:
                        if j >= 0 and j not in seen:
                            seen.add(j)
                            component.append(j)
            classes = {}
            for i in component:
                classes.setdefault(signature[i], []).append(i)
            roots.append(min(classes.items(), key=lambda c: (len(c[1]), [-x for x in c[0]]))[1])

    width = k + 2  # labels a <= c, each in -1..k-1, read as the digit (a + 1) * width + c + 1
    span = width * width

    def least(starts: list, links: list) -> list:
        best = None
        stack = [([root], {-1: -1, root: 0}, 0, []) for root in reversed(starts)]
        while stack:
            order, label, m, reading = stack.pop()
            if best is None:
                below = True
            else:
                top = best[:m]
                if reading > top:
                    continue
                below = reading < top
            while m < len(order):
                i = order[m]
                entry = 0
                for a, c in links[i]:
                    if a not in label:
                        n = len(order)
                        if c not in label and a != c:
                            if signature[a] == signature[c]:
                                other = label.copy()
                                other[c], other[a] = n, n + 1
                                stack.append((order + [c, a], other, m, reading[:]))
                            elif signature[c] < signature[a]:
                                a, c = c, a
                            label[a], label[c] = n, n + 1
                            order += (a, c)
                            entry = entry * span + (n + 1) * width + n + 2
                            continue
                        label[a] = n
                        order.append(a)
                    elif c not in label:
                        label[c] = len(order)
                        order.append(c)
                    a, c = label[a], label[c]
                    entry = entry * span + ((a + 1) * width + c + 1 if a <= c else (c + 1) * width + a + 1)
                if not below:
                    if entry > best[m]:
                        break
                    below = entry < best[m]
                reading.append(entry)
                m += 1
            else:
                if below:
                    best = reading
        return best

    def component_forms(ordering: tuple) -> list:
        links = list(zip(*[pairs[bl] for tie in ordering for bl in tie])) if pairs else [()] * k
        return sorted(least(starts, links) for starts in roots)

    return tuple(map(tuple, min(map(component_forms, itertools.product(*map(itertools.permutations, ties))))))


def _without_isolated_zero(k: int, images: Sequence[Sequence[int]], zero: int) -> Optional[list[list[int]]]:
    """The images of a k-point support without its identity, the point at
    position zero, when k > 1 and no shift links that point to a point of
    the support, itself included; None otherwise."""
    if k < 2 or any(row[zero] >= 0 or zero in row for row in images):
        return None
    return [[j - (j > zero) for j in row[:zero] + row[zero + 1:]] for row in images]


class _Differences(dict):
    """Bitmasks over the points of a lattice pool, built when first asked
    for: self[y] holds the points p with p - y in the pool, or, with sign
    -1, those with y - p in it. Point i is read as the integer
    codes[i] + torsion[i]: codes[i] is its lattice part in balanced digits,
    linear and exact on differences, and torsion[i] a multiple of a number
    past every code difference, one per torsion tuple; minus[a, b] is the
    multiple of the tuple a - b, or one no point has when the pool has no
    such tuple. kinds holds, per torsion multiple, the bits and codes of
    its points, and pool every point's integer."""

    def __init__(self, codes: list[int], torsion: list[int], minus: dict, kinds: dict, pool: set, sign: int):
        super().__init__()
        self._codes, self._torsion, self._minus, self._kinds, self._pool = codes, torsion, minus, kinds, pool
        self._sign = sign

    def __missing__(self, y: int) -> int:
        code, t, pool = self._codes[y], self._torsion[y], self._pool
        mask = 0
        for u, (bits, kind) in self._kinds.items():
            if self._sign > 0:
                at = code - self._minus[u, t]
                hits = [c - at in pool for c in kind]
            else:
                at = code + self._minus[t, u]
                hits = [at - c in pool for c in kind]
            mask |= sum(itertools.compress(bits, hits))
        self[y] = mask
        return mask


class _Translates:
    """The translations of a lattice pool, numbered as `_pool_search` numbers
    it: points[0] the identity, the others in key() order. into[y] is the
    bitmask of the points p with p - y in the pool, and onto[p] that of
    the points y with p - y in it; ahead is the bitmask of the points whose
    lattice part is lex-positive, and zero the number of points before the
    identity in key order. It lives for one search."""

    def __init__(self, points: Sequence[AbelianElement]):
        keys = [e.key() for e in points]
        lattices = [lattice for lattice, _ in keys]
        span = 4 * max(map(abs, itertools.chain.from_iterable(lattices)), default=0) + 1
        codes = [0] * len(keys)
        for column in zip(*lattices):
            codes = [span * c + a for c, a in zip(codes, column)]
        past = span ** len(lattices[0])  # more than twice any code difference
        orders = points[0].group.torsion
        tuples = {t for _, t in keys}
        number = {t: past * i for i, t in enumerate(tuples)}
        minus = {(number[a], number[b]): number.get(tuple(map(operator.mod, map(operator.sub, a, b), orders)),
                                                    past * len(tuples))
                 for a in tuples for b in tuples}
        torsion = [number[t] for _, t in keys]
        kinds = {}
        for i, (c, u) in enumerate(zip(codes, torsion)):
            bits, kind = kinds.setdefault(u, ([], []))
            bits.append(1 << i)
            kind.append(c)
        pool = set(map(operator.add, codes, torsion))
        self.into = _Differences(codes, torsion, minus, kinds, pool, 1)
        # p - y lies in a pool closed under negation, such as a ball, exactly when y - p does
        symmetric = all(minus[torsion[0], u] - c in pool for c, u in zip(codes, torsion))
        self.onto = self.into if symmetric else _Differences(codes, torsion, minus, kinds, pool, -1)
        # keys[1:] is sorted: the points ahead, and those before the identity, are runs of it
        self.ahead = (1 << len(keys)) - (1 << bisect.bisect_right(lattices, lattices[0], 1))
        self.zero = bisect.bisect_left(keys, keys[0], 1) - 1


def _search_supports(
    n: int,
    rows: Sequence[Sequence[int]],
    delta: Fraction,
    translates: Optional[_Translates] = None,
) -> Optional[tuple[int, tuple[int, ...], Optional[Fraction], tuple]]:
    """The rank search on points 0..n-1, point 0 the identity: supports
    (0, *combo) by size, then lexicographically, so the first whose optimum,
    the least defect of a normalized weighting on it, is below delta is
    canonical. rows holds one successor row per shift in omega: rows[s][i]
    is the index of shift s applied to point i, or -1 outside the points.
    The LP gets one block per row `_lp_rows` keeps.

    Along a row with no cycle on the points, every run of a support along
    the shift has two ends, so any normalized weighting pays at least 2/run
    on its longest run, climbing to the peak and back down. Only supports
    holding a run of more than 2/delta points along every such row can
    succeed.

    Call a point p != 0 of a support S isolated when no LP row links p to a
    point of S, p itself included. Every row then counts p both as a
    source and as a target leaving S. Let S' be S without p, T a weighting
    of S and T' its restriction to S', renormalised: every row's defect is
    (1 - T_p) defect(T') + 2 T_p >= defect(T'), so the optimum of S is at
    least that of S'. S' holds 0, lies in the points and holds every run of
    S, so the search met it at size k - 1, where every optimum was at least
    delta; by induction on k, the optimum of S is at least delta too.
    Skipping S changes neither the first support accepted nor its LP. The
    enumeration (`_feasible_supports`) generates only the supports with
    the runs and without an isolated point, in the same lex order, and
    solves no LP for the rest.

    The LP depends only on the support's images: where each LP row sends
    each point of the support, as a position in it, or -1 outside it. So
    supports with equal images pose the same LP, and each images tuple is
    tested once; tuples of different sizes never compare equal, so the
    record is kept per size. Relabelling the points of a support, permuting
    its blocks or reversing a path or cycle inside one block permutes the
    LP's variables and rows and keeps its optimum, so a support whose
    `_shift_graph_form` was tested is rejected without an LP, and one exact
    LP is solved per class of LPs equal up to that order.

    That LP is `_max_mass_lp`: the maximum M* of sum T over T >= 0 with
    every row's defect at most 1. Each row's defect is positively
    homogeneous, so the optimum is t* = 1/M*, reached by T*/M* for the
    optimal vertex T*, and 0 exactly when M* is unbounded; t* < delta
    exactly when M* is unbounded or M* delta > 1. The LP is exact, so no
    tolerance enters. Each class is decided from M* of the LP's one-row
    form, which has about half the rows of the two-row form and the same
    M*. Only the class accepted solves the two-row form, whose vertex
    gives the weights, and its maximum must be the decision's; an
    unbounded class takes its weights instead from the two-row LP posed
    with every row's defect at most 0 and sum T at most 1, whose vertex
    has sum T = 1 and defect 0. So the witness and the number of decision
    LPs do not depend on the form that decides.

    Point 0 of S may be isolated too. The bound above then makes the
    optimum of S at least that of the LP posed on S without 0, and every
    form in the memo is a rejected class, so S is rejected without an LP
    when the form of S without 0 is in the memo.

    translates (see `_Translates`) is given only for a lattice pool, whose
    points after 0 are in key order. Translating a support by y, when
    S - y lies in the pool too, maps the links inside S onto those inside
    S - y: s + p = q exactly when s + (p - y) = q - y. So S - y holds the
    runs of S, has the isolated points of S, and poses the same LP up to
    relabelling its points. Two rules then skip S in the enumeration:
    - R1: 0 is linked in S, and S - y lies in the pool for a point y of S
      whose lattice part is lex-positive. Then s - y < s in key order for
      every s in S, so the least point of S - y lies below the least of S,
      which is at most 0: it is not 0, and it lies below every point of S
      without 0. The search compares those points lexicographically, so
      S - y, which holds 0 and no isolated point, comes earlier at the
      same size, with the same form. Inductively on the search order, the
      form of every support is met no later than without R1, and the first
      support of each form is never skipped; so the classes decided, their
      LPs and the first support accepted all stay.
    - R2: 0 is isolated in S, and (S without 0) - y lies in the pool for a
      point y != 0 of S. That translate holds 0, every run of S (a window
      of two or more points through an isolated 0 would link it) and no
      isolated point, so it was met at size k - 1 and rejected. The bound
      above makes the optimum of S at least its optimum, so S is rejected
      too. Every support with the form of S has an isolated point, which
      only 0 may be, so its form is read only by supports that R2 or the
      isolated-0 rule above rejects without an LP.

    The memo reads each support in key order, the identity at its rank
    translates.zero (at 0 without translates), so every translate of a
    support by a lattice vector inside the pool has the same images: a
    lattice translation keeps the key order. Those images feed the form
    and the decision LP, whose maximum does not depend on the order of
    its variables. Only the class accepted builds the images in support
    order, 0 first, for its witness LP, so the simplex's pivot rule meets
    the same vertex whatever order the memo reads.

    Returns (k, support, optimum, weights), or None when no support is
    accepted. optimum is None when a zero weight was blended away; the
    weights' defect must then be derived again.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    short = 2 // delta  # a run this long or shorter leaves defect >= 2/run >= delta
    succ, run = _lp_rows(n, rows)
    windows = [_run_windows(n, succ[r], short + 1) for r in run]
    adjacent = [0] * n
    for row in succ:
        for i, j in enumerate(row):
            if j >= 0:
                adjacent[i] |= 1 << j
                adjacent[j] |= 1 << i
    zero = 0 if translates is None else translates.zero  # points 1..zero lie before 0 in the memo's order
    # Everything the memos record was rejected: the first support whose LP
    # optimum is below delta ends the search. So the LP that accepts is
    # always the support's own, read in the memo's order, and the witness
    # LP after it is posed in the support's own position order.
    tested_forms = set()  # the _shift_graph_form of every support rejected
    # pos[i] is the position of point i in the support read in the memo's
    # order, -1 when it is not in it; pos[-1], read for a link outside the
    # points, stays -1.
    pos = [-1] * (n + 1)
    for k in range(1, n + 1):
        tested = set()  # the images of every support of size k tested
        for prefix, lasts in _feasible_supports(n, k, windows, adjacent, translates):
            cut = bisect.bisect_right(prefix, zero, 1)  # prefix[1:cut] lies before 0
            keyed = (*prefix[1:cut], *prefix[:1], *prefix[cut:])  # the prefix in the memo's order
            for p, x in enumerate(keyed):
                pos[x] = p
            for x in lasts:
                if 0 < x <= zero:  # x lies before 0, and so does the whole prefix
                    read = (*keyed[:-1], x, 0)
                    pos[x], pos[0] = k - 2, k - 1
                else:
                    read = (*keyed, x)
                    pos[x] = k - 1
                images = tuple([tuple([pos[row[i]] for i in read]) for row in succ])
                pos[x] = -1
                if prefix:
                    pos[0] = cut - 1
                if images in tested:
                    continue
                tested.add(images)
                form = _shift_graph_form(k, images)
                if form in tested_forms:
                    continue
                tested_forms.add(form)
                rest = _without_isolated_zero(k, images, read.index(0))
                if rest is not None and _shift_graph_form(k - 1, rest) in tested_forms:
                    continue
                decided = _max_mass_lp(k, [_shift_structure(m) for m in images], one_row=True)
                if decided is not None and decided[0] * delta <= 1:
                    continue
                support = (*prefix, x)
                place = {p: i for i, p in enumerate(support)}
                structures = [_shift_structure([place.get(row[i], -1) for i in support]) for row in succ]
                if decided is None:
                    optimum = Fraction(0)
                    weights = _max_mass_lp(k, structures, zero_defect=True)[1]
                else:
                    found = _max_mass_lp(k, structures)
                    if found is None or found[0] != decided[0]:
                        raise InternalInvariantError(f"witness LP disagrees with decision LP maximum {decided[0]}")
                    most, vertex = found
                    optimum = 1 / most
                    weights = [w * optimum for w in vertex]
                if any(w <= 0 for w in weights):
                    # The positive part is a smaller support whose translates
                    # through 0 all leave the points. Defect is convex and at
                    # most 2, so this blend toward the uniform weighting stays
                    # below (optimum + delta) / 2 with every weight positive.
                    eps = (delta - optimum) / 4
                    return k, support, None, tuple((1 - eps) * w + eps / k for w in weights)
                return k, support, optimum, tuple(weights)
            for x in keyed:
                pos[x] = -1
    return None


def _pool_search(
    pool: Iterable, multiply: Callable, identity, omega: Sequence, delta: Fraction, order: Callable,
    where: str, translates: Optional[Callable[[list], _Translates]] = None,
) -> tuple[int, tuple, tuple[Fraction, ...], Fraction]:
    """The one rank search over a pool of elements. The identity is point 0,
    the other elements follow in the given sort order, and shift s sends g
    to multiply(s, g), which leaves the points outside the pool. Runs
    `_search_supports` on one successor row per shift, with
    translates(points) when translates is given; on exhaustion raises
    "no support of size <= n " + where. The accepted weights' defect is
    derived again on the successor rows of the witness's own support, and
    must be the search's optimum, or below delta when a zero weight was
    blended away. Returns (rank, support, weights, defect)."""
    points = [identity, *sorted((e for e in set(pool) if e != identity), key=order)]
    found = _search_supports(len(points), list(_successor_rows(points, multiply, omega)), delta,
                             None if translates is None else translates(points))
    if found is None:
        raise RankSearchExhausted(f"no support of size <= {len(points)} {where}")
    k, support, optimum, weights = found
    witness = tuple(points[i] for i in support)
    achieved = _rows_defect(_successor_rows(witness, multiply, omega), weights)
    if optimum is None and not achieved < delta:
        raise InternalInvariantError(f"blended witness defect {achieved} is not below delta {delta}")
    if optimum is not None and achieved != optimum:
        raise InternalInvariantError(f"witness defect {achieved} disagrees with LP optimum {optimum}")
    return k, witness, weights, achieved


def min_rank_bruteforce(
    group: FgAbelianGroup,
    omega: Sequence[AbelianElement],
    delta,
    radius: int,
    exact: Optional[bool] = None,
    candidates: Optional[Sequence[AbelianElement]] = None,
) -> RankCertificate:
    """Smallest support size admitting a normalized weighting whose defect
    under every shift in omega stays below delta, searched over supports
    containing 0 inside the sup-norm ball of the given radius, or inside
    candidates.

    Supports are enumerated by cardinality and then lexicographically in
    key() order, so the returned witness is the canonical first success.
    Containing 0 loses no generality: translating a support translates the
    weighting and leaves every defect unchanged. The search is always exact
    (`exact` accepts None or True): it is the pool search `_pool_search`,
    the same one `min_rank_table` runs, with addition as the multiplication.
    """
    omega = list(omega)
    if not omega:
        raise ValueError("omega must be nonempty")
    for s in omega:
        if s.group != group:
            raise ShapeError("omega element outside the group")
    if exact is not None and not exact:
        raise ValueError("the rank search is always exact; exact=False is not supported")
    delta_frac = exact_delta(delta)
    if radius < 1:
        raise ValueError("radius must be at least 1")

    zero = group.zero()
    pool = group.ball(radius) if candidates is None else list(candidates)
    if zero not in pool:
        raise ValueError("candidate set must contain 0")
    k, support, weights, achieved = _pool_search(
        pool, operator.add, zero, omega, delta_frac, AbelianElement.key,
        f"within radius {radius} achieves defect < {delta}; retry with a larger radius", _Translates,
    )
    return RankCertificate(
        rank=k,
        witness=WeightedFunction(group, support, weights),
        defect=float(achieved),
        delta=float(delta_frac),
        omega=tuple(omega),
        search_radius=radius,
        exhaustive_within_radius=True,
        exact=True,
        defect_exact=achieved,
    )


def min_rank_table(
    elements: Sequence,
    multiply: Callable,
    identity,
    omega: Sequence,
    delta,
) -> tuple[int, dict]:
    """Rank search over a finite pool of elements with a multiplication,
    such as a finite group or a box of a crystal group: the pool search
    `_pool_search` that `min_rank_bruteforce` runs too, by left translation,
    with supports in repr order and the identity adjoined when missing. Its
    run bound applies only along a shift with no cycle on the elements, so
    never on a whole finite group. Returns the rank and the witness map."""
    omega = list(omega)
    if not omega:
        raise ValueError("omega must be nonempty")
    k, support, weights, _ = _pool_search(
        elements, multiply, identity, omega, exact_delta(delta), repr,
        f"in the pool of elements achieves defect < {delta}",
    )
    return k, dict(zip(support, weights))


# --- Folner constructions --------------------------------------------------


def choose_folner_constant(p: int, delta) -> int:
    """Smallest integer C > 3 with ((C-2)/(C+1))^p > 1 - delta/2, decided in
    exact rational arithmetic."""
    if p < 1:
        raise ValueError("p must be at least 1")
    target = 1 - exact_delta(delta) / 2
    c = 4
    while Fraction(c - 2, c + 1) ** p <= target:
        c += 1
    return c


@dataclass(frozen=True)
class Parallelepiped:
    """Region {sum s_i v_i : |s_i| <= t} spanned by rational basis vectors,
    with exact membership tests for integer points. The inverse basis matrix
    comes from the Smith form of the basis scaled to integers by the lcm q of
    its denominators, as integer numerators over one common denominator, so
    membership is decided with integer dot products."""

    basis: tuple[tuple[Fraction, ...], ...]
    t: Fraction = Fraction(1)

    def __post_init__(self):
        vs = tuple(tuple(Fraction(x) for x in v) for v in self.basis)
        p = len(vs)
        if p == 0 or any(len(v) != p for v in vs):
            raise ShapeError("basis must be square: p vectors of length p")
        t = exact_delta(self.t) if not isinstance(self.t, Fraction) else self.t
        if t <= 0:
            raise ValueError("half-width must be positive")
        object.__setattr__(self, "basis", vs)
        object.__setattr__(self, "t", t)
        q = math.lcm(*(x.denominator for v in vs for x in v))
        try:
            numerators, den = _smith_inverse([[int(q * x) for x in column] for column in zip(*vs)])
        except NotInvertibleError:
            raise DegenerateBasisError("basis vectors are linearly dependent") from None
        object.__setattr__(self, "_denominator", den)
        object.__setattr__(self, "_numerators", tuple(tuple(q * x for x in row) for row in numerators))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _scaled_coordinates(self, x: Sequence) -> tuple[list[int], int]:
        """The coordinates of x as integers over one common denominator."""
        if len(x) != self.dimension:
            raise ShapeError("point has the wrong dimension")
        xs = [Fraction(v) for v in x]
        q = math.lcm(*(v.denominator for v in xs))
        y = [v.numerator * (q // v.denominator) for v in xs]
        return [sum(map(operator.mul, row, y)) for row in self._numerators], q * self._denominator

    def coordinates(self, x: Sequence) -> tuple[Fraction, ...]:
        dots, den = self._scaled_coordinates(x)
        return tuple(Fraction(d, den) for d in dots)

    def contains(self, x: Sequence, scale: Fraction = Fraction(1)) -> bool:
        dots, den = self._scaled_coordinates(x)
        return max(map(abs, dots)) <= math.floor(self.t * Fraction(scale) * den)

    def includes_unit_cube(self) -> bool:
        """Whether the sup-norm unit cube sits inside the t = 1 region, i.e.
        every row of the inverse basis matrix has absolute sum <= 1."""
        return all(sum(map(abs, row)) <= self._denominator for row in self._numerators)

    def lattice_points(self, scale: Fraction = Fraction(1)) -> list[tuple[int, ...]]:
        """All integer points of the region scaled to half-width t * scale,
        via an exact bounding box and membership filter."""
        bound = self.t * Fraction(scale)
        box = []
        for j in range(self.dimension):
            reach = math.floor(bound * sum(abs(v[j]) for v in self.basis))
            box.append(range(-reach, reach + 1))
        limit = math.floor(bound * self._denominator)
        return [x for x in itertools.product(*box)
                if all(abs(sum(map(operator.mul, row, x))) <= limit for row in self._numerators)]


def interval_folner(halfwidth: int) -> WeightedFunction:
    """Uniform weights on the integer interval [-halfwidth, halfwidth]."""
    if halfwidth < 0:
        raise ValueError("halfwidth must be nonnegative")
    group = FgAbelianGroup(rank=1)
    return WeightedFunction.uniform(
        group, [group.element((i,)) for i in range(-halfwidth, halfwidth + 1)]
    )


def parallelepiped_folner(chi: Parallelepiped, c: int) -> WeightedFunction:
    """Uniform weights on the integer points of the parallelepiped scaled to
    half-width C. The basis must contain the unit cube at half-width 1 for
    the defect guarantee to apply."""
    if c < 1:
        raise ValueError("C must be a positive integer")
    if not chi.includes_unit_cube():
        raise DegenerateBasisError(
            "basis does not contain the unit sup-norm cube at half-width 1"
        )
    points = chi.lattice_points(Fraction(c, 1) / chi.t)
    group = FgAbelianGroup(rank=chi.dimension)
    return WeightedFunction.uniform(group, [group.element(x) for x in points])


def symmetric_difference_ratio(points: Iterable[tuple], shift: tuple) -> Fraction:
    """|(x + P) symmetric-difference P| / |P| for a finite set of integer
    tuples P and a shift x."""
    base = set(points)
    if not base:
        raise ValueError("point set must be nonempty")
    moved = {tuple(a + b for a, b in zip(pt, shift)) for pt in base}
    return Fraction(len(base ^ moved), len(base))
