import bisect
import functools
import itertools
import math
import os
import queue
import random
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualent import growth
from dualent.groups import FgAbelianGroup, IntMatrix, AbelianAutomorphism, ShapeError
from dualent.growth import (
    DEFAULT_CAP,
    FiniteSubset,
    GrowthSeries,
    SumsetCapError,
    growth_series,
    growth_rate_estimate,
)
from tests.conftest import child_env
from tests.test_groups import unimodular_strategy

GOLDEN_ENTROPY = 0.9624236501192069


def corners(group):
    """The 0/1 corners of the lattice part, with torsion coordinates 0."""
    zeros = (0,) * len(group.torsion)
    return FiniteSubset.of(
        group, (c + zeros for c in itertools.product((0, 1), repeat=group.rank))
    )


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestFiniteSubset:
    def test_of_accepts_flat_coordinates(self):
        g = FgAbelianGroup(1, (2,))
        s = FiniteSubset.of(g, [(0, 0), (1, 1)])
        assert len(s) == 2
        assert g.element((1,), (1,)) in s.elements

    def test_rejects_foreign_elements(self):
        g1, g2 = FgAbelianGroup(1), FgAbelianGroup(2)
        with pytest.raises(ShapeError):
            FiniteSubset(g1, frozenset({g2.element((0, 0))}))

    def test_deduplicates(self, z2):
        s = FiniteSubset.of(z2, [(0, 0), (0, 0), (1, 1)])
        assert len(s) == 2


class TestGrowthSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GrowthSeries(sizes=(), capped=False)

    def test_rejects_supermultiplicative_sizes(self):
        with pytest.raises(ValueError):
            GrowthSeries(sizes=(2, 5), capped=False)

    def test_log_over_n(self):
        s = GrowthSeries(sizes=(4, 16), capped=False)
        assert s.log_over_n() == [math.log(4), math.log(16) / 2]

    def test_constant_tail_is_checked_quickly(self):
        # A finite group's sumsets stop growing; checking every pair of a
        # 12,000-term series took about 6 s.
        sizes = (2, 4, 5) + (5,) * 11_997
        start = time.perf_counter()
        GrowthSeries(sizes=sizes, capped=False)
        assert time.perf_counter() - start < 0.5

    def test_rising_series_is_checked_quickly(self):
        # The 10,000 sizes 2, 4, ..., 20,000 of `dualent peters` on
        # fg_abelian_mixed.json with --n 200000 --cap 20000: checking every
        # pair took about 3.4 s.
        sizes = tuple(range(2, 20_001, 2))
        start = time.perf_counter()
        GrowthSeries(sizes=sizes, capped=True)
        assert time.perf_counter() - start < 0.5

    def test_violations_match_the_check_of_every_pair(self):
        rng = random.Random(29)
        violations = 0
        for _ in range(400):
            sizes = plateau_series(rng)
            assert series_error(sizes) is None
            k = rng.randrange(len(sizes))
            sizes[k] = rng.choice([sizes[k] + rng.randrange(1, 40), max(1, sizes[k] // rng.randrange(2, 5))])
            expected = every_pair_error(sizes)
            violations += expected is not None
            assert series_error(sizes) == expected, sizes
        assert violations > 100

    def test_rising_violations_match_the_check_of_every_pair(self):
        rng = random.Random(31)
        found = {True: 0, False: 0}  # violations, by whether the sizes still never fall
        for _ in range(400):
            sizes = rising_series(rng)
            assert series_error(sizes) is None
            k = rng.randrange(len(sizes))
            sizes[k] = rng.choice([sizes[k] + rng.randrange(1, 40), max(1, sizes[k] // rng.randrange(2, 5))])
            expected = every_pair_error(sizes)
            if expected is not None:
                found[sizes == sorted(sizes)] += 1
            assert series_error(sizes) == expected, sizes
        # Both checks find violations: the pairs bounded by the last size on
        # a nondecreasing series, and every pair on any other.
        assert min(found.values()) > 25


def plateau_series(rng):
    """min(c1, b^n) min(c2, n + 1) for n = 1..N: a product of submultiplicative
    series, so submultiplicative, and constant from some n on."""
    b, c1, c2 = rng.randrange(1, 4), rng.randrange(1, 300), rng.randrange(1, 9)
    return [min(c1, b**n) * min(c2, n + 1) for n in range(1, rng.randrange(2, 60))]


def rising_series(rng):
    """c b^n (n + 1)^p for n = 1..N with c b (n + 1)^p rising: c b^n is
    submultiplicative for c >= 1 and so is n + 1, so their product is too,
    and it rises strictly."""
    b, c, p = rng.randrange(1, 4), rng.randrange(1, 5), rng.randrange(0, 3)
    if b == 1 and p == 0:
        p = 1
    return [c * b**n * (n + 1) ** p for n in range(1, rng.randrange(2, 60))]


def every_pair_error(sizes):
    """The message for the first pair (i, j), i then j ascending, with
    s_(i+j) > s_i s_j, or None: the check over all O(n^2) pairs."""
    for i in range(1, len(sizes) + 1):
        for j in range(1, len(sizes) + 1 - i):
            if sizes[i + j - 1] > sizes[i - 1] * sizes[j - 1]:
                return f"growth series is not submultiplicative at ({i},{j})"
    return None


def series_error(sizes):
    try:
        GrowthSeries(sizes=tuple(sizes), capped=False)
    except ValueError as exc:
        return str(exc)
    return None


class TestGrowthComputation:
    def test_cat_map_corner_sizes_match_closed_form(self, cat_auto, z2):
        # s_n for the corner set under the cat map is Fibonacci(2n + 3) - 1;
        # the first values are 4, 12, 33, 88, 232, ...
        series = growth_series(cat_auto, corners(z2), 10)
        assert series.sizes == tuple(fib(2 * n + 3) - 1 for n in range(1, 11))
        assert not series.capped

    def test_identity_corner_sizes_are_squares(self, z2):
        auto = AbelianAutomorphism.identity(z2)
        series = growth_series(auto, corners(z2), 8)
        assert series.sizes == tuple((n + 1) ** 2 for n in range(1, 9))

    def test_quarter_turn_sizes_are_squares(self, z2):
        # gamma has order 4, so the union of rotated corners is a fixed 2x2
        # square and the partial sumsets grow like its dilates.
        auto = AbelianAutomorphism.from_matrix(z2, ((0, -1), (1, 0)))
        series = growth_series(auto, corners(z2), 8)
        assert series.sizes == tuple((n + 1) ** 2 for n in range(1, 9))

    def test_free_position_images_multiply_sizes(self, z2):
        # The squared cat map pushes the corner set into general position:
        # each step multiplies the count by exactly |E| = 4.
        auto = AbelianAutomorphism.from_matrix(z2, ((2, 3), (3, 5)))
        series = growth_series(auto, corners(z2), 6)
        assert series.sizes == tuple(4**n for n in range(1, 7))

    def test_zero_is_adjoined(self, z2, cat_auto):
        base = FiniteSubset.of(z2, [(1, 0)])
        series = growth_series(cat_auto, base, 3)
        assert series.sizes[0] == 2

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_cap_below_the_first_size_raises(self, z2, cat_auto, n_max):
        # s_1 = |E with 0| = 4 already exceeds the cap, so no size fits it.
        with pytest.raises(SumsetCapError) as exc:
            growth_series(cat_auto, corners(z2), n_max, cap=3)
        assert (exc.value.cap, exc.value.partial) == (3, 4)

    def test_soft_cap_reports_partial_series(self, z2, cat_auto):
        series = growth_series(cat_auto, corners(z2), 12, cap=100)
        assert series.capped
        assert series.sizes == (4, 12, 33, 88)

    def test_torsion_component_saturates(self):
        g = FgAbelianGroup(1, (2,))
        auto = AbelianAutomorphism.build(g, lattice=((1,),))
        base = FiniteSubset.of(g, [(0, 0), (1, 0), (0, 1), (1, 1)])
        series = growth_series(auto, base, 6)
        # interval of length n+1 crossed with the full two-element factor
        assert series.sizes == tuple(2 * (n + 1) for n in range(1, 7))

    def test_mismatched_group_rejected(self, z1, cat_auto):
        with pytest.raises(ShapeError):
            growth_series(cat_auto, FiniteSubset.of(z1, [(0,)]), 3)


class TestRateEstimate:
    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            growth_rate_estimate(GrowthSeries(sizes=(4, 12), capped=False))

    def test_cat_map_estimate_close(self, cat_auto, z2):
        series = growth_series(cat_auto, corners(z2), 12)
        est = growth_rate_estimate(series)
        assert est.method == "peters"
        assert abs(est.value - GOLDEN_ENTROPY) < 1e-3

    def test_tail_difference_cancels_polynomial_factor(self):
        # sizes (n+1) 2^n: the endpoint estimate carries a log(n)/n error
        # while the tail difference converges much faster
        sizes = tuple((n + 1) * 2**n for n in range(1, 13))
        est = growth_rate_estimate(GrowthSeries(sizes=sizes, capped=False))
        assert abs(est.value - math.log(2)) < 0.1
        assert est.diagnostics["endpoint"] > est.value

    def test_diagnostics_expose_series(self, cat_auto, z2):
        series = growth_series(cat_auto, corners(z2), 6)
        est = growth_rate_estimate(series)
        assert est.diagnostics["sizes"] == list(series.sizes)
        assert est.diagnostics["capped"] is False

    @settings(max_examples=25, deadline=None)
    @given(unimodular_strategy(2))
    def test_series_strictly_increasing_and_capped_by_free_sums(self, m):
        # Adding a set with >= 2 elements strictly grows a finite set, and
        # each term can at most multiply the count by |E|.
        g = FgAbelianGroup(2)
        auto = AbelianAutomorphism.from_matrix(g, m)
        series = growth_series(auto, corners(g), 5, cap=200000)
        for a, b in zip(series.sizes, series.sizes[1:]):
            assert b > a
        for n, s in enumerate(series.sizes, start=1):
            assert s <= 4**n



# --- the packed kernel against a plain int-tuple sumset -------------------

COLLISION_MATRIX = ((2**20 + 1, 2**20), (1, 1))
COLLISION_BASE = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
CAT = ((2, 1), (1, 1))


def naive_series(auto, base, n_max, cap):
    """Sizes and capped flag of growth_series, from Python sets of flat int
    tuples: lattice coordinates added, torsion coordinates added mod their
    orders, the layers gamma^k(E) taken from auto.apply. Raises
    SumsetCapError when s_1 alone exceeds cap."""
    group = auto.group
    p, orders = group.rank, group.torsion

    def flat(e):
        return tuple(e.lattice) + tuple(e.torsion)

    def add(a, b):
        lat = tuple(a[i] + b[i] for i in range(p))
        tor = tuple((a[p + k] + b[p + k]) % d for k, d in enumerate(orders))
        return lat + tor

    layer = list(base.elements | {group.zero()})
    current = {flat(e) for e in layer}
    if len(current) > cap:
        raise SumsetCapError(cap, len(current))
    sizes = [len(current)]
    for _ in range(1, n_max):
        layer = [auto.apply(e) for e in layer]
        current = {add(a, flat(b)) for a in current for b in layer}
        if len(current) > cap:
            return tuple(sizes), True
        sizes.append(len(current))
    return tuple(sizes), False


class TestCapBoundary:
    """cap = s_n keeps all n sizes and cap = s_n - 1 stops after n - 1, both
    when depth n - 1 is the last step, which only counts its sumset, and
    when a deeper n_max makes that step build it."""

    @staticmethod
    def check(auto, base, n, deeper, sizes):
        s_n = sizes[n - 1]
        at_cap = growth_series(auto, base, n + deeper, cap=s_n)
        assert (at_cap.sizes, at_cap.capped) == (sizes[:n], deeper > 0)
        below = growth_series(auto, base, n + deeper, cap=s_n - 1)
        assert (below.sizes, below.capped) == (sizes[:n - 1], True)

    @pytest.mark.parametrize("deeper", [0, 2], ids=["last-step", "built-step"])
    @pytest.mark.parametrize("n", [2, 6, 11])
    def test_cat_map_corners(self, cat_auto, z2, n, deeper):
        sizes = tuple(fib(2 * k + 3) - 1 for k in range(1, n + 1))
        self.check(cat_auto, corners(z2), n, deeper, sizes)

    @pytest.mark.parametrize("deeper", [0, 2], ids=["last-step", "built-step"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_mixing_map_on_z2_x_c2(self, n, deeper):
        # The mixing moves layer points to torsion 1, so a step has two
        # target torsion values, and the second union gets what the first
        # left of the cap.
        group = FgAbelianGroup(2, (2,))
        auto = AbelianAutomorphism.build(group, CAT, mixing=((1,), (0,)))
        sizes, capped = naive_series(auto, corners(group), n, DEFAULT_CAP)
        assert not capped
        assert {auto.apply(e).torsion for e in corners(group).elements} == {(0,), (1,)}
        self.check(auto, corners(group), n, deeper, sizes)


def _times(group, units, lattice=None, mixing=None):
    """The automorphism multiplying torsion coordinate i by units[i], with
    the given lattice part and mixing."""
    torsion_map = {
        t: tuple(u * x % d for u, x, d in zip(units, t, group.torsion)) for t in group.torsion_tuples()
    }
    return AbelianAutomorphism.build(group, lattice, torsion_map, mixing)


# (id, automorphism, base): series whose sumsets stop growing after a few depths
FIXED_POINT_CASES = [
    ("z2-zero-base", AbelianAutomorphism.build(FgAbelianGroup(2), CAT), [(0, 0)]),  # 1, 1, ...
    ("c5-times-2", _times(FgAbelianGroup(0, (5,)), (2,)), [(1,)]),  # 2, 4, 5, 5, ...
    ("c2xc9", _times(FgAbelianGroup(0, (2, 9)), (1, 2)), [(1, 0), (0, 1)]),  # 3, 7, 15, 18, 18, ...
    ("zxc7-torsion-base", _times(FgAbelianGroup(1, (7,)), (3,), ((-1,),), ((2,),)), [(0, 1)]),  # 2, 4, 7, 7, ...
]


class TestFixedPoint:
    """S_(d+1) = E + gamma(S_d) holds S_d, so once a size repeats every
    later sumset is that set: growth_series copies the size and takes no
    further step, whatever n_max is."""

    @staticmethod
    def run(monkeypatch, auto, base, n_max, cap=DEFAULT_CAP):
        """The series, and the number of `_union` calls that made it."""
        real = growth._union
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(growth, "_union", counting)
        return growth_series(auto, base, n_max, cap), calls

    @pytest.mark.parametrize("auto, points", [c[1:] for c in FIXED_POINT_CASES], ids=[c[0] for c in FIXED_POINT_CASES])
    def test_no_union_after_the_first_repeat(self, monkeypatch, auto, points):
        base = FiniteSubset.of(auto.group, points)
        sizes, _ = naive_series(auto, base, 40, DEFAULT_CAP)
        d = next(i for i in range(1, 40) if sizes[i] == sizes[i - 1])  # depth of the first repeat
        assert set(sizes[d:]) == {sizes[d]}
        _, before = self.run(monkeypatch, auto, base, d)
        series, unions = self.run(monkeypatch, auto, base, d + 1)
        assert before < unions
        if auto.group.rank > 0 and not auto.group.torsion:
            assert unions == d  # one target torsion value: one union a depth
        for n_max in (d + 2, 40, 100_000):
            longer, calls = self.run(monkeypatch, auto, base, n_max)
            assert calls == unions
            assert (longer.sizes, longer.capped) == (series.sizes + series.sizes[-1:] * (n_max - d - 1), False)

    @pytest.mark.parametrize("auto, points", [c[1:] for c in FIXED_POINT_CASES], ids=[c[0] for c in FIXED_POINT_CASES])
    @pytest.mark.parametrize("n_max", [2, 3, 5, 12])
    def test_matches_plain_sumsets_at_the_fixed_size_cap(self, auto, points, n_max):
        base = FiniteSubset.of(auto.group, points)
        final = naive_series(auto, base, 40, DEFAULT_CAP)[0][-1]
        for cap in {final - 1, final, final + 1} - {0}:
            try:
                expected = naive_series(auto, base, n_max, cap)
            except SumsetCapError:
                with pytest.raises(SumsetCapError):
                    growth_series(auto, base, n_max, cap)
                continue
            series = growth_series(auto, base, n_max, cap)
            assert (series.sizes, series.capped) == expected


GROUPS = {
    "Z": FgAbelianGroup(1),
    "Z2": FgAbelianGroup(2),
    "Z3": FgAbelianGroup(3),
    "ZxZ/2": FgAbelianGroup(1, (2,)),
    "Z2xZ/3": FgAbelianGroup(2, (3,)),
}


@st.composite
def growth_instances(draw):
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    p, orders = group.rank, group.torsion
    if p == 1:
        lattice = draw(st.sampled_from([((1,),), ((-1,),)]))
    else:
        lattice = draw(unimodular_strategy(p, factors=4))
    # Multiplying by a unit mod d is an automorphism of Z/d.
    units = [draw(st.sampled_from([u for u in range(1, d) if math.gcd(u, d) == 1]))
             for d in orders]
    torsion_map = {
        t: tuple(u * x for u, x in zip(units, t)) for t in group.torsion_tuples()
    }
    mixing = [
        tuple(draw(st.integers(0, d - 1)) for d in orders) for _ in range(p)
    ]
    auto = AbelianAutomorphism.build(group, lattice, torsion_map, mixing)
    point = st.tuples(
        *([st.integers(-2, 2)] * p), *(st.integers(0, d - 1) for d in orders)
    )
    base = FiniteSubset.of(group, draw(st.lists(point, min_size=1, max_size=4)))
    n_max = draw(st.integers(1, 5))
    cap = draw(st.one_of(st.integers(1, 200), st.just(DEFAULT_CAP)))
    return auto, base, n_max, cap


@settings(max_examples=150, deadline=None)
@given(growth_instances())
def check_matches_plain_tuple_sumsets(instance):
    auto, base, n_max, cap = instance

    def outcome(series_of):
        try:
            return series_of(auto, base, n_max, cap)
        except SumsetCapError as exc:
            return "SumsetCapError", exc.cap, exc.partial

    def packed(*args):
        series = growth_series(*args)
        return series.sizes, series.capped

    assert outcome(packed) == outcome(naive_series)


class TestPackedKernel:
    def test_matches_plain_tuple_sumsets(self):
        check_matches_plain_tuple_sumsets()

    def test_collision_matrix_sizes_are_exact(self, z2):
        # The packed keys pass 2^62 here and move to Python ints; a float or
        # complex encoding merges distinct points from depth 4 on and gives
        # (6, 27, 117, 234, 273, 312).
        auto = AbelianAutomorphism.from_matrix(z2, COLLISION_MATRIX)
        base = FiniteSubset.of(z2, COLLISION_BASE)
        series = growth_series(auto, base, 6)
        expected = (6, 27, 117, 504, 2169, 9333)
        assert naive_series(auto, base, 6, DEFAULT_CAP) == (expected, False)
        assert series.sizes == expected
        assert not series.capped

    def test_collision_matrix_cap_on_python_int_keys(self, z2):
        auto = AbelianAutomorphism.from_matrix(z2, COLLISION_MATRIX)
        base = FiniteSubset.of(z2, COLLISION_BASE)
        series = growth_series(auto, base, 8, cap=50_000)
        assert (series.sizes, series.capped) == naive_series(auto, base, 8, 50_000)
        assert series.sizes == (6, 27, 117, 504, 2169, 9333, 40158)
        assert series.capped

    def test_deep_capped_run_stops_at_the_cap(self, z2):
        # Every coordinate stays far below 2^53 here, so these sizes, recorded
        # with a float-based encoding, are exact. Keys are packed for the
        # deepest depth up to 2 d + 32 whose radices fit int64, not for
        # depth 40: radices sized for depth 40 up front would force
        # Python-int keys long before the cap is hit.
        auto = AbelianAutomorphism.from_matrix(z2, CAT)
        ball = FiniteSubset.of(z2, itertools.product((-1, 0, 1), repeat=2))
        series = growth_series(auto, ball, 40, cap=2_000_000)
        assert series.sizes == (
            9, 37, 117, 333, 905, 2409, 6353, 16685, 43741, 114581, 300049, 785617,
        )
        assert series.capped


# --- keys packed for the depths ahead -----------------------------------


@pytest.fixture
def repacks(monkeypatch):
    """Records the source and target dtypes of every growth._repack call."""
    calls = []
    original = growth._repack

    def counted(np, keys, bounds, weights, dtype):
        calls.append((keys.dtype, dtype))
        return original(np, keys, bounds, weights, dtype)

    monkeypatch.setattr(growth, "_repack", counted)
    return calls


class TestPackingHorizon:
    def test_int64_runs_never_repack(self, repacks):
        # The growth benchmark's four int64 runs: one packing covers every
        # depth, so no key array is packed twice.
        z2, z3, z2c2 = FgAbelianGroup(2), FgAbelianGroup(3), FgAbelianGroup(2, (2,))
        runs = [
            (AbelianAutomorphism.from_matrix(z2, CAT), z2, 15),
            (AbelianAutomorphism.from_matrix(z2, ((2, 3), (3, 5))), z2, 11),
            (AbelianAutomorphism.from_matrix(z3, ((0, 0, 1), (1, 0, 1), (0, 1, 1))), z3, 14),
            (AbelianAutomorphism.build(z2c2, CAT, mixing=((1,), (0,))), z2c2, 12),
        ]
        sizes = []
        for auto, group, n in runs:
            sizes.append(growth_series(auto, corners(group), n).sizes[-1])
        assert sizes == [fib(33) - 1, 4**11, 246040, 380548]
        assert repacks == []

    def test_collision_matrix_repacks_from_the_switch_to_python_ints(self, z2, repacks):
        # Radices fit int64 up to depth 1 only: depth 2 moves the int64 keys
        # to Python ints, and every later depth re-packs them once.
        auto = AbelianAutomorphism.from_matrix(z2, COLLISION_MATRIX)
        growth_series(auto, FiniteSubset.of(z2, COLLISION_BASE), 8)
        assert len(repacks) == 6
        assert repacks[0][0] == "int64" and repacks[0][1] is object
        assert all(src == object for src, _ in repacks[1:])

    def test_collision_matrix_matches_plain_sumsets_at_every_depth(self, z2):
        # Every n_max from 1 to 8 puts the switch to Python ints at a
        # different place relative to the end of the run.
        auto = AbelianAutomorphism.from_matrix(z2, COLLISION_MATRIX)
        base = FiniteSubset.of(z2, COLLISION_BASE)
        expected, capped = naive_series(auto, base, 8, DEFAULT_CAP)
        assert not capped
        for n_max in range(1, 9):
            series = growth_series(auto, base, n_max)
            assert series.sizes == expected[:n_max]
            assert not series.capped

    @pytest.mark.parametrize(
        "matrix, sizes",
        [
            (CAT, (4, 12, 33, 88, 232, 609, 1596, 4180, 10945)),
            (((0, -1), (1, 0)), tuple((n + 1) ** 2 for n in range(1, 141))),
        ],
        ids=["cat", "quarter-turn"],
    )
    def test_huge_n_max_stops_at_the_cap_quickly(self, z2, matrix, sizes):
        # Layers are built only as far as the packing horizon, so a depth
        # limit far beyond the cap costs nothing extra.
        auto = AbelianAutomorphism.from_matrix(z2, matrix)
        start = time.perf_counter()
        series = growth_series(auto, corners(z2), 200_000, cap=20_000)
        assert time.perf_counter() - start < 2.0
        assert series.sizes == sizes
        assert series.capped


# --- the block-wise union of shifted runs --------------------------------

def plain_union(parts):
    return np.unique(np.concatenate([a + x for a, x in parts]))


def random_run(rng, size, low, high):
    return np.unique(rng.integers(low, high, size=size))


def int64_parts(rng):
    return [
        (random_run(rng, rng.integers(0, 300), -500, 500), int(rng.integers(-200, 200)))
        for _ in range(rng.integers(1, 6))
    ]


def python_int_parts(rng):
    # Keys q 2^63 + r, so sums agree in r and differ in q, or the reverse.
    def key(q, r):
        return 2**63 * int(q) + int(r)

    parts = []
    for _ in range(rng.integers(1, 5)):
        run = {key(q, r) for q, r in zip(rng.integers(-3, 4, 80), rng.integers(0, 40, 80))}
        shift = key(rng.integers(-2, 3), rng.integers(-20, 20))
        parts.append((np.array(sorted(run), dtype=object), shift))
    return parts


@pytest.fixture(params=[1, 3, 64], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """Runs the test with _union cutting every b-th key of every run."""
    monkeypatch.setattr(growth, "_BLOCK", request.param)
    return request.param


class TestUnion:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unique_of_all_sums_on_int64_runs(self, block, seed):
        parts = int64_parts(np.random.default_rng(seed))
        expected = plain_union(parts)
        got = growth._union(np, parts, 10**9)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unique_of_all_sums_on_python_int_keys(self, block, seed):
        parts = python_int_parts(np.random.default_rng(seed))
        expected = plain_union(parts)
        got = growth._union(np, parts, 10**9)
        assert got.dtype == object
        assert got.tolist() == expected.tolist()
        assert max(abs(k) for k in expected) >= 2**63

    @pytest.mark.parametrize("keys", [int64_parts, python_int_parts], ids=["int64", "python-int"])
    @pytest.mark.parametrize("size", [1, 3, growth._BLOCK], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("seed", range(4))
    def test_count_is_the_size_of_the_union(self, monkeypatch, keys, size, seed):
        monkeypatch.setattr(growth, "_BLOCK", size)
        parts = keys(np.random.default_rng(seed))
        union = len(growth._union(np, parts, 10**9))
        assert growth._union(np, parts, 10**9, count=True) == union
        assert growth._union(np, parts, union, count=True) == union
        assert growth._union(np, parts, union - 1, count=True) is None

    @pytest.mark.parametrize(
        "runs",
        [
            [([0, 2, 5, 9], 3)],
            [([0, 1, 4], 0), ([], 7), ([2, 3], 1)],
            [([0, 1, 2, 3], 0), ([0, 1, 2], 100)],
            [([-4, 0, 3, 8], 2)] * 4,
        ],
        ids=["single-run", "empty-run", "shifted-past-the-others", "identical-runs"],
    )
    def test_edge_cases(self, block, runs):
        parts = [(np.array(a, dtype=np.int64), x) for a, x in runs]
        expected = plain_union(parts)
        assert np.array_equal(growth._union(np, parts, 10**9), expected)

    def test_limit_is_the_largest_size_returned(self, block):
        rng = np.random.default_rng(7)
        parts = [(random_run(rng, 200, 0, 400), x) for x in (0, 5, 50)]
        size = len(plain_union(parts))
        assert np.array_equal(growth._union(np, parts, size), plain_union(parts))
        assert growth._union(np, parts, size - 1) is None

    # Blocks of 1 and 3 keys a run put block cuts everywhere in a step.
    @pytest.mark.parametrize("size", [1, 3])
    def test_small_blocks_match_plain_tuple_sumsets(self, monkeypatch, size):
        monkeypatch.setattr(growth, "_BLOCK", size)
        check_matches_plain_tuple_sumsets()

    @pytest.mark.parametrize("size", [1, 3])
    def test_small_blocks_on_the_collision_matrix(self, z2, monkeypatch, size):
        monkeypatch.setattr(growth, "_BLOCK", size)
        TestPackingHorizon().test_collision_matrix_matches_plain_sumsets_at_every_depth(z2)


def wide_parts(rng):
    """49 shifted runs, as a 7x7 base gives, of very uneven lengths."""
    lengths = rng.choice([0, 1, 2, 5, 40, 1500], size=49)
    return [(random_run(rng, n, -4000, 4000), int(rng.integers(-3000, 3000))) for n in lengths]


def torsion_parts(rng):
    """The parts of one target torsion value: the previous arrays of three
    torsion values, each shifted by the several layer points that carry it
    to the target, interleaved."""
    sources = [random_run(rng, rng.integers(0, 2000), -3000, 3000) for _ in range(3)]
    return [(sources[rng.integers(3)], int(x)) for x in rng.integers(-500, 500, size=24)]


def as_python_ints(parts):
    """The same parts with keys a 2^61 + (a mod 7) and shifts x 2^61 + (x mod
    5): runs stay sorted and distinct, and the sums pass 2^63."""
    def big(k):
        return int(k) * 2**61 + int(k) % 7

    def shift(x):
        return x * 2**61 + x % 5

    return [(np.array([big(k) for k in a], dtype=object), shift(x)) for a, x in parts]


def block_sizes(parts, cuts):
    """The number of sums of parts in each block [cut_(i-1), cut_i)."""
    total = np.zeros(len(cuts) + 1, dtype=np.int64)
    for a, x in parts:
        total += np.diff(np.concatenate([[0], np.searchsorted(a, cuts - x), [len(a)]]))
    return total


class TestWideUnion:
    """_union on many runs, where the cuts must bound the sums of a block over
    all of them together."""

    @pytest.mark.parametrize("size", [1, 97, 98, 600, growth._BLOCK], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("keys", [lambda p: p, as_python_ints], ids=["int64", "python-int"])
    @pytest.mark.parametrize("shape", [wide_parts, torsion_parts], ids=["49-uneven-runs", "torsion"])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_unique_of_all_sums(self, monkeypatch, size, keys, shape, seed):
        monkeypatch.setattr(growth, "_BLOCK", size)
        parts = keys(shape(np.random.default_rng(seed)))
        expected = plain_union(parts)
        got = growth._union(np, parts, 10**9)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()
        assert growth._union(np, parts, len(expected), count=True) == len(expected)
        assert growth._union(np, parts, len(expected) - 1) is None


# --- blocks in two streams ------------------------------------------------


class Worker:
    """A thread of the test's own that runs growth._serve, counting the
    calls handed to it."""

    def __init__(self):
        self.queue = queue.SimpleQueue()
        self.handed = 0
        self.thread = threading.Thread(target=growth._serve, args=(self.queue,), daemon=True)
        self.thread.start()

    def put(self, item):
        self.handed += 1
        self.queue.put(item)

    def stop(self):
        self.queue.put(None)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def worker(monkeypatch):
    """Gives _union's second stream to a Worker, whatever the CPU count."""
    second = Worker()
    monkeypatch.setattr(growth, "_second_stream", lambda: second)
    yield second
    second.stop()


def within(seconds, call):
    """Runs call() on a thread of its own and returns {"result": ...} or
    {"error": ...}; fails when call has not returned after seconds."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no answer within {seconds} s"
    return outcome


class Boom(Exception):
    pass


class FailingNumpy:
    """numpy, but count_nonzero (once per block) raises Boom on its call
    number `at` among those made where `here()` holds."""

    def __init__(self, here, at):
        self.here, self.at, self.calls = here, at, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        if self.here():
            self.calls += 1
            if self.calls == self.at:
                raise Boom
        return np.count_nonzero(a)


def shared_key_parts(rng):
    """Five shifts of one run by less than its key spacing: most sums repeat
    across runs."""
    run = random_run(rng, 3000, 0, 6000)
    return [(run, int(x)) for x in rng.integers(-40, 40, size=5)]


STREAM_SHAPES = {
    "int64": int64_parts,
    "repeats-across-runs": shared_key_parts,
    "49-uneven-runs": wide_parts,
    "torsion": torsion_parts,
}


class AddSpy:
    """numpy, but recording the sums each thread's np.add writes."""

    def __init__(self):
        self.sums = {}

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, a, x, out):
        np.add(a, x, out=out)
        self.sums.setdefault(threading.current_thread(), []).append(out.copy())


ONE_CPU_PROBE = """
    import os, threading
    from dualent import growth
    from dualent.groups import AbelianAutomorphism, FgAbelianGroup
    from dualent.growth import FiniteSubset, growth_series

    # One CPU of those this process may use, so the probe runs in any CPU set.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    z2 = FgAbelianGroup(2)
    auto = AbelianAutomorphism.from_matrix(z2, ((2, 1), (1, 1)))
    corners = FiniteSubset.of(z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    sizes = growth_series(auto, corners, 13).sizes
    # Unions of 300,096 and 785,668 sums, all in this thread.
    print(*sizes[-2:], growth._worker[1], threading.active_count())
"""


class TestStopSignal:
    """_stream run alone in this thread, with a take queue holding the size
    before each of its blocks as a partner stream would pass it."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(growth, "_BLOCK", 600)

    def run(self, numpy, taken, passed=None):
        """Runs every block with the sizes before the first `taken` blocks,
        then None, on take, and the limit one below the end of block
        `passed`, or met by the last block."""
        parts = wide_parts(np.random.default_rng(4))
        union = plain_union(parts)
        # The cuts, rows and width that _union hands to _stream.
        cuts = growth._cuts(np, parts, growth._BLOCK // 2)
        rows = [[0, *np.searchsorted(a, cuts - x).tolist(), len(a)] for a, x in parts]
        width = int(block_sizes(parts, cuts).max())
        # ends[i]: the distinct sums up to the end of block i.
        ends = np.searchsorted(union, cuts).tolist() + [len(union)]
        assert len(ends) > 4
        take, give = queue.SimpleQueue(), queue.SimpleQueue()
        for size in ([0] + ends[:-1])[:taken] + [None]:
            take.put(size)
        out = np.empty(len(union), dtype=np.int64)
        try:
            limit = ends[-1] if passed is None else ends[passed] - 1
            result = growth._stream(numpy, parts, rows, width, out, limit, range(len(ends)), take, give)
        except Boom:
            result = Boom
        given = []
        while not give.empty():
            given.append(give.get())
        return result, given, ends, out, union

    def test_a_normal_finish_gives_every_size_and_last_the_final_one(self):
        result, given, ends, out, union = self.run(np, taken=10**9)
        assert result == given[-1] == len(union)
        assert given == ends
        assert np.array_equal(out, union)

    @pytest.mark.parametrize("case", ["limit-passed", "none-taken", "block-raises"])
    def test_an_early_end_gives_one_none_and_nothing_after(self, case):
        # Each case ends the stream in its third block, after two sizes given.
        numpy = FailingNumpy(lambda: True, 3) if case == "block-raises" else np
        taken = 2 if case == "none-taken" else 10**9
        passed = 2 if case == "limit-passed" else None
        result, given, ends, _, _ = self.run(numpy, taken, passed)
        assert result is (Boom if case == "block-raises" else None)
        assert given == ends[:2] + [None]

    def test_a_failed_allocation_gives_one_none(self):
        class NoMemory:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                raise Boom

        result, given, _, _, _ = self.run(NoMemory(), taken=10**9)
        assert result is Boom and given == [None]


class TestTwoStreams:
    """_union alternates its blocks between this thread (the even ones) and a
    worker (the odd ones), whether it counts or builds its output."""

    @pytest.mark.parametrize("size", [64, 1000], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_one_and_two_streams_agree(self, monkeypatch, worker, size, shape, seed):
        monkeypatch.setattr(growth, "_BLOCK", size)
        parts = STREAM_SHAPES[shape](np.random.default_rng(seed))
        expected = plain_union(parts)
        two = growth._union(np, parts, 10**9), growth._union(np, parts, 10**9, count=True)
        assert worker.handed == (2 if sum(len(a) for a, _ in parts) >= size else 0)
        monkeypatch.setattr(growth, "_second_stream", lambda: None)
        one = growth._union(np, parts, 10**9), growth._union(np, parts, 10**9, count=True)
        assert np.array_equal(one[0], expected) and np.array_equal(two[0], expected)
        assert one[1] == two[1] == len(expected)

    def test_count_and_build_hand_the_worker_the_odd_blocks(self, monkeypatch, worker):
        monkeypatch.setattr(growth, "_BLOCK", 600)
        parts = wide_parts(np.random.default_rng(2))
        sums = np.concatenate([a + x for a, x in parts])
        cuts = growth._cuts(np, parts, growth._BLOCK // 2)
        assert len(cuts) > 4
        # Block i holds the sums in [cut_(i-1), cut_i).
        odd = np.searchsorted(cuts, sums, side="right") % 2 == 1
        expected = {worker.thread: np.sort(sums[odd]), threading.current_thread(): np.sort(sums[~odd])}
        for count in (False, True):
            spy = AddSpy()
            union = growth._union(spy, parts, 10**9, count=count)
            assert (union if count else len(union)) == len(plain_union(parts))
            assert spy.sums.keys() == expected.keys()
            for thread, written in spy.sums.items():
                assert np.array_equal(np.sort(np.concatenate(written)), expected[thread])
        assert worker.handed == 2

    @pytest.mark.parametrize("count", [False, True], ids=["build", "count"])
    def test_limit_passed_in_either_stream_or_met(self, monkeypatch, worker, count):
        monkeypatch.setattr(growth, "_BLOCK", 600)
        parts = wide_parts(np.random.default_rng(5))
        union = plain_union(parts)
        # ends[i]: the distinct sums up to the end of block i.
        ends = np.searchsorted(union, growth._cuts(np, parts, growth._BLOCK // 2)).tolist() + [len(union)]
        limits = sorted({0, len(union)} | {e - 1 for e in ends if e})

        def stream(limit):
            """0 for this thread, 1 for the worker: whose block passes limit."""
            return bisect.bisect_right(ends, limit) % 2

        assert {stream(limit) for limit in limits if limit < len(union)} == {0, 1}
        for limit in limits:
            got = growth._union(np, parts, limit, count=count)
            if limit < len(union):
                assert got is None
            elif count:
                assert got == len(union)
            else:
                assert np.array_equal(got, union)
        assert worker.handed == len(limits)

    def test_object_keys_take_one_stream(self, monkeypatch):
        monkeypatch.setattr(growth, "_BLOCK", 1)
        asked = []
        monkeypatch.setattr(growth, "_second_stream", lambda: asked.append(True))
        for seed in range(3):
            parts = as_python_ints(wide_parts(np.random.default_rng(seed)))
            expected = plain_union(parts).tolist()
            assert growth._union(np, parts, 10**9).tolist() == expected
            assert growth._union(np, parts, 10**9, count=True) == len(expected)
            assert growth._union(np, parts, len(expected) - 1) is None
        assert asked == []

    def test_one_cpu_starts_no_worker(self, monkeypatch):
        monkeypatch.setattr(growth, "_worker", None)
        monkeypatch.setattr(growth.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        threads = threading.active_count()
        assert growth._second_stream() is None
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_a_process_pinned_to_one_cpu_runs_one_stream(self):
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(ONE_CPU_PROBE)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(fib(27) - 1), str(fib(29) - 1), "None", "1"]

    @pytest.mark.parametrize("count", [False, True], ids=["build", "count"])
    @pytest.mark.parametrize("at", [1, 4])
    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_exception_in_a_block_is_raised_and_the_worker_freed(self, monkeypatch, worker, count, at, where):
        monkeypatch.setattr(growth, "_BLOCK", 600)
        parts = wide_parts(np.random.default_rng(1))

        def here():
            return (threading.current_thread() is worker.thread) == (where == "worker")

        outcome = within(30, lambda: growth._union(FailingNumpy(here, at), parts, 10**9, count=count))
        assert isinstance(outcome.get("error"), Boom)
        # The worker takes the next union, so nothing of the failed one is left waiting.
        again = within(30, lambda: growth._union(np, parts, 10**9))["result"]
        assert np.array_equal(again, plain_union(parts))
        assert worker.handed == 2

    def test_callers_sharing_one_worker_under_fast_switching(self, monkeypatch, worker):
        # More callers than CPUs hand alternate blocks to one worker while
        # the interpreter switches threads every 10 us: a size passed out of
        # turn, or lost, would misplace or drop sums.
        monkeypatch.setattr(growth, "_BLOCK", 256)
        shapes = sorted(STREAM_SHAPES)
        callers = max(4, (os.cpu_count() or 1) + 1)
        cases = [STREAM_SHAPES[shapes[c % 4]](np.random.default_rng(7 + c)) for c in range(callers)]
        expected = [plain_union(parts) for parts in cases]

        def call(parts, union):
            return all(np.array_equal(growth._union(np, parts, 10**9), union) for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = []
            threads = [
                threading.Thread(target=lambda p=p, u=u: outcomes.append(call(p, u)), daemon=True)
                for p, u in zip(cases, expected)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [True] * len(cases)
        assert worker.handed == 5 * len(cases)


class TestCuts:
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 97, 98, 1000, growth._BLOCK], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("seed", range(3))
    def test_no_block_exceeds_the_budget(self, size, seed):
        # Keys from a narrow range, and one run repeated under shifts from -2
        # to 2, put equal candidates of several runs at one cut.
        rng = np.random.default_rng(seed)
        for m in (1, 2, 5, 49, 60):
            runs = [random_run(rng, rng.choice([0, 3, 50, 400, 3000]), 0, 4000) for _ in range(m)]
            shifts = rng.integers(-2, 3, size=m)
            repeat = rng.integers(m)
            parts = [(runs[repeat] if r % 2 else a, int(x)) for r, (a, x) in enumerate(zip(runs, shifts))]
            cuts = growth._cuts(np, parts, size)
            assert np.all(cuts[1:] >= cuts[:-1])
            step = max(1, size // (2 * m))
            assert block_sizes(parts, cuts).max() <= (2 * m - 1) * step <= max(size, 2 * m)
            # About 2 (sum of |a|) / budget blocks, as the docstring says.
            assert len(cuts) <= sum(len(a) for a, _ in parts) / (m * step)

    def test_a_7x7_base_step_keeps_one_budget(self):
        # The runs of the last cat-map step on the 7x7 base: 49 shifts of s_8
        # keys. A budget of _BLOCK keys a run held up to 49 _BLOCK of them.
        # Every union cuts for _BLOCK // 2 sums a block, at most two of which
        # are in flight; the budget _BLOCK is checked as well.
        rng = np.random.default_rng(0)
        run = random_run(rng, 150_000, -10**7, 10**7)
        parts = [(run, int(x)) for x in rng.integers(-10**6, 10**6, size=49)]
        for budget in (growth._BLOCK, growth._BLOCK // 2):
            sizes = block_sizes(parts, growth._cuts(np, parts, budget))
            assert sizes.max() <= budget
            assert len(sizes) <= 2 * 49 * 150_000 / budget + 1


MEMORY_PROBE = """
    import itertools, sys
    from dualent.groups import AbelianAutomorphism, FgAbelianGroup
    from dualent.growth import FiniteSubset, growth_series

    def peak_bytes():
        # VmHWM is the peak RSS of this process image alone: ru_maxrss would
        # also count the image that ran before exec, the test runner here.
        with open("/proc/self/status") as status:
            return next(1024 * int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

    low, high, warm, n = map(int, sys.argv[1:])
    z2 = FgAbelianGroup(2)
    auto = AbelianAutomorphism.from_matrix(z2, ((2, 1), (1, 1)))
    box = FiniteSubset.of(z2, itertools.product(range(low, high + 1), repeat=2))
    growth_series(auto, box, warm)
    before = peak_bytes()
    sizes = growth_series(auto, box, n).sizes
    print(*sizes[-3:], peak_bytes() - before)
"""


@functools.cache
def memory_probe(low, high, warm, n):
    """s_(n-2), s_(n-1), s_n and the bytes by which the cat-map series to n on
    the base [low, high]^2 grows the peak RSS of a fresh process, after a
    warm-up series to depth warm."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(MEMORY_PROBE), str(low), str(high), str(warm), str(n)],
        capture_output=True, text=True, env=child_env(), timeout=120, check=True,
    )
    *sizes, grown = map(int, proc.stdout.split())
    return (*sizes, grown)


def corners_probe():
    s13, s14, s15, grown = memory_probe(0, 1, 8, 15)
    assert (s14, s15) == (fib(31) - 1, fib(33) - 1)
    return s13, s14, s15, grown


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")


@linux_only
def test_a_step_holds_little_more_than_two_sumsets():
    # A step holds the previous and the next sumset, 8 bytes a key, and the
    # blocks in flight; materialising all 4 s_14 sums at once, plus the merge
    # buffer of a sort over them, costs about 68 MiB here, above the bound.
    _, s14, s15, grown = corners_probe()
    assert grown <= 1.5 * 8 * (s14 + s15)


# In one stream or two, the blocks in flight hold at most _BLOCK sums
# together over all their runs (a block of up to _BLOCK // 2 sums in each
# stream), 8 bytes each, with 1 byte of repeat mask, 8 of the stable sort's
# merge buffer and 16 of np.compress (an index array, then the kept sums) a
# sum.
BLOCK_BYTES = growth._BLOCK * (8 + 1 + 8 + 16)


@linux_only
def test_the_last_step_never_holds_the_last_sumset():
    # The last step only counts, so it holds s_14 and the blocks in flight;
    # the step before it holds s_13 + s_14 < 1.5 s_14 keys and those blocks.
    # Building the last sumset adds its 8 s_15 bytes (43 MiB in all here).
    s13, s14, s15, grown = corners_probe()
    assert s13 + s14 < 1.5 * s14
    assert 1.5 * 8 * s14 + BLOCK_BYTES < 8 * s15
    assert grown <= 1.5 * 8 * s14 + BLOCK_BYTES


@linux_only
def test_a_wide_base_holds_one_block_of_sums():
    # The 7x7 base [-3, 3]^2 gives 49 shifted runs a step, and the bound has
    # no factor |E| = 49: the last step holds s_8 and the blocks in flight,
    # the step before it s_7 + s_8 < 1.5 s_8 keys and those blocks. A block
    # of _BLOCK keys a run, 49 runs in all, grew the peak by 37 MiB here.
    s7, s8, s9, grown = memory_probe(-3, 3, 4, 9)
    assert (s8, s9) == (149_965, 393_445)
    assert s7 + s8 < 1.5 * s8
    assert grown <= 1.5 * 8 * s8 + BLOCK_BYTES


STREAM_PROBE = """
    import os, sys
    from dualent import growth
    from dualent.groups import AbelianAutomorphism, FgAbelianGroup
    from dualent.growth import FiniteSubset, growth_series

    z2 = FgAbelianGroup(2)
    auto = AbelianAutomorphism.from_matrix(z2, ((2, 1), (1, 1)))
    corners = FiniteSubset.of(z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    sizes = growth_series(auto, corners, 13).sizes
    # Unions of 300,096 and 785,668 sums: past _BLOCK, so two streams run
    # on a host that lets this process use two CPUs.
    assert (growth._worker[1] is not None) == (len(os.sched_getaffinity(0)) > 1)
    pid = os.fork()
    if pid == 0:
        # A forked child has no worker thread, so it starts its own.
        os._exit(0 if growth_series(auto, corners, 13).sizes == sizes else 1)
    assert os.waitpid(pid, 0)[1] == 0
    print(*sizes[-2:])
"""


@linux_only
def test_a_process_with_a_worker_forks_and_exits_promptly():
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::DeprecationWarning", "-c", textwrap.dedent(STREAM_PROBE)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(fib(27) - 1), str(fib(29) - 1)]
