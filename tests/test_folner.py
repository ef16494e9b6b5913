import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualent import folner
from dualent.groups import FgAbelianGroup, AbelianAutomorphism, InternalInvariantError, NotInvertibleError, ShapeError
from dualent.specdoc import parse_spec
from dualent.folner import (
    WeightedFunction,
    RankSearchExhausted,
    DegenerateBasisError,
    Parallelepiped,
    _feasible_supports,
    _run_windows,
    choose_folner_constant,
    convolution,
    convolution_tower,
    defect,
    exact_delta,
    interval_folner,
    min_rank_bruteforce,
    min_rank_table,
    parallelepiped_folner,
    sqrt_overlap_check,
    symmetric_difference_ratio,
)

from tests.conftest import EXAMPLE_DIR
from tests.test_simplex import reference_solve_lp

F = Fraction


def uniform_run(group, length):
    return WeightedFunction.uniform(
        group, [group.element((i,)) for i in range(length)]
    )


SEEDED_GROUPS = [(1, ()), (2, ()), (1, (3,)), (2, (2, 4)), (0, (5, 6))]


def _seeded_weightings(rank, torsion, count=40):
    """count seeded (weighting, shifts) pairs on Z^rank + torsion: weights
    with mixed denominators; shifts with the zero shift, each torsion
    generator, one shift that moves the support off itself (rank > 0) and
    one to four random shifts."""
    g = FgAbelianGroup(rank, torsion)
    rng = random.Random(rank * 10 + len(torsion))

    def element(lattice_reach):
        return g.element(
            [rng.randint(-lattice_reach, lattice_reach) for _ in range(rank)],
            [rng.randrange(d) for d in torsion],
        )

    torsion_shifts = [g.element((0,) * rank, [int(i == j) for j in range(len(torsion))])
                      for i in range(len(torsion))]
    far = [g.element((40,) + (0,) * (rank - 1), (0,) * len(torsion))] if rank else []
    cases = []
    for _ in range(count):
        support = list({element(3) for _ in range(rng.randint(1, 12))})
        raw = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in support]
        total = sum(raw)
        f = WeightedFunction(g, tuple(support), tuple(w / total for w in raw))
        omega = [g.zero(), *torsion_shifts, *far] + [element(4) for _ in range(rng.randint(1, 4))]
        cases.append((f, omega))
    return cases


class TestExactDelta:
    def test_floats_read_as_decimals(self):
        assert exact_delta(0.1) == F(1, 10)
        assert exact_delta(0.5) == F(1, 2)

    def test_fractions_pass_through(self):
        assert exact_delta(F(2, 7)) == F(2, 7)

    def test_ints(self):
        assert exact_delta(2) == 2


class TestWeightedFunction:
    def test_weights_must_sum_to_one(self, z1):
        with pytest.raises(ValueError):
            WeightedFunction(z1, (z1.element((0,)),), (F(1, 2),))

    def test_weights_must_be_positive(self, z1):
        pts = (z1.element((0,)), z1.element((1,)))
        with pytest.raises(ValueError):
            WeightedFunction(z1, pts, (F(3, 2), F(-1, 2)))

    def test_duplicate_support_rejected(self, z1):
        pts = (z1.element((0,)), z1.element((0,)))
        with pytest.raises(ValueError):
            WeightedFunction(z1, pts, (F(1, 2), F(1, 2)))

    def test_support_is_canonically_sorted(self, z1):
        f = WeightedFunction(
            z1,
            (z1.element((3,)), z1.element((-1,))),
            (F(1, 4), F(3, 4)),
        )
        assert [e.lattice[0] for e in f.support] == [-1, 3]
        assert f.weights == (F(3, 4), F(1, 4))

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (F(1, 2), 0.5), (1.0,), (True,)])
    def test_float_and_bool_weights_rejected(self, z1, weights):
        pts = tuple(z1.element((i,)) for i in range(len(weights)))
        with pytest.raises(TypeError):
            WeightedFunction(z1, pts, weights)

    def test_translate_preserves_weights(self, z1):
        f = uniform_run(z1, 3)
        g = f.translate(z1.element((5,)))
        assert [e.lattice[0] for e in g.support] == [5, 6, 7]
        assert g.weights == f.weights

    def test_call_returns_zero_off_support(self, z1):
        f = uniform_run(z1, 2)
        assert f(z1.element((9,))) == 0

    @pytest.mark.parametrize("rank, torsion", SEEDED_GROUPS)
    def test_call_matches_the_value_map(self, rank, torsion):
        # lookups on the support and off it, torsion included
        for f, _ in _seeded_weightings(rank, torsion, count=10):
            val = f.value_map()
            for g in f.group.ball(4):
                got = f(g)
                assert type(got) is Fraction
                assert got == val.get(g, 0), g


class TestDefect:
    def test_uniform_run_defect_is_two_over_length(self, z1):
        for k in (1, 2, 5, 8):
            f = uniform_run(z1, k)
            assert defect(f, [z1.element((1,))]) == F(2, k)

    def test_defect_maximizes_over_shifts(self, z1):
        f = uniform_run(z1, 6)
        d = defect(f, [z1.element((1,)), z1.element((3,))])
        assert d == F(2 * 3, 6)

    def test_defect_invariant_under_translation(self, z1):
        f = uniform_run(z1, 4)
        shift = z1.element((7,))
        omega = [z1.element((1,)), z1.element((-2,))]
        assert defect(f.translate(shift), omega) == defect(f, omega)

    def test_point_mass_defect_is_two(self, z1):
        f = WeightedFunction.point_mass(z1.element((0,)))
        assert defect(f, [z1.element((1,))]) == 2

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-6, 6), st.integers(0, 1)),
            st.integers(1, 30),
            min_size=1,
            max_size=8,
        ),
        st.tuples(st.integers(-5, 5), st.integers(0, 1)),
        st.booleans(),
    )
    def test_shift_and_its_negative_agree_exactly(self, raw, shift, with_torsion):
        # the identity behind solving one LP block per pair {s, -s}
        g = FgAbelianGroup(1, (2,)) if with_torsion else FgAbelianGroup(1)

        def element(pair):
            return g.element(pair[:1], pair[1:]) if with_torsion else g.element(pair[:1])

        points = {element(p): w for p, w in raw.items()}
        total = sum(points.values())
        f = WeightedFunction(g, tuple(points), tuple(F(w, total) for w in points.values()))
        s = element(shift)
        assert defect(f, [s]) == defect(f, [-s])

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1), st.integers(0, 2)),
            st.integers(1, 30),
            min_size=1,
            max_size=10,
        ),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1), st.integers(0, 2)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_the_sum_over_the_union_of_support_and_translate(self, raw, shifts):
        g = FgAbelianGroup(2, (2, 3))
        points = {g.element(p[:2], p[2:]): w for p, w in raw.items()}
        total = sum(points.values())
        f = WeightedFunction(g, tuple(points), tuple(F(w, total) for w in points.values()))
        omega = [g.element(s[:2], s[2:]) for s in shifts]

        def reference(t, omega):
            val = t.value_map()
            worst = F(0)
            for s in omega:
                keys = set(t.support) | {e + s for e in t.support}
                total = sum((abs(val.get(x - s, F(0)) - val.get(x, F(0))) for x in keys), F(0))
                worst = max(worst, total)
            return worst

        got = defect(f, omega)
        assert type(got) is Fraction
        assert got == reference(f, omega)

    @staticmethod
    def _dict_defect(t, omega):
        """The dict-based defect that `defect` replaced: per shift, the
        translate as a dict of Fractions, popped against the support."""
        zero = F(0)
        worst = zero
        for s in omega:
            moved = {e + s: w for e, w in zip(t.support, t.weights)}
            total = sum((abs(moved.pop(g, zero) - w) for g, w in zip(t.support, t.weights)), zero)
            total += sum(moved.values(), zero)
            worst = max(worst, total)
        return worst

    @pytest.mark.parametrize("rank, torsion", SEEDED_GROUPS)
    def test_matches_the_dict_defect(self, rank, torsion):
        for f, omega in _seeded_weightings(rank, torsion):
            for s in omega:
                assert defect(f, [s]) == self._dict_defect(f, [s]) == _indexed_defect(f, [s]), s
            got = defect(f, omega)
            assert type(got) is Fraction
            assert got == self._dict_defect(f, omega) == _indexed_defect(f, omega)


class TestConvolution:
    def test_point_mass_is_identity(self, z1):
        f = uniform_run(z1, 3)
        e = WeightedFunction.point_mass(z1.element((0,)))
        assert convolution(f, e) == f

    def test_interval_convolution_is_triangular(self, z1):
        f = uniform_run(z1, 2)
        g = convolution(f, f)
        assert [e.lattice[0] for e in g.support] == [0, 1, 2]
        assert g.weights == (F(1, 4), F(1, 2), F(1, 4))

    def test_smoothing_never_grows_defect(self, z1):
        f = uniform_run(z1, 4)
        omega = [z1.element((1,))]
        assert defect(convolution(f, f), omega) <= defect(f, omega)
        # convolving with a smoother factor strictly improves
        g = uniform_run(z1, 8)
        assert defect(convolution(f, g), omega) < defect(f, omega)

    def test_young_bound_under_tower(self, z1, z2, cat_auto):
        base = WeightedFunction.uniform(
            z2, [z2.element((i, j)) for i in range(3) for j in range(3)]
        )
        omega = [z2.element((1, 0)), z2.element((0, 1))]
        d0 = defect(base, omega)
        tower = convolution_tower(base, cat_auto, 3, omega=omega)
        assert defect(tower, omega) <= d0

    def test_tower_support_matches_growth(self, z2, cat_auto):
        from dualent.growth import FiniteSubset, growth_series

        base = WeightedFunction.uniform(
            z2, [z2.element(c) for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
        )
        tower = convolution_tower(base, cat_auto, 5)
        series = growth_series(
            cat_auto, FiniteSubset.of(z2, [e for e in base.support]), 5
        )
        assert len(tower.support) == series.sizes[-1]


class TestSqrtOverlap:
    def test_uniform_run_values(self, z1):
        f = uniform_run(z1, 5)
        lhs, rhs, holds = sqrt_overlap_check(f, z1.element((1,)))
        assert holds
        assert lhs == pytest.approx((1 / 5) ** 2, abs=1e-12)
        assert rhs == pytest.approx(2 / 5, abs=1e-12)

    def test_disjoint_translate_saturates(self, z1):
        f = uniform_run(z1, 2)
        lhs, rhs, holds = sqrt_overlap_check(f, z1.element((10,)))
        assert holds
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=6),
        st.integers(-4, 4),
    )
    def test_holds_on_random_exact_functions(self, raw, shift):
        g = FgAbelianGroup(1)
        total = sum(raw)
        pts = [g.element((i,)) for i in range(len(raw))]
        f = WeightedFunction(g, tuple(pts), tuple(F(w, total) for w in raw))
        lhs, rhs, holds = sqrt_overlap_check(f, g.element((shift,)))
        assert holds


class TestMinRank:
    def test_unit_shift_oracle(self, z1):
        omega = [z1.element((1,)), z1.element((-1,))]
        cert = min_rank_bruteforce(z1, omega, 0.5, 8)
        assert cert.rank == 5
        assert cert.defect_exact == F(2, 5)
        assert cert.exact
        assert cert.exhaustive_within_radius
        assert len(cert.witness.support) == 5
        # the canonical witness is five consecutive points weighted uniformly
        assert cert.witness.weights == (F(1, 5),) * 5

    def test_rank_staircase(self, z1):
        # minimum defect of a k-point support under the unit shift is 2/k,
        # so the rank is the smallest k with 2/k < delta
        omega = [z1.element((1,)), z1.element((-1,))]
        for delta, expect in ((F(9, 10), 3), (F(2, 3), 4), (F(1, 2), 5), (F(2, 5), 6)):
            cert = min_rank_bruteforce(z1, omega, delta, 8)
            assert cert.rank == expect
            assert cert.defect_exact < delta

    def test_witness_defect_is_certified(self, z1):
        omega = [z1.element((1,)), z1.element((-1,))]
        cert = min_rank_bruteforce(z1, omega, F(1, 3), 8)
        assert defect(cert.witness, omega) == cert.defect_exact

    def test_exhausted_radius_raises(self, z1):
        omega = [z1.element((1,))]
        with pytest.raises(RankSearchExhausted):
            min_rank_bruteforce(z1, omega, F(1, 10), 3)

    def test_delta_must_be_positive(self, z1):
        with pytest.raises(ValueError):
            min_rank_bruteforce(z1, [z1.element((1,))], 0, 3)

    def test_monotone_in_delta(self, z1):
        omega = [z1.element((1,)), z1.element((-1,))]
        ranks = [
            min_rank_bruteforce(z1, omega, d, 8).rank
            for d in (F(9, 10), F(3, 4), F(1, 2), F(2, 5))
        ]
        assert ranks == sorted(ranks)

    def test_monotone_in_omega(self, z1):
        small = [z1.element((1,)), z1.element((-1,))]
        large = small + [z1.element((2,)), z1.element((-2,))]
        for d in (F(9, 10), F(1, 2)):
            r_small = min_rank_bruteforce(z1, small, d, 6).rank
            r_large = min_rank_bruteforce(z1, large, d, 6).rank
            assert r_small <= r_large

    def test_two_dim_unit_shifts(self, z2):
        omega = [z2.element((1, 0)), z2.element((-1, 0))]
        cert = min_rank_bruteforce(z2, omega, 0.5, 3)
        assert cert.rank == 5
        # witness is a straight run in the shift direction
        ys = {e.lattice[1] for e in cert.witness.support}
        assert len(ys) == 1

    def test_custom_candidate_set(self, z1):
        omega = [z1.element((1,)), z1.element((-1,))]
        candidates = [z1.element((i,)) for i in range(-4, 5)]
        cert = min_rank_bruteforce(z1, omega, 0.5, 4, candidates=candidates)
        assert cert.rank == 5

    def test_shuffled_doubled_ball_as_candidates(self):
        # the pool is numbered from its set of elements in key() order, so
        # neither the order nor repeats of the candidates reach the result
        omega = [ZC2.element((1,), (1,)), ZC2.element((-1,), (1,))]
        cert = min_rank_bruteforce(ZC2, omega, F(1, 2), 2)
        assert (cert.rank, cert.defect_exact) == (5, F(2, 5))
        pool = ZC2.ball(2) * 2
        random.Random(7).shuffle(pool)
        assert min_rank_bruteforce(ZC2, omega, F(1, 2), 2, candidates=pool) == cert

    def test_candidates_must_include_zero(self, z1):
        with pytest.raises(ValueError):
            min_rank_bruteforce(
                z1,
                [z1.element((1,))],
                0.5,
                3,
                candidates=[z1.element((1,)), z1.element((2,))],
            )

    def test_zero_weight_optimum_is_blended_to_a_positive_witness(self, z2):
        # The LP optimum on {0, (-2,-2), (0,1)} puts weight 0 on 0; the pair
        # that carries the weight has no translate through 0 inside the
        # ball, so rank 3 is right and the witness must be made positive.
        omega = [z2.element((2, 3)), z2.element((-2, -3))]
        for delta in (F(2), F(3, 2)):
            cert = min_rank_bruteforce(z2, omega, delta, 2)
            assert cert.rank == 3
            assert cert.exact
            assert all(w > 0 for w in cert.witness.weights)
            assert sum(cert.witness.weights) == 1
            assert cert.defect_exact == defect(cert.witness, omega)
            assert cert.defect_exact < delta

    def test_torsion_direction_is_cheap(self):
        # shifting along a finite factor is absorbed by averaging over it
        g = FgAbelianGroup(1, (2,))
        omega = [g.element((0,), (1,))]
        cert = min_rank_bruteforce(g, omega, 0.5, 2)
        assert cert.rank == 2
        tors = sorted(e.torsion[0] for e in cert.witness.support)
        assert tors == [0, 1]

    def test_coordinate_change_preserves_rank(self, z2):
        phi = AbelianAutomorphism.from_matrix(z2, ((1, 0), (1, 1)))
        omega = [z2.element((1, 0)), z2.element((-1, 0))]
        moved = [phi.apply(e) for e in omega]
        ball = z2.ball(3)
        cert_a = min_rank_bruteforce(z2, omega, 0.5, 3)
        cert_b = min_rank_bruteforce(
            z2, moved, 0.5, 3, candidates=[phi.apply(e) for e in ball]
        )
        assert cert_a.rank == cert_b.rank
        assert cert_a.defect_exact == cert_b.defect_exact


def _longest_run(members, row):
    """Reference for the run-length filter: the longest chain i, row[i],
    row[row[i]], ... inside members (row acyclic)."""
    longest = 0
    for i in members - {row[i] for i in members}:
        length = 0
        while i in members:
            length, i = length + 1, row[i]
        longest = max(longest, length)
    return longest


def _has_isolated_point(members, rows):
    """Reference for the isolated-point rule: whether some point p != 0 of
    members has neither its image nor its preimage under any row inside
    members (p itself counting)."""
    return any(
        all(row[p] not in members and not any(row[q] == p for q in members) for row in rows)
        for p in members - {0}
    )


def _adjacent(n, rows):
    """The bitmask, for each point, of its images and preimages."""
    masks = [0] * n
    for row in rows:
        for i, j in enumerate(row):
            if j >= 0:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _numbered_pool(pool, shifts):
    """Points and successor rows numbered as min_rank_bruteforce numbers a
    candidate pool: 0 first, then the rest in key() order."""
    zero = pool[0].group.zero()
    points = [zero, *sorted((e for e in pool if e != zero), key=lambda e: e.key())]
    index = {e: i for i, e in enumerate(points)}
    return points, [[index.get(e + s, -1) for e in points] for s in shifts]


def _numbered_ball(group, radius, shifts):
    """The number of points and the successor rows of the ball of radius."""
    points, rows = _numbered_pool(group.ball(radius), shifts)
    return len(points), rows


Z1 = FgAbelianGroup(1)
Z2 = FgAbelianGroup(2)
ZC2 = FgAbelianGroup(1, (2,))

# (id, group, radius, run shifts, largest support size checked)
RUN_GENERATOR_CASES = [
    ("z-unit", Z1, 4, [Z1.element((1,))], 7),
    ("z-unit-and-two", Z1, 5, [Z1.element((1,)), Z1.element((2,))], 7),
    ("z2-axes", Z2, 1, [Z2.element((1, 0)), Z2.element((0, 1))], 7),
    ("z2-non-axis", Z2, 2, [Z2.element((1, 1)), Z2.element((2, -1))], 5),
    ("zxz2-lattice", ZC2, 2, [ZC2.element((1,), (0,))], 6),
    ("zxz2-mixed", ZC2, 2, [ZC2.element((1,), (1,)), ZC2.element((2,), (0,))], 6),
    ("no-run-shifts", Z2, 1, [], 5),
]


class TestRunDrivenEnumeration:
    @pytest.mark.parametrize("short", range(5))
    @pytest.mark.parametrize(
        "group, radius, shifts, max_k",
        [case[1:] for case in RUN_GENERATOR_CASES],
        ids=[case[0] for case in RUN_GENERATOR_CASES],
    )
    def test_generator_matches_filtered_combinations(self, group, radius, shifts, max_k, short):
        n, succ = _numbered_ball(group, radius, shifts)
        windows = [_run_windows(n, row, short + 1) for row in succ]
        adjacent = _adjacent(n, succ)
        for k in range(1, max_k + 1):
            expected = [
                c for c in itertools.combinations(range(1, n), k - 1)
                if all(_longest_run({0, *c}, row) > short for row in succ)
                and not _has_isolated_point({0, *c}, succ)
            ]
            got = [(*prefix, last)[1:] for prefix, lasts in _feasible_supports(n, k, windows, adjacent) for last in lasts]
            assert got == expected

    @pytest.mark.parametrize(
        "delta, rank, support, weights, defect_exact",
        [
            # delta > 2: no run is needed, the point mass wins
            (F(5, 2), 1, ((0,),), (F(1),), F(2)),
            (F(9, 4), 1, ((0,),), (F(1),), F(2)),
            # delta = 2: a run of two points along each of 1 and 2
            (F(2), 3, ((-3,), (-2,), (0,)), (F(1, 3),) * 3, F(4, 3)),
        ],
    )
    def test_loose_deltas_keep_their_certificates(self, delta, rank, support, weights, defect_exact):
        omega = [Z1.element((s,)) for s in (1, -1, 2, -2)]
        cert = min_rank_bruteforce(Z1, omega, delta, 4)
        assert cert.rank == rank
        assert tuple(tuple(e.lattice) for e in cert.witness.support) == support
        assert cert.witness.weights == weights
        assert cert.defect_exact == defect_exact

    def test_non_axis_and_mixed_shifts_at_delta_two(self):
        nonaxis = [Z2.element(s) for s in ((1, 1), (-1, -1), (2, -1), (-2, 1))]
        cert = min_rank_bruteforce(Z2, nonaxis, F(2), 2)
        assert cert.rank == 3
        assert [tuple(e.lattice) for e in cert.witness.support] == [(-2, 1), (-1, -1), (0, 0)]
        assert cert.defect_exact == F(4, 3)
        mixed = [ZC2.element((1,), (1,)), ZC2.element((-1,), (1,))]
        cert = min_rank_bruteforce(ZC2, mixed, F(2), 2)
        assert cert.rank == 2
        assert [e.key() for e in cert.witness.support] == [((-1,), (1,)), ((0,), (0,))]
        assert cert.defect_exact == 1

    def test_ball_too_small_for_any_window_is_exhausted(self):
        omega = [Z1.element((1,)), Z1.element((-1,))]
        with pytest.raises(
            RankSearchExhausted,
            match=r"^no support of size <= 7 within radius 3 achieves defect < 1/10; "
                  r"retry with a larger radius$",
        ):
            min_rank_bruteforce(Z1, omega, F(1, 10), 3)


def _document_problem(name):
    doc = parse_spec(str(EXAMPLE_DIR / name))
    return doc.group, list(doc.omega), exact_delta(doc.params.delta)


def _document_search(name, radius):
    def search():
        return min_rank_bruteforce(*_document_problem(name), radius)

    return search


class TestLpMemo:
    """Supports whose LPs agree up to the order of their variables and rows
    pose LPs with one optimum, solved once per search; the memo lives for
    one call only."""

    @staticmethod
    def _lps_solved(monkeypatch, search, compare=True):
        """The decision LPs a search solves, the one-row form of
        `_max_mass_lp`, one per class it tests; the class accepted solves
        one more LP for its witness, in the two-row form, that is not
        counted. With compare, each decision LP is solved in the two-row
        form too, and the two must have the same maximum, or both none."""
        real = folner._max_mass_lp
        count = 0

        def counting(k, structures, zero_defect=False, one_row=False):
            nonlocal count
            found = real(k, structures, zero_defect, one_row)
            if one_row:
                count += 1
                if compare:
                    other = real(k, structures, zero_defect)
                    assert (found and found[0]) == (other and other[0])
            return found

        monkeypatch.setattr(folner, "_max_mass_lp", counting)
        search()
        return count

    # The comments give the distinct images of the tested supports, one LP
    # each when the memo was keyed on images alone, and the LPs of the memo
    # keyed on relabellings of the directed shift graphs.
    @pytest.mark.parametrize("search, lps", [
        (_document_search("fg_abelian_mixed.json", 2), 17),  # 38, 27
        (_document_search("fg_abelian_mixed.json", 3), 51),  # 233, 85
        (_document_search("catmap_z2.json", 3), 1),  # 1, 1
        (lambda: min_rank_bruteforce(Z1, [Z1.element((s,)) for s in (1, -1, 2, -2)], F(3, 4), 6), 7),  # 49, 11
        # 524 without the isolated-0 rule
        (lambda: min_rank_bruteforce(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(3, 4), 2), 492),  # 9837, 3085
    ], ids=["fg_abelian_mixed-r2", "fg_abelian_mixed-r3", "catmap_z2-r3", "z1-shifts12-r6-delta3/4",
            "z2-axes-r2-delta3/4"])
    def test_distinct_lp_count_pinned(self, monkeypatch, search, lps):
        assert self._lps_solved(monkeypatch, search) == lps

    @staticmethod
    def _forms_computed(monkeypatch):
        """Counts the `_shift_graph_form` calls made from now on, the
        isolated-zero rule's included: the returned list holds the count."""
        real = folner._shift_graph_form
        calls = [0]

        def counting(k, images):
            calls[0] += 1
            return real(k, images)

        monkeypatch.setattr(folner, "_shift_graph_form", counting)
        return calls

    # The comments give the calls before the translation prune (R1 and R2
    # of `_feasible_supports`), which walks each lattice-translation class
    # of supports once. Z^2 at radius 3 is pinned in test_rank_golden.
    @pytest.mark.parametrize("search, forms", [
        (_document_search("fg_abelian_mixed.json", 8), 621),  # 2,109
        (lambda: min_rank_bruteforce(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(3, 4), 2), 4062),  # 9,874
    ], ids=["fg_abelian_mixed-r8", "z2-axes-r2-delta3/4"])
    def test_form_calls_pinned(self, monkeypatch, search, forms):
        calls = self._forms_computed(monkeypatch)
        search()
        assert calls == [forms]

    def test_no_state_carries_over_between_searches(self, monkeypatch):
        search = _document_search("fg_abelian_mixed.json", 3)
        first = self._lps_solved(monkeypatch, search)
        second = self._lps_solved(monkeypatch, search)
        assert first == second == 51


def _images(succ, support):
    """The images of a support, the search's first key: where each shift's
    image of each of its points lies inside it, -1 outside."""
    where = {p: j for j, p in enumerate(support)}
    return tuple(tuple(where.get(row[i], -1) for i in support) for row in succ)


def _relabelled(images, perm):
    """images with point i renamed perm[i]."""
    out = []
    for row in images:
        moved = [-1] * len(row)
        for i, j in enumerate(row):
            moved[perm[i]] = perm[j] if j >= 0 else -1
        out.append(tuple(moved))
    return tuple(out)


def _reversed_through(row, start):
    """row with its path or cycle through point start walked the other way."""
    back = folner._inverse_row(row)
    members, frontier = {start}, [start]
    while frontier:
        i = frontier.pop()
        for j in (row[i], back[i]):
            if j >= 0 and j not in members:
                members.add(j)
                frontier.append(j)
    return tuple(back[i] if i in members else j for i, j in enumerate(row))


def _lp_points(group, omega, radius):
    """The points, LP successor rows and run rows of min_rank_bruteforce."""
    n, rows = _numbered_ball(group, radius, omega)
    return (n, *folner._lp_rows(n, rows))


def _s3_points():
    """S3 as permutation tuples, numbered as min_rank_table numbers them,
    with rows for a transposition and a 3-cycle (both act in cycles)."""
    identity = (0, 1, 2)
    points = [identity, *sorted((g for g in itertools.permutations(range(3)) if g != identity), key=repr)]
    index = {g: i for i, g in enumerate(points)}
    shifts = [(1, 0, 2), (1, 2, 0)]
    return len(points), [[index[tuple(s[g[i]] for i in range(3))] for g in points] for s in shifts]


def _z6_points():
    """Z/6 with the shifts 1 and 5, numbered as min_rank_table numbers it."""
    return 6, [[(s + g) % 6 for g in range(6)] for s in (1, 5)]


def _ball_keys(problem, radius, max_k):
    """The images of every run-feasible support up to max_k points
    in the ball of min_rank_bruteforce."""
    group, omega, delta = problem()
    n, succ, run = _lp_points(group, omega, radius)
    windows = [_run_windows(n, succ[r], 2 // delta + 1) for r in run]
    return _all_images(n, succ, windows, max_k)


def _table_keys(points):
    """The images of every support of a finite group's table; its
    shifts act in cycles, so no run bound applies."""
    n, rows = points()
    succ, run = folner._lp_rows(n, rows)
    assert not run
    return _all_images(n, succ, [], n)


def _all_images(n, succ, windows, max_k):
    keys = set()
    for k in range(1, max_k + 1):
        for prefix, lasts in _feasible_supports(n, k, windows, _adjacent(n, succ)):
            keys.update(_images(succ, (*prefix, last)) for last in lasts)
    return keys


@functools.cache
def _min_defect_lp(k, images):
    """The reference LP of the k-point support with the given images
    (see `_images`), solved by the Fraction reference simplex: minimize the max
    translation defect t over its k weights, one slot u per overlap pair per
    shift with T_i - T_j - u <= 0 and T_j - T_i - u <= 0, sum T = 1, and
    each shift's row sum u + sum_solo T at most t. Returns the optimum and
    the optimal weights; cached, since several tests pose one ball's LPs."""
    structures = [folner._shift_structure(m) for m in images]
    t = k + sum(len(pairs) for pairs, _ in structures)
    ub = []
    slot = k
    for pairs, solo in structures:
        block = [0] * (t + 1)
        for i, j in pairs:
            up = [0] * (t + 1)
            up[i], up[j], up[slot] = 1, -1, -1
            down = [0] * (t + 1)
            down[i], down[j], down[slot] = -1, 1, -1
            ub += (up, down)
            block[slot] = 1
            slot += 1
        for i in solo:
            block[i] += 1
        block[t] = -1
        ub.append(block)
    eq = [[1] * k + [0] * (t + 1 - k)]
    result = reference_solve_lp([0] * t + [1], eq, [1], ub, [0] * len(ub), [])
    return result.value, result.x[:k]


def _structure_defect(structures, weights):
    """The defect of weights on a support, maximized over the shifts whose
    `_shift_structure`s are given."""
    return max(sum(abs(weights[i] - weights[j]) for i, j in pairs) + sum(weights[i] for i in solo)
               for pairs, solo in structures)


def _lp_structure(k, images):
    """What the LP of a support reads of its shift graph: for each point,
    each block's unordered pair of its image and preimage, -1 outside."""
    preimages = [folner._inverse_row(row) for row in images]
    return tuple(tuple(tuple(sorted((row[i], back[i]))) for row, back in zip(images, preimages))
                 for i in range(k))


def _moved(structure, perm, order):
    """An LP structure with point i renamed perm[i] and its blocks taken in
    the given order."""
    out = [None] * len(structure)
    for i, pairs in enumerate(structure):
        out[perm[i]] = tuple(tuple(sorted(perm[j] if j >= 0 else -1 for j in pairs[b])) for b in order)
    return tuple(out)


class TestShiftGraphForm:
    """The class memo is sound when equal forms pose LPs with one optimum:
    the form must not change under relabelling the points, permuting the
    blocks or reversing a path or cycle of one block, and must tell apart
    LPs that no such change maps onto each other."""

    @pytest.mark.parametrize("shifts, k", [
        (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
    ])
    def test_equal_forms_exactly_on_relabellings(self, shifts, k):
        # every graph of partial injections (cycles included) on k points,
        # no shift at all included, against a brute force over LP
        # structures: two graphs are in one class when a relabelling of the
        # points and a permutation of the blocks carry one's LP structure
        # onto the other's
        injections = [
            tuple(row) for row in itertools.product(range(-1, k), repeat=k)
            if len([j for j in row if j >= 0]) == len({j for j in row if j >= 0})
        ]
        perms = list(itertools.permutations(range(k)))
        orders = list(itertools.permutations(range(shifts)))
        classes = {}  # LP structure -> the number of its class
        forms = {}  # class -> the forms of its graphs
        for images in itertools.product(injections, repeat=shifts):
            structure = _lp_structure(k, images)
            if structure not in classes:
                number = len(forms)
                for perm in perms:
                    for order in orders:
                        classes[_moved(structure, perm, order)] = number
            forms.setdefault(classes[structure], set()).add(folner._shift_graph_form(k, images))
        assert all(len(found) == 1 for found in forms.values())
        assert len({f for found in forms.values() for f in found}) == len(forms)

    @pytest.mark.parametrize("points", [
        lambda: _lp_points(Z1, [Z1.element((s,)) for s in (1, 2)], 4)[:2],
        lambda: _lp_points(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], 1)[:2],
        lambda: _lp_points(ZC2, [ZC2.element((1,), (0,)), ZC2.element((0,), (1,))], 2)[:2],
        lambda: _lp_points(ZC2, [ZC2.element((1,), (1,))], 2)[:2],
        _s3_points,
    ], ids=["z", "z2", "zxz2", "zxz2-mixed", "s3-table"])
    def test_invariant_under_random_relabellings(self, points):
        # relabel the points, permute the blocks and reverse the path or
        # cycle of one block through one point
        n, succ = points()
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, min(n, 7))
            support = (0, *sorted(rng.sample(range(1, n), k - 1)))
            images = _images(succ, support)
            perm = list(range(k))
            rng.shuffle(perm)
            moved = list(_relabelled(images, perm))
            rng.shuffle(moved)
            b = rng.randrange(len(moved))
            moved[b] = _reversed_through(moved[b], rng.randrange(k))
            assert folner._shift_graph_form(k, moved) == folner._shift_graph_form(k, images)

    @pytest.mark.parametrize("problem, radius, max_k", [
        (lambda: _document_problem("fg_abelian_mixed.json"), 3, 9),
        (lambda: (Z1, [Z1.element((s,)) for s in (1, -1, 2, -2)], F(3, 4)), 6, 6),
        (lambda: (Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(3, 4)), 1, 9),
    ], ids=["fg_abelian_mixed-r3", "z1-shifts12-r6", "z2-axes-r1"])
    def test_equal_forms_have_equal_optima(self, problem, radius, max_k):
        optima = {}
        keys = _ball_keys(problem, radius, max_k)
        for images in keys:
            k = len(images[0])
            optimum, _ = _min_defect_lp(k, images)
            optima.setdefault(folner._shift_graph_form(k, images), set()).add(optimum)
        assert all(len(found) == 1 for found in optima.values())
        assert len(optima) < len(keys)


class TestIsolatedZero:
    """A support whose point 0 no shift links to a point of it is rejected
    without an LP when its form without 0 was rejected."""

    # the supports of size at least 2, with no run bound, where 0 has no link
    FIRES = {"z-unit": 15, "z-unit-and-two": 24, "z2-axes": 0, "z2-non-axis": 179,
             "zxz2-lattice": 11, "zxz2-mixed": 21, "no-run-shifts": 0}

    @pytest.mark.parametrize(
        "case, group, radius, shifts, max_k", RUN_GENERATOR_CASES, ids=[case[0] for case in RUN_GENERATOR_CASES]
    )
    def test_rule_needs_point_zero_without_links(self, case, group, radius, shifts, max_k):
        n, succ = _numbered_ball(group, radius, shifts)
        fired = 0
        for k in range(1, max_k + 1):
            for prefix, lasts in _feasible_supports(n, k, [], _adjacent(n, succ)):
                for last in lasts:
                    support = (*prefix, last)
                    members = set(support)
                    linked = any(row[0] in members or any(row[q] == 0 for q in members) for row in succ)
                    rest = folner._without_isolated_zero(k, _images(succ, support), 0)
                    if linked or k == 1:
                        assert rest is None
                    else:
                        fired += 1
                        assert tuple(map(tuple, rest)) == _images(succ, support[1:])
        assert fired == self.FIRES[case]

    def test_certificates_stay_the_same(self, monkeypatch):
        # the rule fires on 54 supports at the document radius. Rule R2 of
        # the translation prune skips most of them before the rule is read,
        # so the counterfactual switches both off
        search = _document_search("fg_abelian_mixed.json", 8)
        cert = search()
        assert TestLpMemo._lps_solved(monkeypatch, search) == 140
        monkeypatch.setattr(folner, "_without_isolated_zero", lambda k, images, zero: None)
        assert TestLpMemo._lps_solved(monkeypatch, search) == 152
        monkeypatch.setattr(folner, "_Translates", None)
        plain = search()
        assert (plain, plain.defect_exact) == (cert, cert.defect_exact)
        assert TestLpMemo._lps_solved(monkeypatch, search) == 194

    @pytest.mark.parametrize("seed", range(4))
    def test_rule_reads_the_identity_where_it_lies(self, seed):
        # the images of a support read in any order: the rule drops the
        # identity wherever it lies, and agrees with the reading 0 first
        n, succ = _numbered_ball(ZC2, 2, [ZC2.element((1,), (0,)), ZC2.element((2,), (1,))])
        rng = random.Random(seed)
        for _ in range(200):
            k = rng.randint(1, 6)
            support = (0, *sorted(rng.sample(range(1, n), k - 1)))
            read = rng.sample(support, k)
            rest = folner._without_isolated_zero(k, _images(succ, read), read.index(0))
            first = folner._without_isolated_zero(k, _images(succ, support), 0)
            assert (rest is None) == (first is None)
            if rest is not None:
                assert tuple(map(tuple, rest)) == _images(succ, [p for p in read if p])


class TestDecisionLp:
    """The search rejects a class when the maximum M of its one-row LP has
    M * delta <= 1, and takes the witness of the class it accepts from the
    two-row form of the same LP, whose maximum is M too. Both forms and the
    reference min-defect LP are positively homogeneous, so the reference
    optimum is 1 / M, reached by the LP's vertex over M, and 0 exactly when
    the LP is unbounded."""

    GRID = 2520  # the deltas beside each optimum are multiples of 1 / GRID

    @pytest.mark.parametrize("keys, unbounded", [
        (lambda: _ball_keys(lambda: _document_problem("fg_abelian_mixed.json"), 3, 9), 0),
        (lambda: _ball_keys(lambda: (Z1, [Z1.element((s,)) for s in (1, -1, 2, -2)], F(3, 4)), 6, 6), 0),
        (lambda: _table_keys(_z6_points), 1),
        (lambda: _table_keys(_s3_points), 1),
    ], ids=["fg_abelian_mixed-r3", "z1-shifts12-r6", "z6-table", "s3-table"])
    def test_decision_agrees_with_the_reference_optimum(self, keys, unbounded):
        seen = 0
        for images in keys():
            k = len(images[0])
            structures = [folner._shift_structure(m) for m in images]
            optimum, _ = _min_defect_lp(k, images)
            decided = folner._max_mass_lp(k, structures, one_row=True)
            found = folner._max_mass_lp(k, structures)
            assert (decided is None) == (found is None)
            if found is None:
                seen += 1
                mass, weights = folner._max_mass_lp(k, structures, zero_defect=True)
                assert mass == sum(weights) == 1
                assert optimum == 0 == _structure_defect(structures, weights)
            else:
                most, vertex = found
                assert decided[0] == most
                assert optimum == 1 / most == _structure_defect(structures, [w / most for w in vertex])
                # the one-row vertex is an optimal weighting too, if maybe another one
                assert optimum == _structure_defect(structures, [w / most for w in decided[1]])
            below = F(math.ceil(optimum * self.GRID) - 1, self.GRID)
            above = F(math.floor(optimum * self.GRID) + 1, self.GRID)
            for delta in (optimum, below, above):
                if delta > 0:
                    assert (decided is None or decided[0] * delta > 1) == (optimum < delta)
        assert seen == unbounded

    @pytest.mark.parametrize("seed", range(6))
    def test_forms_agree_on_seeded_images(self, seed):
        # Each block is a random permutation of the k points, cut into
        # cycles of random lengths (fixed points, swaps, the cycles of a
        # torsion shift), with each link dropped to -1 with some chance,
        # which turns a cycle into paths leaving the support.
        rng = random.Random(500 + seed)
        seen = {"unbounded": 0, "swap": 0, "fixed": 0}
        for _ in range(150):
            k = rng.randint(1, 8)
            images = []
            for _ in range(rng.randint(1, 3)):
                points = rng.sample(range(k), k)
                drop = rng.choice((0, 0.2, 0.5))
                row = [-1] * k
                while points:
                    cycle = points[:rng.choice((1, 2, 2, 3, k))]
                    points = points[len(cycle):]
                    seen["fixed"] += len(cycle) == 1
                    seen["swap"] += len(cycle) == 2
                    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                        row[i] = -1 if rng.random() < drop else j
                images.append(tuple(row))
            structures = [folner._shift_structure(m) for m in images]
            decided = folner._max_mass_lp(k, structures, one_row=True)
            found = folner._max_mass_lp(k, structures)
            assert (decided is None) == (found is None)
            if found is None:
                seen["unbounded"] += 1
            else:
                assert decided[0] == found[0]
        assert min(seen.values()) > 0

    def test_witness_lp_must_reach_the_decided_maximum(self, monkeypatch):
        real = folner._max_mass_lp

        def skewed(k, structures, zero_defect=False, one_row=False):
            found = real(k, structures, zero_defect, one_row)
            return found if found is None or one_row else (found[0] + 1, found[1])

        monkeypatch.setattr(folner, "_max_mass_lp", skewed)
        with pytest.raises(folner.InternalInvariantError,
                           match=r"^witness LP disagrees with decision LP maximum 5/2$"):
            min_rank_bruteforce(Z1, [Z1.element((1,))], F(1, 2), 8)

    @staticmethod
    def _corrupt(monkeypatch, moved):
        """Makes the search's witness LP return a vertex with the share
        `moved` of its first weight shifted onto its second."""
        real = folner._max_mass_lp

        def corrupted(k, structures, zero_defect=False, one_row=False):
            found = real(k, structures, zero_defect, one_row)
            if found is None or k < 2 or one_row:
                return found  # the decision reads only the maximum
            most, (first, second, *rest) = found
            return most, (first * (1 - moved), second + first * moved, *rest)

        monkeypatch.setattr(folner, "_max_mass_lp", corrupted)

    # Both searches accept uniform weights on three or five points; moving
    # half a weight changes the defect, and moving all of it leaves a zero
    # weight, which the search blends away.
    @pytest.mark.parametrize("moved, message", [
        (F(1, 2), r"^witness defect 3/5 disagrees with LP optimum 2/5$"),
        (F(1), r"^blended witness defect 79/100 is not below delta 1/2$"),
    ], ids=["shifted", "pooled"])
    def test_corrupted_vertex_is_caught_in_the_lattice_search(self, monkeypatch, moved, message):
        self._corrupt(monkeypatch, moved)
        with pytest.raises(folner.InternalInvariantError, match=message):
            min_rank_bruteforce(Z1, [Z1.element((1,))], F(1, 2), 8)

    @pytest.mark.parametrize("moved, message", [
        (F(1, 2), r"^witness defect 1 disagrees with LP optimum 2/3$"),
        (F(1), r"^blended witness defect 23/18 is not below delta 1$"),
    ], ids=["shifted", "pooled"])
    def test_corrupted_vertex_is_caught_in_the_table_search(self, monkeypatch, moved, message):
        self._corrupt(monkeypatch, moved)
        # 0..4 in Z/6: the shift 1 leaves the elements after 4
        with pytest.raises(folner.InternalInvariantError, match=message):
            min_rank_table(range(5), lambda a, b: (a + b) % 6, 0, [1], F(1))


ZC3 = FgAbelianGroup(1, (3,))


def _element_rule(omega):
    """The LP shifts and run rows chosen from the elements themselves: first
    occurrences in omega order, the zero shift dropped, s and -s sharing one
    block, and the run bound along the shifts with a nonzero lattice part."""
    kept, seen = [], set()
    for s in omega:
        if not s.is_zero() and s not in seen:
            kept.append(s)
            seen.update((s, -s))
    return kept, [r for r, s in enumerate(kept) if any(s.lattice)]


def _support_lp(succ, support):
    return _min_defect_lp(len(support), _images(succ, support))


def _unpruned_scan(n, succ, delta):
    """Every support (0, *combo) by size and then lex order, each with its
    own exact LP: the first whose optimum is below delta, or None."""
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(1, n), k - 1):
            optimum, weights = _support_lp(succ, (0, *combo))
            if optimum < delta:
                return k, (0, *combo), optimum, tuple(weights)
    return None


# (id, group, radius, shifts as (lattice, torsion)): zero shifts, repeats,
# mirror pairs, pure-torsion and mixed shifts
ROW_RULE_CASES = [
    ("z", Z1, 3, [((0,), ()), ((1,), ()), ((2,), ()), ((1,), ()), ((-1,), ()), ((-2,), ()), ((3,), ())]),
    ("z2", Z2, 2, [((0, 0), ()), ((1, 0), ()), ((0, 1), ()), ((-1, 0), ()), ((1, 1), ()),
                   ((0, 1), ()), ((-1, -1), ()), ((2, -1), ())]),
    ("zxz2", ZC2, 2, [((1,), (0,)), ((0,), (1,)), ((0,), (0,)), ((1,), (1,)), ((-1,), (1,)),
                      ((0,), (1,)), ((-1,), (0,))]),
    ("zxz3", ZC3, 2, [((0,), (1,)), ((0,), (2,)), ((1,), (2,)), ((-1,), (1,)), ((0,), (0,)),
                      ((2,), (0,)), ((1,), (2,)), ((0,), (1,))]),
]


class TestRowRule:
    """The search picks its LP rows and run rows from the successor rows
    alone; on balls that is the choice the elements dictate, and where a
    candidate pool or a partial table cuts a cycle the run bound it adds
    removes only supports that the LP would reject."""

    @pytest.mark.parametrize(
        "group, radius, shifts",
        [case[1:] for case in ROW_RULE_CASES],
        ids=[case[0] for case in ROW_RULE_CASES],
    )
    def test_row_filter_matches_the_element_rule(self, group, radius, shifts):
        rng = random.Random(11)
        omega = [group.element(*s) for s in shifts]
        for _ in range(20):
            n, rows = _numbered_ball(group, radius, omega)
            kept, run = _element_rule(omega)
            assert folner._lp_rows(n, rows) == (list(map(tuple, _numbered_ball(group, radius, kept)[1])), run)
            rng.shuffle(omega)

    def _pruned_supports_are_rejected(self, n, lp_rows, run, delta, rank):
        windows = [_run_windows(n, lp_rows[r], 2 // delta + 1) for r in run]
        left_out = 0
        for k in range(1, rank + 1):
            generated = {(*prefix, last) for prefix, lasts in _feasible_supports(n, k, windows, _adjacent(n, lp_rows)) for last in lasts}
            for combo in itertools.combinations(range(1, n), k - 1):
                if (0, *combo) not in generated:
                    left_out += 1
                    assert _support_lp(lp_rows, (0, *combo))[0] >= delta
        assert left_out > 0

    @pytest.mark.parametrize("shifts, delta", [
        ([((0,), (1,))], F(3, 2)),
        ([((1,), (0,)), ((0,), (1,)), ((0,), (2,))], F(3, 2)),
        ([((0,), (1,)), ((1,), (1,)), ((-1,), (2,))], F(7, 4)),
    ], ids=["torsion", "axes-and-mirror", "torsion-and-mixed"])
    def test_pool_cutting_a_torsion_cycle(self, shifts, delta):
        # Z x Z/3 without torsion 2: every (0, 1) orbit is cut after two points
        pool = [ZC3.element((a,), (t,)) for a in range(-2, 3) for t in (0, 1)]
        omega = [ZC3.element(*s) for s in shifts]
        points, rows = _numbered_pool(pool, omega)
        n = len(points)
        lp_rows, run = folner._lp_rows(n, rows)
        kept, element_run = _element_rule(omega)
        assert lp_rows == list(map(tuple, _numbered_pool(pool, kept)[1]))
        assert len(run) == len(lp_rows) > len(element_run)  # the cut torsion row gets the run bound
        k, support, optimum, weights = _unpruned_scan(n, lp_rows, delta)
        self._pruned_supports_are_rejected(n, lp_rows, run, delta, k)
        cert = min_rank_bruteforce(ZC3, omega, delta, 2, candidates=pool)
        assert cert.rank == k
        assert cert.witness.value_map() == {points[i]: w for i, w in zip(support, weights)}
        assert cert.defect_exact == optimum

    @pytest.mark.parametrize("elements, omega, delta", [
        (range(4), [1, 5, 0], F(3, 4)),
        (range(5), [0, 2, 1, 4], F(1)),
        (range(5), [3, 1], F(1)),
    ], ids=["chain", "two-chains", "cycles-and-chain"])
    def test_partial_cyclic_table(self, elements, omega, delta):
        # elements of Z/6 that are not closed under the shifts
        points = list(elements)
        rows = [[points.index((s + g) % 6) if (s + g) % 6 in points else -1 for g in points] for s in omega]
        n = len(points)
        lp_rows, run = folner._lp_rows(n, rows)
        kept = []
        for s in omega:
            if s and s not in kept and -s % 6 not in kept:
                kept.append(s)
        assert lp_rows == [tuple(rows[omega.index(s)]) for s in kept]
        assert run
        k, support, _, weights = _unpruned_scan(n, lp_rows, delta)
        self._pruned_supports_are_rejected(n, lp_rows, run, delta, k)
        rank, witness = min_rank_table(points, lambda a, b: (a + b) % 6, 0, omega, delta)
        assert rank == k
        assert witness == {points[i]: w for i, w in zip(support, weights)}


@pytest.mark.parametrize(
    "group, radius, shifts",
    [case[1:] for case in ROW_RULE_CASES],
    ids=[case[0] for case in ROW_RULE_CASES],
)
def test_rows_defect_matches_the_defect(group, radius, shifts):
    # the witness check of the pool search (`_pool_search`, behind both
    # min_rank_bruteforce and min_rank_table), on the witness's own support
    # in drawn order, against `defect` on random weightings, zero, repeated
    # and torsion shifts included
    rng = random.Random(5)
    omega = [group.element(*s) for s in shifts]
    points, _ = _numbered_pool(group.ball(radius), omega)
    for _ in range(50):
        support = rng.sample(range(len(points)), rng.randint(1, len(points)))
        raw = [rng.randint(1, 9) for _ in support]
        weights = [F(w, sum(raw)) for w in raw]
        witness = WeightedFunction(group, tuple(points[i] for i in support), tuple(weights))
        rows = folner._successor_rows([points[i] for i in support], operator.add, omega)
        assert folner._rows_defect(rows, weights) == defect(witness, omega)


# The code that `_successor_rows` and the position-indexed `_rows_defect`
# replaced, kept as references.


def _dict_rows_defect(rows, support, weights):
    """`_rows_defect` over a support of pool indices, its gaps in a dict
    keyed by index, -1 for weight leaving the pool."""
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    worst = 0
    for row in rows:
        gap = dict(zip(support, nums))
        for i, w in zip(support, nums):
            gap[row[i]] = gap.get(row[i], 0) - w
        worst = max(worst, sum(map(abs, gap.values())))
    return Fraction(worst, den)


def _indexed_defect(t, omega):
    """`defect` numbering the support in a dict of its own."""
    index = {e: i for i, e in enumerate(t.support)}
    rows = ([index.get(e + s, -1) for e in t.support] for s in omega)
    return _dict_rows_defect(rows, range(len(t.support)), t.weights)


def _value_map_overlap_check(t, h):
    """`sqrt_overlap_check` looking each g - h up in the value map."""
    val = t.value_map()
    overlap = 0.0
    for g, w in zip(t.support, t.weights):
        other = val.get(g - h)
        if other is not None:
            overlap += math.sqrt(float(w) * float(other))
    lhs = (1.0 - overlap) ** 2
    rhs = float(_indexed_defect(t, [h]))
    return lhs, rhs, lhs <= rhs + 1e-12


def _per_shift_tower_check(result, gamma, n, omega, base):
    """`convolution_tower`'s invariant with one defect, and one numbering of
    the result, per shift of omega, gamma(omega), ..., gamma^(n-1)(omega)."""
    layer = list(omega)
    for _ in range(n):
        for s in layer:
            d = _indexed_defect(result, [s])
            if d > base:
                raise InternalInvariantError(f"tower defect {d} exceeds base defect {base} at shift {s}")
        layer = [gamma.apply(s) for s in layer]


def _error(call):
    """The message of the InternalInvariantError that call raises, or None."""
    try:
        call()
    except InternalInvariantError as exc:
        return str(exc)
    return None


CROSS_ARMS = [((1, 0),), ((0, 1),)]


class TestOneNumbering:
    """Every computation on `_successor_rows` and `_rows_defect` against the
    code it replaced: exact defects equal, floats bit-identical, the same
    invariant failures with the same messages."""

    @pytest.mark.parametrize("rank, torsion", SEEDED_GROUPS)
    def test_overlap_matches_the_value_map_overlap(self, rank, torsion):
        for f, omega in _seeded_weightings(rank, torsion):
            for h in omega:
                assert sqrt_overlap_check(f, h) == _value_map_overlap_check(f, h), h

    @staticmethod
    def _tower_checks(monkeypatch, name, arms, shifts, depth, scale):
        """The messages of both checks on the uniform cross 0, +-arms under
        the example's automorphism, the base defect scaled by scale: scaled
        below 1, it plants failures."""
        doc = parse_spec(str(EXAMPLE_DIR / f"{name}.json"))
        g, gamma = doc.group, doc.automorphism
        arms = [g.element(*a) for a in arms]
        f = WeightedFunction.uniform(g, [g.zero(), *arms, *(-a for a in arms)])
        omega = [g.element(*s) for s in shifts]
        result = convolution_tower(f, gamma, depth)
        expected = _error(lambda: _per_shift_tower_check(
            result, gamma, depth, omega, _indexed_defect(f, omega) * scale))
        real_defect = folner.defect
        monkeypatch.setattr(folner, "defect", lambda t, omega: real_defect(t, omega) * scale)
        return _error(lambda: convolution_tower(f, gamma, depth, omega=omega)), expected

    @pytest.mark.parametrize("scale", [F(1), F(9, 10), F(2, 3), F(1, 3)])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("name, arms, shifts", [
        ("catmap_z2", CROSS_ARMS, [((1, 0),), ((0, 1),), ((-1, 0),), ((0, -1),)]),
        ("catmap_z2", CROSS_ARMS, [((1, 0),), ((-1, 0),)]),
        ("fg_abelian_mixed", [((0,), (1,)), ((1,), (0,))], [((0,), (1,)), ((1,), (0,))]),
    ], ids=["cat-cross", "cat-axis", "torsion"])
    def test_tower_check_matches_the_per_shift_check(self, monkeypatch, name, arms, shifts, depth, scale):
        got, expected = self._tower_checks(monkeypatch, name, arms, shifts, depth, scale)
        assert got == expected
        if scale == 1:
            assert expected is None

    def test_planted_failure_in_the_last_layer(self, monkeypatch):
        # at depth 3 the cat map's axis shifts have tower defects 78/125,
        # 66/125 and 22/25 by layer, so a base of 2/3 * 6/5 = 4/5 first
        # fails at gamma^2 (1, 0) = (5, 3)
        got, expected = self._tower_checks(
            monkeypatch, "catmap_z2", CROSS_ARMS, [((1, 0),), ((-1, 0),)], 3, F(2, 3))
        assert got == expected
        assert got.startswith("tower defect 22/25 exceeds base defect 4/5 at shift ")
        assert "lattice=(5, 3)" in got

    @pytest.mark.parametrize(
        "group, radius, shifts",
        [case[1:] for case in ROW_RULE_CASES],
        ids=[case[0] for case in ROW_RULE_CASES],
    )
    def test_witness_check_matches_the_pool_rows(self, group, radius, shifts):
        # the witness's own rows against the pool's rows, on random sorted
        # supports of pool indices as `_search_supports` returns them
        rng = random.Random(13)
        omega = [group.element(*s) for s in shifts]
        points, rows = _numbered_pool(group.ball(radius), omega)
        for _ in range(50):
            support = sorted(rng.sample(range(len(points)), rng.randint(1, len(points))))
            weights = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in support]
            weights = [w / sum(weights) for w in weights]
            own = folner._successor_rows([points[i] for i in support], operator.add, omega)
            assert folner._rows_defect(own, weights) == _dict_rows_defect(rows, support, weights)

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_check_matches_the_table_rows(self, seed):
        # S3, whole or cut to a partial table, by left multiplication
        rng = random.Random(400 + seed)
        elements = list(itertools.permutations(range(3)))
        points = [elements[0], *rng.sample(elements[1:], rng.randint(1, 5))]
        omega = rng.sample(elements, rng.randint(1, 3))
        rows = [[points.index(_s3_multiply(s, g)) if _s3_multiply(s, g) in points else -1 for g in points]
                for s in omega]
        for _ in range(20):
            support = sorted(rng.sample(range(len(points)), rng.randint(1, len(points))))
            weights = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in support]
            weights = [w / sum(weights) for w in weights]
            own = folner._successor_rows([points[i] for i in support], _s3_multiply, omega)
            assert folner._rows_defect(own, weights) == _dict_rows_defect(rows, support, weights)


def _reference_search(n, rows, delta):
    """The rank search with no run bound, memo or pruning: every support
    (0, *combo) by size and then lex order, each with its own exact LP over
    the search's LP rows, the first whose optimum is below delta, with the
    weights made positive as the search makes them; or None."""
    found = _unpruned_scan(n, folner._lp_rows(n, rows)[0], delta)
    if found is None or all(w > 0 for w in found[3]):
        return found
    k, support, optimum, weights = found
    eps = (delta - optimum) / 4
    return k, support, None, tuple((1 - eps) * w + eps / k for w in weights)


REFERENCE_DELTAS = (F(1, 2), F(2, 3), F(3, 4), F(1), F(4, 3), F(3, 2), F(2))


def _seeded_shifts(rng, group, choices):
    """One to three of choices as elements, each with a random sign."""
    picked = rng.sample(choices, rng.randint(1, 3))
    return [group.element(*s) if rng.random() < 0.5 else -group.element(*s) for s in picked]


# (id, group, radius, shift choices as (lattice, torsion))
REFERENCE_CASES = [
    ("z", Z1, 3, [((1,), ()), ((2,), ()), ((3,), ()), ((0,), ())]),
    ("z2-non-axis", Z2, 1, [((1, 0), ()), ((0, 1), ()), ((1, 1), ()), ((1, -1), ()), ((2, 1), ())]),
    ("zxz2-torsion", ZC2, 2, [((1,), (0,)), ((0,), (1,)), ((1,), (1,)), ((2,), (1,))]),
]


def _s3_multiply(a, b):
    return tuple(a[b[i]] for i in range(3))


class TestReferenceSearch:
    """The pruned core against a search that prunes nothing: on seeded
    small instances both return the same (k, support, optimum, weights)."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "group, radius, choices",
        [case[1:] for case in REFERENCE_CASES],
        ids=[case[0] for case in REFERENCE_CASES],
    )
    def test_balls(self, group, radius, choices, seed):
        rng = random.Random(seed)
        omega = _seeded_shifts(rng, group, choices)
        delta = rng.choice(REFERENCE_DELTAS)
        points, rows = _numbered_pool(group.ball(radius), omega)
        found = _reference_search(len(points), rows, delta)
        assert folner._search_supports(len(points), rows, delta) == found
        assert folner._search_supports(len(points), rows, delta, folner._Translates(points)) == found

    @pytest.mark.parametrize("seed", range(12))
    def test_candidate_pool(self, seed):
        rng = random.Random(100 + seed)
        others = [e for e in Z2.ball(2) if not e.is_zero()]
        pool = [Z2.zero(), *rng.sample(others, 9)]
        omega = _seeded_shifts(rng, Z2, REFERENCE_CASES[1][3])
        delta = rng.choice(REFERENCE_DELTAS)
        points, rows = _numbered_pool(pool, omega)
        found = _reference_search(len(points), rows, delta)
        assert folner._search_supports(len(points), rows, delta) == found
        assert folner._search_supports(len(points), rows, delta, folner._Translates(points)) == found
        if found is not None:
            cert = min_rank_bruteforce(Z2, omega, delta, 2, candidates=pool)
            assert cert.rank == found[0]
            assert cert.witness.value_map() == {points[i]: w for i, w in zip(found[1], found[3])}

    @pytest.mark.parametrize("seed", range(12))
    def test_partial_injections(self, seed):
        # rows that no group gives: fixed points, cycles and chains mixed
        rng = random.Random(300 + seed)
        n = 7
        rows = []
        for _ in range(rng.randint(1, 2)):
            row = list(range(n)) if rng.random() < 0.3 else rng.sample(range(n), n)
            rows.append([j if rng.random() < 0.7 else -1 for j in row])
        delta = rng.choice(REFERENCE_DELTAS)
        assert folner._search_supports(n, rows, delta) == _reference_search(n, rows, delta)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("table", ["z6", "s3"])
    def test_tables(self, table, seed):
        rng = random.Random(200 + seed)
        if table == "z6":
            elements, multiply, identity = list(range(6)), lambda a, b: (a + b) % 6, 0
        else:
            elements, multiply, identity = list(itertools.permutations(range(3))), _s3_multiply, (0, 1, 2)
        omega = rng.sample(elements, rng.randint(1, 3))
        delta = rng.choice(REFERENCE_DELTAS)
        points = [identity, *sorted((g for g in elements if g != identity), key=repr)]
        rows = [[points.index(multiply(s, g)) for g in points] for s in omega]
        k, support, _, weights = _reference_search(len(points), rows, delta)
        rank, witness = min_rank_table(elements, multiply, identity, omega, delta)
        assert rank == k
        assert witness == {points[i]: w for i, w in zip(support, weights)}


# (id, group, largest radius, shift choices as (lattice, torsion))
TRANSLATION_CASES = [
    ("z", Z1, 3, [((1,), ()), ((2,), ()), ((3,), ())]),
    ("z2", Z2, 2, [((1, 0), ()), ((0, 1), ()), ((1, 1), ()), ((1, -1), ()), ((2, 1), ())]),
    ("zxz2", ZC2, 3, [((1,), (0,)), ((0,), (1,)), ((1,), (1,)), ((2,), (1,))]),
    ("zxz3", ZC3, 3, [((1,), (0,)), ((0,), (1,)), ((1,), (1,)), ((1,), (2,))]),
]


def _seeded_automorphism(group, rng):
    """Three seeded unit row operations on Z^2 (perfbench's coordinate
    change); on Z and Z x Z/d a sign, and on Z x Z/d a unit of Z/d on the
    torsion and a seeded mixing."""
    if group.rank == 2:
        m = [[1, 0], [0, 1]]
        for _ in range(3):
            i = rng.randrange(2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[1 - i])]
        return AbelianAutomorphism.from_matrix(group, m)
    sign = [[rng.choice((-1, 1))]]
    if not group.torsion:
        return AbelianAutomorphism.from_matrix(group, sign)
    (d,) = group.torsion
    unit = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1])
    return AbelianAutomorphism.build(group, sign, {(t,): (unit * t % d,) for t in range(d)}, [[rng.randrange(d)]])


def _moved_problem(name, group, largest, choices, delta, seed):
    """A seeded search on group: one or two of choices as shifts, each with
    a random sign, at a radius from 2 to largest, with the shifts and the
    ball moved by a seeded automorphism. On Z^2 at delta = 1/2 one shift
    only: two independent shifts need a run of five along each, and that
    search is the rank frontier (ROADMAP item 15), a minute at radius 2."""
    rng = random.Random(f"{name}-{delta}-{seed}")
    picked = rng.sample(choices, 1 if (name, delta) == ("z2", F(1, 2)) else rng.randint(1, 2))
    shifts = [group.element(*s) if rng.random() < 0.5 else -group.element(*s) for s in picked]
    radius = rng.randint(2, largest)
    phi = _seeded_automorphism(group, rng)
    return [phi.apply(s) for s in shifts], radius, [phi.apply(e) for e in group.ball(radius)]


class TestTranslationPrune:
    """The lattice search walks each lattice-translation class of supports
    once; with the translation data switched off it walks every support.
    Both must give the same certificate, or both exhaust the pool, after
    the same decision LPs."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("delta", [F(3, 2), F(1), F(3, 4), F(1, 2)], ids=str)
    @pytest.mark.parametrize("case", TRANSLATION_CASES, ids=[case[0] for case in TRANSLATION_CASES])
    def test_same_certificate_and_lps_with_and_without(self, monkeypatch, case, delta, seed):
        group = case[1]
        omega, radius, candidates = _moved_problem(*case, delta, seed)
        found = []

        def search():
            try:
                cert = min_rank_bruteforce(group, omega, delta, radius, candidates=candidates)
            except RankSearchExhausted:
                found.append(None)
            else:
                found.append((cert.rank, cert.witness.support, cert.witness.weights, cert.defect_exact))

        on = TestLpMemo._lps_solved(monkeypatch, search, compare=False)
        monkeypatch.setattr(folner, "_Translates", None)
        off = TestLpMemo._lps_solved(monkeypatch, search, compare=False)
        assert found[0] == found[1]
        assert on == off

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("group", [Z1, Z2, ZC2, ZC3, FgAbelianGroup(2, (2, 3)), FgAbelianGroup(0, (4, 6))],
                             ids=["z", "z2", "zxz2", "zxz3", "z2xz2xz3", "z4xz6"])
    def test_translates_match_the_group(self, group, seed):
        # the bitmasks built from integer codes against the group's
        # subtraction, on a ball and on a seeded sample of it, which is
        # not symmetric in general
        rng = random.Random(seed)
        ball = group.ball(2)
        others = [e for e in ball if not e.is_zero()]
        pool = ball if seed == 0 else [group.zero(), *rng.sample(others, len(others) // 2)]
        points, _ = _numbered_pool(pool, [])
        translates = folner._Translates(points)
        members = set(points)
        for y, b in enumerate(points):
            assert translates.into[y] == sum(1 << i for i, a in enumerate(points) if a - b in members)
            assert translates.onto[y] == sum(1 << i for i, a in enumerate(points) if b - a in members)
        assert translates.ahead == sum(1 << i for i, a in enumerate(points) if a.lattice > (0,) * group.rank)
        assert translates.zero == sum(a.key() < group.zero().key() for a in points)


class TestMinRankTable:
    def test_cyclic_group_full_average(self):
        # on Z/4 with a generating shift, averaging over the whole group is
        # the only way below 1/2
        elems = list(range(4))
        mul = lambda a, b: (a + b) % 4
        rank, weights = min_rank_table(elems, mul, 0, [1], F(1, 2))
        assert rank == 4
        assert set(weights.values()) == {F(1, 4)}

    def test_loose_delta_needs_nothing(self):
        elems = list(range(4))
        mul = lambda a, b: (a + b) % 4
        rank, weights = min_rank_table(elems, mul, 0, [1], F(5, 2))
        assert rank == 1

    def test_full_group_average_is_invariant(self):
        # averaging over the whole finite group always reaches defect 0
        elems = list(range(3))
        mul = lambda a, b: (a + b) % 3
        rank, _ = min_rank_table(elems, mul, 0, [1], F(1, 10))
        assert rank == 3

    def test_missing_identity_is_adjoined(self):
        # 1..4 in Z/6 with 0 adjoined: the run 0..4 along the shift 1
        rank, weights = min_rank_table([1, 2, 3, 4], lambda a, b: (a + b) % 6, 0, [1], F(1, 2))
        assert rank == 5
        assert weights == {g: F(1, 5) for g in range(5)}

    def test_pool_that_is_not_a_group_is_exhausted(self):
        # 0..4 in Z/6: the shift 1 leaves the pool after 4, so every support
        # holds a run of at most 5 points and pays at least 2/5 along it
        with pytest.raises(
            RankSearchExhausted,
            match=r"^no support of size <= 5 in the pool of elements achieves defect < 1/10$",
        ):
            min_rank_table(range(5), lambda a, b: (a + b) % 6, 0, [1], F(1, 10))

    @pytest.mark.parametrize("n", (3, 4, 6))
    @pytest.mark.parametrize("delta", (F(1, 2), F(1), F(3, 2)))
    def test_agrees_with_bruteforce_on_cyclic_groups(self, n, delta):
        # the radius-1 ball of Z/n is all of Z/n
        table_rank, _ = min_rank_table(
            list(range(n)), lambda a, b: (a + b) % n, 0, [1, n - 1], delta
        )
        g = FgAbelianGroup(0, (n,))
        omega = [g.element((), (1,)), g.element((), (n - 1,))]
        assert table_rank == min_rank_bruteforce(g, omega, delta, 1).rank


class TestFolnerConstructions:
    def test_choose_folner_constant_oracles(self):
        assert choose_folner_constant(1, 0.5) == 12
        assert choose_folner_constant(1, 0.1) == 60
        assert choose_folner_constant(2, 0.5) == 22
        assert choose_folner_constant(2, 0.1) == 118

    def test_choose_folner_constant_definition(self):
        for p in (1, 2, 3):
            for delta in (F(1, 2), F(1, 10)):
                c = choose_folner_constant(p, delta)
                target = 1 - delta / 2
                assert F(c - 2, c + 1) ** p > target
                assert F(c - 3, c) ** p <= target or c == 4

    def test_interval_folner_defect(self, z1):
        f = interval_folner(12)
        assert len(f.support) == 25
        assert defect(f, [z1.element((1,))]) == F(2, 25)

    def test_parallelepiped_membership(self):
        chi = Parallelepiped(((F(1), F(0)), (F(0), F(1))), F(1))
        assert chi.contains((1, 1))
        assert not chi.contains((2, 0))
        assert chi.contains((2, 0), scale=F(2))

    def test_parallelepiped_skew_coordinates(self):
        chi = Parallelepiped(((F(1), F(1)), (F(0), F(1))), F(1))
        # (1, 1) is the first basis vector itself
        assert chi.coordinates((1, 1)) == (F(1), F(0))
        assert chi.contains((1, 1))

    def test_parallelepiped_lattice_points(self):
        chi = Parallelepiped(((F(1), F(0)), (F(0), F(1))), F(1))
        pts = chi.lattice_points()
        assert len(pts) == 9

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            Parallelepiped(((F(1), F(1)), (F(2), F(2))), F(1))

    def test_parallelepiped_folner_needs_unit_cube(self):
        thin = Parallelepiped(((F(1, 3), F(0)), (F(0), F(1))), F(1))
        with pytest.raises(DegenerateBasisError):
            parallelepiped_folner(thin, 5)

    def test_parallelepiped_folner_cube_counts(self):
        chi = Parallelepiped(((F(1), F(0)), (F(0), F(1))), F(1))
        f = parallelepiped_folner(chi, 3)
        assert len(f.support) == 49

    def test_symmetric_difference_ratio(self):
        pts = [(i,) for i in range(10)]
        assert symmetric_difference_ratio(pts, (1,)) == F(2, 10)
        assert symmetric_difference_ratio(pts, (0,)) == 0


def _fraction_inverse(rows):
    """Gauss-Jordan elimination over the rationals: the reference inverse
    the Smith-form one is checked against."""
    n = len(rows)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


class _FractionParallelepiped:
    """The Fraction Parallelepiped that the integer one replaced, kept as a
    reference: the inverse basis matrix in Fractions, membership by
    comparing each coordinate with t * scale."""

    def __init__(self, basis, t):
        p = len(basis)
        self.basis = [[F(x) for x in v] for v in basis]
        self.t = F(t)
        self.inverse = _fraction_inverse([[self.basis[i][j] for i in range(p)] for j in range(p)])

    def coordinates(self, x):
        xs = [F(v) for v in x]
        return tuple(sum(row[j] * xs[j] for j in range(len(xs))) for row in self.inverse)

    def contains(self, x, scale=F(1)):
        return all(abs(c) <= self.t * scale for c in self.coordinates(x))

    def includes_unit_cube(self):
        return all(sum(abs(c) for c in row) <= 1 for row in self.inverse)

    def lattice_points(self, scale=F(1)):
        bound = self.t * scale
        box = []
        for j in range(len(self.basis)):
            reach = math.floor(bound * sum(abs(v[j]) for v in self.basis))
            box.append(range(-reach, reach + 1))
        return [x for x in itertools.product(*box) if self.contains(x, scale)]


class TestIntegerParallelepiped:
    """The integer Parallelepiped against the Fraction reference on seeded
    rational bases in dimensions 1 to 3, t != 1 and rational scales."""

    @staticmethod
    def _cases(p, count):
        rng = random.Random(p)
        cases = []
        while len(cases) < count:
            basis = tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)) for _ in range(p))
            t = F(rng.choice((1, 2, 4, 5, 7, 8)), rng.choice((3, 6)))  # never 1
            scale = F(rng.randint(1, 5), rng.randint(1, 4))
            reach = [math.floor(t * scale * sum(abs(v[j]) for v in basis)) for j in range(p)]
            if math.prod(2 * r + 1 for r in reach) <= 2000:  # keeps the box listing small
                cases.append((basis, t, scale))
        return cases

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_the_fraction_parallelepiped(self, p):
        rng = random.Random(100 + p)
        degenerate = 0
        for basis, t, scale in self._cases(p, 60):
            try:
                ref = _FractionParallelepiped(basis, t)
            except NotInvertibleError:
                degenerate += 1
                with pytest.raises(DegenerateBasisError):
                    Parallelepiped(basis, t)
                continue
            chi = Parallelepiped(basis, t)
            assert chi.t == t != 1
            assert chi.includes_unit_cube() == ref.includes_unit_cube()
            assert chi.lattice_points(scale) == ref.lattice_points(scale), (basis, t, scale)
            assert chi.lattice_points() == ref.lattice_points()
            for _ in range(30):
                x = tuple(rng.randint(-6, 6) for _ in range(p))
                y = tuple(F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(p))
                for z in (x, y):
                    assert chi.coordinates(z) == ref.coordinates(z)
                    assert all(type(c) is Fraction for c in chi.coordinates(z))
                    assert chi.contains(z, scale) == ref.contains(z, scale)
                    assert chi.contains(z) == ref.contains(z)
        assert 0 < degenerate or p == 1


class TestFolnerSetsMeetDelta:
    @pytest.mark.parametrize("delta", (0.5, 0.1))
    def test_interval_meets_target(self, z1, delta):
        c = choose_folner_constant(1, delta)
        f = interval_folner(c)
        d = defect(f, [z1.element((1,)), z1.element((-1,))])
        assert d < exact_delta(delta)

    @pytest.mark.parametrize("delta", (0.5, 0.1))
    def test_square_meets_target(self, z2, delta):
        c = choose_folner_constant(2, delta)
        chi = Parallelepiped(((F(1), F(0)), (F(0), F(1))), F(1))
        f = parallelepiped_folner(chi, c)
        omega = [z2.element(v) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        assert defect(f, omega) < exact_delta(delta)
