import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from dualent.groups import (
    FgAbelianGroup,
    IntMatrix,
    AbelianAutomorphism,
    ShapeError,
    NotInvertibleError,
    _power,
    _smith_inverse,
    smith_normal_form,
)


def unimodular_strategy(dim: int, factors: int = 5):
    """Products of transvections and signed swaps, so det is always +/-1."""

    def build(choices):
        m = IntMatrix.identity(dim)
        for kind, i, j, c in choices:
            if dim == 1:
                continue
            i, j = i % dim, j % dim
            if i == j:
                j = (j + 1) % dim
            rows = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            if kind == 0:
                rows[i][j] = c
            else:
                rows[i][i] = rows[j][j] = 0
                rows[i][j] = 1
                rows[j][i] = -1
            m = m * IntMatrix(tuple(tuple(r) for r in rows))
        return m

    choice = st.tuples(
        st.integers(0, 1), st.integers(0, dim), st.integers(0, dim), st.integers(-2, 2)
    )
    return st.lists(choice, min_size=0, max_size=factors).map(build)


class TestIntMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.0, 0), (0, 1)))

    def test_rejects_bool_entries(self):
        with pytest.raises(TypeError):
            IntMatrix(((True, 0), (0, 1)))

    def test_multiply(self):
        a = IntMatrix(((2, 1), (1, 1)))
        b = IntMatrix(((1, 1), (1, 2)))
        assert (a * b).entries == ((3, 4), (2, 3))

    def test_determinant_oracles(self):
        assert IntMatrix(((2, 1), (1, 1))).det() == 1
        assert IntMatrix(((0, -1), (1, 0))).det() == 1
        assert IntMatrix(((1, 2), (3, 4))).det() == -2
        assert IntMatrix(((0, 0, 1), (1, 0, 1), (0, 1, 1))).det() == 1

    def test_inverse_round_trip(self):
        m = IntMatrix(((2, 1), (1, 1)))
        assert m * m.inverse() == IntMatrix.identity(2)
        assert m.inverse() * m == IntMatrix.identity(2)

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(NotInvertibleError):
            IntMatrix(((2, 0), (0, 1))).inverse()

    def test_power_matches_repeated_product(self):
        m = IntMatrix(((2, 1), (1, 1)))
        assert m.power(0) == IntMatrix.identity(2)
        assert m.power(3) == m * m * m
        assert m.power(-2) == m.inverse() * m.inverse()

    def test_apply(self):
        m = IntMatrix(((2, 1), (1, 1)))
        assert m.apply((1, 0)) == (2, 1)
        assert m.apply((1, 1)) == (3, 2)

    def test_block_diag(self):
        m = IntMatrix.block_diag(IntMatrix(((2, 1), (1, 1))), IntMatrix(((1,),)))
        assert m.entries == ((2, 1, 0), (1, 1, 0), (0, 0, 1))
        assert m.det() == 1

    @settings(max_examples=40, deadline=None)
    @given(unimodular_strategy(2), unimodular_strategy(2))
    def test_det_multiplicative_on_unimodular(self, a, b):
        assert (a * b).det() == a.det() * b.det()
        assert a.det() in (1, -1)

    @settings(max_examples=30, deadline=None)
    @given(unimodular_strategy(3))
    def test_unimodular_inverse_round_trip(self, m):
        assert m * m.inverse() == IntMatrix.identity(3)


class TestSmithNormalForm:
    def test_diagonalizes_with_unimodular_transforms(self):
        rows = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        u, d, v = smith_normal_form(rows)
        um = IntMatrix(u)
        vm = IntMatrix(v)
        assert um.is_unimodular() and vm.is_unimodular()
        prod = um * IntMatrix(rows) * vm
        n = len(rows)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert prod.entries[i][j] == 0
        assert prod.entries == d

    def test_divisibility_chain(self):
        _, d, _ = smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))
        diag = [d[i][i] for i in range(3) if d[i][i] != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0

    @staticmethod
    def _seeded_matrices(count):
        """Seeded rectangular matrices up to 4 x 4: 1 x n and n x 1 shapes,
        all-zero rows, rank-deficient ones, and the empty 0 x n and m x 0."""
        rng = random.Random(2024)
        out = [(), ((),), ((), (), ())]
        while len(out) < count:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.2:
                rows[rng.randrange(m)] = [0] * n
            if m > 1 and rng.random() < 0.2:
                i, j = rng.sample(range(m), 2)
                rows[i] = [rng.randint(-2, 2) * x for x in rows[j]]
            out.append(tuple(map(tuple, rows)))
        return out

    def test_seeded_rectangular_matrices(self):
        def mul(a, b):
            return tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*b)) for row in a)

        for a in self._seeded_matrices(3000):
            m, n = len(a), len(a[0]) if a else 0
            u, d, v = smith_normal_form(a)
            assert (len(u), len(v)) == (m, n)
            assert mul(mul(u, a), v) == d, a
            assert all(IntMatrix(w).is_unimodular() for w in (u, v) if w)
            diag = [d[i][i] for i in range(min(m, n))]
            assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
            rank = sum(1 for x in diag if x)
            assert all(x > 0 for x in diag[:rank]) and not any(diag[rank:]), diag
            assert all(y % x == 0 for x, y in zip(diag[:rank], diag[1:rank]))
            for k in range(1, min(m, n) + 1):
                minors = (IntMatrix(tuple(tuple(a[i][j] for j in cols) for i in rows)).det()
                          for rows in itertools.combinations(range(m), k)
                          for cols in itertools.combinations(range(n), k))
                assert math.prod(diag[:k]) == math.gcd(*minors), (a, k)

    def test_inverse_from_the_smith_form(self):
        """M times its numerators is den * I, den the last invariant factor;
        a singular M has no inverse."""
        square = [a for a in self._seeded_matrices(600) if a and len(a) == len(a[0])]
        singular = 0
        for a in square:
            m = IntMatrix(a)
            if m.det() == 0:
                singular += 1
                with pytest.raises(NotInvertibleError):
                    _smith_inverse(a)
                continue
            numerators, den = _smith_inverse(a)
            assert den == smith_normal_form(a)[1][-1][-1] > 0
            scaled_identity = tuple(tuple(den * x for x in row) for row in IntMatrix.identity(m.dim).entries)
            assert (m * IntMatrix(numerators)).entries == scaled_identity, a
        assert singular and len(square) - singular > 50


class TestFgAbelianGroup:
    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(-1)

    def test_rejects_torsion_below_two(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(1, (1,))

    def test_torsion_reduces_into_range(self):
        g = FgAbelianGroup(1, (4,))
        e = g.element((0,), (7,))
        assert e.torsion == (3,)
        assert g.element((0,), (-1,)).torsion == (3,)

    def test_ball_size(self):
        assert len(FgAbelianGroup(2).ball(1)) == 9
        assert len(FgAbelianGroup(1, (2,)).ball(2)) == 10

    def test_ball_is_sorted_and_symmetric(self):
        g = FgAbelianGroup(2)
        ball = g.ball(2)
        assert ball == sorted(ball, key=lambda e: e.key())
        members = {e.key() for e in ball}
        for e in ball:
            assert (-e).key() in members

    def test_element_arithmetic(self):
        g = FgAbelianGroup(2, (3,))
        a = g.element((1, 2), (2,))
        b = g.element((4, -1), (2,))
        assert (a + b).lattice == (5, 1)
        assert (a + b).torsion == (1,)
        assert (a - a).is_zero()
        assert a.times(3).torsion == (0,)

    def test_cross_group_arithmetic_rejected(self):
        a = FgAbelianGroup(1).element((1,))
        b = FgAbelianGroup(2).element((1, 0))
        with pytest.raises(ShapeError):
            a + b


class TestAbelianAutomorphism:
    def test_requires_unimodular_lattice(self, z2):
        with pytest.raises(NotInvertibleError):
            AbelianAutomorphism.from_matrix(z2, ((2, 0), (0, 1)))

    def test_apply_oracle(self, cat_auto, z2):
        img = cat_auto.apply(z2.element((1, 1)))
        assert img.lattice == (3, 2)

    def test_torsion_map_must_be_additive(self):
        g = FgAbelianGroup(0, (4,))
        # swapping 1 and 2 fixes 0 and 3 but is not a homomorphism
        bad = {(0,): (0,), (1,): (2,), (2,): (1,), (3,): (3,)}
        with pytest.raises(ValueError):
            AbelianAutomorphism.build(g, torsion_map=bad)

    def test_torsion_negation_is_valid(self):
        g = FgAbelianGroup(0, (5,))
        neg = {(t,): (-t,) for (t,) in g.torsion_tuples()}
        auto = AbelianAutomorphism.build(g, torsion_map=neg)
        e = g.element((), (2,))
        assert auto.apply(e).torsion == (3,)
        assert auto.compose(auto).apply(e) == e

    def test_mixing_feeds_lattice_into_torsion(self):
        g = FgAbelianGroup(1, (2,))
        auto = AbelianAutomorphism.build(g, lattice=((1,),), mixing=((1,),))
        assert auto.apply(g.element((1,), (0,))).torsion == (1,)
        assert auto.apply(g.element((2,), (0,))).torsion == (0,)

    def test_compose_order(self, z2):
        a = AbelianAutomorphism.from_matrix(z2, ((1, 1), (0, 1)))
        b = AbelianAutomorphism.from_matrix(z2, ((1, 0), (1, 1)))
        x = z2.element((1, 0))
        assert a.compose(b).apply(x) == a.apply(b.apply(x))
        assert a.compose(b).lattice_part == a.lattice_part * b.lattice_part

    def test_inverse_round_trip_with_mixing(self):
        g = FgAbelianGroup(2, (2, 3))
        auto = AbelianAutomorphism.build(
            g,
            lattice=((2, 1), (1, 1)),
            torsion_map={t: (t[0], (2 * t[1]) % 3) for t in g.torsion_tuples()},
            mixing=((1, 2), (0, 1)),
        )
        inv = auto.inverse()
        for lat in itertools.product((-2, 0, 1, 3), repeat=2):
            for tor in g.torsion_tuples():
                e = g.element(lat, tor)
                assert inv.apply(auto.apply(e)) == e
                assert auto.apply(inv.apply(e)) == e

    def test_power_negative(self, cat_auto, z2):
        e = z2.element((1, 2))
        assert cat_auto.power(-1).apply(cat_auto.apply(e)) == e
        assert cat_auto.power(3).apply(e) == cat_auto.apply(
            cat_auto.apply(cat_auto.apply(e))
        )
        assert cat_auto.power(0).apply(e) == e

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_power_loop_matches_explicit_products(self, k):
        # `_power` behind IntMatrix.power and AbelianAutomorphism.power,
        # against products taken the other way round: base * (base * ...)
        m = IntMatrix(((2, 1, 0), (1, 1, 0), (0, 0, -1)))
        g = FgAbelianGroup(2, (2, 4))
        auto = AbelianAutomorphism.build(
            g, IntMatrix(((2, 1), (1, 1))), {t: (t[0], (t[1] * 3) % 4) for t in g.torsion_tuples()},
            ((1, 2), (0, 3)),
        )
        for x, one, times, inverse in (
            (m, IntMatrix.identity(3), operator.mul, IntMatrix.inverse),
            (auto, AbelianAutomorphism.identity(g), AbelianAutomorphism.compose, AbelianAutomorphism.inverse),
        ):
            base = x if k >= 0 else inverse(x)
            explicit = one
            for _ in range(abs(k)):
                explicit = times(base, explicit)
            assert _power(x, k, one, times, inverse) == explicit
            assert x.power(k) == explicit
        for e in (g.element((1, -2), (1, 3)), g.element((0, 0), (0, 1))):
            stepped = e
            for _ in range(abs(k)):
                stepped = (auto if k >= 0 else auto.inverse()).apply(stepped)
            assert auto.power(k).apply(e) == stepped

    def test_rank_zero_group_has_no_lattice_part(self):
        g = FgAbelianGroup(0, (2,))
        auto = AbelianAutomorphism.identity(g)
        assert auto.lattice_part is None

    @settings(max_examples=30, deadline=None)
    @given(unimodular_strategy(2), st.integers(-6, 6), st.integers(-6, 6))
    def test_apply_is_additive(self, m, x, y):
        g = FgAbelianGroup(2)
        auto = AbelianAutomorphism.from_matrix(g, m)
        a = g.element((x, y))
        b = g.element((y - x, 3))
        assert auto.apply(a + b) == auto.apply(a) + auto.apply(b)

    @settings(max_examples=30, deadline=None)
    @given(unimodular_strategy(2), st.integers(-4, 4))
    def test_power_matches_iterated_apply(self, m, k):
        g = FgAbelianGroup(2)
        auto = AbelianAutomorphism.from_matrix(g, m)
        e = g.element((1, -2))
        stepped = e
        step = auto if k >= 0 else auto.inverse()
        for _ in range(abs(k)):
            stepped = step.apply(stepped)
        assert auto.power(k).apply(e) == stepped
