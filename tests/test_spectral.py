import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dualent import spectral
from dualent.groups import IntMatrix
from dualent.laws import random_unimodular
from dualent.spectral import (
    IntPolynomial,
    char_poly,
    squarefree_decomposition,
    complex_roots,
    eigen_entropy,
)
from tests.test_groups import unimodular_strategy

GOLDEN_ENTROPY = 0.9624236501192069


def test_char_poly_cat_map(cat_matrix):
    assert char_poly(cat_matrix).coeffs == (1, -3, 1)


def test_char_poly_quarter_turn():
    assert char_poly(IntMatrix(((0, -1), (1, 0)))).coeffs == (1, 0, 1)


def test_char_poly_companion_matrix():
    # companion of t^3 - t - 1
    m = IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 1)))
    assert char_poly(m).coeffs == (1, -1, 0, -1)


def test_char_poly_annihilates_matrix():
    m = IntMatrix(((2, 1), (1, 1)))
    p0, p1, p2 = char_poly(m).coeffs
    sq = m * m
    value = tuple(
        tuple(
            p0 * sq.entries[i][j] + p1 * m.entries[i][j] + p2 * (i == j)
            for j in range(2)
        )
        for i in range(2)
    )
    assert value == ((0, 0), (0, 0))


def faddeev_leverrier(rows) -> tuple[int, ...]:
    """det(t*I - M) by the Faddeev-LeVerrier trace recurrence, one full
    integer matrix product per coefficient: the O(n^4) reference that
    char_poly is held to."""
    n = len(rows)
    coeffs = [1]
    aux = None
    for k in range(1, n + 1):
        if aux is None:
            mk = [list(row) for row in rows]
        else:
            cols = list(zip(*aux))
            mk = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
        aux = [[x + ck * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mk)]
    return tuple(coeffs)


def _random_unimodular(rng: random.Random, dim: int) -> list[list[int]]:
    """Row additions, sign flips and row shuffles, with entries kept within
    40, as in the benchmark's entropy workload."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(4 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        row = [a + c * b for a, b in zip(m[i], m[j])]
        if max(map(abs, row)) <= 40:
            m[i] = row
        if rng.random() < 0.3:
            k = rng.randrange(dim)
            m[k] = [-x for x in m[k]]
            rng.shuffle(m)
    return m


def _random_matrix(rng: random.Random, dim: int, size: int) -> list[list[int]]:
    density = rng.choice((0.3, 0.7, 1.0))
    return [
        [rng.randint(-size, size) if rng.random() < density else 0 for _ in range(dim)]
        for _ in range(dim)
    ]


def _check_against_reference(rows) -> tuple[int, ...]:
    got = char_poly(IntMatrix(tuple(map(tuple, rows)))).coeffs
    assert got == faddeev_leverrier(rows), rows
    return got


def aberth_reference(coeffs) -> list[complex]:
    """The Aberth-Ehrlich loop as first written: separate Horner passes for
    p and p', an index test per term of the root sum and a tolerance test
    per root. _aberth_simple_roots must return its roots bit for bit."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    cs = [complex(c) for c in coeffs]
    dcs = [c * (n - i) for i, c in enumerate(cs[:-1])]
    lead = abs(cs[0])
    radius = 1.0 + max(abs(c) / lead for c in cs[1:])
    roots = [radius * cmath.exp(2j * math.pi * (k / n) + 0.4j) for k in range(n)]

    def horner(poly, x):
        out = 0j
        for c in poly:
            out = out * x + c
        return out

    for _ in range(spectral._ABERTH_MAX_ITERATIONS):
        converged = True
        new_roots = roots[:]
        for i, x in enumerate(roots):
            px = horner(cs, x)
            dpx = horner(dcs, x)
            if px == 0:
                continue
            if dpx == 0:
                new_roots[i] = x * (1 + 1e-8) + 1e-8
                converged = False
                continue
            w = px / dpx
            s = 0j
            for j, y in enumerate(roots):
                if j != i:
                    diff = x - y
                    if diff == 0:
                        diff = 1e-12
                    s += 1 / diff
            denom = 1 - w * s
            correction = w if denom == 0 else w / denom
            new_roots[i] = x - correction
            if abs(correction) > 1e-14 * (1 + abs(x)):
                converged = False
        roots = new_roots
        if converged:
            return roots
    raise spectral.RootFindingError("no convergence")


def _hex_roots(roots) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def _check_aberth_against_reference(coeffs):
    try:
        expected = _hex_roots(aberth_reference(coeffs))
    except spectral.RootFindingError:
        with pytest.raises(spectral.RootFindingError):
            spectral._aberth_simple_roots(coeffs)
        return
    assert _hex_roots(spectral._aberth_simple_roots(coeffs)) == expected, coeffs


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def test_aberth_matches_reference_bit_for_bit():
    rng = random.Random(15)
    polys = [LEHMER] + [(1,) + (0,) * (n - 1) + (-1,) for n in range(1, 41)]
    for dim in range(2, 13):
        for _ in range(4):
            poly = char_poly(IntMatrix(tuple(map(tuple, _random_unimodular(rng, dim)))))
            polys.extend(f.coeffs for f, _ in squarefree_decomposition(poly))
    for coeffs in polys:
        _check_aberth_against_reference(coeffs)


def per_root_reciprocal_sums(xs) -> list[complex]:
    """For each root, the sum over the others of 1/(x_i - x_j), added in
    increasing j from 0j, with 1/1e-12 for a coincident pair: the formula
    _reciprocal_sums must give bit for bit while sharing each pair."""
    out = []
    for i, x in enumerate(xs):
        s = 0j
        for j, y in enumerate(xs):
            if j != i:
                s += 1 / ((x - y) or 1e-12)
        out.append(s)
    return out


def _check_reciprocal_sums(xs):
    expected = _hex_roots(per_root_reciprocal_sums(xs))
    assert _hex_roots(spectral._reciprocal_sums(xs)) == expected, xs


# Signed zeros, halves and small integers: differences with an exactly zero
# real or imaginary part, coincident points and exactly cancelling terms.
GRID = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0)


@pytest.mark.parametrize("xs", [
    [],
    [1 + 1j],
    [1 + 1j, 1 + 1j],
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
    [1j, -1j, 2j, 1 + 0j, -1 + 0j, 2 + 0j],
    [1 + 2j, 1 - 3j, 1 + 2j, 4 + 2j, 1 + 2j],
    [0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, 0j],
])
def test_reciprocal_sums_match_the_per_root_formula(xs):
    _check_reciprocal_sums(xs)


def test_reciprocal_sums_match_the_per_root_formula_on_seeded_grids():
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randrange(2, 10)
        xs = [complex(rng.choice(GRID), rng.choice(GRID)) for _ in range(n)]
        _check_reciprocal_sums(xs)
    for _ in range(200):
        n = rng.randrange(2, 14)
        xs = [cmath.rect(rng.uniform(0.1, 3.0), rng.uniform(-math.pi, math.pi)) for _ in range(n)]
        xs += [rng.choice(xs) for _ in range(rng.randrange(3))]
        _check_reciprocal_sums(xs)


def test_char_poly_matches_reference_on_unimodular_matrices():
    rng = random.Random(2024)
    for dim in range(2, 13):
        for _ in range(12):
            rows = _random_unimodular(rng, dim)
            assert _check_against_reference(rows)[-1] in (1, -1)


def test_char_poly_of_cyclotomic_companions():
    for n in range(1, 41):
        rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
        rows[0][n - 1] = 1
        assert _check_against_reference(rows) == (1,) + (0,) * (n - 1) + (-1,)


def test_char_poly_matches_reference_on_random_integer_matrices():
    rng = random.Random(7)
    for dim in list(range(1, 31)) + [rng.randint(1, 30) for _ in range(40)]:
        _check_against_reference(_random_matrix(rng, dim, rng.choice((1, 5, 1000))))


def test_char_poly_matches_reference_on_huge_entries():
    rng = random.Random(11)
    for dim in range(1, 11):
        rows = _random_matrix(rng, dim, 10**30)
        if dim >= 4:
            # beyond 2^127 - 1, the largest word-sized Mersenne prime
            assert spectral._coefficient_bound(rows) > 2**127
        _check_against_reference(rows)


def test_char_poly_next_to_each_prime():
    # [[a]] has the coefficient -a and the bound 2 + |a|; with a just under
    # a listed prime p, only a modulus above twice the bound recovers it.
    for k in spectral._MERSENNE_EXPONENTS[:5]:
        p = 2**k - 1
        for a in (p - 4, p - 3, p // 2 + 1, p, p + 1, 2 * p):
            for sign in (1, -1):
                assert char_poly(IntMatrix(((sign * a,),))).coeffs == (1, -sign * a)
        rows = [[p - 3 if i == j else 0 for j in range(3)] for i in range(3)]
        _check_against_reference(rows)


def test_coefficient_bound_holds_on_random_matrices():
    rng = random.Random(3)
    for _ in range(200):
        rows = _random_matrix(rng, rng.randint(1, 12), rng.choice((1, 3, 50)))
        bound = spectral._coefficient_bound(rows)
        assert max(map(abs, char_poly(IntMatrix(tuple(map(tuple, rows)))).coeffs)) <= bound


def test_listed_mersenne_numbers_are_probable_primes():
    exponents = spectral._MERSENNE_EXPONENTS
    assert list(exponents) == sorted(set(exponents))
    assert exponents[0] == 61
    for k in exponents:
        if k <= 4423:
            p = 2**k - 1
            assert pow(3, p - 1, p) == 1, k


def test_char_poly_refuses_a_bound_past_the_last_prime(monkeypatch):
    monkeypatch.setattr(spectral, "_MERSENNE_EXPONENTS", (61,))
    small = IntMatrix(((2, 1), (1, 1)))
    assert char_poly(small).coeffs == (1, -3, 1)
    # bound (2 + isqrt(3 * 10^14))^3 > 2^61 / 2
    big = IntMatrix(tuple(tuple(10**7 for _ in range(3)) for _ in range(3)))
    with pytest.raises(ArithmeticError, match="coefficient bound B of 73 bits"):
        char_poly(big)


def test_polynomial_requires_nonzero_leading():
    with pytest.raises(ValueError):
        IntPolynomial((0, 1))


def test_squarefree_decomposition_splits_powers():
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2
    p = IntPolynomial((1, 0, -3, 2))
    parts = squarefree_decomposition(p)
    by_mult = {mult: q.coeffs for q, mult in parts}
    assert by_mult[2] == (1, -1)
    assert by_mult[1] == (1, 2)


def _power(p: IntPolynomial, m: int) -> IntPolynomial:
    out = IntPolynomial((1,))
    for _ in range(m):
        out = out * p
    return out


def _recombine(parts) -> IntPolynomial:
    out = IntPolynomial((1,))
    for f, mult in parts:
        out = out * _power(f, mult)
    return out


nonzero = st.integers(-4, 4).filter(bool)
factor_strategy = st.builds(
    lambda lead, rest: IntPolynomial((lead,) + tuple(rest)),
    nonzero,
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(nonzero, st.lists(st.tuples(factor_strategy, st.integers(1, 3)), min_size=1, max_size=4))
def test_squarefree_decomposition_recombines_to_primitive_part(c, factors):
    p = IntPolynomial((c,))
    for g, m in factors:
        p = p * _power(g, m)
    parts = squarefree_decomposition(p)
    for f, mult in parts:
        assert f.degree >= 1
        assert f.coeffs[0] > 0
        assert math.gcd(*f.coeffs) == 1
    mults = [mult for _, mult in parts]
    assert mults == sorted(set(mults))
    content = math.gcd(*p.coeffs)
    primitive = tuple(x // content for x in p.coeffs)
    assert _recombine(parts).coeffs in (primitive, tuple(-x for x in primitive))


@settings(max_examples=150, deadline=None)
@given(
    nonzero,
    st.dictionaries(st.integers(-6, 6), st.integers(1, 3), min_size=1, max_size=5),
)
def test_squarefree_decomposition_groups_linear_factors_by_multiplicity(c, roots):
    p = IntPolynomial((c,))
    for a, m in roots.items():
        p = p * _power(IntPolynomial((1, -a)), m)
    expected = {}
    for a, m in roots.items():
        expected[m] = expected.get(m, IntPolynomial((1,))) * IntPolynomial((1, -a))
    got = {mult: f for f, mult in squarefree_decomposition(p)}
    assert got == expected


def test_squarefree_decomposition_of_cyclotomic_products():
    x40 = IntPolynomial((1,) + (0,) * 39 + (-1,))
    assert squarefree_decomposition(x40) == [(x40, 1)]
    x12 = IntPolynomial((1,) + (0,) * 11 + (-1,))
    assert squarefree_decomposition(_power(x12, 3)) == [(x12, 3)]


def test_complex_roots_golden_ratio_pair():
    roots = sorted(complex_roots(IntPolynomial((1, -3, 1))), key=abs)
    phi2 = (3 + math.sqrt(5)) / 2
    assert abs(roots[1] - phi2) < 1e-9
    assert abs(roots[0] - 1 / phi2) < 1e-9


def test_complex_roots_handles_repeated_roots():
    # (t - 2)^3
    roots = complex_roots(IntPolynomial((1, -6, 12, -8)))
    assert len(roots) == 3
    assert all(abs(r - 2) < 1e-9 for r in roots)


def test_entropy_cat_map(cat_matrix):
    est = eigen_entropy(cat_matrix)
    assert est.method == "spectral"
    assert abs(est.value - math.log((3 + math.sqrt(5)) / 2)) < 1e-9
    assert abs(est.value - GOLDEN_ENTROPY) < 1e-9


def test_entropy_identity_is_exactly_zero():
    assert eigen_entropy(IntMatrix.identity(3)).value == 0.0


def test_entropy_quarter_turn_is_exactly_zero():
    assert eigen_entropy(IntMatrix(((0, -1), (1, 0)))).value == 0.0


def test_entropy_finite_order_is_zero():
    # order 6: char poly t^2 - t + 1
    m = IntMatrix(((1, -1), (1, 0)))
    assert eigen_entropy(m).value == 0.0
    # order 3
    assert eigen_entropy(IntMatrix(((0, -1), (1, -1)))).value == 0.0
    # swap, order 2
    assert eigen_entropy(IntMatrix(((0, 1), (1, 0)))).value == 0.0


def test_entropy_tribonacci():
    m = IntMatrix(((0, 0, 1), (1, 0, 1), (0, 1, 1)))
    assert abs(eigen_entropy(m).value - 0.6093778634360063) < 1e-9


def test_entropy_transpose_invariant(cat_matrix):
    t = IntMatrix(tuple(zip(*cat_matrix.entries)))
    assert eigen_entropy(t).value == pytest.approx(GOLDEN_ENTROPY, abs=1e-12)


def test_entropy_rejects_non_unimodular_by_default():
    message = r"^determinant is 2; an automorphism of Z\^n must be unimodular$"
    with pytest.raises(ValueError, match=message):
        eigen_entropy(IntMatrix(((2, 0), (0, 1))))


def test_entropy_diagnostics_payload(cat_matrix):
    est = eigen_entropy(cat_matrix)
    assert est.diagnostics["char_poly"] == [1, -3, 1]
    assert est.diagnostics["determinant"] == 1
    assert len(est.diagnostics["root_moduli"]) == 2


def test_block_sum_entropy_adds():
    cat = IntMatrix(((2, 1), (1, 1)))
    m = IntMatrix.block_diag(cat, cat)
    assert eigen_entropy(m).value == pytest.approx(2 * GOLDEN_ENTROPY, abs=1e-9)


def invariant_subgroup_instance(rng: random.Random):
    """M = S [[A, B], [0, C]] S^-1 with A, C and S random unimodular and B a
    random integer block: M leaves the sublattice spanned by the first a
    columns of S invariant, acting there as A, and acts as C on the
    quotient, which has no invariant complement in general."""
    a, c = rng.randint(1, 4), rng.randint(1, 4)
    big_a, big_c, big_s = random_unimodular(rng, a), random_unimodular(rng, c), random_unimodular(rng, a + c)
    rows = [list(row) + [rng.randint(-3, 3) for _ in range(c)] for row in big_a.entries]
    rows += [[0] * a + list(row) for row in big_c.entries]
    m = big_s * IntMatrix(tuple(map(tuple, rows))) * big_s.inverse()
    return m, big_a, big_c


def test_invariant_subgroup_splits_char_poly_and_entropy():
    # The paper's entropy adds over an invariant subgroup and its quotient.
    rng = random.Random(16)
    for _ in range(60):
        m, a, c = invariant_subgroup_instance(rng)
        assert char_poly(m).coeffs == (char_poly(a) * char_poly(c)).coeffs
        assert eigen_entropy(m).value == pytest.approx(
            eigen_entropy(a).value + eigen_entropy(c).value, abs=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(unimodular_strategy(2))
def test_entropy_of_inverse_matches(m):
    assert eigen_entropy(m.inverse()).value == pytest.approx(
        eigen_entropy(m).value, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(unimodular_strategy(2), st.integers(-3, 3))
def test_entropy_power_scaling(m, k):
    h = eigen_entropy(m).value
    hk = eigen_entropy(m.power(k)).value if k != 0 else eigen_entropy(
        IntMatrix.identity(2)
    ).value
    assert hk == pytest.approx(abs(k) * h, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(unimodular_strategy(3), unimodular_strategy(3))
def test_char_poly_conjugation_invariant(m, p):
    conj = p * m * p.inverse()
    assert char_poly(conj).coeffs == char_poly(m).coeffs


# A 12x12 unimodular matrix with eigenvalues at least 1e-3 apart on which
# Aberth iteration from the 1 + max|c_i| start radius needs between 500 and
# 600 steps to converge.
ABERTH_SLOW_MATRIX = (
    (-2, 2, 2, 1, 4, -2, 0, -2, -6, 0, -6, -12),
    (0, 4, 2, -2, -4, -3, -1, -4, 1, 0, 2, 4),
    (2, 0, 0, -2, -8, 1, 0, 1, 8, 0, 6, 12),
    (1, 0, 0, 0, -3, -2, 0, 0, 3, 1, 2, 4),
    (-2, -12, -6, 1, 18, 12, 0, 12, -7, 2, -6, -13),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (-3, 2, 2, 1, 9, 0, 0, -2, -11, 0, -8, -16),
    (-2, -12, -6, 2, 26, 12, 0, 12, -15, 2, -8, -16),
    (0, -10, -5, 4, 12, 8, 2, 10, -4, 0, -4, -8),
    (0, -1, -1, 0, 1, 1, 0, 1, 0, 0, 0, 0),
    (5, 0, 0, 0, -13, -3, 0, -2, 13, 0, 15, 30),
    (-5, 0, 0, 0, 14, 3, 0, 2, -14, 0, -15, -30),
)


def test_slowly_converging_aberth_matches_numpy_log_mahler():
    import numpy as np

    m = IntMatrix(ABERTH_SLOW_MATRIX)
    moduli = np.abs(np.linalg.eigvals(np.array(ABERTH_SLOW_MATRIX, dtype=float)))
    expected = float(sum(math.log(r) for r in moduli if r > 1))
    assert eigen_entropy(m).value == pytest.approx(expected, abs=1e-6)
