import ast
import functools
import itertools
import operator
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from dualent.groups import FgAbelianGroup, IntMatrix, AbelianAutomorphism, ShapeError, _power
from dualent.crystal import (
    CrystalElement,
    GroupValidationError,
    PointGroup,
    CrystalGroup,
    CrystalAutomorphism,
    stabilizer_center,
    center_quotient_matrix,
    crystal_entropy,
    fg_abelian_entropy,
    extension_rank_bound,
    dihedral_infinite,
    trivial_product,
    point_reflection_square,
    glide_plane_group,
)
from dualent.folner import min_rank_bruteforce
from dualent.specdoc import parse_spec
from dualent.laws import random_unimodular
from dualent.spectral import char_poly, eigen_entropy
from tests.conftest import EXAMPLE_DIR

CAT = ((2, 1), (1, 1))
GOLDEN_ENTROPY = 0.9624236501192069


def canned_groups():
    return [
        dihedral_infinite(),
        trivial_product(2, PointGroup.cyclic(2)),
        point_reflection_square(),
        glide_plane_group(),
    ]


class TestPointGroup:
    def test_cyclic_orders(self):
        g = PointGroup.cyclic(4)
        assert g.order == 4
        assert g.element_order(1) == 4
        assert g.element_order(2) == 2
        assert g.is_abelian()

    def test_trivial(self):
        g = PointGroup.trivial()
        assert g.order == 1
        assert g.identity == 0

    def test_rejects_broken_associativity(self):
        # "multiplication" with two left identities
        with pytest.raises(GroupValidationError):
            PointGroup(("e", "a"), ((0, 1), (0, 1)))

    def test_rejects_missing_inverse(self):
        with pytest.raises(GroupValidationError):
            PointGroup(("e", "a"), ((0, 1), (1, 1)))

    def test_from_pairs(self):
        g = PointGroup.from_pairs(
            ("e", "f"), {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f", ("f", "f"): "e"}
        )
        assert g.multiply(1, 1) == 0
        assert g.inverse(1) == 1

    def test_index_of_unknown_label(self):
        with pytest.raises(KeyError):
            PointGroup.trivial().index_of("nope")


class TestCrystalGroup:
    def test_dihedral_multiplication(self):
        g = dihedral_infinite()
        f = g.element("f", (0,))
        t = g.lattice_element((1,))
        # f t f = t^-1
        assert (f * t * f) == g.lattice_element((-1,))

    def test_inverse(self):
        g = dihedral_infinite()
        x = g.element("f", (3,))
        assert (x * x.inverse()).is_identity()
        assert (x.inverse() * x).is_identity()

    def test_glide_squares_to_translation(self):
        g = glide_plane_group()
        glide = g.element("g", (0, 0))
        sq = glide * glide
        assert sq.label() == "e"
        assert sq.lattice == (1, 0)

    def test_rejects_non_unimodular_action(self):
        with pytest.raises(GroupValidationError):
            CrystalGroup(
                point_group=PointGroup.cyclic(2),
                rank=1,
                action=(IntMatrix.identity(1), IntMatrix(((2,),))),
                cocycle=(((0,), (0,)), ((0,), (0,))),
            )

    def test_rejects_nontrivial_identity_action(self):
        with pytest.raises(GroupValidationError):
            CrystalGroup(
                point_group=PointGroup.cyclic(2),
                rank=1,
                action=(IntMatrix(((-1,),)), IntMatrix.identity(1)),
                cocycle=(((0,), (0,)), ((0,), (0,))),
            )

    def test_rejects_non_unital_cocycle(self):
        with pytest.raises(GroupValidationError):
            CrystalGroup(
                point_group=PointGroup.cyclic(2),
                rank=1,
                action=(IntMatrix.identity(1), IntMatrix.identity(1)),
                cocycle=(((0,), (1,)), ((0,), (0,))),
            )

    def test_associativity_sampled(self):
        # the glide group cocycle passes the built-in associativity sample
        g = glide_plane_group()
        a = g.element("g", (2, -1))
        b = g.element("g", (0, 3))
        c = g.element("e", (1, 1))
        assert (a * b) * c == a * (b * c)


class TestCrystalAutomorphism:
    def test_build_validates_homomorphism(self):
        g = dihedral_infinite()
        auto = CrystalAutomorphism.build(g, lattice_part=((-1,),))
        x = g.element("f", (2,))
        y = g.element("e", (5,))
        assert auto.apply(x * y) == auto.apply(x) * auto.apply(y)

    def test_translation_twist(self):
        g = dihedral_infinite()
        auto = CrystalAutomorphism.build(
            g, lattice_part=((1,),), translations={"f": (2,)}
        )
        img = auto.apply(g.element("f", (0,)))
        assert img.label() == "f"
        assert img.lattice == (2,)

    def test_odd_dihedral_translation_is_valid(self):
        # the flip action cancels its own translation when squaring:
        # (f, t)^2 = (e, -t + t) = e, so every integer t works
        g = dihedral_infinite()
        for sign in (1, -1):
            auto = CrystalAutomorphism.build(
                g, lattice_part=((sign,),), translations={"f": (1,)}
            )
            x = g.element("f", (2,))
            y = g.lattice_element((3,))
            assert auto.apply(x * y) == auto.apply(x) * auto.apply(y)

    def test_invalid_translation_rejected(self):
        # on the glide group, gamma(g)^2 = gamma(g^2) forces the first
        # translation coordinate of g to vanish when sigma fixes e1
        g = glide_plane_group()
        with pytest.raises(GroupValidationError):
            CrystalAutomorphism.build(g, translations={"g": (1, 0)})

    def test_cat_map_rejected_on_glide_group(self):
        # sigma must commute with the point action; the cat map does not
        g = glide_plane_group()
        with pytest.raises(GroupValidationError):
            CrystalAutomorphism.build(g, lattice_part=CAT)

    def test_compose_and_inverse(self):
        g = dihedral_infinite()
        a = CrystalAutomorphism.build(g, lattice_part=((-1,),))
        b = CrystalAutomorphism.build(g, lattice_part=((1,),), translations={"f": (2,)})
        ab = a.compose(b)
        for x in (g.element("f", (1,)), g.lattice_element((3,)), g.identity_element()):
            assert ab.apply(x) == a.apply(b.apply(x))
            assert a.inverse().apply(a.apply(x)) == x

    def test_power(self):
        g = trivial_product(2, PointGroup.trivial())
        auto = CrystalAutomorphism.build(g, lattice_part=CAT)
        x = g.lattice_element((1, 0))
        assert auto.power(2).apply(x) == auto.apply(auto.apply(x))
        assert auto.power(-1).apply(auto.apply(x)) == x
        assert auto.power(0).apply(x) == x

    @pytest.mark.parametrize("k", range(-3, 4))
    @pytest.mark.parametrize("name", ["crystal_dinfty", "crystal_glide", "crystal_p2_catmap",
                                      "crystal_z2xc2_catmap"])
    def test_power_loop_matches_explicit_products(self, name, k):
        # `_power` behind CrystalAutomorphism.power and the element powers of
        # CenterPresentation.embed, against products taken the other way
        # round: base * (base * ...)
        doc = parse_spec(str(EXAMPLE_DIR / f"{name}.json"))
        g, auto = doc.group, doc.automorphism
        elements = [g.element(label, v) for label in g.point_group.elements
                    for v in ((0,) * g.rank, (1,) + (-2,) * (g.rank - 1))]
        for x, one, times, inverse in [
            (auto, CrystalAutomorphism.identity(g), CrystalAutomorphism.compose, CrystalAutomorphism.inverse),
            *((e, g.identity_element(), operator.mul, CrystalElement.inverse) for e in elements),
        ]:
            base = x if k >= 0 else inverse(x)
            explicit = one
            for _ in range(abs(k)):
                explicit = times(base, explicit)
            assert _power(x, k, one, times, inverse) == explicit
        stepper = auto if k >= 0 else auto.inverse()
        for e in elements:
            stepped = e
            for _ in range(abs(k)):
                stepped = stepper.apply(stepped)
            assert auto.power(k).apply(e) == stepped


def _group(point_group, action, cocycle=None):
    """A crystal group from action matrices and a {(h, k): vector} cocycle
    (zero where absent), both keyed by point-group index."""
    n = point_group.order
    rank = len(action[0])
    coc = [[(0,) * rank for _ in range(n)] for _ in range(n)]
    for (h, k), vec in (cocycle or {}).items():
        coc[h][k] = tuple(vec)
    return CrystalGroup(
        point_group=point_group,
        rank=rank,
        action=tuple(IntMatrix(tuple(map(tuple, m))) for m in action),
        cocycle=tuple(map(tuple, coc)),
    )


_C2 = PointGroup.cyclic(2)
_I1, _I2 = IntMatrix.identity(1), IntMatrix.identity(2)
_ZERO = (((0,), (0,)), ((0,), (0,)))  # the zero cocycle of C2 on Z


class TestValidationMessages:
    """Each defect class names a failing triple or pair by label and
    lattice vector, never by the group's repr."""

    def test_broken_cocycle_identity(self):
        with pytest.raises(GroupValidationError) as err:
            _group(PointGroup.cyclic(2), (((1,),), ((-1,),)), {(1, 1): (1,)})
        assert str(err.value) == (
            "associativity fails at (g1, (0,)), (g1, (0,)), (g1, (0,)): "
            "the cocycle identity does not hold"
        )

    def test_non_multiplicative_action(self):
        with pytest.raises(GroupValidationError) as err:
            _group(PointGroup.cyclic(3), (((1,),), ((-1,),), ((-1,),)))
        assert str(err.value) == (
            "associativity fails at (e, (1,)), (g1, (0,)), (g1, (0,)): A(g1)A(g1) != A(g2)"
        )

    def test_quotient_map_not_a_homomorphism(self):
        g = trivial_product(1, PointGroup.cyclic(4))
        with pytest.raises(GroupValidationError) as err:
            CrystalAutomorphism.build(g, quotient_map=("e", "g2", "g1", "g3"))
        assert str(err.value) == (
            "not a homomorphism: fails at (g1, (0,)), (g1, (0,)): q is not a homomorphism of F"
        )

    def test_lattice_part_does_not_intertwine(self):
        g = _group(PointGroup.cyclic(2), (((1, 0), (0, 1)), ((1, 0), (0, -1))))
        with pytest.raises(GroupValidationError) as err:
            CrystalAutomorphism.build(g, lattice_part=CAT)
        assert str(err.value) == (
            "not a homomorphism: fails at (e, (1, 0)), (g1, (0, 0)): "
            "the lattice part does not intertwine A(g1) with A(g1)"
        )

    def test_bad_translations(self):
        with pytest.raises(GroupValidationError) as err:
            CrystalAutomorphism.build(glide_plane_group(), translations={"g": (1, 0)})
        assert str(err.value) == (
            "not a homomorphism: fails at (g, (0, 0)), (g, (0, 0)): "
            "the translations do not match the cocycle"
        )

    @pytest.mark.parametrize("build, message", [
        (lambda: PointGroup(("e", "e"), ((0, 1), (1, 0))),
         "element labels must be nonempty and distinct"),
        (lambda: PointGroup(("e", "a"), ((0, 1),)), "multiplication table must be n x n"),
        (lambda: PointGroup(("e", "a"), ((0, 1), (1, 0, 1))), "multiplication table must be n x n"),
        (lambda: PointGroup(("e", "a"), ((0, 2), (1, 0))), "table entries must index elements"),
        (lambda: CrystalGroup(PointGroup.trivial(), 0, (IntMatrix(((1,),)),), (((),),)),
         "lattice rank must be at least 1"),
        (lambda: CrystalGroup(_C2, 1, (_I1,), _ZERO), "need one action matrix per point-group element"),
        (lambda: CrystalGroup(_C2, 1, (_I1, _I2), _ZERO), "action matrices must be p x p"),
        (lambda: CrystalGroup(_C2, 1, (_I1, _I1), _ZERO[:1]), "cocycle table must be n x n"),
        (lambda: CrystalGroup(_C2, 1, (_I1, _I1), (((0,), (0,)), ((0,), (0, 0)))),
         "cocycle values must be lattice vectors"),
        (lambda: CrystalAutomorphism(dihedral_infinite(), (0, 0), _I1, ((0,), (0,))),
         "quotient map must be a bijection of F"),
        (lambda: CrystalAutomorphism(dihedral_infinite(), (0, 1), _I2, ((0,), (0,))),
         "lattice part must be p x p unimodular"),
        (lambda: CrystalAutomorphism(dihedral_infinite(), (0, 1), IntMatrix(((2,),)), ((0,), (0,))),
         "lattice part must be p x p unimodular"),
        (lambda: CrystalAutomorphism(dihedral_infinite(), (0, 1), _I1, ((0,),)),
         "need one translation vector per F element"),
    ], ids=[
        "duplicate-labels", "table-rows", "table-row-length", "table-entry",
        "rank-0", "action-count", "action-size", "cocycle-rows", "cocycle-vector",
        "quotient-not-bijective", "lattice-size", "lattice-not-unimodular", "translation-count",
    ])
    def test_shape_errors(self, build, message):
        with pytest.raises(GroupValidationError) as err:
            build()
        assert str(err.value) == message


# --- the sampled-product reference ------------------------------------------
# Validation as first written: the multiplication rule of docs/format.md on
# every triple (or pair) of representatives (h, 0), (h, e_i).


def _raw_product(table, action, cocycle, x, y):
    (h, a), (k, b) = x, y
    moved = action[k].apply(a)
    return table[h][k], tuple(t + m + c for t, m, c in zip(cocycle[h][k], moved, b))


def _sample(order, rank):
    vecs = [(0,) * rank] + [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    return [(h, v) for h in range(order) for v in vecs]


def _sampled_failure(table, action, cocycle, rank):
    def mul(x, y):
        return _raw_product(table, action, cocycle, x, y)

    for x in _sample(len(table), rank):
        for y in _sample(len(table), rank):
            for z in _sample(len(table), rank):
                if mul(mul(x, y), z) != mul(x, mul(y, z)):
                    return x, y, z
    return None


def _sampled_hom_failure(group, q, sigma, trans):
    def mul(x, y):
        return _raw_product(group.point_group.table, group.action, group.cocycle, x, y)

    def gamma(x):
        return q[x[0]], tuple(a + b for a, b in zip(trans[x[0]], sigma.apply(x[1])))

    for x in _sample(group.point_group.order, group.rank):
        for y in _sample(group.point_group.order, group.rank):
            if gamma(mul(x, y)) != mul(gamma(x), gamma(y)):
                return x, y
    if gamma((group.point_group.identity, (0,) * group.rank)) != (0, (0,) * group.rank):
        return "identity"
    return None


def _named_elements(message, labels):
    """The (label, vector) pairs a rejection message names."""
    return [
        (labels.index(lab), ast.literal_eval(vec))
        for lab, vec in re.findall(r"\((\w+), (\([-\d, ]*\))\)", message)
    ]


SWAP = ((0, 1), (1, 0))
ROT4 = ((0, -1), (1, 0))
ROT3 = ((0, -1), (1, -1))
MATRICES = ((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)), SWAP, ROT4, ROT3, CAT


def blocks(p):
    """Unimodular p x p matrices to try as actions and lattice parts."""
    return [IntMatrix(m) for m in (MATRICES if p == 2 else (((1,),), ((-1,),)))]


def matrix_point_group(generators):
    """The finite group generated by integer matrices, acting on the right:
    hk is the element with A(hk) = A(k)A(h), so A(l)A(k) = A(kl)."""
    mats = [IntMatrix.identity(len(generators[0]))]
    for m in mats:
        for gen in generators:
            nxt = IntMatrix(gen) * m
            if nxt not in mats:
                mats.append(nxt)
    table = tuple(tuple(mats.index(b * a) for b in mats) for a in mats)
    labels = ("e",) + tuple(f"m{i}" for i in range(1, len(mats)))
    return _group(PointGroup(labels, table), [m.entries for m in mats])


def base_groups():
    """The canned groups, Z, and the split groups of C4, C3, C2 x C2 and the
    nonabelian S3 acting on Z^2."""
    return canned_groups() + [
        trivial_product(1, PointGroup.trivial()),
        matrix_point_group([ROT4]),
        matrix_point_group([ROT3]),
        matrix_point_group([((1, 0), (0, -1)), ((-1, 0), (0, 1))]),
        matrix_point_group([ROT3, SWAP]),
    ]


def twisted(rng, g):
    """g with its cocycle changed by a random coboundary: the section
    h -> (h, c(h)), c(e) = 0, gives theta(h, k) + A(k)c(h) + c(k) - c(hk),
    again a valid cocycle."""
    f, p = g.point_group, g.rank
    c = [(0,) * p if h == f.identity else tuple(rng.randrange(-3, 4) for _ in range(p))
         for h in range(f.order)]
    coc = tuple(
        tuple(
            tuple(t + m + b - d for t, m, b, d in zip(
                g.cocycle[h][k], g.action[k].apply(c[h]), c[k], c[f.multiply(h, k)]))
            for k in range(f.order)
        )
        for h in range(f.order)
    )
    return replace(g, cocycle=coc)


def sampled_automorphisms(g):
    """Every (q, sigma, t) the sampled products accept with q fixing e,
    sigma in a small set of blocks, and t(h) in {-1, 0, 1}^p for point
    groups of order 2 (zero otherwise)."""
    f, p = g.point_group, g.rank
    shifts = itertools.product(range(-1, 2), repeat=p) if f.order == 2 else [(0,) * p]
    out = []
    for t in shifts:
        trans = [(0,) * p if h == f.identity else t for h in range(f.order)]
        for q in itertools.permutations(range(f.order)):
            if q[f.identity] != f.identity:
                continue
            for sigma in blocks(p):
                if _sampled_hom_failure(g, q, sigma, trans) is None:
                    out.append((q, sigma, trans))
    return out


class TestValidationAgainstSampledProducts:
    """Checking the defining identities accepts exactly the tables the
    sampled products accept, and a rejection names elements that really
    fail the multiplication rule."""

    def test_groups(self):
        rng = random.Random(28)
        bases = base_groups()
        decisions = []
        for _ in range(160):
            g = twisted(rng, rng.choice(bases))
            f, p = g.point_group, g.rank
            action = list(g.action)
            coc = [list(row) for row in g.cocycle]
            others = [h for h in range(f.order) if h != f.identity]
            kind = rng.randrange(4)
            if others and kind in (1, 3):
                h, k = rng.choice(others), rng.choice(others)
                coc[h][k] = tuple(x + rng.randrange(-2, 3) for x in coc[h][k])
            if others and kind in (2, 3):
                action[rng.choice(others)] = rng.choice(blocks(p))
            failure = _sampled_failure(f.table, action, coc, p)
            try:
                CrystalGroup(f, p, tuple(action), tuple(map(tuple, coc)))
            except GroupValidationError as exc:
                assert failure is not None, exc
                named = _named_elements(str(exc), list(f.elements))
                assert len(named) == 3, exc
                x, y, z = named
                mul = functools.partial(_raw_product, f.table, action, coc)
                assert mul(mul(x, y), z) != mul(x, mul(y, z)), exc
                decisions.append(False)
            else:
                assert failure is None, failure
                decisions.append(True)
        assert 40 < sum(decisions) < 120

    def test_automorphisms(self):
        rng = random.Random(29)
        groups = [twisted(rng, g) for g in base_groups() for _ in range(2)]
        pools = [(g, sampled_automorphisms(g)) for g in groups]
        decisions = []
        for _ in range(300):
            g, pool = rng.choice(pools)
            f, p = g.point_group, g.rank
            q, sigma, trans = rng.choice(pool)
            q, trans = list(q), [list(t) for t in trans]
            kind = rng.randrange(4)
            if kind == 1:
                h = rng.randrange(f.order)
                trans[h] = [x + rng.randrange(-2, 3) for x in trans[h]]
            elif kind == 2:
                sigma = random_unimodular(rng, p)
            elif kind == 3:
                rng.shuffle(q)
            failure = _sampled_hom_failure(g, q, sigma, trans)
            try:
                CrystalAutomorphism(g, tuple(q), sigma, tuple(map(tuple, trans)))
            except GroupValidationError as exc:
                assert failure is not None, exc
                named = _named_elements(str(exc), list(f.elements))
                assert len(named) == 2, exc
                x, y = named
                mul = functools.partial(_raw_product, f.table, g.action, g.cocycle)

                def gamma(z):
                    return q[z[0]], tuple(a + b for a, b in zip(trans[z[0]], sigma.apply(z[1])))

                assert gamma(mul(x, y)) != mul(gamma(x), gamma(y)), exc
                decisions.append(False)
            else:
                assert failure is None, failure
                decisions.append(True)
        assert 75 < sum(decisions) < 250


class TestStabilizerCenter:
    def test_dihedral_center_is_rank_one(self):
        pres = stabilizer_center(dihedral_infinite())
        assert pres.abelian.rank == 1
        assert pres.abelian.torsion == ()

    def test_product_group_keeps_torsion(self):
        g = trivial_product(2, PointGroup.cyclic(2))
        pres = stabilizer_center(g)
        assert pres.abelian.rank == 2
        assert pres.abelian.torsion == (2,)

    def test_point_reflection_center_is_lattice(self):
        pres = stabilizer_center(point_reflection_square())
        assert pres.abelian.rank == 2
        assert pres.abelian.torsion == ()

    def test_glide_center_is_lattice(self):
        pres = stabilizer_center(glide_plane_group())
        assert pres.abelian.rank == 2
        assert pres.abelian.torsion == ()

    def test_coordinates_embed_round_trip(self):
        rng = random.Random(5)
        for g in canned_groups():
            pres = stabilizer_center(g)
            for _ in range(25):
                lat = tuple(rng.randrange(-6, 7) for _ in range(pres.abelian.rank))
                tor = tuple(
                    rng.randrange(d) for d in pres.abelian.torsion
                )
                a = pres.abelian.element(lat, tor)
                assert pres.coordinates(pres.embed(a)) == a

    def test_embedded_generators_are_central(self):
        for g in canned_groups():
            pres = stabilizer_center(g)
            for gen in pres.generators:
                assert pres.contains(gen)

    def test_center_invariant_under_automorphisms(self):
        # images of central elements stay central, for every canned
        # automorphism of every canned group
        for g, auto in canned_automorphisms():
            pres = stabilizer_center(g)
            gens = list(pres.free_basis) + [gen for gen, _ in pres.torsion_basis]
            for gen in gens:
                assert pres.contains(auto.apply(gen))


def canned_automorphisms():
    out = []
    dinf = dihedral_infinite()
    for sign in (1, -1):
        for t in (-2, 0, 2):
            out.append(
                (dinf, CrystalAutomorphism.build(
                    dinf, lattice_part=((sign,),), translations={"f": (t,)}
                ))
            )
    prod = trivial_product(2, PointGroup.cyclic(2))
    for lattice in (CAT, ((1, 0), (0, 1)), ((0, -1), (1, 0))):
        out.append((prod, CrystalAutomorphism.build(prod, lattice_part=lattice)))
    p2 = point_reflection_square()
    out.append((p2, CrystalAutomorphism.build(p2, lattice_part=CAT)))
    out.append(
        (p2, CrystalAutomorphism.build(p2, lattice_part=CAT, translations={"r": (1, 0)}))
    )
    pg = glide_plane_group()
    out.append((pg, CrystalAutomorphism.build(pg, lattice_part=((1, 0), (0, 1)))))
    out.append(
        (pg, CrystalAutomorphism.build(pg, lattice_part=((1, 0), (0, -1)),
                                       translations={"g": (0, 3)}))
    )
    return out


class TestQuotientMatrix:
    def test_identity_maps_to_identity(self):
        g = dihedral_infinite()
        pres = stabilizer_center(g)
        rho = center_quotient_matrix(pres, CrystalAutomorphism.identity(g))
        assert rho == IntMatrix.identity(1)

    def test_functoriality_on_random_pairs(self):
        rng = random.Random(11)
        g = trivial_product(2, PointGroup.cyclic(2))
        pres = stabilizer_center(g)
        for _ in range(50):
            a = CrystalAutomorphism.build(g, lattice_part=random_unimodular(rng, 2))
            b = CrystalAutomorphism.build(g, lattice_part=random_unimodular(rng, 2))
            rho_ab = center_quotient_matrix(pres, a.compose(b))
            assert rho_ab == center_quotient_matrix(pres, a) * center_quotient_matrix(pres, b)

    def test_dihedral_flip_negates(self):
        g = dihedral_infinite()
        pres = stabilizer_center(g)
        auto = CrystalAutomorphism.build(g, lattice_part=((-1,),))
        assert center_quotient_matrix(pres, auto) == IntMatrix(((-1,),))


class TestCrystalEntropy:
    def test_every_dihedral_automorphism_has_zero_entropy(self):
        g = dihedral_infinite()
        for sign in (1, -1):
            for t in (-4, -2, 0, 2, 4):
                auto = CrystalAutomorphism.build(
                    g, lattice_part=((sign,),), translations={"f": (t,)}
                )
                est = crystal_entropy(g, auto)
                assert est.value == 0.0

    def test_cat_map_through_torsion_product(self):
        g = trivial_product(2, PointGroup.cyclic(2))
        auto = CrystalAutomorphism.build(g, lattice_part=CAT)
        est = crystal_entropy(g, auto)
        assert abs(est.value - GOLDEN_ENTROPY) < 1e-9
        assert est.diagnostics["center_rank"] == 2

    def test_cat_map_through_point_reflection(self):
        g = point_reflection_square()
        auto = CrystalAutomorphism.build(g, lattice_part=CAT, translations={"r": (1, 0)})
        est = crystal_entropy(g, auto)
        assert abs(est.value - GOLDEN_ENTROPY) < 1e-9

    def test_entropy_of_inverse_matches(self):
        g = point_reflection_square()
        auto = CrystalAutomorphism.build(g, lattice_part=CAT)
        a = crystal_entropy(g, auto).value
        b = crystal_entropy(g, auto.inverse()).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_power_scales_entropy(self):
        g = trivial_product(2, PointGroup.cyclic(2))
        auto = CrystalAutomorphism.build(g, lattice_part=CAT)
        h1 = crystal_entropy(g, auto).value
        h3 = crystal_entropy(g, auto.power(3)).value
        assert h3 == pytest.approx(3 * h1, abs=1e-9)

    def test_glide_translation_auto_is_zero(self):
        g = glide_plane_group()
        auto = CrystalAutomorphism.build(
            g, lattice_part=((1, 0), (0, -1)), translations={"g": (0, 3)}
        )
        assert crystal_entropy(g, auto).value == 0.0

    def test_group_mismatch_raises(self):
        prod = trivial_product(2, PointGroup.cyclic(2))
        auto = CrystalAutomorphism.build(prod, lattice_part=CAT)
        with pytest.raises(ShapeError, match=r"^automorphism of a different group$"):
            crystal_entropy(point_reflection_square(), auto)

    def test_answers_without_the_center_presentation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("center presentation built")

        monkeypatch.setattr("dualent.crystal.stabilizer_center", refuse)
        monkeypatch.setattr("dualent.crystal.center_quotient_matrix", refuse)
        g = trivial_product(2, PointGroup.cyclic(2))
        est = crystal_entropy(g, CrystalAutomorphism.build(g, lattice_part=CAT))
        assert abs(est.value - GOLDEN_ENTROPY) < 1e-9
        assert est.diagnostics["center_rank"] == 2


def random_automorphisms(rng, per_group):
    """Seeded random automorphisms of each canned group: a random lattice
    block with random translations, or with zero translations, where the
    group admits it (else the identity: the glide group rejects most
    blocks), followed by a random word in that group's canned
    automorphisms."""
    canned = canned_automorphisms()
    out = []
    for g in canned_groups():
        words = [a for h, a in canned if h == g]
        for _ in range(per_group):
            sigma = random_unimodular(rng, g.rank)
            shifts = {
                h: [rng.randrange(-9, 10) for _ in range(g.rank)]
                for h in range(1, g.point_group.order)
            }
            auto = CrystalAutomorphism.identity(g)
            for translations in (shifts, None):
                try:
                    auto = CrystalAutomorphism.build(g, lattice_part=sigma, translations=translations)
                    break
                except GroupValidationError:
                    pass
            for _ in range(rng.randrange(1, 4)):
                auto = rng.choice(words).compose(auto)
            out.append((g, auto))
    return out


def c3_inversion():
    """Z^2 x C3 with the cat map on the lattice and g1 <-> g2 on C3."""
    g = trivial_product(2, PointGroup.cyclic(3))
    return g, CrystalAutomorphism.build(g, lattice_part=CAT, quotient_map=("e", "g2", "g1"))


class TestLatticeRoute:
    """crystal_entropy reads the lattice part sigma; the center route reads
    the induced matrix rho on the free part of the stabilizer center. The two
    are conjugate over Q, so every entropy byte agrees."""

    DOCUMENTS = ("crystal_dinfty", "crystal_glide", "crystal_p2_catmap", "crystal_z2xc2_catmap")

    def test_center_route_agrees_on_documents_canned_and_random(self):
        docs = [parse_spec(str(EXAMPLE_DIR / f"{name}.json")) for name in self.DOCUMENTS]
        random_instances = random_automorphisms(random.Random(27), 26)
        assert len(random_instances) >= 100
        instances = (
            [(doc.group, doc.automorphism) for doc in docs]
            + canned_automorphisms()
            + random_instances
            + [c3_inversion()]
        )
        for g, auto in instances:
            presentation = stabilizer_center(g)
            rho = center_quotient_matrix(presentation, auto)
            assert char_poly(rho) == char_poly(auto.lattice_part), (g, auto)
            center = eigen_entropy(rho)
            est = crystal_entropy(g, auto)
            assert est.value == center.value
            for key in ("root_moduli", "char_poly", "determinant"):
                assert est.diagnostics[key] == center.diagnostics[key], key
            assert est.diagnostics["center_rank"] == len(presentation.free_basis)
            assert est.diagnostics["note"] == "crystal center reduction"

    def test_c3_inversion_center_matrix_differs_from_sigma(self):
        # the Smith basis of the center mixes the lattice with the C3
        # generator, so rho is another integer matrix with sigma's
        # characteristic polynomial
        g, auto = c3_inversion()
        rho = center_quotient_matrix(stabilizer_center(g), auto)
        assert rho == IntMatrix(((1, 1), (1, 2)))
        assert rho != auto.lattice_part
        assert crystal_entropy(g, auto).value == eigen_entropy(rho).value


class TestFgAbelianEntropy:
    def test_finite_group_is_zero(self):
        g = FgAbelianGroup(0, (2, 4))
        auto = AbelianAutomorphism.identity(g)
        est = fg_abelian_entropy(auto)
        assert est.value == 0.0
        assert est.diagnostics["note"] == "finite group"

    def test_lattice_with_torsion_uses_lattice_block(self):
        g = FgAbelianGroup(2, (2,))
        auto = AbelianAutomorphism.build(g, lattice=CAT, mixing=((1,), (0,)))
        est = fg_abelian_entropy(auto)
        assert abs(est.value - GOLDEN_ENTROPY) < 1e-9


class TestExtensionRankBound:
    def test_mixed_shift_through_torsion_product(self):
        g = trivial_product(1, PointGroup.cyclic(2))
        omega = [g.element("g1", (1,))]
        report = extension_rank_bound(g, omega, Fraction(1, 2), 8)
        assert report.holds
        # direct rank at doubled tolerance 1: a 3-run along the orbit of the
        # shift reaches defect 2/3, and no 2-point support goes below 1
        assert report.lhs == 3
        # quotient average over Z/2 is rank 2; the conjugated kernel set is
        # the unit shift of Z, rank 5 at tolerance 1/2
        assert report.rhs == 10
        assert report.quotient_rank == 2
        assert report.kernel_rank == 5

    def test_pure_lattice_shift_on_dihedral(self):
        g = dihedral_infinite()
        omega = [g.lattice_element((1,)), g.lattice_element((-1,))]
        report = extension_rank_bound(g, omega, Fraction(1, 2), 8)
        assert report.holds
        assert report.lhs == 3
        assert report.rhs == 5

    def test_mixed_dihedral_shift_at_tight_delta(self):
        # the flip carries (e, a) to (f, a), so weights on one coset pay 2
        # on it: the witness puts 3 points on the lattice and 2 on its coset
        g = dihedral_infinite()
        omega = [g.element("f", (0,)), g.lattice_element((1,))]
        report = extension_rank_bound(g, omega, Fraction(1, 2), 6)
        assert (report.lhs, report.rhs) == (5, 10)
        assert report.holds
        assert (report.quotient_rank, report.kernel_rank) == (2, 5)

    def test_mixed_dihedral_shift_drops_at_loose_delta(self):
        g = dihedral_infinite()
        omega = [g.element("f", (0,)), g.lattice_element((1,))]
        report = extension_rank_bound(g, omega, Fraction(5, 4), 6)
        assert report.holds
        assert (report.lhs, report.rhs) == (1, 4)

    def test_glide_reflection_alone(self):
        # the glide squares to the unit translation, so its orbit is a run
        # that alternates between the two cosets
        g = glide_plane_group()
        report = extension_rank_bound(g, [g.element("g", (0, 0))], Fraction(1, 2), 2)
        assert (report.lhs, report.rhs) == (3, 10)
        assert report.holds

    def test_point_reflection_alone(self):
        # the reflection swaps (e, 0) and (r, 0): their average is invariant
        g = point_reflection_square()
        report = extension_rank_bound(g, [g.element("r", (0, 0))], Fraction(1, 2), 2)
        assert (report.lhs, report.rhs) == (2, 2)
        assert report.holds

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1, 2)], ids=["0", "-1/2"])
    def test_delta_must_be_positive(self, delta):
        # raised by the quotient search, before any box is built
        g = dihedral_infinite()
        with pytest.raises(ValueError, match=r"^delta must be positive$") as caught:
            extension_rank_bound(g, [g.lattice_element((1,))], delta, 2)
        assert caught.type is ValueError


def _center_rank(group, omega, delta, radius):
    """The rank at doubled tolerance searched in the coordinates of the
    stabilizer center, over its ball of the given radius. On a group whose
    point group is abelian, acts trivially and has a symmetric cocycle, the
    center is the whole group, so this is a second route to the left side
    of `extension_rank_bound`."""
    presentation = stabilizer_center(group)
    mapped = [presentation.coordinates(w) for w in omega]
    return min_rank_bruteforce(presentation.abelian, mapped, 2 * delta, radius).rank


def _abelian_shaped_groups():
    square_root_of_t = CrystalGroup(
        point_group=PointGroup.cyclic(2),
        rank=1,
        action=(IntMatrix.identity(1), IntMatrix.identity(1)),
        cocycle=(((0,), (0,)), ((0,), (1,))),
    )
    catmap = parse_spec(str(EXAMPLE_DIR / "crystal_z2xc2_catmap.json")).group
    return {
        "z_times_c2": (trivial_product(1, PointGroup.cyclic(2)), 4),
        "c2_squaring_to_t": (square_root_of_t, 4),
        "z2xc2_catmap": (catmap, 2),
    }


class TestExtensionRankAgainstTheCenter:
    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4)])
    @pytest.mark.parametrize("name", sorted(_abelian_shaped_groups()))
    def test_box_rank_matches_the_center_rank(self, name, delta):
        group, radius = _abelian_shaped_groups()[name]
        for a in itertools.product((-1, 0, 1), repeat=group.rank):
            for h in range(group.point_group.order):
                shift = group.element(h, a)
                if shift.is_identity():
                    continue
                report = extension_rank_bound(group, [shift], delta, radius)
                assert report.lhs == _center_rank(group, [shift], delta, radius), shift
