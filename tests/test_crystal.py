import itertools
import random
from fractions import Fraction

import pytest

from dualent.groups import FgAbelianGroup, IntMatrix, AbelianAutomorphism, ShapeError
from dualent.crystal import (
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
