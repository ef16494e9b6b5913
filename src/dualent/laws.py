"""Executable verification of the structural laws: powers, conjugacy,
products, rank monotonicity under quotients and subgroups, the square-root
overlap inequality, and agreement of the two independent entropy routes.

Every check returns a LawReport whose failures carry enough data to rerun
the offending instance in isolation, and is reproducible from its seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .groups import AbelianAutomorphism, FgAbelianGroup, IntMatrix
from .spectral import char_poly, eigen_entropy
from .growth import FiniteSubset, growth_rate_estimate, growth_series
from .folner import WeightedFunction, min_rank_bruteforce, sqrt_overlap_check

MAX_ENTRY = 50
MAX_FACTORS = 8


@dataclass(frozen=True)
class LawInstance:
    """One checked instance; inputs are plain data sufficient to rerun it."""

    index: int
    inputs: tuple[tuple[str, object], ...]
    deviation: float
    note: str = ""


@dataclass(frozen=True)
class LawReport:
    law: str
    instances: int
    tolerance: float
    max_deviation: float
    failures: tuple[LawInstance, ...]
    inconclusive: tuple[LawInstance, ...] = ()
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f", {len(self.inconclusive)} inconclusive" if self.inconclusive else ""
        return (
            f"{self.law}: {state} ({self.instances} instances, "
            f"max deviation {self.max_deviation:.3g}, "
            f"tolerance {self.tolerance:g}{extra})"
        )


def random_unimodular(rng: random.Random, dim: int) -> IntMatrix:
    """Random unimodular matrix: a product of at most MAX_FACTORS elementary
    transvections and signed permutations. Factors that would push any entry
    past MAX_ENTRY are discarded, keeping eigenvalues in a range where the
    root finder's tolerances stay meaningful."""
    result = IntMatrix.identity(dim)
    for _ in range(MAX_FACTORS):
        if dim == 1:
            factor = IntMatrix(((rng.choice((1, -1)),),))
        elif rng.random() < 0.7:
            i = rng.randrange(dim)
            j = rng.randrange(dim - 1)
            if j >= i:
                j += 1
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows = [
                [1 if a == b else 0 for b in range(dim)] for a in range(dim)
            ]
            rows[i][j] = c
            factor = IntMatrix(tuple(tuple(r) for r in rows))
        else:
            perm = list(range(dim))
            rng.shuffle(perm)
            rows = [
                [rng.choice((1, -1)) if perm[a] == b else 0 for b in range(dim)]
                for a in range(dim)
            ]
            factor = IntMatrix(tuple(tuple(r) for r in rows))
        candidate = result * factor
        if max(abs(x) for row in candidate.entries for x in row) <= MAX_ENTRY:
            result = candidate
    return result


# --- spectral-level laws -----------------------------------------------------


def _seeded_law(law: str, trials: int, seed: int, tolerance: float, draw) -> LawReport:
    """The one loop of the randomized laws (power, conjugacy, product and
    square-root overlap): draw(rng) makes one instance from the seeded
    generator and returns its deviation and its inputs. An instance fails
    when its deviation exceeds the tolerance, and its record ends with the
    seed."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    failures = []
    worst = 0.0
    for t in range(trials):
        dev, inputs = draw(rng)
        worst = max(worst, dev)
        if dev > tolerance:
            failures.append(LawInstance(t, (*inputs, ("seed", seed)), dev))
    return LawReport(law, trials, tolerance, worst, tuple(failures), seed=seed)


def check_power_law(trials: int = 100, seed: int = 0) -> LawReport:
    """Entropy of the k-th power is |k| times the entropy, k in -3..3."""

    def draw(rng):
        m = random_unimodular(rng, rng.randint(1, 3))
        k = rng.randint(-3, 3)
        dev = abs(abs(k) * eigen_entropy(m).value - eigen_entropy(m.power(k)).value)  # base first
        return dev, (("matrix", m.entries), ("k", k))

    return _seeded_law("power", trials, seed, 1e-9, draw)


def check_conjugacy(trials: int = 100, seed: int = 1) -> LawReport:
    """Conjugation preserves the characteristic polynomial exactly, hence the
    entropy exactly."""

    def draw(rng):
        dim = rng.randint(1, 3)
        m = random_unimodular(rng, dim)
        s = random_unimodular(rng, dim)
        p1, p2 = char_poly(m), char_poly(s * m * s.inverse())
        dev = float(max(abs(a - b) for a, b in itertools.zip_longest(p1.coeffs, p2.coeffs, fillvalue=0)))
        return dev, (("matrix", m.entries), ("conjugator", s.entries))

    return _seeded_law("conjugacy", trials, seed, 0.0, draw)


def check_product_bounds(trials: int = 100, seed: int = 2) -> LawReport:
    """Product automorphisms: the entropy of a block sum is sandwiched between
    the max and the sum of the factors, and in the spectral setting equals the
    sum (the spectra unite)."""

    def draw(rng):
        m1 = random_unimodular(rng, rng.randint(1, 2))
        m2 = random_unimodular(rng, rng.randint(1, 2))
        h1 = eigen_entropy(m1).value
        h2 = eigen_entropy(m2).value
        h12 = eigen_entropy(IntMatrix.block_diag(m1, m2)).value
        return max(abs(h12 - (h1 + h2)), max(h1, h2) - h12), (("m1", m1.entries), ("m2", m2.entries))

    return _seeded_law("product", trials, seed, 1e-9, draw)


# --- rank monotonicity -------------------------------------------------------


@dataclass(frozen=True)
class RankComparison:
    """A canned pair of rank searches expected to satisfy lower <= upper."""

    label: str
    lower_group: FgAbelianGroup
    lower_omega: tuple
    upper_group: FgAbelianGroup
    upper_omega: tuple
    delta: Fraction
    radius: int


def _canned_quotient_instances() -> tuple[RankComparison, ...]:
    z1 = FgAbelianGroup(rank=1)
    z2 = FgAbelianGroup(rank=2)
    zc2 = FgAbelianGroup(rank=1, torsion=(2,))
    half = Fraction(1, 2)
    return (
        # projection to the first coordinate: omega along the kept axis
        RankComparison(
            "first-coordinate-kept",
            z1, (z1.element((1,)), z1.element((-1,))),
            z2, (z2.element((1, 0)), z2.element((-1, 0))),
            half, 3,
        ),
        # omega along the killed axis: image collapses to the identity
        RankComparison(
            "first-coordinate-killed",
            z1, (z1.element((0,)),),
            z2, (z2.element((0, 1)), z2.element((0, -1))),
            half, 3,
        ),
        RankComparison(
            "identity-shift",
            z1, (z1.element((0,)),),
            z2, (z2.element((0, 0)),),
            half, 3,
        ),
        # torsion quotient Z x Z/2 -> Z: mixed shift
        RankComparison(
            "torsion-quotient-mixed",
            z1, (z1.element((1,)),),
            zc2, (zc2.element((1,), (1,)),),
            half, 8,
        ),
        # pure torsion shift: image is the identity
        RankComparison(
            "torsion-quotient-pure",
            z1, (z1.element((0,)),),
            zc2, (zc2.element((0,), (1,)),),
            half, 8,
        ),
    )


def _canned_subgroup_instances() -> tuple[RankComparison, ...]:
    z1 = FgAbelianGroup(rank=1)
    z2 = FgAbelianGroup(rank=2)
    half = Fraction(1, 2)
    return (
        # Z x {0} inside Z^2, shifts along the subgroup
        RankComparison(
            "axis-subgroup",
            z1, (z1.element((1,)), z1.element((-1,))),
            z2, (z2.element((1, 0)), z2.element((-1, 0))),
            half, 3,
        ),
        RankComparison(
            "identity-shift",
            z1, (z1.element((0,)),),
            z2, (z2.element((0, 0)),),
            half, 3,
        ),
        # loose tolerance: point masses suffice on both sides
        RankComparison(
            "loose-delta",
            z1, (z1.element((1,)), z1.element((-1,))),
            z2, (z2.element((1, 0)), z2.element((-1, 0))),
            Fraction(21, 10), 3,
        ),
    )


def _check_rank_comparisons(law: str, instances: Sequence[RankComparison]) -> LawReport:
    failures = []
    worst = 0.0
    for idx, inst in enumerate(instances):
        lower = min_rank_bruteforce(
            inst.lower_group, inst.lower_omega, inst.delta, inst.radius
        )
        upper = min_rank_bruteforce(
            inst.upper_group, inst.upper_omega, inst.delta, inst.radius
        )
        dev = float(max(0, lower.rank - upper.rank))
        worst = max(worst, dev)
        if lower.rank > upper.rank:
            # Both searches minimize over their whole balls
            # (min_rank_bruteforce is always exhaustive), so a violation
            # refutes the law.
            failures.append(LawInstance(
                idx,
                (
                    ("label", inst.label),
                    ("delta", (inst.delta.numerator, inst.delta.denominator)),
                    ("radius", inst.radius),
                    ("lower_rank", lower.rank),
                    ("upper_rank", upper.rank),
                    ("lower_exhaustive", lower.exhaustive_within_radius),
                    ("upper_exhaustive", upper.exhaustive_within_radius),
                ),
                dev,
                note="rank inequality violated",
            ))
    return LawReport(law, len(instances), 0.0, worst, tuple(failures))


def check_quotient_rank(instances: Optional[Sequence[RankComparison]] = None) -> LawReport:
    """Rank never increases under a quotient map: the rank of omega upstairs
    bounds the rank of its image. Canned instances cover the coordinate
    projection of Z^2 and the torsion-killing quotient of Z x Z/2."""
    if instances is None:
        instances = _canned_quotient_instances()
    return _check_rank_comparisons("quotient-rank", instances)


def check_subgroup_rank(instances: Optional[Sequence[RankComparison]] = None) -> LawReport:
    """For omega inside a subgroup, the rank computed in the subgroup is at
    most the rank computed in the ambient group (searching the matching
    ball intersection)."""
    if instances is None:
        instances = _canned_subgroup_instances()
    return _check_rank_comparisons("subgroup-rank", instances)


# --- cross-method agreement --------------------------------------------------


def _cube_corners(group: FgAbelianGroup) -> FiniteSubset:
    return FiniteSubset.of(
        group, [tuple(c) for c in itertools.product((0, 1), repeat=group.rank)]
    )


def _unit_ball(group: FgAbelianGroup) -> FiniteSubset:
    return FiniteSubset.of(
        group, [tuple(c) for c in itertools.product((-1, 0, 1), repeat=group.rank)]
    )


def _canned_growth_instances() -> tuple[tuple[str, IntMatrix, FiniteSubset], ...]:
    z2 = FgAbelianGroup(rank=2)
    z3 = FgAbelianGroup(rank=3)
    cat = IntMatrix(((2, 1), (1, 1)))
    cat_squared = IntMatrix(((1, 1), (1, 2))).power(2)
    hyperbolic3 = IntMatrix(((0, 0, 1), (1, 0, 1), (0, 1, 1)))
    # Hyperbolic instances only: for finite-order maps the sumset sizes
    # still grow polynomially (|A + B| > |A| whenever |B| > 1), so the
    # finite-depth tail difference carries a log(n)/n artifact of about
    # 0.17 at depth 12 and the 0.15 agreement contract cannot apply.
    return (
        ("cat-map", cat, _cube_corners(z2)),
        # With cube corners this matrix generates only free formal sums
        # (sizes exactly 4^n), so the sumset route needs the symmetric unit
        # ball to see the actual growth.
        ("cat-map-squared", cat_squared, _unit_ball(z2)),
        ("hyperbolic-3d", hyperbolic3, _cube_corners(z3)),
    )


def check_peters_vs_spectral(
    matrices: Optional[Sequence[IntMatrix]] = None,
    base: Optional[FiniteSubset] = None,
    n_max: int = 12,
) -> LawReport:
    """The sumset-growth estimate agrees with the eigenvalue formula within
    0.15 at depth n_max, and every log(s_n)/n stays above the spectral value
    (the subadditive sequence converges to it from above)."""
    tolerance = 0.15
    if matrices is None:
        instances = _canned_growth_instances()
    else:
        instances = []
        for i, m in enumerate(matrices):
            group = FgAbelianGroup(rank=m.dim)
            instances.append((
                f"matrix-{i}", m, base if base is not None else _cube_corners(group)
            ))
    failures = []
    inconclusive = []
    worst = 0.0
    for idx, (label, matrix, subset) in enumerate(instances):
        spectral = eigen_entropy(matrix).value
        auto = AbelianAutomorphism.from_matrix(subset.group, matrix)
        series = growth_series(auto, subset, n_max)
        if len(series.sizes) < 3:
            inconclusive.append(LawInstance(
                idx,
                (("label", label), ("matrix", matrix.entries),
                 ("sizes", series.sizes)),
                0.0,
                note="growth cap left too few terms",
            ))
            continue
        estimate = growth_rate_estimate(series)
        dev = abs(estimate.value - spectral)
        margin = min(series.log_over_n()) - spectral
        worst = max(worst, dev)
        inputs = (
            ("label", label),
            ("matrix", matrix.entries),
            ("base", tuple(e.lattice for e in subset.sorted_elements())),
            ("n_max", n_max),
            ("peters", estimate.value),
            ("spectral", spectral),
            ("capped", series.capped),
        )
        if margin < -1e-9:
            failures.append(LawInstance(
                idx, inputs, -margin, note="log(s_n)/n fell below the spectral value"
            ))
        elif dev > tolerance:
            record = LawInstance(idx, inputs, dev, note="route disagreement")
            if series.capped:
                inconclusive.append(record)
            else:
                failures.append(record)
    return LawReport(
        "peters-vs-spectral",
        len(instances),
        tolerance,
        worst,
        tuple(failures),
        tuple(inconclusive),
    )


# --- square-root overlap -----------------------------------------------------


def check_sqrt_overlap(trials: int = 1000, seed: int = 3) -> LawReport:
    """Randomized check that the squared deviation of the square-root overlap
    from 1 is bounded by the translation defect."""
    groups = (FgAbelianGroup(rank=1), FgAbelianGroup(rank=2))

    def draw(rng):
        group = groups[rng.randrange(2)]
        p = group.rank
        size = rng.randint(1, 6)
        points = set()
        while len(points) < size:
            points.add(tuple(rng.randint(-10, 10) for _ in range(p)))
        raw = [rng.randint(1, 9) for _ in range(size)]
        total = sum(raw)
        weights = tuple(Fraction(r, total) for r in raw)
        support = tuple(group.element(pt) for pt in sorted(points))
        shift = group.element(tuple(rng.randint(-5, 5) for _ in range(p)))
        lhs, rhs, _ = sqrt_overlap_check(WeightedFunction(group, support, weights), shift)
        return max(0.0, lhs - rhs), (
            ("support", tuple(e.lattice for e in support)),
            ("weights", tuple((w.numerator, w.denominator) for w in weights)),
            ("shift", shift.lattice),
        )

    return _seeded_law("sqrt-overlap", trials, seed, 1e-12, draw)


def run_all_laws(trials: int = 100, seed: int = 0) -> list[LawReport]:
    """Every law check with its canned instances; randomized checks get
    `trials` instances each and seeds derived from `seed`."""
    return [
        check_power_law(trials, seed),
        check_conjugacy(trials, seed + 1),
        check_product_bounds(trials, seed + 2),
        check_quotient_rank(),
        check_subgroup_rank(),
        check_peters_vs_spectral(),
        check_sqrt_overlap(max(trials, 1000) if trials >= 100 else trials, seed + 3),
    ]
