import dataclasses
import itertools
from fractions import Fraction

import pytest

from dualent import laws
from dualent.folner import WeightedFunction, sqrt_overlap_check
from dualent.groups import AbelianAutomorphism, FgAbelianGroup, IntMatrix
from dualent.growth import FiniteSubset, growth_rate_estimate, growth_series
from dualent.laws import (
    LawReport,
    LawInstance,
    RankComparison,
    check_conjugacy,
    check_peters_vs_spectral,
    check_power_law,
    check_product_bounds,
    check_quotient_rank,
    check_sqrt_overlap,
    check_subgroup_rank,
    random_unimodular,
    run_all_laws,
)
from dualent.spectral import IntPolynomial, eigen_entropy
import random


class TestRandomUnimodular:
    def test_always_unimodular(self):
        rng = random.Random(0)
        for dim in (1, 2, 3):
            for _ in range(200):
                m = random_unimodular(rng, dim)
                assert m.det() in (1, -1)
                assert all(abs(x) <= 50 for row in m.entries for x in row)

    def test_deterministic_for_seed(self):
        a = [random_unimodular(random.Random(7), 2) for _ in range(5)]
        b = [random_unimodular(random.Random(7), 2) for _ in range(5)]
        assert a == b


class TestLawReport:
    def test_passed_requires_no_failures(self):
        good = LawReport(law="x", instances=100, tolerance=0.0, max_deviation=0.0,
                         failures=())
        assert good.passed
        bad = LawReport(law="x", instances=100, tolerance=0.0, max_deviation=1.0,
                        failures=(LawInstance(0, (("a", 1),), 1.0),))
        assert not bad.passed

    def test_summary_mentions_law_and_counts(self):
        rep = check_power_law(trials=5, seed=0)
        line = rep.summary()
        assert "power" in line
        assert "5" in line


class TestAlgebraicLaws:
    def test_power_law_clean(self):
        rep = check_power_law(trials=100, seed=0)
        assert rep.passed
        assert rep.instances >= 100
        assert rep.max_deviation <= rep.tolerance

    def test_conjugacy_exact(self):
        rep = check_conjugacy(trials=100, seed=1)
        assert rep.passed
        assert rep.max_deviation == 0.0

    def test_conjugacy_failure_is_reported(self, monkeypatch):
        # force the second characteristic polynomial of the one trial off by
        # one in its constant term: the law must report, not crash
        real = laws.char_poly
        calls = []

        def skewed(m):
            p = real(m)
            calls.append(m)
            if len(calls) == 2:
                return IntPolynomial(p.coeffs[:-1] + (p.coeffs[-1] + 1,))
            return p

        monkeypatch.setattr(laws, "char_poly", skewed)
        rep = check_conjugacy(trials=1, seed=1)
        assert isinstance(rep, LawReport)
        assert not rep.passed
        assert len(rep.failures) == 1
        assert rep.failures[0].deviation == 1.0
        assert rep.max_deviation == 1.0

    def test_product_bounds_clean(self):
        rep = check_product_bounds(trials=100, seed=2)
        assert rep.passed

    def test_failures_carry_reproduction_data(self):
        rep = check_power_law(trials=10, seed=3)
        assert rep.seed == 3
        # inputs recorded per instance would appear inside failures; with a
        # passing run the seed plus index is the reproduction recipe
        assert rep.instances == 10


def _fault_on_call(monkeypatch, bad_call):
    """Patch laws.eigen_entropy to add 1.0 to the value of call number
    bad_call (0-based); returns the list of matrices it was called with."""
    real = laws.eigen_entropy
    seen = []

    def faulty(m, *args, **kwargs):
        est = real(m, *args, **kwargs)
        seen.append(m)
        if len(seen) == bad_call + 1:
            return dataclasses.replace(est, value=est.value + 1.0)
        return est

    monkeypatch.setattr(laws, "eigen_entropy", faulty)
    return seen


class TestLawFailureReports:
    def test_power_law_failure_records_matrix_k_and_seed(self, monkeypatch):
        # two calls per trial (base, power): corrupt the power of trial 2
        seen = _fault_on_call(monkeypatch, 2 * 2 + 1)
        rep = check_power_law(trials=4, seed=5)
        assert not rep.passed
        assert len(rep.failures) == 1
        failure = rep.failures[0]
        assert failure.index == 2
        assert failure.deviation == pytest.approx(1.0)
        inputs = dict(failure.inputs)
        assert set(inputs) == {"matrix", "k", "seed"}
        assert inputs["seed"] == 5
        m = IntMatrix(inputs["matrix"])
        assert m == seen[4]
        assert m.power(inputs["k"]) == seen[5]
        # the recorded inputs reproduce the instance, which holds on the
        # real function
        monkeypatch.undo()
        dev = abs(eigen_entropy(m.power(inputs["k"])).value
                  - abs(inputs["k"]) * eigen_entropy(m).value)
        assert dev <= rep.tolerance
        assert check_power_law(trials=4, seed=5).passed

    def test_product_failure_records_both_factors_and_seed(self, monkeypatch):
        # three calls per trial (m1, m2, block sum): corrupt the sum of trial 1
        seen = _fault_on_call(monkeypatch, 3 * 1 + 2)
        rep = check_product_bounds(trials=3, seed=6)
        assert not rep.passed
        assert len(rep.failures) == 1
        failure = rep.failures[0]
        assert failure.index == 1
        assert failure.deviation == pytest.approx(1.0)
        inputs = dict(failure.inputs)
        assert set(inputs) == {"m1", "m2", "seed"}
        assert inputs["seed"] == 6
        m1, m2 = IntMatrix(inputs["m1"]), IntMatrix(inputs["m2"])
        assert (m1, m2) == (seen[3], seen[4])
        assert IntMatrix.block_diag(m1, m2) == seen[5]
        monkeypatch.undo()
        h12 = eigen_entropy(IntMatrix.block_diag(m1, m2)).value
        dev = abs(h12 - eigen_entropy(m1).value - eigen_entropy(m2).value)
        assert dev <= rep.tolerance
        assert check_product_bounds(trials=3, seed=6).passed

    def test_peters_disagreement_records_label_matrix_base_and_depth(self, monkeypatch):
        # one estimate per canned instance: push the third one (the 3-D
        # hyperbolic map on the cube corners) 1.0 away from the spectral value
        real = laws.growth_rate_estimate
        seen = []

        def faulty(series):
            est = real(series)
            seen.append(series)
            if len(seen) == 3:
                return dataclasses.replace(est, value=est.value + 1.0)
            return est

        monkeypatch.setattr(laws, "growth_rate_estimate", faulty)
        rep = check_peters_vs_spectral(n_max=10)
        assert not rep.passed
        assert rep.inconclusive == ()
        assert len(rep.failures) == 1
        failure = rep.failures[0]
        assert failure.index == 2
        assert failure.note == "route disagreement"
        inputs = dict(failure.inputs)
        assert inputs["label"] == "hyperbolic-3d"
        assert inputs["n_max"] == 10
        assert inputs["base"] == tuple(itertools.product((0, 1), repeat=3))
        matrix = IntMatrix(inputs["matrix"])
        assert matrix == IntMatrix(((0, 0, 1), (1, 0, 1), (0, 1, 1)))
        # the recorded inputs reproduce the instance on the real functions
        monkeypatch.undo()
        z3 = FgAbelianGroup(3)
        auto = AbelianAutomorphism.from_matrix(z3, matrix)
        series = growth_series(auto, FiniteSubset.of(z3, inputs["base"]), inputs["n_max"])
        assert series == seen[2]
        estimate = growth_rate_estimate(series).value
        assert inputs["peters"] == estimate + 1.0
        assert inputs["spectral"] == eigen_entropy(matrix).value
        assert abs(estimate - inputs["spectral"]) <= rep.tolerance
        assert failure.deviation == pytest.approx(abs(inputs["peters"] - inputs["spectral"]))
        assert check_peters_vs_spectral(n_max=10).passed

    def test_sqrt_overlap_failure_records_support_weights_shift_and_seed(self, monkeypatch):
        # one check per trial: report trial 3 as violated by 1.0
        real = laws.sqrt_overlap_check
        seen = []

        def faulty(func, shift):
            lhs, rhs, holds = real(func, shift)
            seen.append((func, shift))
            if len(seen) == 4:
                return rhs + 1.0, rhs, False
            return lhs, rhs, holds

        monkeypatch.setattr(laws, "sqrt_overlap_check", faulty)
        rep = check_sqrt_overlap(trials=6, seed=7)
        assert not rep.passed
        assert len(rep.failures) == 1
        failure = rep.failures[0]
        assert failure.index == 3
        assert failure.deviation == pytest.approx(1.0)
        inputs = dict(failure.inputs)
        assert set(inputs) == {"support", "weights", "shift", "seed"}
        assert inputs["seed"] == 7
        # the recorded inputs rebuild the same weighting and shift, for which
        # the real bound holds
        monkeypatch.undo()
        group = FgAbelianGroup(len(inputs["shift"]))
        func = WeightedFunction(
            group,
            tuple(group.element(p) for p in inputs["support"]),
            tuple(Fraction(n, d) for n, d in inputs["weights"]),
        )
        shift = group.element(inputs["shift"])
        assert (func, shift) == seen[3]
        assert sqrt_overlap_check(func, shift)[2]
        assert check_sqrt_overlap(trials=6, seed=7).passed


class TestRankLaws:
    def test_quotient_rank_canned_instances(self):
        rep = check_quotient_rank()
        assert rep.passed
        assert rep.failures == ()
        assert rep.inconclusive == ()

    def test_subgroup_rank_canned_instances(self):
        rep = check_subgroup_rank()
        assert rep.passed
        assert rep.failures == ()
        assert rep.inconclusive == ()

    def test_violated_rank_law_is_reported(self):
        # the lower side needs a 5-point run below delta 1/2, while the
        # identity shift upstairs is met by a point mass
        z1 = FgAbelianGroup(1)
        rep = check_quotient_rank([
            RankComparison(
                "forced-violation",
                z1, (z1.element((1,)), z1.element((-1,))),
                z1, (z1.element((0,)),),
                Fraction(1, 2), 6,
            ),
        ])
        assert not rep.passed
        assert rep.inconclusive == ()
        assert len(rep.failures) == 1
        inputs = dict(rep.failures[0].inputs)
        assert inputs["lower_rank"] == 5
        assert inputs["upper_rank"] == 1
        assert rep.failures[0].deviation == 4.0


class TestGrowthLaw:
    def test_canned_hyperbolic_matrices_within_tolerance(self):
        rep = check_peters_vs_spectral()
        assert rep.passed
        assert rep.max_deviation <= 0.15

    def test_custom_matrix_list(self):
        rep = check_peters_vs_spectral(matrices=[IntMatrix(((2, 1), (1, 1)))])
        assert rep.passed
        assert rep.instances == 1


class TestSqrtOverlapLaw:
    def test_thousand_instances(self):
        rep = check_sqrt_overlap(trials=1000, seed=3)
        assert rep.passed
        assert rep.instances == 1000
        assert rep.max_deviation <= rep.tolerance


def test_run_all_laws_aggregates():
    reports = run_all_laws(trials=20, seed=0)
    names = {r.law for r in reports}
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    assert any("power" in n for n in names)
    assert any("sqrt" in n or "overlap" in n for n in names)
