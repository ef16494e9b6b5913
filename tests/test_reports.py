import json
from fractions import Fraction

import pytest

from dualent.crystal import dihedral_infinite, extension_rank_bound
from dualent.groups import FgAbelianGroup
from dualent.folner import WeightedFunction, min_rank_bruteforce
from dualent.growth import GrowthSeries, growth_rate_estimate
from dualent.spectral import eigen_entropy
from dualent.groups import IntMatrix
from dualent.reports import emit_report, render_json, render_csv, render_text


@pytest.fixture
def cert(z1):
    omega = [z1.element((1,)), z1.element((-1,))]
    return min_rank_bruteforce(z1, omega, 0.5, 8)


def test_entropy_json_payload(cat_matrix):
    est = eigen_entropy(cat_matrix)
    data = json.loads(render_json(est))
    assert data["type"] == "entropy"
    assert data["method"] == "spectral"
    assert abs(data["value"] - 0.9624236501192069) < 1e-12


def test_entropy_json_is_bytes_stable(cat_matrix):
    est = eigen_entropy(cat_matrix)
    assert emit_report(est, "json") == emit_report(est, "json")
    assert isinstance(emit_report(est, "json"), bytes)


def test_certificate_json_round_trips_weights(cert):
    data = json.loads(render_json(cert))
    assert data["rank"] == 5
    assert data["defect_exact"] == "2/5"
    assert data["exhaustive_within_radius"] is True
    weights = data["witness"]["weights"]
    assert weights == ["1/5"] * 5


def test_growth_series_csv():
    series = GrowthSeries(sizes=(4, 12, 33), capped=False)
    text = render_csv(series)
    lines = text.strip().splitlines()
    assert lines[0] == "n,size,log_size_over_n"
    assert lines[1].startswith("1,4,")
    assert len(lines) == 4


@pytest.mark.parametrize("sizes, capped", [((4, 12, 33), False), ((3, 9, 21, 39, 63), True)])
def test_peters_estimate_csv_is_its_series_csv(sizes, capped):
    series = GrowthSeries(sizes=sizes, capped=capped)
    assert emit_report(growth_rate_estimate(series), "csv") == emit_report(series, "csv")


def test_entropy_csv_single_row(cat_matrix):
    est = eigen_entropy(cat_matrix)
    lines = render_csv(est).strip().splitlines()
    assert lines[0].startswith("value,")
    assert len(lines) == 2


def test_text_rendering_mentions_method(cat_matrix):
    est = eigen_entropy(cat_matrix)
    out = render_text(est)
    assert "spectral" in out
    assert "0.9624236501" in out


def test_text_rendering_of_certificate(cert):
    out = render_text(cert)
    assert "rank 5" in out
    assert "2/5" in out


def test_weighted_function_json(z1):
    f = WeightedFunction.uniform(z1, [z1.element((i,)) for i in range(2)])
    data = json.loads(render_json(f))
    assert data["exact"] is True
    assert data["weights"] == ["1/2", "1/2"]


def test_fraction_and_special_floats():
    data = json.loads(render_json({"a": Fraction(1, 3), "b": float("inf")}))
    assert data["a"] == "1/3"
    assert data["b"] == "inf"


def test_unknown_format_rejected(cat_matrix):
    est = eigen_entropy(cat_matrix)
    with pytest.raises(ValueError):
        emit_report(est, "yaml")


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        render_json(object())


def test_matrix_serializes_as_rows():
    data = json.loads(render_json(IntMatrix(((2, 1), (1, 1)))))
    assert data == [[2, 1], [1, 1]]


def test_extension_rank_report_payloads():
    g = dihedral_infinite()
    omega = [g.element("f", (0,)), g.lattice_element((1,))]
    report = extension_rank_bound(g, omega, Fraction(1, 2), 6)
    assert json.loads(render_json(report)) == {
        "type": "extension_rank_report", "lhs": 5, "rhs": 10, "holds": True,
        "quotient_rank": 2, "kernel_rank": 5, "delta": 0.5,
    }
    assert render_text(report) == "extension bound: lhs 5 <= rhs 10 (holds; quotient 2, kernel 5)\n"
