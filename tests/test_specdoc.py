import json

import pytest
from hypothesis import given, settings, strategies as st

from dualent.specdoc import (
    SpecFormatError,
    parse_spec,
    parse_spec_data,
    canonical_data,
    emit_spec,
)
from tests.test_groups import unimodular_strategy


def minimal(kind="free_abelian", **extra):
    doc = {"group": {"kind": kind, "rank": 2}}
    doc.update(extra)
    return doc


class TestParsing:
    def test_parses_every_example(self, example_dir):
        paths = sorted(example_dir.glob("*.json"))
        assert len(paths) >= 6
        for path in paths:
            doc = parse_spec(path)
            assert doc.group is not None

    def test_example_corpus_covers_all_group_kinds(self, example_dir):
        kinds = set()
        for path in sorted(example_dir.glob("*.json")):
            kinds.add(parse_spec(path).kind)
        assert kinds == {"free_abelian", "fg_abelian", "crystal"}

    def test_minimal_document(self):
        doc = parse_spec_data(minimal())
        assert doc.kind == "free_abelian"
        assert doc.automorphism is None
        assert doc.omega is None

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(SpecFormatError, match="unknown key"):
            parse_spec_data(minimal(bogus=1))

    def test_rejects_unknown_group_key(self):
        with pytest.raises(SpecFormatError):
            parse_spec_data({"group": {"kind": "free_abelian", "rank": 1, "x": 2}})

    def test_rejects_missing_group(self):
        with pytest.raises(SpecFormatError, match="group"):
            parse_spec_data({})

    def test_rejects_bool_as_int(self):
        with pytest.raises(SpecFormatError):
            parse_spec_data({"group": {"kind": "free_abelian", "rank": True}})

    def test_rejects_singular_matrix(self):
        with pytest.raises(SpecFormatError, match="determinant"):
            parse_spec_data(minimal(auto={"lattice": [[1, 0], [2, 0]]}))

    def test_rejects_empty_omega(self):
        with pytest.raises(SpecFormatError):
            parse_spec_data(minimal(omega=[]))

    def test_rejects_negative_params(self):
        with pytest.raises(SpecFormatError):
            parse_spec_data(minimal(params={"delta": -0.5}))

    @pytest.mark.parametrize("key", ["delta", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400], ids=["nan", "inf", "huge-int"])
    def test_rejects_non_finite_params(self, key, value):
        with pytest.raises(SpecFormatError, match=rf"^params\.{key}: expected a finite number"):
            parse_spec_data(minimal(params={key: value}))

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecFormatError, match="kind"):
            parse_spec_data({"group": {"kind": "nilpotent", "rank": 2}})

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(SpecFormatError, match="line"):
            parse_spec(bad)

    def test_torsion_orders(self):
        doc = parse_spec_data(
            {"group": {"kind": "fg_abelian", "rank": 1, "torsion": [2, 4]}}
        )
        assert doc.group.torsion == (2, 4)

    def test_crystal_labels_resolve(self):
        doc = parse_spec_data(
            {
                "group": {
                    "kind": "crystal",
                    "rank": 1,
                    "point_group": {
                        "elements": ["e", "f"],
                        "table": [[0, 1], [1, 0]],
                    },
                    "action": {"f": [[-1]]},
                },
                "auto": {"lattice": [[-1]], "translation": {"f": [2]}},
            }
        )
        assert doc.kind == "crystal"
        img = doc.automorphism.apply(doc.group.element("f", (0,)))
        assert img.lattice == (2,)

    def test_crystal_unknown_action_label_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_spec_data(
                {
                    "group": {
                        "kind": "crystal",
                        "rank": 1,
                        "point_group": {
                            "elements": ["e", "f"],
                            "table": [[0, 1], [1, 0]],
                        },
                        "action": {"zz": [[-1]]},
                    }
                }
            )

    def test_invalid_crystal_data_is_a_format_error(self):
        # a broken multiplication table surfaces as a document error, not a
        # raw library exception
        with pytest.raises(SpecFormatError):
            parse_spec_data(
                {
                    "group": {
                        "kind": "crystal",
                        "rank": 1,
                        "point_group": {
                            "elements": ["e", "f"],
                            "table": [[0, 1], [0, 1]],
                        },
                    }
                }
            )


class TestRoundTrip:
    def test_examples_round_trip(self, example_dir):
        for path in sorted(example_dir.glob("*.json")):
            doc = parse_spec(path)
            again = parse_spec_data(json.loads(emit_spec(doc)))
            assert again == doc, path.name

    def test_emit_is_deterministic(self, example_dir):
        for path in sorted(example_dir.glob("*.json")):
            doc = parse_spec(path)
            assert emit_spec(doc) == emit_spec(doc)

    def test_canonical_form_drops_defaults(self):
        doc = parse_spec_data(minimal(auto={"lattice": [[1, 0], [0, 1]]}))
        data = canonical_data(doc)
        assert "lattice" not in data.get("auto", {})

    def test_canonical_keys_sorted(self):
        doc = parse_spec_data(
            minimal(params={"n": 12, "delta": 0.5}, omega=[[1, 0]])
        )
        text = emit_spec(doc)
        assert text.index('"group"') < text.index('"omega"') < text.index('"params"')

    CYCLIC4 = {"elements": ["e", "g1", "g2", "g3"],
               "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}

    @pytest.mark.parametrize("data", [
        {"group": {"kind": "fg_abelian", "rank": 0, "torsion": [5]},
         "auto": {"torsion_map": {"0": [0], "1": [2], "2": [4], "3": [1], "4": [3]}},
         "base": [[0], [1]]},
        {"group": {"kind": "fg_abelian", "rank": 1, "torsion": [2, 2]},
         "auto": {"lattice": [[-1]], "mixing": [[1, 0]],
                  "torsion_map": {"0,0": [0, 0], "0,1": [1, 0], "1,0": [0, 1], "1,1": [1, 1]}},
         "omega": [[1, 0, 1], [0, 1, 1]]},
        {"group": {"kind": "crystal", "rank": 1, "point_group": CYCLIC4},
         "auto": {"lattice": [[-1]], "quotient_map": {"g1": "g3", "g3": "g1"}},
         "omega": [["g1", 0], ["e", 1]], "base": [["e", 0], ["g2", -2]]},
        {"group": {"kind": "crystal", "rank": 1,
                   "point_group": {"elements": ["e", "f"], "table": [[0, 1], [1, 0]]},
                   "action": {"f": [[-1]]}},
         "auto": {"translation": {"f": [2]}},
         "omega": [["f", 0], ["e", 1]], "base": [["e", 0], ["f", 3]]},
    ], ids=["torsion-map-1", "torsion-map-2-mixing", "crystal-quotient-map", "crystal-translation"])
    def test_optional_blocks_round_trip(self, data):
        """Each document is already canonical, so emitting it gives back the
        same data, and parsing that gives back the same document."""
        doc = parse_spec_data(data)
        assert canonical_data(doc) == data
        assert parse_spec_data(json.loads(emit_spec(doc))) == doc

    @settings(max_examples=30, deadline=None)
    @given(
        unimodular_strategy(2),
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.one_of(st.none(), st.integers(1, 20)),
    )
    def test_generated_documents_round_trip(self, m, omega, n):
        data = {
            "group": {"kind": "free_abelian", "rank": 2},
            "auto": {"lattice": [list(r) for r in m.entries]},
            "omega": [list(v) for v in omega],
        }
        if n is not None:
            data["params"] = {"n": n}
        doc = parse_spec_data(data)
        again = parse_spec_data(json.loads(emit_spec(doc)))
        assert again == doc
