"""Pinned rank certificates.

Each case fixes the exact rank, witness support, witness weights and exact
defect that the search returns. The LP layer may get faster, but it must keep
landing on these same vertices: the certificates are documented output.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from dualent.folner import defect, min_rank_bruteforce, min_rank_table
from dualent.groups import FgAbelianGroup
from dualent.specdoc import parse_spec

from tests.conftest import EXAMPLE_DIR, child_env
from tests import test_folner

F = Fraction

Z1 = FgAbelianGroup(1)
Z2 = FgAbelianGroup(2)
Z1_SHIFTS12 = [Z1.element((s,)) for s in (1, -1, 2, -2)]
Z2_UNIT = [Z2.element(s) for s in ((1, 0), (-1, 0))]
Z2_CROSS = Z2_UNIT + [Z2.element(s) for s in ((0, 1), (0, -1))]


def _weights(*ws):
    return tuple(F(w) for w in ws)


def _run(lo, hi):
    return tuple((i,) for i in range(lo, hi + 1))


RUN5 = _weights(*["1/5"] * 5)
ALTERNATING9 = _weights(*["5/41", "4/41"] * 4, "5/41")

# (id, search, rank, support keys, weights, defect_exact)
BRUTEFORCE_CASES = [
    ("z1-shifts12-r6-delta3/4",
     lambda: min_rank_bruteforce(Z1, Z1_SHIFTS12, F(3, 4), 6, exact=True),
     6, _run(-6, -2) + ((0,),), _weights(*["1/6"] * 6), F(2, 3)),
    ("z1-shifts12-r6-delta1/2",
     lambda: min_rank_bruteforce(Z1, Z1_SHIFTS12, F(1, 2), 6, exact=True),
     9, _run(-6, 2), ALTERNATING9, F(18, 41)),
    ("rank_z1.json",
     lambda: _document_search("rank_z1.json", None),
     5, _run(-4, 0), RUN5, F(2, 5)),
    ("fg_abelian_mixed.json-r2",
     lambda: _document_search("fg_abelian_mixed.json", 2),
     9, tuple((a, t) for a in (-2, -1, 0, 1) for t in (0, 1)) + ((2, 0),),
     ALTERNATING9, F(18, 41)),
    # 49-point balls: the certificate is exact whatever the ball size
    ("catmap_z2.json-r3",
     lambda: _document_search("catmap_z2.json", 3),
     5, tuple((i, 0) for i in range(-3, 2)), RUN5, F(2, 5)),
    # the target of the LP-structure memo: 3,085 LPs under the memo keyed on
    # relabellings of the directed shift graphs, 492 now
    ("z2-axes-r2-delta3/4",
     lambda: min_rank_bruteforce(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(3, 4), 2),
     9, tuple((a, b) for a in (-2, -1, 0) for b in (-2, -1, 0)), _weights(*["1/9"] * 9), F(2, 3)),
    ("first-coordinate-killed",
     lambda: min_rank_bruteforce(Z2, [Z2.element((0, 1)), Z2.element((0, -1))], F(1, 2), 3),
     5, tuple((0, i) for i in range(-3, 2)), RUN5, F(2, 5)),
]

# test_exact_rank_search's Z^2 radius-2 grid: (delta, omega, rank, support, weights, defect).
Z2_GRID = [
    (F(3), Z2_UNIT, 1, ((0, 0),), _weights(1), F(2)),
    (F(3), Z2_CROSS, 1, ((0, 0),), _weights(1), F(2)),
    (F(2), Z2_UNIT, 2, ((-1, 0), (0, 0)), _weights("1/2", "1/2"), F(1)),
    (F(2), Z2_CROSS, 3, ((-1, -1), (-1, 0), (0, 0)), _weights(*["1/3"] * 3), F(4, 3)),
    (F(3, 2), Z2_UNIT, 2, ((-1, 0), (0, 0)), _weights("1/2", "1/2"), F(1)),
    (F(3, 2), Z2_CROSS, 3, ((-1, -1), (-1, 0), (0, 0)), _weights(*["1/3"] * 3), F(4, 3)),
    (F(1), Z2_UNIT, 3, ((-2, 0), (-1, 0), (0, 0)), _weights(*["1/3"] * 3), F(2, 3)),
    (F(3, 4), Z2_UNIT, 3, ((-2, 0), (-1, 0), (0, 0)), _weights(*["1/3"] * 3), F(2, 3)),
    (F(3, 5), Z2_UNIT, 4, ((-2, 0), (-1, 0), (0, 0), (1, 0)), _weights(*["1/4"] * 4), F(1, 2)),
    (F(1, 2), Z2_UNIT, 5, tuple((i, 0) for i in range(-2, 3)), RUN5, F(2, 5)),
]
for delta, omega, *pinned in Z2_GRID:
    BRUTEFORCE_CASES.append((
        f"z2-r2-{len(omega)}shifts-delta{delta}",
        lambda delta=delta, omega=omega: min_rank_bruteforce(Z2, omega, delta, 2, exact=True),
        *pinned,
    ))


def _document_search(name, radius):
    doc = parse_spec(str(EXAMPLE_DIR / name))
    return min_rank_bruteforce(
        doc.group, list(doc.omega), doc.params.delta, radius or doc.params.radius
    )


def _key(e):
    return tuple(e.lattice) + tuple(e.torsion)


@pytest.mark.parametrize(
    "search, rank, support, weights, defect_exact",
    [case[1:] for case in BRUTEFORCE_CASES],
    ids=[case[0] for case in BRUTEFORCE_CASES],
)
def test_bruteforce_certificate_pinned(search, rank, support, weights, defect_exact):
    cert = search()
    assert cert.exact
    assert cert.rank == rank
    assert tuple(_key(e) for e in cert.witness.support) == support
    assert cert.witness.weights == weights
    assert all(type(w) is Fraction for w in cert.witness.weights)
    assert cert.defect_exact == defect_exact
    # the search checks its witness on the pool's rows; the group defect is the reference
    assert cert.defect_exact == defect(cert.witness, cert.omega)


def test_z2_axes_radius3_certificate_and_lps_pinned(monkeypatch):
    # ROADMAP item 15's delta = 3/4 radius-3 row: the 49-point ball of Z^2
    # under the two axis shifts, about 6 s, with the decision LPs of the
    # same run. The delta = 2/3 radius-2 row of the same table is pinned
    # below, outside the default run.
    # Its `_shift_graph_form` calls fell from 66,468 to 23,033 with the
    # translation prune, which walks each lattice-translation class of
    # supports once.
    certs = []
    forms = test_folner.TestLpMemo._forms_computed(monkeypatch)
    lps = test_folner.TestLpMemo._lps_solved(monkeypatch, lambda: certs.append(
        min_rank_bruteforce(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(3, 4), 3)
    ))
    assert lps == 1193
    assert forms == [23033]
    [cert] = certs
    assert cert.rank == 9
    assert tuple(_key(e) for e in cert.witness.support) == tuple(
        (a, b) for a in (-2, -1, 0) for b in (-2, -1, 0)
    )
    assert cert.witness.weights == _weights(*["1/9"] * 9)
    assert cert.defect_exact == F(2, 3)
    assert cert.defect_exact == defect(cert.witness, cert.omega)


@pytest.mark.skipif(not os.environ.get("DUALENT_FRONTIER"),
                    reason="9-16 s; set DUALENT_FRONTIER=1 to run it")
def test_z2_axes_radius2_delta2_3_certificate_and_lps_pinned(monkeypatch):
    # ROADMAP item 15's delta = 2/3 radius-2 row: the 25-point ball of Z^2
    # under the two axis shifts. Its 7,902 decision LPs are not solved a
    # second time in the two-row form here, which would double the time.
    # Its `_shift_graph_form` calls fell from 106,732 to 83,658 with the
    # translation prune.
    certs = []
    forms = test_folner.TestLpMemo._forms_computed(monkeypatch)
    lps = test_folner.TestLpMemo._lps_solved(monkeypatch, lambda: certs.append(
        min_rank_bruteforce(Z2, [Z2.element((1, 0)), Z2.element((0, 1))], F(2, 3), 2)
    ), compare=False)
    assert lps == 7902
    assert forms == [83658]
    [cert] = certs
    assert cert.rank == 13
    assert tuple(_key(e) for e in cert.witness.support) == tuple(
        (a, b) for a in (-2, -1, 0) for b in (-2, -1, 0, 1)
    ) + ((1, -2),)
    assert cert.witness.weights == _weights(*["1/13"] * 13)
    assert cert.defect_exact == F(8, 13)
    assert cert.defect_exact == defect(cert.witness, cert.omega)


def _cli_rank_json(name):
    """`dualent rank docs/examples/<name> --format json` at the document
    radius, in a child with a time limit so a search that cannot finish
    fails instead of hanging."""
    proc = subprocess.run(
        [sys.executable, "-m", "dualent.cli", "rank", str(EXAMPLE_DIR / name), "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_catmap_document_radius_certificate_pinned():
    # The document radius 8 is a 289-point ball.
    cert = _cli_rank_json("catmap_z2.json")
    assert cert["search_radius"] == 8
    assert cert["rank"] == 5
    assert cert["witness"]["support"] == [[i, 0] for i in range(-4, 1)]
    assert cert["witness"]["weights"] == ["1/5"] * 5
    assert cert["defect_exact"] == "2/5"


def test_cli_fg_abelian_mixed_document_radius_certificate_pinned():
    # Z x Z/2 at radius 8: 9,678 supports have their runs and no isolated
    # point, and pose 2,055 distinct LPs in 194 classes of LPs equal up to
    # the order of their variables and rows. 54 classes whose point 0 is
    # isolated are rejected through the memo, so 140 LPs are solved (1,941
    # pivots in all, no phase 1), and the accepted class's vertex,
    # rescaled, is the witness.
    cert = _cli_rank_json("fg_abelian_mixed.json")
    assert cert["search_radius"] == 8
    assert cert["rank"] == 9
    assert cert["witness"]["support"] == [
        [a, t] for a in range(-4, 0) for t in (0, 1)
    ] + [[0, 0]]
    assert cert["witness"]["weights"] == ["5/41", "4/41"] * 4 + ["5/41"]
    assert cert["defect_exact"] == "18/41"


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


S3 = sorted(itertools.permutations(range(3)))
S3_ROTATION = (1, 2, 0)
S3_ROTATION_INV = (2, 0, 1)
S3_SWAP = (1, 0, 2)


def test_table_certificate_pinned_cyclic():
    # Z/6 with the shifts 1 and its inverse 5
    rank, weights = min_rank_table(list(range(6)), lambda a, b: (a + b) % 6, 0, [1, 5], F(1, 2))
    assert rank == 5
    assert weights == {g: F(1, 5) for g in range(5)}


def test_table_certificate_pinned_symmetric_group():
    # S3 with a rotation, its inverse and a transposition
    rank, weights = min_rank_table(
        S3, _compose, (0, 1, 2), [S3_ROTATION, S3_ROTATION_INV, S3_SWAP], F(1)
    )
    assert rank == 4
    assert weights == {
        (0, 1, 2): F(3, 10),
        (0, 2, 1): F(1, 5),
        (1, 0, 2): F(3, 10),
        (2, 1, 0): F(1, 5),
    }
