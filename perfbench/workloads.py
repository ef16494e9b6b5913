"""The benchmark's jobs: inputs, the call into dualent, and the oracle.

A job's `run` is the only timed part. It reaches dualent through module
attributes at call time (`spectral.eigen_entropy`, never a bare function
name bound at import), so the tracer's wrappers see every call. `check`
takes what `run` returned and gives None or the reason the answer is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import oracles
from dualent import cli, folner, growth, specdoc, spectral
from dualent.groups import AbelianAutomorphism, FgAbelianGroup, IntMatrix
from dualent.growth import FiniteSubset

WORKLOADS = ("entropy", "growth", "rank-lp", "rank-enum")

ENTROPY_MATRICES = 1000
ENTROPY_DIMENSIONS = (2, 12)
MATRIX_ENTRY_BOUND = 40
EIGENVALUE_GAP = 1e-3
CYCLOTOMIC_DEGREES = range(2, 41)
# The example documents at the seed; a document added later joins no job.
EXAMPLES = (
    "catmap_z2.json", "crystal_dinfty.json", "crystal_glide.json",
    "crystal_p2_catmap.json", "crystal_z2xc2_catmap.json", "fg_abelian_mixed.json",
    "rank_z1.json", "torus_rotation.json",
)
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
FORMATS = ("text", "json", "csv")
GROWTH_CAP = 5_000_000
GROWTH_ORACLE_DEPTH = 10
CLI_RANK_LIMIT_S = 5.0

CAT = ((2, 1), (1, 1))
CAT_SQUARED = ((2, 3), (3, 5))
HYPERBOLIC_3D = ((0, 0, 1), (1, 0, 1), (0, 1, 1))
COLLISION_MATRIX = ((2**20 + 1, 2**20), (1, 1))
COLLISION_BASE = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))

# A unimodular matrix on which Aberth iteration does not converge in 500
# steps at the seed, although its eigenvalues are 1e-3 apart or more (drawn
# as random-67-dim12 by seed 17).
ABERTH_PROBE = (
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


@dataclass(frozen=True)
class KnownDefect:
    """A failure the seed already has: the jobs it covers (names or name
    prefixes) and the one way they fail. It counts in `failed` but leaves
    `correct` true; any other failure of the same jobs does not."""

    what: str
    jobs: tuple[str, ...]
    status: str
    detail: str = ""

    def covers(self, name: str, status: str, detail: Optional[str]) -> bool:
        return (status == self.status and name.startswith(self.jobs)
                and (detail or "").startswith(self.detail))


KNOWN_DEFECTS = (
    KnownDefect("ROADMAP item 4: growth's complex encoding loses exactness above 2^53",
                ("collision-probe-n6",), "fail"),
    KnownDefect("ROADMAP item 3: dualent rank does not finish within 5 s",
                ("cli-rank-",), "timeout"),
    KnownDefect("Aberth iteration does not converge on some unimodular matrices",
                ("aberth-probe", "random-"), "error", "RootFindingError"),
)


def known_defect(name: str, status: str, detail: Optional[str]) -> Optional[str]:
    return next((k.what for k in KNOWN_DEFECTS if k.covers(name, status, detail)), None)


class JobTimeout(Exception):
    """The job's child process ran past its limit and was killed."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    limit: Optional[float] = None


def run_limited(argv, limit: float, cwd, env) -> tuple[int, str]:
    """Runs argv in one child process, killed and reaped at `limit` seconds."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise JobTimeout(f"killed after {limit} s") from None
    return proc.returncode, out


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def build(workload: str, root: Path, seed: int) -> list[Job]:
    builders = {
        "entropy": _entropy_jobs,
        "growth": _growth_jobs,
        "rank-lp": _rank_lp_jobs,
        "rank-enum": _rank_enum_jobs,
    }
    return builders[workload](root, seed)


# --- entropy ------------------------------------------------------------


def random_unimodular(rng: random.Random, dim: int) -> tuple[tuple[int, ...], ...]:
    """Row operations and signed row permutations, 4*dim rounds, with row
    operations that would push an entry past the bound skipped. Matrices
    whose numpy eigenvalues lie closer than EIGENVALUE_GAP are drawn again:
    numpy resolves a k-fold defective eigenvalue only to about eps^(1/k),
    which would make the oracle wrong rather than the program."""
    while True:
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(4 * dim):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-2, -1, 1, 2))
            row = [a + c * b for a, b in zip(m[i], m[j])]
            if max(abs(x) for x in row) <= MATRIX_ENTRY_BOUND:
                m[i] = row
            if rng.random() < 0.3:
                k = rng.randrange(dim)
                m[k] = [-x for x in m[k]]
                rng.shuffle(m)
        if oracles.eigenvalue_gap(m) > EIGENVALUE_GAP:
            return tuple(tuple(r) for r in m)


def _entropy(matrix) -> float:
    return spectral.eigen_entropy(matrix).value


def _cli(argv: list) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _round_trip(path: str):
    doc = specdoc.parse_spec(path)
    text = specdoc.emit_spec(doc)
    again = specdoc.parse_spec_data(json.loads(text))
    return doc, again, specdoc.emit_spec(again), text


def _check_round_trip(out) -> Optional[str]:
    doc, again, text_again, text = out
    if again != doc:
        return "document changed in the round trip"
    if text_again != text:
        return "emitting the parsed document gives other text"
    return None


def _entropy_jobs(root: Path, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i in range(ENTROPY_MATRICES):
        dim = rng.randint(*ENTROPY_DIMENSIONS)
        rows = random_unimodular(rng, dim)
        jobs.append(Job(
            f"random-{i}-dim{dim}",
            partial(_entropy, IntMatrix(rows)),
            partial(oracles.check_entropy, expected=oracles.log_mahler(rows)),
        ))
    for n in CYCLOTOMIC_DEGREES:
        rows = oracles.companion((1,) + (0,) * (n - 1) + (-1,))
        jobs.append(Job(
            f"cyclotomic-x^{n}-1", partial(_entropy, IntMatrix(rows)),
            oracles.check_zero_entropy,
        ))
    for name, rows in (("lehmer", oracles.companion(LEHMER)),
                       ("aberth-probe-dim12", ABERTH_PROBE)):
        jobs.append(Job(
            name, partial(_entropy, IntMatrix(rows)),
            partial(oracles.check_entropy, expected=oracles.log_mahler(rows)),
        ))
    golden = json.loads((Path(__file__).parent / "entropy_golden.json").read_text())
    docs = [root / "docs" / "examples" / name for name in EXAMPLES]
    for path in docs:
        for fmt in FORMATS:
            expected = golden.get(f"{path.name} {fmt}")
            if expected is None:  # no auto block, so no entropy output
                continue
            jobs.append(Job(
                f"cli-entropy-{path.name}-{fmt}",
                partial(_cli, ["entropy", str(path), "--format", fmt]),
                lambda out, expected=expected: oracles.check_bytes(out[0], out[1], expected),
            ))
    for path in docs:
        jobs.append(Job(
            f"round-trip-{path.name}", partial(_round_trip, str(path)),
            _check_round_trip,
        ))
    return jobs


# --- growth -------------------------------------------------------------


def _corners(rank: int, ntorsion: int = 0) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(rank):
        out = [c + (b,) for c in out for b in (0, 1)]
    return [c + (0,) * ntorsion for c in out]


def _growth(auto, base, n: int):
    return growth.growth_series(auto, base, n, cap=GROWTH_CAP)


def _check_growth(series, expected: Callable[[], tuple]) -> Optional[str]:
    return oracles.check_sizes(series.sizes, series.capped, expected())


def _growth_jobs(root: Path, seed: int) -> list[Job]:
    z2, z3, z2c2 = FgAbelianGroup(2), FgAbelianGroup(3), FgAbelianGroup(2, (2,))
    mixing = ((1,), (0,))
    instances = [
        # name, automorphism, base, depth, oracle
        ("cat-corners-n15", AbelianAutomorphism.from_matrix(z2, CAT),
         FiniteSubset.of(z2, _corners(2)), 15,
         lambda: oracles.cat_corner_sizes(15)),
        ("cat-squared-corners-n11", AbelianAutomorphism.from_matrix(z2, CAT_SQUARED),
         FiniteSubset.of(z2, _corners(2)), 11,
         lambda: oracles.free_corner_sizes(11)),
        ("hyperbolic-3d-corners-n14", AbelianAutomorphism.from_matrix(z3, HYPERBOLIC_3D),
         FiniteSubset.of(z3, _corners(3)), 14,
         lambda: oracles.sumset_sizes(HYPERBOLIC_3D, ((),) * 3, (), _corners(3),
                                      GROWTH_ORACLE_DEPTH)),
        ("cat-z2xc2-mixed-corners-n12",
         AbelianAutomorphism.build(z2c2, CAT, mixing=mixing),
         FiniteSubset.of(z2c2, _corners(2, 1)), 12,
         lambda: oracles.sumset_sizes(CAT, mixing, (2,), _corners(2, 1),
                                      GROWTH_ORACLE_DEPTH)),
        ("collision-probe-n6", AbelianAutomorphism.from_matrix(z2, COLLISION_MATRIX),
         FiniteSubset.of(z2, COLLISION_BASE), 6,
         lambda: oracles.sumset_sizes(COLLISION_MATRIX, ((), ()), (), COLLISION_BASE, 6)),
    ]
    # An oracle's sizes are computed on the first check, outside every timed
    # region, and kept for the later passes.
    return [
        Job(name, partial(_growth, auto, base, n),
            partial(_check_growth, expected=functools.cache(oracle)))
        for name, auto, base, n, oracle in instances
    ]


# --- rank ---------------------------------------------------------------


def _elem_key(e) -> tuple[int, ...]:
    return tuple(e.lattice) + tuple(e.torsion)


def _rank(group, omega, delta, radius, candidates=None, exact=None):
    return folner.min_rank_bruteforce(
        group, omega, delta, radius, exact=exact, candidates=candidates
    )


def certificate_data(cert) -> dict:
    """Plain data of a RankCertificate, in the oracle's terms."""
    return {
        "rank": cert.rank,
        "support": [_elem_key(e) for e in cert.witness.support],
        "weights": list(cert.witness.weights),
        "exact": cert.exact,
        "defect": cert.defect_exact if cert.exact else cert.defect,
    }


def _check_rank(cert, spec: dict) -> Optional[str]:
    return oracles.check_certificate(certificate_data(cert), spec)


def ball_keys(rank: int, orders: tuple, radius: int) -> set:
    points = [()]
    for _ in range(rank):
        points = [p + (c,) for p in points for c in range(-radius, radius + 1)]
    torsion = [()]
    for d in orders:
        torsion = [t + (r,) for t in torsion for r in range(d)]
    return {p + t for p in points for t in torsion}


def _spec(group, omega, delta, pool=None, **pinned) -> dict:
    return {
        "omega": [_elem_key(s) for s in omega],
        "orders": tuple(group.torsion),
        "delta": Fraction(delta),
        "pool": pool,
        **pinned,
    }


def _doc(root: Path, name: str):
    return specdoc.parse_spec(str(root / "docs" / "examples" / name))


def _rank_lp_jobs(root: Path, seed: int) -> list[Job]:
    z1 = FgAbelianGroup(1)
    omega = [z1.element((s,)) for s in (1, -1, 2, -2)]
    pool = ball_keys(1, (), 6)
    jobs = [
        Job(f"z1-shifts12-r6-delta{delta}",
            partial(_rank, z1, omega, delta, 6, exact=True),
            partial(_check_rank, spec=_spec(z1, omega, delta, pool, rank=rank, defect=dfct)))
        for delta, rank, dfct in (
            (Fraction(3, 4), 6, Fraction(2, 3)),
            (Fraction(1, 2), 9, Fraction(18, 41)),
        )
    ]
    # rank_z1.json's frozen oracle is test_acceptance's: rank 5, defect 2/5.
    for name, radius, rank, dfct in (
        ("rank_z1.json", None, 5, Fraction(2, 5)),
        ("fg_abelian_mixed.json", 2, 9, Fraction(18, 41)),
    ):
        doc = _doc(root, name)
        radius = radius or doc.params.radius
        delta = _exact(doc.params.delta)
        group = doc.group
        pool = ball_keys(group.rank, tuple(group.torsion), radius)
        jobs.append(Job(
            f"{name}-r{radius}",
            partial(_rank, group, list(doc.omega), doc.params.delta, radius),
            partial(_check_rank, spec=_spec(group, doc.omega, delta, pool, rank=rank, defect=dfct)),
        ))
    return jobs


def _exact(delta) -> Fraction:
    return Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)


# test_exact_rank_search's Z^2 radius-2 grid: (delta, omega, rank, defect).
Z2_UNIT = ((1, 0), (-1, 0))
Z2_CROSS = Z2_UNIT + ((0, 1), (0, -1))
Z2_GRID = (
    (Fraction(3), Z2_UNIT, 1, Fraction(2)),
    (Fraction(3), Z2_CROSS, 1, Fraction(2)),
    (Fraction(2), Z2_UNIT, 2, Fraction(1)),
    (Fraction(2), Z2_CROSS, 3, Fraction(4, 3)),
    (Fraction(3, 2), Z2_UNIT, 2, Fraction(1)),
    (Fraction(3, 2), Z2_CROSS, 3, Fraction(4, 3)),
    (Fraction(1), Z2_UNIT, 3, Fraction(2, 3)),
    (Fraction(3, 4), Z2_UNIT, 3, Fraction(2, 3)),
    (Fraction(3, 5), Z2_UNIT, 4, Fraction(1, 2)),
    (Fraction(1, 2), Z2_UNIT, 5, Fraction(2, 5)),
)


def coordinate_change(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Identity at seed 0, otherwise three seeded unit row operations."""
    m = [[1, 0], [0, 1]]
    if seed:
        rng = random.Random(seed)
        for _ in range(3):
            i = rng.randrange(2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[1 - i])]
    return tuple(tuple(r) for r in m)


def _cli_rank(root: Path, name: str) -> tuple[int, str]:
    path = root / "docs" / "examples" / name
    argv = [sys.executable, "-m", "dualent.cli", "rank", str(path), "--format", "json"]
    return run_limited(argv, CLI_RANK_LIMIT_S, root, child_env(root))


def _check_cli_rank(out, spec: dict) -> Optional[str]:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    data = json.loads(text)
    exact = data["exact"]
    cert = {
        "rank": data["rank"],
        "support": [tuple(x) for x in data["witness"]["support"]],
        "weights": [Fraction(w) if exact else w for w in data["witness"]["weights"]],
        "exact": exact,
        "defect": Fraction(data["defect_exact"]) if exact else data["defect"],
    }
    return oracles.check_certificate(cert, spec)


def _rank_enum_jobs(root: Path, seed: int) -> list[Job]:
    # The document instance keeps its coordinates: a change of coordinates
    # reorders the enumeration, and this job's work would follow the seed.
    doc = _doc(root, "catmap_z2.json")
    delta = _exact(doc.params.delta)
    jobs = [Job(
        "catmap_z2.json-r3",
        partial(_rank, doc.group, list(doc.omega), doc.params.delta, 3),
        partial(_check_rank, spec=_spec(doc.group, doc.omega, delta, ball_keys(2, (), 3),
                                        rank=5, defect=Fraction(2, 5))),
    )]

    z2 = FgAbelianGroup(2)
    m = coordinate_change(seed)

    def move(v):
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    ball = sorted(ball_keys(2, (), 2))
    candidates = [z2.element(move(v)) for v in ball] if seed else None
    pool = {move(v) for v in ball}
    for delta, shifts, rank, dfct in Z2_GRID:
        omega = [z2.element(move(s)) for s in shifts]
        jobs.append(Job(
            f"z2-grid-r2-{len(shifts)}shifts-delta{delta}",
            partial(_rank, z2, omega, delta, 2, candidates=candidates, exact=True),
            partial(_check_rank, spec=_spec(z2, omega, delta, pool, rank=rank, defect=dfct)),
        ))

    # Any rank these searches may return is bounded by the radius-2 rank on
    # fg_abelian_mixed (9); on catmap_z2 it is exactly 5, since four points
    # have run length at most 4 along (1, 0), so defect >= 2/4 = delta.
    for name, pinned in (
        ("catmap_z2.json", {"rank": 5, "defect": Fraction(2, 5)}),
        ("fg_abelian_mixed.json", {"max_rank": 9}),
    ):
        doc = _doc(root, name)
        group = doc.group
        spec = _spec(group, doc.omega, _exact(doc.params.delta),
                     ball_keys(group.rank, tuple(group.torsion), doc.params.radius), **pinned)
        jobs.append(Job(
            f"cli-rank-{name}", partial(_cli_rank, root, name),
            partial(_check_cli_rank, spec=spec),
            limit=CLI_RANK_LIMIT_S,
        ))
    return jobs
