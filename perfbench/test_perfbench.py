"""Self-tests of the benchmark: each oracle rejects a perturbed answer, and
the runner records wrong answers, errors and timeouts as failed jobs.

    python3 -m pytest perfbench -q
"""

import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dualent.groups import IntMatrix  # noqa: E402
from dualent.spectral import eigen_entropy  # noqa: E402


def _job(workload, name, seed=0):
    return next(j for j in workloads.build(workload, ROOT, seed) if j.name == name)


def test_entropy_oracles_reject_perturbed_values():
    jobs = workloads.build("entropy", ROOT, 5)
    random_jobs = [j for j in jobs if j.name.startswith("random-")][:20]
    assert len(random_jobs) == 20
    for job in random_jobs:
        value = job.run()
        assert job.check(value) is None
        assert job.check(value + 1e-5) is not None
    cyclotomic = next(j for j in jobs if j.name == "cyclotomic-x^7-1")
    assert cyclotomic.check(cyclotomic.run()) is None
    assert cyclotomic.check(1e-300) is not None
    doc_job = next(j for j in jobs if j.name == "cli-entropy-catmap_z2.json-json")
    text, code = doc_job.run()
    assert doc_job.check((text, code)) is None
    assert doc_job.check((text.replace("0.96", "0.97"), code)) is not None
    assert doc_job.check((text, 1)) is not None


def test_lehmer_oracle_matches_lehmers_number():
    rows = oracles.companion(workloads.LEHMER)
    assert abs(oracles.log_mahler(rows) - 0.16235761) < 1e-8
    assert eigen_entropy(IntMatrix(rows)).value > 0.16


def test_growth_oracles_agree_and_reject_wrong_sizes():
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    none = ((), ())
    assert oracles.sumset_sizes(workloads.CAT, none, (), corners, 8) == oracles.cat_corner_sizes(8)
    assert oracles.sumset_sizes(workloads.CAT_SQUARED, none, (), corners, 6) == \
        oracles.free_corner_sizes(6)
    assert oracles.sumset_sizes(
        workloads.COLLISION_MATRIX, none, (), workloads.COLLISION_BASE, 6
    ) == (6, 27, 117, 504, 2169, 9333)

    for job in workloads.build("growth", ROOT, 0):
        if job.name == "collision-probe-n6":
            continue
        series = job.run()
        assert job.check(series) is None, job.name
        wrong = list(series.sizes)
        wrong[3] += 1
        assert job.check(SimpleNamespace(sizes=tuple(wrong), capped=False)) is not None
        assert job.check(SimpleNamespace(sizes=series.sizes, capped=True)) is not None


def test_collision_probe_is_counted_as_a_known_failure():
    job = _job("growth", "collision-probe-n6")
    result = run.run_job(job)
    assert result.status == "fail" and result.known_defect
    assert run.summarize([result]) == {"correct": True, "attempted": 1, "failed": 1}


def test_aberth_probe_is_counted_as_a_known_failure():
    result = run.run_job(_job("entropy", "aberth-probe-dim12"))
    assert result.status == "error" and result.detail.startswith("RootFindingError")
    assert result.known_defect


def test_known_defects_cover_one_failure_mode_each():
    wrong = workloads.Job("random-0-dim2", lambda: 1.0, lambda out: "wrong value")
    raises = workloads.Job("random-0-dim2", lambda: 1 / 0, lambda out: None)
    probe_raises = workloads.Job("collision-probe-n6", lambda: 1 / 0, lambda out: None)
    results = [run.run_job(job) for job in (wrong, raises, probe_raises)]
    assert [r.status for r in results] == ["fail", "error", "error"]
    assert results[1].detail.startswith("ZeroDivisionError")
    assert not any(r.known_defect for r in results)
    assert run.summarize(results)["correct"] is False


def test_rank_oracle_rejects_wrong_rank_defect_and_weights():
    job = _job("rank-lp", "rank_z1.json-r8")
    cert = job.run()
    assert job.check(cert) is None
    data = workloads.certificate_data(cert)
    spec = job.check.keywords["spec"]
    assert oracles.check_certificate(data, spec) is None

    assert job.check(replace(cert, rank=4)) is not None
    assert job.check(replace(cert, defect_exact=Fraction(1, 3))) is not None
    heavier = [Fraction(2, 5)] + [Fraction(1, 5)] * 4
    assert oracles.check_certificate({**data, "weights": heavier}, spec) is not None
    assert oracles.check_certificate({**data, "rank": 6}, spec) is not None
    shifted = [(x + 100,) for (x,) in data["support"]]
    assert oracles.check_certificate({**data, "support": shifted}, spec) is not None


def test_grid_instances_pass_under_a_change_of_coordinates():
    jobs = workloads.build("rank-enum", ROOT, 7)
    assert workloads.coordinate_change(7) != ((1, 0), (0, 1))
    grid = [j for j in jobs if j.name.startswith("z2-grid") and "delta1/2" not in j.name]
    assert len(grid) == 9
    for job in grid:
        assert run.run_job(job).status == "ok", job.name


def test_cli_rank_oracle_reads_the_json_certificate():
    spec = workloads._spec(
        workloads.FgAbelianGroup(1), [workloads.FgAbelianGroup(1).element((s,)) for s in (1, -1)],
        Fraction(1, 2), workloads.ball_keys(1, (), 8), rank=5, defect=Fraction(2, 5),
    )
    text, code = workloads._cli(["rank", str(ROOT / "docs/examples/rank_z1.json"),
                                 "--format", "json"])
    assert workloads._check_cli_rank((code, text), spec) is None
    assert workloads._check_cli_rank((1, text), spec) is not None
    assert workloads._check_cli_rank((code, text.replace('"rank": 5', '"rank": 4')), spec)


def test_job_over_its_limit_is_recorded_as_timeout():
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    job = workloads.Job(
        "sleeper",
        lambda: workloads.run_limited(argv, 0.5, ROOT, workloads.child_env(ROOT)),
        lambda out: None,
        limit=0.5,
    )
    result = run.run_job(job)
    assert result.status == "timeout"
    assert result.seconds == 0.5
    assert run.summarize([result])["correct"] is False


def test_supports_enumerated_matches_the_enumeration():
    pool = sorted(workloads.ball_keys(1, (), 3))
    rest = [p for p in pool if p != (0,)]
    for witness in ([(0,)], [(0,), (2,)], [(-3,), (-1,), (0,), (1,)]):
        k = len(witness)
        generated = [
            c for m in range(k) for c in itertools.combinations(rest, m)
        ]
        target = tuple(p for p in witness if p != (0,))
        position = generated.index(target) + 1
        attrs = {"rank": 1, "orders": (), "radius": 3, "candidates": None, "support": witness}
        assert spans.supports_enumerated(attrs) == position


def test_tracer_restores_every_namespace():
    import dualent
    import dualent.spectral

    original = dualent.spectral.eigen_entropy
    with spans.Tracer() as tracer:
        assert dualent.eigen_entropy is not original
        dualent.spectral.eigen_entropy(IntMatrix(((2, 1), (1, 1))))
    assert dualent.spectral.eigen_entropy is original
    assert dualent.eigen_entropy is original
    metrics = spans.layer_metrics(tracer.spans, 1.0, 1.0)
    assert metrics["spectral.calls"] == (1, "count")
    assert metrics["spectral.degree_sum"] == (2, "count")
    assert metrics["spectral.roots_s"][0] > 0
