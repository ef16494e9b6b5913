"""dualent benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dualent source tree. One process runs the jobs of
one workload, one at a time; a job with a time limit runs in a single child
process that is killed at the limit. Every job's answer goes to an oracle
in oracles.py.

With --trace 0 the run repeats the job list ("passes") for about S seconds,
at least once, and reports the end-to-end metrics. With --trace 1 it runs
one untraced pass and one traced pass and reports the per-layer metrics.
The line before the last is the full record of the run; the last line is
the summary {"correct", "attempted", "failed", "metrics"}. `failed` counts
every job that timed out, raised or failed its oracle; `correct` is false
when any of them is not covered by workloads.KNOWN_DEFECTS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7


@dataclass
class JobResult:
    name: str
    status: str  # ok, fail, error or timeout
    seconds: float
    detail: Optional[str]
    known_defect: Optional[str]


def run_job(job) -> JobResult:
    """Times job.run alone; a timed-out job counts at its limit."""
    from workloads import JobTimeout, known_defect

    start = time.perf_counter()
    try:
        out = job.run()
    except JobTimeout as exc:
        status, seconds, detail = "timeout", job.limit, str(exc)
    except Exception as exc:  # a job that raises is a failed job; keep going
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - start
        detail = job.check(out)
        status = "ok" if detail is None else "fail"
    known = None if status == "ok" else known_defect(job.name, status, detail)
    return JobResult(job.name, status, seconds, detail, known)


def run_pass(jobs, rng: random.Random) -> list[JobResult]:
    """Runs every job once, in a seeded random order: the machine's speed
    drifts over seconds, and a fixed order would put, say, all the largest
    cyclotomic companions into the same few seconds."""
    order = list(jobs)
    rng.shuffle(order)
    return [run_job(job) for job in order]


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing dualent.cli, after one
    unmeasured import that leaves the bytecode cache warm."""
    argv = [sys.executable, "-c", "import dualent.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dualent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def summarize(results: list[JobResult]) -> dict:
    failures = [r for r in results if r.status != "ok"]
    return {
        "correct": all(r.known_defect for r in failures),
        "attempted": len(results),
        "failed": len(failures),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("entropy", "growth", "rank-lp", "rank-enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualent" / "__init__.py").is_file() or not (
        ROOT / "docs" / "examples"
    ).is_dir():
        print(f"perfbench: {ROOT} holds no dualent source tree (src/dualent, docs/examples)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dualent
    import numpy

    if Path(dualent.__file__).resolve().parent != ROOT / "src" / "dualent":
        print(f"perfbench: imported dualent from {dualent.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    env = workloads.child_env(ROOT)
    jobs = workloads.build(args.workload, ROOT, args.seed)
    job_counts = {
        w: len(jobs) if w == args.workload else len(workloads.build(w, ROOT, args.seed))
        for w in workloads.WORKLOADS
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "job_time_limits_s": {j.name: j.limit for j in jobs if j.limit is not None},
        "jobs_per_pass": job_counts,
        "known_defects": [vars(k) for k in workloads.KNOWN_DEFECTS],
    }

    rng = random.Random(args.seed)
    results: list[JobResult] = []
    walls: list[float] = []
    if args.trace:
        untraced = run_pass(jobs, rng)
        with spans.Tracer() as tracer:
            traced = run_pass(jobs, rng)
        results = untraced + traced
        walls = [sum(r.seconds for r in untraced), sum(r.seconds for r in traced)]
        layers = spans.layer_metrics(tracer.spans, walls[0], walls[1])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["trace_overhead"] = walls[1] / walls[0]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": tracer.spans}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        setup = measure_setup(env)
        start = time.perf_counter()
        while True:
            done = run_pass(jobs, rng)
            results += done
            walls.append(sum(r.seconds for r in done))
            elapsed = time.perf_counter() - start
            if elapsed + walls[-1] > args.seconds:
                break
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        # Per-job latency percentiles are meaningful on entropy alone, the
        # one workload with >= 1000 jobs; they stay out of the metrics.
        cuts = statistics.quantiles([1000 * r.seconds for r in results], n=100,
                                    method="inclusive")
        record["job_latency_ms"] = {"p50": cuts[49], "p99": cuts[98], "samples": len(results)}
        record["trace_overhead"] = None
        record["setup_samples_s"] = setup

    summary = summarize(results)
    record.update(
        passes=len(walls),
        pass_walls_s=walls,
        failed_ratio=summary["failed"] / summary["attempted"],
        failures=[vars(r) for r in results if r.status != "ok"],
        metrics=metrics,
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
