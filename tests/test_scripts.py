"""The scripts under scripts/, run as a user runs them."""

import subprocess
import sys

from tests.conftest import REPO_ROOT


def test_rank_sweep_stops_at_the_first_delta_the_ball_cannot_reach(tmp_path):
    # Radius 3 is 7 points on Z: delta = 1/4 needs a run of 9. The script
    # finds src itself, so it runs from any directory.
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "rank_sweep.py"), "--radius", "3"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(row[0], row[1], row[2]) for row in rows[:-1]] == [
        ("9/10", "3", "2/3"), ("3/4", "3", "2/3"), ("1/2", "5", "2/5"), ("2/5", "6", "1/3"), ("1/3", "7", "2/7"),
    ]
    assert rows[-1][:6] == ["1/4", "no", "support", "within", "radius", "3"]
