"""Pins the exact stdout and exit code of `dualent rank` on the example
documents, with the exact search (lp, the default) and with the constructive
upper-bound methods (interval, parallelepiped, convolution tower), and the
spec error of a method that does not apply.

The files under tests/golden/rank/ are the recorded outputs of
`python -m dualent.cli rank docs/examples/<name>.json --method <method>
--format <fmt>`, named `<name>-<method>.<fmt>`, and of the same runs with
`--delta <delta>` (the large boxes), named `<name>-<method>-delta<delta>.<fmt>`.
Rerun this module as a script (`PYTHONPATH=src python -m tests.test_rank_cli_golden`) to rewrite
them after a deliberate change of output.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dualent.cli import EXIT_OK, EXIT_SPEC, main

from tests.conftest import EXAMPLE_DIR, REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "rank"
# the exact search at each document's own delta and radius
EXACT_RUNS = (
    ("rank_z1", "lp", None),
    ("catmap_z2", "lp", None),
    ("fg_abelian_mixed", "lp", None),
)
RUNS = (
    ("rank_z1", "interval", None),
    ("rank_z1", "parallelepiped", None),
    ("rank_z1", "tower", None),
    ("catmap_z2", "parallelepiped", None),
    ("fg_abelian_mixed", "tower", None),
    # 20,001 points
    ("rank_z1", "interval", "0.0001"),
    # the 101 x 101 square
    ("catmap_z2", "parallelepiped", "0.04"),
)
FORMATS = ("json", "text", "csv")


def _rank(name: str, method: str, fmt: str, delta=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["rank", str(EXAMPLE_DIR / f"{name}.json"), "--method", method, "--format", fmt]
    if delta is not None:
        argv += ["--delta", delta]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _golden(name: str, method: str, fmt: str, delta=None):
    suffix = "" if delta is None else f"-delta{delta}"
    return GOLDEN_DIR / f"{name}-{method}{suffix}.{fmt}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,method,delta", RUNS)
def test_upper_bound_output_is_byte_identical(name, method, delta, fmt):
    code, out, err = _rank(name, method, fmt, delta)
    assert code == EXIT_OK, err
    assert out.encode() == _golden(name, method, fmt, delta).read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,method,delta", EXACT_RUNS)
def test_exact_output_is_byte_identical(name, method, delta, fmt):
    code, out, err = _rank(name, method, fmt, delta)
    assert code == EXIT_OK, err
    assert out.encode() == _golden(name, method, fmt, delta).read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_interval_on_a_rank_two_group_is_a_spec_error(fmt):
    code, out, err = _rank("catmap_z2", "interval", fmt)
    assert code == EXIT_SPEC
    assert out == ""
    assert err == "spec error: group: --method interval needs the rank-1 torsion-free group\n"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, method, delta in EXACT_RUNS + RUNS:
        for fmt in FORMATS:
            code, out, err = _rank(name, method, fmt, delta)
            assert code == EXIT_OK, err
            _golden(name, method, fmt, delta).write_text(out)
