"""Pins the exact stdout and exit code of `dualent verify`.

The files under tests/golden/verify/ are the recorded outputs of
`python -m dualent.cli verify --suite <suite> --format <fmt>`, named
`<suite>.<fmt>`, and of the same runs with `--trials <trials> --seed <seed>`,
named `<suite>-trials<trials>-seed<seed>.<fmt>`. Rerun this module as a
script (`PYTHONPATH=src python -m tests.test_verify_golden`) to rewrite them
after a deliberate change of output.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dualent.cli import EXIT_OK, main

from tests.conftest import REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "verify"
RUNS = (
    ("all", None, None, "text"),
    ("all", None, None, "json"),
    ("all", None, None, "csv"),
    ("sqrt-overlap", 3000, 9, "json"),
)


def _verify(suite: str, trials, seed, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--suite", suite, "--format", fmt]
    if trials is not None:
        argv += ["--trials", str(trials), "--seed", str(seed)]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _golden(suite: str, trials, seed, fmt: str):
    suffix = "" if trials is None else f"-trials{trials}-seed{seed}"
    return GOLDEN_DIR / f"{suite}{suffix}.{fmt}"


@pytest.mark.parametrize("suite, trials, seed, fmt", RUNS)
def test_verify_output_is_byte_identical(suite, trials, seed, fmt):
    code, out, err = _verify(suite, trials, seed, fmt)
    assert code == EXIT_OK, err
    assert err == ""
    assert out.encode() == _golden(suite, trials, seed, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for run in RUNS:
        code, out, err = _verify(*run)
        assert code == EXIT_OK, err
        _golden(*run).write_text(out)
