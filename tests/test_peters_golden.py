"""Pins the exact stdout of `dualent peters` on the abelian example documents,
and keeps numpy out of the CLI's import path.

The files under tests/golden/peters/ are the recorded outputs of
`python -m dualent.cli peters docs/examples/<name>.json --format <fmt>`,
and `catmap_ball7_n9.<fmt>` those of the cat map on the 49-point base
[-3, 3]^2 to n = 9 (`BALL7_DOCUMENT`), where each sumset step merges 49
shifted runs. Any change to the sumset kernel must leave these bytes as
they are.
"""

import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dualent.cli import EXIT_OK, main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden" / "peters"
DOCUMENTS = ("catmap_z2", "fg_abelian_mixed", "torus_rotation")
FORMATS = ("json", "csv")
BALL7_DOCUMENT = {
    "group": {"kind": "free_abelian", "rank": 2},
    "auto": {"lattice": [[2, 1], [1, 1]]},
    "base": [[x, y] for x in range(-3, 4) for y in range(-3, 4)],
}


def peters_stdout(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["peters", *argv])
    assert code == EXIT_OK, err.getvalue()
    assert err.getvalue() == ""
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", DOCUMENTS)
def test_peters_output_is_byte_identical(example_dir, name, fmt):
    out = peters_stdout([str(example_dir / f"{name}.json"), "--format", fmt])
    assert out.encode() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_wide_base_output_is_byte_identical(tmp_path, fmt):
    doc = tmp_path / "catmap_ball7.json"
    doc.write_text(json.dumps(BALL7_DOCUMENT))
    out = peters_stdout([str(doc), "--n", "9", "--format", fmt])
    assert out.encode() == (GOLDEN_DIR / f"catmap_ball7_n9.{fmt}").read_bytes()


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported lazily inside the routines that need it, so the CLI
    # starts without paying for it.
    code = "import sys, dualent.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
