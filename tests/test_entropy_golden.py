"""Pins the exact stdout of `dualent entropy` on every example document with
an automorphism, and the float entropy and root moduli of a seeded batch of
matrices.

The files under tests/golden/entropy/ are the recorded outputs of
`python -m dualent.cli entropy docs/examples/<name>.json --format <fmt>` and,
in spectral_batch.txt, one line `label<TAB>repr(value)<TAB>repr(root_moduli)`
per matrix of `_batch()`. The entropy is a float sum over the square-free
factors in their returned order, so these bytes also pin that order. Rerun
this module as a script (`PYTHONPATH=src python -m tests.test_entropy_golden`)
to rewrite the files after a deliberate change of output.
"""

import io
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dualent.cli import EXIT_OK, main
from dualent.groups import IntMatrix
from dualent.laws import random_unimodular
from dualent.spectral import eigen_entropy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "entropy"
DOCUMENTS = (
    "catmap_z2",
    "crystal_dinfty",
    "crystal_glide",
    "crystal_p2_catmap",
    "crystal_z2xc2_catmap",
    "fg_abelian_mixed",
    "torus_rotation",
)
FORMATS = ("text", "json", "csv")
BATCH_FILE = GOLDEN_DIR / "spectral_batch.txt"


def _entropy_stdout(name: str, fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    path = REPO_ROOT / "docs" / "examples" / f"{name}.json"
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["entropy", str(path), "--format", fmt])
    assert code == EXIT_OK, err.getvalue()
    return out.getvalue()


def _batch() -> list[tuple[str, IntMatrix]]:
    """Seeded unimodular matrices of dimension 1-6, plus block sums whose
    characteristic polynomials have repeated factors."""
    rng = random.Random(20260)
    out = [
        (f"random-dim{dim}-{i}", random_unimodular(rng, dim))
        for dim in range(1, 7)
        for i in range(12)
    ]
    cat = IntMatrix(((2, 1), (1, 1)))
    quarter = IntMatrix(((0, -1), (1, 0)))
    out.append(("cat+cat", IntMatrix.block_diag(cat, cat)))
    out.append(("cat+quarter+quarter", IntMatrix.block_diag(cat, quarter, quarter)))
    out.append(("identity4", IntMatrix.identity(4)))
    return out


def _batch_lines() -> str:
    lines = []
    for label, m in _batch():
        est = eigen_entropy(m)
        lines.append(f"{label}\t{est.value!r}\t{est.diagnostics['root_moduli']!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", DOCUMENTS)
def test_entropy_output_is_byte_identical(name, fmt):
    expected = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert _entropy_stdout(name, fmt).encode() == expected


def test_spectral_batch_values_are_identical():
    assert _batch_lines() == BATCH_FILE.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in DOCUMENTS:
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(_entropy_stdout(name, fmt))
    BATCH_FILE.write_text(_batch_lines())
