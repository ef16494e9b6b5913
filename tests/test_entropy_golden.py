"""Pins the exact stdout of `dualent entropy` on every example document with
an automorphism, and the float entropy and root moduli of a seeded batch of
matrices.

The files under tests/golden/entropy/ are the recorded outputs of
`python -m dualent.cli entropy docs/examples/<name>.json --format <fmt>` and,
in spectral_batch.txt, one line `label<TAB>repr(value)<TAB>repr(root_moduli)`
per matrix of `_batch()`. The entropy is a float sum over the square-free
factors in their returned order, so these bytes also pin that order.
aberth_roots.txt pins the roots themselves above dimension 6: for each
square-free factor of `_root_cases()`, one line
`label<TAB>coefficients<TAB>roots`, each root as `float.hex` of its real and
imaginary parts joined by a comma, in the order the iteration returns them. Rerun
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
from dualent.spectral import (
    _aberth_simple_roots,
    char_poly,
    eigen_entropy,
    squarefree_decomposition,
)

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
ROOTS_FILE = GOLDEN_DIR / "aberth_roots.txt"
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
# A 12x12 unimodular matrix on which the iteration needs many sweeps
# (perfbench's ABERTH_PROBE, drawn as random-67-dim12 by its seed 17).
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


def _companion(coeffs) -> IntMatrix:
    """Companion matrix of a monic polynomial, coefficients leading first."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[n - i]
    return IntMatrix(tuple(map(tuple, rows)))


def _root_cases() -> list[tuple[str, IntMatrix]]:
    """Seeded unimodular matrices of dimension 7-12, the companions of
    x^n - 1 for n = 2..40, Lehmer's polynomial and ABERTH_PROBE."""
    rng = random.Random(20261)
    out = [
        (f"random-dim{dim}-{i}", random_unimodular(rng, dim))
        for dim in range(7, 13)
        for i in range(12)
    ]
    out.extend(
        (f"x^{n}-1", _companion((1,) + (0,) * (n - 1) + (-1,))) for n in range(2, 41)
    )
    out.append(("lehmer", _companion(LEHMER)))
    out.append(("aberth-probe-dim12", IntMatrix(ABERTH_PROBE)))
    return out


def _roots_lines() -> str:
    lines = []
    for label, m in _root_cases():
        for factor, _ in squarefree_decomposition(char_poly(m)):
            roots = " ".join(
                f"{z.real.hex()},{z.imag.hex()}" for z in _aberth_simple_roots(factor.coeffs)
            )
            lines.append(f"{label}\t{list(factor.coeffs)}\t{roots}\n")
    return "".join(lines)


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


def test_aberth_roots_are_identical():
    assert _roots_lines() == ROOTS_FILE.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in DOCUMENTS:
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(_entropy_stdout(name, fmt))
    BATCH_FILE.write_text(_batch_lines())
    ROOTS_FILE.write_text(_roots_lines())
