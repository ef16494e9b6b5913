import os
import pathlib

import pytest

from dualent.groups import FgAbelianGroup, IntMatrix, AbelianAutomorphism

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE_DIR = REPO_ROOT / "docs" / "examples"



def child_env() -> dict:
    """The environment for a child `python -m dualent...` that imports this
    checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


CAT = ((2, 1), (1, 1))
CAT_ENTROPY = 0.9624236501192069  # log((3 + sqrt 5) / 2)


@pytest.fixture
def z1():
    return FgAbelianGroup(1)


@pytest.fixture
def z2():
    return FgAbelianGroup(2)


@pytest.fixture
def cat_matrix():
    return IntMatrix(CAT)


@pytest.fixture
def cat_auto(z2, cat_matrix):
    return AbelianAutomorphism.from_matrix(z2, cat_matrix)


@pytest.fixture
def example_dir():
    return EXAMPLE_DIR
