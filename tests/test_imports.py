"""What each entry point loads, and the package's lazy public names.

The package resolves its public names on first access, and the CLI imports
each route inside the function that runs it, so a process loads only the
modules of the route it runs. The module-set tests pin that in fresh
interpreters; the export tests pin that the lazy names are the same objects
as before.
"""

import importlib
import json
import subprocess
import sys

import pytest

import dualent
import dualent.spectral

from tests.conftest import REPO_ROOT, child_env

PROBE = """
import contextlib, io, json, sys
import dualent.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dualent.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m == "dualent" or m.startswith("dualent.")),
    "numpy": "numpy" in sys.modules,
}))
"""


def loaded_after(*argv):
    """(exit code or None, dualent modules loaded, whether numpy loaded) of a
    fresh interpreter that imports dualent.cli and runs main(argv) if given."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["code"], {m.removeprefix("dualent.") for m in out["modules"]}, out["numpy"]


def example(name):
    return str(REPO_ROOT / "docs" / "examples" / name)


class TestModulesLoaded:
    def test_importing_the_cli_loads_only_the_package_and_the_cli(self):
        code, modules, numpy = loaded_after()
        assert code is None
        assert modules == {"dualent", "cli"}
        assert not numpy

    def test_importing_specdoc_loads_the_element_encoding_of_reports(self):
        probe = ("import json, sys, dualent.specdoc; "
                 "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'dualent')))")
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["dualent", "dualent.groups", "dualent.reports", "dualent.specdoc"]

    @pytest.mark.parametrize("argv, absent, numpy_loaded", [
        (("rank", example("fg_abelian_mixed.json")),
         {"crystal", "spectral", "growth", "laws"}, False),
        (("entropy", example("catmap_z2.json")),
         {"folner", "simplex", "growth", "laws"}, False),
        (("peters", example("catmap_z2.json")),
         {"folner", "simplex", "crystal", "laws"}, True),
    ], ids=["rank", "entropy", "peters"])
    def test_each_route_loads_only_its_modules(self, argv, absent, numpy_loaded):
        code, modules, numpy = loaded_after(*argv)
        assert code == 0
        assert {"groups", "specdoc", "reports"} <= modules
        assert not modules & absent, modules & absent
        assert numpy is numpy_loaded


class TestLazyExports:
    def test_every_name_is_its_home_modules_object(self):
        assert set(dualent.__all__) == set(dualent._HOMES)
        for name in dualent.__all__:
            home = importlib.import_module(f"dualent.{dualent._HOMES[name]}")
            assert getattr(dualent, name) is getattr(home, name), name

    def test_dir_lists_every_public_name(self):
        assert set(dualent.__all__) <= set(dir(dualent))
        assert "__version__" in dir(dualent)

    def test_star_import(self):
        namespace = {}
        exec("from dualent import *", namespace)
        for name in dualent.__all__:
            assert namespace[name] is getattr(dualent, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            dualent.no_such_name
        assert not hasattr(dualent, "no_such_name")

    def test_submodules_still_import_through_the_package(self):
        from dualent import cli, growth

        assert cli is sys.modules["dualent.cli"]
        assert growth.DEFAULT_CAP == dualent.DEFAULT_CAP == 5_000_000

    def test_a_patched_and_restored_function_is_the_original(self, monkeypatch):
        original = dualent.spectral.eigen_entropy
        assert dualent.eigen_entropy is original

        def stand_in(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(dualent.spectral, "eigen_entropy", stand_in)
        assert dualent.eigen_entropy is stand_in
        monkeypatch.undo()
        assert dualent.eigen_entropy is original
        assert "eigen_entropy" not in vars(dualent)
