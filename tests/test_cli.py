import io
import json
import random
import resource
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import pytest

from dualent import cli
from dualent.cli import main, EXIT_OK, EXIT_COMPUTATION, EXIT_SPEC, EXIT_VERIFY_FAILED
from dualent.folner import (
    Parallelepiped, WeightedFunction, defect, interval_folner, parallelepiped_folner,
)
from dualent.groups import FgAbelianGroup
from dualent.specdoc import parse_spec

from tests.conftest import child_env


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def doc_path(example_dir, name):
    return str(example_dir / name)


class TestEntropyCommand:
    def test_cat_map_value(self, example_dir):
        code, out, _ = run_cli(
            ["entropy", doc_path(example_dir, "catmap_z2.json"), "--format", "json"]
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["value"] - 0.9624236501192069) < 1e-9

    def test_rotation_is_zero(self, example_dir):
        code, out, _ = run_cli(
            ["entropy", doc_path(example_dir, "torus_rotation.json"), "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 0.0

    def test_crystal_document(self, example_dir):
        code, out, _ = run_cli(
            ["entropy", doc_path(example_dir, "crystal_z2xc2_catmap.json"),
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["value"] - 0.9624236501192069) < 1e-9
        assert payload["diagnostics"]["center_rank"] == 2

    def test_missing_auto_is_spec_error(self, example_dir):
        code, _, err = run_cli(
            ["entropy", doc_path(example_dir, "rank_z1.json")]
        )
        assert code == EXIT_SPEC
        assert "auto" in err

    def test_default_format_is_text(self, example_dir):
        code, out, _ = run_cli(
            ["entropy", doc_path(example_dir, "catmap_z2.json")]
        )
        assert code == EXIT_OK
        assert "0.9624236501" in out


class TestPetersCommand:
    def test_growth_estimate_close_to_spectral(self, example_dir):
        code, out, _ = run_cli(
            ["peters", doc_path(example_dir, "catmap_z2.json"), "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "peters"
        assert abs(payload["value"] - 0.9624236501192069) < 0.15

    def test_csv_series(self, example_dir):
        code, out, _ = run_cli(
            ["peters", doc_path(example_dir, "catmap_z2.json"), "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,size,log_size_over_n"
        assert lines[1].split(",")[1] == "4"

    def test_tiny_cap_is_computation_error(self, example_dir):
        code, _, err = run_cli(
            ["peters", doc_path(example_dir, "catmap_z2.json"), "--cap", "10"]
        )
        assert code == EXIT_COMPUTATION

    def test_cap_below_the_base_set_is_computation_error(self, example_dir):
        code, out, err = run_cli(
            ["peters", doc_path(example_dir, "catmap_z2.json"), "--cap", "3", "--n", "1",
             "--format", "csv"]
        )
        assert code == EXIT_COMPUTATION
        assert out == ""
        assert err == "computation error: sumset exceeded the 3-element budget (at least 4 elements)\n"

    def test_crystal_document_rejected(self, example_dir):
        code, _, err = run_cli(
            ["peters", doc_path(example_dir, "crystal_dinfty.json")]
        )
        assert code == EXIT_SPEC


class TestRankCommand:
    def test_exact_search(self, example_dir):
        code, out, _ = run_cli(
            ["rank", doc_path(example_dir, "rank_z1.json"), "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rank"] == 5
        assert payload["defect_exact"] == "2/5"
        assert payload["exhaustive_within_radius"] is True

    def test_flag_overrides_params(self, example_dir):
        code, out, _ = run_cli(
            ["rank", doc_path(example_dir, "rank_z1.json"), "--delta", "0.9",
             "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["rank"] == 3

    def test_upper_bound_methods_flagged(self, example_dir):
        for method in ("interval", "parallelepiped", "tower"):
            code, out, _ = run_cli(
                ["rank", doc_path(example_dir, "rank_z1.json"),
                 "--method", method, "--format", "json"]
            )
            assert code == EXIT_OK, method
            payload = json.loads(out)
            assert payload["exhaustive_within_radius"] is False
            assert payload["rank"] >= 5

    def test_unreachable_delta_is_computation_error(self, example_dir):
        code, _, err = run_cli(
            ["rank", doc_path(example_dir, "rank_z1.json"),
             "--delta", "0.01", "--radius", "2"]
        )
        assert code == EXIT_COMPUTATION

    def test_exhausted_ball_is_computation_error(self, example_dir):
        # the radius-1 ball of Z holds 3 points, and 5 are needed below 1/2
        code, out, err = run_cli(["rank", doc_path(example_dir, "rank_z1.json"), "--radius", "1"])
        assert code == EXIT_COMPUTATION == 1
        assert out == ""
        assert err == (
            "computation error: no support of size <= 3 within radius 1 achieves "
            "defect < 0.5; retry with a larger radius\n"
        )

    @pytest.mark.parametrize("delta", ["0", "-0.25"])
    @pytest.mark.parametrize("method", ["lp", "interval", "parallelepiped", "tower"])
    def test_nonpositive_delta_is_computation_error(self, example_dir, method, delta):
        # In a child with a time limit: an upper-bound loop that never meets
        # the tolerance must fail the test, not hang it.
        proc = subprocess.run(
            [sys.executable, "-m", "dualent.cli", "rank",
             doc_path(example_dir, "rank_z1.json"), "--method", method, "--delta", delta],
            capture_output=True,
            text=True,
            timeout=20,
            env=child_env(),
        )
        assert proc.returncode == EXIT_COMPUTATION
        assert proc.stdout == ""
        assert proc.stderr == "computation error: delta must be positive\n"


def _unit_box(p, h):
    """Uniform weights on [-h, h]^p: for h >= 1 the witness of --method
    parallelepiped, for h = 0 the point mass at 0."""
    if h == 0:
        return WeightedFunction.point_mass(FgAbelianGroup(p).zero())
    unit = tuple(tuple(int(i == j) for j in range(p)) for i in range(p))
    return parallelepiped_folner(Parallelepiped(unit), h)


class TestBoxMethods:
    """--method interval and --method parallelepiped gallop and bisect on the
    closed-form defect of the uniform axis box [-h, h]^p; both must agree
    with a linear scan of exact defects."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_closed_form_is_the_exact_defect(self, p):
        group = FgAbelianGroup(p)
        rng = random.Random(p)
        # The zero shift, shifts that leave the box (|s_i| > 2h + 1 for
        # every h tried) and random small ones.
        shifts = [(0,) * p, (10,) + (0,) * (p - 1), (-1,) * (p - 1) + (-11,)]
        shifts += [tuple(rng.randint(-6, 6) for _ in range(p)) for _ in range(12)]
        for h in range(5):
            box = _unit_box(p, h)
            if p == 1:
                assert box == interval_folner(h)
            assert len(box.support) == (2 * h + 1) ** p
            for s in shifts:
                omega = [group.element(s)]
                assert cli._box_defect(h, omega) == defect(box, omega), (h, s)

    @pytest.mark.parametrize("method", ["interval", "parallelepiped"])
    @pytest.mark.parametrize("shifts", [(1, -1), (2,), (0, 3, -1), (0,), (7, -5)])
    def test_first_halfwidth_matches_a_linear_scan_in_rank_one(self, example_dir, method, shifts):
        self.check_scan(example_dir / "rank_z1.json", method, [(s,) for s in shifts], 41)

    @pytest.mark.parametrize("shifts", [
        [(1, 0), (-1, 0)], [(1, 1)], [(0, 0), (2, -1), (0, 3)], [(0, 0)], [(5, -4), (-1, 2)],
    ])
    def test_first_halfwidth_matches_a_linear_scan_in_rank_two(self, example_dir, shifts):
        self.check_scan(example_dir / "catmap_z2.json", "parallelepiped", shifts, 13)

    @staticmethod
    def check_scan(path, method, shifts, scanned):
        doc = parse_spec(str(path))
        omega = [doc.group.element(s) for s in shifts]
        p = doc.group.rank
        if method == "interval":
            first, box = 0, interval_folner
        else:
            first, box = 1, lambda h: _unit_box(p, h)
        exact = {h: defect(box(h), omega) for h in range(first, scanned)}
        deltas = {d + eps for d in exact.values() for eps in (0, Fraction(1, 10**6))}
        deltas.add(Fraction(5, 2))
        for delta in sorted(d for d in deltas if d > exact[scanned - 1]):
            cert = cli._rank_box(doc, omega, delta, method)
            h = next(h for h, d in exact.items() if d < delta)
            assert cert.search_radius == h
            assert cert.witness == box(h)
            assert cert.defect_exact == exact[h] < delta

    @staticmethod
    def _child(example_dir, name, method, delta, timeout=60):
        return subprocess.run(
            [sys.executable, "-m", "dualent.cli", "rank", doc_path(example_dir, name),
             "--method", method, "--delta", delta, "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=child_env(),
        )

    def test_small_delta_answers(self, example_dir):
        proc = self._child(example_dir, "rank_z1.json", "interval", "0.0001")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[1] == "20001,9.99950002499875e-05,0.0001,10000,False"

    def test_past_the_limit_is_computation_error(self, example_dir):
        proc = self._child(example_dir, "rank_z1.json", "interval", "0.000001")
        assert proc.returncode == EXIT_COMPUTATION
        assert proc.stdout == ""
        assert proc.stderr == "computation error: no interval of halfwidth <= 200000 reaches the tolerance\n"

    # Building and checking every box up to the answer takes about 40 s on
    # the rank-one run and 20 s on the exit-1 run, so the time limit holds
    # the search to the closed form.
    @pytest.mark.parametrize("name, delta, row", [
        ("rank_z1.json", "0.001", "2001,0.0009995002498750624,0.001,1000,False"),
        ("catmap_z2.json", "0.04", "2601,0.0392156862745098,0.04,25,False"),
    ])
    def test_parallelepiped_small_delta_answers(self, example_dir, name, delta, row):
        proc = self._child(example_dir, name, "parallelepiped", delta, timeout=20)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[1] == row

    def test_parallelepiped_past_the_limit_is_computation_error(self, example_dir):
        proc = self._child(example_dir, "catmap_z2.json", "parallelepiped", "0.01", timeout=20)
        assert proc.returncode == EXIT_COMPUTATION
        assert proc.stdout == ""
        assert proc.stderr == "computation error: no axis box of halfwidth <= 60 reaches the tolerance\n"


class TestVerifyCommand:
    def test_single_suite(self):
        code, out, _ = run_cli(
            ["verify", "--suite", "sqrt-overlap", "--trials", "25", "--seed", "9"]
        )
        assert code == EXIT_OK
        assert "pass" in out

    def test_unknown_suite_rejected(self):
        # argparse exits directly on an invalid choice, with the same code
        # used for document errors
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "nope"])
        assert exc.value.code == EXIT_SPEC


class TestErrorPaths:
    def test_missing_file(self):
        code, _, err = run_cli(["entropy", "/nonexistent/x.json"])
        assert code == EXIT_SPEC

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = run_cli(["entropy", str(p)])
        assert code == EXIT_SPEC
        assert "line" in err

    def test_non_utf8_document_is_spec_error(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"group": {"kind": "free_abelian", "rank": 1}, "z\xe9": 1}')
        for command in ("entropy", "peters", "rank"):
            code, out, err = run_cli([command, str(p)])
            assert code == EXIT_SPEC
            assert out == ""
            assert err == "spec error: not UTF-8 text: invalid continuation byte at byte 49\n"

    @pytest.mark.parametrize("broken, message", [
        ({"group": {"cocycle": {"g,g": [1]}}},
         "spec error: group: associativity fails at (g, (0,)), (g, (0,)), (g, (0,)): "
         "the cocycle identity does not hold\n"),
        ({"group": {"action": {"g": [[1]]}}, "auto": {"lattice": [[1]], "translation": {"g": [1]}}},
         "spec error: auto: not a homomorphism: fails at (g, (0,)), (g, (0,)): "
         "the translations do not match the cocycle\n"),
    ])
    def test_crystal_rejection_names_elements(self, tmp_path, broken, message):
        doc = {
            "group": {
                "kind": "crystal", "rank": 1,
                "point_group": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
                "action": {"g": [[-1]]},
            },
            "auto": {"lattice": [[1]]},
        }
        for key, part in broken.items():
            doc[key].update(part)
        p = tmp_path / "crystal.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(["entropy", str(p)])
        assert code == EXIT_SPEC
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("block, message", [
        ({"auto": {"lattice": [[2, 1], [1, 1]]}}, "auto.lattice: expected 10**30 rows, got 2"),
        ({"auto": {"translation": {"g": [1, 0]}}}, "auto.translation.g: expected 10**30 entries, got 2"),
        ({"omega": [["g", 1, 0]]}, "omega[0]: expected [label, 10**30 lattice coordinates]"),
        ({"base": [["e", 0, 0]]}, "base[0]: expected [label, 10**30 lattice coordinates]"),
    ], ids=["auto.lattice", "auto.translation", "omega", "base"])
    def test_crystal_rank_is_checked_before_the_group_is_built(self, tmp_path, block, message):
        # The identity action and zero cocycle of a rank-10^30 group cannot
        # be built; the child's address space is capped so that an attempt
        # fails fast instead of taking the machine's memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        doc = {"group": {"kind": "crystal", "rank": 10**30,
                         "point_group": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]}}}
        doc.update(block)
        p = tmp_path / "crystal.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "dualent.cli", "entropy", str(p)],
            capture_output=True, text=True, timeout=10, env=child_env(), preexec_fn=cap_memory,
        )
        assert proc.returncode == EXIT_SPEC, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == f"spec error: {message.replace('10**30', str(10**30))}\n"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("command, key", [("rank", "delta"), ("entropy", "tol")])
    def test_non_finite_params_are_spec_errors(self, tmp_path, command, key, constant):
        # json reads NaN and Infinity, and 1e400 overflows to infinity
        p = tmp_path / "nonfinite.json"
        p.write_text(
            '{"group": {"kind": "free_abelian", "rank": 2}, '
            '"auto": {"lattice": [[2, 1], [1, 1]]}, "omega": [[1, 0]], '
            f'"params": {{"{key}": {constant}}}}}'
        )
        code, out, err = run_cli([command, str(p)])
        assert code == EXIT_SPEC
        assert out == ""
        assert err.startswith(f"spec error: params.{key}: expected a finite number, got ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command, doc, flag", [
        ("rank", "rank_z1.json", "--delta"),
        ("entropy", "catmap_z2.json", "--tol"),
    ])
    def test_non_finite_flags_are_usage_errors(self, example_dir, command, doc, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, doc_path(example_dir, doc), f"{flag}={value}"])
        assert exc.value.code == EXIT_SPEC
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number, got '{value}'" in err

    @pytest.mark.parametrize("value", ["0", "-1", "-1e-300"])
    def test_nonpositive_tol_flag_is_usage_error(self, example_dir, value, capsys):
        # params.tol <= 0 is a spec error; the flag gets the same check
        with pytest.raises(SystemExit) as exc:
            main(["entropy", doc_path(example_dir, "catmap_z2.json"), f"--tol={value}"])
        assert exc.value.code == EXIT_SPEC
        assert f"argument --tol: must be positive, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["peters", "catmap_z2.json", "--n"],
        ["peters", "catmap_z2.json", "--cap"],
        ["rank", "rank_z1.json", "--radius"],
        ["rank", "rank_z1.json", "--cap"],
        ["verify", "--trials"],
    ])
    def test_negative_count_flags_are_usage_errors(self, example_dir, argv, capsys):
        # params.n, radius and cap < 0 are spec errors; the flags get the same check
        *head, flag = argv
        if len(head) == 2:
            head[1] = doc_path(example_dir, head[1])
        with pytest.raises(SystemExit) as exc:
            main(head + [flag, "-1"])
        assert exc.value.code == EXIT_SPEC
        assert f"argument {flag}: must be nonnegative, got '-1'" in capsys.readouterr().err

    def test_zero_count_flag_is_still_a_computation_error(self, example_dir):
        code, out, err = run_cli(["peters", doc_path(example_dir, "catmap_z2.json"), "--n", "0"])
        assert code == EXIT_COMPUTATION
        assert out == ""
        assert err == "computation error: n_max must be at least 1\n"

    def test_non_integer_count_flag_is_usage_error(self, example_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", doc_path(example_dir, "rank_z1.json"), "--radius", "2.5"])
        assert exc.value.code == EXIT_SPEC
        assert "argument --radius: invalid int value: '2.5'" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "unk.json"
        p.write_text(json.dumps({"group": {"kind": "free_abelian", "rank": 1}, "z": 1}))
        code, _, err = run_cli(["entropy", str(p)])
        assert code == EXIT_SPEC


class TestOutputHandling:
    def test_out_file_byte_determinism(self, example_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run_cli(
                ["entropy", doc_path(example_dir, "catmap_z2.json"),
                 "--format", "json", "--out", str(target)]
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_out_into_missing_directory_is_usage_error(self, example_dir, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            ["entropy", doc_path(example_dir, "catmap_z2.json"), "--out", str(target)]
        )
        assert code == EXIT_SPEC
        assert out == ""
        assert err == f"output error: [Errno 2] No such file or directory: '{target}'\n"
        assert not target.parent.exists()

    def test_stdout_byte_determinism_across_formats(self, example_dir):
        for fmt in ("json", "csv", "text"):
            runs = {
                run_cli(["entropy", doc_path(example_dir, "catmap_z2.json"),
                         "--format", fmt])[1]
                for _ in range(2)
            }
            assert len(runs) == 1


def test_console_entry_point(example_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dualent.cli", "entropy",
         doc_path(example_dir, "catmap_z2.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "0.9624236501" in proc.stdout
