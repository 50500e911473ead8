"""Command line interface, exercised in process through main(argv), and in
new processes where what a process imports at start-up matters."""

import contextlib
import csv
import errno
import gc
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_ONLY_P, BOX_ONLY_X0, SET_A, SET_B, SET_C, snapped_points
from socgame import Params, estimate_basins, validate
from socgame.cli import _YOUNG_OBJECTS, _json, _read_params_file, main
from socgame.dynamics import IntegrationError
from test_golden import CASES, GOLDEN_DIR, _params_file

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def params_a(tmp_path):
    f = tmp_path / "a.params"
    f.write_text(
        "# canonical bistable point\n"
        "alpha = 2\nbeta = 1\ngamma = 1\ndelta = 1\nepsilon = 2\neta = 0.5\n")
    return str(f)


@pytest.fixture
def params_b(tmp_path):
    f = tmp_path / "b.params"
    f.write_text(
        "alpha=2\nbeta=-2\ngamma=1.5\ndelta=1\nepsilon=1\neta=0.2\n")
    return str(f)


def point_args(values):
    """``--set`` arguments for a point given as (alpha, ..., eta)."""
    names = ("alpha", "beta", "gamma", "delta", "epsilon", "eta")
    return [arg for k, v in zip(names, values) for arg in ("--set", f"{k}={v!r}")]


def out_args(command, directory):
    """``--out directory`` for a command that writes files: all but check."""
    return [] if command == "check" else ["--out", str(directory)]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCheck:
    def test_valid_point(self, capsys, params_a):
        code, out, _ = run(capsys, "check", "--params", params_a)
        assert code == 0
        doc = json.loads(out)
        assert doc["validation"]["branch"] == "B-plus"
        assert doc["dominance"] == []
        assert doc["nash"] == {"O": True, "H": True, "P": True, "N": True}

    def test_degenerate_point(self, capsys, params_a):
        code, out, _ = run(capsys, "check", "--params", params_a, "--set", "gamma=2")
        assert code == 3
        doc = json.loads(out)
        assert "epsilon-gamma" in doc["validation"]["degenerate_quantities"]
        # a tolerance that is not a finite number >= 0 is an input error
        for tol in ("nan", "inf", "-1e-9"):
            code, out, err = run(capsys, "check", "--params", params_a, "--set", "gamma=2",
                                 f"--tol={tol}")
            assert (code, out) == (1, "")
            assert err == f"input error: --tol must be finite and >= 0, got {float(tol)!r}\n"

    @pytest.mark.parametrize("command", ["check", "equilibria", "portrait"])
    def test_tiny_positive_eta_is_degenerate(self, capsys, params_a, tmp_path, command):
        # 0 < eta <= tol is one degenerate boundary for every command, and
        # sweep flags it; eta = 0 stays a positivity failure
        code, _, _ = run(capsys, command, "--params", params_a, "--set", "eta=1e-10",
                         *out_args(command, tmp_path / "out"))
        assert code == 3
        assert not (tmp_path / "out").exists()
        code, out, _ = run(capsys, "check", "--params", params_a, "--set", "eta=0")
        assert code == 2
        assert json.loads(out)["validation"]["degenerate_quantities"] == []
        code, out, _ = run(capsys, "sweep", "--params", params_a, "--sweep", "eta:0:1e-10:2")
        assert code == 0
        header, rows = sweep_rows(out)
        valid, degenerate = header.index("valid"), header.index("degenerate")
        assert [(r[valid], r[degenerate]) for r in rows] == [("0", "0"), ("1", "1")]

    # (alpha, beta, gamma, delta, epsilon, eta) on each face-scoped boundary,
    # and the quantity validate names there
    FACE_BOUNDARIES = {
        "beta": (2, 0, 1, 1, 2, 0.5),
        "beta-eta": (2, 0.5, 1, 1, 2, 0.5),
        "eta-pay(O+P)": (2, 1.5, 1, 1, 2, 1),
        "eta-pay(O+H)": (2, 1, 0.5, 1, 3, 2 / 3),
        "eta-pay(H+P)": (2, -3, 4, 1, 2, 0.5),  # on B-minus
        "eta-pay(H+P) B-plus": (2, 1, 0.5, 1, 2, 5 / 7),
    }

    @pytest.mark.parametrize("name", sorted(FACE_BOUNDARIES))
    def test_face_boundary_is_degenerate(self, capsys, params_a, tmp_path, name):
        # a boundary that leaves only some faces undecided is one for check
        # too, as for equilibria and portrait
        sets = point_args(self.FACE_BOUNDARIES[name])
        code, out, _ = run(capsys, "check", "--params", params_a, *sets)
        assert code == 3
        doc = json.loads(out)
        assert name.split()[0] in doc["validation"]["degenerate_quantities"]
        assert "nash" not in doc
        code, _, _ = run(capsys, "equilibria", "--params", params_a, *sets)
        assert code == 3
        code, _, _ = run(capsys, "portrait", "--params", params_a, *sets,
                         "--out", str(tmp_path / "out"))
        assert code == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "equilibria", "portrait"])
    def test_near_boundary_point_is_classified(self, capsys, params_a, tmp_path, command):
        # 3e-9 off epsilon = gamma on B-minus, beyond tol: the table accepts
        # the point, so every command classifies it, though the S_N
        # face-interior solve finds a share within tol of 0 there
        sets = point_args((4, -2, 2.000000003, 1, 1, 0.2))
        code, _, err = run(capsys, command, "--params", params_a, *sets,
                           *out_args(command, tmp_path / "out"))
        assert (code, err) == (0, "")

    def test_zero_edge_state_denominator_is_not_a_boundary(self, capsys, params_b):
        # set B has alpha + beta = 0 exactly: the O-H edge state's payoff is
        # -inf there, which no tolerance puts near eta
        code, out, _ = run(capsys, "check", "--params", params_b)
        assert code == 0
        doc = json.loads(out)
        assert doc["validation"]["degenerate_quantities"] == []
        assert doc["nash"] == {"O": True, "H": False, "P": False, "N": True}

    def test_dominated_strategy(self, capsys, params_a):
        code, out, _ = run(capsys, "check", "--params", params_a, "--set", "eta=3")
        assert code == 2
        doc = json.loads(out)
        assert ["O", "N"] in doc["dominance"]
        assert "nash" not in doc

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--params", str(tmp_path / "nope"))
        assert code == 1
        assert "input error" in err

    def test_bad_params_file(self, capsys, tmp_path):
        f = tmp_path / "bad.params"
        f.write_text("alpha = two\n")
        code, _, err = run(capsys, "check", "--params", str(f))
        assert code == 1
        assert "not a number" in err

    def test_incomplete_params_file(self, capsys, tmp_path):
        f = tmp_path / "short.params"
        f.write_text("alpha = 2\n")
        code, _, err = run(capsys, "check", "--params", str(f))
        assert code == 1
        assert "missing parameters" in err

    @pytest.mark.parametrize("line, key", [("=3", ""), ("Alpha=3", "Alpha")],
                             ids=["empty", "unknown"])
    def test_params_file_names_line_of_unknown_key(self, capsys, params_a, tmp_path, line, key):
        f = tmp_path / "odd.params"
        f.write_text(Path(params_a).read_text() + line + "\n")
        code, out, err = run(capsys, "check", "--params", str(f))
        assert (code, out) == (1, "")
        assert err == f"input error: {f}:8: unknown parameter {key!r}\n"

    # a params line and a --set item are read by one rule, each named
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_item_without_equals_sign_is_named(self, capsys, params_a, tmp_path, source):
        if source == "file":
            f = tmp_path / "noeq.params"
            f.write_text(Path(params_a).read_text() + "  eta 0.4\n")
            argv, where = ["--params", str(f)], f"{f}:8"
        else:
            argv, where = ["--params", params_a, "--set", "eta 0.4"], "--set"
        code, out, err = run(capsys, "check", *argv)
        assert (code, out) == (1, "")
        assert err == f"input error: {where}: expected KEY=VALUE, got 'eta 0.4'\n"

    def test_set_rejects_unknown_key(self, capsys, params_a):
        code, _, err = run(capsys, "check", "--params", params_a, "--set", "zeta=1")
        assert code == 1
        assert "zeta" in err

    def test_set_rejects_missing_value(self, capsys, params_a):
        code, _, err = run(capsys, "check", "--params", params_a, "--set", "eta")
        assert code == 1

    def test_repeated_key_rejected(self, capsys, params_a, tmp_path):
        f = tmp_path / "twice.params"
        f.write_text(Path(params_a).read_text() + "alpha = 0.1\n")
        code, out, err = run(capsys, "check", "--params", str(f))
        assert (code, out) == (1, "")
        assert err == f"input error: {f}:8: parameter 'alpha' given twice\n"
        code, out, err = run(capsys, "check", "--params", params_a,
                             "--set", "eta=3", "--set", " eta=0.4")
        assert (code, out) == (1, "")
        assert err == "input error: --set: parameter 'eta' given twice\n"

    # check and equilibria exit with the code of the point's validation
    # report, the rule the other commands raise by; the point comes whole
    # from --set, after an empty params file
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_check_and_equilibria_exit_with_the_report_code(self, p, tol):
        argv = ["--params", os.devnull, *point_args(p.as_dict().values()), "--tol", repr(tol)]
        want = validate(p, tol).code
        for command in ("check", "equilibria"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main([command, *argv]) == want, command
            assert err.getvalue() == "", command


class TestEquilibria:
    def test_full_report(self, capsys, params_a, tmp_path):
        out_dir = tmp_path / "rep"
        code, out, _ = run(capsys, "equilibria", "--params", params_a,
                           "--out", str(out_dir))
        assert code == 0
        doc = json.loads(out)
        assert [e["figure"] for e in doc["edges"]] == ["2a", "3a", "4a", "5a"]
        labels = [a["label"] for a in doc["global"]["attractors"]]
        assert labels == ["O", "H", "P", "N"]
        # canonical form: reparse and redump reproduces the bytes
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert (out_dir / "equilibria.json").read_text() == out

    def test_coexistence_report(self, capsys, params_b):
        code, out, _ = run(capsys, "equilibria", "--params", params_b)
        assert code == 0
        doc = json.loads(out)
        labels = [a["label"] for a in doc["global"]["attractors"]]
        assert labels == ["O", "N", "H+P"]
        assert doc["global"]["welfare"]["incomparable"] == [["O", "H+P"]]

    def test_degenerate_partial_report(self, capsys, params_a):
        code, out, _ = run(capsys, "equilibria", "--params", params_a,
                           "--set", "gamma=2")
        assert code == 3
        doc = json.loads(out)
        assert set(doc) == {"params", "validation"}

    def test_dominated(self, capsys, params_a):
        code, out, _ = run(capsys, "equilibria", "--params", params_a,
                           "--set", "eta=3")
        assert code == 2


class TestSimulate:
    def test_isolation_side_of_threshold(self, capsys, params_a, tmp_path):
        code, out, _ = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.24,0.76", "--out", str(tmp_path / "s1"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("wrote ") and lines[0].endswith("trajectory.csv")
        assert lines[1].startswith("verdict: converged at t=")
        assert lines[-1] == "N"

    def test_polite_side_of_threshold(self, capsys, params_a, tmp_path):
        code, out, _ = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.26,0.74", "--out", str(tmp_path / "s2"))
        assert code == 0
        assert out.strip().splitlines()[-1] == "P"

    def test_coexistence_attractor(self, capsys, params_b, tmp_path):
        code, out, _ = run(capsys, "simulate", "--params", params_b,
                           "--x0", "0.05,0.35,0.55,0.05", "--out", str(tmp_path / "s3"))
        assert code == 0
        assert out.strip().splitlines()[-1] == "H+P"

    def test_labels_by_ratio_box(self, capsys, tmp_path):
        # the run stops at max_time off the H-P edge, inside the H+P box
        f = tmp_path / "box.params"
        f.write_text("".join(f"{k} = {v!r}\n" for k, v in BOX_ONLY_P.as_dict().items()))
        code, out, _ = run(capsys, "simulate", "--params", str(f),
                           "--x0", ",".join(repr(v) for v in BOX_ONLY_X0),
                           "--out", str(tmp_path / "s9"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2].startswith("verdict: max-time-reached")
        assert lines[-1] == "H+P"

    def test_rest_point_outside_every_box_is_unresolved(self, capsys, params_b, tmp_path):
        # H is a rest point of set B but not an attractor: the run converges
        # at once and ends in no ratio box
        code, out, _ = run(capsys, "simulate", "--params", params_b,
                           "--x0", "0,1,0,0", "--out", str(tmp_path / "s10"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("verdict: converged at t=0.0 ")
        assert lines[-1] == "unresolved"

    def test_csv_output(self, capsys, params_a, tmp_path):
        out_dir = tmp_path / "s4"
        code, out, _ = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.26,0.74", "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "x3", "x4"]
        assert rows[1][1:] == ["0.0", "0.0", "0.26", "0.74"]
        body = "\n".join(",".join(r) for r in rows[1:])
        assert "e" not in body and "E" not in body

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_method_option_rejected(self, capsys, params_a, tmp_path, method):
        # one stepper serves every run, so no option picks one
        code, out, err = run(capsys, "simulate", "--params", params_a,
                             "--x0", "0,0,0.26,0.74", "--method", method,
                             "--out", str(tmp_path / "s5"))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"socgame: error: unrecognized arguments: --method {method}"]
        assert not (tmp_path / "s5" / "trajectory.csv").exists()

    def test_bad_x0(self, capsys, params_a, tmp_path):
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.24", "--out", str(tmp_path / "s6"))
        assert code == 1
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--x0", "-0.1,0.2,0.3,0.6", "--out", str(tmp_path / "s6"))
        assert code == 1
        # an empty --x0 is read like any other, not taken for a missing one
        code, out, err = run(capsys, "simulate", "--params", params_a,
                             "--x0", "", "--out", str(tmp_path / "s6"))
        assert (code, out) == (1, "")
        assert err == "input error: --x0 expects four comma-separated shares, got ''\n"
        for max_time in ("nan", "inf", "0", "-1"):
            code, out, err = run(capsys, "simulate", "--params", params_a,
                                 "--x0", "0,0,0.26,0.74", f"--max-time={max_time}",
                                 "--out", str(tmp_path / "s6"))
            assert (code, out) == (1, "")
            assert err.startswith("input error: max_time must be positive and finite")
        assert not (tmp_path / "s6").exists()

    def test_degenerate_params(self, capsys, params_a, tmp_path):
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--set", "gamma=2", "--x0", "0.25,0.25,0.25,0.25",
                           "--out", str(tmp_path / "s7"))
        assert code == 3
        assert not (tmp_path / "s7").exists()

    def test_integration_failure_exit_code(self, capsys, params_a, tmp_path,
                                           monkeypatch):
        def boom(*a, **kw):
            raise IntegrationError("step size underflow at t=1.5")

        monkeypatch.setattr("socgame.dynamics.integrate", boom)
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.26,0.74", "--out", str(tmp_path / "s8"))
        assert code == 4
        assert "integration failure" in err

    def test_integration_error_is_one_class(self):
        import socgame
        import socgame.model

        assert socgame.IntegrationError is IntegrationError is socgame.model.IntegrationError


def sweep_rows(out):
    rows = list(csv.reader(out.splitlines()))
    return rows[0], rows[1:]


class TestSweep:
    def test_eta_axis(self, capsys, params_a, tmp_path):
        out_dir = tmp_path / "sw"
        code, out, _ = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "eta:0.1:1.4:14", "--out", str(out_dir))
        assert code == 0
        header, rows = sweep_rows(out)
        assert header == ["eta", "valid", "degenerate", "branch",
                          "fig_S_N", "fig_S_O", "fig_S_H", "fig_S_P",
                          "n_attractors"]
        assert len(rows) == 14
        by_eta = {round(float(r[0]), 6): r for r in rows}
        assert by_eta[0.1][1:4] == ["1", "0", "B-plus"]
        assert by_eta[0.1][4:8] == ["2a", "3a", "4a", "5a"]
        assert by_eta[0.1][8] == "4"
        # max(beta, gamma) equals eta at 1.0: flagged, not silently classified
        assert by_eta[1.0][2] == "1"
        assert by_eta[1.1][1] == "0"
        assert (out_dir / "sweep.csv").read_text() == out

    def test_isolation_payoff_crossing_flips_the_polite_face(self, capsys,
                                                             params_a):
        # with beta raised the grid stays admissible through the boundary
        # eta = alpha*epsilon/(alpha+epsilon) = 1, where 4a flips to 4b
        code, out, _ = run(capsys, "sweep", "--params", params_a,
                           "--set", "beta=1.5", "--sweep", "eta:0.1:1.4:14")
        assert code == 0
        _, rows = sweep_rows(out)
        by_eta = {round(float(r[0]), 6): r for r in rows}
        assert by_eta[0.9][6] == "4a"
        assert by_eta[1.0][2] == "1"
        assert by_eta[1.1][6] == "4b" and by_eta[1.1][1] == "1"

    def test_beta_axis_crosses_invalid_and_degenerate_rows(self, capsys,
                                                           params_a):
        code, out, _ = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "beta:-3:2:11")
        assert code == 0
        _, rows = sweep_rows(out)
        by_beta = {round(float(r[0]), 6): r for r in rows}
        assert by_beta[-1.0][2] == "1"  # beta+delta = 0
        for b in (-3.0, -2.5, -2.0, -1.5):
            assert by_beta[b][1] == "0"  # cross terms outside both branches
        assert by_beta[1.0][4:9] == ["2a", "3a", "4a", "5a", "4"]

    def test_two_axes(self, capsys, params_a):
        code, out, _ = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "eta:0.2:0.4:3", "--sweep", "beta:0.5:1:2")
        assert code == 0
        header, rows = sweep_rows(out)
        assert header[:2] == ["eta", "beta"]
        assert len(rows) == 6

    def test_three_axes_rejected(self, capsys, params_a):
        code, _, err = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "eta:0.2:0.4:3", "--sweep", "beta:0.5:1:2",
                           "--sweep", "alpha:1:2:2")
        assert code == 1

    def test_repeated_axis_rejected(self, capsys, params_a):
        code, out, err = run(capsys, "sweep", "--params", params_a,
                             "--sweep", "alpha:1:3:3", "--sweep", "alpha:0.5:0.7:2")
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "alpha" in err

    def test_non_finite_bound_rejected(self, capsys, params_a):
        for axis in ("beta:0:inf:3", "beta:nan:1:3", "beta:-1e308:1e308:3"):
            code, out, err = run(capsys, "sweep", "--params", params_a, "--sweep", axis)
            assert (code, out) == (1, "")
            assert err.startswith("input error: --sweep beta: ")
            assert err.count("\n") == 1

    def test_zero_denominators_write_nothing_to_stderr(self, capsys, params_a):
        # this grid puts ratio denominators of inadmissible points exactly at 0
        code, out, err = run(capsys, "sweep", "--params", params_a,
                             "--sweep", "beta:-3:2.5:100", "--sweep", "gamma:-1:3.5:100")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 10001

    def test_grid_size_bounded(self, capsys, params_a):
        # refused before the grid is allocated, with one input-error line
        for axes, n in ((["eta:0:1:100000000000"], 10**11),
                        (["eta:0:1:1000001"], 10**6 + 1),
                        (["eta:0:1:1001", "beta:0:1:1000"], 1001000)):
            argv = [a for axis in axes for a in ("--sweep", axis)]
            code, out, err = run(capsys, "sweep", "--params", params_a, *argv)
            assert (code, out) == (1, "")
            assert err == f"input error: --sweep grid has {n} points, more than 1000000\n"

    def test_malformed_axis(self, capsys, params_a):
        code, _, err = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "eta:0:1")
        assert code == 1
        code, _, err = run(capsys, "sweep", "--params", params_a,
                           "--sweep", "zeta:0:1:5")
        assert code == 1


class TestBasins:
    def test_report(self, capsys, params_b, tmp_path):
        out_dir = tmp_path / "ba"
        code, out, _ = run(capsys, "basins", "--params", params_b,
                           "--samples", "120", "--seed", "3", "--out", str(out_dir))
        assert code == 0
        doc = json.loads(out)
        assert doc["sample_count"] == 120 and doc["seed"] == 3
        assert set(doc["basins"]) == {"O", "N", "H+P", "unresolved"}
        assert sum(b["count"] for b in doc["basins"].values()) == 120
        assert (out_dir / "basins.json").read_text() == out
        csv_rows = (out_dir / "basins.csv").read_text().splitlines()
        assert csv_rows[0] == "label,count,fraction,stderr"
        assert len(csv_rows) == 5

    def test_deterministic(self, capsys, params_b):
        # one seed gives one report, the library's
        argv = ["basins", "--params", params_b, "--samples", "60", "--seed", "5"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        in_process = estimate_basins(Params.from_mapping(_read_params_file(params_b)), 60,
                                     seed=5).as_dict()
        assert (code1, out1) == (code2, out2) == (0, _json(in_process))

    def test_overflowing_stages_stay_silent(self, capsys, params_a):
        # the stages overflow to inf and NaN, which only reject steps; in
        # process a RuntimeWarning is an error (pyproject's filterwarnings)
        argv = ["basins", "--params", params_a, "--set", "alpha=1e200",
                "--set", "epsilon=1e200", "--samples", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        res = subprocess.run([sys.executable, "-m", "socgame.cli", *argv],
                             env=fresh_env(), capture_output=True, text=True)
        assert (res.returncode, res.stdout, res.stderr) == (0, out, "")

    def test_sample_count_bounded(self, capsys, params_a):
        # refused before any work, also on degenerate parameters (gamma=2)
        for n in ("100000000000", "1000001", "0"):
            code, out, err = run(capsys, "basins", "--params", params_a, "--set", "gamma=2",
                                 "--samples", n)
            assert (code, out) == (1, "")
            assert err == f"input error: --samples must be from 1 to 1000000, got {n}\n"

    def test_negative_seed_rejected(self, capsys, params_a):
        # refused before any work, also on degenerate parameters (gamma=2)
        for seed in ("-1", "-12345678901234567890"):
            code, out, err = run(capsys, "basins", "--params", params_a, "--set", "gamma=2",
                                 "--seed", seed)
            assert (code, out) == (1, "")
            assert err == f"input error: --seed must be >= 0 for basins, got {seed}\n"

    def test_rejects_zero_samples(self, capsys, params_b):
        code, _, err = run(capsys, "basins", "--params", params_b,
                           "--samples", "0")
        assert code == 1
        for max_time in ("nan", "inf", "0", "-1"):
            code, out, err = run(capsys, "basins", "--params", params_b,
                                 "--samples", "10", f"--max-time={max_time}")
            assert (code, out) == (1, "")
            assert err.startswith("input error: max_time must be positive and finite")


class TestPortrait:
    def test_writes_svg_and_trajectories(self, capsys, params_a, tmp_path):
        out_dir = tmp_path / "po"
        code, out, _ = run(capsys, "portrait", "--params", params_a,
                           "--out", str(out_dir))
        assert code == 0
        svg = (out_dir / "portrait.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        assert "circle" in svg or "marker" in svg
        traj = (out_dir / "portrait_trajectories.csv").read_text().splitlines()
        assert len(traj) > 10

    def test_degenerate_writes_nothing(self, capsys, params_a, tmp_path):
        out_dir = tmp_path / "po2"
        code, _, err = run(capsys, "portrait", "--params", params_a,
                           "--set", "gamma=2", "--out", str(out_dir))
        assert code == 3
        assert not (out_dir / "portrait.svg").exists()

    def test_dominated(self, capsys, params_a, tmp_path):
        code, _, err = run(capsys, "portrait", "--params", params_a,
                           "--set", "eta=3", "--out", str(tmp_path / "po3"))
        assert code == 2

    def test_step_underflow_is_an_integration_failure(self, capsys, params_a, tmp_path):
        # at this stiff point the first trajectory's step size underflows
        # before its second sample time
        out_dir = tmp_path / "po4"
        code, out, err = run(capsys, "portrait", "--params", params_a,
                             "--set", "alpha=1e13", "--out", str(out_dir))
        assert (code, out) == (4, "")
        assert err == "integration failure: step underflow after 1 of 241 requested times\n"
        assert list(out_dir.glob("*")) == []


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    # only basins draws at random, so only it takes --seed; no command takes
    # --jobs, as basins integrates its samples as one batch in this process
    @pytest.mark.parametrize("argv", [["check"], ["equilibria"], ["simulate", "--x0", "1,0,0,0"],
                                      ["sweep", "--sweep", "beta:0:1:2"], ["portrait"],
                                      ["basins", "--samples", "1"]],
                             ids=["check", "equilibria", "simulate", "sweep", "portrait",
                                  "basins"])
    def test_seed_only_on_basins_and_no_jobs(self, capsys, params_a, tmp_path, argv):
        argv = [*argv, "--params", params_a, *out_args(argv[0], tmp_path / "o")]
        flags = [["--jobs", "2"]] + ([] if argv[0] == "basins" else [["--seed", "1"]])
        for flag in flags:
            code, out, err = run(capsys, *argv, *flag)
            assert (code, out) == (1, ""), flag
            assert err.splitlines()[-1] == (
                f"socgame: error: unrecognized arguments: {' '.join(flag)}")
        assert not (tmp_path / "o").exists()

    def test_check_takes_no_out(self, capsys, params_a, tmp_path):
        # check writes no file, so --out there is a usage error, not ignored
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "check", "--params", params_a, "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"socgame: error: unrecognized arguments: --out {out_dir}"
        assert not out_dir.exists()

    def test_missing_params_flag(self, capsys):
        assert main(["check"]) == 1
        capsys.readouterr()

    # a value that is no number is named with its option, as a params
    # file's line is, and not in Python's words
    @pytest.mark.parametrize("argv, message", [
        (["check", "--set", "alpha=abc"], "--set alpha: not a number: 'abc'"),
        (["simulate", "--x0", "0.25,x,0.25,0.25"], "--x0: not a number: 'x'"),
        (["sweep", "--sweep", "beta:a:1:3"], "--sweep beta MIN: not a number: 'a'"),
        (["sweep", "--sweep", "beta:0:b:3"], "--sweep beta MAX: not a number: 'b'"),
        (["sweep", "--sweep", "beta:0:1:x"], "--sweep beta STEPS: not an integer: 'x'"),
    ], ids=["set", "x0", "sweep-min", "sweep-max", "sweep-steps"])
    def test_malformed_number_names_its_option(self, capsys, params_a, argv, message):
        code, out, err = run(capsys, *argv, "--params", params_a)
        assert (code, out, err) == (1, "", f"input error: {message}\n")

    # only a program run (argv None) raises the collector's threshold and
    # ends the process; a call with argv returns and leaves the collector alone
    @pytest.mark.parametrize("argv, code", [(["check"], 0), (["check", "--set", "eta=3"], 2),
                                            (["frobnicate"], 1)],
                             ids=["success", "dominated", "usage"])
    def test_in_process_call_leaves_the_collector_as_it_was(self, capsys, params_a, argv, code):
        before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
        assert main(argv + ["--params", params_a]) == code
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before
        assert gc.isenabled()
        capsys.readouterr()

    # the result is printed whole before the files under --out are written,
    # so a failed write there is an output error, not an input one
    @pytest.mark.parametrize("argv", [["equilibria"], ["sweep", "--sweep", "beta:-3:2:11"],
                                      ["basins", "--samples", "20"]],
                             ids=["equilibria", "sweep", "basins"])
    def test_unwritable_out_is_an_output_error(self, capsys, params_a, tmp_path, argv):
        argv = argv + ["--params", params_a]
        assert main(argv) == 0
        want = capsys.readouterr().out
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + ["--out", str(blocker / "out")]) == 1
        got = capsys.readouterr()
        assert got.out == want
        error = OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(blocker / "out"))
        assert got.err == f"output error: {error}\n"

    # these two print only the paths they wrote, so a failed write leaves
    # standard output empty
    @pytest.mark.parametrize("argv", [["simulate", "--x0", "0,0,0.26,0.74"], ["portrait"]],
                             ids=["simulate", "portrait"])
    def test_unwritable_out_is_an_output_error_with_nothing_printed(self, capsys, params_a,
                                                                    tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + ["--params", params_a, "--out", str(blocker / "out")]) == 1
        got = capsys.readouterr()
        error = OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(blocker / "out"))
        assert (got.out, got.err) == ("", f"output error: {error}\n")

    # gamma is 1e-6 below epsilon = 2 on set A: beyond the default tol, so
    # every command decides the point, but within --tol 1e-3, where each
    # command that classifies one point finds it degenerate
    @pytest.mark.parametrize("argv", [["check"], ["equilibria"],
                                      ["simulate", "--x0", "0,0,0.26,0.74"],
                                      ["basins", "--samples", "20"], ["portrait"]],
                             ids=["check", "equilibria", "simulate", "basins", "portrait"])
    def test_every_command_reads_tol(self, capsys, params_a, tmp_path, argv):
        argv = argv + ["--params", params_a, "--set", "gamma=1.999999",
                       *out_args(argv[0], tmp_path / "out")]
        assert main(argv) == 0
        assert main(argv + ["--tol", "1e-3"]) == 3
        capsys.readouterr()

    def test_sweep_reads_tol(self, capsys, params_a):
        # sweep reports a degenerate point as a row, and exits 0
        argv = ["sweep", "--params", params_a, "--set", "gamma=1.999999",
                "--sweep", "eta:0.3:0.6:4"]
        for tol, flagged in (([], "0"), (["--tol", "1e-3"], "1")):
            code, out, _ = run(capsys, *argv, *tol)
            header, rows = sweep_rows(out)
            assert code == 0 and len(rows) == 4
            assert {r[header.index("degenerate")] for r in rows} == {flagged}

    @pytest.mark.parametrize("command", ["check", "equilibria", "simulate", "sweep", "basins",
                                         "portrait"])
    def test_closed_stdout_refused_before_any_work(self, capsys, monkeypatch, params_a,
                                                   tmp_path, command):
        extra = {"simulate": ["--x0", "0,0,0.26,0.74"], "sweep": ["--sweep", "beta:-3:2:11"]}
        monkeypatch.setattr(sys, "stdout", None)  # how Python starts with fd 1 closed
        out_dir = tmp_path / "out"
        code = main([command, "--params", params_a, *out_args(command, out_dir),
                     *extra.get(command, [])])
        assert (code, capsys.readouterr().err) == (1, "output error: standard output is closed\n")
        assert not out_dir.exists()


def fresh_env(threads: str | None = None) -> dict:
    """The environment for a new Python process that imports socgame from
    ``src/``, with OPENBLAS_NUM_THREADS set to ``threads`` or absent.  It is
    never inherited, because importing ``socgame.cli`` has set it here."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def fresh_python(code: str, threads: str | None = None):
    """Run ``code`` in a new interpreter; returns the JSON it prints."""
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=fresh_env(threads),
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


# a program run that returns from main, as it does under a profiler, so
# that the interpreter's exit flushes and tears down
MAIN_RETURNS = ("-c", "import sys; from socgame.cli import main; "
                      "sys.setprofile(lambda *args: None); sys.exit(main())")


def run_to_full_stdout(argv: list, unbuffered: str | None,
                       program: tuple = ("-m", "socgame.cli")):
    """Run ``program`` with ``argv`` in a new interpreter whose stdout is
    /dev/full, buffered or not."""
    env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, *program, *argv],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True)


def run_with_closed_stdout(argv: list, program: tuple = ("-m", "socgame.cli")):
    """Run ``program`` with ``argv`` in a new interpreter started with fd 1
    closed."""
    return subprocess.run([sys.executable, *program, *argv], env=fresh_env(),
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))


ENOSPC_ERROR = [f"output error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}"]
CLOSED_ERROR = "output error: standard output is closed\n"


class TestFreshProcess:
    def test_import_loads_no_submodule_and_keeps_the_environment(self):
        out = fresh_python("""
            import json, os, sys
            before = dict(os.environ)
            import socgame
            loaded = [m for m in sys.modules
                      if m.split(".")[0] == "numpy" or m.startswith("socgame.")]
            print(json.dumps({"loaded": loaded, "environ_kept": dict(os.environ) == before}))
            """)
        assert out == {"loaded": [], "environ_kept": True}

    def test_every_public_name_resolves_on_first_use(self):
        out = fresh_python("""
            import json, socgame
            star = {}
            exec("from socgame import *", star)
            try:
                socgame.no_such_name
                error = None
            except AttributeError as e:
                error = str(e)
            print(json.dumps({
                "unbound": [n for n in socgame.__all__ if n not in star],
                "same": all(star[n] is getattr(socgame, n) for n in socgame.__all__),
                "in_dir": set(socgame.__all__) <= set(dir(socgame)),
                "error": error}))
            """)
        assert out == {"unbound": [], "same": True, "in_dir": True,
                       "error": "module 'socgame' has no attribute 'no_such_name'"}

    # each command loads the socgame submodules it runs, and no others;
    # check and equilibria, which read one point on floats, load no numpy.
    # Every rest point is solved in ints, so no command loads fractions
    @pytest.mark.parametrize("argv, loaded, numpy", [
        (["check"], ["socgame.cli", "socgame.model"], False),
        (["equilibria"], ["socgame.classify", "socgame.cli", "socgame.model",
                          "socgame.regimes", "socgame.welfare"], False),
        (["sweep", "--sweep", "beta:-3:2:11"],
         ["socgame.cli", "socgame.model", "socgame.regimes", "socgame.welfare"], True),
        (["basins", "--samples", "20", "--seed", "5"],
         ["socgame.basins", "socgame.classify", "socgame.cli", "socgame.dynamics",
          "socgame.model", "socgame.regimes", "socgame.welfare"], True),
        (["portrait", "--out", "{out}"],
         ["socgame.classify", "socgame.cli", "socgame.dynamics", "socgame.model",
          "socgame.portrait", "socgame.regimes", "socgame.welfare"], True),
        (["simulate", "--x0", "0,0,0.26,0.74", "--out", "{out}"],
         ["socgame.basins", "socgame.classify", "socgame.cli", "socgame.dynamics",
          "socgame.model", "socgame.regimes", "socgame.welfare"], True),
    ], ids=["check", "equilibria", "sweep", "basins", "portrait", "simulate"])
    def test_command_loads_only_the_modules_it_runs(self, params_a, tmp_path, argv, loaded,
                                                     numpy):
        argv = [a.format(out=tmp_path / "out") for a in argv] + ["--params", params_a]
        out = fresh_python(f"""
            import contextlib, io, json, sys
            from socgame.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
            print(json.dumps({{"code": code, "loaded": sorted(
                m for m in sys.modules if m.startswith("socgame.")),
                "numpy": any(m.split(".")[0] == "numpy" for m in sys.modules),
                "fractions": "fractions" in sys.modules}}))
            """)
        assert out == {"code": 0, "loaded": loaded, "numpy": numpy, "fractions": False}

    # equilibria loads no numpy at any point it reports on, degenerate or
    # not: every equilibria golden, run in one process
    def test_equilibria_loads_no_numpy_at_any_golden_point(self, tmp_path):
        names = sorted(n for n in CASES if n.startswith("equilibria_"))
        runs = []
        for n in names:
            (tmp_path / n).mkdir()
            runs.append((["equilibria", "--params", _params_file(tmp_path / n, CASES[n][0])], n))
        out = fresh_python(f"""
            import contextlib, io, json, sys
            from socgame.cli import main
            got = {{}}
            for argv, name in {runs!r}:
                with contextlib.redirect_stdout(io.StringIO()) as text:
                    code = main(argv)
                got[name] = [code, text.getvalue()]
            print(json.dumps({{"got": got, "numpy": sorted(
                m for m in sys.modules if m.split(".")[0] == "numpy")}}))
            """)
        assert out == {"got": {n: [CASES[n][2], (GOLDEN_DIR / n).read_text()] for n in names},
                       "numpy": []}

    # a face's interior state is solved and typed exactly, on builtins
    def test_face_states_loads_no_numpy_nor_dynamics(self):
        points = [p.as_dict() for p in (SET_A, SET_B, SET_C)]
        out = fresh_python(f"""
            import json, sys
            from socgame import Params, face_states
            from socgame.model import FACES
            found = sum(len(face_states(Params(**p), face)) for p in {points!r} for face in FACES)
            print(json.dumps({{"found": found > 0, "loaded": sorted(
                m for m in sys.modules
                if m.split(".")[0] == "numpy" or m == "socgame.dynamics")}}))
            """)
        assert out == {"found": True, "loaded": []}

    # sweep writes CSV, so it never loads json; the script prints its JSON
    # by hand so as not to load it either
    def test_sweep_run_loads_no_json(self, params_a):
        out = fresh_python(f"""
            import contextlib, io, sys
            from socgame.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["sweep", "--sweep", "beta:-3:2:11", "--params", {params_a!r}])
            print('{{"code": %d, "json": %s}}' % (code, str("json" in sys.modules).lower()))
            """)
        assert out == {"code": 0, "json": False}

    @pytest.mark.parametrize("threads, seen", [(None, "1"), ("3", "3")], ids=["unset", "set-3"])
    def test_cli_runs_blas_single_threaded_unless_told(self, threads, seen):
        code = "import json, os, socgame.cli; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))"
        assert fresh_python(code, threads) == seen

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "set-2"])
    # the program run ends the process itself, skipping the interpreter's
    # teardown: these pin its output, the files it writes under --out and
    # its non-zero exit codes
    @pytest.mark.parametrize("name", ["check_A.json", "check_A_dominated.json",
                                      "check_A_degenerate.json", "equilibria_A.json",
                                      "equilibria_D.json", "sweep_A_beta_gamma.csv",
                                      "basins_B.json", "simulate_A.csv", "portrait_A.svg",
                                      "portrait_A_trajectories.csv"])
    def test_module_run_reproduces_golden(self, tmp_path, name, threads):
        p, argv, code, written = CASES[name]
        if written is not None:
            argv = argv + ["--out", str(tmp_path / "out")]
        res = subprocess.run([sys.executable, "-m", "socgame.cli", *argv,
                              "--params", _params_file(tmp_path, p)],
                             env=fresh_env(threads), capture_output=True, cwd=tmp_path)
        assert (res.returncode, res.stderr) == (code, b"")
        got = res.stdout if written is None else (tmp_path / "out" / written).read_bytes()
        assert got == (GOLDEN_DIR / name).read_bytes()

    # the program run ends the process with its code once main has run the
    # atexit handlers and flushed: the handler's line, left in a buffered
    # stdout, follows the command's output, and no line after main() runs
    @pytest.mark.parametrize("argv, code", [(["check"], 0), (["check", "--set", "gamma=2"], 3),
                                            (["check", "--tol", "x"], 1)],
                             ids=["success", "degenerate", "usage"])
    def test_program_run_ends_the_process_with_its_code(self, capsys, params_a, argv, code):
        argv = argv + ["--params", params_a]
        assert main(argv) == code
        want = capsys.readouterr()
        res = subprocess.run([sys.executable, "-c", textwrap.dedent(f"""
            import atexit, gc, json, sys
            from socgame.cli import main
            atexit.register(lambda: print(json.dumps(
                {{"collector": gc.isenabled(), "threshold": gc.get_threshold()[0],
                  "frozen": gc.get_freeze_count()}})))
            sys.argv = ["socgame", *{argv!r}]
            main()
            print("after main")
            """)], env={k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"},
            capture_output=True, text=True)
        assert res.returncode == code
        assert res.stdout == want.out + (
            f'{{"collector": true, "threshold": {_YOUNG_OBJECTS}, "frozen": 0}}\n')
        assert res.stderr == want.err

    # a profiler or tracer reports after main returns, so under one the
    # program run returns its code and the script goes on
    @pytest.mark.parametrize("hook", ["setprofile", "settrace"])
    def test_observed_program_run_returns_its_code(self, params_a, hook):
        out = fresh_python(f"""
            import contextlib, io, json, sys
            from socgame.cli import main
            sys.argv = ["socgame", "check", "--set", "gamma=2", "--params", {params_a!r}]
            sys.{hook}(lambda *args: None)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main()
            sys.{hook}(None)
            print(json.dumps({{"code": code}}))
            """)
        assert out == {"code": 3}

    def test_escaping_exception_prints_its_traceback(self, params_a):
        res = subprocess.run([sys.executable, "-c", textwrap.dedent(f"""
            import sys
            from socgame import cli

            def fail(args, p):
                raise RuntimeError("handler failed")

            cli._HANDLERS["check"] = fail
            sys.argv = ["socgame", "check", "--params", {params_a!r}]
            cli.main()
            print("after main")
            """)], env=fresh_env(), capture_output=True, text=True)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith("Traceback (most recent call last):\n")
        assert res.stderr.endswith("RuntimeError: handler failed\n")

    # a failed write to stdout is an output error, whether it fails at the
    # write (unbuffered) or at the flush of a buffered stream; the program's
    # own flush on exit then has nothing left to fail on
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["check"], ["sweep", "--sweep", "beta:-3:2:1000"]],
                             ids=["check", "sweep"])
    def test_unwritable_stdout_is_an_output_error(self, params_a, argv, unbuffered):
        res = run_to_full_stdout(argv + ["--params", params_a], unbuffered)
        assert (res.returncode, res.stderr.splitlines()) == (1, ENOSPC_ERROR)

    def test_closed_stdout_exits_1_without_traceback(self, params_a):
        res = run_with_closed_stdout(["check", "--params", params_a])
        assert (res.returncode, res.stderr) == (1, CLOSED_ERROR)

    # where main returns, the interpreter's exit flushes stdout: the same
    # output errors read the same
    @pytest.mark.parametrize("stdout", ["full-buffered", "full-unbuffered", "closed"])
    def test_output_errors_read_the_same_when_main_returns(self, params_a, stdout):
        if stdout != "closed" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        argv = ["sweep", "--sweep", "beta:-3:2:1000", "--params", params_a]
        if stdout == "closed":
            res = run_with_closed_stdout(argv, MAIN_RETURNS)
            assert (res.returncode, res.stderr) == (1, CLOSED_ERROR)
        else:
            res = run_to_full_stdout(argv, "1" if stdout == "full-unbuffered" else None,
                                     MAIN_RETURNS)
            assert (res.returncode, res.stderr.splitlines()) == (1, ENOSPC_ERROR)
