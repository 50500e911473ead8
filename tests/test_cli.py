"""Command line interface, exercised in process through main(argv), and in
new processes where what a process imports at start-up matters."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import BOX_ONLY_P, BOX_ONLY_X0
from socgame import Params, estimate_basins
from socgame.cli import _json, _read_params_file, main
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

    def test_fixed_step_method(self, capsys, params_a, tmp_path):
        code, out, _ = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.26,0.74", "--method", "rk4",
                           "--out", str(tmp_path / "s5"))
        assert code == 0
        assert out.strip().splitlines()[-1] == "P"

    def test_bad_x0(self, capsys, params_a, tmp_path):
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--x0", "0,0,0.24", "--out", str(tmp_path / "s6"))
        assert code == 1
        code, _, err = run(capsys, "simulate", "--params", params_a,
                           "--x0", "-0.1,0.2,0.3,0.6", "--out", str(tmp_path / "s6"))
        assert code == 1
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
                           "--samples", "120", "--seed", "3",
                           "--jobs", "1", "--out", str(out_dir))
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
        # jobs=2 / --jobs 2 is accepted and changes nothing
        code1, out1, _ = run(capsys, "basins", "--params", params_b,
                             "--samples", "60", "--seed", "5")
        code2, out2, _ = run(capsys, "basins", "--params", params_b,
                             "--samples", "60", "--seed", "5", "--jobs", "2")
        in_process = estimate_basins(Params.from_mapping(_read_params_file(params_b)), 60,
                                     seed=5, jobs=2).as_dict()
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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_params_flag(self, capsys):
        assert main(["check"]) == 1
        capsys.readouterr()


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

    # each command loads the socgame submodules it runs, and no others
    @pytest.mark.parametrize("argv, loaded", [
        (["check"], ["socgame.cli", "socgame.model"]),
        (["sweep", "--sweep", "beta:-3:2:11"],
         ["socgame.classify", "socgame.cli", "socgame.model", "socgame.welfare"]),
        (["basins", "--samples", "20", "--seed", "5"],
         ["socgame.basins", "socgame.classify", "socgame.cli", "socgame.dynamics",
          "socgame.model", "socgame.welfare"]),
    ], ids=["check", "sweep", "basins"])
    def test_command_loads_only_the_modules_it_runs(self, params_a, argv, loaded):
        out = fresh_python(f"""
            import contextlib, io, json, sys
            from socgame.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv + ["--params", params_a]!r})
            print(json.dumps({{"code": code, "loaded": sorted(
                m for m in sys.modules if m.startswith("socgame."))}}))
            """)
        assert out == {"code": 0, "loaded": loaded}

    @pytest.mark.parametrize("threads, seen", [(None, "1"), ("3", "3")], ids=["unset", "set-3"])
    def test_cli_runs_blas_single_threaded_unless_told(self, threads, seen):
        code = "import json, os, socgame.cli; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))"
        assert fresh_python(code, threads) == seen

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "set-2"])
    @pytest.mark.parametrize("name", ["check_A.json", "equilibria_A.json", "sweep_A_beta_gamma.csv",
                                      "basins_B.json"])
    def test_module_run_reproduces_golden(self, tmp_path, name, threads):
        p, argv, code, written = CASES[name]
        assert written is None  # these goldens are stdout
        res = subprocess.run([sys.executable, "-m", "socgame.cli", *argv,
                              "--params", _params_file(tmp_path, p)],
                             env=fresh_env(threads), capture_output=True, cwd=tmp_path)
        assert (res.returncode, res.stderr) == (code, b"")
        assert res.stdout == (GOLDEN_DIR / name).read_bytes()
