"""Whole-output goldens: CLI output and integrator samples compared byte for byte.

Each file under ``tests/golden/`` is either the stdout of one CLI invocation
on a canonical parameter set, or a file that invocation wrote under
``--out``, together with the exit code it must end with.  Two more goldens
hold integrator output as ``repr``'d floats: ``states_at_B.json`` holds
``states_at`` samples, and ``rows_B.json`` the end state, verdict and step
count of every row of one basin batch (``_integrate_rows``).
``face_states.json`` holds every stationary state ``face_states`` finds on
each face of sets A, B and C, floats ``repr``'d.  Re-record
them (only on purpose, when an output format or the integrator is meant to
change) with
``PYTHONPATH=src python tests/test_golden.py``, which prints for each
golden whether its bytes changed or stayed the same.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import SET_A, SET_B, SET_C, SET_D
from socgame import (
    Params,
    SimplexState,
    classify_global,
    face_states,
    states_at,
)
from socgame.basins import attractor_boxes, sample_simplex
from socgame.cli import main
from socgame.dynamics import _integrate_rows
from socgame.model import DEFAULT_MAX_TIME, FACES

GOLDEN_DIR = Path(__file__).parent / "golden"

# valid, but beta = 0 leaves the S_N face undecided: validate names it, and
# the lax report keeps the other three faces
FACE_BOUNDARY = Params(2, 0, 1, 1, 2, 0.4)

# name -> (params, extra argv, expected exit code, file written under --out
# that is compared, or None to compare stdout)
CASES = {
    "check_A.json": (SET_A, ["check"], 0, None),
    "check_A_dominated.json": (SET_A, ["check", "--set", "eta=3"], 2, None),
    "check_A_degenerate.json": (SET_A, ["check", "--set", "gamma=2"], 3, None),
    "equilibria_A.json": (SET_A, ["equilibria"], 0, None),
    "equilibria_B.json": (SET_B, ["equilibria"], 0, None),
    "equilibria_C.json": (SET_C, ["equilibria"], 0, None),
    "equilibria_D.json": (SET_D, ["equilibria"], 3, None),
    "equilibria_face_boundary.json": (FACE_BOUNDARY, ["equilibria"], 3, None),
    "sweep_A_beta.csv": (SET_A, ["sweep", "--sweep", "beta:-3:2:11"], 0, None),
    "sweep_A_eta.csv": (SET_A, ["sweep", "--sweep", "eta:0.1:1.4:14"], 0, None),
    "sweep_A_alpha_eta.csv": (SET_A, ["sweep", "--sweep", "alpha:0.1:3:12",
                                      "--sweep", "eta:0:2:9"], 0, None),
    "sweep_A_delta_epsilon.csv": (SET_A, ["sweep", "--sweep", "delta:-1:3:9",
                                          "--sweep", "epsilon:-1:3:9"], 0, None),
    # crosses every S_N and S_O panel, the region where H+P attracts
    # globally, invalid rows and rows exactly on a degenerate boundary
    "sweep_A_beta_gamma.csv": (SET_A, ["sweep", "--sweep", "beta:-3:2.5:23",
                                       "--sweep", "gamma:-1:3.5:19"], 0, None),
    "simulate_A.csv": (SET_A, ["simulate", "--x0", "0,0,0.26,0.74"], 0, "trajectory.csv"),
    "simulate_B.csv": (SET_B, ["simulate", "--x0", "0.05,0.35,0.55,0.05"], 0,
                       "trajectory.csv"),
    # its last step is shortened to land on max_time (uncapped it would
    # step from t=1.7037 to t=2.0578)
    "simulate_A_max_time.csv": (SET_A, ["simulate", "--x0", "0,0,0.26,0.74",
                                        "--max-time", "2.005"], 0, "trajectory.csv"),
    "basins_B.json": (SET_B, ["basins", "--samples", "200", "--seed", "5"], 0, None),
    # seed 18 has the longest batch tail of seeds 11-40: 204 iterations
    "basins_B_seed18.json": (SET_B, ["basins", "--samples", "1000", "--seed", "18"], 0, None),
    # the short horizon ends 269 of the 1000 runs at max_time, outside every box
    "basins_B_max_time.json": (SET_B, ["basins", "--samples", "1000", "--seed", "18",
                                       "--max-time", "3.3"], 0, None),
    "portrait_A.svg": (SET_A, ["portrait"], 0, "portrait.svg"),
    "portrait_A_trajectories.csv": (SET_A, ["portrait"], 0, "portrait_trajectories.csv"),
}

SAMPLE_STARTS = ((0.25, 0.25, 0.25, 0.25), (0.05, 0.35, 0.55, 0.05))
SAMPLE_TIMES = [0.0, 0.5, 1.0, 7.25, 20.0]
# the first 200 basin samples of seed 18 hold its longest row, 204 steps
ROWS_SEED, ROWS_COUNT = 18, 200


def _params_file(directory: Path, p: Params) -> str:
    f = directory / "golden.params"
    f.write_text("".join(f"{k} = {v!r}\n" for k, v in p.as_dict().items()))
    return str(f)


def _run_case(name: str, directory: Path) -> tuple[int, bytes]:
    """Run one CLI case in ``directory``; returns (exit code, compared bytes)."""
    p, argv, _, written = CASES[name]
    argv = argv + ["--params", _params_file(directory, p)]
    if written is not None:
        argv += ["--out", str(directory / "out")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if written is not None:
        return code, (directory / "out" / written).read_bytes()
    return code, buf.getvalue().encode()


def _integrator_samples() -> bytes:
    """``states_at`` on set B, every float ``repr``'d."""
    doc = []
    for x in SAMPLE_STARTS:
        x0 = SimplexState(*x)
        doc.append({
            "x0": [repr(v) for v in x],
            "states_at": [[repr(v) for v in s.as_tuple()]
                          for s in states_at(x0, SET_B, SAMPLE_TIMES)],
        })
    return (json.dumps({"times": [repr(t) for t in SAMPLE_TIMES], "runs": doc},
                       indent=1) + "\n").encode()


def _face_states() -> bytes:
    """``face_states`` on every face of sets A, B and C, every float
    ``repr``'d."""
    doc = {}
    for name, p in (("A", SET_A), ("B", SET_B), ("C", SET_C)):
        doc[name] = {face: [{**s.as_dict(),
                             "location": [repr(v) for v in s.location.as_tuple()],
                             "payoff": repr(s.payoff)}
                            for s in face_states(p, face)]
                     for face in FACES}
    return (json.dumps(doc, indent=1) + "\n").encode()


def _batch_rows() -> bytes:
    """``_integrate_rows`` on set B, with its ratio boxes, every float
    ``repr``'d."""
    boxes = [box for _, box in attractor_boxes(classify_global(SET_B).global_attractors, SET_B)]
    finals, verdicts, steps = _integrate_rows(sample_simplex(ROWS_COUNT, ROWS_SEED), SET_B,
                                              DEFAULT_MAX_TIME, boxes)
    doc = [{"final": [repr(v) for v in final], "verdict": verdict, "steps": k}
           for final, verdict, k in zip(finals.tolist(), verdicts, steps.tolist())]
    return (json.dumps({"seed": ROWS_SEED, "rows": doc}, indent=1) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path):
    code, got = _run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert got == (GOLDEN_DIR / name).read_bytes()


def test_integrator_samples_match_golden():
    assert _integrator_samples() == (GOLDEN_DIR / "states_at_B.json").read_bytes()


def test_face_states_match_golden():
    assert _face_states() == (GOLDEN_DIR / "face_states.json").read_bytes()


def test_batch_rows_match_golden():
    assert _batch_rows() == (GOLDEN_DIR / "rows_B.json").read_bytes()


def _record(name: str, got: bytes) -> None:
    """Write one golden, and say whether its bytes changed."""
    path = GOLDEN_DIR / name
    changed = not path.exists() or path.read_bytes() != got
    path.write_bytes(got)
    print(f"{'changed' if changed else 'same   '} {name}")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, got = _run_case(name, Path(tmp))
        if code != CASES[name][2]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][2]}")
        _record(name, got)
    _record("states_at_B.json", _integrator_samples())
    _record("face_states.json", _face_states())
    _record("rows_B.json", _batch_rows())
