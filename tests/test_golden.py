"""Whole-output goldens: CLI stdout compared byte for byte.

Each file under ``tests/golden/`` is the stdout of one CLI invocation on a
canonical parameter set, together with the exit code it must end with.
Re-record them (only on purpose, when an output format is meant to change)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from conftest import SET_A, SET_B, SET_C, SET_D
from socgame import Params
from socgame.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# passes validate, but the S_N face table splits at beta = 0
FACE_BOUNDARY = Params(2, 0, 1, 1, 2, 0.4)

# name -> (params, extra argv, expected exit code)
CASES = {
    "equilibria_A.json": (SET_A, ["equilibria"], 0),
    "equilibria_B.json": (SET_B, ["equilibria"], 0),
    "equilibria_C.json": (SET_C, ["equilibria"], 0),
    "equilibria_D.json": (SET_D, ["equilibria"], 3),
    "equilibria_face_boundary.json": (FACE_BOUNDARY, ["equilibria"], 3),
    "sweep_A_beta.csv": (SET_A, ["sweep", "--sweep", "beta:-3:2:11"], 0),
    "sweep_A_eta.csv": (SET_A, ["sweep", "--sweep", "eta:0.1:1.4:14"], 0),
}


def _params_file(directory: Path, p: Params) -> str:
    f = directory / "golden.params"
    f.write_text("".join(f"{k} = {v!r}\n" for k, v in p.as_dict().items()))
    return str(f)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path, capsys):
    p, argv, want_code = CASES[name]
    code = main(argv + ["--params", _params_file(tmp_path, p)])
    out = capsys.readouterr().out
    assert code == want_code
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (p, argv, want_code) in sorted(CASES.items()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--params", _params_file(Path(tmp), p)])
            if code != want_code:
                raise SystemExit(f"{name}: exit {code}, expected {want_code}")
            (GOLDEN_DIR / name).write_bytes(buf.getvalue().encode())
            print(f"recorded {name}")
