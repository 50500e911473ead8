"""What the benchmark (perfbench/) needs from socgame.

It runs the CLI with the argument lists ``perfbench/common.py`` builds.
Its traced run patches ``basins.find_attractor``, ``portrait.states_at``
and ``portrait.face_states`` by name, imports ``match_attractor``, passes
``jobs=`` to ``estimate_basins``, and reports a portrait incorrect unless
``portrait.states_at`` ran once per trajectory of the CSV.  A change to
``src/`` that breaks one of these breaks the benchmark, so each is checked
here, without running the benchmark.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import SET_A, SET_B
from socgame import basins, estimate_basins, portrait
from socgame.cli import _build_parser

COMMON = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"


def test_parser_accepts_the_benchmark_command_lines(monkeypatch, tmp_path):
    # perfbench is no package: import common.py from its path, registered
    # while it runs, as its dataclasses need
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    common = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, common)
    spec.loader.exec_module(common)
    for argv in (common.basins_args(1), common.sweep_args(), common.portrait_args(tmp_path)):
        args = _build_parser().parse_args(argv)
        assert args.command == argv[0]


@pytest.mark.parametrize("module, name", [(basins, "find_attractor"),
                                          (portrait, "states_at"),
                                          (portrait, "face_states")],
                         ids=["find_attractor", "states_at", "face_states"])
def test_patched_names_are_module_attributes(module, name):
    assert callable(getattr(module, name))


def test_match_attractor_imports():
    from socgame import match_attractor

    assert callable(match_attractor)


def test_estimate_basins_accepts_jobs():
    assert estimate_basins(SET_B, 40, seed=1, jobs=2) == estimate_basins(SET_B, 40, seed=1)


def test_render_portrait_runs_states_at_once_per_trajectory(monkeypatch, tmp_path):
    calls = []
    states_at = portrait.states_at

    def counting(*args, **kwargs):
        calls.append(args)
        return states_at(*args, **kwargs)

    monkeypatch.setattr(portrait, "states_at", counting)
    _, csv_path = portrait.render_portrait(SET_A, tmp_path)
    with open(csv_path) as fh:
        trajectories = {(row["face"], row["traj"]) for row in csv.DictReader(fh)}
    assert len(calls) == len(trajectories) > 0
