"""Inputs, CLI invocation and output checks shared by the untraced and traced runs.

Every path is resolved from this file, so the benchmark runs from the root of
any checkout that holds ``src/socgame`` next to this directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PARAMS_A = BENCH / "params" / "set_a.params"
PARAMS_B = BENCH / "params" / "set_b.params"
REFERENCE = BENCH / "reference.json"  # outputs recorded by record_reference.py

# Sizes. basins: 1000 samples keep one invocation near 3 s on 2 cores and
# leave ten samples beyond the p99 of the per-start integration time.
# sweep: a 100 x 100 grid crosses both sign branches and the dominated
# region. portrait: fixed by the program (241 checkpoints per trajectory).
BASIN_SAMPLES = 1000
SWEEP_AXES = ("beta:-3:2.5:100", "gamma:-1:3.5:100")
PORTRAIT_CHECKPOINTS = 241
BASIN_SIGMAS = 4.0


def require_source() -> None:
    """Exit with code 2 unless the program's source is next to the benchmark."""
    if not (SRC / "socgame" / "__init__.py").is_file():
        print(f"socgame source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_params(path: Path):
    from socgame import Params

    mapping = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, val = line.split("=", 1)
            mapping[key.strip()] = float(val)
    return Params.from_mapping(mapping)


def sweep_grid(params):
    """The sweep workload's grid points in CLI order, as Params."""
    import itertools
    from dataclasses import replace

    import numpy as np

    axes = [a.split(":") for a in SWEEP_AXES]
    grids = [np.linspace(float(lo), float(hi), int(n)) for _, lo, hi, n in axes]
    names = [a[0] for a in axes]
    return [replace(params, **{n: float(v) for n, v in zip(names, combo)})
            for combo in itertools.product(*grids)]


def sweep_points() -> int:
    return math.prod(int(a.split(":")[3]) for a in SWEEP_AXES)


def basins_args(seed: int) -> list[str]:
    return ["basins", "--params", str(PARAMS_B), "--samples", str(BASIN_SAMPLES),
            "--seed", str(seed)]


def sweep_args() -> list[str]:
    return ["sweep", "--params", str(PARAMS_A),
            *(a for axis in SWEEP_AXES for a in ("--sweep", axis))]


def portrait_args(out: Path) -> list[str]:
    return ["portrait", "--params", str(PARAMS_A), "--out", str(out)]


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    """Machine and program identity, recorded with every result.

    The git commit is null in a checkout that is not a repository; the
    source digest identifies the program there."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "socgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


# ---------------------------------------------------------------------------
# one CLI invocation


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float  # user + system, this process and its waited-for pool workers
    maxrss_mb: float  # largest resident set among them
    stdout: str
    stderr: str


def run_cli(args: list[str], workdir: Path) -> Invocation:
    """Run ``socgame <args>`` from source and wait for it with ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "socgame.cli", *args],
                                stdout=out, stderr=err, cwd=workdir, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


# ---------------------------------------------------------------------------
# output checks: each returns items attempted, items failed and the problems


@dataclass
class Checked:
    items: int
    failed: int
    problems: list[str] = field(default_factory=list)


def check_basins(stdout: str, seed: int, labels: list[str]) -> Checked:
    """Labels match the classification, counts add up, nothing unresolved, and
    the counts match the recorded ones (recorded seed) or the reference
    fractions within BASIN_SIGMAS binomial standard errors (any other seed)."""
    n = BASIN_SAMPLES
    try:
        doc = json.loads(stdout)
        basins = {k: v["count"] for k, v in doc["basins"].items()}
        sample_count = doc["sample_count"]
    except (ValueError, KeyError, TypeError) as e:
        return Checked(n, n, [f"basins: unreadable output: {e}"])
    problems = []
    if sorted(basins) != sorted(labels + ["unresolved"]):
        problems.append(f"basins: labels {sorted(basins)} != {sorted(labels)} + unresolved")
    if sample_count != n or sum(basins.values()) != n:
        problems.append(f"basins: counts sum to {sum(basins.values())}, "
                        f"sample_count {sample_count}, expected {n}")
    ref = json.loads(REFERENCE.read_text())["basins"]
    if not problems:
        if seed == ref["recorded_seed"]:
            if basins != ref["recorded_counts"]:
                problems.append(f"basins: counts {basins} != recorded {ref['recorded_counts']}")
        else:
            for label, f_ref in ref["reference_fractions"].items():
                band = BASIN_SIGMAS * math.sqrt(f_ref * (1.0 - f_ref) / n)
                if abs(basins[label] / n - f_ref) > band:
                    problems.append(f"basins: {label} fraction {basins[label] / n} "
                                    f"outside {f_ref} +- {band:.4f}")
    if problems:
        return Checked(n, n, problems)
    unresolved = basins["unresolved"]
    if unresolved:
        return Checked(n, unresolved, [f"basins: {unresolved} unresolved samples"])
    return Checked(n, 0)


def check_sweep(stdout: str) -> Checked:
    n = sweep_points()
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != json.loads(REFERENCE.read_text())["sweep"]["stdout_sha256"]:
        return Checked(n, n, [f"sweep: stdout sha256 {digest} differs from the reference"])
    return Checked(n, 0)


def check_portrait(out_dir: Path) -> Checked:
    """SVG parses, every trajectory has all checkpoints, all shares finite.

    The trajectory count is reported, not asserted (see README.md)."""
    problems = []
    try:
        ET.parse(out_dir / "portrait.svg")
    except (OSError, ET.ParseError) as e:
        problems.append(f"portrait: svg does not parse: {e}")
    rows: dict[tuple[str, str], int] = {}
    try:
        lines = (out_dir / "portrait_trajectories.csv").read_text().splitlines()
    except OSError as e:
        return Checked(1, 1, problems + [f"portrait: csv unreadable: {e}"])
    if not lines or lines[0] != "face,traj,t,x1,x2,x3,x4":
        problems.append("portrait: csv header missing")
    for line in lines[1:]:
        face, traj, *values = line.split(",")
        key = (face, traj)
        rows[key] = rows.get(key, 0) + 1
        try:
            finite = len(values) == 5 and all(math.isfinite(float(v)) for v in values)
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"portrait: bad row {line!r}")
            break
    short = [k for k, c in rows.items() if c != PORTRAIT_CHECKPOINTS]
    if short:
        problems.append(f"portrait: {len(short)} trajectories without "
                        f"{PORTRAIT_CHECKPOINTS} rows, e.g. {short[0]}")
    items = max(1, len(rows))
    return Checked(items, items if problems else 0, problems)
