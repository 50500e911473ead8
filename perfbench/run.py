"""socgame benchmark: the basins, sweep and portrait CLI commands end to end.

    python3 perfbench/run.py --workload basins --seed 1 --seconds 52 --trace 0

Run from the root of a checkout that holds ``src/socgame``; the CLI runs from
that source tree. One driver process runs the workload's CLI invocation again
and again, each after the previous one has ended (a closed loop with one
client), until ``--seconds`` have passed, and checks every output. It prints
each end-to-end metric with its unit and sample count, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Timings are reported in reference seconds (calibrate.py), so that the host's
drift in speed does not read as a change to the program.

``--trace 1`` instead runs traced.py: every layer's public functions
in-process on the same inputs, with spans, giving the per-layer metrics. It
is one pass of fixed size, so ``--seconds`` does not apply to it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import common  # noqa: E402
from common import Checked, Invocation  # noqa: E402

MIN_INVOCATIONS = 3


@dataclass(frozen=True)
class Workload:
    params: Path
    expected_items: int  # items charged as failed when an invocation exits non-zero
    args: Callable[[int, Path], list[str]]  # (seed, fresh output dir) -> CLI arguments
    check: Callable[[Invocation, int, Path, list[str]], Checked]


# Why each workload, and what the open ROADMAP items should do to it:
#   item 3 = batched Dormand-Prince driver, item 4 = certified capture
#   regions, item 5 = vectorised sweep classification.
WORKLOADS = {
    # Set B, --seed from the benchmark, no --jobs: the CLI default of
    # os.cpu_count() pool workers. About 99 % of the time is `dynamics`
    # (integrating each sample to rest, 2-10 ms) and one `classify_global`
    # (~0.5 ms) runs. Set B mixes vertex attractors (O 75 %, N 10 %) with
    # the edge-interior H+P attractor (15 %), whose runs are the longest
    # (median ~280 accepted steps against ~90 for O), so a change that
    # speeds vertex capture but slows the edge path shows here. Process-pool
    # parallelism competes with batching here.
    # Movers: item 3 and item 4 raise items_per_s; item 3 must not raise
    # peak_rss_mb. Non-mover: item 5.
    "basins": Workload(
        params=common.PARAMS_B,
        expected_items=common.BASIN_SAMPLES,
        args=lambda seed, out: common.basins_args(seed),
        check=lambda inv, seed, out, labels: common.check_basins(inv.stdout, seed, labels),
    ),
    # Set A on a 100 x 100 beta-gamma grid; deterministic, the seed is
    # unused. No integration runs. The grid crosses both sign branches, the
    # dominated region and exact degenerate rows: 44 % of points reach
    # `classify_global`, 56 % stop at `validate`, so `model` and `classify`
    # each carry a distinct share.
    # Mover: item 5 raises items_per_s. Non-movers: items 3 and 4.
    "sweep": Workload(
        params=common.PARAMS_A,
        expected_items=common.sweep_points(),
        args=lambda seed, out: common.sweep_args(),
        check=lambda inv, seed, out, labels: common.check_sweep(inv.stdout),
    ),
    # Set A into a fresh directory; deterministic, the seed is unused.
    # `dynamics` is used differently from basins: `states_at` with 241 fixed
    # checkpoints up to t=60, no convergence stop, starts on faces where one
    # share is exactly zero. It also writes ~0.7 MB of SVG and CSV, so output
    # cost in `cli`/`portrait` has its largest share here.
    # Mover: item 3 (batched trajectories) raises items_per_s. Non-movers:
    # item 4 (no convergence stop to cut short) and item 5.
    # Known defect, left for a follow-up: `_saddle_outsets`
    # (src/socgame/portrait.py) tests min(cand) <= 0.0 over all four shares,
    # including the absent one, which is always 0, so it rejects every
    # candidate and no separatrix is drawn. The check therefore does not
    # assert the trajectory count; traced.py reports it as
    # portrait.trajectories.
    "portrait": Workload(
        params=common.PARAMS_A,
        expected_items=1,
        args=lambda seed, out: common.portrait_args(out),
        check=lambda inv, seed, out, labels: common.check_portrait(out),
    ),
}


def _attractor_labels() -> list[str]:
    from socgame import classify_global

    return [a.label for a in
            classify_global(common.load_params(common.PARAMS_B)).global_attractors]


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """Closed loop of CLI invocations for ``seconds``; returns the result."""
    wl = WORKLOADS[name]
    labels = _attractor_labels() if name == "basins" else []
    common.OUT.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=common.OUT) as tmp:
        tmp = Path(tmp)
        check_args = ["check", "--params", str(wl.params)]
        common.run_cli(check_args, tmp)  # warm-up: bytecode and page cache
        calibrate.sample()  # warm-up
        setups, rss, walls, cals = [], [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_INVOCATIONS or time.perf_counter() < deadline:
            # one set-up sample before each invocation, so that set-up and
            # throughput see the same stretch of machine load, and a
            # reference-speed sample before each of them
            cals.append(calibrate.sample())
            inv = common.run_cli(check_args, tmp)
            if inv.code != 0:
                problems.append(f"check exited {inv.code}: {inv.stderr.strip()[-300:]}")
            setups.append(inv.wall_s)

            cals.append(calibrate.sample())
            out = tmp / f"out{len(walls)}"
            inv = common.run_cli(wl.args(seed, out), tmp)
            if inv.code != 0:
                checked = Checked(wl.expected_items, wl.expected_items,
                                  [f"{name} exited {inv.code}: {inv.stderr.strip()[-300:]}"])
            else:
                checked = wl.check(inv, seed, out, labels)
            shutil.rmtree(out, ignore_errors=True)
            problems.extend(checked.problems)
            attempted += checked.items
            failed += checked.failed
            rss.append(inv.maxrss_mb)
            walls.append(inv.wall_s)

        cals.append(calibrate.sample())

    # Throughput over the whole run, not the median of per-invocation rates:
    # the host's speed changes in bursts of seconds, so per-invocation rates
    # scatter, while the run's total moves smoothly with the mean speed.
    # Both timings are then given in reference seconds (calibrate.py), which
    # takes out the host's drift over minutes but no change to the program.
    ref = calibrate.to_reference(cals)
    raw_rate = (attempted - failed) / sum(walls)
    raw_setup = statistics.median(setups)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": raw_rate / ref, "unit": "1/s"},
            "setup_s": {"value": raw_setup * ref, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
        "detail": {
            "invocations": len(walls),
            "items_per_invocation": attempted // len(walls),
            "setup_runs": len(setups),
            "error_rate": failed / attempted,
            "reference_factor": ref,
            "calibration_samples": len(cals),
            "wall_items_per_s": raw_rate,
            "wall_setup_s": raw_setup,
            "wall_s": walls,
            "calibration_s": cals,
            "problems": problems[:20],
        },
    }


def _print_summary(name: str, seed: int, res: dict) -> None:
    d = res["detail"]
    m = res["metrics"]
    n = d["invocations"]
    print(f"workload {name} (seed {seed}): {n} invocations x "
          f"{d['items_per_invocation']} items, closed loop, 1 client")
    print(f"  items_per_s  {m['items_per_s']['value']:.4f} 1/s  "
          f"(completed items / summed reference-second wall of {n} invocations; "
          f"{d['wall_items_per_s']:.4f} per wall second)")
    print(f"  setup_s      {m['setup_s']['value']:.4f} s    "
          f"(reference seconds, median of {d['setup_runs']} `socgame check` runs; "
          f"{d['wall_setup_s']:.4f} wall seconds)")
    print(f"  reference    {d['reference_factor']:.4f} reference s per wall s "
          f"(mean of {d['calibration_samples']} calibration samples)")
    print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.2f} MB   (median of {n} invocations)")
    print(f"  error_rate   {d['error_rate']:.6f}      "
          f"({res['failed']} failed of {res['attempted']} items)")
    for p in d["problems"]:
        print(f"  problem: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common.require_source()

    env = common.environment()
    env["loadavg_start"] = common.loadavg()
    if args.trace:
        import traced

        res = traced.run(args.seed)
        traced.print_summary(res)
    else:
        res = run_workload(args.workload, args.seed, args.seconds)
        _print_summary(args.workload, args.seed, res)
    env["loadavg_end"] = common.loadavg()
    print("env: " + json.dumps(env, sort_keys=True))

    common.OUT.mkdir(parents=True, exist_ok=True)
    record = dict(res, workload=args.workload, seed=args.seed, trace=args.trace, env=env)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (common.OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
