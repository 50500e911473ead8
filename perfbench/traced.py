"""Traced run: each layer's public functions in-process, wrapped in spans.

Spans are recorded here, around the calls into each layer, never inside
``src/``. Where one layer calls another, the public name is replaced in the
calling module's namespace for the duration of the run
(``socgame.basins.find_attractor``, ``socgame.portrait.states_at``,
``socgame.portrait.face_states``), so a span's self time is its duration
minus its children's. Spans stay in memory and are written to
``perfbench/out/spans-seed<n>.json`` at the end.

One traced run covers all three workloads' inputs, because every per-layer
metric is reported on every traced run: `dynamics` and `basins` metrics on
the basins starts (set B, the run's seed), `model`, `classify` and `welfare`
on the sweep grid (set A), `portrait` on the portrait (set A). Traced basins
runs with jobs=1, because spans in pool workers do not return here. Each
workload also gets one untraced CLI invocation and one untraced in-process
run on the same inputs, for ``cli.*`` and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import common

TAIL_RADIUS = 1e-2  # max-norm distance to the final attractor that starts the "tail"
POOL_JOBS = 2

# Counts that must repeat exactly for a fixed seed; selfcheck.py compares them.
EXACT_COUNTS = (
    "dynamics.accepted_steps",
    "basins.steps_p50.O",
    "basins.steps_p50.N",
    "basins.steps_p50.H_P",
    "classify.calls",
    "portrait.trajectories",
    "portrait.bytes_written",
    "dynamics.unresolved.step-failure",
    "dynamics.unresolved.max-time",
    "dynamics.unresolved.unmatched",
)


class Tracer:
    """In-memory spans: (name, parent index, start, end), times in seconds."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, self._open[-1] if self._open else None, time.perf_counter(), None]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield idx
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def patch(self, module, attr: str, name: str):
        """Trace ``module.attr`` under span ``name`` while the block runs."""
        original = getattr(module, attr)
        setattr(module, attr, lambda *args, **kwargs: self.call(name, original, *args, **kwargs))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations(self, name: str, parent: int | None = None) -> list[float]:
        return [end - start for n, par, start, end in self.spans
                if n == name and (parent is None or par == parent)]

    def duration(self, idx: int) -> float:
        return self.spans[idx][3] - self.spans[idx][2]

    def self_time(self, idx: int) -> float:
        """Span duration minus its direct children (which never overlap)."""
        child = sum(end - start for _, par, start, end in self.spans if par == idx)
        return self.duration(idx) - child

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        path.write_text(json.dumps([
            {"id": i, "name": n, "parent": par, "start": s - t0, "end": e - t0}
            for i, (n, par, s, e) in enumerate(self.spans)]) + "\n")


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _label_key(label: str) -> str:
    return label.replace("+", "_")


class _Run:
    """Accumulates metrics, item counts and problems across the three parts."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.tracer = Tracer()
        self.metrics: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def tally(self, checked: common.Checked) -> None:
        self.attempted += checked.items
        self.failed += checked.failed
        self.problems.extend(checked.problems)

    def cli(self, workload: str, args: list[str], items: int, library_s: float):
        inv = common.run_cli(args, self.work)
        if inv.code != 0:
            self.problems.append(f"{workload} exited {inv.code}: {inv.stderr.strip()[-300:]}")
        self.put(f"cli.overhead_s.{workload}", inv.wall_s - library_s, "s")
        self.put(f"cli.cpu_s_per_item.{workload}", inv.cpu_s / items, "s")
        return inv


def _basins(run: _Run) -> None:
    import socgame.basins
    from socgame import (SimplexState, classify_global, estimate_basins, integrate,
                         match_attractor, sample_simplex)

    tr = run.tracer
    p = common.load_params(common.PARAMS_B)
    n = common.BASIN_SAMPLES
    attractors = tr.call("classify.classify_global", classify_global, p).global_attractors
    labels = [a.label for a in attractors]

    # dynamics: integrate every start, one span each
    steps, tails, ms = [], [], []
    by_label: dict[str, list[int]] = {lab: [] for lab in labels}
    unresolved = {"step-failure": 0, "max-time": 0, "unmatched": 0}
    for row in sample_simplex(n, run.seed).tolist():
        with tr.span("dynamics.integrate") as idx:
            traj = integrate(SimplexState(*row), p)
        ms.append(tr.duration(idx) * 1e3)
        k = len(traj.times) - 1
        steps.append(k)
        hit = None if traj.verdict == "step-failure" else match_attractor(traj.final_state, attractors)
        if hit is None:
            reason = {"step-failure": "step-failure",
                      "max-time-reached": "max-time"}.get(traj.verdict, "unmatched")
            unresolved[reason] += 1
            continue
        by_label[hit.label].append(k)
        dist = np.abs(np.array([s.as_tuple() for s in traj.states])
                      - np.array(hit.location.as_tuple())).max(axis=1)
        inside = np.flatnonzero(dist <= TAIL_RADIUS)
        tails.append(k - int(inside[0]) if inside.size else 0)
    total_steps = sum(steps)
    run.put("dynamics.integrate_ms_p50", _pct(ms, 50), "ms")
    run.put("dynamics.integrate_ms_p99", _pct(ms, 99), "ms")
    run.put("dynamics.accepted_steps", total_steps, "count")
    run.put("dynamics.steps_p50", _pct(steps, 50), "count")
    run.put("dynamics.steps_p99", _pct(steps, 99), "count")
    run.put("dynamics.us_per_step", sum(ms) * 1e3 / total_steps, "us")
    run.put("dynamics.tail_step_frac", sum(tails) / total_steps, "ratio")
    for reason, count in unresolved.items():
        run.put(f"dynamics.unresolved.{reason}", count, "count")
    for lab in labels:
        run.put(f"basins.steps_p50.{_label_key(lab)}",
                _pct(by_label[lab], 50) if by_label[lab] else 0.0, "count")
    run.notes.append(f"dynamics: {n} integrate calls on set B, seed {run.seed}")

    # basins: serial untraced, serial traced, pool
    t0 = time.perf_counter()
    serial = estimate_basins(p, n, seed=run.seed, jobs=1)
    serial_s = time.perf_counter() - t0
    with tr.patch(socgame.basins, "find_attractor", "dynamics.find_attractor"):
        with tr.span("basins.estimate_basins") as idx:
            with_spans = estimate_basins(p, n, seed=run.seed, jobs=1)
    t0 = time.perf_counter()
    pooled = estimate_basins(p, n, seed=run.seed, jobs=POOL_JOBS)
    pool_s = time.perf_counter() - t0
    run.put("basins.serial_s", serial_s, "s")
    run.put("basins.pool_s", pool_s, "s")
    run.put("basins.pool_speedup", serial_s / pool_s, "ratio")
    run.put("basins.self_s", tr.self_time(idx), "s")
    run.put("trace.overhead_frac.basins", tr.duration(idx) / serial_s - 1.0, "ratio")

    counts = dict(serial.counts)
    expected = {lab: len(by_label[lab]) for lab in labels}
    expected["unresolved"] = sum(unresolved.values())
    if counts != expected or with_spans.counts != serial.counts or pooled.counts != serial.counts:
        run.problems.append(f"basins: in-process counts disagree: integrate {expected}, "
                            f"serial {serial.counts}, traced {with_spans.counts}, "
                            f"pool {pooled.counts}")

    cli_jobs = os.cpu_count() or 1
    if cli_jobs == POOL_JOBS:
        library_s = pool_s
    else:
        t0 = time.perf_counter()
        estimate_basins(p, n, seed=run.seed, jobs=cli_jobs)
        library_s = time.perf_counter() - t0
    inv = run.cli("basins", common.basins_args(run.seed), n, library_s)
    checked = common.check_basins(inv.stdout, run.seed, labels)
    if inv.code == 0 and checked.failed == 0:
        cli_counts = {k: v["count"] for k, v in json.loads(inv.stdout)["basins"].items()}
        if cli_counts != counts:
            checked.problems.append(f"basins: CLI counts {cli_counts} != in-process {counts}")
    run.tally(checked)


def _sweep_pass(points, tr: Tracer | None) -> list:
    """The CLI's sweep loop over the library calls; returns the reports."""
    from socgame import classify_global, validate

    reports = []
    for p in points:
        vrep = tr.call("model.validate", validate, p) if tr else validate(p)
        if vrep.positivity_ok and vrep.nondominance_ok and not vrep.degenerate_quantities:
            rep = (tr.call("classify.classify_global", classify_global, p, strict=False)
                   if tr else classify_global(p, strict=False))
            reports.append((p, rep))
    return reports


def _sweep(run: _Run) -> None:
    from socgame import welfare_report

    tr = run.tracer
    points = common.sweep_grid(common.load_params(common.PARAMS_A))
    t0 = time.perf_counter()
    _sweep_pass(points, None)
    library_s = time.perf_counter() - t0
    with tr.span("sweep") as idx:
        reports = _sweep_pass(points, tr)
    run.put("trace.overhead_frac.sweep", tr.duration(idx) / library_s - 1.0, "ratio")

    validate_us = [d * 1e6 for d in tr.durations("model.validate", idx)]
    classify_us = [d * 1e6 for d in tr.durations("classify.classify_global", idx)]
    run.put("model.validate_us_p50", _pct(validate_us, 50), "us")
    run.put("model.admissible_frac", len(reports) / len(points), "ratio")
    run.put("classify.classify_global_us_p50", _pct(classify_us, 50), "us")
    run.put("classify.classify_global_us_p99", _pct(classify_us, 99), "us")
    run.put("classify.calls", len(classify_us), "count")

    # welfare is not on the CLI's sweep path; timed apart so that it does
    # not distort the overhead comparison above
    with tr.span("welfare") as widx:
        for p, rep in reports:
            if not rep.degenerate:
                tr.call("welfare.welfare_report", welfare_report, rep.global_attractors, p)
    run.put("welfare.report_us_p50",
            _pct([d * 1e6 for d in tr.durations("welfare.welfare_report", widx)], 50), "us")
    run.notes.append(f"sweep: {len(points)} points, {len(classify_us)} classified")

    inv = run.cli("sweep", common.sweep_args(), len(points), library_s)
    run.tally(common.check_sweep(inv.stdout) if inv.code == 0
              else common.Checked(len(points), len(points)))


def _portrait(run: _Run) -> None:
    import socgame.portrait
    from socgame.portrait import render_portrait

    tr = run.tracer
    p = common.load_params(common.PARAMS_A)
    plain, traced, cli_out = (run.work / d
                              for d in ("portrait-plain", "portrait-traced", "portrait-cli"))
    t0 = time.perf_counter()
    render_portrait(p, plain)
    library_s = time.perf_counter() - t0
    with tr.patch(socgame.portrait, "states_at", "dynamics.states_at"), \
            tr.patch(socgame.portrait, "face_states", "classify.face_states"):
        with tr.span("portrait.render_portrait") as idx:
            render_portrait(p, traced)
    render_s = tr.duration(idx)
    states_at = tr.durations("dynamics.states_at", idx)
    run.put("trace.overhead_frac.portrait", render_s / library_s - 1.0, "ratio")
    run.put("portrait.render_s", render_s, "s")
    run.put("portrait.self_s", tr.self_time(idx), "s")
    run.put("portrait.trajectories", len(states_at), "count")
    run.put("portrait.bytes_written",
            sum(f.stat().st_size for f in traced.iterdir()), "bytes")
    run.put("dynamics.states_at_ms_p50", _pct(states_at, 50) * 1e3, "ms")
    run.put("dynamics.states_at_share", sum(states_at) / render_s, "ratio")
    run.put("classify.face_states_ms", sum(tr.durations("classify.face_states", idx)) * 1e3, "ms")

    checked = common.check_portrait(traced)
    if checked.items != len(states_at):
        checked.problems.append(f"portrait: csv has {checked.items} trajectories, "
                                f"states_at ran {len(states_at)} times")
    run.tally(checked)
    inv = run.cli("portrait", common.portrait_args(cli_out), len(states_at), library_s)
    if inv.code == 0:
        for name in ("portrait.svg", "portrait_trajectories.csv"):
            if (cli_out / name).read_bytes() != (traced / name).read_bytes():
                run.problems.append(f"portrait: CLI {name} differs from the in-process one")
    for d in (plain, traced, cli_out):
        shutil.rmtree(d, ignore_errors=True)


def run(seed: int) -> dict:
    """Trace every layer on the benchmark's inputs; returns the result."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT) as work:
        r = _Run(seed, Path(work))
        common.run_cli(["check", "--params", str(common.PARAMS_A)], r.work)  # warm-up
        _basins(r)
        _sweep(r)
        _portrait(r)
    r.tracer.dump(common.OUT / f"spans-seed{seed}.json")
    for name, m in r.metrics.items():
        if not math.isfinite(m["value"]):
            r.problems.append(f"metric {name} is not finite")
    return {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": dict(sorted(r.metrics.items())),
        "detail": {"spans": len(r.tracer.spans), "notes": r.notes, "problems": r.problems[:20]},
    }


def print_summary(res: dict) -> None:
    for note in res["detail"]["notes"]:
        print(note)
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  spans recorded: {res['detail']['spans']}")
    for p in res["detail"]["problems"]:
        print(f"  problem: {p}")
