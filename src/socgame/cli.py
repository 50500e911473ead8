"""Command line front end.

Subcommands: check, equilibria, simulate, sweep, basins, portrait.
Parameters come from a flat key=value file (--params) with --set overrides;
a key given twice in the file, or twice in --set, is an input error.
Exit codes: 0 success, 1 input error or output error (standard output
closed or not writable, or a file under --out not writable), 2 inadmissible
parameters (dominated strategy), 3 degenerate boundary, 4 integration
failure.

``_main`` builds the parameter point (params file, --set, the --tol check)
and calls the command's handler with the parsed namespace and that point.
Each handler reads and checks its own options from the namespace before it
does any work, so a new option is one parser line and one read in its
handler.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import itertools
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

# Every matrix socgame factors or multiplies is at most 4x4, which OpenBLAS
# never splits across threads, so a thread pool only costs start-up time.
# This must run before numpy is first imported; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only model is imported here, and it loads no numpy. Each handler imports
# the rest of what it runs, so a command loads (and, without bytecode caches,
# compiles) only that: check loads model alone; equilibria adds classify,
# regimes and welfare, still with no numpy; sweep adds numpy, regimes and
# welfare; simulate and basins add numpy, dynamics and basins to equilibria's
# modules, and portrait numpy, dynamics and portrait; _json alone loads json.
from .model import (
    BRANCHES,
    DEFAULT_MAX_TIME,
    DEFAULT_TOL,
    PARAM_NAMES,
    Columns,
    DegenerateParameterError,
    IntegrationError,
    InvalidParameterError,
    Params,
    SimplexState,
    check_max_time,
    decimal,
    dominance_relations,
    nash_vertices,
    validate,
)

# the most sweep grid points, and basin samples, one command may ask for
MAX_ITEMS = 10**6


class OutputError(OSError):
    """Standard output is closed, or a write to it, or to a file under
    --out, failed."""


def _emit(text: str) -> None:
    # every handler writes its standard output through here, flushed at
    # once, so that a failed write is reported as what it is
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        raise OutputError(e) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means "inadmissible
    # parameters" here, so route usage problems to the input-error code
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


class SweepAxis(NamedTuple):
    name: str
    lo: float
    hi: float
    steps: int


def _number(text: str, where: str, kind=float):
    """``kind(text)``; a malformed value is an input error that names the
    option (or file line) ``where`` and the value."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: not {what}: {text!r}") from None


def _read_params_file(path: str) -> dict[str, float]:
    text = Path(path).read_text()
    out: dict[str, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in PARAM_NAMES:
            raise ValueError(f"{path}:{ln}: unknown parameter {key!r}")
        if key in out:
            raise ValueError(f"{path}:{ln}: parameter {key!r} given twice")
        out[key] = _number(val.strip(), f"{path}:{ln}")
    return out


def _parse_set(sets: Sequence[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in sets:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in PARAM_NAMES:
            raise ValueError(f"--set: unknown parameter {key!r}")
        if key in out:
            raise ValueError(f"--set: parameter {key!r} given twice")
        out[key] = _number(val, f"--set {key}")
    return out


def _parse_x0(text: str) -> SimplexState:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--x0 expects four comma-separated shares, got {text!r}")
    return SimplexState(*(_number(v, "--x0") for v in parts))


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"--sweep expects NAME:MIN:MAX:STEPS, got {text!r}")
    name, lo, hi, steps = parts
    if name not in PARAM_NAMES:
        raise ValueError(f"--sweep: unknown parameter {name!r}")
    n = _number(steps, f"--sweep {name} STEPS", int)
    if n < 2:
        raise ValueError("--sweep: STEPS must be at least 2")
    lo_v, hi_v = _number(lo, f"--sweep {name} MIN"), _number(hi, f"--sweep {name} MAX")
    if not (math.isfinite(lo_v) and math.isfinite(hi_v) and math.isfinite(hi_v - lo_v)):
        raise ValueError(f"--sweep {name}: MIN and MAX must be finite, "
                         f"and so must MAX - MIN, got {text!r}")
    return SweepAxis(name=name, lo=lo_v, hi=hi_v, steps=n)


def _parse_axes(texts: Sequence[str]) -> tuple[SweepAxis, ...]:
    if len(texts) > 2:
        raise ValueError("--sweep given more than twice; at most 2 axes")
    axes = tuple(_parse_axis(s) for s in texts)
    if len({a.name for a in axes}) < len(axes):
        raise ValueError(f"--sweep axis {axes[0].name!r} given twice; "
                         "the two axes must vary different parameters")
    if (n := math.prod(a.steps for a in axes)) > MAX_ITEMS:
        raise ValueError(f"--sweep grid has {n} points, more than {MAX_ITEMS}")
    return axes


def _write_out(out: Path, files: dict[str, str]) -> None:
    # the result is computed already: a failed write here is an output
    # error, not an input one
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as e:
        raise OutputError(e) from None


def _json(doc: dict) -> str:
    # imported here: sweep, the command run most often, writes no JSON
    import json

    # canonical form: stable key order, so reparse+redump is byte-identical
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_check(args: argparse.Namespace, p: Params) -> int:
    report = validate(p, args.tol)
    doc: dict = {"params": p.as_dict(), "validation": report.as_dict()}
    code = 0
    if report.positivity_ok:
        doc["dominance"] = [list(pair) for pair in dominance_relations(p)]
    if report.degenerate_quantities:
        code = 3
    elif not (report.positivity_ok and report.nondominance_ok):
        code = 2
    else:
        doc["nash"] = nash_vertices(p, args.tol)
    _emit(_json(doc))
    return code


def cmd_equilibria(args: argparse.Namespace, p: Params) -> int:
    from .classify import classify_global

    vrep = validate(p, args.tol)
    # a face-scoped boundary still gets the lax report, with those faces null
    if not vrep.admissible:
        _emit(_json({"params": p.as_dict(), "validation": vrep.as_dict()}))
        return 3 if vrep.degenerate_quantities else 2
    report = classify_global(p, args.tol, strict=False)
    text = _json(report.as_dict())
    _emit(text)
    if args.out is not None:
        _write_out(args.out, {"equilibria.json": text})
    return 3 if report.degenerate else 0


def cmd_simulate(args: argparse.Namespace, p: Params) -> int:
    check_max_time(args.max_time)
    x0 = _parse_x0(args.x0)

    from .basins import attractor_boxes, label_runs
    from .classify import classify_global
    from .dynamics import integrate

    report = classify_global(p, args.tol)  # raises on inadmissible/degenerate input
    traj = integrate(x0, p, args.max_time)

    out_dir = args.out or Path(".")
    csv = io.StringIO()
    traj.write_csv(csv)
    _write_out(out_dir, {"trajectory.csv": csv.getvalue()})

    hit, = label_runs([traj.final_state.as_tuple()],
                      attractor_boxes(report.global_attractors, p))
    _emit(f"wrote {out_dir / 'trajectory.csv'}\n"
          f"verdict: {traj.verdict} at t={decimal(traj.times[-1])} "
          f"(terminal velocity {traj.terminal_velocity:.3e})\n"
          f"{hit.label if hit is not None else 'unresolved'}\n")
    return 4 if traj.verdict == "step-failure" else 0


def cmd_sweep(args: argparse.Namespace, p: Params) -> int:
    axes = _parse_axes(args.sweep)

    import numpy as np

    from .regimes import classify_grid

    grids = [np.linspace(a.lo, a.hi, a.steps) for a in axes]
    n = math.prod(a.steps for a in axes)
    # rows run over the grid like itertools.product
    values = p.as_dict()
    for a, mesh in zip(axes, np.meshgrid(*grids, indexing="ij")):
        values[a.name] = mesh.ravel()
    grid = classify_grid(Columns(**{k: np.broadcast_to(v, (n,)) for k, v in values.items()}),
                         args.tol)

    fields = np.stack([grid.valid, grid.degenerate, grid.branch,
                       *(panel for _, panel in grid.figures), grid.n_attractors])
    # rows share few distinct tails (valid .. n_attractors), so each is
    # formatted once; every code + 1 lies in 0..7
    _, first, which = np.unique(np.ravel_multi_index(fields + 1, (8,) * len(fields)),
                                return_index=True, return_inverse=True)
    tails = []
    for i in first:
        valid, degenerate, branch, *panels, n_att = fields[:, i].tolist()
        tails.append(",".join([
            str(valid), str(degenerate), BRANCHES[branch] or "",
            *(tags[k] if k >= 0 else "" for (tags, _), k in zip(grid.figures, panels)),
            str(n_att) if n_att >= 0 else ""]))

    header = [a.name for a in axes] + ["valid", "degenerate", "branch",
                                       "fig_S_N", "fig_S_O", "fig_S_H", "fig_S_P", "n_attractors"]
    axis_text = [[decimal(float(v)) for v in g] for g in grids]
    lines = [",".join(header)]
    lines.extend(",".join(head) + "," + tails[k]
                 for head, k in zip(itertools.product(*axis_text), which.tolist()))
    text = "\n".join(lines) + "\n"
    _emit(text)
    if args.out is not None:
        _write_out(args.out, {"sweep.csv": text})
    return 0


def cmd_basins(args: argparse.Namespace, p: Params) -> int:
    if not 0 < args.samples <= MAX_ITEMS:
        raise ValueError(f"--samples must be from 1 to {MAX_ITEMS}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0 for basins, got {args.seed}")
    check_max_time(args.max_time)

    from .basins import estimate_basins

    report = estimate_basins(p, args.samples, seed=args.seed, tol=args.tol,
                             max_time=args.max_time)
    text = _json(report.as_dict())
    _emit(text)
    if args.out is not None:
        rows = ["label,count,fraction,stderr"]
        for label, c in report.counts:
            rows.append(f"{label},{c},{decimal(report.fractions[label])},"
                        f"{decimal(report.stderr[label])}")
        _write_out(args.out, {"basins.json": text, "basins.csv": "\n".join(rows) + "\n"})
    return 0


def cmd_portrait(args: argparse.Namespace, p: Params) -> int:
    from .portrait import render_portrait

    try:
        svg_path, csv_path = render_portrait(p, args.out or Path("."), args.tol)
    except OSError as e:  # render_portrait reads nothing: its files failed
        raise OutputError(e) from None
    _emit(f"wrote {svg_path}\nwrote {csv_path}\n")
    return 0


_HANDLERS = {
    "check": cmd_check,
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "basins": cmd_basins,
    "portrait": cmd_portrait,
}


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--params", required=True, metavar="FILE",
                        help="flat key=value file with alpha..eta")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override one parameter (repeatable)")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="strict-inequality tolerance")
    common.add_argument("--out", type=Path, metavar="DIR", help="output directory")

    parser = _Parser(prog="socgame",
                     description="Equilibria, regimes and basins of the four-strategy "
                                 "online/offline participation game.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common],
                   help="validate parameters, list Nash vertices and dominance")
    sub.add_parser("equilibria", parents=[common],
                   help="classify all faces and the global attractor set")

    sim = sub.add_parser("simulate", parents=[common],
                         help="integrate one trajectory and name its attractor")
    sim.add_argument("--x0", required=True, metavar="X1,X2,X3,X4",
                     help="initial shares, comma separated")
    sim.add_argument("--max-time", type=float, default=DEFAULT_MAX_TIME)

    sw = sub.add_parser("sweep", parents=[common],
                        help="classify over a 1D or 2D parameter grid")
    sw.add_argument("--sweep", action="append", required=True,
                    metavar="NAME:MIN:MAX:STEPS",
                    help=f"grid axis (max twice; at most {MAX_ITEMS} grid points)")

    ba = sub.add_parser("basins", parents=[common],
                        help="Monte Carlo basin-of-attraction fractions")
    ba.add_argument("--samples", type=int, default=1000,
                    help=f"number of uniform starts, 1 to {MAX_ITEMS}")
    ba.add_argument("--seed", type=int, default=42, help="RNG seed, 0 or more")
    ba.add_argument("--max-time", type=float, default=DEFAULT_MAX_TIME,
                    help="horizon of each sample's run; a sample that enters a "
                         "region proved to flow to one attractor (a ratio box) "
                         "is labelled by that proof, even if the horizon would "
                         "stop it before it settles; \"unresolved\" means "
                         "\"ended in no ratio box\"")

    sub.add_parser("portrait", parents=[common],
                   help="planar-net SVG phase portrait of the boundary faces")
    return parser


# the youngest generation's collection threshold in a program run (the
# interpreter's default is 700)
_YOUNG_OBJECTS = 10_000


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    With no argv, ``main`` is the program run (``python -m socgame.cli`` or
    the ``socgame`` script), and it ends the process with the exit code
    instead of returning, unless a profiler or tracer is active or an
    exception escapes; its collector runs less often. A caller that passes
    argv gets the code back, with its collector left as it was.
    """
    if argv is not None:
        return _main(argv)
    # The program run pays only for its own work. At the default threshold
    # the collector runs about 35 times while numpy imports, and walks every
    # survivor again in the older generations. With room for _YOUNG_OBJECTS
    # it runs a few times at most, each young object is walked about once,
    # and the import's cyclic garbage is still freed: with the collector off
    # that garbage raised a basins run's peak RSS by about 0.15 MB.
    gc.set_threshold(_YOUNG_OBJECTS)
    code = _main(None)
    if _observed():
        return code  # the profiler or tracer reports after main returns
    # Nothing is left to tear down but what the OS reclaims anyway: run the
    # atexit handlers and flush as the interpreter's exit would, then skip
    # its teardown of every module and object. Every file a command writes
    # is closed already.
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None and not stream.closed:
                stream.flush()
    except OSError:
        return code  # the interpreter's exit reports the failed flush
    os._exit(code)


def _observed() -> bool:
    """A profiler or tracer (cProfile, coverage, a debugger) watches this
    run through ``sys.setprofile``, ``sys.settrace`` or, from Python 3.12,
    ``sys.monitoring``."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(i) is not None for i in range(6))))


def _main(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OutputError("standard output is closed")
        mapping = _read_params_file(args.params)
        mapping.update(_parse_set(args.set))
        p = Params.from_mapping(mapping)
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
        return _HANDLERS[args.command](args, p)
    except DegenerateParameterError as e:
        print(f"degenerate parameters: {e}", file=sys.stderr)
        return 3
    except InvalidParameterError as e:
        print(f"inadmissible parameters: {e}", file=sys.stderr)
        return 2
    except IntegrationError as e:
        print(f"integration failure: {e}", file=sys.stderr)
        return 4
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        if argv is None and sys.stdout is not None:
            # the program exits next, and its exit flushes stdout again: give
            # that flush somewhere to write what the failed one left behind
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
