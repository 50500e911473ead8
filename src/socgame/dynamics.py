"""Population dynamics: the replicator flow on the simplex, its Jacobian, and
the loops that integrate it.

The replicator flow on shares ``x`` is ``dx_i/dt = x_i (P_i - Pbar)``, with
payoffs ``P = A x`` and mean ``Pbar = x . A x``.  Its Jacobian has the closed
form ``J_ij = delta_ij (P_i - Pbar) + x_i (A_ij - P_j - (A^T x)_j)``
(Hofbauer & Sigmund 1998, ch. 7); ``replicator_jacobian`` gives it in the
chart of a face or of the whole simplex, where the stability of interior
rest points and the portrait's saddle directions are read off.

Integration runs through one of two loops, chosen by what the caller asks
for.  ``_drive`` follows one path with its samples: it either runs to rest
(``integrate``: sample every accepted step, stop when max|dx/dt| falls below
_CONVERGED or at the caller's max_time) or lands on requested times
(``states_at``).  ``_integrate_rows`` runs many starts together and keeps
only where each ended (``estimate_basins``): its state is one (4, m) numpy
block with a column per running start, and every row keeps its own time,
step size and step count and leaves the batch when it stops.  A row also
stops, short of rest, once it lies in one of the caller's ratio boxes
(``RatioBox``), regions proved to flow to one attractor.  The block
shortens a step that would pass max_time to end on it, as ``_drive`` does,
so a row reaches its horizon in the block.  Only the batch's last
_HANDOVER_ROWS rows go on in ``_drive``, each resumed from its own time
and step size with the same boxes.  Single runs stay on tuples of Python
floats: a step of the block costs about as much in numpy dispatch as ten
float steps, whatever its size, so the slowest rows' last hundred or so
steps are not run as blocks of a handful.
Both loops use the same step and stop on the same tests in the same order,
so a row that no box captures ends bit for bit where ``integrate`` from
that start ends.

Every run takes the one step: a hand-rolled Dormand-Prince 5(4) under error
control (_ABS_TOL, _REL_TOL, steps at most _MAX_STEP).  Its stage lines work
one tuple entry at a time, so the same lines step four floats or the
one-entry tuple ``(block,)``, where each line is a single array expression.
The batch takes its step-size factors from Python's ``pow`` in one pass
over the rows (``_grow_rows``), as ``_drive`` does one step at a time.
After every accepted step the simplex state is renormalized, shares below
_EXTINCTION_FLOOR are clamped to exactly zero, and the state is
renormalized again if clamping fired.  An off-the-shelf driver cannot
interpose that projection between accepted steps.  Coordinates that start
at exactly zero stay exactly zero through both stepping and projection, so
faces and edges are invariant in the strictest sense.  A caller chooses
only the horizon of a run to rest, the ``max_time`` argument; the other
settings are module constants.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

# IntegrationError lives in model, beside the other exit-code errors, so
# that the CLI catches it without loading this module; it is re-exported here
from .model import (DEFAULT_MAX_TIME, IntegrationError, Params, SimplexState, check_max_time,
                    decimal, payoff_matrix)

_RHS = Callable[[tuple[float, ...]], tuple[float, ...]]


# Integrator settings that no caller chooses.
_FIRST_STEP = 1e-3  # trial size of the first step
# error control: a step is accepted when every component's error estimate
# is within _ABS_TOL + _REL_TOL * max(|y|, |y_new|)
_ABS_TOL = 1e-9
_REL_TOL = 1e-9
# ceiling on the step size; keeps decaying modes inside the stepper's
# stability region, so near-extinct shares keep shrinking down to the
# extinction floor instead of hovering just below _ABS_TOL
_MAX_STEP = 0.5
_MIN_STEP_FACTOR = 1e-13  # step failure below this times max(1, |t|)
_CONVERGED = 1e-10  # a run to rest stops once max|dx/dt| falls below this
_EXTINCTION_FLOOR = 1e-14  # shares below this are clamped to exactly 0
# how close (max-norm) ``match_attractor`` calls a state near an attractor:
# a nearness check, not a label; runs are labelled by ratio boxes
MATCH_TOL = 1e-6


class Trajectory(NamedTuple):
    """Integration record: states at strictly increasing sample times."""

    times: tuple[float, ...]
    states: tuple[SimplexState, ...]
    terminal_velocity: float  # max|dx/dt| at the final state
    verdict: str  # "converged" | "max-time-reached" | "step-failure"

    @property
    def final_state(self) -> SimplexState:
        return self.states[-1]

    def write_csv(self, fileobj) -> None:
        """Plain-decimal CSV, one row per sample, header t,x1,x2,x3,x4."""
        fileobj.write("t,x1,x2,x3,x4\n")
        for t, s in zip(self.times, self.states):
            row = (t,) + s.as_tuple()
            fileobj.write(",".join(decimal(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# right-hand sides


def replicator_field(x: tuple[float, ...], p: Params) -> tuple[float, float, float, float]:
    """Time derivative of the shares ``x``: growth proportional to payoff
    advantage over the population mean.  No simplex checks, so the stage
    states of a step may stray slightly off it."""
    x1, x2, x3, x4 = x
    po = p.alpha * x1
    ph = p.beta * x2 + p.gamma * x3
    pp = -p.delta * x2 + p.epsilon * x3
    pn = p.eta
    avg = x1 * po + x2 * ph + x3 * pp + x4 * pn
    return (x1 * (po - avg), x2 * (ph - avg), x3 * (pp - avg), x4 * (pn - avg))


def replicator_jacobian(x: Sequence[float], p: Params,
                        active: Sequence[int] = (0, 1, 2, 3)) -> np.ndarray:
    """Jacobian of ``replicator_field`` at ``x`` in the chart of ``active``.

    The chart's coordinates are the shares of ``active[:-1]``; the last
    active share is 1 minus their sum and every other share stays 0, so
    ``active`` names a face (three strategies) or the whole simplex (four).
    With J the full 4x4 Jacobian, J_ij = delta_ij (P_i - Pbar) + x_i (A_ij -
    P_j - (A^T x)_j), the chart's is J[a, b] - J[a, last].
    """
    A = payoff_matrix(p)
    x = np.asarray(x, dtype=float)
    pi = A @ x
    jac = np.diag(pi - x @ pi) + x[:, None] * (A - pi - A.T @ x)
    coords, last = list(active[:-1]), active[-1]
    return jac[np.ix_(coords, coords)] - jac[coords, last][:, None]


# ---------------------------------------------------------------------------
# the integration loops and their stepper (autonomous systems)

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# 5th-order minus embedded 4th-order weights, for the local error estimate
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


def _err_norm(err: Sequence[float], y: tuple[float, ...], ynew: tuple[float, ...]) -> float:
    """Largest component error relative to its tolerance; inf when NaN arose."""
    m = 0.0
    for e, a, b in zip(err, y, ynew):
        r = abs(e) / (_ABS_TOL + _REL_TOL * max(abs(a), abs(b)))
        if r > m or math.isnan(r):
            m = r if not math.isnan(r) else math.inf
    return m


def _err_norm_rows(err: Sequence, y: tuple, ynew: tuple) -> np.ndarray:
    """``_err_norm`` of every row at once, for a state held as one (4, m)
    block: ``err``, ``y`` and ``ynew`` each hold that block alone."""
    (e,), (a,), (b,) = err, y, ynew
    r = (np.abs(e) / (_ABS_TOL + _REL_TOL * np.maximum(np.abs(a), np.abs(b)))).max(axis=0)
    return np.where(np.isnan(r), np.inf, r)


def _dp_step(f: _RHS, y: tuple, h, k1: tuple, norm=_err_norm):
    """One Dormand-Prince trial step; returns (y_new, error norm).  The step
    is acceptable when the norm is at most 1; it is inf when NaN arose.  The
    stage lines work one tuple entry at a time, so ``y`` and ``k1`` may be
    four floats with a float ``h``, or one (4, m) block with ``h`` holding
    one step per column; ``norm`` reduces the entries' errors."""
    y2 = tuple(yi + h * _A21 * a for yi, a in zip(y, k1))
    k2 = f(y2)
    y3 = tuple(yi + h * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2))
    k3 = f(y3)
    y4 = tuple(yi + h * (_A41 * a + _A42 * b + _A43 * c)
               for yi, a, b, c in zip(y, k1, k2, k3))
    k4 = f(y4)
    y5 = tuple(yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
               for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
    k5 = f(y5)
    y6 = tuple(yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
               for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5))
    k6 = f(y6)
    ynew = tuple(yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                 for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6))
    k7 = f(ynew)
    err = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q)
           for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7)]
    return ynew, norm(err, y, ynew)


def _grow(err: float) -> float:
    # step-size factor after an accepted step
    return 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))


def _shrink(err: float) -> float:
    # step-size factor after a rejected step
    return 0.1 if math.isinf(err) else max(0.2, 0.9 * err ** -0.2)


def _grow_rows(err: np.ndarray) -> np.ndarray:
    """``_grow`` of every entry of ``err`` at once, bit for bit.  The powers
    come from Python's ``pow`` in one pass: numpy's own power can differ from
    it in the last bit.  A zero error skips ``pow`` (``0.0 ** -0.2`` raises)
    and takes the cap, as in ``_grow``."""
    factor = np.full(err.shape, np.inf)
    pos = err > 0.0
    factor[pos] = 0.9 * np.fromiter(map(pow, err[pos].tolist(), repeat(-0.2)), float)
    return np.minimum(5.0, np.maximum(0.2, factor))


def _renormalize(y: tuple) -> tuple:
    s = y[0] + y[1] + y[2] + y[3]
    return tuple(v / s for v in y)


def _project_simplex(y: tuple[float, ...]) -> tuple[float, ...]:
    # renormalize, clamp sub-floor entries to exact zero, renormalize again
    y = _renormalize(y)
    if any(v < _EXTINCTION_FLOOR and v != 0.0 for v in y):
        y = _renormalize(tuple(0.0 if v < _EXTINCTION_FLOOR else v for v in y))
    return y


def _project_rows(y: np.ndarray) -> np.ndarray:
    """``_project_simplex`` of every column of the (4, m) block ``y`` at once,
    summing in the same order; only columns whose clamp fires are clamped and
    renormalized again."""
    y = y / (y[0] + y[1] + y[2] + y[3])
    fired = ((y < _EXTINCTION_FLOOR) & (y != 0.0)).any(axis=0)
    if fired.any():
        z = np.where(y < _EXTINCTION_FLOOR, 0.0, y)
        y = np.where(fired, z / (z[0] + z[1] + z[2] + z[3]), y)
    return y


def _drive(
    p: Params,
    y0: tuple[float, ...],
    max_time: float,
    times: Sequence[float] | None = None,
    *,
    boxes: Sequence[RatioBox] = (),
    t: float = 0.0,
    h: float = _FIRST_STEP,
) -> tuple[list[float], list[tuple[float, ...]], float, str]:
    """The one integration loop of the replicator flow from the shares
    ``y0``; returns (times, states, velocity, verdict).

    Without ``times`` the run goes to rest: it samples its start and every
    accepted step, and stops once its state lies in one of ``boxes``
    ("certified", tested first, as ``box_index`` tests), once max|dy/dt|
    falls below _CONVERGED ("converged") or at ``max_time``
    ("max-time-reached").  ``t`` and ``h`` resume such a run at time ``t``
    with step size ``h``; ``_integrate_rows`` hands rows over so.  With
    ``times`` the run starts at t=0 and lands exactly on each requested
    time, samples only there, and stops after the last one; ``max_time`` is
    not used.  A requested time already reached (0, or a repeat of the time
    just sampled) is sampled at once, with no step, so a repeated time gives
    the same state twice.  A step toward a sample time or ``max_time`` is
    shortened to end on it.  Too small a step ends the run with
    "step-failure", so fewer samples than ``times`` can come back.
    ``velocity`` is max|dy/dt| at the last state.  Each accepted state is
    projected back onto the simplex (``_project_simplex``) before anything
    else sees it.
    """

    def f(y: tuple) -> tuple:
        return replicator_field(y, p)

    to_rest = times is None
    targets = [max_time] if to_rest else list(times)
    y, k1 = y0, f(y0)
    out_t, out_y = ([t], [y]) if to_rest else ([], [])
    i = 0  # index of the next target
    while True:
        vel = max(abs(v) for v in k1)
        if to_rest:
            if boxes and _in_a_box(y, boxes):
                return out_t, out_y, vel, "certified"
            if vel < _CONVERGED:
                return out_t, out_y, vel, "converged"
            if t >= max_time:
                return out_t, out_y, vel, "max-time-reached"
        else:
            while i < len(targets) and targets[i] <= t:  # reached: sample it
                out_t.append(targets[i])
                out_y.append(y)
                i += 1
            if i == len(targets):
                return out_t, out_y, vel, "converged"
        target = targets[i]
        capped = target - t < h
        h_try = target - t if capped else h
        ynew, err = _dp_step(f, y, h_try, k1)
        if err <= 1.0:
            t = target if capped else t + h_try
            y = _project_simplex(ynew)
            k1 = f(y)
            if to_rest:
                out_t.append(t)
                out_y.append(y)
            elif t >= target - 1e-12:  # landed on a sample time
                t = target
            if not capped:
                # a target-capped step says nothing about the controller's
                # preferred size, so leave h alone in that case
                h = min(h_try * _grow(err), _MAX_STEP)
        else:
            h = h_try * _shrink(err)
            if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
                return out_t, out_y, vel, "step-failure"


class RatioBox(NamedTuple):
    """The shares ``x`` with ``x[ref] > 0`` and ``lo[k] * x[ref] <= x[k] <=
    hi[k] * x[ref]`` for every ``k != ref``: a box in the ratios
    u_k = x_k / x_ref.  ``basins.ratio_box`` builds one only where it proves
    that every start inside flows to one attractor."""

    ref: int
    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]


def box_index(y: Sequence, boxes: Sequence[RatioBox]) -> np.ndarray:
    """Index of the first of ``boxes`` that holds each row of ``y``, four
    share columns (a tuple, or an array of shape (4, n)); -1 for a row in
    none of them.

    Every share must be finite and non-negative, or NaN (a row with a NaN
    share is in no box), as every projected state is: a lower bound
    ``lo[k] == 0`` then always holds."""
    if not boxes:
        return np.full(len(y[0]), -1)
    inside = _inside(np.asarray(y, dtype=float), _stack_bounds(boxes))
    return np.where(inside.any(axis=0), inside.argmax(axis=0), -1)


def _stack_bounds(boxes: Sequence[RatioBox]) -> tuple:
    """``boxes`` stacked for ``_inside``: their refs (b,), their upper ratio
    bounds (b, 4, 1), and (box, k, bound) for each lower bound above 0.  The
    reference's own upper bound is set to 1, so that test holds for every
    finite share."""
    ref = np.array([b.ref for b in boxes], dtype=np.intp)
    hi = np.array([b.hi for b in boxes], dtype=float).reshape(-1, 4)
    hi[np.arange(len(ref)), ref] = 1.0
    lows = [(i, k, b.lo[k]) for i, b in enumerate(boxes)
            for k in range(4) if k != b.ref and b.lo[k] > 0.0]
    return ref, hi[:, :, None], lows


def _inside(y: np.ndarray, bounds: tuple) -> np.ndarray:
    """Which of the stacked boxes ``bounds`` holds each column of the (4, m)
    block ``y``, shape (b, m): every upper bound in one broadcast, then the
    few lower bounds above 0."""
    ref, hi, lows = bounds
    xr = y[ref]
    inside = (xr > 0.0) & (y <= hi * xr[:, None, :]).all(axis=1)
    for i, k, lo in lows:
        inside[i] &= lo * xr[i] <= y[k]
    return inside


def _in_a_box(y: tuple[float, ...], boxes: Sequence[RatioBox]) -> bool:
    """Whether one of ``boxes`` holds the four floats ``y``, by the test of
    ``box_index``."""
    for ref, lo, hi in boxes:
        xr = y[ref]
        if xr > 0.0 and all(lo[k] * xr <= y[k] <= hi[k] * xr for k in range(4) if k != ref):
            return True
    return False


_VERDICTS = ("converged", "max-time-reached", "step-failure", "certified")
# ``_integrate_rows`` hands its running rows to ``_drive``, one at a time,
# once at most this many are left.  An iteration of the batch costs as much
# numpy dispatch as 10 to 12 float steps of ``_drive``, however few rows it
# steps.  On set B at 1000 samples, handing over at 4 to 16 rows measured
# alike, at 32 5-10 % slower, and at 64 as slow as no handover.
_HANDOVER_ROWS = 16


# a stage that overflows gives inf or NaN, which _err_norm_rows turns into a
# rejected step, as Python floats do silently in _drive; a rejected row's
# projection, which is discarded, may divide by zero
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate_rows(
    x0: np.ndarray, p: Params, max_time: float, boxes: Sequence[RatioBox] = (),
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """``integrate`` from every row of ``x0`` (shape (n, 4)) at once, keeping
    only the end: returns (final states (n, 4), verdicts, accepted steps).

    A row that lies in one of ``boxes``, at its start or after any accepted
    step, stops there with the verdict "certified": the box proves where it
    goes, and ``box_index`` of its final state names the box.  Every other
    row takes exactly the steps ``_drive`` takes to rest from the same start
    and ends with the same state and verdict, bit for bit: the state is one
    (4, m) block over the running rows, handed to the step as ``(y,)``,
    so every elementwise operation of the field, the stages and the
    projection runs in the same order as on four floats, and each row keeps
    its own t, h and step count.  Step-size factors come from Python's
    ``pow``, in one pass over the accepted rows (``_grow_rows``), because
    numpy's vectorised power can differ from it in the last bit.
    A step that would pass max_time is shortened to end on it and leaves h
    alone, by ``_drive``'s rule.  Rows leave the block when they are
    certified, converge, reach max_time or fail a step.  The last
    _HANDOVER_ROWS rows go on in ``_drive`` from their own t and h, with
    the same boxes, and add the steps taken there to their counts (a batch
    iteration has a fixed cost of about ten float steps, and the last rows
    of a batch can run a hundred iterations more).  No samples are
    recorded.
    """

    def f(y: tuple) -> tuple:
        return (np.array(replicator_field(y[0], p)),)

    bounds = _stack_bounds(boxes)
    final = np.array(x0, dtype=float)
    verdict = np.zeros(len(final), dtype=np.int8)  # index into _VERDICTS
    steps = np.zeros(len(final), dtype=np.int64)
    rows = np.arange(len(final))  # the running rows, by position in x0
    y = final.T.copy()  # column j holds running row rows[j]
    (k1,) = f((y,))
    t = np.zeros(len(rows))
    h = np.full(len(rows), _FIRST_STEP)
    n = np.zeros(len(rows), dtype=np.int64)
    failed = np.zeros(len(rows), dtype=bool)  # whose step failed last iteration
    while True:
        converged = np.abs(k1).max(axis=0) < _CONVERGED
        certified = _inside(y, bounds).any(axis=0)
        stop = failed | certified | converged | (t >= max_time)
        if stop.any():
            # the first test that holds names the verdict: a failed step,
            # a box, convergence, else max_time
            code = np.where(failed, 2, np.where(certified, 3, np.where(converged, 0, 1)))
            done = rows[stop]
            final[done] = y[:, stop].T
            verdict[done] = code[stop]
            steps[done] = n[stop]
            go = ~stop
            rows, y, k1, t, h, n = rows[go], y[:, go], k1[:, go], t[go], h[go], n[go]
        if rows.size <= _HANDOVER_ROWS:
            break
        # a step that would pass max_time is shortened to end on it
        h_try = np.minimum(max_time - t, h)
        capped = h_try < h
        (ynew,), err = _dp_step(f, (y,), h_try, (k1,), _err_norm_rows)
        ok = err <= 1.0
        n += ok
        t = np.where(ok, np.where(capped, max_time, t + h_try), t)
        y = np.where(ok, _project_rows(ynew), y)
        (k1,) = f((y,))
        grow = ok & ~capped
        h[grow] = np.minimum(h[grow] * _grow_rows(err[grow]), _MAX_STEP)
        rej = ~ok
        h[rej] = h_try[rej] * [_shrink(e) for e in err[rej].tolist()]
        failed = rej & (h < _MIN_STEP_FACTOR * np.maximum(1.0, np.abs(t)))
    for row, yj, tj, hj, nj in zip(rows.tolist(), y.T.tolist(), t.tolist(), h.tolist(),
                                   n.tolist()):
        times, ys, _, why = _drive(p, tuple(yj), max_time, boxes=boxes, t=tj, h=hj)
        final[row] = ys[-1]
        verdict[row] = _VERDICTS.index(why)
        steps[row] = nj + len(times) - 1
    return final, [_VERDICTS[v] for v in verdict], steps


# ---------------------------------------------------------------------------
# public integration entry points


def integrate(x0: SimplexState, p: Params, max_time: float = DEFAULT_MAX_TIME) -> Trajectory:
    """Run the replicator flow from ``x0`` until it settles or ``max_time``,
    positive and finite, runs out (ValueError otherwise).

    Samples are taken at every accepted step.  The verdict distinguishes a
    genuine equilibrium (RHS max-norm below the convergence threshold) from
    running out the clock and from step-size underflow.
    """
    check_max_time(max_time)
    times, ys, vel, verdict = _drive(p, x0.as_tuple(), max_time)
    return Trajectory(tuple(times), tuple(SimplexState(*y) for y in ys), vel, verdict)


def states_at(x0: SimplexState, p: Params, times: Sequence[float]) -> list[SimplexState]:
    """Replicator states at the given times.  The times must be finite,
    non-negative and non-decreasing (ValueError otherwise); IntegrationError
    if the step size underflows first."""
    times = list(times)
    if not all(0.0 <= t < math.inf for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"sample times must be finite, >= 0 and non-decreasing, got {times!r}")
    _, ys, _, _ = _drive(p, x0.as_tuple(), math.inf, times)
    if len(ys) != len(times):
        raise IntegrationError(
            f"step underflow after {len(ys)} of {len(times)} requested times")
    return [SimplexState(*y) for y in ys]


def match_attractor(state: SimplexState, attractors: Sequence):
    """First attractor within ``MATCH_TOL`` of ``state`` in max-norm, or None."""
    xs = state.as_tuple()
    for cand in attractors:
        loc = cand.location.as_tuple()
        if max(abs(a - b) for a, b in zip(xs, loc)) <= MATCH_TOL:
            return cand
    return None
