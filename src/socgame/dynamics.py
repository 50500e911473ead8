"""Population dynamics: replicator flow on the simplex, its Lotka-Volterra
conjugate on the positive orthant, and the integrators used to drive both.

The replicator flow on shares ``x`` is ``dx_i/dt = x_i (P_i - Pbar)``.  On
the chart ``x1 > 0`` the coordinate change ``(y, z, w) = (x2, x3, x4) / x1``
turns it into a polynomial Lotka-Volterra system (up to a time change that
does not affect orbits or stationarity)::

    dy/dt = y (-alpha + beta * y + gamma * z)
    dz/dt = z (-alpha - delta * y + epsilon * z)
    dw/dt = w (-alpha + eta * (1 + y + z + w))

The (y, z) pair closes on itself, which is what makes the planar phase
portrait analysis of the no-isolation face tractable; the two systems are
integrated independently here so the conjugacy can be *checked*, not assumed.
The bare orthant field above runs on its own clock: it generates the same
orbits as the share dynamics at velocity 1/x1.  For trajectory comparison at
equal times, ``lv_states_at`` integrates the field scaled by
x1 = 1/(1 + y + z + w), which is the ratio dynamics on the share clock.
Scaling also removes the finite-time escape to infinity the bare field has
along rays where the quadratic terms reinforce (reached only as t -> inf on
the share clock).

All integration runs through one loop, ``_drive``.  It either runs to rest
(``integrate``: sample every accepted step, stop when max|dx/dt| falls below
_CONVERGED or at the caller's max_time) or lands on requested times
(``states_at``, ``lv_states_at``).  Its step is a hand-rolled Dormand-Prince
5(4) under error control (_ABS_TOL, _REL_TOL, steps at most _MAX_STEP), or,
for deterministic regression runs, a classical RK4 step of fixed size _STEP
that is always accepted.  After every accepted step the simplex state is
renormalized, shares below _EXTINCTION_FLOOR are clamped to exactly zero, and
the state is renormalized again if clamping fired.  An off-the-shelf driver
cannot interpose that projection between accepted steps.  Coordinates that
start at exactly zero stay exactly zero through both stepping and
projection, so faces and edges are invariant in the strictest sense.  A
caller chooses only the method and max_time (``IntegratorConfig``); the
other settings are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Params, SimplexState

_RHS = Callable[[tuple[float, ...]], tuple[float, ...]]


class ChartDomainError(ValueError):
    """State outside the x1 > 0 chart where the orthant coordinates live."""


class IntegrationError(RuntimeError):
    """Adaptive step size underflowed before reaching a requested time."""


@dataclass(frozen=True)
class LVState:
    """Point (y, z, w) in the closed positive orthant."""

    y: float
    z: float
    w: float

    def __post_init__(self) -> None:
        for name in ("y", "z", "w"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"orthant coordinate {name}={v!r} must be finite and >= 0")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.y, self.z, self.w)


# Integrator settings that no caller chooses.
_STEP = 0.01  # rk4 step size
_FIRST_STEP = 1e-3  # rk45 trial size of the first step
# rk45 error control: a step is accepted when every component's error
# estimate is within _ABS_TOL + _REL_TOL * max(|y|, |y_new|)
_ABS_TOL = 1e-9
_REL_TOL = 1e-9
# ceiling on the rk45 step size; keeps decaying modes inside the stepper's
# stability region, so near-extinct shares keep shrinking down to the
# extinction floor instead of hovering just below _ABS_TOL
_MAX_STEP = 0.5
_MIN_STEP_FACTOR = 1e-13  # step failure below this times max(1, |t|)
_CONVERGED = 1e-10  # a run to rest stops once max|dx/dt| falls below this
_EXTINCTION_FLOOR = 1e-14  # shares below this are clamped to exactly 0


@dataclass(frozen=True)
class IntegratorConfig:
    """What a caller chooses about a run to rest.

    method    "rk45" (adaptive Dormand-Prince 5(4), default) or "rk4"
              (fixed step 0.01, for deterministic regression runs)
    max_time  horizon after which the run reports max-time-reached

    Step sizes, tolerances, the convergence threshold and the extinction
    floor are module constants.  Runs that sample at requested times
    (``states_at``, ``lv_states_at``) always use rk45 and have no horizon.
    """

    method: str = "rk45"
    max_time: float = 1000.0

    def __post_init__(self) -> None:
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.max_time <= 0.0:
            raise ValueError("max_time must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Integration record: states at strictly increasing sample times."""

    times: tuple[float, ...]
    states: tuple[SimplexState, ...]
    terminal_velocity: float  # max|dx/dt| at the final state
    verdict: str  # "converged" | "max-time-reached" | "step-failure"

    @property
    def final_state(self) -> SimplexState:
        return self.states[-1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.times),
                np.array([s.as_tuple() for s in self.states]))

    def write_csv(self, fileobj) -> None:
        """Plain-decimal CSV, one row per sample, header t,x1,x2,x3,x4."""
        fileobj.write("t,x1,x2,x3,x4\n")
        for t, s in zip(self.times, self.states):
            row = (t,) + s.as_tuple()
            fileobj.write(",".join(decimal(v) for v in row) + "\n")


def decimal(v: float) -> str:
    # shortest decimal that round-trips, never scientific notation
    return np.format_float_positional(v, unique=True, trim="0")


# ---------------------------------------------------------------------------
# right-hand sides


def replicator_field(x: tuple[float, ...], p: Params) -> tuple[float, float, float, float]:
    # no simplex checks here: finite-difference probes step slightly outside
    x1, x2, x3, x4 = x
    po = p.alpha * x1
    ph = p.beta * x2 + p.gamma * x3
    pp = -p.delta * x2 + p.epsilon * x3
    pn = p.eta
    avg = x1 * po + x2 * ph + x3 * pp + x4 * pn
    return (x1 * (po - avg), x2 * (ph - avg), x3 * (pp - avg), x4 * (pn - avg))


def replicator_rhs(state: SimplexState, p: Params) -> tuple[float, float, float, float]:
    """Time derivative of the shares at ``state``: growth proportional to
    payoff advantage over the population mean."""
    return replicator_field(state.as_tuple(), p)


def face_rhs(state: SimplexState, p: Params) -> tuple[float, float, float]:
    """Replicator derivative restricted to the no-isolation face (x4 = 0)."""
    if state.x4 != 0.0:
        raise ValueError(f"state has x4={state.x4!r}, not on the x4=0 face")
    d = replicator_field(state.as_tuple(), p)
    return (d[0], d[1], d[2])


def lv_rhs_2d(y: float, z: float, p: Params) -> tuple[float, float]:
    """Planar orthant system for (y, z) = (x2, x3) / x1; closed in itself."""
    return (
        y * (-p.alpha + p.beta * y + p.gamma * z),
        z * (-p.alpha - p.delta * y + p.epsilon * z),
    )


def orthant_field(u: tuple[float, ...], p: Params) -> tuple[float, float, float]:
    """Full orthant system on a bare (y, z, w) tuple; no orthant checks here,
    so finite-difference probes may step slightly outside."""
    y, z, w = u
    dy, dz = lv_rhs_2d(y, z, p)
    return (dy, dz, w * (-p.alpha + p.eta * (1.0 + y + z + w)))


def lv_rhs_3d(state: LVState, p: Params) -> tuple[float, float, float]:
    """Full orthant system; first two components are exactly lv_rhs_2d."""
    return orthant_field(state.as_tuple(), p)


def to_lv(state: SimplexState) -> LVState:
    """Chart map x -> (x2, x3, x4)/x1.  Undefined where x1 = 0."""
    if state.x1 <= 0.0:
        raise ChartDomainError("orthant chart undefined at x1 = 0")
    return LVState(state.x2 / state.x1, state.x3 / state.x1, state.x4 / state.x1)


def from_lv(lv: LVState) -> SimplexState:
    """Inverse chart map (y, z, w) -> (1, y, z, w) / (1 + y + z + w)."""
    s = 1.0 + lv.y + lv.z + lv.w
    return SimplexState(1.0 / s, lv.y / s, lv.z / s, lv.w / s)


# ---------------------------------------------------------------------------
# the integration loop and its two steppers (tuple states, autonomous systems)

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


def _dp_step(f: _RHS, y: tuple[float, ...], h: float, k1: tuple[float, ...]):
    """One Dormand-Prince trial step; returns (y_new, error norm).  The step
    is acceptable when the norm is at most 1; it is inf when NaN arose."""
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
    m = 0.0
    for a, c, d, e, g, q, y0, y1 in zip(k1, k3, k4, k5, k6, k7, y, ynew):
        err = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q)
        r = abs(err) / (_ABS_TOL + _REL_TOL * max(abs(y0), abs(y1)))
        if r > m or math.isnan(r):
            m = r if not math.isnan(r) else math.inf
    return ynew, m


def _rk4_step(f: _RHS, y: tuple[float, ...], h: float, k1: tuple[float, ...]):
    """One classical Runge-Kutta step; no error estimate, so the norm is 0."""
    k2 = f(tuple(yi + 0.5 * h * a for yi, a in zip(y, k1)))
    k3 = f(tuple(yi + 0.5 * h * a for yi, a in zip(y, k2)))
    k4 = f(tuple(yi + h * a for yi, a in zip(y, k3)))
    return tuple(yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4)), 0.0


def _project_simplex(y: tuple[float, ...]) -> tuple[float, ...]:
    # renormalize, clamp sub-floor entries to exact zero, renormalize again
    s = y[0] + y[1] + y[2] + y[3]
    y = tuple(v / s for v in y)
    if any(v < _EXTINCTION_FLOOR and v != 0.0 for v in y):
        y = tuple(0.0 if v < _EXTINCTION_FLOOR else v for v in y)
        s = y[0] + y[1] + y[2] + y[3]
        y = tuple(v / s for v in y)
    return y


def _drive(
    f: _RHS,
    y0: tuple[float, ...],
    method: str,
    max_time: float,
    project: Callable[[tuple[float, ...]], tuple[float, ...]] | None,
    times: Sequence[float] | None = None,
) -> tuple[list[float], list[tuple[float, ...]], float, str]:
    """The one integration loop; returns (times, states, velocity, verdict).

    Without ``times`` the run goes to rest: it samples t=0 and every accepted
    step, and stops once max|dy/dt| falls below _CONVERGED ("converged") or
    at ``max_time`` ("max-time-reached").  With ``times`` it lands exactly on
    each requested time, samples only there, and stops after the last one;
    ``max_time`` is not used.  A step toward a sample time or ``max_time``
    is shortened to end on it.  "rk45" steps with Dormand-Prince under error
    control; "rk4" accepts every step of the fixed size _STEP and keeps its
    times at n * _STEP.  Too small a step ends the run with "step-failure",
    so fewer samples than ``times`` can come back.  ``velocity`` is
    max|dy/dt| at the last state.  Each accepted state goes through
    ``project`` before anything else sees it.
    """
    fixed = method == "rk4"
    step = _rk4_step if fixed else _dp_step
    h = _STEP if fixed else _FIRST_STEP
    to_rest = times is None
    targets = [max_time] if to_rest else list(times)
    t, y, k1 = 0.0, y0, f(y0)
    out_t, out_y = ([t], [y]) if to_rest else ([], [])
    i = 0  # index of the next target
    while not to_rest and i < len(targets) and targets[i] <= 0.0:
        out_t.append(targets[i])
        out_y.append(y)
        i += 1
    n = 0  # accepted steps
    while True:
        vel = max(abs(v) for v in k1)
        if to_rest:
            if vel < _CONVERGED:
                return out_t, out_y, vel, "converged"
            if t >= max_time:
                return out_t, out_y, vel, "max-time-reached"
        elif i == len(targets):
            return out_t, out_y, vel, "converged"
        target = targets[i]
        capped = target - t < h
        h_try = target - t if capped else h
        ynew, err = step(f, y, h_try, k1)
        if err <= 1.0:
            n += 1
            t = target if capped else (n * _STEP if fixed else t + h_try)
            y = project(ynew) if project is not None else ynew
            k1 = f(y)
            if to_rest:
                out_t.append(t)
                out_y.append(y)
            elif t >= target - 1e-12:  # landed on a sample time
                t = target
                i += 1
                out_t.append(t)
                out_y.append(y)
            if not (capped or fixed):
                # a target-capped step says nothing about the controller's
                # preferred size, so leave h alone in that case
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = min(h_try * grow, _MAX_STEP)
        else:
            h = h_try * (0.1 if math.isinf(err) else max(0.2, 0.9 * err ** -0.2))
            if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
                return out_t, out_y, vel, "step-failure"


# ---------------------------------------------------------------------------
# public integration entry points


def integrate(x0: SimplexState, p: Params, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Run the replicator flow from ``x0`` until it settles or times out.

    Samples are taken at every accepted step.  The verdict distinguishes a
    genuine equilibrium (RHS max-norm below the convergence threshold) from
    running out the clock and from step-size underflow.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    times, ys, vel, verdict = _drive(lambda y: replicator_field(y, p), x0.as_tuple(),
                                     cfg.method, cfg.max_time, _project_simplex)
    return Trajectory(tuple(times), tuple(SimplexState(*y) for y in ys), vel, verdict)


def _sample(f: _RHS, y0: tuple[float, ...], project, times: Sequence[float]) -> list:
    """rk45 states at ``times``; IntegrationError if the run fell short."""
    times = list(times)
    _, ys, _, _ = _drive(f, y0, "rk45", math.inf, project, times)
    if len(ys) != len(times):
        raise IntegrationError(
            f"step underflow after {len(ys)} of {len(times)} requested times")
    return ys


def states_at(x0: SimplexState, p: Params, times: Sequence[float]) -> list[SimplexState]:
    """Replicator states at the given increasing times (t=0 allowed first)."""
    ys = _sample(lambda y: replicator_field(y, p), x0.as_tuple(), _project_simplex, times)
    return [SimplexState(*y) for y in ys]


def lv_states_at(lv0: LVState, p: Params, times: Sequence[float]) -> list[LVState]:
    """Orthant-coordinate states at the given times, on the share clock.

    The bare orthant field traverses the same orbits at velocity 1/x1, so it
    is scaled here by x1 = 1/(1 + y + z + w).  That makes the result directly
    comparable, time for time, with a replicator run from the corresponding
    start.  No simplex projection applies in this chart.
    """

    def f(u: tuple[float, ...]) -> tuple[float, float, float]:
        dy, dz, dw = orthant_field(u, p)
        s = 1.0 / (1.0 + u[0] + u[1] + u[2])
        return (dy * s, dz * s, dw * s)

    return [LVState(*u) for u in _sample(f, lv0.as_tuple(), None, times)]


def match_attractor(state: SimplexState, attractors: Sequence, match_tol: float = 1e-6):
    """First attractor within ``match_tol`` of ``state`` in max-norm, or None."""
    xs = state.as_tuple()
    for cand in attractors:
        loc = cand.location.as_tuple()
        if max(abs(a - b) for a, b in zip(xs, loc)) <= match_tol:
            return cand
    return None
