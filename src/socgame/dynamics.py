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

Integration is a hand-rolled Dormand-Prince 5(4) adaptive stepper (plus a
fixed-step RK4 for deterministic regression runs): after every accepted step
the simplex state is renormalized, sub-floor entries are clamped to exactly
zero, and the state is renormalized again if clamping fired.  An off-the-shelf
driver cannot interpose that projection between accepted steps.  Coordinates
that start at exactly zero stay exactly zero through both stepping and
projection, so faces and edges are invariant in the strictest sense.
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs for the simplex integrator.

    method        "rk45" (adaptive, default) or "rk4" (fixed step)
    step          fixed step size, rk4 only
    abs_tol/rel_tol   error control for rk45
    max_step      ceiling on the adaptive step size; keeps decaying modes
                  inside the stepper's stability region so near-extinct
                  shares keep shrinking down to the extinction floor instead
                  of hovering just below abs_tol
    max_time      horizon after which integration reports max-time-reached
    convergence_threshold   stop once max|dx/dt| falls below this
    extinction_floor        shares below this are clamped to exactly 0
    """

    method: str = "rk45"
    step: float = 0.01
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_step: float = 0.5
    max_time: float = 1000.0
    convergence_threshold: float = 1e-10
    extinction_floor: float = 1e-14

    def __post_init__(self) -> None:
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        for name in ("step", "abs_tol", "rel_tol", "max_step", "max_time",
                      "convergence_threshold", "extinction_floor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


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
# Dormand-Prince 5(4) machinery (tuple states, autonomous systems)

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

_MIN_STEP_FACTOR = 1e-13


def _dp_step(f: _RHS, y: tuple[float, ...], h: float, k1: tuple[float, ...]):
    """One trial step; returns (y_new, err_components)."""
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
    err = tuple(h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q)
                for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7))
    return ynew, err


def _err_norm(err, y, ynew, abs_tol, rel_tol) -> float:
    m = 0.0
    for e, a, b in zip(err, y, ynew):
        scale = abs_tol + rel_tol * max(abs(a), abs(b))
        r = abs(e) / scale
        if r > m or math.isnan(r):
            m = r if not math.isnan(r) else math.inf
    return m


def _project_simplex(y: tuple[float, ...], floor: float) -> tuple[float, ...]:
    # renormalize, clamp sub-floor entries to exact zero, renormalize again
    s = y[0] + y[1] + y[2] + y[3]
    y = tuple(v / s for v in y)
    if any(v < floor and v != 0.0 for v in y):
        y = tuple(0.0 if v < floor else v for v in y)
        s = y[0] + y[1] + y[2] + y[3]
        y = tuple(v / s for v in y)
    return y


def _drive_adaptive(
    f: _RHS,
    y0: tuple[float, ...],
    cfg: IntegratorConfig,
    project: Callable[[tuple[float, ...]], tuple[float, ...]] | None,
    record: Callable[[float, tuple[float, ...]], None] | None,
    checkpoints: Sequence[float] | None = None,
    collect: list | None = None,
) -> tuple[float, tuple[float, ...], float, str]:
    """Shared adaptive driver.

    Without checkpoints: run until the RHS max-norm drops below the
    convergence threshold or max_time is reached, recording every accepted
    step.  With checkpoints: land exactly on each requested time (no
    convergence stop) and append the state there to ``collect``.
    """
    t = 0.0
    y = y0
    k1 = f(y)
    h = min(1e-3, cfg.max_step)
    if checkpoints is None:
        t_end = cfg.max_time
    else:
        cp_iter = iter(checkpoints)
        cp = next(cp_iter, None)
        t_end = checkpoints[-1]
        while cp is not None and cp <= 0.0:  # checkpoint at the start
            collect.append(y)
            cp = next(cp_iter, None)
        if cp is None:
            return t, y, max(abs(v) for v in k1), "converged"

    if record is not None:
        record(t, y)

    while True:
        vel = max(abs(v) for v in k1)
        if checkpoints is None:
            if vel < cfg.convergence_threshold:
                return t, y, vel, "converged"
            if t >= t_end:
                return t, y, vel, "max-time-reached"
            target = t_end
        else:
            target = cp

        capped = target - t < h
        h_try = target - t if capped else h
        ynew, err = _dp_step(f, y, h_try, k1)
        en = _err_norm(err, y, ynew, cfg.abs_tol, cfg.rel_tol)
        if en <= 1.0:
            t = target if capped else t + h_try
            if project is not None:
                ynew = project(ynew)
            y = ynew
            k1 = f(y)
            if record is not None:
                record(t, y)
            if checkpoints is not None and t >= cp - 1e-12:
                t = cp
                collect.append(y)
                cp = next(cp_iter, None)
                if cp is None:
                    return t, y, max(abs(v) for v in k1), "converged"
            if not capped:
                # a target-capped step says nothing about the controller's
                # preferred size, so leave h alone in that case
                grow = 5.0 if en == 0.0 else min(5.0, max(0.2, 0.9 * en ** -0.2))
                h = min(h_try * grow, cfg.max_step)
        else:
            if math.isinf(en):
                h = h_try * 0.1
            else:
                h = h_try * max(0.2, 0.9 * en ** -0.2)
            if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
                return t, y, max(abs(v) for v in k1), "step-failure"


def _drive_rk4(
    f: _RHS,
    y0: tuple[float, ...],
    cfg: IntegratorConfig,
    project: Callable[[tuple[float, ...]], tuple[float, ...]] | None,
    record: Callable[[float, tuple[float, ...]], None] | None,
) -> tuple[float, tuple[float, ...], float, str]:
    t = 0.0
    y = y0
    h = cfg.step
    if record is not None:
        record(t, y)
    n_steps = 0
    while True:
        k1 = f(y)
        vel = max(abs(v) for v in k1)
        if vel < cfg.convergence_threshold:
            return t, y, vel, "converged"
        if t >= cfg.max_time:
            return t, y, vel, "max-time-reached"
        hh = min(h, cfg.max_time - t)
        k2 = f(tuple(yi + 0.5 * hh * a for yi, a in zip(y, k1)))
        k3 = f(tuple(yi + 0.5 * hh * a for yi, a in zip(y, k2)))
        k4 = f(tuple(yi + hh * a for yi, a in zip(y, k3)))
        y = tuple(yi + (hh / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
        if project is not None:
            y = project(y)
        n_steps += 1
        t = n_steps * cfg.step if hh == h else t + hh
        if record is not None:
            record(t, y)


# ---------------------------------------------------------------------------
# public integration entry points


def integrate(x0: SimplexState, p: Params, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Run the replicator flow from ``x0`` until it settles or times out.

    Samples are taken at every accepted step.  The verdict distinguishes a
    genuine equilibrium (RHS max-norm below the convergence threshold) from
    running out the clock and from step-size underflow.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    f = lambda y: replicator_field(y, p)
    project = lambda y: _project_simplex(y, cfg.extinction_floor)

    times: list[float] = []
    states: list[SimplexState] = []

    def record(t: float, y: tuple[float, ...]) -> None:
        times.append(t)
        states.append(SimplexState(*y))

    if cfg.method == "rk4":
        _, _, vel, verdict = _drive_rk4(f, x0.as_tuple(), cfg, project, record)
    else:
        _, _, vel, verdict = _drive_adaptive(f, x0.as_tuple(), cfg, project, record)
    return Trajectory(tuple(times), tuple(states), vel, verdict)


def states_at(x0: SimplexState, p: Params, times: Sequence[float],
              cfg: IntegratorConfig | None = None) -> list[SimplexState]:
    """Replicator states at the given increasing times (t=0 allowed first)."""
    if cfg is None:
        cfg = IntegratorConfig()
    f = lambda y: replicator_field(y, p)
    project = lambda y: _project_simplex(y, cfg.extinction_floor)
    out: list[tuple[float, ...]] = []
    _drive_adaptive(f, x0.as_tuple(), cfg, project, None,
                    checkpoints=list(times), collect=out)
    if len(out) != len(times):
        raise IntegrationError(
            f"step underflow after {len(out)} of {len(times)} requested times")
    return [SimplexState(*y) for y in out]


def lv_states_at(lv0: LVState, p: Params, times: Sequence[float],
                 cfg: IntegratorConfig | None = None) -> list[LVState]:
    """Orthant-coordinate states at the given times, on the share clock.

    The bare orthant field traverses the same orbits at velocity 1/x1, so it
    is scaled here by x1 = 1/(1 + y + z + w).  That makes the result directly
    comparable, time for time, with a replicator run from the corresponding
    start.  No simplex projection applies in this chart.
    """
    if cfg is None:
        cfg = IntegratorConfig()

    def f(u: tuple[float, ...]) -> tuple[float, float, float]:
        dy, dz, dw = orthant_field(u, p)
        s = 1.0 / (1.0 + u[0] + u[1] + u[2])
        return (dy * s, dz * s, dw * s)

    out: list[tuple[float, ...]] = []
    _drive_adaptive(f, lv0.as_tuple(), cfg, None, None,
                    checkpoints=list(times), collect=out)
    if len(out) != len(times):
        raise IntegrationError(
            f"step underflow after {len(out)} of {len(times)} requested times")
    return [LVState(*y) for y in out]


def match_attractor(state: SimplexState, attractors: Sequence, match_tol: float = 1e-6):
    """First attractor within ``match_tol`` of ``state`` in max-norm, or None."""
    xs = state.as_tuple()
    for cand in attractors:
        loc = cand.location.as_tuple()
        if max(abs(a - b) for a, b in zip(xs, loc)) <= match_tol:
            return cand
    return None
