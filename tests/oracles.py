"""Independent oracles for the analytic results of ``socgame``.

Nothing here is used by the package.  Tests check against it:

* ``payoff_matrix``: the payoff matrix A as a numpy array, for the
  oracles' matrix algebra;
* ``replicator_jacobian``: the flow's Jacobian in closed form, in numpy
  floats, in the chart of a face or of the whole simplex, the reference for
  the inventory's exact linearisation; ``fd_jacobian``, a central-difference
  Jacobian of any field, and ``reduced_field``, the replicator flow in such
  a chart, check it and the eigen signs;
* the Lotka-Volterra chart: on x1 > 0 the coordinates
  ``(y, z, w) = (x2, x3, x4) / x1`` turn the replicator flow into a
  polynomial system (up to a time change that keeps orbits and rest
  points)::

      dy/dt = y (-alpha + beta * y + gamma * z)
      dz/dt = z (-alpha - delta * y + epsilon * z)
      dw/dt = w (-alpha + eta * (1 + y + z + w))

  The (y, z) pair closes on itself, the planar system of the no-isolation
  face.  ``lv_states_at`` integrates the chart with scipy's ``solve_ivp``,
  so the conjugacy test compares two integrators that share no code;
* ``numeric_jacobian``: finite-difference eigenvalues at a rest point of
  the face flow or of either chart system;
* the admissibility inequalities as plain comparisons, one per condition
  (``dominance_oracle``, ``nondominance_oracle``, ``nash_oracle``), the
  closed forms of the H-P, O-P and O-H edge states' payoffs, and the closed
  form of the rest point inside the whole simplex (``full_interior_shares``);
* ``numpy_interior_state``: the rest point inside a face or the whole
  simplex by a float linear solve, with the eigen signs of the analytic
  Jacobian in its chart, the reference for the package's exact
  face-interior state; ``full_interior_state`` is it on the whole simplex,
  which the package never builds: no full-simplex rest point ever attracts;
* ``uniform_ratio_box``: the widest ratio box of one width tau for every
  ratio, the box ``basins.ratio_box`` starts from and must contain.

One helper reads one part of what the package computes: ``face_regime``,
one face's entry of the lax global report.

Two references state the regime table apart from its sign literals
(``regimes.PANELS``), which the package derives both from: ``FACE_SCOPE``,
the faces each face-scoped quantity leaves undecided, written by hand, and
``mask_panels``, each face's panel chosen by one mask expression a panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from socgame import InvalidParameterError, Params, SimplexState, classify_global
from socgame.basins import _certifies
from socgame.classify import EdgeRegime, StationaryState, _stability
from socgame.dynamics import RatioBox, replicator_field
from socgame.model import DEFAULT_TOL, FACES, STRATEGIES, payoff_rows, validate


# reference eigenvalues closer to zero than this get the "degenerate" sign
SIGN_TOL = 1e-7


def payoff_matrix(p: Params) -> np.ndarray:
    """4x4 payoff matrix A with rows/columns ordered O, H, P, N.

    ``A[i, j]`` is the payoff of strategy i against strategy j; the payoff
    vector at state x is ``A @ x``.  N earns the fallback ``eta`` against
    everyone; nobody earns anything from meeting N.
    """
    return np.array(payoff_rows(p))


class ChartDomainError(ValueError):
    """State outside the x1 > 0 chart where the orthant coordinates live."""


class NonStationaryPointError(ValueError):
    """numeric_jacobian was handed a point the flow does not fix."""


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


def to_lv(state: SimplexState) -> LVState:
    """Chart map x -> (x2, x3, x4)/x1.  Undefined where x1 = 0."""
    if state.x1 <= 0.0:
        raise ChartDomainError("orthant chart undefined at x1 = 0")
    return LVState(state.x2 / state.x1, state.x3 / state.x1, state.x4 / state.x1)


def from_lv(lv: LVState) -> SimplexState:
    """Inverse chart map (y, z, w) -> (1, y, z, w) / (1 + y + z + w)."""
    s = 1.0 + lv.y + lv.z + lv.w
    return SimplexState(1.0 / s, lv.y / s, lv.z / s, lv.w / s)


def lv_rhs_2d(y: float, z: float, p: Params) -> tuple[float, float]:
    """Planar orthant system for (y, z) = (x2, x3) / x1; closed in itself."""
    return (
        y * (-p.alpha + p.beta * y + p.gamma * z),
        z * (-p.alpha - p.delta * y + p.epsilon * z),
    )


def orthant_field(u: Sequence[float], p: Params) -> tuple[float, float, float]:
    """Full orthant system on a bare (y, z, w) triple; no orthant checks, so
    finite-difference probes may step slightly outside."""
    y, z, w = u
    dy, dz = lv_rhs_2d(y, z, p)
    return (dy, dz, w * (-p.alpha + p.eta * (1.0 + y + z + w)))


def lv_rhs_3d(state: LVState, p: Params) -> tuple[float, float, float]:
    """Full orthant system; first two components are exactly lv_rhs_2d."""
    return orthant_field(state.as_tuple(), p)


def lv_states_at(lv0: LVState, p: Params, times: Sequence[float]) -> list[LVState]:
    """Orthant-coordinate states at the given increasing times, on the share
    clock, from ``solve_ivp`` (DOP853, rtol 1e-12, atol 1e-13).

    The bare orthant field traverses the replicator orbits at velocity 1/x1,
    so it is scaled here by x1 = 1/(1 + y + z + w).  That makes the result
    comparable, time for time, with a replicator run from the matching start.
    """
    times = [float(t) for t in times]
    if not times:
        return []

    def f(_t: float, u: np.ndarray) -> list[float]:
        s = 1.0 / (1.0 + u[0] + u[1] + u[2])
        return [v * s for v in orthant_field(u, p)]

    sol = solve_ivp(f, (0.0, times[-1]), lv0.as_tuple(), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(sol.message)
    # the ratios decay toward 0 but never cross it; clip the solver's
    # overshoot of a few 1e-15 below 0
    return [LVState(*np.maximum(u, 0.0)) for u in sol.y.T]


def fd_jacobian(f: Callable[[tuple[float, ...]], Sequence[float]],
                u: Sequence[float], step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``u``."""
    n = len(u)
    jac = np.empty((n, n))
    for j in range(n):
        h = step * max(1.0, abs(u[j]))
        up = list(u)
        um = list(u)
        up[j] += h
        um[j] -= h
        fp = f(tuple(up))
        fm = f(tuple(um))
        for i in range(n):
            jac[i, j] = (fp[i] - fm[i]) / (2.0 * h)
    return jac


def replicator_jacobian(x: Sequence[float], p: Params,
                        active: Sequence[int] = (0, 1, 2, 3)) -> np.ndarray:
    """Jacobian of ``replicator_field`` at ``x`` in the chart of ``active``.

    The chart's coordinates are the shares of ``active[:-1]``; the last
    active share is 1 minus their sum and every other share stays 0, so
    ``active`` names a face (three strategies) or the whole simplex (four).
    With J the full 4x4 Jacobian, J_ij = delta_ij (P_i - Pbar) + x_i (A_ij -
    P_j - (A^T x)_j) (Hofbauer & Sigmund 1998, ch. 7), the chart's is
    J[a, b] - J[a, last].  The reference for the package's exact
    linearisation (``classify._Inventory.linearisation``).
    """
    A = payoff_matrix(p)
    x = np.asarray(x, dtype=float)
    pi = A @ x
    jac = np.diag(pi - x @ pi) + x[:, None] * (A - pi - A.T @ x)
    coords, last = list(active[:-1]), active[-1]
    return jac[np.ix_(coords, coords)] - jac[coords, last][:, None]


def reduced_field(p: Params, active: Sequence[int]):
    """Replicator flow in the chart of ``active``: the coordinates are the
    shares of ``active[:-1]``, the last active share is 1 minus their sum,
    and every other share is pinned at 0."""
    coords, last = list(active[:-1]), active[-1]

    def f(u: tuple[float, ...]) -> tuple[float, ...]:
        x = [0.0] * 4
        for k, v in zip(coords, u):
            x[k] = v
        x[last] = 1.0 - sum(u)
        d = replicator_field(tuple(x), p)
        return tuple(d[k] for k in coords)

    return f


def numeric_jacobian(loc, p: Params, system: str = "replicator-face",
                     step: float = 1e-6,
                     stationarity_tol: float = 1e-10) -> np.ndarray:
    """Finite-difference Jacobian eigenvalues at a stationary point.

    system: "replicator-face" (SimplexState on the x4=0 face, reduced to two
    coordinates), "lv-2d" (LVState, planar orthant system), or "lv-3d"
    (LVState, full orthant system).  Eigenvalues come back sorted by real
    part.  Raises if the point is not stationary within ``stationarity_tol``.
    """
    if system == "replicator-face":
        if not isinstance(loc, SimplexState):
            raise TypeError("replicator-face expects a SimplexState")
        if loc.x4 != 0.0:
            raise ValueError("replicator-face expects a state on the x4=0 face")
        f = reduced_field(p, (0, 1, 2))
        u: tuple[float, ...] = (loc.x1, loc.x2)
    elif system == "lv-2d":
        if not isinstance(loc, LVState):
            raise TypeError("lv-2d expects an LVState")
        f = lambda u: lv_rhs_2d(u[0], u[1], p)
        u = (loc.y, loc.z)
    elif system == "lv-3d":
        if not isinstance(loc, LVState):
            raise TypeError("lv-3d expects an LVState")
        f = lambda u: orthant_field(u, p)
        u = loc.as_tuple()
    else:
        raise ValueError(f"unknown system {system!r}")

    resid = max(abs(v) for v in f(u))
    if resid > stationarity_tol:
        raise NonStationaryPointError(
            f"point is not stationary for {system}: RHS max-norm {resid:.3e}"
        )
    eigs = np.linalg.eigvals(fd_jacobian(f, u, step))
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def coexistence_payoff(p) -> float:
    """Common payoff at the mixed state on the H-P edge:
    (beta*epsilon + gamma*delta) / (epsilon - gamma + beta + delta)."""
    return (p.beta * p.epsilon + p.gamma * p.delta) / ((p.epsilon - p.gamma) + (p.beta + p.delta))


def coexistence_share(p) -> float:
    """H's share at that state: (epsilon - gamma) / (epsilon - gamma + beta + delta)."""
    return (p.epsilon - p.gamma) / ((p.epsilon - p.gamma) + (p.beta + p.delta))


def op_payoff(p) -> float:
    """Common payoff at the mixed state on the O-P edge."""
    return p.alpha * p.epsilon / (p.alpha + p.epsilon)


def oh_payoff(p) -> float:
    """Common payoff at the mixed state on the O-H edge."""
    return p.alpha * p.beta / (p.alpha + p.beta)


def full_interior_shares(p) -> tuple[float, float, float, float]:
    """Shares where all four payoffs equal the fallback eta, with det =
    beta*epsilon + gamma*delta: x1 = eta/alpha, x2 = eta*(epsilon-gamma)/det,
    x3 = eta*(beta+delta)/det and x4 = 1 - x1 - x2 - x3."""
    det = p.beta * p.epsilon + p.gamma * p.delta
    x1 = p.eta / p.alpha
    x2 = p.eta * (p.epsilon - p.gamma) / det
    x3 = p.eta * (p.beta + p.delta) / det
    return x1, x2, x3, 1.0 - x1 - x2 - x3


def dominance_oracle(p: Params) -> list[tuple[str, str]]:
    """Weak-dominance pairs ``(dominated, dominating)``, each inequality
    written out: X is weakly dominated by Y when Y earns at least X's payoff
    against every pure state."""
    for name in ("alpha", "delta", "epsilon", "eta"):
        if getattr(p, name) <= 0.0:
            raise InvalidParameterError(f"{name} must be strictly positive")
    rel: list[tuple[str, str]] = []
    if p.alpha <= p.eta:
        rel.append(("O", "N"))
    if p.eta >= max(p.beta, p.gamma):
        rel.append(("H", "N"))
    if p.beta <= -p.delta and p.gamma <= p.epsilon:
        rel.append(("H", "P"))
    if p.epsilon <= p.eta:
        rel.append(("P", "N"))
    if p.beta >= -p.delta and p.gamma >= p.epsilon:
        rel.append(("P", "H"))
    return rel


def nondominance_oracle(p: Params) -> tuple[bool, str | None]:
    """``validate``'s (nondominance_ok, branch): every vertex payoff beats
    the fallback, and the H/P cross terms sit in one strict sign branch."""
    vertices = p.alpha > p.eta and p.epsilon > p.eta and max(p.beta, p.gamma) > p.eta
    b_plus = p.beta > -p.delta and p.gamma < p.epsilon
    b_minus = p.beta < -p.delta and p.gamma > p.epsilon
    branch = "B-plus" if b_plus else "B-minus" if b_minus else None
    return vertices and branch is not None, branch


def nash_oracle(p: Params, tol: float) -> dict[str, bool]:
    """Strict Nash vertices, compared directly, where
    ``ValidationReport.require`` passes; it must refuse every point where a
    defining inequality is within ``tol`` of equality."""
    validate(p, tol).require()
    for name, v in {
        "alpha-eta": p.alpha - p.eta,
        "beta-eta": p.beta - p.eta,
        "epsilon-gamma": p.epsilon - p.gamma,
        "epsilon-eta": p.epsilon - p.eta,
    }.items():
        assert abs(v) > tol, f"require passed the Nash boundary |{name}| <= {tol}"
    return {
        "O": p.alpha > p.eta,
        "H": p.beta > p.eta,
        "P": p.epsilon > p.gamma and p.epsilon > p.eta,
        "N": True,
    }


def uniform_ratio_box(state, A) -> RatioBox | None:
    """The first tau of 1, 1/2, ..., 2**-30 for which the box with every
    off-support ratio in [0, tau] and the other support ratio within
    [u*(1 - tau), u*(1 + tau)] passes ``basins._certifies``; None if none
    does.  The lower face of a support ratio must lie above 0."""
    support = [STRATEGIES.index(s) for s in state.support]
    x = state.location.as_tuple()
    ref = max(support, key=lambda k: x[k])
    for tau in (2.0 ** -i for i in range(31)):
        lo, hi = [0.0] * 4, [tau] * 4
        lo[ref] = hi[ref] = 1.0
        for k in support:
            if k != ref:
                lo[k], hi[k] = x[k] / x[ref] * (1.0 - tau), x[k] / x[ref] * (1.0 + tau)
        if all(lo[k] > 0.0 for k in support) and _certifies(A, ref, support, lo, hi):
            return RatioBox(ref, tuple(lo), tuple(hi))
    return None


def numpy_interior_state(p: Params, active: Sequence[int]) -> StationaryState | None:
    """The reference rest point inside the face of ``active`` (three
    strategies) or the whole simplex (all four): where they all earn one
    payoff and the shares sum to 1, by ``np.linalg.solve``; None where the
    system is singular or a share is not positive.  The eigen signs,
    "degenerate" within ``SIGN_TOL`` of 0, come from the eigenvalues of the
    analytic Jacobian in the chart of ``active``, sorted by real part.
    """
    A = payoff_matrix(p)
    n = len(active)
    m = np.ones((n, n))
    m[:-1] = A[active[0], active] - A[np.ix_(active[1:], active)]
    try:
        sol = np.linalg.solve(m, np.eye(n)[-1])
    except np.linalg.LinAlgError:
        return None
    if min(sol) <= 0.0:
        return None
    x = np.zeros(4)
    x[list(active)] = sol
    eigs = np.linalg.eigvals(replicator_jacobian(x, p, active))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    kind, eig = ("full-interior", "orthant eig") if n == 4 else ("face-interior", "face eig")
    signs = tuple((f"{eig} {i + 1}",
                   "degenerate" if abs(ev.real) <= SIGN_TOL else "+" if ev.real > 0.0 else "-")
                  for i, ev in enumerate(eigs))
    support = tuple(STRATEGIES[i] for i in active)
    return StationaryState(
        label="+".join(support), kind=kind, location=SimplexState(*map(float, x)),
        support=support, payoff=float(A[active[0]] @ x), eigen_signs=signs,
        stability=_stability(signs))


def full_interior_state(p: Params, tol: float = DEFAULT_TOL) -> StationaryState | None:
    """Stationary state interior to the whole simplex, if any, after
    ``ValidationReport.require``: ``numpy_interior_state`` on all four
    strategies.

    All four payoffs equal the fallback eta there.  It always carries a
    strictly positive eigenvalue (eta*w in the ratio chart w = x4/x1), so it
    is never attractive.  Its ``orthant eig`` labels name the same signs the
    ratio chart gives: the two Jacobians differ by a change of coordinates
    and a positive time scale, which keep every sign and the order by real
    part.
    """
    validate(p, tol).require()
    return numpy_interior_state(p, (0, 1, 2, 3))


def face_regime(p: Params, face: str, tol: float = DEFAULT_TOL) -> EdgeRegime | None:
    """One face's regime: its entry of ``classify_global(p, tol,
    strict=False)``, None where the face is undecided."""
    return classify_global(p, tol, strict=False).edges[FACES.index(face)]


# each face-scoped degenerate quantity, with the boundary faces whose regime
# it leaves undecided
FACE_SCOPE = {
    "beta": ("S_N",),
    "beta-eta": ("S_O", "S_P"),
    "eta-pay(O+P)": ("S_H",),
    "eta-pay(O+H)": ("S_P",),
    "eta-pay(H+P)": ("S_O",),
}


def mask_panels(adm) -> dict[str, object]:
    """Each face's panel index into ``regimes.PANELS[face]``, read off
    ``adm``, the admissibility table (floats, columns or ``Fraction``
    fields), by one mask expression per panel; -1 where none holds.  Read
    only where ``adm`` admits the point and finds no global degenerate
    quantity."""
    b_plus, above, q = adm.b_plus, adm.beta_above_eta, adm.quantities
    hp_det = q["beta*epsilon+gamma*delta"]  # det of the H/P payoff block
    hp_pos = hp_det > 0.0
    h_in_sn = b_plus & (q["beta"] > 0.0)
    coex_beats_fallback = q["eta-pay(H+P)"] < 0.0
    conditions = {
        "S_N": (h_in_sn & hp_pos, h_in_sn, b_plus & hp_pos, b_plus, hp_det < 0.0, True),
        "S_O": (b_plus & above & coex_beats_fallback, b_plus & above,
                b_plus & coex_beats_fallback, b_plus, coex_beats_fallback, True),
        "S_H": (q["eta-pay(O+P)"] < 0.0, True),
        "S_P": (above & (q["eta-pay(O+H)"] < 0.0), above, True),
    }
    panels = {}
    for face, holds in conditions.items():
        panel = -1
        for k in reversed(range(len(holds))):
            panel = k * holds[k] + panel * (holds[k] ^ True)
        panels[face] = panel
    return panels
