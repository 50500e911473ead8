"""Stationary states and dynamic regimes.

Everything observable about the long-run behaviour of the four-strategy flow
is decided by closed-form sign conditions on the boundary stationary states.
They come from one inventory, and every boundary face sees a restriction of
it:

* the inventory builds each vertex, and each edge-interior state of an edge
  whose payoff gap changes sign, once, with the eigen sign of every direction
  of the full simplex.  At a boundary rest point the eigenvalue toward an
  absent strategy W is W's payoff advantage there, and the one along an edge
  is ``s(1-s)(g1-g0)`` for the edge's affine payoff gap g;
* a face's view keeps the states whose support avoids the face's absent
  strategy and drops the direction toward that strategy;
* one regime table holds, for each face, the closed-form sign conditions
  that name which of the known planar phase portraits the face realises
  (portrait number ``pp`` and panel tag ``figure``) and which states attract
  within it, and the conditions that leave the face undecided.  They are
  array expressions over parameter columns: ``classify_global`` and
  ``classify_edge_*`` read them at one point and take the states from the
  inventory, ``classify_grid`` reads them over a whole sweep grid at once;
* a state attracts from the full simplex exactly when it is attractive
  inside every boundary face containing it.

The sign tables leave one question open, the stability type of interior
states: it is read off a finite-difference Jacobian (``numeric_jacobian``),
which also serves as the independent oracle for the analytic signs in tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_TOL,
    STRATEGIES,
    Admissibility,
    Columns,
    DegenerateParameterError,
    InvalidParameterError,
    Params,
    SimplexState,
    ValidationReport,
    admissibility,
    coexistence_payoff,
    payoff_matrix,
    payoff_rows,
    require_valid,
    validate,
)
from .dynamics import LVState, lv_rhs_2d, orthant_field, replicator_field
from .welfare import WelfareReport, check_orderings, supported_payoffs, welfare_report

# numeric eigenvalues closer to zero than this get the "degenerate" sign
SIGN_TOL = 1e-7

# boundary faces named by the strategy that is absent
FACES = ("S_N", "S_O", "S_H", "S_P")
FACE_ABSENT = {"S_N": 3, "S_O": 0, "S_H": 1, "S_P": 2}


class NonStationaryPointError(ValueError):
    """numeric_jacobian was handed a point the flow does not fix."""


class InfeasibleLocationError(ValueError):
    """A stationary-state solve landed outside its face."""


def _sign(v: float, tol: float) -> str:
    if abs(v) <= tol:
        return "degenerate"
    return "+" if v > 0.0 else "-"


def _stability(signs: Sequence[tuple[str, str]]) -> str:
    vals = {s for _, s in signs}
    if "degenerate" in vals:
        return "degenerate"
    if vals <= {"-"}:
        return "attractive"
    if vals == {"+"}:
        return "repulsive"
    return "saddle"


@dataclass(frozen=True)
class NormalizedMatrix:
    """Payoff matrix of the no-isolation face with each column shifted so the
    offline row is zero; planar sign conditions read directly off a..f::

        O   0  0  0
        H   a  b  c
        P   d  e  f
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def as_array(self) -> np.ndarray:
        return np.array([
            [0.0, 0.0, 0.0],
            [self.a, self.b, self.c],
            [self.d, self.e, self.f],
        ])


def normalize_matrix(p: Params) -> NormalizedMatrix:
    return NormalizedMatrix(a=-p.alpha, b=p.beta, c=p.gamma,
                            d=-p.alpha, e=-p.delta, f=p.epsilon)


@dataclass(frozen=True)
class StationaryState:
    label: str  # e.g. "O", "H+P", "O+H+P", "O+H+P+N"
    kind: str  # "vertex" | "edge-interior" | "face-interior" | "full-interior"
    location: SimplexState
    support: tuple[str, ...]
    payoff: float  # common payoff of the supported strategies
    eigen_signs: tuple[tuple[str, str], ...]
    stability: str  # "attractive" | "repulsive" | "saddle" | "degenerate"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "location": list(self.location.as_tuple()),
            "support": list(self.support),
            "payoff": self.payoff,
            "eigen_signs": [[d, s] for d, s in self.eigen_signs],
            "stability": self.stability,
        }


@dataclass(frozen=True)
class EdgeRegime:
    """Dynamic regime of one boundary face: portrait number, panel tag, and
    the states attractive within that face."""

    edge: str
    pp: int
    figure: str
    attractors: tuple[StationaryState, ...]

    def as_dict(self) -> dict:
        return {
            "edge": self.edge,
            "pp": self.pp,
            "figure": self.figure,
            "attractors": [s.as_dict() for s in self.attractors],
        }


@dataclass(frozen=True)
class RegimeReport:
    params: Params
    validation: ValidationReport
    edges: tuple[EdgeRegime | None, ...]  # S_N, S_O, S_H, S_P
    global_attractors: tuple[StationaryState, ...]
    global_case: str  # branch tag naming the composition case
    welfare: WelfareReport | None  # None when degenerate
    degenerate: bool

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "branch": self.validation.branch,
            "validation": self.validation.as_dict(),
            "degenerate": self.degenerate,
            "edges": [e.as_dict() if e is not None else None for e in self.edges],
            "global": {
                "case": self.global_case,
                "attractors": [s.as_dict() for s in self.global_attractors],
                "welfare": self.welfare.as_dict() if self.welfare is not None else None,
            },
        }


def _state(label: str, kind: str, location: SimplexState, support: tuple[str, ...],
           payoff: float, signs: tuple[tuple[str, str], ...]) -> StationaryState:
    return StationaryState(
        label=label, kind=kind, location=location, support=support,
        payoff=payoff, eigen_signs=signs, stability=_stability(signs),
    )


# ---------------------------------------------------------------------------
# the boundary inventory and its face restrictions

_VERTICES = tuple(SimplexState(*(1.0 if i == v else 0.0 for i in range(4))) for v in range(4))


def _edge_gaps(A: list[list], a: int, b: int) -> tuple:
    """The payoff gap of a over b is affine in the share s of a along the
    a-b edge: returns it at s = 0 and at s = 1."""
    return A[a][b] - A[b][b], A[a][a] - A[b][a]


def _edge_share(g0, g1):
    """Share of a where that gap vanishes."""
    return g0 / (g0 - g1)


class _Inventory:
    """Every vertex and edge-interior stationary state of the simplex, each
    built once with the eigen signs of all three of its directions.

    ``states`` maps label to state, vertices first, then edges in index
    order.  ``undecided`` lists the edges (index pairs) whose payoff gap
    vanishes within ``tol`` at one end, so whether they carry an interior
    rest point is not decided.
    """

    def __init__(self, p: Params, tol: float) -> None:
        A = payoff_rows(p)
        self.states: dict[str, StationaryState] = {}
        self.undecided: list[tuple[int, int]] = []

        for v, name in enumerate(STRATEGIES):
            # toward W at pure state V: W's payoff advantage, A[W,V] - A[V,V]
            signs = tuple((f"toward {STRATEGIES[w]}", _sign(A[w][v] - A[v][v], tol))
                          for w in range(4) if w != v)
            self.states[name] = _state(name, "vertex", _VERTICES[v], (name,), A[v][v], signs)

        for a, b in itertools.combinations(range(4), 2):
            # an interior root needs a strict sign change of the payoff gap
            g0, g1 = _edge_gaps(A, a, b)
            if abs(g0) <= tol or abs(g1) <= tol:
                self.undecided.append((a, b))
                continue
            if g0 * g1 >= 0.0:
                continue
            s = _edge_share(g0, g1)
            pay = (A[a][a] * A[b][b] - A[a][b] * A[b][a]) / (g1 - g0)
            signs = ((f"along {STRATEGIES[a]}-{STRATEGIES[b]}",
                      _sign(s * (1.0 - s) * (g1 - g0), tol)),)
            signs += tuple(
                (f"toward {STRATEGIES[c]}",
                 _sign(A[c][b] + s * (A[c][a] - A[c][b]) - pay, tol))
                for c in range(4) if c != a and c != b
            )
            xs = [0.0] * 4
            xs[a] = s
            xs[b] = 1.0 - s
            support = (STRATEGIES[a], STRATEGIES[b])
            self.states["+".join(support)] = _state(
                "+".join(support), "edge-interior", SimplexState(*xs), support, pay, signs)

    def in_face(self, face: str, label: str) -> StationaryState:
        """One state as seen inside ``face``: the direction toward the
        face's absent strategy is dropped."""
        s = self.states[label]
        away = f"toward {STRATEGIES[FACE_ABSENT[face]]}"
        signs = tuple(d for d in s.eigen_signs if d[0] != away)
        return _state(s.label, s.kind, s.location, s.support, s.payoff, signs)

    def face(self, face: str) -> list[StationaryState]:
        """Every vertex and edge-interior state on ``face``, seen inside it.
        Raises if one of the face's edges is undecided."""
        absent = FACE_ABSENT[face]
        for a, b in self.undecided:
            if absent not in (a, b):
                raise DegenerateParameterError(
                    f"edge {STRATEGIES[a]}-{STRATEGIES[b]} state existence boundary"
                )
        return [self.in_face(face, label) for label, s in self.states.items()
                if STRATEGIES[absent] not in s.support]


def vertex_eigensigns(p: Params, tol: float = DEFAULT_TOL) -> dict[str, tuple[tuple[str, str], ...]]:
    """Eigenvalue signs at the O, H, P corners of the no-isolation face.

    O repels nothing (both directions carry -alpha); H is guarded by -beta
    and -(beta+delta); P by -epsilon and gamma-epsilon.
    """
    require_valid(p, tol)
    inv = _Inventory(p, tol)
    return {v: inv.in_face("S_N", v).eigen_signs for v in ("O", "H", "P")}


def edge_interior_states(p: Params, tol: float = DEFAULT_TOL) -> list[StationaryState]:
    """Mixed stationary states on the three edges of the no-isolation face.

    The O-P and H-P edges always carry one; the O-H edge only when beta > 0.
    Eigen signs: along the edge, then toward the face's third strategy.
    """
    require_valid(p, tol)
    return [s for s in _Inventory(p, tol).face("S_N") if s.kind == "edge-interior"]


def _face_interior_state(p: Params, face: str, tol: float) -> StationaryState | None:
    """Rest point inside ``face``, if the equal-payoff solve lands there.
    Stability is read off the finite-difference Jacobian of the face flow."""
    active = tuple(i for i in range(4) if i != FACE_ABSENT[face])
    A = payoff_matrix(p)
    # equal payoffs among the three actives, shares sum to 1
    m = np.zeros((3, 3))
    for col, s in enumerate(active):
        m[0, col] = A[active[0], s] - A[active[1], s]
        m[1, col] = A[active[0], s] - A[active[2], s]
        m[2, col] = 1.0
    try:
        sol = np.linalg.solve(m, np.array([0.0, 0.0, 1.0]))
    except np.linalg.LinAlgError:
        return None
    if not (min(sol) > tol and max(sol) < 1.0 - tol):
        return None
    xs = [0.0] * 4
    for s_idx, share in zip(active, sol):
        xs[s_idx] = float(share)
    eigs = _sorted_eigs(fd_jacobian(face_reduced_rhs(p, active), (xs[active[0]], xs[active[1]])))
    signs = tuple(
        (f"face eig {i + 1}", _sign(float(ev.real), SIGN_TOL)) for i, ev in enumerate(eigs)
    )
    support = tuple(STRATEGIES[i] for i in active)
    return _state("+".join(support), "face-interior", SimplexState(*xs), support,
                  float(A[active[0]] @ np.array(xs)), signs)


def face_interior_state(p: Params, tol: float = DEFAULT_TOL) -> StationaryState | None:
    """Stationary state interior to the no-isolation face, if any.

    Exists exactly when beta*epsilon+gamma*delta, alpha*(beta+delta) and
    alpha*(epsilon-gamma) share one strict sign.  Location solves the equal-
    payoff system; stability is read off the numeric Jacobian of the face
    flow (the sign tables do not cover this point).
    """
    require_valid(p, tol)
    exprs = (
        p.beta * p.epsilon + p.gamma * p.delta,
        p.alpha * (p.beta + p.delta),
        p.alpha * (p.epsilon - p.gamma),
    )
    signs = {_sign(v, tol) for v in exprs}
    if "degenerate" in signs:
        raise DegenerateParameterError("face-interior existence expressions on boundary")
    if len(signs) != 1:
        return None
    state = _face_interior_state(p, "S_N", tol)
    if state is None:
        raise InfeasibleLocationError("equal-payoff solve left the open face")
    return state


def full_interior_state(p: Params, tol: float = DEFAULT_TOL) -> StationaryState | None:
    """Stationary state interior to the whole simplex, if any.

    All four payoffs equal the fallback eta there.  In orthant coordinates it
    always carries the strictly positive eigenvalue eta*w, so it is never
    attractive; the full sign pattern is read off the numeric Jacobian of the
    orthant system.
    """
    require_valid(p, tol)
    x1 = p.eta / p.alpha
    det = p.beta * p.epsilon + p.gamma * p.delta  # nonzero when valid
    x2 = p.eta * (p.epsilon - p.gamma) / det
    x3 = p.eta * (p.beta + p.delta) / det
    x4 = 1.0 - x1 - x2 - x3
    coords = (x1, x2, x3, x4)
    if any(abs(v) <= tol for v in coords):
        raise DegenerateParameterError("full-interior state on a boundary face")
    if any(v < 0.0 for v in coords):
        return None
    lv = LVState(x2 / x1, x3 / x1, x4 / x1)
    eigs = numeric_jacobian(lv, p, system="lv-3d")
    esigns = tuple(
        (f"orthant eig {i + 1}", _sign(float(ev.real), SIGN_TOL)) for i, ev in enumerate(eigs)
    )
    return _state("O+H+P+N", "full-interior", SimplexState(*coords), ("O", "H", "P", "N"),
                  p.eta, esigns)


# ---------------------------------------------------------------------------
# numeric Jacobian oracle


def fd_jacobian(f: Callable[[tuple[float, ...]], tuple[float, ...]],
                u: tuple[float, ...], step: float = 1e-6) -> np.ndarray:
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


def face_reduced_rhs(p: Params, active: tuple[int, int, int]):
    """Flow on a boundary face in the coordinates of its first two actives;
    the third share is 1 - u0 - u1 and the absent strategy is pinned at 0."""
    i, j, k = active

    def f(u: tuple[float, ...]) -> tuple[float, float]:
        x = [0.0, 0.0, 0.0, 0.0]
        x[i] = u[0]
        x[j] = u[1]
        x[k] = 1.0 - u[0] - u[1]
        d = replicator_field(tuple(x), p)
        return (d[i], d[j])

    return f


def _sorted_eigs(jac: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(jac)
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


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
        f = face_reduced_rhs(p, (0, 1, 2))
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
    return _sorted_eigs(fd_jacobian(f, u, step))


# ---------------------------------------------------------------------------
# per-face view with interior state, used by the portrait


def face_states(p: Params, face: str, tol: float = DEFAULT_TOL) -> list[StationaryState]:
    """All stationary states on one boundary face: the inventory's vertex
    and edge-interior states restricted to the face (analytic signs), then
    the face-interior state if there is one (finite-difference signs).
    """
    require_valid(p, tol)
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}")
    out = _Inventory(p, tol).face(face)
    interior = _face_interior_state(p, face, tol)
    if interior is not None:
        out.append(interior)
    return out


# ---------------------------------------------------------------------------
# the regime table: each face's panel and degenerate conditions as array
# expressions, read at one point by classify_global and classify_edge_*, and
# over a whole grid by classify_grid


class FaceTable(NamedTuple):
    """One boundary face's regime over the points of a ``Columns``.

    ``panels`` lists (figure, pp, attractors within the face) and ``panel``
    holds each point's index into it.  ``degenerate`` lists (mask, message)
    in the order they are checked: the first that holds at a point leaves
    the face undecided there, with that message.
    """

    face: str
    panels: tuple[tuple[str, int, tuple[str, ...]], ...]
    panel: np.ndarray
    degenerate: tuple[tuple[np.ndarray, str], ...]

    @property
    def undecided(self) -> np.ndarray:
        return functools.reduce(operator.or_, (mask for mask, _ in self.degenerate))

    def attracts(self, label: str) -> np.ndarray:
        """Where ``label`` attracts within the face."""
        return np.array([label in labels for _, _, labels in self.panels])[self.panel]


def _face(face: str, panels: list[tuple], degenerate: list[tuple[np.ndarray, str]]) -> FaceTable:
    """``panels`` lists (figure, pp, attractors, condition); a point takes
    the first panel whose condition holds there."""
    panel = -1
    for k in reversed(range(len(panels))):
        panel = np.where(panels[k][3], k, panel)
    return FaceTable(face, tuple(row[:3] for row in panels), panel, tuple(degenerate))


def regime_table(c: Columns, adm: Admissibility, tol: float) -> dict[str, FaceTable]:
    """Each face's regime at every point of ``c``, in face order.

    Read only where ``adm`` admits the point and finds no degenerate
    quantity: there one sign branch holds, so B-minus is where B-plus is
    not, and every denominator below is away from zero.
    """
    b_plus = adm.b_plus
    above = adm.beta_above_eta
    with np.errstate(all="ignore"):
        hp_det = c.beta * c.epsilon + c.gamma * c.delta  # det of the H/P payoff block
        hp_pos = hp_det > 0.0
        h_in_sn = b_plus & (c.beta > 0.0)
        coex_pay = coexistence_payoff(c)
        coex_beats_fallback = c.eta < coex_pay
        beta_at_eta = abs(c.beta - c.eta) <= tol
        # payoffs at the O-P and O-H mixed states against the fallback
        op_pay = c.alpha * c.epsilon / (c.alpha + c.epsilon)
        oh_pay = c.alpha * c.beta / (c.alpha + c.beta)
        return {
            "S_N": _face("S_N", [
                ("2a", 7, ("O", "H", "P"), h_in_sn & hp_pos),
                ("2b", 35, ("O", "H", "P"), h_in_sn),
                ("2c", 9, ("O", "P"), b_plus & hp_pos),
                ("2d", 37, ("O", "P"), b_plus),
                # branch B-minus: coexistence on the H-P edge attracts when
                # the H/P block determinant is negative
                ("2e", 11, ("O", "H+P"), hp_det < 0.0),
                ("2f", 36, ("O",), True),
            ], [(abs(c.beta) <= tol, f"face S_N case boundary: |beta| <= {tol}")]),
            "S_O": _face("S_O", [
                ("3a", 7, ("H", "P", "N"), b_plus & above & coex_beats_fallback),
                ("3b", 35, ("H", "P", "N"), b_plus & above),
                ("3c", 9, ("P", "N"), b_plus & coex_beats_fallback),
                ("3d", 37, ("P", "N"), b_plus),
                ("3e", 11, ("N", "H+P"), coex_beats_fallback),
                ("3f", 36, ("N",), True),
            ], [(abs(c.eta - coex_pay) <= tol,
                 "fallback payoff on the coexistence-payoff boundary"),
                (b_plus & beta_at_eta, f"face S_O case boundary: |beta-eta| <= {tol}")]),
            "S_H": _face("S_H", [
                ("4a", 7, ("O", "P", "N"), c.eta < op_pay),
                ("4b", 35, ("O", "P", "N"), True),
            ], [(abs(c.eta - op_pay) <= tol, "fallback payoff on the O-P edge-state boundary")]),
            "S_P": _face("S_P", [
                ("5a", 7, ("O", "H", "N"), above & (c.eta < oh_pay)),
                ("5b", 35, ("O", "H", "N"), above),
                ("5c", 37, ("O", "N"), True),
            ], [(beta_at_eta, f"face S_P case boundary: |beta-eta| <= {tol}"),
                (above & (abs(c.eta - oh_pay) <= tol),
                 "fallback payoff on the O-H edge-state boundary")]),
        }


# faces containing each candidate global attractor
_MEMBERSHIP = {
    "O": ("S_N", "S_H", "S_P"),
    "H": ("S_N", "S_O", "S_P"),
    "P": ("S_N", "S_O", "S_H"),
    "N": ("S_O", "S_H", "S_P"),
    "H+P": ("S_N", "S_O"),
}


def _global(faces: dict[str, FaceTable]) -> dict[str, np.ndarray]:
    """Where each candidate attracts from the full simplex: where it
    attracts within every boundary face containing it."""
    return {label: functools.reduce(operator.and_, (faces[f].attracts(label) for f in member))
            for label, member in _MEMBERSHIP.items()}


def _point_regimes(p: Params, tol: float) -> dict[str, FaceTable]:
    c = Columns.of(p)
    return regime_table(c, admissibility(c, tol), tol)


def _edge_regime(table: FaceTable, inv: _Inventory) -> EdgeRegime:
    """A face's regime at one point; raises the first degenerate condition
    that holds."""
    for on, message in table.degenerate:
        if on:
            raise DegenerateParameterError(message)
    figure, pp, labels = table.panels[int(table.panel)]
    return EdgeRegime(table.face, pp, figure,
                      tuple(inv.in_face(table.face, label) for label in labels))


def _classify_edge(p: Params, tol: float, face: str) -> EdgeRegime:
    require_valid(p, tol)
    return _edge_regime(_point_regimes(p, tol)[face], _Inventory(p, tol))


def classify_edge_SN(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-isolation face (O, H, P)."""
    return _classify_edge(p, tol, "S_N")


def classify_edge_SO(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-offline face (H, P, N)."""
    return _classify_edge(p, tol, "S_O")


def classify_edge_SH(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-uncivil face (O, P, N)."""
    return _classify_edge(p, tol, "S_H")


def classify_edge_SP(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-polite face (O, H, N)."""
    return _classify_edge(p, tol, "S_P")


def classify_global(p: Params, tol: float = DEFAULT_TOL, strict: bool = True) -> RegimeReport:
    """Classify all four boundary faces and compose the global attractor set.

    A state attracts from the full simplex exactly when it attracts within
    every boundary face containing it.  With ``strict=False`` a face whose
    classification hits a degenerate boundary is reported as None instead of
    raising, the global set is left empty, and the report is flagged.
    """
    if strict:
        validation = require_valid(p, tol)
    else:
        # degeneracy outranks the admissibility checks, matching require_valid:
        # a boundary point is reported as degenerate, not rejected as invalid
        validation = validate(p, tol)
        if not validation.degenerate_quantities and not (
            validation.positivity_ok and validation.nondominance_ok
        ):
            raise InvalidParameterError("; ".join(validation.messages) or "invalid parameters")
    return _classify_validated(p, validation, tol, strict)


def _classify_validated(
    p: Params, validation: ValidationReport, tol: float, strict: bool,
) -> RegimeReport:
    """``classify_global`` after its admissibility gate, given ``validate(p,
    tol)``'s report, for callers that have validated ``p`` already."""
    global_attractors: tuple[StationaryState, ...] = ()
    welfare = None
    # a degenerate classifying quantity leaves every face table undecided
    degenerate = bool(validation.degenerate_quantities)
    if degenerate:
        edges: list[EdgeRegime | None] = [None] * len(FACES)
    else:
        inv = _Inventory(p, tol)
        faces = _point_regimes(p, tol)
        edges = []
        for table in faces.values():
            try:
                edges.append(_edge_regime(table, inv))
            except DegenerateParameterError:
                if strict:
                    raise
                edges.append(None)
                degenerate = True

    if not degenerate:
        global_attractors = tuple(
            inv.states[label] for label, on in _global(faces).items() if on)
        welfare = welfare_report(global_attractors, p, tol)

    return RegimeReport(
        params=p,
        validation=validation,
        edges=tuple(edges),
        global_attractors=global_attractors,
        global_case=validation.branch or "none",
        welfare=welfare,
        degenerate=degenerate,
    )


class GridRegimes(NamedTuple):
    """``validate`` and ``classify_global(strict=False)`` over the points of
    a ``Columns``, as arrays: what a sweep row reports."""

    valid: np.ndarray  # positivity and nondominance
    degenerate: np.ndarray  # a degenerate quantity, or an undecided face
    branch: np.ndarray  # index into model.BRANCHES
    figures: tuple[tuple[tuple[str, ...], np.ndarray], ...]  # per face: tags, index or -1
    n_attractors: np.ndarray  # -1 where the global set is not decided


def classify_grid(c: Columns, tol: float = DEFAULT_TOL) -> GridRegimes:
    """Classify every point of ``c`` at once, building no state or report.

    The welfare checks of ``welfare_report`` run at every point whose global
    set is decided; the first point that fails one raises its error.
    """
    with np.errstate(all="ignore"):
        adm = admissibility(c, tol)
        faces = regime_table(c, adm, tol)
        classified = adm.valid & ~adm.on_boundary
        decided = {face: classified & ~t.undecided for face, t in faces.items()}
        settled = functools.reduce(operator.and_, decided.values())
        attracts = {label: settled & on for label, on in _global(faces).items()}

        # locations of the candidates: vertices, and the H+P edge state
        s = _edge_share(*_edge_gaps(payoff_rows(c), 1, 2))
        locations = {label: _VERTICES[v].as_tuple() for v, label in enumerate(STRATEGIES)}
        locations["H+P"] = (0.0, s, 1.0 - s, 0.0)
        check_orderings(
            {label: (on, supported_payoffs(locations[label], label.split("+"), c))
             for label, on in attracts.items()}, c, tol)

        return GridRegimes(
            valid=adm.valid,
            degenerate=adm.on_boundary | (classified & ~settled),
            branch=adm.branch,
            figures=tuple((tuple(row[0] for row in t.panels), np.where(decided[face], t.panel, -1))
                          for face, t in faces.items()),
            n_attractors=np.where(settled, sum(attracts.values()), -1),
        )
