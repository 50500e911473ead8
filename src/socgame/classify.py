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
* each face's regime table reads its view and names which of the known
  planar phase portraits the face realises (portrait number ``pp`` and panel
  tag ``figure``);
* a state attracts from the full simplex exactly when it is attractive
  inside every boundary face containing it; the global attractors are taken
  from the inventory itself.

The sign tables leave one question open, the stability type of interior
states: it is read off a finite-difference Jacobian (``numeric_jacobian``),
which also serves as the independent oracle for the analytic signs in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    DEFAULT_TOL,
    STRATEGIES,
    DegenerateParameterError,
    InvalidParameterError,
    Params,
    SimplexState,
    ValidationReport,
    coexistence_payoff,
    payoff_matrix,
    require_valid,
    validate,
)
from .dynamics import LVState, lv_rhs_2d, orthant_field, replicator_field
from .welfare import WelfareReport, welfare_report

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


class _Inventory:
    """Every vertex and edge-interior stationary state of the simplex, each
    built once with the eigen signs of all three of its directions.

    ``states`` maps label to state, vertices first, then edges in index
    order.  ``undecided`` lists the edges (index pairs) whose payoff gap
    vanishes within ``tol`` at one end, so whether they carry an interior
    rest point is not decided.
    """

    def __init__(self, p: Params, tol: float) -> None:
        A = payoff_matrix(p).tolist()
        self.states: dict[str, StationaryState] = {}
        self.undecided: list[tuple[int, int]] = []

        for v, name in enumerate(STRATEGIES):
            # toward W at pure state V: W's payoff advantage, A[W,V] - A[V,V]
            signs = tuple((f"toward {STRATEGIES[w]}", _sign(A[w][v] - A[v][v], tol))
                          for w in range(4) if w != v)
            self.states[name] = _state(name, "vertex", _VERTICES[v], (name,), A[v][v], signs)

        for a, b in itertools.combinations(range(4), 2):
            # payoff gap of a over b is affine in the share s of a:
            # g0 at s = 0, g1 at s = 1; an interior root needs a strict sign change
            g0 = A[a][b] - A[b][b]
            g1 = A[a][a] - A[b][a]
            if abs(g0) <= tol or abs(g1) <= tol:
                self.undecided.append((a, b))
                continue
            if g0 * g1 >= 0.0:
                continue
            s = g0 / (g0 - g1)
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
# per-face regime tables; the public classify_edge_* validate first, while
# classify_global validates once and shares one inventory among the faces


def _regime_SN(p: Params, inv: _Inventory, tol: float) -> EdgeRegime:
    if abs(p.beta) <= tol:
        raise DegenerateParameterError(f"face S_N case boundary: |beta| <= {tol}")
    hp_det = p.beta * p.epsilon + p.gamma * p.delta  # det of the H/P payoff block
    v_o, v_h, v_p = (inv.in_face("S_N", v) for v in ("O", "H", "P"))

    if p.gamma < p.epsilon and p.beta > 0.0:
        pp, fig = (7, "2a") if hp_det > 0.0 else (35, "2b")
        attractors: tuple[StationaryState, ...] = (v_o, v_h, v_p)
    elif p.gamma < p.epsilon:
        pp, fig = (9, "2c") if hp_det > 0.0 else (37, "2d")
        attractors = (v_o, v_p)
    else:
        # branch B-minus: coexistence on the H-P edge attracts when the H/P
        # block determinant is negative
        if hp_det < 0.0:
            pp, fig = 11, "2e"
            attractors = (v_o, inv.in_face("S_N", "H+P"))
        else:
            pp, fig = 36, "2f"
            attractors = (v_o,)
    return EdgeRegime("S_N", pp, fig, attractors)


def _regime_SO(p: Params, inv: _Inventory, tol: float) -> EdgeRegime:
    coex_pay = coexistence_payoff(p)
    if abs(p.eta - coex_pay) <= tol:
        raise DegenerateParameterError("fallback payoff on the coexistence-payoff boundary")
    coex_beats_fallback = p.eta < coex_pay
    v_h, v_p, v_n = (inv.in_face("S_O", v) for v in ("H", "P", "N"))

    if p.gamma < p.epsilon:
        if abs(p.beta - p.eta) <= tol:
            raise DegenerateParameterError(f"face S_O case boundary: |beta-eta| <= {tol}")
        if p.beta > p.eta:
            pp, fig = (7, "3a") if coex_beats_fallback else (35, "3b")
            attractors: tuple[StationaryState, ...] = (v_h, v_p, v_n)
        else:
            pp, fig = (9, "3c") if coex_beats_fallback else (37, "3d")
            attractors = (v_p, v_n)
    else:
        if coex_beats_fallback:
            pp, fig = 11, "3e"
            attractors = (v_n, inv.in_face("S_O", "H+P"))
        else:
            pp, fig = 36, "3f"
            attractors = (v_n,)
    return EdgeRegime("S_O", pp, fig, attractors)


def _regime_SH(p: Params, inv: _Inventory, tol: float) -> EdgeRegime:
    # payoff at the O-P mixed state vs the fallback decides the panel
    op_pay = p.alpha * p.epsilon / (p.alpha + p.epsilon)
    if abs(p.eta - op_pay) <= tol:
        raise DegenerateParameterError("fallback payoff on the O-P edge-state boundary")
    pp, fig = (7, "4a") if p.eta < op_pay else (35, "4b")
    attractors = tuple(inv.in_face("S_H", v) for v in ("O", "P", "N"))
    return EdgeRegime("S_H", pp, fig, attractors)


def _regime_SP(p: Params, inv: _Inventory, tol: float) -> EdgeRegime:
    if abs(p.beta - p.eta) <= tol:
        raise DegenerateParameterError(f"face S_P case boundary: |beta-eta| <= {tol}")
    v_o, v_h, v_n = (inv.in_face("S_P", v) for v in ("O", "H", "N"))
    if p.beta > p.eta:
        oh_pay = p.alpha * p.beta / (p.alpha + p.beta)
        if abs(p.eta - oh_pay) <= tol:
            raise DegenerateParameterError("fallback payoff on the O-H edge-state boundary")
        pp, fig = (7, "5a") if p.eta < oh_pay else (35, "5b")
        attractors: tuple[StationaryState, ...] = (v_o, v_h, v_n)
    else:
        pp, fig = 37, "5c"
        attractors = (v_o, v_n)
    return EdgeRegime("S_P", pp, fig, attractors)


_REGIMES = {"S_N": _regime_SN, "S_O": _regime_SO, "S_H": _regime_SH, "S_P": _regime_SP}


def classify_edge_SN(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-isolation face (O, H, P)."""
    require_valid(p, tol)
    return _regime_SN(p, _Inventory(p, tol), tol)


def classify_edge_SO(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-offline face (H, P, N)."""
    require_valid(p, tol)
    return _regime_SO(p, _Inventory(p, tol), tol)


def classify_edge_SH(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-uncivil face (O, P, N)."""
    require_valid(p, tol)
    return _regime_SH(p, _Inventory(p, tol), tol)


def classify_edge_SP(p: Params, tol: float = DEFAULT_TOL) -> EdgeRegime:
    """Regime of the no-polite face (O, H, N)."""
    require_valid(p, tol)
    return _regime_SP(p, _Inventory(p, tol), tol)


# faces containing each candidate global attractor
_MEMBERSHIP = {
    "O": ("S_N", "S_H", "S_P"),
    "H": ("S_N", "S_O", "S_P"),
    "P": ("S_N", "S_O", "S_H"),
    "N": ("S_O", "S_H", "S_P"),
    "H+P": ("S_N", "S_O"),
}


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
        edges = []
        for face in FACES:
            try:
                edges.append(_REGIMES[face](p, inv, tol))
            except DegenerateParameterError:
                if strict:
                    raise
                edges.append(None)
                degenerate = True

    if not degenerate:
        by_face = {e.edge: {s.label for s in e.attractors} for e in edges}
        global_attractors = tuple(
            inv.states[label] for label, faces in _MEMBERSHIP.items()
            if all(label in by_face[f] for f in faces)
        )
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
