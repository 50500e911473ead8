"""Stationary states and dynamic regimes.

Everything observable about the long-run behaviour of the four-strategy flow
is decided by closed-form sign conditions on the boundary stationary states.
They come from one inventory, and every boundary face sees a restriction of
it:

* the inventory builds each vertex, and each edge-interior state of an edge
  whose payoff gap changes sign, once, with the eigen sign of every direction
  of the full simplex.  At a boundary rest point the eigenvalue toward an
  absent strategy W is W's payoff advantage there, and the one along an edge
  is ``s(1-s)(g1-g0)`` for the edge's affine payoff gap g.  One formula
  (``model._edge_state``) gives an edge state's share and payoff, to the
  inventory and, over parameter columns, to the admissibility table, which
  carries the O-P, O-H and H-P states on to the regime table and
  ``classify_grid``;
* a face's view keeps the states whose support avoids the face's absent
  strategy and drops the direction toward that strategy;
* one regime table holds, for each face, the closed-form sign conditions
  that name which of the known planar phase portraits the face realises
  (portrait number ``pp`` and panel tag ``figure``) and which states attract
  within it.  It reads the sign branch from the admissibility table
  (``model.admissibility``), and so where the face is undecided: the
  face-scoped quantities of ``model.FACE_SCOPE``.  It compares the fallback
  eta with the H-P, O-P and O-H edge states' payoffs.  Its conditions are
  array expressions over parameter columns: ``classify_global`` reads them
  at one point and takes the states from the inventory, ``classify_grid``
  reads them over a whole sweep grid at once;
* a state attracts from the full simplex exactly when it is attractive
  inside every boundary face containing it.

The sign tables leave interior states open.  One routine
(``_interior_state``) finds both kinds, a face's and the whole simplex's:
every strategy of the support earns one payoff and the shares sum to 1.
One boundary rule holds for both: a share within tol of 0 raises
DegenerateParameterError, and a negative share or a singular system means
there is no state.  The stability type is read off the eigenvalues of the
replicator flow's analytic Jacobian (``dynamics.replicator_jacobian``) in
the chart of the face, or of the whole simplex, that holds the state.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_TOL,
    STRATEGIES,
    Admissibility,
    Columns,
    DegenerateParameterError,
    Params,
    SimplexState,
    ValidationReport,
    _edge_gaps,
    _edge_state,
    admissibility,
    payoff_matrix,
    payoff_rows,
    require_valid,
    validate,
)
from .welfare import WelfareReport, check_orderings, supported_payoffs, welfare_report

# interior-state eigenvalues closer to zero than this get the "degenerate" sign
SIGN_TOL = 1e-7

# boundary faces named by the strategy that is absent
FACES = ("S_N", "S_O", "S_H", "S_P")
FACE_ABSENT = {"S_N": 3, "S_O": 0, "S_H": 1, "S_P": 2}


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
            s, pay = _edge_state(A, a, b)
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


def _interior_state(p: Params, active: tuple[int, ...], tol: float) -> StationaryState | None:
    """Rest point with support ``active``, a face's three strategies or all
    four: where they all earn one payoff and their shares sum to 1, by one
    linear solve.  None where the system is singular or a share is
    negative; DegenerateParameterError where a share is within ``tol`` of 0,
    since the state then sits on the boundary of its face or simplex.  The
    eigen signs are read off the Jacobian in the chart of ``active``, sorted
    by real part and labelled ``face eig <k>`` or ``orthant eig <k>``."""
    # imported here, so that the sweep, which never reads eigen signs, does
    # not load the integrators
    from .dynamics import replicator_jacobian

    A = payoff_matrix(p)
    n = len(active)
    # the first active strategy's payoff equals each other's; shares sum to 1
    m = np.ones((n, n))
    m[:-1] = A[active[0], active] - A[np.ix_(active[1:], active)]
    try:
        sol = np.linalg.solve(m, np.eye(n)[-1])
    except np.linalg.LinAlgError:
        return None
    kind, name = ("full-interior", "orthant") if n == 4 else ("face-interior", "face")
    if any(abs(v) <= tol for v in sol):
        raise DegenerateParameterError(f"{kind} state on the boundary: a share within {tol} of 0")
    if any(v < 0.0 for v in sol):
        return None
    xs = [0.0] * 4
    for k, share in zip(active, sol):
        xs[k] = float(share)
    eigs = np.linalg.eigvals(replicator_jacobian(xs, p, active))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    signs = tuple((f"{name} eig {i + 1}", _sign(float(ev.real), SIGN_TOL))
                  for i, ev in enumerate(eigs))
    support = tuple(STRATEGIES[i] for i in active)
    return _state("+".join(support), kind, SimplexState(*xs), support,
                  float(A[active[0]] @ np.array(xs)), signs)


# ---------------------------------------------------------------------------
# per-face view with interior state, used by the portrait


def face_states(p: Params, face: str, tol: float = DEFAULT_TOL) -> list[StationaryState]:
    """All stationary states on one boundary face: the inventory's vertex
    and edge-interior states restricted to the face (closed-form signs),
    then the face-interior state if there is one (``_interior_state``,
    Jacobian signs).  Raises DegenerateParameterError where an edge of the
    face is undecided or the face-interior state lies on an edge.
    """
    require_valid(p, tol)
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}")
    out = _Inventory(p, tol).face(face)
    interior = _interior_state(p, tuple(i for i in range(4) if i != FACE_ABSENT[face]), tol)
    if interior is not None:
        out.append(interior)
    return out


# ---------------------------------------------------------------------------
# the regime table: each face's panels as array expressions, read at one
# point by classify_global, and over a whole grid by classify_grid


class FaceTable(NamedTuple):
    """One boundary face's regime over the points of a ``Columns``.

    ``panels`` lists (figure, pp, attractors within the face) and ``panel``
    holds each point's index into it; ``undecided`` is where a face-scoped
    quantity of the admissibility table leaves the face undecided.
    """

    face: str
    panels: tuple[tuple[str, int, tuple[str, ...]], ...]
    panel: np.ndarray
    undecided: np.ndarray

    def attracts(self, label: str) -> np.ndarray:
        """Where ``label`` attracts within the face."""
        return np.array([label in labels for _, _, labels in self.panels])[self.panel]


def _face(adm: Admissibility, face: str, panels: list[tuple]) -> FaceTable:
    """``panels`` lists (figure, pp, attractors, condition); a point takes
    the first panel whose condition holds there."""
    panel = -1
    for k in reversed(range(len(panels))):
        panel = np.where(panels[k][3], k, panel)
    return FaceTable(face, tuple(row[:3] for row in panels), panel, adm.undecided(face))


def regime_table(c: Columns, adm: Admissibility) -> dict[str, FaceTable]:
    """Each face's regime at every point of ``c``, in face order.

    Read only where ``adm`` admits the point and finds no global degenerate
    quantity: there one sign branch holds, so B-minus is where B-plus is
    not, and every denominator below is away from zero.
    """
    b_plus = adm.b_plus
    above = adm.beta_above_eta
    # payoffs at the H-P, O-P and O-H mixed states, against the fallback
    _, coex_pay = adm.edge_states["H+P"]
    _, op_pay = adm.edge_states["O+P"]
    _, oh_pay = adm.edge_states["O+H"]
    with np.errstate(all="ignore"):
        hp_det = c.beta * c.epsilon + c.gamma * c.delta  # det of the H/P payoff block
        hp_pos = hp_det > 0.0
        h_in_sn = b_plus & (c.beta > 0.0)
        coex_beats_fallback = c.eta < coex_pay
        return {
            "S_N": _face(adm, "S_N", [
                ("2a", 7, ("O", "H", "P"), h_in_sn & hp_pos),
                ("2b", 35, ("O", "H", "P"), h_in_sn),
                ("2c", 9, ("O", "P"), b_plus & hp_pos),
                ("2d", 37, ("O", "P"), b_plus),
                # branch B-minus: coexistence on the H-P edge attracts when
                # the H/P block determinant is negative
                ("2e", 11, ("O", "H+P"), hp_det < 0.0),
                ("2f", 36, ("O",), True),
            ]),
            "S_O": _face(adm, "S_O", [
                ("3a", 7, ("H", "P", "N"), b_plus & above & coex_beats_fallback),
                ("3b", 35, ("H", "P", "N"), b_plus & above),
                ("3c", 9, ("P", "N"), b_plus & coex_beats_fallback),
                ("3d", 37, ("P", "N"), b_plus),
                ("3e", 11, ("N", "H+P"), coex_beats_fallback),
                ("3f", 36, ("N",), True),
            ]),
            "S_H": _face(adm, "S_H", [
                ("4a", 7, ("O", "P", "N"), c.eta < op_pay),
                ("4b", 35, ("O", "P", "N"), True),
            ]),
            "S_P": _face(adm, "S_P", [
                ("5a", 7, ("O", "H", "N"), above & (c.eta < oh_pay)),
                ("5b", 35, ("O", "H", "N"), above),
                ("5c", 37, ("O", "N"), True),
            ]),
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


def _edge_regime(table: FaceTable, inv: _Inventory) -> EdgeRegime | None:
    """A face's regime at one point, or None where it is undecided."""
    if table.undecided:
        return None
    figure, pp, labels = table.panels[int(table.panel)]
    return EdgeRegime(table.face, pp, figure,
                      tuple(inv.in_face(table.face, label) for label in labels))


def classify_global(p: Params, tol: float = DEFAULT_TOL, strict: bool = True) -> RegimeReport:
    """Classify all four boundary faces and compose the global attractor set.

    A state attracts from the full simplex exactly when it attracts within
    every boundary face containing it.  Raises as ``require_valid`` does.
    With ``strict=False`` a degenerate point is reported instead: a global
    degenerate quantity leaves every face None, a face-scoped one the faces
    in its scope, the global set is left empty, and the report is flagged.
    """
    try:
        validation = require_valid(p, tol)
    except DegenerateParameterError:
        # degeneracy outranks invalidity in require_valid, so a lax report
        # flags a boundary point as degenerate instead of rejecting it
        if strict:
            raise
        validation = validate(p, tol)
    global_attractors: tuple[StationaryState, ...] = ()
    welfare = None
    degenerate = bool(validation.degenerate_quantities)
    edges: list[EdgeRegime | None] = [None] * len(FACES)
    if validation.admissible:
        inv = _Inventory(p, tol)
        c = Columns.of(p)
        with np.errstate(all="ignore"):
            faces = regime_table(c, admissibility(c, tol))
        edges = [_edge_regime(table, inv) for table in faces.values()]

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
        faces = regime_table(c, adm)
        classified = adm.valid & ~adm.on_boundary
        decided = {face: classified & ~t.undecided for face, t in faces.items()}
        settled = functools.reduce(operator.and_, decided.values())
        attracts = {label: settled & on for label, on in _global(faces).items()}

        # locations of the candidates: vertices, and the H+P edge state
        s, _ = adm.edge_states["H+P"]
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
