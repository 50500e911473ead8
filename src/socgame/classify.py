"""Stationary states and dynamic regimes.

Everything observable about the long-run behaviour of the four-strategy flow
is decided by closed-form sign conditions on the boundary stationary states.
They come from one inventory, and every boundary face sees a restriction of
it:

* the inventory builds each vertex, and each edge-interior state of an edge
  whose payoff gap changes sign, once, with the eigen sign of every direction
  of the full simplex.  At a boundary rest point the eigenvalue toward an
  absent strategy W is W's payoff advantage there, and the one along an edge
  is ``s(1-s)(g1-g0)`` for the edge's affine payoff gap g, which has the
  sign of ``g1 - g0``.  A sign is "degenerate" only at an exact 0.  One formula
  (``model._edge_state``) gives an edge state's share and payoff, to the
  inventory and to the table of classifying quantities, whose signs of
  eta against the O-P, O-H and H-P payoffs the regime table reads;
* a face's view keeps the states whose support avoids the face's absent
  strategy and drops the direction toward that strategy;
* the regime table (``regimes.PANELS``) lists, for each face, the sign
  literals over the classifying quantities that name which known planar
  phase portrait the face realises and which states attract within it,
  on one point's floats and on columns alike.  One decision
  (``regimes.decide``) reads it: ``classify_global`` at one point, with the
  states from the inventory, and ``regimes.classify_grid`` over a whole
  sweep grid, so a sweep never loads this module;
* a state attracts from the full simplex exactly when it is attractive
  inside every boundary face that holds it.

The sign tables leave a face's interior state open.  ``_interior_state``,
which only ``face_states`` calls, finds it where the face's three strategies
earn one payoff, by Cramer's rule in exact ``Fraction`` arithmetic on the
parameters' floats, and types it from the trace and determinant of the
flow's linearisation on the face's tangent plane.  So no tolerance judges
any state's signs, and nothing in this module loads numpy.

The admissibility table alone decides degeneracy: only
``model.ValidationReport.require`` raises DegenerateParameterError, so
every point ``validate`` accepts has its faces, states and global set.
Here ``tol`` reaches only that table and the welfare tie groups.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .model import (
    DEFAULT_TOL,
    FACE_ABSENT,
    FACE_ACTIVE,
    STRATEGIES,
    Params,
    SimplexState,
    ValidationReport,
    _edge_gaps,
    _edge_state,
    admissibility,
    face_holds,
    payoff_rows,
    payoff_vector,
    validate,
)
from .regimes import FaceTable, decide
from .welfare import WelfareReport, welfare_report

def _sign(v) -> str:
    """An eigenvalue's sign: "degenerate" only where it is exactly 0."""
    if v == 0:
        return "degenerate"
    return "+" if v > 0 else "-"


def _stability(signs: Sequence[tuple[str, str]]) -> str:
    vals = {s for _, s in signs}
    if "degenerate" in vals:
        return "degenerate"
    if vals <= {"-"}:
        return "attractive"
    if vals == {"+"}:
        return "repulsive"
    return "saddle"


class StationaryState(NamedTuple):
    label: str  # e.g. "O", "H+P", "O+H+P"
    kind: str  # "vertex" | "edge-interior" | "face-interior"
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


class EdgeRegime(NamedTuple):
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


class RegimeReport(NamedTuple):
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

class _Inventory:
    """Every vertex and edge-interior stationary state of the simplex, each
    built once with the eigen signs of all three of its directions, by one
    exact rule: toward an absent strategy W the eigenvalue is W's payoff
    advantage at the point, and along an edge it is ``s(1-s)(g1-g0)`` with
    ``s(1-s) > 0``, so it has the sign of ``g1 - g0``.  A sign is
    "degenerate" only where its float is exactly 0; no tolerance judges it.

    ``states`` maps label to state, vertices first, then edges in index
    order.  Each edge's end gaps are quantities of the admissibility table,
    or vanish only where it reports a degenerate or dominated point, so
    past ``ValidationReport.require`` whether an edge carries a state is
    decided.
    """

    def __init__(self, p: Params) -> None:
        A = payoff_rows(p)
        self.states: dict[str, StationaryState] = {}
        for rest in [(v,) for v in range(4)] + list(itertools.combinations(range(4), 2)):
            xs = [0.0] * 4
            if len(rest) == 1:
                xs[rest[0]] = 1.0
                pay, signs = A[rest[0]][rest[0]], ()
            else:
                a, b = rest
                # an interior root needs a strict sign change of the payoff gap
                g0, g1 = _edge_gaps(A, a, b)
                if g0 * g1 >= 0.0:
                    continue
                s, pay = _edge_state(A, a, b)
                xs[a], xs[b] = s, 1.0 - s
                signs = ((f"along {STRATEGIES[a]}-{STRATEGIES[b]}", _sign(g1 - g0)),)
            payoffs = payoff_vector(xs, p)
            signs += tuple((f"toward {STRATEGIES[w]}", _sign(payoffs[w] - pay))
                           for w in range(4) if w not in rest)
            support = tuple(STRATEGIES[i] for i in rest)
            self.states["+".join(support)] = _state(
                "+".join(support), "vertex" if len(rest) == 1 else "edge-interior",
                SimplexState(*xs), support, pay, signs)

    def in_face(self, face: str, label: str) -> StationaryState:
        """One state as seen inside ``face``: the direction toward the
        face's absent strategy is dropped."""
        s = self.states[label]
        away = f"toward {STRATEGIES[FACE_ABSENT[face]]}"
        signs = tuple(d for d in s.eigen_signs if d[0] != away)
        return _state(s.label, s.kind, s.location, s.support, s.payoff, signs)

    def face(self, face: str) -> list[StationaryState]:
        """Every vertex and edge-interior state on ``face``, seen inside it."""
        return [self.in_face(face, label) for label, s in self.states.items()
                if face_holds(face, s.support)]


def _interior_state(p: Params, active: tuple[int, ...]) -> StationaryState | None:
    """Rest point inside the face of ``active``, its three strategies, in
    exact arithmetic on the parameters' floats: by Cramer's rule, the cross
    product of the payoff-gap rows of the first against the others, over
    its sum.  None where that sum is 0 or a share is not positive.

    There M_ij = x_i (A_ij - sum_k x_k A_kj) maps onto the face's tangent
    plane, where its two eigenvalues sum to tr M and multiply to the sum of
    its 2x2 principal minors (Hofbauer & Sigmund 1998, ch. 7).  So they
    give the signs, in order of real part and labelled ``face eig <k>``:
    "degenerate" only where exactly 0."""
    from fractions import Fraction

    A = [[Fraction(a) for a in row] for row in payoff_rows(p)]
    r = [[A[active[0]][j] - A[i][j] for j in active] for i in active[1:]]
    cross = [r[0][(k + 1) % 3] * r[1][(k + 2) % 3] - r[0][(k + 2) % 3] * r[1][(k + 1) % 3]
             for k in range(3)]
    total = sum(cross)
    if total == 0:
        return None
    x = [c / total for c in cross]
    if min(x) <= 0:
        return None
    col = [sum(x[k] * A[i][j] for k, i in enumerate(active)) for j in active]
    m = [[x[a] * (A[i][j] - col[b]) for b, j in enumerate(active)] for a, i in enumerate(active)]
    tr = m[0][0] + m[1][1] + m[2][2]
    det = sum(m[a][a] * m[b][b] - m[a][b] * m[b][a] for a, b in ((0, 1), (0, 2), (1, 2)))
    eigs = (-1, 1) if det < 0 else (tr, tr) if det > 0 else sorted((tr, 0))
    signs = tuple((f"face eig {k + 1}", _sign(e)) for k, e in enumerate(eigs))
    xs = [0.0] * 4
    for i, share in zip(active, x):
        xs[i] = float(share)
    support = tuple(STRATEGIES[i] for i in active)
    return _state("+".join(support), "face-interior", SimplexState(*xs), support,
                  float(sum(A[active[0]][i] * share for i, share in zip(active, x))), signs)


# ---------------------------------------------------------------------------
# per-face view with interior state, used by the portrait


def face_states(p: Params, face: str, tol: float = DEFAULT_TOL) -> list[StationaryState]:
    """All stationary states on one boundary face: the inventory's vertex
    and edge-interior states restricted to the face, then the face-interior
    state if there is one (``_interior_state``), each typed by exact signs.
    ``tol`` reaches only ``validate``.  Raises as
    ``ValidationReport.require`` does, and ValueError for an unknown face.
    """
    validate(p, tol).require()
    if face not in FACE_ACTIVE:
        raise ValueError(f"unknown face {face!r}")
    out = _Inventory(p).face(face)
    interior = _interior_state(p, FACE_ACTIVE[face])
    if interior is not None:
        out.append(interior)
    return out


def _edge_regime(face: str, table: FaceTable, inv: _Inventory) -> EdgeRegime:
    """A decided face's regime at one point."""
    figure, pp, labels = table.panels[table.panel]
    return EdgeRegime(face, pp, figure, tuple(inv.in_face(face, label) for label in labels))


def classify_global(p: Params, tol: float = DEFAULT_TOL, strict: bool = True) -> RegimeReport:
    """Classify all four boundary faces and compose the global attractor set.

    A state attracts from the full simplex exactly when it attracts within
    every boundary face containing it.  Raises as
    ``ValidationReport.require`` does.  With ``strict=False`` a degenerate
    point (exit code 3) is reported instead: a global degenerate quantity
    leaves every face None, a face-scoped one the faces in its scope, the
    global set is left empty, and the report is flagged.
    """
    validation = validate(p, tol)
    if strict or validation.code != 3:
        validation.require()
    d = decide(admissibility(p, tol))
    inv = _Inventory(p) if validation.admissible else None
    global_attractors = tuple(inv.states[label] for label, on in d.attracts.items() if on)

    return RegimeReport(
        params=p,
        validation=validation,
        edges=tuple(_edge_regime(face, table, inv) if d.decided[face] else None
                    for face, table in d.faces.items()),
        global_attractors=global_attractors,
        global_case=validation.branch or "none",
        welfare=welfare_report(global_attractors, p, tol) if d.settled else None,
        degenerate=not d.settled,
    )
