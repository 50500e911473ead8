"""Stationary states and dynamic regimes.

Everything observable about the long-run behaviour of the four-strategy flow
is decided by closed-form sign conditions on the boundary stationary states.
They come from one inventory, and every boundary face sees a restriction of
it:

* the inventory builds each boundary rest point once, one for each support
  of one, two or three strategies that has one, with the eigen sign of
  every direction of the full simplex and each face's linearisation there,
  by one solve in integer arithmetic (``_Inventory``).  One formula (``model._edge_state``) gives a vertex or
  edge state's share and payoff, to the inventory and to the table of
  classifying quantities, whose signs of eta against the O-P, O-H and H-P
  payoffs the regime table reads; the inventory's sign toward N at those
  states is that same float, every other sign exact;
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

No tolerance judges any state's signs, and nothing in this module loads
numpy or ``fractions``.

The admissibility table alone decides degeneracy: only
``model.ValidationReport.require`` raises DegenerateParameterError, so
every point ``validate`` accepts has its faces, states and global set.
Here ``tol`` reaches only that table.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from .model import (
    DEFAULT_TOL,
    FACE_ABSENT,
    FACE_ACTIVE,
    STRATEGIES,
    Params,
    SimplexState,
    ValidationReport,
    _edge_state,
    admissibility,
    face_holds,
    payoff_rows,
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


# ---------------------------------------------------------------------------
# the boundary inventory and its face restrictions

class _Inventory:
    """Every rest point of the simplex's boundary, one per support S of
    one, two or three strategies that has one, each with the eigen sign of
    every direction of the full simplex, solved in Python ints.

    ``payoff_rows`` times the common denominator ``scale`` of its floats is
    an integer matrix ``B``.  The shares on S are proportional to the
    signed minors w of S's payoff-gap rows (B of S's first strategy minus B
    of each other), so a state exists exactly where they share one strict
    sign.  ``solves`` keeps each state's weights w and payoff advantages
    ``(Bw)_k - (Bw)_S``, over all four strategies.  Toward an absent
    strategy W the eigenvalue is W's advantage, exactly; toward N at a
    vertex or edge state it is ``eta`` less the state's payoff float, which
    is the table's own ``eta-pay`` quantity, so each face's attractors are
    its states typed attractive.  Inside S, on an edge a-b the flow's
    linearisation is ``x_a x_b (g1 - g0)``, with g the gap of a over b at b
    and at a, labelled ``along a-b``.  On a face it is the matrix of
    ``linearisation``, whose image lies in the tangent plane, so its trace
    and the sum of its 2x2 principal minors are the sum and product of its
    two eigenvalues there (Hofbauer & Sigmund 1998, ch. 7), which give
    their signs in order of real part, labelled ``face eig <k>``.  A sign
    is "degenerate" only at an exact 0; no tolerance judges it.

    Vertex and edge states take their location and payoff from
    ``model._edge_state``, the formula the admissibility table shares; a
    face interior's shares and payoff are the exact quotients, correctly
    rounded.  ``states`` maps label to state, by support size, then in
    index order.  Each edge's end gaps are quantities of the admissibility
    table, or vanish only where it reports a degenerate or dominated point,
    so past ``ValidationReport.require`` whether an edge carries a state is
    decided.
    """

    def __init__(self, p: Params) -> None:
        A = payoff_rows(p)
        ratios = [[a.as_integer_ratio() for a in row] for row in A]
        self.scale = math.lcm(*(d for row in ratios for _, d in row))
        self.B = B = [[n * (self.scale // d) for n, d in row] for row in ratios]
        self.solves: dict[str, tuple[list[int], list[int]]] = {}
        self.states: dict[str, StationaryState] = {}
        for rest in itertools.chain.from_iterable(
                itertools.combinations(range(4), k) for k in (1, 2, 3)):
            r = [[B[rest[0]][j] - B[i][j] for j in rest] for i in rest[1:]]
            if len(rest) == 1:
                w = [1]
            elif len(rest) == 2:
                w = [r[0][1], -r[0][0]]
            else:
                w = [r[0][(k + 1) % 3] * r[1][(k + 2) % 3] - r[0][(k + 2) % 3] * r[1][(k + 1) % 3]
                     for k in range(3)]
            if not (min(w) > 0 or max(w) < 0):
                continue
            weights = [0] * 4
            for i, wi in zip(rest, w):
                weights[i] = abs(wi)
            pays = [sum(b * wj for b, wj in zip(row, weights)) for row in B]
            advantage = [q - pays[rest[0]] for q in pays]
            support = tuple(STRATEGIES[i] for i in rest)
            label = "+".join(support)
            self.solves[label] = (weights, advantage)
            xs = [0.0] * 4
            if len(rest) == 1:
                xs[rest[0]], pay, inside = 1.0, A[rest[0]][rest[0]], ()
            elif len(rest) == 2:
                a, b = rest
                s, pay = _edge_state(A, a, b)
                xs[a], xs[b] = s, 1.0 - s
                inside = ((f"along {STRATEGIES[a]}-{STRATEGIES[b]}", _sign(r[0][0] - r[0][1])),)
            else:
                m = self.linearisation(label, rest)
                tr = m[0][0] + m[1][1] + m[2][2]
                det = sum(m[a][a] * m[b][b] - m[a][b] * m[b][a] for a, b in ((0, 1), (0, 2), (1, 2)))
                eigs = (-1, 1) if det < 0 else (tr, tr) if det > 0 else sorted((tr, 0))
                inside = tuple((f"face eig {k + 1}", _sign(e)) for k, e in enumerate(eigs))
                total = sum(weights)
                xs = [wi / total for wi in weights]
                pay = pays[rest[0]] / (total * self.scale)
            # toward N at a vertex or edge state: the table's eta-pay
            # quantity, whose float can round past tol
            toward = advantage[:3] + [p.eta - pay] if len(rest) < 3 else advantage
            signs = inside + tuple((f"toward {STRATEGIES[v]}", _sign(toward[v]))
                                   for v in range(4) if v not in rest)
            self.states[label] = StationaryState(
                label, ("vertex", "edge-interior", "face-interior")[len(rest) - 1],
                SimplexState(*xs), support, pay, signs, _stability(signs))

    def linearisation(self, label: str, active: Sequence[int]) -> list[list[int]]:
        """The flow's linearisation at state ``label`` over the strategies
        ``active`` of a face that holds it, in ints: ``M_ij = delta_ij total
        adv_i + w_i (B_ij total - adv_j - col_j)``, with w and adv the
        state's ``solves``, ``total`` the sum of w and ``col`` its weighted
        columns of B.  Its chart ``M[a][b] - M[a][2]`` is the chart Jacobian
        times ``scale * total**2``, and its columns sum to 0.  At an edge
        state the advantage of the face's third strategy enters the
        diagonal and, through the mean payoff, every support row."""
        w, adv = self.solves[label]
        total = sum(w)
        col = [sum(wk * row[j] for wk, row in zip(w, self.B)) for j in active]
        return [[(total * adv[i] if i == j else 0) + w[i] * (self.B[i][j] * total - adv[j] - c)
                 for j, c in zip(active, col)] for i in active]

    def in_face(self, face: str, label: str) -> StationaryState:
        """One state as seen inside ``face``: the direction toward the
        face's absent strategy is dropped."""
        s = self.states[label]
        away = f"toward {STRATEGIES[FACE_ABSENT[face]]}"
        signs = tuple(d for d in s.eigen_signs if d[0] != away)
        return s._replace(eigen_signs=signs, stability=_stability(signs))

    def face(self, face: str) -> list[StationaryState]:
        """Every state on ``face``, seen inside it."""
        return [self.in_face(face, label) for label, s in self.states.items()
                if face_holds(face, s.support)]


# ---------------------------------------------------------------------------
# per-face view, used by the portrait


def face_states(p: Params, face: str, tol: float = DEFAULT_TOL) -> list[StationaryState]:
    """All stationary states on one boundary face, each typed by exact
    signs: the inventory's vertex, edge-interior and face-interior states
    on the face, seen inside it.  ``tol`` reaches only ``validate``.
    Raises as ``ValidationReport.require`` does, and ValueError for an
    unknown face.
    """
    validate(p, tol).require()
    if face not in FACE_ACTIVE:
        raise ValueError(f"unknown face {face!r}")
    return _Inventory(p).face(face)


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
        welfare=welfare_report(global_attractors, p) if d.settled else None,
        degenerate=not d.settled,
    )
