"""The regime table: each boundary face's phase-portrait panels as data,
and the one decision read off it.

For each face ``PANELS`` lists, in the order a point tries them, the
planar phase portraits it can realise: panel tag ``figure``, portrait
number ``pp``, the states that attract within the face, and a conjunction
of sign literals.  A literal ``(quantity, sign)`` holds where that kept
classifying quantity (``Admissibility.quantities``) is ``> 0`` (sign +1)
or ``< 0`` (sign -1), on a ``Params``'s floats (loading no numpy), on
numpy columns and on ``Fraction`` fields alike.

``decide`` reads both tables into where each face is decided (no
face-scoped quantity that the face's literals name, ``SCOPES``, is
degenerate), where all are, and where each candidate attracts from the
full simplex: where it attracts within every face that holds it
(``model.face_holds``).  ``classify.classify_global`` reads the decision
at the floats of one point; ``classify_grid`` reads it over a whole sweep
grid at once and builds no state or report, so a sweep loads this module
and not ``classify``.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, NamedTuple

from .model import (DEFAULT_TOL, FACE_SCOPE, FACES, STRATEGIES, Admissibility, Columns,
                    admissibility, face_holds)
from .welfare import check_orderings, supported_payoffs

if TYPE_CHECKING:
    import numpy as np


class FaceTable(NamedTuple):
    """One boundary face's regime at the floats of a ``Params``, or over the
    points of a ``Columns``: ``panels`` lists (figure, pp, attractors within
    the face) and ``panel`` holds each point's index into it."""

    panels: tuple[tuple[str, int, tuple[str, ...]], ...]
    panel: np.ndarray

    def attracts(self, label: str) -> np.ndarray:
        """Where ``label`` attracts within the face."""
        return functools.reduce(operator.or_, (self.panel == k for k, (_, _, labels)
                                               in enumerate(self.panels) if label in labels),
                                False)


# where the table is read, beta+delta > 0 is branch B-plus and <= 0 B-minus
_B_PLUS = ("beta+delta", 1)
_H_WINS = ("beta-eta", 1)  # the all-uncivil payoff beats the fallback
_COEX = ("eta-pay(H+P)", -1)  # the fallback below the H-P edge state's payoff

# each face's panels: (figure, pp, attractors within the face, literals)
PANELS = {
    "S_N": (
        ("2a", 7, ("O", "H", "P"), (_B_PLUS, ("beta", 1), ("beta*epsilon+gamma*delta", 1))),
        ("2b", 35, ("O", "H", "P"), (_B_PLUS, ("beta", 1))),
        ("2c", 9, ("O", "P"), (_B_PLUS, ("beta*epsilon+gamma*delta", 1))),
        ("2d", 37, ("O", "P"), (_B_PLUS,)),
        # B-minus: H-P coexistence attracts where the H/P payoff block's
        # determinant, beta*epsilon+gamma*delta, is negative
        ("2e", 11, ("O", "H+P"), (("beta*epsilon+gamma*delta", -1),)),
        ("2f", 36, ("O",), ()),
    ),
    "S_O": (
        ("3a", 7, ("H", "P", "N"), (_B_PLUS, _H_WINS, _COEX)),
        ("3b", 35, ("H", "P", "N"), (_B_PLUS, _H_WINS)),
        ("3c", 9, ("P", "N"), (_B_PLUS, _COEX)),
        ("3d", 37, ("P", "N"), (_B_PLUS,)),
        ("3e", 11, ("N", "H+P"), (_COEX,)),
        ("3f", 36, ("N",), ()),
    ),
    "S_H": (
        ("4a", 7, ("O", "P", "N"), (("eta-pay(O+P)", -1),)),
        ("4b", 35, ("O", "P", "N"), ()),
    ),
    "S_P": (
        ("5a", 7, ("O", "H", "N"), (_H_WINS, ("eta-pay(O+H)", -1))),
        ("5b", 35, ("O", "H", "N"), (_H_WINS,)),
        ("5c", 37, ("O", "N"), ()),
    ),
}

# each face-scoped quantity, with the faces whose literals name it
SCOPES = {name: tuple(face for face, rows in PANELS.items()
                      if name in {q for row in rows for q, _ in row[3]}) for name in FACE_SCOPE}


def regime_table(adm: Admissibility) -> dict[str, FaceTable]:
    """Each face's regime, in face order: ``PANELS`` read off ``adm``, the
    admissibility table at the floats of a ``Params`` or over a ``Columns``.

    Read only where ``adm`` admits the point and finds no global degenerate
    quantity.  A point takes a face's first panel whose literals all hold
    there, selected by arithmetic that holds on a bool as on a mask.
    Callers that pass columns silence numpy's warnings.
    """
    q, tables = adm.quantities, {}
    for face, rows in PANELS.items():
        panel = -1
        for k in reversed(range(len(rows))):
            holds = functools.reduce(operator.and_, (
                q[name] > 0.0 if sign > 0 else q[name] < 0.0 for name, sign in rows[k][3]), True)
            panel += (k - panel) * holds
        tables[face] = FaceTable(tuple(row[:3] for row in rows), panel)
    return tables


# the candidate global attractors in report order, vertices then the H-P
# edge state, each with the faces that hold it
_CANDIDATES = {label: tuple(face for face in FACES if face_holds(face, label.split("+")))
               for label in STRATEGIES + ("H+P",)}


class Decision(NamedTuple):
    """What the two tables decide, at the floats of a ``Params`` or over a ``Columns``."""

    faces: dict[str, FaceTable]  # each face's regime, in face order
    decided: dict[str, np.ndarray]  # admitted, and no face-scoped quantity undecides it
    settled: np.ndarray  # every face decided
    attracts: dict[str, np.ndarray]  # settled, and the candidate attracts globally


def decide(adm: Admissibility) -> Decision:
    """Read the regime table off ``adm``, the admissibility table, where it
    admits the point and finds no global degenerate quantity.

    A candidate attracts from the full simplex exactly when it attracts
    within every boundary face that holds it.
    """
    faces = regime_table(adm)
    classified = adm.valid & (adm.on_boundary ^ True)
    decided = {face: classified & (functools.reduce(operator.or_, (
        adm.face_degenerate[q] for q, held in SCOPES.items() if face in held)) ^ True)
        for face in faces}
    settled = functools.reduce(operator.and_, decided.values())
    attracts = {label: functools.reduce(operator.and_, (faces[f].attracts(label) for f in held),
                                        settled) for label, held in _CANDIDATES.items()}
    return Decision(faces, decided, settled, attracts)


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
    import numpy as np

    with np.errstate(all="ignore"):
        adm = admissibility(c, tol)
        d = decide(adm)

        # locations of the candidates: vertices, and the H+P edge state
        locations = {label: tuple(1.0 if i == v else 0.0 for i in range(4))
                     for v, label in enumerate(STRATEGIES)}
        locations["H+P"] = (0.0, adm.hp_share, 1.0 - adm.hp_share, 0.0)
        check_orderings(
            {label: (on, supported_payoffs(locations[label], label.split("+"), c))
             for label, on in d.attracts.items()}, c)

        # each code lies in -1..6, so int8 holds it in an eighth of the memory
        return GridRegimes(
            valid=adm.valid,
            degenerate=adm.on_boundary | (adm.valid & ~d.settled),
            branch=adm.branch.astype(np.int8),
            figures=tuple((tuple(row[0] for row in t.panels),
                           np.where(d.decided[face], t.panel, -1).astype(np.int8))
                          for face, t in d.faces.items()),
            n_attractors=np.where(d.settled, sum(d.attracts.values()), -1).astype(np.int8),
        )
