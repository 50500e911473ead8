"""The regime table: each boundary face's phase-portrait panels, and the
one decision read off it.

For each face the table holds the closed-form sign conditions that name
which of the known planar phase portraits the face realises (portrait
number ``pp`` and panel tag ``figure``) and which states attract within it.
It reads the sign branch and the signs of the classifying quantities
(``model._quantities``) that the admissibility table keeps, and like that
table it holds on a ``Params``'s floats, loading no numpy, and on numpy columns.

``decide`` reads both tables into where each face is decided (no
face-scoped quantity of ``model.FACE_SCOPE`` leaves it undecided), where
all are, and where each candidate attracts from the full simplex: where it
attracts within every face that holds it (``model.face_holds``).
``classify.classify_global`` reads the decision at the floats of one point;
``classify_grid`` reads it over a whole sweep grid at once and builds no
state or report, so a sweep loads this module and not ``classify``.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, NamedTuple

from .model import (DEFAULT_TOL, FACES, STRATEGIES, Admissibility, Columns,
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


def _face(panels: list[tuple]) -> FaceTable:
    """``panels`` lists (figure, pp, attractors, condition); a point takes
    the first panel whose condition holds there, selected by arithmetic that
    holds on a bool as on a mask."""
    panel = -1
    for k in reversed(range(len(panels))):
        holds = panels[k][3]
        panel = k * holds + panel * (holds ^ True)
    return FaceTable(tuple(row[:3] for row in panels), panel)


def regime_table(adm: Admissibility) -> dict[str, FaceTable]:
    """Each face's regime, in face order, read off ``adm``, the admissibility
    table at the floats of a ``Params`` or over a ``Columns``.

    Read only where ``adm`` admits the point and finds no global degenerate
    quantity: there one sign branch holds, so B-minus is where B-plus is
    not, and every denominator is away from zero.  Callers that pass
    columns silence numpy's warnings.
    """
    b_plus = adm.b_plus
    above = adm.beta_above_eta
    q = adm.quantities
    hp_det = q["beta*epsilon+gamma*delta"]  # det of the H/P payoff block
    hp_pos = hp_det > 0.0
    h_in_sn = b_plus & (q["beta"] > 0.0)
    # the fallback eta below the H-P, O-P and O-H edge-state payoffs
    coex_beats_fallback = q["eta-pay(H+P)"] < 0.0
    return {
        "S_N": _face([
            ("2a", 7, ("O", "H", "P"), h_in_sn & hp_pos),
            ("2b", 35, ("O", "H", "P"), h_in_sn),
            ("2c", 9, ("O", "P"), b_plus & hp_pos),
            ("2d", 37, ("O", "P"), b_plus),
            # branch B-minus: coexistence on the H-P edge attracts when
            # the H/P block determinant is negative
            ("2e", 11, ("O", "H+P"), hp_det < 0.0),
            ("2f", 36, ("O",), True),
        ]),
        "S_O": _face([
            ("3a", 7, ("H", "P", "N"), b_plus & above & coex_beats_fallback),
            ("3b", 35, ("H", "P", "N"), b_plus & above),
            ("3c", 9, ("P", "N"), b_plus & coex_beats_fallback),
            ("3d", 37, ("P", "N"), b_plus),
            ("3e", 11, ("N", "H+P"), coex_beats_fallback),
            ("3f", 36, ("N",), True),
        ]),
        "S_H": _face([
            ("4a", 7, ("O", "P", "N"), q["eta-pay(O+P)"] < 0.0),
            ("4b", 35, ("O", "P", "N"), True),
        ]),
        "S_P": _face([
            ("5a", 7, ("O", "H", "N"), above & (q["eta-pay(O+H)"] < 0.0)),
            ("5b", 35, ("O", "H", "N"), above),
            ("5c", 37, ("O", "N"), True),
        ]),
    }


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
    decided = {face: classified & (adm.undecided(face) ^ True) for face in faces}
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
