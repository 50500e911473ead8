"""Trajectory seeds of the boundary phase portrait."""

import pytest

from conftest import SET_A, SET_B, SET_C
from socgame import Params, face_states
from socgame.model import FACE_ABSENT, FACES
from socgame.portrait import _saddle_outsets

# H+P is an edge saddle that is stable along H-P and unstable toward O and N
HP_SADDLE = Params(alpha=2, beta=-2, gamma=3, delta=1, epsilon=1, eta=0.2)


def test_face_interior_saddles_get_outsets():
    # set B has a saddle inside S_N (O+H+P) and inside S_O (H+P+N); each
    # must seed trajectories on both sides of its unstable direction
    for face in ("S_N", "S_O"):
        states = face_states(SET_B, face)
        assert any(s.kind == "face-interior" and s.stability == "saddle" for s in states)
        outsets = _saddle_outsets(SET_B, face, states)
        assert len(outsets) >= 2
        for x in outsets:
            shares = x.as_tuple()
            assert shares[FACE_ABSENT[face]] == 0.0
            assert all(v > 0.0 for i, v in enumerate(shares) if i != FACE_ABSENT[face])


@pytest.mark.parametrize("p", [SET_A, SET_B, SET_C], ids=["set_a", "set_b", "set_c"])
def test_edge_saddles_unstable_along_their_edge_get_no_outsets(p):
    # every edge saddle of these sets is unstable along its edge: a nudge
    # there stays on the edge, up to rounding, and traces no separatrix
    for face in FACES:
        edge = [s for s in face_states(p, face) if s.kind == "edge-interior"]
        assert _saddle_outsets(p, face, edge) == []


def test_edge_saddle_unstable_into_the_face_gets_one_outset():
    for face in ("S_N", "S_O"):
        hp = [s for s in face_states(HP_SADDLE, face) if s.label == "H+P"]
        assert dict(hp[0].eigen_signs)["along H-P"] == "-"
        assert hp[0].stability == "saddle"
        outsets = _saddle_outsets(HP_SADDLE, face, hp)
        assert len(outsets) == 1  # the other nudge leaves the simplex
        shares = outsets[0].as_tuple()
        assert shares[FACE_ABSENT[face]] == 0.0
        assert all(v > 0.0 for i, v in enumerate(shares) if i != FACE_ABSENT[face])
