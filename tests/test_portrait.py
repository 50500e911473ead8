"""Trajectory seeds of the boundary phase portrait."""

from conftest import SET_B
from socgame import face_states
from socgame.classify import FACE_ABSENT
from socgame.portrait import _saddle_outsets


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
