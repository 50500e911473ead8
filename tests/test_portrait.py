"""Trajectory seeds of the boundary phase portrait."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SET_A, SET_B, SET_C, draw_params
from oracles import replicator_jacobian
from socgame import Params, face_states
from socgame.classify import _Inventory
from socgame.model import FACE_ABSENT, FACE_ACTIVE, FACES
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


def saddles_follow_the_oracle(p: Params) -> int:
    """At every saddle the seeding rules admit on any face (not a vertex,
    not unstable along its edge), the inventory's exact chart is the
    oracle's analytic chart Jacobian times ``scale * total**2``, relative
    1e-9, and each outset leaves the saddle parallel to the eigenvector
    that ``np.linalg.eig`` gives for the oracle's positive eigenvalue.
    Returns how many saddles seeded outsets."""
    inv = _Inventory(p)
    seeded = 0
    for face in FACES:
        active = FACE_ACTIVE[face]
        for s in face_states(p, face):
            if s.stability != "saddle" or s.kind == "vertex" or any(
                    d.startswith("along ") and sign == "+" for d, sign in s.eigen_signs):
                continue
            xs = s.location.as_tuple()
            m = inv.linearisation(s.label, active)
            factor = inv.scale * sum(inv.solves[s.label][0]) ** 2
            chart = np.array([[(m[i][j] - m[i][2]) / factor for j in (0, 1)] for i in (0, 1)])
            jac = replicator_jacobian(xs, p, active)
            assert np.abs(chart - jac).max() <= 1e-9 * np.abs(jac).max(), (face, s.label)
            vals, vecs = np.linalg.eig(jac)
            assert (vals.real > 0.0).sum() == 1, (face, s.label, vals)
            ref = vecs[:, vals.real.argmax()].real
            starts = _saddle_outsets(p, face, [s])
            seeded += bool(starts)
            for x in starts:
                step = np.array([x.as_tuple()[active[0]] - xs[active[0]],
                                 x.as_tuple()[active[1]] - xs[active[1]]])
                cos = step @ ref / np.linalg.norm(step) / np.linalg.norm(ref)
                assert abs(cos) >= 1.0 - 1e-9, (face, s.label, cos)
    return seeded


@pytest.mark.parametrize("p, seeded", [(SET_B, 2), (SET_C, 0), (HP_SADDLE, 2)],
                         ids=["set_b", "set_c", "hp_saddle"])
def test_outsets_follow_the_oracle_on_the_canonical_sets(p, seeded):
    assert saddles_follow_the_oracle(p) == seeded


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
def test_outsets_follow_the_oracle(seed, branch):
    saddles_follow_the_oracle(draw_params(np.random.default_rng(seed), branch))
