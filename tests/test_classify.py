"""Analytic stationary states, per-face regime tables and global composition."""

import contextlib
import functools
import io
import itertools
import math
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PARAM_RANGES,
    SET_A,
    SET_B,
    SET_C,
    SET_D,
    SNAPS,
    draw_params,
    draw_simplex,
    numpy_columns,
    snapped,
    snapped_points,
)
from oracles import (
    FACE_SCOPE,
    NonStationaryPointError,
    coexistence_payoff,
    coexistence_share,
    face_regime,
    fd_jacobian,
    full_interior_shares,
    full_interior_state,
    mask_panels,
    numeric_jacobian,
    numpy_interior_state,
    oh_payoff,
    op_payoff,
    reduced_field,
    replicator_jacobian,
    to_lv,
)
from socgame import (
    DegenerateParameterError,
    InvalidParameterError,
    SimplexState,
    classify_global,
    face_states,
    nash_vertices,
    validate,
)
from socgame.cli import main
from socgame.classify import _Inventory
from socgame.model import (
    DEFAULT_TOL,
    FACE_ABSENT,
    FACE_ACTIVE,
    FACES,
    PARAM_NAMES,
    STRATEGIES,
    Params,
    ValidationReport,
    _edge_state,
    admissibility,
    payoff_rows,
    payoff_vector,
)
from socgame.regimes import PANELS, SCOPES, decide, regime_table

FACE_STRATEGIES = {
    "S_N": {"O", "H", "P"},
    "S_O": {"H", "P", "N"},
    "S_H": {"O", "P", "N"},
    "S_P": {"O", "H", "N"},
}


def close(state, expected, tol=1e-12):
    return max(abs(a - b) for a, b in zip(state.as_tuple(), expected)) < tol


def sn_states(p, kind):
    """The states of one kind on the no-isolation face S_N."""
    return [s for s in face_states(p, "S_N") if s.kind == kind]


def sn_vertex_signs(p):
    return {s.label: s.eigen_signs for s in sn_states(p, "vertex")}


def interior(p, where):
    """The face-interior state of face ``where``, or the full-interior state
    for "full"; None if there is none."""
    if where == "full":
        return full_interior_state(p)
    return next((s for s in face_states(p, where) if s.kind == "face-interior"), None)


def unvalidated_interior(p, face):
    """The face-interior state of ``face`` from the inventory, which does
    not validate ``p``; None if there is none."""
    return next((s for s in _Inventory(p).face(face) if s.kind == "face-interior"), None)


def sn_interior(p):
    """The face-interior state of S_N, or None."""
    return interior(p, "S_N")


class TestVertexEigensigns:
    def test_set_a_all_attractive(self):
        assert sn_vertex_signs(SET_A) == {
            "O": (("toward H", "-"), ("toward P", "-")),
            "H": (("toward O", "-"), ("toward P", "-")),
            "P": (("toward O", "-"), ("toward H", "-")),
        }

    def test_set_b_mixed(self):
        signs = sn_vertex_signs(SET_B)
        assert signs["O"] == (("toward H", "-"), ("toward P", "-"))
        assert signs["H"] == (("toward O", "+"), ("toward P", "+"))
        assert signs["P"] == (("toward O", "-"), ("toward H", "+"))


class TestEdgeInteriorStates:
    def test_set_a(self):
        oh, op, hp = sn_states(SET_A, "edge-interior")
        assert oh.label == "O+H" and close(oh.location, (1 / 3, 2 / 3, 0, 0))
        assert abs(oh.payoff - 2 / 3) < 1e-12 and oh.stability == "saddle"
        assert op.label == "O+P" and close(op.location, (0.5, 0, 0.5, 0))
        assert abs(op.payoff - 1.0) < 1e-12
        assert hp.label == "H+P" and close(hp.location, (0, 1 / 3, 2 / 3, 0))
        assert hp.eigen_signs == (("along H-P", "+"), ("toward O", "-"))

    def test_set_b_drops_oh_state(self):
        # beta < 0 leaves no rest point inside the O-H edge
        op, hp = sn_states(SET_B, "edge-interior")
        assert op.label == "O+P" and op.stability == "repulsive"
        assert close(op.location, (1 / 3, 0, 2 / 3, 0))
        assert abs(op.payoff - 2 / 3) < 1e-12
        assert hp.label == "H+P" and hp.stability == "attractive"
        assert close(hp.location, (0, 1 / 3, 2 / 3, 0))
        assert abs(hp.payoff - 1 / 3) < 1e-12
        assert hp.eigen_signs == (("along H-P", "-"), ("toward O", "-"))


class TestFaceInteriorState:
    def test_set_a(self):
        s = sn_interior(SET_A)
        assert s.label == "O+H+P" and s.kind == "face-interior"
        assert close(s.location, (1 / 3, 2 / 9, 4 / 9, 0))
        assert abs(s.payoff - 2 / 3) < 1e-12
        assert s.stability == "repulsive"

    def test_set_b_saddle(self):
        s = sn_interior(SET_B)
        assert close(s.location, (1 / 7, 2 / 7, 4 / 7, 0))
        assert abs(s.payoff - 2 / 7) < 1e-12
        assert s.stability == "saddle"
        assert tuple(sign for _, sign in s.eigen_signs) == ("-", "+")

    def test_set_c(self):
        s = sn_interior(SET_C)
        assert close(s.location, (1 / 14, 8 / 14, 5 / 14, 0), tol=1e-9)
        assert abs(s.payoff - 1 / 7) < 1e-9
        assert s.stability == "repulsive"


class TestFullInteriorState:
    def test_set_a(self):
        s = full_interior_state(SET_A)
        assert s.label == "O+H+P+N" and s.kind == "full-interior"
        assert close(s.location, (1 / 4, 1 / 6, 1 / 3, 1 / 4))
        assert abs(s.payoff - 0.5) < 1e-12
        assert s.stability == "repulsive"

    def test_set_b_saddle(self):
        s = full_interior_state(SET_B)
        assert close(s.location, (0.1, 0.2, 0.4, 0.3))
        assert s.stability == "saddle"
        assert tuple(sign for _, sign in s.eigen_signs) == ("-", "+", "+")

    def test_set_c_infeasible(self):
        assert full_interior_state(SET_C) is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_matches_closed_form(self, seed, branch):
        # the equal-payoff solve against the closed form: no state exactly
        # where a closed-form share is negative, else the same shares, at
        # the fallback payoff
        p = draw_params(np.random.default_rng(seed), branch)
        want = full_interior_shares(p)
        s = full_interior_state(p)
        assert (s is None) == (min(want) < 0.0)
        if s is not None:
            assert max(abs(a - b) for a, b in zip(s.location.as_tuple(), want)) <= 1e-12
            assert abs(s.payoff - p.eta) <= 1e-12


# the last share of each interior state in closed form: 1 at eta = 0, and
# falling through 0 as eta rises through an edge state's payoff (faces) or
# the full-interior state reaches S_N
LAST_SHARE = {
    "S_O": lambda p: 1.0 - p.eta / coexistence_payoff(p),
    "S_H": lambda p: 1.0 - p.eta / op_payoff(p),
    "S_P": lambda p: 1.0 - p.eta / oh_payoff(p),
    "full": lambda p: full_interior_shares(p)[3],
}


def eta_onto_zero(p, share, tol=DEFAULT_TOL):
    """``p`` with eta bisected until ``share`` is within tol/10 of 0; None if
    it stays positive up to the largest eta that keeps ``p`` undominated,
    or if bisection does not get that close."""
    lo, hi = 0.0, min(p.alpha, p.epsilon, max(p.beta, p.gamma))
    if share(replace(p, eta=hi)) >= 0.0:
        return None
    for _ in range(200):
        q = replace(p, eta=0.5 * (lo + hi))
        v = share(q)
        if abs(v) <= tol / 10:
            return q
        lo, hi = (q.eta, hi) if v > 0.0 else (lo, q.eta)
    return None


class TestInteriorStateBoundary:
    @pytest.mark.parametrize("where", sorted(LAST_SHARE))
    def test_share_within_tol_of_zero_raises(self, where):
        # an interior state with a share within tol of 0 raises only where
        # the admissibility table does: a face's interior state meets the
        # boundary where eta meets an edge state's payoff, a face-scoped
        # quantity that validate names, so face_states raises; the
        # full-interior state, which only the oracle builds, reaches S_N at
        # no table quantity. The solve itself never raises: no state, or
        # one with positive shares
        rng = np.random.default_rng(32)
        for i in range(200):
            q = eta_onto_zero(draw_params(rng, ("B-plus", "B-minus")[i % 2]), LAST_SHARE[where])
            if (q is not None and validate(q).admissible
                    and interior(replace(q, eta=q.eta * (1.0 - 1e-6)), where) is not None):
                break
        else:
            pytest.fail(f"no valid point puts the {where} interior state on its boundary")
        if where == "full":
            active, s = (0, 1, 2, 3), full_interior_state(q)
        else:
            active, s = FACE_ACTIVE[where], unvalidated_interior(q, where)
        assert s is None or all(s.location.as_tuple()[k] > 0.0 for k in active)
        quantities = validate(q).degenerate_quantities
        if where == "full":
            assert not quantities
        else:
            assert any(where in FACE_SCOPE[name] for name in quantities)
            with pytest.raises(DegenerateParameterError, match="^degenerate classifying"):
                interior(q, where)


class TestNumericJacobian:
    def test_rejects_nonstationary_point(self):
        with pytest.raises(NonStationaryPointError):
            numeric_jacobian(SimplexState(0.3, 0.3, 0.4, 0), SET_A,
                             system="replicator-face")

    def test_face_interior_eigenvalues(self):
        eigs = numeric_jacobian(sn_interior(SET_A).location, SET_A,
                                system="replicator-face")
        assert np.allclose(eigs, [4 / 9, 2 / 3], atol=1e-5)

    def test_full_interior_orthant_eigenvalues(self):
        loc = to_lv(full_interior_state(SET_B).location)
        eigs = numeric_jacobian(loc, SET_B, system="lv-3d")
        assert np.allclose(eigs, [-2.0, 0.6, 2.0], atol=1e-4)
        loc = to_lv(full_interior_state(SET_A).location)
        eigs = numeric_jacobian(loc, SET_A, system="lv-3d")
        assert np.allclose(eigs, [0.5, 4 / 3, 2.0], atol=1e-4)

    def test_lv_systems_reject_simplex_coordinates(self):
        with pytest.raises(TypeError):
            numeric_jacobian(full_interior_state(SET_A).location, SET_A,
                             system="lv-3d")

    def test_signs_agree_with_analytic_face_state(self):
        rng = np.random.default_rng(21)
        for branch in ("B-plus", "B-minus"):
            for _ in range(5):
                p = draw_params(rng, branch)
                s = sn_interior(p)
                if s is None:
                    continue
                eigs = numeric_jacobian(to_lv(s.location), p, system="lv-2d")
                want = tuple("-" if e < 0 else "+" for e in eigs)
                assert tuple(sign for _, sign in s.eigen_signs) == want


EDGE_TABLE = [
    (SET_A, "S_N", 7, "2a", ["O", "H", "P"]),
    (SET_A, "S_O", 7, "3a", ["H", "P", "N"]),
    (SET_A, "S_H", 7, "4a", ["O", "P", "N"]),
    (SET_A, "S_P", 7, "5a", ["O", "H", "N"]),
    (SET_B, "S_N", 11, "2e", ["O", "H+P"]),
    (SET_B, "S_O", 11, "3e", ["N", "H+P"]),
    (SET_B, "S_H", 7, "4a", ["O", "P", "N"]),
    (SET_B, "S_P", 37, "5c", ["O", "N"]),
    (SET_C, "S_N", 9, "2c", ["O", "P"]),
    (SET_C, "S_O", 37, "3d", ["P", "N"]),
    (SET_C, "S_H", 7, "4a", ["O", "P", "N"]),
    (SET_C, "S_P", 37, "5c", ["O", "N"]),
]


class TestEdgeClassifiers:
    @pytest.mark.parametrize("p,face,pp,figure,labels", EDGE_TABLE,
                             ids=[f"{'ABC'[EDGE_TABLE.index(r) // 4]}-{r[1]}"
                                  for r in EDGE_TABLE])
    def test_frozen_regimes(self, p, face, pp, figure, labels):
        er = face_regime(p, face)
        assert er.edge == face
        assert er.pp == pp
        assert er.figure == figure
        assert [s.label for s in er.attractors] == labels

    def test_face_case_boundary_raises(self):
        # beta = 0 splits the S_N table only: validate reports it, strict
        # classification raises, and the lax report leaves S_N undecided
        p = Params(2, 0, 1, 1, 2, 0.4)
        assert validate(p).degenerate_quantities == ("beta",)
        with pytest.raises(DegenerateParameterError, match="quantities: beta$"):
            classify_global(p)
        assert face_regime(p, "S_N") is None

    def test_rejects_unknown_face(self):
        with pytest.raises(ValueError, match="unknown face 'S_X'"):
            face_states(SET_A, "S_X")

    def test_figure_pp_pairing(self):
        pairing = {
            "2": {"a": 7, "b": 35, "c": 9, "d": 37, "e": 11, "f": 36},
            "3": {"a": 7, "b": 35, "c": 9, "d": 37, "e": 11, "f": 36},
            "4": {"a": 7, "b": 35},
            "5": {"a": 7, "b": 35, "c": 37},
        }
        rng = np.random.default_rng(22)
        for i in range(40):
            p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
            for face in FACES:
                er = face_regime(p, face)
                family, letter = er.figure[0], er.figure[1:]
                assert er.pp == pairing[family][letter]
                got = {s.label for s in er.attractors}
                assert got
                for label in got:
                    assert set(label.split("+")) <= FACE_STRATEGIES[face]


class TestClassifyGlobal:
    def test_set_a_all_vertices(self):
        rep = classify_global(SET_A)
        assert [s.label for s in rep.global_attractors] == ["O", "H", "P", "N"]
        assert all(s.kind == "vertex" and s.stability == "attractive"
                   for s in rep.global_attractors)
        assert rep.global_case == "B-plus"
        assert rep.degenerate is False
        assert [(e.edge, e.figure) for e in rep.edges] == [
            ("S_N", "2a"), ("S_O", "3a"), ("S_H", "4a"), ("S_P", "5a")]
        assert rep.welfare is not None
        assert rep.welfare.ordering == (("O", "P"), ("H",), ("N",))

    def test_set_b_coexistence_attractor(self):
        rep = classify_global(SET_B)
        assert [s.label for s in rep.global_attractors] == ["O", "N", "H+P"]
        hp = rep.global_attractors[-1]
        assert hp.kind == "edge-interior"
        assert close(hp.location, (0, 1 / 3, 2 / 3, 0))
        assert hp.eigen_signs == (
            ("along H-P", "-"), ("toward O", "-"), ("toward N", "-"))
        assert rep.global_case == "B-minus"

    def test_set_c(self):
        rep = classify_global(SET_C)
        assert [s.label for s in rep.global_attractors] == ["O", "P", "N"]
        assert rep.global_case == "B-plus"

    def test_degenerate_strict_raises(self):
        with pytest.raises(DegenerateParameterError, match="epsilon-gamma"):
            classify_global(SET_D)

    def test_degenerate_lax_flags_and_continues(self):
        rep = classify_global(SET_D, strict=False)
        assert rep.degenerate is True
        assert rep.edges == (None, None, None, None)
        assert rep.global_attractors == ()
        assert rep.welfare is None
        assert rep.validation.degenerate_quantities == ("epsilon-gamma",)

    def test_face_boundary_lax_keeps_other_faces(self):
        p = Params(2, 0, 1, 1, 2, 0.4)
        rep = classify_global(p, strict=False)
        assert rep.degenerate is True
        assert rep.edges[0] is None
        assert all(e is not None for e in rep.edges[1:])


MEMBERSHIP = {
    "O": ("S_N", "S_H", "S_P"),
    "H": ("S_N", "S_O", "S_P"),
    "P": ("S_N", "S_O", "S_H"),
    "N": ("S_O", "S_H", "S_P"),
    "H+P": ("S_N", "S_O"),
}


class TestGlobalComposition:
    def test_attractor_iff_attractive_in_every_containing_face(self):
        # cross-check the table-driven composition against the eigen-sign
        # stability recorded on each face's analytic state inventory
        rng = np.random.default_rng(23)
        for i in range(30):
            p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
            by_face = {f: {s.label: s for s in face_states(p, f)}
                       for f in FACE_STRATEGIES}
            expected = {
                label for label, faces in MEMBERSHIP.items()
                if all(label in by_face[f]
                       and by_face[f][label].stability == "attractive"
                       for f in faces)
            }
            got = {s.label for s in classify_global(p).global_attractors}
            assert got == expected

    def test_nash_vertices_match_global_attractors(self):
        rng = np.random.default_rng(24)
        for i in range(30):
            p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
            labels = {s.label for s in classify_global(p).global_attractors}
            for v, is_nash in nash_vertices(p).items():
                assert is_nash == (v in labels)


class TestFaceStates:
    def test_set_a_inventory(self):
        got = [(s.label, s.kind, s.stability) for s in face_states(SET_A, "S_N")]
        assert got == [
            ("O", "vertex", "attractive"),
            ("H", "vertex", "attractive"),
            ("P", "vertex", "attractive"),
            ("O+H", "edge-interior", "saddle"),
            ("O+P", "edge-interior", "saddle"),
            ("H+P", "edge-interior", "saddle"),
            ("O+H+P", "face-interior", "repulsive"),
        ]

    def test_states_lie_on_their_face(self):
        missing = {"S_N": 3, "S_O": 0, "S_H": 1, "S_P": 2}
        for face, idx in missing.items():
            for s in face_states(SET_A, face):
                assert s.location.as_tuple()[idx] == 0.0

    def test_consistent_with_analytic_parts(self):
        # a face's regime names the face's own states, signs included
        for p in (SET_A, SET_B, SET_C):
            for face in FACES:
                by_label = {s.label: s for s in face_states(p, face)}
                for s in face_regime(p, face).attractors:
                    assert by_label[s.label] == s

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_face_interior_exists_iff_closed_form_signs_agree(self, seed, branch):
        # the equal-payoff solve lands inside S_N exactly when
        # beta*epsilon+gamma*delta, alpha*(beta+delta) and alpha*(epsilon-gamma)
        # share one strict sign
        p = draw_params(np.random.default_rng(seed), branch)
        exprs = (p.beta * p.epsilon + p.gamma * p.delta,
                 p.alpha * (p.beta + p.delta),
                 p.alpha * (p.epsilon - p.gamma))
        assert (sn_interior(p) is not None) == (len({v > 0.0 for v in exprs}) == 1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_boundary_signs_match_finite_difference_oracle(self, seed, branch):
        # analytic vertex and edge signs against the numeric Jacobian of each
        # face's flow; states with an eigenvalue near zero decide nothing
        p = draw_params(np.random.default_rng(seed), branch)
        for face, absent in FACE_ABSENT.items():
            active = tuple(i for i in range(4) if i != absent)
            f_red = reduced_field(p, active)
            for s in face_states(p, face):
                if s.kind not in ("vertex", "edge-interior"):
                    continue
                xs = s.location.as_tuple()
                eigs = np.linalg.eigvals(fd_jacobian(f_red, (xs[active[0]], xs[active[1]])))
                if np.min(np.abs(eigs)) < 1e-6:
                    continue
                want = sorted("-" if e.real < 0 else "+" for e in eigs)
                assert sorted(sign for _, sign in s.eigen_signs) == want, (face, s.label)

        # the H/P mixed state is exactly the closed form
        hp = {s.label: s for s in face_states(p, "S_N")}["H+P"]
        assert hp.location.x2 == coexistence_share(p)
        assert hp.payoff == coexistence_payoff(p)


class TestEdgeState:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points())
    def test_equals_closed_forms(self, p):
        # the one edge-state formula against each edge's closed form, on
        # numbers (as the inventory calls it) and on numpy columns (as the
        # regime and grid tables call it), on and off every SNAPS boundary;
        # where the closed form divides by zero, the formula gives numpy's
        # inf or nan on numbers as on columns
        rows, cols = payoff_rows(p), payoff_rows(numpy_columns(p))
        closed = {(1, 2): (coexistence_share, coexistence_payoff),
                  (0, 2): (None, op_payoff), (0, 1): (None, oh_payoff)}
        for (a, b), (share, payoff) in closed.items():
            with np.errstate(all="ignore"):
                got, got_cols = _edge_state(rows, a, b), _edge_state(cols, a, b)
            try:
                want = payoff(p)
            except ZeroDivisionError:
                assert all(type(v) is float and not math.isfinite(v) for v in got[1:])
                assert np.array_equal(got, got_cols, equal_nan=True), (a, b)
                continue
            assert got[1] == got_cols[1] == want, (a, b)
            if share is not None:
                assert got[0] == got_cols[0] == share(p)


class TestAnalyticJacobian:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
           zeros=st.sets(st.integers(0, 3), max_size=3))
    def test_reduced_jacobian_matches_finite_difference_oracle(self, seed, branch, zeros):
        # at any simplex point, faces and edges included, in the chart of
        # the whole simplex and of every face that holds the point
        rng = np.random.default_rng(seed)
        p = draw_params(rng, branch)
        x = np.array(draw_simplex(rng))
        x[sorted(zeros)] = 0.0
        x /= x.sum()
        charts = [(0, 1, 2, 3), (3, 2, 1, 0)]
        charts += [tuple(i for i in range(4) if i != absent) for absent in range(4)
                   if x[absent] == 0.0]
        for active in charts:
            jac = replicator_jacobian(x, p, active)
            fd = fd_jacobian(reduced_field(p, active), [x[k] for k in active[:-1]])
            scale = max(1.0, float(np.abs(jac).max()))
            assert np.abs(jac - fd).max() <= 1e-6 * scale, (active, x)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_exact_interior_state_matches_numpy_reference(self, seed, branch):
        # on every face: the same existence away from the face's edges, the
        # same location and payoff, and the same signs away from a zero
        # eigenvalue, against a float solve and numpy's eigenvalues
        p = draw_params(np.random.default_rng(seed), branch)
        for face in FACES:
            active = FACE_ACTIVE[face]
            exact, ref = unvalidated_interior(p, face), numpy_interior_state(p, active)
            if ref is None or exact is None:
                for s in (ref, exact):
                    assert s is None or min(s.location.as_tuple()[k] for k in active) <= 1e-6
                continue
            got = exact.location.as_tuple() + (exact.payoff,)
            want = ref.location.as_tuple() + (ref.payoff,)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9, (face, p)
            eigs = np.linalg.eigvals(replicator_jacobian(ref.location.as_tuple(), p, active))
            if np.min(np.abs(eigs.real)) > 1e-6:
                assert exact.eigen_signs == ref.eigen_signs, (face, p)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_interior_signs_match_orthant_oracle(self, seed, branch):
        # the face-interior signs against the planar orthant system, the
        # full-interior signs against the 3-d one, each in order; a state
        # with an eigenvalue near zero decides nothing
        p = draw_params(np.random.default_rng(seed), branch)
        for state, system in ((sn_interior(p), "lv-2d"),
                              (full_interior_state(p), "lv-3d")):
            if state is None:
                continue
            eigs = numeric_jacobian(to_lv(state.location), p, system=system)
            if np.min(np.abs(eigs.real)) < 1e-6:
                continue
            want = tuple("-" if e.real < 0 else "+" for e in eigs)
            assert tuple(sign for _, sign in state.eigen_signs) == want, (system, p)


# ---------------------------------------------------------------------------
# the whole-grid classification against the per-point one

# the planar portrait number of each panel
FIGURE_PP = {"2a": 7, "2b": 35, "2c": 9, "2d": 37, "2e": 11, "2f": 36,
             "3a": 7, "3b": 35, "3c": 9, "3d": 37, "3e": 11, "3f": 36,
             "4a": 7, "4b": 35, "5a": 7, "5b": 35, "5c": 37}


def face_oracle(p, tol, face):
    """Each face's regime as plain per-face branches state it: None where a
    boundary condition leaves it undecided, else (figure, attractors)."""
    hp_det = p.beta * p.epsilon + p.gamma * p.delta
    if face == "S_N":
        if abs(p.beta) <= tol:
            return None
        if p.gamma < p.epsilon:
            fig = ("2a" if hp_det > 0 else "2b") if p.beta > 0 else ("2c" if hp_det > 0 else "2d")
            return fig, ["O", "H", "P"] if p.beta > 0 else ["O", "P"]
        return ("2e", ["O", "H+P"]) if hp_det < 0 else ("2f", ["O"])
    if face == "S_O":
        coex = coexistence_payoff(p)
        if abs(p.eta - coex) <= tol:
            return None
        if p.gamma < p.epsilon:
            if abs(p.beta - p.eta) <= tol:
                return None
            if p.beta > p.eta:
                return ("3a" if p.eta < coex else "3b"), ["H", "P", "N"]
            return ("3c" if p.eta < coex else "3d"), ["P", "N"]
        return ("3e", ["N", "H+P"]) if p.eta < coex else ("3f", ["N"])
    if face == "S_H":
        op_pay = op_payoff(p)
        if abs(p.eta - op_pay) <= tol:
            return None
        return ("4a" if p.eta < op_pay else "4b"), ["O", "P", "N"]
    if abs(p.beta - p.eta) <= tol:
        return None
    if p.beta <= p.eta:
        return "5c", ["O", "N"]
    oh_pay = oh_payoff(p)
    if abs(p.eta - oh_pay) <= tol:
        return None
    return ("5a" if p.eta < oh_pay else "5b"), ["O", "H", "N"]


def point_row(p, tol):
    """A sweep row's fields from per-point validate and classify_global."""
    v = validate(p, tol)
    valid = v.positivity_ok and v.nondominance_ok
    degenerate = bool(v.degenerate_quantities)
    figures, n_att = ["", "", "", ""], ""
    if v.admissible:
        rep = classify_global(p, tol, strict=False)
        degenerate = rep.degenerate
        figures = [e.figure if e is not None else "" for e in rep.edges]
        if not degenerate:
            n_att = str(len(rep.global_attractors))
    return ["1" if valid else "0", "1" if degenerate else "0", v.branch or ""] + figures + [n_att]


@st.composite
def sweep_cases(draw):
    """A point from ``snapped_points`` and one or two axes that start at it."""
    p = draw(snapped_points())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(PARAM_NAMES))
        # the grid starts at the base point, so its first row is the snapped one
        axes.append((name, getattr(p, name), float(rng.uniform(*PARAM_RANGES[name])),
                     draw(st.integers(2, 4))))
    return p, axes, draw(st.sampled_from((1e-9, 1e-3)))


class TestGridClassification:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=sweep_cases())
    def test_rows_equal_per_point_classification(self, case):
        p, axes, tol = case
        grids = [np.linspace(lo, hi, steps) for _, lo, hi, steps in axes]
        expected, error = [], None
        for combo in itertools.product(*grids):
            point = replace(p, **{name: float(v) for (name, *_), v in zip(axes, combo)})
            try:
                expected.append(point_row(point, tol))
            except ValueError as e:  # a welfare check failed: the sweep stops there
                error = str(e)
                break

        with tempfile.TemporaryDirectory() as tmp:
            params = Path(tmp) / "p.params"
            params.write_text("".join(f"{k} = {v!r}\n" for k, v in p.as_dict().items()))
            argv = ["sweep", "--params", str(params), "--tol", repr(tol)]
            for name, lo, hi, steps in axes:
                argv += ["--sweep", f"{name}:{lo!r}:{hi!r}:{steps}"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)

        if len({name for name, *_ in axes}) < len(axes):  # a repeated axis is refused
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue().startswith("input error: --sweep axis")
            return
        if error is not None:
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue() == f"input error: {error}\n"
            return
        assert code == 0 and err.getvalue() == ""
        rows = [line.split(",")[len(axes):] for line in out.getvalue().splitlines()[1:]]
        assert rows == expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.sampled_from((None,) + tuple(SNAPS)),
           tol=st.sampled_from((1e-9, 1e-3)))
    def test_face_regimes_match_oracle(self, seed, snap, tol):
        # each face's entry of the lax report against the per-face oracle,
        # undecided exactly where validate names a quantity scoped to it
        rng = np.random.default_rng(seed)
        for i in range(20):
            p = snapped(draw_params(rng, ("B-plus", "B-minus")[i % 2]).as_dict(), snap)
            v = validate(p, tol)
            if not v.admissible:
                continue
            edges = classify_global(p, tol, strict=False).edges
            for face, entry in zip(FACES, edges):
                want = face_oracle(p, tol, face)
                assert (entry is None) == (want is None) == any(
                    face in FACE_SCOPE[q] for q in v.degenerate_quantities), face
                if entry is not None:
                    figure, labels = want
                    assert (entry.figure, entry.pp, [s.label for s in entry.attractors]) == (
                        figure, FIGURE_PP[figure], labels)


class TestValidateAgreesWithClassify:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_ok_iff_strict_classify_global_returns(self, p, tol):
        # validate(p).ok holds exactly where strict classification returns;
        # where it does not, a reported quantity means a degenerate error
        v = validate(p, tol)
        try:
            classify_global(p, tol)
        except DegenerateParameterError:
            assert not v.ok and v.degenerate_quantities
        except InvalidParameterError:
            assert not v.ok and not v.degenerate_quantities
        else:
            assert v.ok


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.sampled_from(tuple(SNAPS)),
           k=st.integers(1, 20), sign=st.sampled_from((-1, 1)),
           tol=st.sampled_from((1e-9, 1e-3)))
    def test_ok_iff_every_classifier_returns_off_a_boundary(self, seed, snap, k, sign, tol):
        # k tol off a boundary, validate(p).ok holds exactly where
        # classify_global and face_states on all four faces return; where
        # it does not, each raises the error of ValidationReport.require.
        # Where it holds, each face's regime names as attractors exactly
        # the face states typed attractive
        rng = np.random.default_rng(seed)
        name, value = SNAPS[snap]
        for i in range(10):
            base = draw_params(rng, ("B-plus", "B-minus")[i % 2])
            try:
                moved = float(value(base)) + sign * k * tol
            except ZeroDivisionError:
                continue
            p = replace(base, **{name: moved})
            try:
                want = validate(p, tol).require()
            except (DegenerateParameterError, InvalidParameterError) as err:
                want = err
            assert isinstance(want, ValidationReport) == validate(p, tol).ok
            calls = [functools.partial(classify_global, p, tol)] + [
                functools.partial(face_states, p, face, tol) for face in FACES]
            for call in calls:
                try:
                    call()
                except (DegenerateParameterError, InvalidParameterError) as err:
                    assert (type(err), str(err)) == (type(want), str(want)), call
                else:
                    assert isinstance(want, ValidationReport), call
            if isinstance(want, ValidationReport):
                for edge in classify_global(p, tol).edges:
                    assert {s.label for s in edge.attractors} == {
                        s.label for s in face_states(p, edge.edge, tol)
                        if s.stability == "attractive"}, (edge.edge, p)


def assert_inventory_reads_the_table(p, tol):
    """At a point ``validate`` accepts, each decided face's attractors in
    the regime table are the inventory's states typed attractive on it; no
    state is typed degenerate; and each vertex and edge state's sign toward
    N is that of eta against its own payoff, as its JSON shows both.  This
    reads the table directly, so the welfare checks of ``classify_global``
    do not stand in the way."""
    d = decide(admissibility(p, tol))
    inv = _Inventory(p)
    for face, table in d.faces.items():
        if d.decided[face]:
            assert set(table.panels[table.panel][2]) == {
                s.label for s in inv.face(face) if s.stability == "attractive"}, (face, p)
    for s in inv.states.values():
        assert s.stability != "degenerate", (s.label, p)
        if len(s.support) < 3 and "N" not in s.support:
            assert dict(s.eigen_signs)["toward N"] == ("+" if p.eta > s.payoff else "-"), (
                s.label, p)


class TestInventoryReadsTheTable:
    # where rounding in the table's floats exceeds tol, the inventory's
    # signs must still be the ones the table decides
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.sampled_from(tuple(SNAPS)),
           k=st.integers(1, 20), sign=st.sampled_from((-1, 1)),
           exp=st.sampled_from((10, 20, 30)), tol=st.sampled_from((1e-9, 1e-3)))
    def test_at_scaled_points_off_a_boundary(self, seed, snap, k, sign, exp, tol):
        # a drawn point times 2**exp, which scales its payoffs exactly, then
        # moved k tol off a boundary: tol is absolute, so the rounding of
        # the table's quantities there can reach it
        rng = np.random.default_rng(seed)
        name, value = SNAPS[snap]
        for i in range(10):
            base = draw_params(rng, ("B-plus", "B-minus")[i % 2])
            base = Params(**{n: v * 2.0**exp for n, v in base.as_dict().items()})
            try:
                p = replace(base, **{name: float(value(base)) + sign * k * tol})
            except ZeroDivisionError:
                continue
            if validate(p, tol).ok:
                assert_inventory_reads_the_table(p, tol)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20), sign=st.sampled_from((-1, 1)))
    def test_near_an_ill_conditioned_coexistence_payoff(self, seed, k, sign):
        # both H-P gaps near 1e-7 and parameters near 20, so the float H-P
        # payoff is off by about 1e-7, and eta k tol from it
        rng = np.random.default_rng(seed)
        for branch in (1, -1):  # B-plus, B-minus
            delta, epsilon = rng.uniform(5, 30, 2)
            beta = -delta + branch * rng.uniform(2e-8, 2e-7)
            gamma = epsilon - branch * rng.uniform(2e-8, 2e-7)
            p = Params(rng.uniform(5, 40), beta, gamma, delta, epsilon, 1.0)
            p = replace(p, eta=coexistence_payoff(p) + sign * k * DEFAULT_TOL)
            if validate(p).ok:
                assert_inventory_reads_the_table(p, DEFAULT_TOL)

    @pytest.mark.parametrize("p", [
        # O+P's advantage of H, epsilon-gamma over alpha+epsilon times
        # alpha, is below the rounding of H's float payoff at O+P's float
        # location, which read 0 there
        Params(alpha=1352865.7130531971, beta=-2172582.7809235197, gamma=3115202.45413959,
               delta=764619.587480682, epsilon=3115202.4541395884, eta=132842.38012060308),
        # eta - pay(H+P) is 2e-9 on the table's floats, while the exact
        # H-P payoff is above eta
        Params(alpha=34.14486264929453, beta=-29.528172407583874, gamma=19.077845003222325,
               delta=29.528172275123342, epsilon=19.077844954013408, eta=5.911902448297286),
    ])
    def test_where_the_float_payoffs_round_past_tol(self, p):
        assert validate(p).ok
        assert_inventory_reads_the_table(p, DEFAULT_TOL)


class TestRegimeTableAsData:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_literals_pick_the_mask_expressions_panel(self, p, tol):
        # where the table is read, each face's sign literals pick the panel
        # its mask expressions picked, on floats, numpy columns and Fractions
        exact = SimpleNamespace(**{k: Fraction(v) for k, v in p.as_dict().items()})
        with np.errstate(all="ignore"):
            for c in (p, numpy_columns(p), exact):
                adm = admissibility(c, tol)
                if not adm.valid or adm.on_boundary:
                    continue
                want = mask_panels(adm)
                for face, table in regime_table(adm).items():
                    assert table.panel == want[face], (face, type(c))

    def test_scopes_derive_from_the_literals(self):
        # each face-scoped quantity undecides the faces whose literals name
        # it, in validate's order
        assert list(SCOPES.items()) == list(FACE_SCOPE.items())

    def test_kept_quantities_are_the_literals(self):
        literals = [lit for rows in PANELS.values() for *_, lits in rows for lit in lits]
        assert {sign for _, sign in literals} == {1, -1}
        assert set(admissibility(SET_A).quantities) == {name for name, _ in literals}
        assert len(admissibility(SET_A).quantities) == 7


class TestOneDecision:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_floats_give_the_numpy_decision(self, p, tol):
        # classify_global reads the decision on the floats of its Params,
        # classify_grid on numpy columns: the two must be one decision, and
        # on floats it holds plain numbers
        floats = decide(admissibility(p, tol))
        with np.errstate(all="ignore"):
            c = numpy_columns(p)
            columns = decide(admissibility(c, tol))
        for face, table in floats.faces.items():
            assert type(table.panel) is int and table.panel == int(columns.faces[face].panel)
            assert type(floats.decided[face]) is bool
            assert floats.decided[face] == bool(columns.decided[face]), face
        assert type(floats.settled) is bool and floats.settled == bool(columns.settled)
        assert list(floats.attracts) == list(columns.attracts)
        for label, on in floats.attracts.items():
            assert type(on) is bool and on == bool(columns.attracts[label]), label

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_fractions_give_the_float_decision_off_every_boundary(self, p, tol):
        # on six exact Fraction fields the tables evaluate exactly; wherever
        # neither that table nor the float one finds a classifying quantity
        # within tol of zero, the two make one decision
        floats = admissibility(p, tol)
        exact = admissibility(SimpleNamespace(**{k: Fraction(v) for k, v in p.as_dict().items()}),
                              tol)
        if any(t.on_boundary or any(t.face_degenerate.values()) for t in (floats, exact)):
            return
        # the O-H payoff, and its denominator alpha+beta, count where beta > eta
        assert all(type(v) is Fraction for name, v in exact.quantities.items()
                   if name != "eta-pay(O+H)" or exact.beta_above_eta)
        floats, exact = decide(floats), decide(exact)
        for face, table in floats.faces.items():
            assert exact.faces[face].panel == table.panel, face
            assert exact.decided[face] == floats.decided[face], face
        assert exact.settled == floats.settled
        assert exact.attracts == floats.attracts

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_global_attractors_attract_in_the_faces_their_support_avoids(self, p, tol):
        # a state is a global attractor exactly when it attracts within
        # every face whose absent strategy its support avoids
        if not validate(p, tol).ok:
            return
        rep = classify_global(p, tol)
        within = {}
        for face, entry in zip(FACES, rep.edges):
            for s in entry.attractors:
                within.setdefault(s.label, set()).add(face)
        for label, faces in within.items():
            avoided = {face for face in FACES
                       if STRATEGIES[FACE_ABSENT[face]] not in label.split("+")}
            assert (faces == avoided) == (label in [a.label for a in rep.global_attractors])
        assert {a.label for a in rep.global_attractors} <= set(within)


# ---------------------------------------------------------------------------
# the enumeration checked with no reference solution


def face_index_sums(p):
    """On each face, the sum of (-1)^(number of "+" signs) over the face's
    saturated states, those with no "+" toward sign.  Each toward sign is
    first checked against the float payoff advantage at the state, wherever
    that clears rounding, so "+" marks a strategy of the face that earns
    more there."""
    clear = 1e-9 * max(1.0, *(abs(v) for v in p.as_dict().values()))
    sums = {}
    for face in FACES:
        saturated = []
        for s in face_states(p, face):
            pay = payoff_vector(s.location, p)
            toward = {d[len("toward "):]: sign for d, sign in s.eigen_signs
                      if d.startswith("toward ")}
            for w, sign in toward.items():
                adv = pay[STRATEGIES.index(w)] - s.payoff
                if abs(adv) > clear:
                    assert sign == ("+" if adv > 0 else "-"), (face, s.label, w)
            if "+" not in toward.values():
                saturated.append(s)
        sums[face] = sum((-1) ** [sign for _, sign in s.eigen_signs].count("+")
                         for s in saturated)
    return sums


class TestIndexTheorem:
    # the indices of the saturated rest points of a face sum to +1 at a
    # nondegenerate point (Shapley 1974; Hofbauer & Sigmund 1998, ch. 7)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_face_indices_sum_to_one_at_drawn_points(self, seed, branch):
        p = draw_params(np.random.default_rng(seed), branch)
        assert face_index_sums(p) == dict.fromkeys(FACES, 1)

    # about one snapped point in twenty is ok, so this draws many
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points())
    def test_face_indices_sum_to_one_at_snapped_points(self, p):
        if validate(p).ok:
            assert face_index_sums(p) == dict.fromkeys(FACES, 1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_nash_vertices_are_the_vertices_with_every_sign_negative(self, seed, branch):
        # the admissibility table's strict Nash vertices are the vertices
        # the inventory types attractive in every direction of the simplex
        p = draw_params(np.random.default_rng(seed), branch)
        states = _Inventory(p).states
        assert nash_vertices(p) == {v: all(sign == "-" for _, sign in states[v].eigen_signs)
                                    for v in STRATEGIES}
