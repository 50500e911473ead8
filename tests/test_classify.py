"""Analytic stationary states, per-face regime tables and global composition."""

import contextlib
import io
import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SET_A, SET_B, SET_C, SET_D, draw_params
from socgame import (
    DegenerateParameterError,
    NonStationaryPointError,
    SimplexState,
    classify_edge_SH,
    classify_edge_SN,
    classify_edge_SO,
    classify_edge_SP,
    classify_global,
    coexistence_payoff,
    edge_interior_states,
    face_interior_state,
    face_states,
    full_interior_state,
    nash_vertices,
    normalize_matrix,
    numeric_jacobian,
    to_lv,
    validate,
    vertex_eigensigns,
)
from socgame.cli import main
from socgame.classify import FACE_ABSENT, face_reduced_rhs, fd_jacobian
from socgame.model import Params

EDGE_FNS = {
    "S_N": classify_edge_SN,
    "S_O": classify_edge_SO,
    "S_H": classify_edge_SH,
    "S_P": classify_edge_SP,
}

FACE_STRATEGIES = {
    "S_N": {"O", "H", "P"},
    "S_O": {"H", "P", "N"},
    "S_H": {"O", "P", "N"},
    "S_P": {"O", "H", "N"},
}


def close(state, expected, tol=1e-12):
    return max(abs(a - b) for a, b in zip(state.as_tuple(), expected)) < tol


class TestNormalizedMatrix:
    def test_frozen_values(self):
        m = normalize_matrix(SET_A)
        assert (m.a, m.b, m.c, m.d, m.e, m.f) == (-2.0, 1.0, 1.0, -2.0, -1.0, 2.0)
        m = normalize_matrix(SET_B)
        assert (m.a, m.b, m.c, m.d, m.e, m.f) == (-2.0, -2.0, 1.5, -2.0, -1.0, 1.0)


class TestVertexEigensigns:
    def test_set_a_all_attractive(self):
        assert vertex_eigensigns(SET_A) == {
            "O": (("toward H", "-"), ("toward P", "-")),
            "H": (("toward O", "-"), ("toward P", "-")),
            "P": (("toward O", "-"), ("toward H", "-")),
        }

    def test_set_b_mixed(self):
        signs = vertex_eigensigns(SET_B)
        assert signs["O"] == (("toward H", "-"), ("toward P", "-"))
        assert signs["H"] == (("toward O", "+"), ("toward P", "+"))
        assert signs["P"] == (("toward O", "-"), ("toward H", "+"))


class TestEdgeInteriorStates:
    def test_set_a(self):
        oh, op, hp = edge_interior_states(SET_A)
        assert oh.label == "O+H" and close(oh.location, (1 / 3, 2 / 3, 0, 0))
        assert abs(oh.payoff - 2 / 3) < 1e-12 and oh.stability == "saddle"
        assert op.label == "O+P" and close(op.location, (0.5, 0, 0.5, 0))
        assert abs(op.payoff - 1.0) < 1e-12
        assert hp.label == "H+P" and close(hp.location, (0, 1 / 3, 2 / 3, 0))
        assert hp.eigen_signs == (("along H-P", "+"), ("toward O", "-"))

    def test_set_b_drops_oh_state(self):
        # beta < 0 leaves no rest point inside the O-H edge
        op, hp = edge_interior_states(SET_B)
        assert op.label == "O+P" and op.stability == "repulsive"
        assert close(op.location, (1 / 3, 0, 2 / 3, 0))
        assert abs(op.payoff - 2 / 3) < 1e-12
        assert hp.label == "H+P" and hp.stability == "attractive"
        assert close(hp.location, (0, 1 / 3, 2 / 3, 0))
        assert abs(hp.payoff - 1 / 3) < 1e-12
        assert hp.eigen_signs == (("along H-P", "-"), ("toward O", "-"))


class TestFaceInteriorState:
    def test_set_a(self):
        s = face_interior_state(SET_A)
        assert s.label == "O+H+P" and s.kind == "face-interior"
        assert close(s.location, (1 / 3, 2 / 9, 4 / 9, 0))
        assert abs(s.payoff - 2 / 3) < 1e-12
        assert s.stability == "repulsive"

    def test_set_b_saddle(self):
        s = face_interior_state(SET_B)
        assert close(s.location, (1 / 7, 2 / 7, 4 / 7, 0))
        assert abs(s.payoff - 2 / 7) < 1e-12
        assert s.stability == "saddle"
        assert tuple(sign for _, sign in s.eigen_signs) == ("-", "+")

    def test_set_c(self):
        s = face_interior_state(SET_C)
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


class TestNumericJacobian:
    def test_rejects_nonstationary_point(self):
        with pytest.raises(NonStationaryPointError):
            numeric_jacobian(SimplexState(0.3, 0.3, 0.4, 0), SET_A,
                             system="replicator-face")

    def test_face_interior_eigenvalues(self):
        eigs = numeric_jacobian(face_interior_state(SET_A).location, SET_A,
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
                s = face_interior_state(p)
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
        er = EDGE_FNS[face](p)
        assert er.edge == face
        assert er.pp == pp
        assert er.figure == figure
        assert [s.label for s in er.attractors] == labels

    def test_face_case_boundary_raises(self):
        # beta = 0 passes global validation but splits the S_N table
        p = Params(2, 0, 1, 1, 2, 0.5)
        with pytest.raises(DegenerateParameterError, match="S_N"):
            classify_edge_SN(p)

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
            for face, fn in EDGE_FNS.items():
                er = fn(p)
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
        by_label = {s.label: s for s in face_states(SET_B, "S_N")}
        for s in edge_interior_states(SET_B):
            assert close(by_label[s.label].location, s.location.as_tuple())
        fi = face_interior_state(SET_B)
        assert close(by_label["O+H+P"].location, fi.location.as_tuple())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_boundary_signs_match_finite_difference_oracle(self, seed, branch):
        # analytic vertex and edge signs against the numeric Jacobian of each
        # face's flow; states with an eigenvalue near zero decide nothing
        p = draw_params(np.random.default_rng(seed), branch)
        for face, absent in FACE_ABSENT.items():
            active = tuple(i for i in range(4) if i != absent)
            f_red = face_reduced_rhs(p, active)
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
        share = (p.epsilon - p.gamma) / ((p.epsilon - p.gamma) + (p.beta + p.delta))
        assert hp.location.x2 == share
        assert hp.payoff == coexistence_payoff(p)


# ---------------------------------------------------------------------------
# the whole-grid classification against the per-point one

PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "eta")
PARAM_RANGES = {"alpha": (-0.5, 3.0), "beta": (-3.0, 2.5), "gamma": (-1.0, 3.5),
                "delta": (-0.5, 2.0), "epsilon": (-0.5, 3.0), "eta": (-0.2, 1.5)}

# each classifying quantity and face boundary, and how to put a point on it:
# (parameter to move, its new value as a function of the point)
SNAPS = {
    "beta+delta": ("beta", lambda p: -p.delta),
    "epsilon-gamma": ("gamma", lambda p: p.epsilon),
    "beta*epsilon+gamma*delta": ("gamma", lambda p: -p.beta * p.epsilon / p.delta),
    "alpha-eta": ("alpha", lambda p: p.eta),
    "epsilon-eta": ("epsilon", lambda p: p.eta),
    "max(beta,gamma)-eta": ("beta", lambda p: p.eta),
    "epsilon-gamma+beta+delta": ("gamma", lambda p: p.epsilon + p.beta + p.delta),
    "alpha+epsilon": ("alpha", lambda p: -p.epsilon),
    "alpha+beta": ("beta", lambda p: -p.alpha),
    "|beta|": ("beta", lambda p: 0.0),
    "beta-eta": ("eta", lambda p: p.beta),
    "eta-coex": ("eta", coexistence_payoff),
    "eta-op_pay": ("eta", lambda p: p.alpha * p.epsilon / (p.alpha + p.epsilon)),
    "eta-oh_pay": ("eta", lambda p: p.alpha * p.beta / (p.alpha + p.beta)),
}


# the planar portrait number of each panel
FIGURE_PP = {"2a": 7, "2b": 35, "2c": 9, "2d": 37, "2e": 11, "2f": 36,
             "3a": 7, "3b": 35, "3c": 9, "3d": 37, "3e": 11, "3f": 36,
             "4a": 7, "4b": 35, "5a": 7, "5b": 35, "5c": 37}


def face_oracle(p, tol, face):
    """Each face's regime as plain per-face branches state it: the message
    of the first degenerate condition that holds, else (figure, attractors)."""
    hp_det = p.beta * p.epsilon + p.gamma * p.delta
    if face == "S_N":
        if abs(p.beta) <= tol:
            return f"face S_N case boundary: |beta| <= {tol}"
        if p.gamma < p.epsilon:
            fig = ("2a" if hp_det > 0 else "2b") if p.beta > 0 else ("2c" if hp_det > 0 else "2d")
            return fig, ["O", "H", "P"] if p.beta > 0 else ["O", "P"]
        return ("2e", ["O", "H+P"]) if hp_det < 0 else ("2f", ["O"])
    if face == "S_O":
        coex = coexistence_payoff(p)
        if abs(p.eta - coex) <= tol:
            return "fallback payoff on the coexistence-payoff boundary"
        if p.gamma < p.epsilon:
            if abs(p.beta - p.eta) <= tol:
                return f"face S_O case boundary: |beta-eta| <= {tol}"
            if p.beta > p.eta:
                return ("3a" if p.eta < coex else "3b"), ["H", "P", "N"]
            return ("3c" if p.eta < coex else "3d"), ["P", "N"]
        return ("3e", ["N", "H+P"]) if p.eta < coex else ("3f", ["N"])
    if face == "S_H":
        op_pay = p.alpha * p.epsilon / (p.alpha + p.epsilon)
        if abs(p.eta - op_pay) <= tol:
            return "fallback payoff on the O-P edge-state boundary"
        return ("4a" if p.eta < op_pay else "4b"), ["O", "P", "N"]
    if abs(p.beta - p.eta) <= tol:
        return f"face S_P case boundary: |beta-eta| <= {tol}"
    if p.beta <= p.eta:
        return "5c", ["O", "N"]
    oh_pay = p.alpha * p.beta / (p.alpha + p.beta)
    if abs(p.eta - oh_pay) <= tol:
        return "fallback payoff on the O-H edge-state boundary"
    return ("5a" if p.eta < oh_pay else "5b"), ["O", "H", "N"]


def point_row(p, tol):
    """A sweep row's fields from per-point validate and classify_global."""
    v = validate(p, tol)
    valid = v.positivity_ok and v.nondominance_ok
    degenerate = bool(v.degenerate_quantities)
    figures, n_att = ["", "", "", ""], ""
    if valid and not degenerate:
        rep = classify_global(p, tol, strict=False)
        degenerate = rep.degenerate
        figures = [e.figure if e is not None else "" for e in rep.edges]
        if not degenerate:
            n_att = str(len(rep.global_attractors))
    return ["1" if valid else "0", "1" if degenerate else "0", v.branch or ""] + figures + [n_att]


def snapped(base: dict, snap) -> Params:
    """``base`` moved onto the boundary named ``snap`` (if any, and if the
    move is defined there)."""
    if snap is not None:
        name, value = SNAPS[snap]
        try:
            base = {**base, name: float(value(Params(**base)))}
        except ZeroDivisionError:
            pass
    return Params(**base)


@st.composite
def sweep_cases(draw):
    """A base point, admissible or anywhere in PARAM_RANGES, perhaps snapped
    onto one boundary, and one or two axes that start at it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = draw_params(rng, draw(st.sampled_from(("B-plus", "B-minus")))).as_dict()
    else:
        base = {k: float(rng.uniform(*PARAM_RANGES[k])) for k in PARAM_NAMES}
    p = snapped(base, draw(st.sampled_from((None,) + tuple(SNAPS))))
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
    def test_strict_face_messages(self, seed, snap, tol):
        rng = np.random.default_rng(seed)
        for i in range(20):
            p = snapped(draw_params(rng, ("B-plus", "B-minus")[i % 2]).as_dict(), snap)
            v = validate(p, tol)
            if v.degenerate_quantities or not (v.positivity_ok and v.nondominance_ok):
                continue
            for face, fn in EDGE_FNS.items():
                want = face_oracle(p, tol, face)
                if isinstance(want, str):
                    with pytest.raises(DegenerateParameterError) as info:
                        fn(p, tol)
                    assert str(info.value) == want
                else:
                    er = fn(p, tol)
                    figure, labels = want
                    assert (er.figure, er.pp, [s.label for s in er.attractors]) == (
                        figure, FIGURE_PP[figure], labels)
