"""Payoff arithmetic, admissibility checks, Nash vertices and dominance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SET_A, SET_B, SET_C, SET_D, draw_params, draw_simplex, snapped_points
from oracles import dominance_oracle, nash_oracle, nondominance_oracle
from socgame import (
    DegenerateParameterError,
    InvalidParameterError,
    Params,
    SimplexState,
    dominance_relations,
    face_states,
    nash_vertices,
    payoff_matrix,
    payoff_vector,
    validate,
)
from socgame.dynamics import replicator_field
from socgame.model import require_valid


class TestSimplexState:
    def test_accepts_valid_point(self):
        s = SimplexState(0.25, 0.25, 0.25, 0.25)
        assert s.as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_negative_share(self):
        with pytest.raises(ValueError, match="outside the simplex"):
            SimplexState(0.5, 0.5, 0.1, -0.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexState(0.5, 0.2, 0.2, 0.2)

    def test_vertices_are_exact(self):
        assert SimplexState(1, 0, 0, 0).as_tuple() == (1.0, 0.0, 0.0, 0.0)


class TestPayoffs:
    def test_vertex_payoffs(self):
        # pure-population payoffs: alpha, beta, epsilon, eta
        assert payoff_vector(SimplexState(1, 0, 0, 0), SET_A)[0] == 2.0
        assert payoff_vector(SimplexState(0, 1, 0, 0), SET_A)[1] == 1.0
        assert payoff_vector(SimplexState(0, 0, 1, 0), SET_A)[2] == 2.0
        assert payoff_vector(SimplexState(0, 0, 0, 1), SET_A)[3] == 0.5

    def test_coexistence_point_payoffs(self):
        pv = payoff_vector(SimplexState(0, 1 / 3, 2 / 3, 0), SET_A)
        assert abs(pv[1] - 1.0) < 1e-12 and abs(pv[2] - 1.0) < 1e-12

    def test_face_interior_equal_payoffs(self):
        pv = payoff_vector(SimplexState(1 / 3, 2 / 9, 4 / 9, 0), SET_A)
        for v in pv[:3]:
            assert abs(v - 2 / 3) < 1e-12

    def test_average_payoff_uniform(self):
        x = (0.25, 0.25, 0.25, 0.25)
        avg = sum(xi * v for xi, v in zip(x, payoff_vector(x, SET_A)))
        assert abs(avg - 0.4375) < 1e-12

    def test_average_is_share_weighted_payoff(self):
        # the replicator field grows each share by its payoff advantage over
        # the share-weighted mean payoff
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = draw_params(rng, "B-plus" if rng.random() < 0.5 else "B-minus")
            x = draw_simplex(rng)
            pv = payoff_vector(x, p)
            avg = sum(xi * v for xi, v in zip(x, pv))
            d = replicator_field(x, p)
            assert max(abs(di - xi * (v - avg)) for di, xi, v in zip(d, x, pv)) < 1e-12

    def test_payoff_vector_is_matrix_product(self):
        rng = np.random.default_rng(6)
        m = payoff_matrix(SET_A)
        for _ in range(20):
            s = draw_simplex(rng)
            pv = payoff_vector(SimplexState(*s), SET_A)
            assert np.allclose(m @ np.array(s), pv, atol=1e-14)

    def test_payoff_matrix_values(self):
        assert payoff_matrix(SET_A).tolist() == [
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, -1.0, 2.0, 0.0],
            [0.5, 0.5, 0.5, 0.5],
        ]

    def test_payoffs_linear_in_state(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = draw_params(rng, "B-plus")
            a = np.array(draw_simplex(rng))
            b = np.array(draw_simplex(rng))
            lam = rng.random()
            mix = lam * a + (1 - lam) * b
            pv_mix = payoff_vector(SimplexState(*mix), p)
            pv_a = payoff_vector(SimplexState(*a), p)
            pv_b = payoff_vector(SimplexState(*b), p)
            for m, va, vb in zip(pv_mix, pv_a, pv_b):
                assert abs(m - (lam * va + (1 - lam) * vb)) < 1e-12


class TestValidate:
    def test_canonical_sets_admissible(self):
        for p, branch in ((SET_A, "B-plus"), (SET_B, "B-minus"), (SET_C, "B-plus")):
            v = validate(p)
            assert v.positivity_ok and v.nondominance_ok
            assert v.branch == branch
            assert v.degenerate_quantities == ()

    def test_epsilon_gamma_boundary_degenerate(self):
        v = validate(SET_D)
        assert "epsilon-gamma" in v.degenerate_quantities

    def test_negative_rate_fails_positivity(self):
        v = validate(Params(alpha=-1, beta=1, gamma=1, delta=1, epsilon=2, eta=0.5))
        assert not v.positivity_ok

    def test_dominated_isolation_fails(self):
        # eta above alpha, epsilon and max(beta, gamma): everything dominated
        v = validate(Params(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, eta=3.0))
        assert not v.nondominance_ok
        assert v.positivity_ok

    def test_tolerance_controls_degeneracy(self):
        p = Params(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, eta=2 - 5e-10)
        assert "epsilon-eta" in validate(p).degenerate_quantities
        assert "epsilon-eta" not in validate(p, tol=1e-12).degenerate_quantities

    def test_require_valid_degenerate_wins(self):
        # gamma = epsilon fails both nondominance and degeneracy checks;
        # the degenerate error is the one that must surface
        with pytest.raises(DegenerateParameterError):
            require_valid(SET_D)

    def test_require_valid_inadmissible(self):
        with pytest.raises(InvalidParameterError):
            require_valid(Params(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, eta=3.0))

    def test_require_valid_passes_canonical(self):
        for p in (SET_A, SET_B, SET_C):
            require_valid(p)

    def test_random_draws_validate(self):
        rng = np.random.default_rng(8)
        for branch in ("B-plus", "B-minus"):
            for _ in range(25):
                v = validate(draw_params(rng, branch))
                assert v.branch == branch
                assert v.positivity_ok and v.nondominance_ok


class TestNashVertices:
    def test_set_a_all_nash(self):
        assert nash_vertices(SET_A) == {"O": True, "H": True, "P": True, "N": True}

    def test_set_b_only_o_and_n(self):
        assert nash_vertices(SET_B) == {"O": True, "H": False, "P": False, "N": True}

    def test_set_c(self):
        assert nash_vertices(SET_C) == {"O": True, "H": False, "P": True, "N": True}

    def test_o_and_n_always_nash_on_valid_draws(self):
        rng = np.random.default_rng(9)
        for branch in ("B-plus", "B-minus"):
            for _ in range(25):
                nv = nash_vertices(draw_params(rng, branch))
                assert nv["O"] and nv["N"]

    def test_h_p_never_nash_in_b_minus(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            nv = nash_vertices(draw_params(rng, "B-minus"))
            assert not nv["H"] and not nv["P"]


class TestDominance:
    def test_canonical_sets_have_none(self):
        assert dominance_relations(SET_A) == []
        assert dominance_relations(SET_B) == []
        assert dominance_relations(SET_C) == []

    def test_h_dominates_p_when_cross_terms_allow(self):
        # beta >= -delta and gamma >= epsilon make H at least as good as P
        # against every population, so P shows up as the dominated strategy
        p = Params(alpha=2, beta=1, gamma=2.5, delta=1, epsilon=2, eta=0.5)
        assert ("P", "H") in dominance_relations(p)

    def test_isolation_dominates_when_eta_large(self):
        p = Params(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, eta=2.5)
        rels = dominance_relations(p)
        assert ("O", "N") in rels and ("H", "N") in rels and ("P", "N") in rels


def outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (InvalidParameterError, DegenerateParameterError) as e:
        return type(e), str(e)


class TestAdmissibilityOracle:
    # the admissibility table's dominance masks, and what is read off them,
    # against the inequalities written out, on and off every SNAPS boundary

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points())
    def test_dominance_relations(self, p):
        assert outcome(dominance_relations, p) == outcome(dominance_oracle, p)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_nash_vertices(self, p, tol):
        got = outcome(nash_vertices, p, tol)
        assert got == outcome(nash_oracle, p, tol)
        if isinstance(got, dict):  # plain bools, as the check JSON needs
            assert all(type(v) is bool for v in got.values())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=snapped_points(), tol=st.sampled_from((1e-9, 1e-3)))
    def test_validate_nondominance_and_branch(self, p, tol):
        v = validate(p, tol)
        assert (v.nondominance_ok, v.branch) == nondominance_oracle(p)


class TestCoexistencePayoff:
    # the H+P state of the no-isolation face carries the coexistence payoff

    @staticmethod
    def hp_payoff(p):
        return {s.label: s for s in face_states(p, "S_N")}["H+P"].payoff

    def test_values(self):
        assert abs(self.hp_payoff(SET_A) - 1.0) < 1e-12
        assert abs(self.hp_payoff(SET_B) - 1 / 3) < 1e-12
        assert abs(self.hp_payoff(SET_C) - 0.2 / 1.3) < 1e-12

    def test_matches_payoff_at_the_state(self):
        # the state's payoff equals the common H/P payoff where the two intersect
        for p, x2 in ((SET_A, 1 / 3), (SET_B, 1 / 3)):
            pv = payoff_vector(SimplexState(0, x2, 1 - x2, 0), p)
            assert abs(self.hp_payoff(p) - pv[1]) < 1e-12
