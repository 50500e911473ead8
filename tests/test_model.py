"""Value types, payoff arithmetic, admissibility checks, Nash vertices and
dominance."""

import dataclasses
import math
import pickle
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SET_A, SET_B, SET_C, SET_D, draw_params, draw_simplex, numpy_columns,
                      snapped_points)
from oracles import dominance_oracle, nash_oracle, nondominance_oracle
from socgame import (
    BasinReport,
    DegenerateParameterError,
    EdgeRegime,
    InvalidParameterError,
    Params,
    RegimeReport,
    SimplexState,
    StationaryState,
    Trajectory,
    ValidationReport,
    WelfareReport,
    classify_global,
    dominance_relations,
    estimate_basins,
    face_states,
    integrate,
    nash_vertices,
    payoff_matrix,
    payoff_vector,
    validate,
)
from socgame import model
from socgame.dynamics import replicator_field
from socgame.model import PARAM_NAMES, admissibility, decimal, require_valid


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

    def test_noise_below_zero_is_clamped(self):
        s = SimplexState(0.5, 0.5, -1e-13, 0)
        assert s.as_tuple() == (0.5, 0.5, 0.0, 0.0)
        assert type(s.as_tuple()) is tuple

    def test_replace_and_unpickle_validate_as_the_constructor_does(self):
        s = SimplexState(0.5, 0.5, 0, 0)
        assert s._replace(x2=0.5 - 1e-13, x3=1e-13) == (0.5, 0.5 - 1e-13, 1e-13, 0.0)
        with pytest.raises(ValueError, match="sum"):
            s._replace(x1=1.0)
        with pytest.raises(ValueError, match="outside the simplex"):
            s._replace(x1=1.5, x2=-0.5)
        assert type(s._replace(x4=0.0)) is SimplexState
        back = pickle.loads(pickle.dumps(s))
        assert (type(back), back) == (SimplexState, s)


# every public value type, as two instances that differ in some field
VALUE_PAIRS = {
    "Params": lambda: (SET_A, dataclasses.replace(SET_A, eta=0.6)),
    "SimplexState": lambda: (SimplexState(1, 0, 0, 0), SimplexState(0, 1, 0, 0)),
    "ValidationReport": lambda: (validate(SET_A), validate(SET_B)),
    "StationaryState": lambda: classify_global(SET_A).global_attractors[:2],
    "EdgeRegime": lambda: classify_global(SET_A).edges[:2],
    "RegimeReport": lambda: (classify_global(SET_A), classify_global(SET_B)),
    "WelfareReport": lambda: (classify_global(SET_A).welfare, classify_global(SET_B).welfare),
    "Trajectory": lambda: (integrate(SimplexState(0.25, 0.25, 0.25, 0.25), SET_A),
                           integrate(SimplexState(0.25, 0.25, 0.25, 0.25), SET_B)),
    "BasinReport": lambda: (estimate_basins(SET_B, 20, seed=1),
                            estimate_basins(SET_B, 20, seed=2)),
}
VALUE_TYPES = {cls.__name__: cls for cls in (
    Params, SimplexState, ValidationReport, StationaryState, EdgeRegime, RegimeReport,
    WelfareReport, Trajectory, BasinReport)}


class TestValueTypes:
    """Every value type is immutable and compares and hashes by its fields.
    Params alone is a dataclass: ``dataclasses.replace`` varies one
    constant of a point, and the benchmark's sweep grid relies on it."""

    @pytest.mark.parametrize("name", VALUE_PAIRS)
    def test_frozen_and_compared_by_fields(self, name):
        v, other = VALUE_PAIRS[name]()
        assert type(v) is type(other) is VALUE_TYPES[name]
        names = ([f.name for f in dataclasses.fields(v)] if dataclasses.is_dataclass(v)
                 else list(type(v)._fields))
        with pytest.raises(AttributeError):
            setattr(v, names[0], getattr(other, names[0]))
        copy = type(v)(**{n: getattr(v, n) for n in names})
        assert copy is not v and copy == v and hash(copy) == hash(v)
        assert v != other

    def test_params_is_the_one_dataclass(self):
        assert [name for name, cls in VALUE_TYPES.items()
                if dataclasses.is_dataclass(cls)] == ["Params"]
        q = dataclasses.replace(SET_A, beta=-2)
        assert (q.beta, q.gamma, type(q.beta)) == (-2.0, SET_A.gamma, float)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(SET_A, eta=math.nan)


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


def numpy_table(p: Params, tol: float) -> model.Admissibility:
    """The admissibility table on the numpy scalars of ``numpy_columns(p)``."""
    with np.errstate(all="ignore"):
        return admissibility(numpy_columns(p), tol)


# magnitudes whose products and sums overflow to inf, and then to nan
_HUGE = st.sampled_from((sys.float_info.max, -sys.float_info.max, 1e200, -1e200, 1e155,
                         -1e155, 5e-324, 0.0, -0.0))
huge_points = st.builds(lambda vs: Params(**dict(zip(PARAM_NAMES, vs))),
                        st.lists(st.one_of(_HUGE, st.floats(allow_nan=False,
                                                            allow_infinity=False)),
                                 min_size=6, max_size=6))


class TestFloatTable:
    # validate, nash_vertices and dominance_relations read the table on the
    # floats of a Params; the sweep and the regime table read it on numpy
    # columns. The two must be one table.

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(p=st.one_of(snapped_points(), huge_points), tol=st.sampled_from((1e-9, 1e-3)))
    def test_floats_give_the_numpy_table(self, p, tol):
        floats, columns = admissibility(p, tol), numpy_table(p, tol)
        for name in ("positive", "dominated", "degenerate", "face_degenerate"):
            got, want = getattr(floats, name), getattr(columns, name)
            assert list(got) == list(want)
            assert all(type(v) is bool for v in got.values())
            assert got == {k: bool(v) for k, v in want.items()}
        for name in ("b_plus", "b_minus", "beta_above_eta", "vertices", "valid",
                     "on_boundary"):
            got = getattr(floats, name)
            assert type(got) is bool and got == bool(getattr(columns, name)), name
        assert type(floats.branch) is int and floats.branch == int(columns.branch)
        # the quantities the regime table reads, nan where a payoff is inf - inf
        got = [floats.hp_share, *floats.quantities.values()]
        want = [columns.hp_share, *columns.quantities.values()]
        assert list(floats.quantities) == list(columns.quantities)
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, np.array(want, dtype=float), equal_nan=True)
        # the masks that no longer call np.maximum, against the form that does
        with np.errstate(all="ignore"):
            top = np.maximum(np.float64(p.beta), np.float64(p.gamma))
            assert floats.dominated["H", "N"] == bool(top <= p.eta)
            assert floats.degenerate["max(beta,gamma)-eta"] == bool(abs(top - p.eta) <= tol)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(p=st.one_of(snapped_points(), huge_points), tol=st.sampled_from((1e-9, 1e-3)))
    def test_validate_reads_the_same_report_off_the_numpy_table(self, p, tol):
        on_floats = validate(p, tol).as_dict()
        with mock.patch.object(model, "admissibility", numpy_table):
            assert validate(p, tol).as_dict() == on_floats


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


class TestDecimal:
    # model.decimal formats every number socgame writes; it must give the
    # string numpy's shortest positional formatter gives

    @staticmethod
    def numpy_decimal(v: float) -> str:
        return np.format_float_positional(v, unique=True, trim="0")

    @settings(max_examples=3000, deadline=None, derandomize=True, database=None)
    @given(bits=st.integers(0, 2**64 - 1))
    def test_random_bit_patterns(self, bits):
        v = _from_bits(bits)
        assert decimal(v) == self.numpy_decimal(v)

    @pytest.mark.parametrize("v", [
        0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
        sys.float_info.min, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.5e-5, 1.0, 0.25,
        1e22, 1.2345678901234567e-300, math.inf, -math.inf, math.nan,
    ])
    def test_edges(self, v):
        assert decimal(v) == self.numpy_decimal(v)

    def test_never_scientific(self):
        assert decimal(1e16) == "10000000000000000.0"
        assert decimal(-1.5e-7) == "-0.00000015"
        assert decimal(np.float64(0.1)) == "0.1"


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
