"""Payoff ranking of attractors and the proven welfare inequalities."""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SET_A, SET_B, draw_params, numpy_columns
from oracles import coexistence_payoff, face_regime
from test_golden import CASES
from socgame import (
    OrderingViolationError,
    SimplexState,
    StationaryState,
    classify_global,
    welfare_report,
)
from socgame.model import Params
from socgame.welfare import _unequal, check_orderings, supported_payoffs


def attractors_of(p):
    return classify_global(p).global_attractors


def payoffs_of(attractors, p):
    return dict(welfare_report(attractors, p).payoffs)


class TestStationaryPayoff:
    def test_vertex_payoffs(self):
        pay = payoffs_of(attractors_of(SET_A), SET_A)
        assert pay == {"O": 2.0, "H": 1.0, "P": 2.0, "N": 0.5}

    def test_rejects_nonstationary_support(self):
        fake = StationaryState(
            label="H+P", kind="edge-interior",
            location=SimplexState(0, 0.5, 0.5, 0), support=("H", "P"),
            payoff=0.0, eigen_signs=(), stability="attractive")
        with pytest.raises(ValueError, match="not a stationary state"):
            welfare_report([fake], SET_A)

    def test_matches_coexistence_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = draw_params(rng, "B-minus")
            hp = [a for a in attractors_of(p) if a.label == "H+P"]
            if not hp:
                continue
            assert abs(payoffs_of(hp, p)["H+P"] - coexistence_payoff(p)) < 1e-12


class TestWelfareReport:
    def test_set_a_frozen(self):
        rep = welfare_report(attractors_of(SET_A), SET_A)
        assert rep.payoffs == (("O", 2.0), ("P", 2.0), ("H", 1.0), ("N", 0.5))
        assert rep.ordering == (("O", "P"), ("H",), ("N",))
        assert rep.trap_dominated is True
        assert rep.incomparable == ()

    def test_set_b_frozen(self):
        rep = welfare_report(attractors_of(SET_B), SET_B)
        assert rep.payoffs[0] == ("O", 2.0)
        assert rep.payoffs[1][0] == "H+P"
        assert abs(rep.payoffs[1][1] - 1 / 3) < 1e-12
        assert rep.payoffs[2] == ("N", 0.2)
        assert rep.ordering == (("O",), ("H+P",), ("N",))
        assert rep.incomparable == (("O", "H+P"),)
        assert rep.trap_dominated is True

    def test_ties_are_exact_whatever_the_payoff_unit(self):
        # O pays alpha = 2 and P epsilon, 2**-30 above it: two groups, in
        # the payoff unit of p and in one 2**10 times as large
        p = replace(SET_A, epsilon=2 + 2**-30)
        for q in (p, Params(**{k: 2**10 * v for k, v in p.as_dict().items()})):
            assert welfare_report(attractors_of(q), q).ordering == (("P",), ("O",), ("H",), ("N",))

    def test_as_dict(self):
        d = welfare_report(attractors_of(SET_B), SET_B).as_dict()
        assert set(d) == {"payoffs", "ordering", "trap_dominated", "incomparable"}
        assert d["ordering"][0] == ["O"]
        assert d["incomparable"] == [["O", "H+P"]]
        assert d["payoffs"]["N"] == 0.2

    def test_isolation_above_an_attractor_is_rejected(self):
        # recompute Set A's attractor payoffs under a raised fallback: H now
        # pays less than isolation, which contradicts a proven inequality
        bad = Params(2, 1, 1, 1, 2, 1.5)
        with pytest.raises(OrderingViolationError, match="isolation"):
            welfare_report(attractors_of(SET_A), bad)

    def test_isolation_strictly_last_on_random_draws(self):
        rng = np.random.default_rng(32)
        for i in range(50):
            p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
            rep = welfare_report(attractors_of(p), p)
            labels = [lbl for lbl, _ in rep.payoffs]
            assert "N" in labels and "O" in labels
            assert rep.payoffs[-1][0] == "N"
            floor = rep.payoffs[-1][1]
            assert all(v > floor for lbl, v in rep.payoffs[:-1])
            assert rep.trap_dominated is True


def assert_one_payoff_per_attractor(p):
    # the welfare report gives each global attractor its own state's payoff
    report = classify_global(p)
    pay = dict(report.welfare.payoffs)
    assert {a.label: a.payoff for a in report.global_attractors} == pay, (p, pay)


class TestOnePayoffPerAttractor:
    @pytest.mark.parametrize("name", [name for name, (_, argv, code, _) in CASES.items()
                                      if argv == ["equilibria"] and code == 0])
    def test_at_the_equilibria_golden_points(self, name):
        assert_one_payoff_per_attractor(CASES[name][0])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_at_drawn_points(self, seed, branch):
        assert_one_payoff_per_attractor(draw_params(np.random.default_rng(seed), branch))


class TestCoexistenceSandwich:
    def test_payoff_between_beta_and_epsilon_above_eta(self):
        rng = np.random.default_rng(33)
        qualifying = 0
        while qualifying < 100:
            p = draw_params(rng, "B-minus")
            labels = {a.label for a in attractors_of(p)}
            if "H+P" not in labels:
                continue
            qualifying += 1
            v = coexistence_payoff(p)
            assert p.beta < v < p.epsilon
            assert v > p.eta

    def test_attracts_iff_payoff_beats_fallback(self):
        # the coexistence state survives in the isolation-free face exactly
        # when it beats eta, which is what the S_O regime figure encodes
        rng = np.random.default_rng(34)
        for _ in range(200):
            p = draw_params(rng, "B-minus")
            fig = face_regime(p, "S_O").figure
            assert fig in ("3e", "3f")
            assert (fig == "3e") == (p.eta < coexistence_payoff(p))
            labels = {a.label for a in classify_global(p).global_attractors}
            hp_attracts = (face_regime(p, "S_N").figure == "2e") and (fig == "3e")
            assert ("H+P" in labels) == hp_attracts


# payoffs at the edges of the float range, and anywhere
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0,
                               1e308, -1e308, math.inf, -math.inf, math.nan])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True,
                                          allow_subnormal=True))


def _ulps(v: float, k: int) -> float:
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


# two payoffs a few ulps either side of a spread of 1e-9 * max(1, |a|)
NEAR_PAIRS = st.tuples(FLOATS, st.sampled_from([1e-9, -1e-9]), st.integers(-3, 3)).map(
    lambda t: [t[0], _ulps(t[0] + t[1] * max(1.0, abs(t[0])), t[2])])
PAIRS = st.one_of(st.lists(FLOATS, min_size=2, max_size=2), NEAR_PAIRS)
# rows of the one payoff of a vertex, or of the two of an edge state
ROWS = st.one_of(*(st.lists(st.tuples(st.booleans(), vals), min_size=1, max_size=8)
                   for vals in (st.lists(FLOATS, min_size=1, max_size=1), PAIRS)))


def max_form_unequal(vals):
    """Where the supported payoffs ``vals`` spread beyond 1e-9 times
    max(1, |v|), written with numpy's maximum and minimum reduces."""
    scale = np.maximum(1.0, functools.reduce(np.maximum, [abs(v) for v in vals]))
    spread = functools.reduce(np.maximum, vals) - functools.reduce(np.minimum, vals)
    return spread > 1e-9 * scale


def ordering_outcome(payoffs: dict, q: Params, columns: bool):
    """``check_orderings`` at one point, with every label attracting and the
    given supported payoffs: the payoffs it returns, or the type and message
    of what it raises.  With ``columns``, the same point as numpy scalars."""
    if columns:
        attractors = {k: (np.True_, [np.float64(v) for v in vals]) for k, vals in payoffs.items()}
        q = numpy_columns(q)
    else:
        attractors = {k: (True, vals) for k, vals in payoffs.items()}
    try:
        return {k: float(v) for k, v in check_orderings(attractors, q).items()}
    except ValueError as e:
        return type(e), str(e)


class TestPointAndColumns:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(rows=ROWS)
    def test_unequal_is_the_max_form(self, rows):
        # term by term on floats and on columns, as the max form on both
        with np.errstate(all="ignore"):
            for attracts, vals in rows:
                got = _unequal("X", attracts, vals)[0]
                assert type(got) is bool
                assert got == bool(attracts and max_form_unequal(vals)), vals
            mask = np.array([attracts for attracts, _ in rows])
            column = [np.array(v) for v in zip(*(vals for _, vals in rows))]
            assert np.array_equal(_unequal("X", mask, column)[0],
                                  mask & max_form_unequal(column))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")))
    def test_point_and_one_row_columns_agree(self, seed, branch):
        # check_orderings on a Params and on the same point as numpy
        # scalars returns the same payoffs, and raises the same error
        p = draw_params(np.random.default_rng(seed), branch)
        pay = {a.label: supported_payoffs(a.location, a.support, p)
               for a in attractors_of(p)}
        got = ordering_outcome(pay, p, columns=False)
        assert got == {k: vals[0] for k, vals in pay.items()}
        assert ordering_outcome(pay, p, columns=True) == got

        o = pay["O"][0]
        w = 0.5 * (p.beta + p.epsilon)
        unpaired = {k: vals for k, vals in pay.items() if k != "N"}
        failures = [
            ({**pay, "O": [o, o + 1.0]}, p, ValueError, "supported payoffs differ at O"),
            (pay, replace(p, eta=o), OrderingViolationError,
             "attractor O pays .* not strictly above isolation"),
            ({**unpaired, "H+P": [w, w]}, replace(p, beta=w), OrderingViolationError,
             "coexistence payoff .* outside"),
            ({**unpaired, "H+P": [w, w]}, replace(p, beta=w - 1.0, epsilon=w + 1.0, eta=w),
             OrderingViolationError, "coexistence payoff .* does not beat the fallback"),
        ]
        for payoffs, q, error, message in failures:
            got = ordering_outcome(payoffs, q, columns=False)
            assert got[0] is error and re.match(message, got[1]), got
            assert ordering_outcome(payoffs, q, columns=True) == got
