"""Payoff ranking of attractors and the proven welfare inequalities."""

import numpy as np
import pytest

from conftest import SET_A, SET_B, draw_params
from oracles import coexistence_payoff
from socgame import (
    OrderingViolationError,
    SimplexState,
    StationaryState,
    classify_edge,
    classify_global,
    welfare_report,
)
from socgame.model import Params


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
            fig = classify_edge(p, "S_O").figure
            assert fig in ("3e", "3f")
            assert (fig == "3e") == (p.eta < coexistence_payoff(p))
            labels = {a.label for a in classify_global(p).global_attractors}
            hp_attracts = (classify_edge(p, "S_N").figure == "2e") and (fig == "3e")
            assert ("H+P" in labels) == hp_attracts
