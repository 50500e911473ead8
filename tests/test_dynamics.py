"""Vector fields, coordinate charts and the simplex-preserving integrator."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BOX_ONLY_P, BOX_ONLY_X0, SET_A, SET_B, SET_C, draw_params, draw_simplex
from oracles import (
    ChartDomainError,
    LVState,
    from_lv,
    lv_rhs_2d,
    lv_rhs_3d,
    lv_states_at,
    to_lv,
)
from socgame import (
    SimplexState,
    classify_global,
    find_attractor,
    integrate,
    match_attractor,
    states_at,
)
from socgame import dynamics
from socgame.basins import attractor_boxes
from socgame.dynamics import (
    RatioBox,
    _grow,
    _grow_rows,
    _in_a_box,
    _integrate_rows,
    box_index,
    replicator_field,
)


class TestReplicatorRhs:
    def test_vertices_stationary(self):
        for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            assert replicator_field(v, SET_A) == (0.0, 0.0, 0.0, 0.0)

    def test_equal_payoff_interior_point_stationary(self):
        d = replicator_field((1 / 4, 1 / 6, 1 / 3, 1 / 4), SET_A)
        assert max(abs(v) for v in d) < 1e-12

    def test_np_edge_value(self):
        d = replicator_field((0, 0, 0.1, 0.9), SET_A)
        assert abs(d[2] + 0.027) < 1e-12
        assert abs(d[3] - 0.027) < 1e-12
        assert d[0] == 0.0 and d[1] == 0.0

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = draw_params(rng, "B-plus" if rng.random() < 0.5 else "B-minus")
            d = replicator_field(draw_simplex(rng), p)
            assert abs(sum(d)) < 1e-12


class TestFaceRhs:
    def test_matches_full_field_on_face(self):
        # on the x4 = 0 face the field has no component off the face
        d = replicator_field((0.2, 0.3, 0.5, 0), SET_A)
        assert d[3] == 0.0
        assert abs(sum(d[:3])) < 1e-15

    def test_face_interior_point_stationary(self):
        d = replicator_field((1 / 3, 2 / 9, 4 / 9, 0), SET_A)
        assert max(abs(v) for v in d) < 1e-12

    def test_coexistence_point_stationary(self):
        d = replicator_field((0, 1 / 3, 2 / 3, 0), SET_A)
        assert max(abs(v) for v in d) < 1e-12


class TestOrthantFields:
    def test_origin_stationary(self):
        assert lv_rhs_2d(0.0, 0.0, SET_A) == (0.0, 0.0)
        assert lv_rhs_3d(LVState(0, 0, 0), SET_A) == (0.0, 0.0, 0.0)

    def test_planar_values(self):
        assert lv_rhs_2d(0.0, 2.0, SET_A) == (0.0, 4.0)
        dy, dz = lv_rhs_2d(2 / 3, 4 / 3, SET_A)
        assert abs(dy) < 1e-15 and abs(dz) < 1e-15

    def test_3d_values(self):
        assert lv_rhs_3d(LVState(1, 0, 0), SET_A) == (-1.0, 0.0, 0.0)
        d = lv_rhs_3d(LVState(2 / 3, 4 / 3, 1), SET_A)
        assert max(abs(v) for v in d) < 1e-15

    def test_first_two_components_decouple_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = draw_params(rng, "B-plus" if rng.random() < 0.5 else "B-minus")
            y, z = rng.uniform(0, 5, size=2)
            for w in (0.0, rng.uniform(0, 5), rng.uniform(5, 50)):
                full = lv_rhs_3d(LVState(y, z, w), p)
                assert full[:2] == lv_rhs_2d(y, z, p)


class TestChartMaps:
    def test_examples(self):
        assert to_lv(SimplexState(1, 0, 0, 0)).as_tuple() == (0.0, 0.0, 0.0)
        lv = to_lv(SimplexState(1 / 4, 1 / 6, 1 / 3, 1 / 4))
        assert max(abs(a - b) for a, b in zip(lv.as_tuple(), (2 / 3, 4 / 3, 1))) < 1e-12
        assert from_lv(LVState(0, 0, 0)).as_tuple() == (1.0, 0.0, 0.0, 0.0)
        back = from_lv(LVState(2 / 3, 4 / 3, 1))
        assert max(abs(a - b) for a, b in
                   zip(back.as_tuple(), (1 / 4, 1 / 6, 1 / 3, 1 / 4))) < 1e-12

    def test_chart_undefined_at_zero_o_share(self):
        with pytest.raises(ChartDomainError):
            to_lv(SimplexState(0, 0.5, 0.5, 0))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = draw_simplex(rng)
            if x[0] < 1e-6:
                continue
            back = from_lv(to_lv(SimplexState(*x)))
            assert max(abs(a - b) for a, b in zip(back.as_tuple(), x)) < 1e-12

    def test_from_lv_always_on_simplex(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            y, z, w = rng.uniform(0, 100, size=3)
            s = from_lv(LVState(y, z, w))  # constructor enforces the invariants
            assert abs(sum(s.as_tuple()) - 1.0) < 1e-12


class TestIntegrate:
    def test_rejects_bad_max_time(self, monkeypatch):
        # refused before any step is taken
        monkeypatch.setattr(dynamics, "_drive", None)
        for max_time in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_time"):
                integrate(SimplexState(0.25, 0.25, 0.25, 0.25), SET_A, max_time=max_time)

    def test_stationary_start_converges_immediately(self):
        tr = integrate(SimplexState(0, 0, 0, 1), SET_A)
        assert tr.verdict == "converged"
        assert tr.times == (0.0,)
        assert tr.final_state.as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_np_edge_threshold(self):
        # on the N-P edge the flow reduces to x3' = x3(1-x3)(eps*x3 - eta):
        # threshold at eta/eps = 0.25
        lo = integrate(SimplexState(0, 0, 0.24, 0.76), SET_A)
        hi = integrate(SimplexState(0, 0, 0.26, 0.74), SET_A)
        assert lo.verdict == "converged"
        assert hi.verdict == "converged"
        assert max(abs(a - b) for a, b in zip(lo.final_state.as_tuple(), (0, 0, 0, 1))) < 1e-8
        assert max(abs(a - b) for a, b in zip(hi.final_state.as_tuple(), (0, 0, 1, 0))) < 1e-8

    def test_exact_zeros_stay_zero(self):
        tr = integrate(SimplexState(0, 0.3, 0.3, 0.4), SET_A)
        assert all(s.x1 == 0.0 for s in tr.states)
        tr = integrate(SimplexState(0.4, 0, 0.2, 0.4), SET_B)
        assert all(s.x2 == 0.0 for s in tr.states)

    def test_samples_stay_on_simplex(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            p = draw_params(rng, "B-plus" if rng.random() < 0.5 else "B-minus")
            tr = integrate(SimplexState(*draw_simplex(rng)), p)
            xs = np.array([s.as_tuple() for s in tr.states])
            assert np.all(xs >= 0.0)
            assert np.max(np.abs(xs.sum(axis=1) - 1.0)) < 1e-9

    def test_deterministic_replay(self):
        a = integrate(SimplexState(0.25, 0.25, 0.25, 0.25), SET_B)
        b = integrate(SimplexState(0.25, 0.25, 0.25, 0.25), SET_B)
        assert a.times == b.times
        assert all(x.as_tuple() == y.as_tuple() for x, y in zip(a.states, b.states))

    def test_trajectory_csv_format(self):
        tr = integrate(SimplexState(0, 0, 0.26, 0.74), SET_A)
        buf = io.StringIO()
        tr.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4"
        assert len(lines) == len(tr.times) + 1
        # plain positional decimals that parse back exactly
        first = lines[1].split(",")
        assert "e" not in lines[1] and "E" not in lines[1]
        assert [float(v) for v in first[1:]] == [0.0, 0.0, 0.26, 0.74]


class TestEdgeConvergence:
    @pytest.mark.parametrize("p", [SET_A, SET_B], ids=["set_a", "set_b"])
    def test_almost_all_interior_starts_settle_on_an_edge(self, p):
        rng = np.random.default_rng(17)
        good = 0
        for _ in range(1000):
            tr = integrate(SimplexState(*draw_simplex(rng)), p)
            if tr.verdict != "converged":
                continue
            support = sum(1 for v in tr.final_state.as_tuple() if v > 1e-6)
            if support <= 2:
                good += 1
        assert good >= 999


class TestConjugacy:
    @pytest.mark.parametrize("p", [SET_A, SET_B], ids=["set_a", "set_b"])
    def test_chart_and_direct_runs_agree(self, p):
        rng = np.random.default_rng(18)
        times = np.linspace(0.0, 20.0, 11)
        for _ in range(10):
            x = np.array(draw_simplex(rng))
            if x[0] < 0.05:
                x[0] += 0.05
                x /= x.sum()
            x0 = SimplexState(*x)
            direct = states_at(x0, p, times)
            mapped = [from_lv(lv) for lv in lv_states_at(to_lv(x0), p, times)]
            dev = max(max(abs(a - b) for a, b in zip(d.as_tuple(), m.as_tuple()))
                      for d, m in zip(direct, mapped))
            assert dev < 1e-6

    def test_states_at_hits_requested_times(self):
        times = [0.0, 0.5, 1.0, 7.25]
        out = states_at(SimplexState(0.25, 0.25, 0.25, 0.25), SET_A, times)
        assert len(out) == len(times)
        assert out[0].as_tuple() == (0.25, 0.25, 0.25, 0.25)

    @pytest.mark.parametrize("times", [[math.nan], [math.inf], [0.0, -math.inf], [-1.0],
                                       [0.0, 2.0, 1.0], [1.0, math.nan, 2.0]],
                             ids=["nan", "inf", "-inf", "negative", "decreasing", "nan-between"])
    def test_states_at_rejects_bad_times(self, times):
        # checked before integrating: NaN and inf targets are never reached,
        # a negative one would return the start, a decreasing one would
        # fail as a step underflow
        with pytest.raises(ValueError, match="sample times must be finite"):
            states_at(SimplexState(0.25, 0.25, 0.25, 0.25), SET_B, times)

    def test_states_at_repeats_a_repeated_time(self):
        out = states_at(SimplexState(0.25, 0.25, 0.25, 0.25), SET_B, [0.0, 0.0, 1.5, 1.5])
        assert len(out) == 4 and out[0] == out[1]
        # a time after 0 is sampled again with no step and no second
        # projection, so its repeat is the same state bit for bit
        first, again = states_at(SimplexState(0.1, 0.2, 0.3, 0.4), SET_B, [1.0, 1.0])
        assert first.as_tuple() == again.as_tuple()

    def test_empty_times_give_no_states(self):
        assert states_at(SimplexState(0.25, 0.25, 0.25, 0.25), SET_A, []) == []
        assert lv_states_at(LVState(1.0, 1.0, 1.0), SET_A, []) == []


class TestDriverProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
           zeros=st.sets(st.integers(0, 3), max_size=3),
           max_time=st.sampled_from((1000.0, 2.5)))
    def test_runs_keep_zeros_simplex_and_order(self, seed, branch, zeros, max_time):
        rng = np.random.default_rng(seed)
        p = draw_params(rng, branch)
        x = np.array(draw_simplex(rng))
        zeros = sorted(zeros)
        x[zeros] = 0.0
        x /= x.sum()
        x0 = SimplexState(*x)

        tr = integrate(x0, p, max_time)
        times, xs = np.array(tr.times), np.array([s.as_tuple() for s in tr.states])
        assert np.all(np.diff(times) > 0.0)
        if tr.verdict == "max-time-reached":
            # the last step is shortened to land on max_time exactly
            assert times[-1] == max_time
        assert np.all(xs[:, zeros] == 0.0)
        assert np.max(np.abs(xs.sum(axis=1) - 1.0)) <= 1e-9

        requested = [0.0] + sorted(rng.uniform(0.0, 30.0, size=4).tolist())
        out = states_at(x0, p, requested)
        assert len(out) == len(requested)
        assert out[0].as_tuple() == x0.as_tuple()
        xs = np.array([s.as_tuple() for s in out])
        assert np.all(xs[:, zeros] == 0.0)
        assert np.max(np.abs(xs.sum(axis=1) - 1.0)) <= 1e-9


def batch_case(seed, branch, zeros):
    """A drawn point, one start per entry of ``zeros`` with those shares
    set to 0."""
    rng = np.random.default_rng(seed)
    p = draw_params(rng, branch)
    x0 = np.array([draw_simplex(rng) for _ in zeros])
    for row, z in zip(x0, zeros):
        row[sorted(z)] = 0.0
    x0 /= x0.sum(axis=1, keepdims=True)
    return p, x0


# the short horizon ends most runs in max-time-reached after a last step
# shortened to land on max_time, which the batch takes in the block as well
BATCH_CASES = dict(
    seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
    zeros=st.lists(st.sets(st.integers(0, 3), max_size=3), min_size=1, max_size=24),
    max_time=st.sampled_from((1000.0, 3.3)))


# more rows than _HANDOVER_ROWS: with and without boxes, the batch steps
# them all, then hands its last rows to _drive after some steps
WIDE_CASE = dict(seed=0, branch="B-minus", zeros=[set()] * 48, max_time=1000.0)
# as wide, at a horizon that most rows reach in the block
SHORT_CASE = dict(WIDE_CASE, max_time=3.3)


def batch_runs(x0, p, max_time, boxes=()):
    """``_integrate_rows`` as a pure batch (no handover) and with the
    handover at its default size."""
    runs = []
    for handover in (0, dynamics._HANDOVER_ROWS):
        with mock.patch.object(dynamics, "_HANDOVER_ROWS", handover):
            runs.append(_integrate_rows(x0, p, max_time, boxes))
    return runs


class TestBatchedRuns:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**BATCH_CASES)
    @example(**WIDE_CASE)
    @example(**SHORT_CASE)
    def test_batch_equals_per_start(self, seed, branch, zeros, max_time):
        p, x0 = batch_case(seed, branch, zeros)
        runs = [integrate(SimplexState(*row), p, max_time) for row in x0.tolist()]
        for finals, verdicts, steps in batch_runs(x0, p, max_time):
            assert len(verdicts) == len(x0)
            for tr, final, verdict, k in zip(runs, finals.tolist(), verdicts, steps.tolist()):
                assert tuple(final) == tr.final_state.as_tuple()
                assert verdict == tr.verdict
                assert k == len(tr.times) - 1

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**BATCH_CASES)
    @example(**WIDE_CASE)
    @example(**SHORT_CASE)
    def test_batch_with_boxes_equals_per_start_until_certified(self, seed, branch, zeros,
                                                               max_time):
        # a certified row stops, inside a box, where the run to rest is after
        # as many steps; every other row ends where that run ends
        p, x0 = batch_case(seed, branch, zeros)
        boxes = [box for _, box in attractor_boxes(classify_global(p).global_attractors, p)]
        runs = [integrate(SimplexState(*row), p, max_time) for row in x0.tolist()]
        for finals, verdicts, steps in batch_runs(x0, p, max_time, boxes):
            inside = box_index(finals.T, boxes).tolist()
            for tr, final, verdict, k, i in zip(runs, finals.tolist(), verdicts,
                                                steps.tolist(), inside):
                if verdict == "certified":
                    assert i >= 0 and k <= len(tr.times) - 1
                    assert tuple(final) == tr.states[k].as_tuple()
                else:
                    assert tuple(final) == tr.final_state.as_tuple()
                    assert verdict == tr.verdict
                    assert k == len(tr.times) - 1

    @pytest.mark.parametrize("with_boxes", [False, True])
    def test_last_rows_leave_the_batch_mid_run(self, monkeypatch, with_boxes):
        p, x0 = batch_case(WIDE_CASE["seed"], WIDE_CASE["branch"], WIDE_CASE["zeros"])
        boxes = [box for _, box in attractor_boxes(classify_global(p).global_attractors, p)]
        resumed = []
        drive = dynamics._drive

        def spy(*args, **kwargs):
            resumed.append(kwargs["t"])
            return drive(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_drive", spy)
        _integrate_rows(x0, p, WIDE_CASE["max_time"], boxes if with_boxes else ())
        assert 0 < len(resumed) <= dynamics._HANDOVER_ROWS and min(resumed) > 0

    def test_rows_reach_max_time_in_the_block(self, monkeypatch):
        # with no handover, no row goes on in _drive, also where most rows
        # stop at max_time after a shortened step
        p, x0 = batch_case(SHORT_CASE["seed"], SHORT_CASE["branch"], SHORT_CASE["zeros"])
        resumed = []
        drive = dynamics._drive

        def spy(*args, **kwargs):
            resumed.append(kwargs["t"])
            return drive(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_drive", spy)
        monkeypatch.setattr(dynamics, "_HANDOVER_ROWS", 0)
        _integrate_rows(x0, p, SHORT_CASE["max_time"])
        assert resumed == []


def near(c):
    """Floats within 64 ulps of ``c``."""
    return st.integers(-64, 64).map(lambda i: c + i * math.ulp(c))


# 0.9 * e ** -0.2 is 5 at e = 0.18 ** 5 and 0.2 at e = 4.5 ** 5
GROW_ERRORS = st.one_of(st.floats(-12.0, 0.0).map(lambda k: 10.0 ** k),
                        st.sampled_from((0.0, 1.0)), near(0.18 ** 5), near(4.5 ** 5))


class TestStepFactors:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(errs=st.lists(GROW_ERRORS, min_size=1, max_size=40))
    def test_batch_grow_equals_grow(self, errs):
        assert _grow_rows(np.array(errs)).tolist() == [_grow(e) for e in errs]


def two_sided_box_index(y, boxes):
    """``box_index`` with both bounds tested for every ratio, lower bounds
    of 0 included."""
    found = np.full(len(y[0]), -1)
    for i, b in enumerate(boxes):
        xr = y[b.ref]
        inside = xr > 0.0
        for k in range(4):
            if k != b.ref:
                inside &= (b.lo[k] * xr <= y[k]) & (y[k] <= b.hi[k] * xr)
        found[(found < 0) & inside] = i
    return found


@st.composite
def ratio_boxes(draw):
    """A box as ``basins.ratio_box`` shapes one: lower bounds of 0 or above."""
    ref = draw(st.integers(0, 3))
    bound = st.floats(0.0, 4.0)
    lo, hi = [1.0] * 4, [1.0] * 4
    for k in range(4):
        if k != ref:
            lo[k] = draw(st.one_of(st.just(0.0), bound))
            hi[k] = lo[k] + draw(bound)
    return RatioBox(ref, tuple(lo), tuple(hi))


# exact zeros, shares of any size and NaN; rows need not sum to 1
SHARE = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e300), st.just(math.nan))


class TestBoxIndex:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(boxes=st.lists(ratio_boxes(), max_size=4),
           rows=st.lists(st.tuples(SHARE, SHARE, SHARE, SHARE), min_size=1, max_size=30))
    def test_equals_two_sided_test_on_non_negative_shares(self, boxes, rows):
        y = np.array(rows).T
        assert box_index(y, boxes).tolist() == two_sided_box_index(y, boxes).tolist()
        assert box_index(tuple(y), boxes).tolist() == two_sided_box_index(y, boxes).tolist()
        assert ([_in_a_box(row, boxes) for row in rows]
                == (two_sided_box_index(y, boxes) >= 0).tolist())


class TestAttractorMatching:
    def test_match_attractor_picks_within_tolerance(self):
        from socgame import classify_global
        report = classify_global(SET_A)
        near_o = SimplexState(1 - 3e-7, 1e-7, 1e-7, 1e-7)
        hit = match_attractor(near_o, report.global_attractors)
        assert hit is not None and hit.label == "O"
        off = SimplexState(0.9, 0.1, 0.0, 0.0)
        assert match_attractor(off, report.global_attractors) is None

    def test_find_attractor_coexistence(self):
        hit = find_attractor(SimplexState(0.05, 0.35, 0.55, 0.05), SET_B)
        assert hit is not None and hit.label == "H+P"
        assert max(abs(a - b) for a, b in
                   zip(hit.location.as_tuple(), (0, 1 / 3, 2 / 3, 0))) < 1e-12

    def test_find_attractor_o_basin(self):
        x0 = SimplexState(0.9, 0.03, 0.03, 0.04)
        for p in (SET_A, SET_B, SET_C):
            hit = find_attractor(x0, p)
            assert hit is not None and hit.label == "O"

    def test_find_attractor_o_basin_on_random_draws(self):
        rng = np.random.default_rng(19)
        x0 = SimplexState(0.9, 0.03, 0.03, 0.04)
        for branch in ("B-plus", "B-minus"):
            for _ in range(5):
                hit = find_attractor(x0, draw_params(rng, branch))
                assert hit is not None and hit.label == "O"

    def test_vertex_start_matches_itself(self):
        hit = find_attractor(SimplexState(0, 0, 0, 1), SET_A)
        assert hit is not None and hit.label == "N"

    def test_find_attractor_labels_by_ratio_box(self):
        # the run to rest stops at max_time 1.7e-4 off the H-P edge, beyond
        # the match tolerance, but inside the H+P ratio box
        x0 = SimplexState(*BOX_ONLY_X0)
        assert integrate(x0, BOX_ONLY_P).verdict == "max-time-reached"
        hit = find_attractor(x0, BOX_ONLY_P)
        assert hit is not None and hit.label == "H+P"
