"""Monte Carlo basin-of-attraction estimates and the ratio boxes that
certify a sample's attractor."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SET_A, SET_B, SET_C, SNAPS, admissible, draw_params, snapped
from oracles import uniform_ratio_box
from socgame import (
    DegenerateParameterError,
    SimplexState,
    StationaryState,
    classify_global,
    estimate_basins,
    find_attractor,
    integrate,
    match_attractor,
    sample_simplex,
    validate,
)
from socgame import basins
from socgame.basins import _certifies, attractor_boxes, label_runs, ratio_box
from socgame.model import DEFAULT_MAX_TIME, STRATEGIES, payoff_rows


class TestSampleSimplex:
    def test_shape_and_membership(self):
        pts = sample_simplex(500, 42)
        assert pts.shape == (500, 4)
        assert np.all(pts >= 0)
        assert np.max(np.abs(pts.sum(axis=1) - 1.0)) < 1e-12

    def test_deterministic_in_seed(self):
        assert np.array_equal(sample_simplex(50, 1), sample_simplex(50, 1))
        assert not np.array_equal(sample_simplex(50, 1), sample_simplex(50, 2))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample_simplex(0, 42)

    def test_uniform_mean(self):
        # each coordinate of a uniform draw on the simplex has mean 1/4
        pts = sample_simplex(20000, 3)
        assert np.max(np.abs(pts.mean(axis=0) - 0.25)) < 0.01


class TestEstimateBasins:
    def test_set_a_covers_all_four_vertices(self):
        rep = estimate_basins(SET_A, 400, seed=7)
        assert rep.sample_count == 400 and rep.seed == 7
        assert rep.sampling == "uniform-simplex"
        counts = dict(rep.counts)
        assert sum(counts.values()) == 400
        assert all(counts[lbl] > 0 for lbl in ("O", "H", "P", "N"))
        assert counts["unresolved"] == 0
        assert abs(sum(rep.fractions.values()) - 1.0) < 1e-12

    def test_rejects_bad_max_time(self, monkeypatch):
        # refused before the point is classified or any sample is drawn
        monkeypatch.setattr(basins, "classify_global", None)
        monkeypatch.setattr(basins, "sample_simplex", None)
        for max_time in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_time"):
                estimate_basins(SET_B, 10, seed=1, max_time=max_time)

    def test_set_b_labels(self):
        rep = estimate_basins(SET_B, 300, seed=7)
        counts = dict(rep.counts)
        assert set(counts) == {"O", "N", "H+P", "unresolved"}
        assert all(counts[lbl] > 0 for lbl in ("O", "N", "H+P"))
        assert counts["unresolved"] == 0

    def test_deterministic_in_seed(self):
        a = estimate_basins(SET_A, 150, seed=11)
        b = estimate_basins(SET_A, 150, seed=11)
        assert a.counts == b.counts

    def test_benchmark_seed_counts(self):
        # the exact counts perfbench/reference.json records for set B at seed 1
        rep = estimate_basins(SET_B, 1000, seed=1)
        assert rep.counts == (("O", 718), ("N", 97), ("H+P", 185), ("unresolved", 0))

    def test_stderr_shrinks_with_sample_size(self):
        small = estimate_basins(SET_A, 300, seed=9)
        large = estimate_basins(SET_A, 1200, seed=9)
        ratio = small.stderr["O"] / large.stderr["O"]
        assert 1.6 < ratio < 2.4  # binomial stderr scales like 1/sqrt(n)

    def test_as_dict(self):
        d = estimate_basins(SET_B, 100, seed=2).as_dict()
        assert d["sample_count"] == 100
        assert d["sampling"] == "uniform-simplex"
        for entry in d["basins"].values():
            assert set(entry) == {"count", "fraction", "stderr"}
            assert entry["fraction"] == pytest.approx(entry["count"] / 100)

    @pytest.mark.parametrize("p", [SET_A, SET_B, SET_C], ids=["A", "B", "C"])
    @pytest.mark.parametrize("seed, max_time",
                             [(3, DEFAULT_MAX_TIME), (8, DEFAULT_MAX_TIME), (3, 20.0)],
                             ids=["3", "8", "3-t20"])
    def test_counts_equal_per_start_tally(self, p, seed, max_time):
        # a sample certified in the batch gets the label its own run gets,
        # whether that run goes to rest or stops at a short max_time
        assert (dict(estimate_basins(p, 200, seed=seed, max_time=max_time).counts)
                == per_start_tally(p, 200, seed, max_time))

    def test_short_horizon_leaves_fewer_unresolved(self):
        # a certified sample is labelled even where max_time stops its run
        # before it settles within the match tolerance
        short = dict(estimate_basins(SET_B, 300, seed=4, max_time=10.0).counts)
        full = dict(estimate_basins(SET_B, 300, seed=4).counts)
        tally = match_tally(SET_B, 300, 4, 10.0)
        for label in ("O", "N", "H+P"):
            assert tally[label] <= short[label] <= full[label]
        assert short["unresolved"] < tally["unresolved"]


def per_start_tally(p, n, seed, max_time=DEFAULT_MAX_TIME):
    """``find_attractor`` counts over ``estimate_basins``'s starts."""
    attractors = classify_global(p).global_attractors
    tally = {a.label: 0 for a in attractors}
    tally["unresolved"] = 0
    for row in sample_simplex(n, seed).tolist():
        hit = find_attractor(SimplexState(*row), p, max_time, attractors=attractors)
        tally[hit.label if hit is not None else "unresolved"] += 1
    return tally


def match_tally(p, n, seed, max_time):
    """Counts over ``estimate_basins``'s starts when each run is labelled
    only by matching its end state, with no ratio box."""
    attractors = classify_global(p).global_attractors
    tally = {a.label: 0 for a in attractors}
    tally["unresolved"] = 0
    for row in sample_simplex(n, seed).tolist():
        tr = integrate(SimplexState(*row), p, max_time)
        hit = None if tr.verdict == "step-failure" else match_attractor(tr.final_state, attractors)
        tally[hit.label if hit is not None else "unresolved"] += 1
    return tally


def box_points(box, rng):
    """Shares at every corner of ``box``, at one point on each of its faces
    and at two inside it; off-support ratios are exactly 0 on their lower
    faces."""
    others = [k for k in range(4) if k != box.ref]
    us = [dict(zip(others, c)) for c in itertools.product(*((box.lo[k], box.hi[k]) for k in others))]
    inside = [{k: rng.uniform(box.lo[k], box.hi[k]) for k in others} for _ in range(2 + 2 * len(others))]
    for i, k in enumerate(others):  # pin one coordinate of each face draw to that face
        inside[i][k] = box.lo[k]
        inside[i + len(others)][k] = box.hi[k]
    out = []
    for u in us + inside:
        u = [1.0 if k == box.ref else u[k] for k in range(4)]
        out.append(SimplexState(*(v / sum(u) for v in u)))
    return out


SLOW_MARGIN = 0.05


class TestRatioBoxes:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
           snap=st.sampled_from((None,) + tuple(SNAPS)),
           offset=st.sampled_from((0.05, -0.05, 0.02, -0.02)))
    def test_starts_in_a_box_reach_its_attractor(self, seed, branch, snap, offset):
        # Near-boundary points (one classifying quantity moved onto its zero,
        # then off it by ``offset``) give slow attractors and narrow boxes.
        # Every other quantity stays SLOW_MARGIN from zero: nearer, the
        # slowest rates fall so low that the oracle run to rest does not
        # resolve within its max_time.
        rng = np.random.default_rng(seed)
        p = draw_params(rng, branch, SLOW_MARGIN)
        if snap is not None:
            name = SNAPS[snap][0]
            q = snapped(p.as_dict(), snap)
            q = replace(q, **{name: getattr(q, name) + offset})
            p = q if admissible(q, abs(offset) / 2) else p
        attractors = classify_global(p).global_attractors
        A = payoff_rows(p)
        for a in attractors:
            box = ratio_box(a, A)
            assert box is not None, (p, a.label)
            for x0 in box_points(box, rng):
                hit = match_attractor(integrate(x0, p).final_state, attractors)
                assert hit is not None and hit.label == a.label, (p, a.label, x0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
           snap=st.sampled_from((None,) + tuple(SNAPS)),
           offset=st.sampled_from((1e-2, -1e-2, 1e-4, -1e-4)))
    def test_box_grows_from_the_uniform_box(self, seed, branch, snap, offset):
        # each bound moves out from the uniform-tau box and the result still
        # certifies; a support ratio's lower face stays at u*/2 or above
        p = draw_params(np.random.default_rng(seed), branch)
        if snap is not None:
            name = SNAPS[snap][0]
            q = snapped(p.as_dict(), snap)
            q = replace(q, **{name: getattr(q, name) + offset})
            p = q if admissible(q, abs(offset) / 2) else p
        A = payoff_rows(p)
        for a in classify_global(p).global_attractors:
            box, start = ratio_box(a, A), uniform_ratio_box(a, A)
            assert (box is None) == (start is None), (p, a.label)
            if box is None:
                continue
            assert box.ref == start.ref
            assert all(lo <= s for lo, s in zip(box.lo, start.lo)), (p, a.label, box, start)
            assert all(hi >= s for hi, s in zip(box.hi, start.hi)), (p, a.label, box, start)
            support = [STRATEGIES.index(s) for s in a.support]
            assert _certifies(A, box.ref, support, list(box.lo), list(box.hi))
            x = a.location.as_tuple()
            for k in support:
                assert box.lo[k] >= x[k] / x[box.ref] / 2, (p, a.label, box)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from(("B-plus", "B-minus")),
           margin=st.sampled_from((0.3, 1e-3, 1e-6)),
           snap=st.sampled_from((None,) + tuple(SNAPS)),
           offset=st.sampled_from((0.3, -0.3, 1e-3, -1e-3, 1e-6, -1e-6, 1e-8, -1e-8)))
    def test_every_global_attractor_gets_a_box(self, seed, branch, margin, snap, offset):
        # a run is labelled by the box that holds its end state alone, so an
        # attractor without a box would collect no runs.  A snapped point
        # that is invalid or fails to classify falls back to the drawn one.
        p = draw_params(np.random.default_rng(seed), branch, margin)
        attractors = classify_global(p).global_attractors
        if snap is not None:
            name = SNAPS[snap][0]
            q = snapped(p.as_dict(), snap)
            q = replace(q, **{name: getattr(q, name) + offset})
            if validate(q).ok:
                try:
                    p, attractors = q, classify_global(q).global_attractors
                except DegenerateParameterError:
                    pass
        A = payoff_rows(p)
        for a in attractors:
            assert ratio_box(a, A) is not None, (p, a.label)

    def test_attractor_without_a_box_collects_no_runs(self, monkeypatch):
        # with the H+P box withheld, runs that settle on the H-P edge end in
        # no box and are unresolved, however near H+P they end
        full = dict(estimate_basins(SET_B, 300, seed=7).counts)
        x0 = SimplexState(0.05, 0.35, 0.55, 0.05)
        attractors = classify_global(SET_B).global_attractors
        near = match_attractor(integrate(x0, SET_B).final_state, attractors)
        assert full["H+P"] > 0 and near is not None and near.label == "H+P"

        def no_hp_box(state, A):
            return None if state.label == "H+P" else ratio_box(state, A)

        monkeypatch.setattr(basins, "ratio_box", no_hp_box)
        counts = dict(estimate_basins(SET_B, 300, seed=7).counts)
        hit = find_attractor(x0, SET_B)
        assert counts == {"O": full["O"], "N": full["N"], "H+P": 0,
                          "unresolved": full["unresolved"] + full["H+P"]}
        assert hit is None

    def test_find_attractor_labels_as_label_runs(self):
        attractors = classify_global(SET_B).global_attractors
        starts = [SimplexState(*row) for row in sample_simplex(6, 3).tolist()]
        runs = [integrate(x0, SET_B) for x0 in starts]
        expected = label_runs([r.final_state.as_tuple() for r in runs],
                              attractor_boxes(attractors, SET_B))
        assert [find_attractor(x0, SET_B, attractors=attractors) for x0 in starts] == expected

    def test_box_needs_the_support_ratio_to_rise_on_its_lower_face(self):
        # In this game the H-P rates ignore the O and N shares, so the lower
        # face of an H+P box always passes; this matrix (not a game payoff)
        # makes O pull the H/P ratio down, so every lower face fails while
        # the other corner conditions hold from tau = 1/2 down.
        A = [[-5.0, 0.0, -5.0, 0.0],
             [-2.0, -1.5, 1.0, 0.0],
             [0.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, -1.0, -1.0]]
        hp = StationaryState("H+P", "edge-interior", SimplexState(0.0, 0.4, 0.6, 0.0),
                             ("H", "P"), 0.0, (), "attractive")
        assert ratio_box(hp, A) is None
