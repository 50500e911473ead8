"""Monte Carlo basin-of-attraction estimates."""

import numpy as np
import pytest

from conftest import SET_A, SET_B
from socgame import estimate_basins, sample_simplex


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
