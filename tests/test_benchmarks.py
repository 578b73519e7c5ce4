"""Analytic test problems and the generational distance score."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carbonopt.benchmarks import (
    BENCHMARKS,
    generational_distance,
    schaffer,
    schaffer_front,
    zdt1,
    zdt1_bounds,
    zdt1_front,
)
from carbonopt.nsga2 import GAConfig, evolve
from conftest import float_bits
from oracle import reference_generational_distance


@st.composite
def fronts_and_references(draw):
    """A reference front and an obtained front of 1-300 points in 2 or 3 objectives. The
    obtained points repeat rows of a small pool that mixes reference points with others."""
    dims = draw(st.sampled_from([2, 3]))
    row = st.lists(st.floats(-10.0, 10.0, width=64), min_size=dims, max_size=dims)
    reference = draw(st.lists(row, min_size=1, max_size=40))
    pool = draw(st.lists(st.one_of(st.sampled_from(reference), row), min_size=1, max_size=20))
    size = draw(st.integers(1, 300))
    points = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(points), np.array(reference)


class TestProblems:
    def test_schaffer_values(self):
        assert schaffer([0.0]) == (0.0, 4.0)
        assert schaffer([2.0]) == (4.0, 0.0)
        assert schaffer([1.0]) == (1.0, 1.0)

    def test_zdt1_on_front_when_tail_is_zero(self):
        genome = np.zeros(30)
        genome[0] = 0.25
        f1, f2 = zdt1(genome)
        assert f1 == 0.25
        assert f2 == pytest.approx(1.0 - 0.5)

    def test_zdt1_off_front_when_tail_positive(self):
        genome = np.full(30, 0.5)
        f1, f2 = zdt1(genome)
        g = 1.0 + 9.0 * 0.5
        assert f2 == pytest.approx(g * (1.0 - np.sqrt(0.5 / g)))

    def test_bounds_shapes(self):
        assert zdt1_bounds() == [(0.0, 1.0)] * 30
        assert len(BENCHMARKS) == 2


class TestGenerationalDistance:
    def test_zero_for_points_on_front(self):
        front = schaffer_front()
        sample = front[:: len(front) // 7]
        assert generational_distance(sample, front) == pytest.approx(0.0, abs=1e-9)

    def test_single_offset_point(self):
        reference = np.array([[0.0, 0.0]])
        assert generational_distance(np.array([[3.0, 4.0]]), reference) == pytest.approx(5.0)

    def test_scales_down_with_front_size(self):
        reference = np.array([[0.0, 0.0]])
        points = np.tile([3.0, 4.0], (4, 1))
        # sqrt(4 * 25) / 4 = 2.5
        assert generational_distance(points, reference) == pytest.approx(2.5)

    @settings(max_examples=200, deadline=None)
    @given(fronts_and_references())
    def test_blocks_equal_the_whole_front_tensor_exactly(self, case):
        points, reference = case
        assert float_bits(generational_distance(points, reference)) == float_bits(
            reference_generational_distance(points, reference)
        )

    def test_a_1000_point_front_traces_under_2_mb(self):
        # One whole-front tensor of 1,000 points x 1,024 samples x 2 objectives
        # would take 16 MB, and its square as much again.
        points = np.random.default_rng(0).random((1000, 2))
        reference = zdt1_front()
        tracemalloc.start()
        try:
            generational_distance(points, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("points", [np.empty((0, 2)), []])
    def test_empty_front_is_refused(self, points):
        with pytest.raises(ValueError, match="front is empty"):
            generational_distance(points, zdt1_front())

    def test_zdt1_front_shape(self):
        front = zdt1_front(256)
        assert front.shape == (256, 2)
        assert front[0] == pytest.approx([0.0, 1.0])
        assert front[-1] == pytest.approx([1.0, 0.0])


class TestOptimizerOnBenchmarks:
    def test_schaffer_quick_run_converges(self):
        cfg = GAConfig(population_size=20, generations=15, seed=0)
        archive = evolve(schaffer, cfg, [(-10.0, 10.0)])
        gd = generational_distance(archive.final_front.objectives, schaffer_front())
        assert gd < 0.05

    def test_random_population_is_far_from_zdt1_front(self):
        cfg = GAConfig(population_size=50, generations=0, seed=0)
        archive = evolve(zdt1, cfg, zdt1_bounds())
        gd = generational_distance(archive.final_front.objectives, zdt1_front())
        assert gd > 0.05
