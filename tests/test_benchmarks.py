"""Analytic test problems and the generational distance score."""

from __future__ import annotations

import numpy as np
import pytest

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
