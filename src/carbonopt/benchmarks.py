"""Analytic two-objective test problems for validating the optimizer on its own.

Both problems have closed-form Pareto fronts, so optimizer quality can be
scored as the generational distance between an obtained front and a dense
sample of the true one, with no market model involved.

``generational_distance`` walks the obtained front in blocks of ``GD_BLOCK``
points, so its largest temporary is one block's difference tensor, ``GD_BLOCK``
x reference samples x objectives floats (256 KiB for a 2-objective front
against the 1,024-sample reference), whatever the front's size. Each point's
nearest distance is computed as a whole-front tensor would compute it, and the
final sum runs over all of them in front order, so the score has the same bits.
"""

from __future__ import annotations

import numpy as np

SCHAFFER_BOUNDS: list[tuple[float, float]] = [(-10.0, 10.0)]
ZDT1_N_VARS = 30
GD_BLOCK = 16


def schaffer(genome) -> tuple[float, float]:
    """Single-variable problem: f1 = x^2, f2 = (x - 2)^2; optimal x spans [0, 2]."""
    x = float(genome[0])
    return (x * x, (x - 2.0) * (x - 2.0))


def schaffer_front(samples: int = 1024) -> np.ndarray:
    xs = np.linspace(0.0, 2.0, samples)
    return np.column_stack([xs**2, (xs - 2.0) ** 2])


def zdt1_bounds(n_vars: int = ZDT1_N_VARS) -> list[tuple[float, float]]:
    return [(0.0, 1.0)] * n_vars


def zdt1(genome) -> tuple[float, float]:
    """30-variable benchmark whose true front is f2 = 1 - sqrt(f1) at g = 1."""
    x = np.asarray(genome, dtype=float)
    f1 = x[0]
    g = 1.0 + 9.0 * x[1:].sum() / (x.shape[0] - 1)
    f2 = g * (1.0 - np.sqrt(f1 / g))
    return (float(f1), float(f2))


def zdt1_front(samples: int = 1024) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, samples)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def generational_distance(points: np.ndarray, reference: np.ndarray) -> float:
    """Classic generational distance: sqrt(sum of squared nearest-point distances) / n.

    Each obtained point contributes its Euclidean distance to the closest
    reference point; 0 means every point lies on the reference front. The
    points are scored ``GD_BLOCK`` at a time. An empty front has no distance
    and raises ``ValueError``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    reference = np.asarray(reference, dtype=float)
    if points.size == 0:  # atleast_2d makes [] one point of no objectives
        raise ValueError("generational distance needs at least one point; the front is empty")
    nearest = np.concatenate([
        np.sqrt(((points[i:i + GD_BLOCK, None, :] - reference) ** 2).sum(axis=2)).min(axis=1)
        for i in range(0, points.shape[0], GD_BLOCK)
    ])
    return float(np.sqrt((nearest**2).sum()) / nearest.shape[0])


BENCHMARKS = {
    "schaffer": (schaffer, lambda: SCHAFFER_BOUNDS, schaffer_front),
    "zdt1": (zdt1, zdt1_bounds, zdt1_front),
}
