"""Optimizer internals: domination, sorting, crowding, operators, full loop."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carbonopt.benchmarks import schaffer, SCHAFFER_BOUNDS
from carbonopt import nsga2
from carbonopt.errors import EvaluationError
from carbonopt.nsga2 import (
    MUTATION_KINDS,
    GAConfig,
    GenerationSnapshot,
    binary_tournament,
    crowding_distance,
    evolve,
    fast_non_dominated_sort,
    mutate,
    sbx_crossover,
)
from conftest import float_bits
from oracle import (
    brute_force_fronts,
    dominates,
    reference_crowding,
    reference_offspring,
    reference_select,
    reference_sort,
)

objective_vectors = st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=4)


def rows(*objs):
    """An (N, M) objective array, one row per individual."""
    return np.array(objs, dtype=float)


def ranks_of(fronts, n):
    """Each row's front number (1 = Pareto front) from a list of fronts."""
    ranks = [0] * n
    for rank, front in enumerate(fronts, start=1):
        for i in front:
            ranks[i] = rank
    return ranks


def random_objectives(rng, n, m):
    """Objectives with ties (rounded values), exact duplicate rows and some NaN entries."""
    objs = rng.normal(size=(n, m)).round(int(rng.integers(0, 3)))
    if n > 1:
        copies = rng.integers(0, n, size=int(rng.integers(0, n // 4 + 1)))
        objs[copies] = objs[rng.integers(0, n, size=copies.size)]
    objs[rng.random((n, m)) < rng.choice([0.0, 0.02, 0.2])] = np.nan
    return objs


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 2), (2, 3))

    def test_incomparable_pair(self):
        assert not dominates((1, 3), (2, 2))
        assert not dominates((2, 2), (1, 3))

    def test_equal_vectors_never_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_weak_improvement_suffices(self):
        assert dominates((1, 2), (1, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))

    @given(objective_vectors)
    def test_irreflexive(self, v):
        assert not dominates(v, v)

    @given(objective_vectors, objective_vectors)
    def test_antisymmetric(self, a, b):
        if len(a) == len(b):
            assert not (dominates(a, b) and dominates(b, a))


class TestFastNonDominatedSort:
    def test_single_individual(self):
        fronts = fast_non_dominated_sort(rows((1.0, 1.0)))
        assert len(fronts) == 1
        assert ranks_of(fronts, 1) == [1]

    def test_hand_example(self):
        fronts = fast_non_dominated_sort(rows((1, 2), (2, 1), (3, 3)))
        assert [sorted(front.tolist()) for front in fronts] == [[0, 1], [2]]
        assert ranks_of(fronts, 3) == [1, 1, 2]

    def test_matches_brute_force_on_random_populations(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(2, 101))
            objs = [tuple(rng.integers(0, 8, size=2).astype(float)) for _ in range(n)]
            fronts = fast_non_dominated_sort(rows(*objs))
            got = [sorted(front.tolist()) for front in fronts]
            assert got == [sorted(f) for f in brute_force_fronts(objs)]
            # fronts partition the population
            flat = [i for front in got for i in front]
            assert sorted(flat) == list(range(n))

    def test_fronts_and_member_order_match_the_reference_sort(self):
        rng = np.random.default_rng(20240607)
        # mostly small populations: the pure-Python oracle is quadratic
        sizes = [0, 1, 2, 200, 220] + rng.integers(0, 221, size=95).tolist()
        sizes += rng.integers(0, 41, size=400).tolist()
        for n in sizes:
            objs = random_objectives(rng, n, int(rng.integers(1, 5)))
            fronts = fast_non_dominated_sort(objs)
            expected = reference_sort([tuple(row) for row in objs.tolist()])
            assert [front.tolist() for front in fronts] == expected
            # the ranks evolve derives from the fronts
            _, ranks, _ = nsga2._select(objs, n)
            assert ranks.tolist() == ranks_of(expected, n)

    def test_a_limit_stops_at_the_shortest_prefix_that_holds_it(self):
        rng = np.random.default_rng(20261021)
        for n in [0, 1, 2, 120] + rng.integers(0, 41, size=150).tolist():
            objs = random_objectives(rng, n, int(rng.integers(1, 5)))
            expected = reference_sort([tuple(row) for row in objs.tolist()])
            held = np.cumsum([0] + [len(front) for front in expected])  # rows of the first k
            for limit in range(n + 2):
                fronts = fast_non_dominated_sort(objs, limit=limit)
                # the fewest fronts holding ``limit`` rows; all of them past n
                k = int(np.searchsorted(held, limit))
                assert [front.tolist() for front in fronts] == expected[:k]

    def test_no_member_dominates_within_a_front(self):
        rng = np.random.default_rng(99)
        objs = rows(*[tuple(rng.random(3)) for _ in range(80)])
        for front in fast_non_dominated_sort(objs):
            for a in front:
                for b in front:
                    assert not dominates(objs[a], objs[b])



class TestCrowdingDistance:
    def test_two_point_front_is_all_infinite(self):
        assert crowding_distance(rows((1, 2), (2, 1))).tolist() == [math.inf, math.inf]

    def test_hand_computed_interior(self):
        distances = crowding_distance(rows((1, 3), (2, 2), (3, 1)))
        assert distances[0] == math.inf
        assert distances[2] == math.inf
        assert distances[1] == pytest.approx((3 - 1) / (3 - 1) + (3 - 1) / (3 - 1))

    def test_identical_objectives_interior_zero(self):
        distances = crowding_distance(rows((5, 5), (5, 5), (5, 5), (5, 5))).tolist()
        assert math.inf in distances
        assert any(d == 0.0 for d in distances)

    def test_distances_land_on_their_rows(self):
        # F1 is rows 0, 2 and 3; row 1 alone is F2
        _, ranks, crowding = nsga2._select(rows((1, 3), (9, 9), (2, 2), (3, 1)), 4)
        assert ranks.tolist() == [1, 2, 1, 1]
        assert crowding[2] == pytest.approx(2.0)
        assert crowding.tolist()[:2] == [math.inf, math.inf]

    def test_a_boundary_row_stays_infinite_when_the_span_overflows(self):
        # row 0 is a boundary of column 0; in column 1 its step is (h + h) / (h + h) = inf / inf
        h = 1.7e308
        objs = rows((0.0, 0.0), (1.0, -h), (2.0, h))
        assert crowding_distance(objs).tolist() == reference_crowding(objs) == [math.inf] * 3

    def test_an_interior_row_is_finite_when_the_span_overflows(self):
        # row 1 steps (2 - 0) / 2 in column 0 and (h / 2 + h / 2) / (h / 2 + h / 2) in column 1
        h = 1.7e308
        objs = rows((0.0, -h), (1.0, 0.0), (2.0, h))
        expected = [math.inf, 2.0, math.inf]
        assert crowding_distance(objs).tolist() == reference_crowding(objs) == expected

    def test_equals_the_per_member_loop_exactly(self):
        rng = np.random.default_rng(20261018)
        for trial in range(3000):
            n, m = int(rng.integers(1, 61)), int(rng.integers(1, 5))
            objs = rng.normal(size=(n, m)).round(int(rng.integers(0, 3)))
            if n > 1:  # duplicate rows
                copies = rng.integers(0, n, size=int(rng.integers(0, n // 3 + 1)))
                objs[copies] = objs[rng.integers(0, n, size=copies.size)]
            objs[:, rng.integers(0, m)] *= rng.choice([1.0, 0.0, -0.0])  # maybe a constant column
            objs[rng.random((n, m)) < 0.1] = rng.choice([0.0, -0.0])
            if trial % 10 == 0:  # entries of both signs, so spans overflow to inf
                big = rng.random((n, m)) < 0.3
                objs[big] = rng.choice([1.7e308, -1.7e308], size=int(big.sum()))
            got = crowding_distance(objs)
            expected = np.array(reference_crowding(objs))
            assert not np.isnan(got).any(), objs
            assert np.array_equal(got, expected), objs
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class PickedPair:
    """A stand-in generator whose two ``integers`` draws are the given rows, in order."""

    def __init__(self, i, j):
        self.picks = [i, j]

    def integers(self, high):
        assert max(self.picks) < high
        return self.picks.pop(0)


class TestSelect:
    def test_the_cut_equals_the_reference_selection_exactly(self):
        rng = np.random.default_rng(20261022)
        for trial in range(400):
            n = int(rng.integers(1, 81))
            objs = random_objectives(rng, n, int(rng.integers(1, 5)))
            objs[np.isnan(objs)] = 0.0  # evolve's objectives are finite
            # every other trial cuts half the rows, as evolve does its merged pool
            keep = n // 2 if trial % 2 else int(rng.integers(0, n))
            chosen, ranks, crowding = nsga2._select(objs, keep)
            expected = reference_select([tuple(row) for row in objs.tolist()], keep)
            got = (chosen.tolist(), ranks.tolist(), crowding.tolist())
            assert float_bits(got) == float_bits(expected), (objs, keep)


class TestBinaryTournament:
    def test_lower_rank_preferred(self):
        ranks, crowding = np.array([1, 2]), np.array([0.0, math.inf])
        assert binary_tournament(ranks, crowding, PickedPair(0, 1)) == 0
        assert binary_tournament(ranks, crowding, PickedPair(1, 0)) == 0

    def test_equal_rank_prefers_less_crowded(self):
        ranks, crowding = np.array([1, 1]), np.array([2.0, 0.5])
        assert binary_tournament(ranks, crowding, PickedPair(0, 1)) == 0
        assert binary_tournament(ranks, crowding, PickedPair(1, 0)) == 0

    def test_full_tie_breaks_by_row(self):
        ranks, crowding = np.array([3, 3]), np.array([1.0, 1.0])
        assert binary_tournament(ranks, crowding, PickedPair(0, 1)) == 0  # row 0 before row 1
        assert binary_tournament(ranks, crowding, PickedPair(1, 0)) == 0
        assert binary_tournament(ranks, crowding, PickedPair(1, 1)) == 1

    def test_single_individual_population(self):
        rng = np.random.default_rng(0)
        assert binary_tournament(np.array([1]), np.array([0.0]), rng) == 0

    def test_rank_one_always_beats_rank_three(self):
        ranks, crowding = np.array([1, 3]), np.array([0.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = rng.bit_generator.state
            winner = binary_tournament(ranks, crowding, rng)
            rng.bit_generator.state = state
            picks = rng.integers(0, 2, size=2).tolist()
            # row 1 wins only when both picks were the rank-3 row
            assert winner == (1 if picks == [1, 1] else 0)

    def test_rank_one_win_rate_meets_lower_bound(self):
        # 3 of 10 rank-1: P(win) >= P(at least one rank-1 pick) = 1 - 0.7^2
        ranks = np.array([1] * 3 + [2] * 7)
        crowding = np.ones(10)
        rng = np.random.default_rng(42)
        trials = 10_000
        wins = sum(
            1 for _ in range(trials) if ranks[binary_tournament(ranks, crowding, rng)] == 1
        )
        bound = 1 - 0.7**2  # 0.51
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert wins / trials >= bound - 4 * sigma


BOUNDS = [(0.0, 250.0)] * 6
LOWS = np.array([b[0] for b in BOUNDS])
HIGHS = np.array([b[1] for b in BOUNDS])


def snapshot(genomes):
    """A population of the given genomes, all of rank 1 and crowding 0."""
    genomes = np.array(genomes, dtype=float)
    n = len(genomes)
    return GenerationSnapshot(0, genomes, np.zeros((n, 2)), np.ones(n, dtype=int), np.zeros(n))


def pair_draws(rng, pairs, k):
    """Spread and swap draws for ``pairs`` mating pairs, drawn as the generation step draws them."""
    uniforms = rng.random((pairs, 2 * k))
    return uniforms[:, :k], uniforms[:, k:] < 0.5


def mutated(genome, rng, cfg, lows, highs):
    """``genome`` with one child's mutation draws applied."""
    out = genome.copy()
    for gene, value in mutate(rng, cfg, lows, highs):
        out[gene] = value
    return out


class TestCrossover:
    def test_probability_zero_copies_parents(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=0.0,
                       mutation_probability=0.0)
        pop = snapshot([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        children = nsga2._offspring(pop, rng, cfg, LOWS, HIGHS)
        rng.bit_generator.state = state  # replay the pair's two tournaments
        a, b = (binary_tournament(pop.ranks, pop.crowding, rng) for _ in range(2))
        assert np.array_equal(children[0], pop.genomes[a])
        assert np.array_equal(children[1], pop.genomes[b])
        assert not np.shares_memory(children, pop.genomes)  # fresh arrays

    def test_identical_parents_fixed_point(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(0)
        p = np.tile([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], (50, 1))
        c1, c2 = sbx_crossover(p, p.copy(), *pair_draws(rng, 50, 6), cfg, LOWS, HIGHS)
        assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_children_always_in_bounds(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(7)
        # 1,000 parent pairs, crossed 5 times each
        a = np.repeat(rng.uniform(LOWS, HIGHS, size=(1000, 6)), 5, axis=0)
        b = np.repeat(rng.uniform(LOWS, HIGHS, size=(1000, 6)), 5, axis=0)
        c1, c2 = sbx_crossover(a, b, *pair_draws(rng, 5000, 6), cfg, LOWS, HIGHS)
        for children in (c1, c2):
            assert np.all(children >= LOWS) and np.all(children <= HIGHS)

    def test_children_mix_genes_between_parents(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(3)
        a = np.full((1, 6), 10.0)
        b = np.full((1, 6), 200.0)
        c1, _ = sbx_crossover(a, b, *pair_draws(rng, 1, 6), cfg, LOWS, HIGHS)
        # with the per-gene swap, a child should not inherit one parent wholesale
        assert not (np.allclose(c1, a) or np.allclose(c1, b))


class TestMutate:
    def test_probability_zero_is_identity(self):
        cfg = GAConfig(population_size=4, generations=1, mutation_probability=0.0)
        rng = np.random.default_rng(0)
        genome = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(mutated(genome, rng, cfg, LOWS, HIGHS), genome)

    def test_probability_one_resamples_every_gene_in_bounds(self):
        cfg = GAConfig(population_size=4, generations=1, mutation_probability=1.0)
        rng = np.random.default_rng(0)
        genome = np.full(6, -999.0)  # out of bounds on purpose: every gene must move
        out = mutated(genome, rng, cfg, LOWS, HIGHS)
        assert np.all(out >= LOWS) and np.all(out <= HIGHS)
        assert np.all(out != genome)

    def test_per_gene_reset_frequency(self):
        # count resample events over 1e5 genes at p = 0.05: expect 0.05 +/- 0.005
        cfg = GAConfig(population_size=4, generations=1, mutation_probability=0.05)
        rng = np.random.default_rng(11)
        genome = np.full(6, 300.0)  # outside [0, 250]: any reset changes the value
        lows, highs = LOWS, HIGHS
        genes = 0
        changed = 0
        while genes < 100_000:
            out = mutated(genome, rng, cfg, lows, highs)
            changed += int(np.sum(out != genome))
            genes += genome.shape[0]
        rate = changed / genes
        assert abs(rate - 0.05) <= 0.005

    def test_per_child_resets_at_most_one_gene(self):
        cfg = GAConfig(
            population_size=4, generations=1, mutation_probability=1.0, mutation_kind="per-child"
        )
        rng = np.random.default_rng(5)
        genome = np.full(6, 300.0)
        for _ in range(100):
            out = mutated(genome, rng, cfg, LOWS, HIGHS)
            assert int(np.sum(out != genome)) == 1

    def test_per_child_frequency(self):
        cfg = GAConfig(
            population_size=4, generations=1, mutation_probability=0.3, mutation_kind="per-child"
        )
        rng = np.random.default_rng(6)
        genome = np.full(6, 300.0)
        trials = 20_000
        mutated_count = sum(
            1 for _ in range(trials) if np.any(mutated(genome, rng, cfg, LOWS, HIGHS) != genome)
        )
        assert abs(mutated_count / trials - 0.3) < 0.02


class TestOffspring:
    BOXES = {
        "unit": [(0.0, 1.0)] * 7,
        "tax": [(0.0, 250.0)] * 30,
        "negative": [(-5.0, -1.0), (-1e3, 1e3), (-250.0, -250.0)] * 3,
        "degenerate": [(2.0, 2.0)] * 4,
    }

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    @pytest.mark.parametrize("box", sorted(BOXES))
    def test_equals_the_per_pair_loop_exactly(self, kind, box):
        lows, highs = (np.array(b, dtype=float) for b in zip(*self.BOXES[box]))
        cases = itertools.product((4, 6, 10, 40), (0.0, 0.5, 1.0), (0.0, 0.05, 1.0))
        for seed, (n, crossover, mutation) in enumerate(cases):
            cfg = GAConfig(population_size=n, crossover_probability=crossover,
                           mutation_probability=mutation, mutation_kind=kind, seed=seed)
            data = np.random.default_rng(seed)
            # a population with tied objectives, so ranks and crowding carry ties and infinities
            genomes = data.uniform(lows, highs, size=(n, lows.size))
            objectives = data.normal(size=(n, 2)).round(1)
            _, ranks, crowding = nsga2._select(objectives, n)
            pop = GenerationSnapshot(0, genomes, objectives, ranks, crowding)
            rng, expected_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            got = nsga2._offspring(pop, rng, cfg, lows, highs)
            expected = reference_offspring(pop, expected_rng, cfg, lows, highs)
            assert got.shape == expected.shape == genomes.shape
            assert got.tobytes() == expected.tobytes(), (n, crossover, mutation)
            assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestGAConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=3),
            dict(population_size=7),
            dict(generations=-1),
            dict(crossover_probability=1.5),
            dict(mutation_probability=-0.1),
            dict(eta_crossover=0.0),
            dict(mutation_kind="gaussian"),
            dict(seed=-1),
            dict(population_size=10.0),
            dict(population_size=True),
            dict(generations=1.5),
            dict(generations=True),
            dict(seed=True),
            dict(generations=np.float64(2.0)),
            dict(seed="1"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(population_size=10, generations=2)
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(ValueError, match=name.replace("_", "[_ ]")):
            GAConfig(**base)


class TestEvolve:
    def test_population_size_constant_every_generation(self):
        cfg = GAConfig(population_size=16, generations=8, seed=1)
        archive = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        assert len(archive.snapshots) == 9
        for snap in archive.snapshots:
            assert snap.genomes.shape[0] == 16
            assert snap.objectives.shape == (16, 2)

    def test_every_archived_front_is_mutually_non_dominating(self):
        cfg = GAConfig(population_size=20, generations=6, seed=3)
        archive = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        for snap in archive.snapshots:
            for rank in sorted(set(snap.ranks)):
                members = [tuple(o) for o, r in zip(snap.objectives, snap.ranks) if r == rank]
                for a in members:
                    for b in members:
                        assert not dominates(a, b)

    def test_elitism_parents_survive_into_merged_pool(self):
        # capture each generation's evaluated children; every next population
        # must be drawn from the previous population plus those children, so
        # front members always re-enter selection
        calls = []

        def capturing_map(fn, genomes):
            calls.append([np.array(g) for g in genomes])
            return map(fn, genomes)

        cfg = GAConfig(population_size=20, generations=10, seed=5)
        archive = evolve(schaffer, cfg, SCHAFFER_BOUNDS, map_fn=capturing_map)
        assert len(calls) == 11  # initial population + one child batch per generation
        for t in range(1, len(archive.snapshots)):
            pool = {g.tobytes() for g in archive.snapshots[t - 1].genomes}
            pool |= {g.tobytes() for g in calls[t]}
            selected = {g.tobytes() for g in archive.snapshots[t].genomes}
            assert selected <= pool
            # and the previous front is fully present in that pool by construction
            prev_front = {
                g.tobytes()
                for g, r in zip(archive.snapshots[t - 1].genomes, archive.snapshots[t - 1].ranks)
                if r == 1
            }
            assert prev_front <= pool

    def test_genomes_stay_in_bounds(self):
        cfg = GAConfig(population_size=12, generations=6, seed=9)
        archive = evolve(schaffer, cfg, [(-10.0, 10.0)])
        for snap in archive.snapshots:
            assert np.all(snap.genomes >= -10.0) and np.all(snap.genomes <= 10.0)

    def test_fixed_seed_is_bitwise_reproducible(self):
        cfg = GAConfig(population_size=14, generations=5, seed=21)
        a = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        b = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.genomes, sb.genomes)
            assert np.array_equal(sa.objectives, sb.objectives)
            assert np.array_equal(sa.ranks, sb.ranks)
            assert np.array_equal(sa.crowding, sb.crowding)

    def test_zero_generations_archives_initial_population_only(self):
        cfg = GAConfig(population_size=10, generations=0, seed=2)
        archive = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        assert len(archive.snapshots) == 1
        assert archive.snapshots[0].generation == 0
        front = archive.final_front  # rank-1 members of the initial population
        assert len(front.genomes) == len(front.objectives) == len(front.ranks) > 0
        assert all(rank == 1 for rank in front.ranks)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ([], "the bound box holds no gene"),
            ([(math.nan, 1.0)], "gene 0's bounds must be finite, got (nan, 1.0)"),
            ([(-math.inf, 1.0)], "gene 0's bounds must be finite, got (-inf, 1.0)"),
            ([(0.0, math.nan)], "gene 0's bounds must be finite, got (0.0, nan)"),
            ([(0.0, 1.0), (0.0, math.inf)], "gene 1's bounds must be finite"),
            ([(0.0, 1.0), (2.0, 1.0)], "gene 1's lower bound 2.0 exceeds its upper bound 1.0"),
        ],
    )
    def test_a_bad_bound_box_is_refused_before_any_evaluation(self, bounds, message):
        calls = []

        def fitness(genome):
            calls.append(genome)
            return (0.0, 0.0)

        cfg = GAConfig(population_size=4, generations=1, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            evolve(fitness, cfg, bounds)
        assert calls == []

    def test_a_box_of_equal_bounds_is_kept(self):
        archive = evolve(schaffer, GAConfig(population_size=4, generations=1), [(2.0, 2.0)])
        assert all(np.all(snap.genomes == 2.0) for snap in archive.snapshots)

    def test_failing_fitness_reports_offending_genome(self):
        def fitness(genome):
            if genome[0] > 0:
                raise RuntimeError("boom")
            return (float(genome[0]), 0.0)

        cfg = GAConfig(population_size=8, generations=1, seed=4)
        with pytest.raises(EvaluationError) as err:
            evolve(fitness, cfg, [(-1.0, 1.0)])
        assert len(err.value.genome) == 1

    @pytest.mark.parametrize("parallel", [False, True])
    # 3 is in the initial population; 8 is the first genome scored in generation 1, so only
    # the length of an earlier generation's vector can show that it is ragged
    @pytest.mark.parametrize("position", [3, 8])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda f: (*f, 0.0), "3 objectives, the run's first had 2"),  # one objective too many
            (lambda f: (f[0], math.nan), "non-finite objective: ("),
            (lambda f: (math.inf, f[1]), "non-finite objective: (inf, "),
        ],
        ids=["ragged", "nan", "inf"],
    )
    def test_ragged_objective_vector_is_blamed_on_its_genome(self, parallel, position, bad, message):
        from concurrent.futures import ThreadPoolExecutor

        cfg = GAConfig(population_size=8, generations=2, seed=4)
        scored = []
        evolve(lambda g: scored.append(g.tobytes()) or schaffer(g), cfg, SCHAFFER_BOUNDS)
        culprit = scored[position]

        def fitness(genome):  # a bad vector for one genome only
            return bad(schaffer(genome)) if genome.tobytes() == culprit else schaffer(genome)

        with ThreadPoolExecutor(max_workers=2) as pool, pytest.raises(EvaluationError) as err:
            evolve(fitness, cfg, SCHAFFER_BOUNDS, map_fn=pool.map if parallel else None)
        assert np.array(err.value.genome).tobytes() == culprit
        assert message in str(err.value)

    def test_broken_pool_is_not_blamed_on_a_genome(self):
        from concurrent.futures.process import BrokenProcessPool

        def broken_map(fn, items):
            yield fn(items[0])
            raise BrokenProcessPool("a worker died")

        cfg = GAConfig(population_size=8, generations=1, seed=4)
        with pytest.raises(BrokenProcessPool):
            evolve(schaffer, cfg, SCHAFFER_BOUNDS, map_fn=broken_map)

    def test_order_preserving_parallel_map_equals_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        cfg = GAConfig(population_size=12, generations=4, seed=13)
        serial = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = evolve(schaffer, cfg, SCHAFFER_BOUNDS, map_fn=pool.map)
        for sa, sb in zip(serial.snapshots, parallel.snapshots):
            assert np.array_equal(sa.genomes, sb.genomes)
            assert np.array_equal(sa.objectives, sb.objectives)

    def test_final_front_matches_last_snapshot_rank_one(self):
        cfg = GAConfig(population_size=16, generations=5, seed=8)
        archive = evolve(schaffer, cfg, SCHAFFER_BOUNDS)
        last = archive.snapshots[-1]
        front_objs = sorted(tuple(o) for o, r in zip(last.objectives, last.ranks) if r == 1)
        assert sorted(tuple(o) for o in archive.final_front.objectives) == front_objs


class TestFitnessReuse:
    def test_copied_children_are_not_rescored(self):
        calls = []

        def fitness(genome):
            calls.append(genome.tobytes())
            return schaffer(genome)

        # no crossover and no mutation: every child copies a parent
        cfg = GAConfig(population_size=8, generations=3, crossover_probability=0.0,
                       mutation_probability=0.0, seed=6)
        evolve(fitness, cfg, SCHAFFER_BOUNDS)
        assert len(calls) == 8

    def test_only_new_genomes_are_scored_and_the_archive_is_unchanged(self, monkeypatch):
        batches = []

        def capturing_map(fn, genomes):
            batches.append([g.tobytes() for g in genomes])
            return map(fn, genomes)

        cfg = GAConfig(population_size=12, generations=8, crossover_probability=0.5,
                       mutation_probability=0.05, seed=17)
        reused = evolve(schaffer, cfg, SCHAFFER_BOUNDS, map_fn=capturing_map)
        for t in range(1, len(batches)):
            population = {g.tobytes() for g in reused.snapshots[t - 1].genomes}
            assert len(set(batches[t])) == len(batches[t])
            assert not population & set(batches[t])
        scored = sum(len(b) for b in batches)

        batches.clear()
        monkeypatch.setattr(
            nsga2, "_score",
            lambda fitness, genomes, map_fn, known: nsga2._evaluate_all(fitness, genomes, map_fn),
        )
        every = evolve(schaffer, cfg, SCHAFFER_BOUNDS, map_fn=capturing_map)
        assert scored < sum(len(b) for b in batches) == 12 * 9
        for sa, sb in zip(reused.snapshots, every.snapshots, strict=True):
            assert np.array_equal(sa.genomes, sb.genomes)
            assert np.array_equal(sa.objectives, sb.objectives)
            assert np.array_equal(sa.ranks, sb.ranks)
            assert np.array_equal(sa.crowding, sb.crowding)
