"""Optimizer internals: domination, sorting, crowding, operators, full loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carbonopt.benchmarks import schaffer, SCHAFFER_BOUNDS
from carbonopt import nsga2
from carbonopt.errors import EvaluationError
from carbonopt.nsga2 import (
    GAConfig,
    binary_tournament,
    crowding_distance,
    dominates,
    evolve,
    fast_non_dominated_sort,
    mutate,
    sbx_crossover,
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


def brute_force_fronts(objectives):
    """Peel non-dominated sets by pairwise checks; independent of the fast sort."""
    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(objectives[j], objectives[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def reference_sort(objs):
    """The pairwise double-loop sort with a Python peel: the oracle for front member order."""
    n = len(objs)
    dominated = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objs[i], objs[j]):
                dominated[i].append(j)
                counts[j] += 1
            elif dominates(objs[j], objs[i]):
                dominated[j].append(i)
                counts[i] += 1
    fronts = []
    current = [i for i in range(n) if counts[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def reference_crowding(front):
    """The per-member crowding loop over Python floats: the oracle for crowding_distance."""
    front = [tuple(map(float, row)) for row in front]
    n = len(front)
    if n <= 2:
        return [math.inf] * n
    dists = [0.0] * n
    for m in range(len(front[0])):
        order = sorted(range(n), key=lambda k: front[k][m])
        dists[order[0]] = math.inf
        dists[order[-1]] = math.inf
        low = front[order[0]][m]
        high = front[order[-1]][m]
        if high == low:
            continue
        span = high - low
        for pos in range(1, n - 1):
            k = order[pos]
            if dists[k] != math.inf:
                dists[k] += (front[order[pos + 1]][m] - front[order[pos - 1]][m]) / span
    return dists


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

    def test_no_member_dominates_within_a_front(self):
        rng = np.random.default_rng(99)
        objs = rows(*[tuple(rng.random(3)) for _ in range(80)])
        for front in fast_non_dominated_sort(objs):
            for a in front:
                for b in front:
                    assert not dominates(objs[a], objs[b])


# numpy warns where Python floats overflow silently; the oracle and crowding_distance agree
OVERFLOW_IS_EXPECTED = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


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

    @OVERFLOW_IS_EXPECTED
    def test_a_boundary_row_stays_infinite_when_the_span_overflows(self):
        # row 0 is a boundary of column 0; in column 1 its step is (h + h) / (h + h) = inf / inf
        h = 1.7e308
        objs = rows((0.0, 0.0), (1.0, -h), (2.0, h))
        assert crowding_distance(objs).tolist() == reference_crowding(objs) == [math.inf] * 3

    @OVERFLOW_IS_EXPECTED
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
            if trial % 10 == 0:  # spans that overflow to inf
                objs[rng.random((n, m)) < 0.3] = rng.choice([1.7e308, -1.7e308])
            got = crowding_distance(objs)
            expected = np.array(reference_crowding(objs))
            assert np.array_equal(got, expected, equal_nan=True), objs
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class PickedPair:
    """A stand-in generator whose ``integers`` draws the given pair of rows."""

    def __init__(self, i, j):
        self.pair = np.array([i, j])

    def integers(self, low, high, size):
        assert (low, size) == (0, 2) and self.pair.max() < high
        return self.pair


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


class TestCrossover:
    def test_probability_zero_copies_parents(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=0.0)
        rng = np.random.default_rng(0)
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        c1, c2 = sbx_crossover(a, b, rng, cfg, LOWS, HIGHS)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)
        assert c1 is not a  # fresh arrays

    def test_identical_parents_fixed_point(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(0)
        p = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        for _ in range(50):
            c1, c2 = sbx_crossover(p, p.copy(), rng, cfg, LOWS, HIGHS)
            assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_children_always_in_bounds(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(7)
        for _ in range(10_000 // 10):
            a = rng.uniform(LOWS, HIGHS)
            b = rng.uniform(LOWS, HIGHS)
            for _ in range(5):
                c1, c2 = sbx_crossover(a, b, rng, cfg, LOWS, HIGHS)
                for child in (c1, c2):
                    assert np.all(child >= LOWS) and np.all(child <= HIGHS)

    def test_children_mix_genes_between_parents(self):
        cfg = GAConfig(population_size=4, generations=1, crossover_probability=1.0)
        rng = np.random.default_rng(3)
        a = np.full(6, 10.0)
        b = np.full(6, 200.0)
        c1, _ = sbx_crossover(a, b, rng, cfg, LOWS, HIGHS)
        # with the per-gene swap, a child should not inherit one parent wholesale
        assert not (np.allclose(c1, a) or np.allclose(c1, b))


class TestMutate:
    def test_probability_zero_is_identity(self):
        cfg = GAConfig(population_size=4, generations=1, mutation_probability=0.0)
        rng = np.random.default_rng(0)
        genome = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(mutate(genome, rng, cfg, LOWS, HIGHS), genome)

    def test_probability_one_resamples_every_gene_in_bounds(self):
        cfg = GAConfig(population_size=4, generations=1, mutation_probability=1.0)
        rng = np.random.default_rng(0)
        genome = np.full(6, -999.0)  # out of bounds on purpose: every gene must move
        out = mutate(genome, rng, cfg, LOWS, HIGHS)
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
            out = mutate(genome, rng, cfg, lows, highs)
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
            out = mutate(genome, rng, cfg, LOWS, HIGHS)
            assert int(np.sum(out != genome)) == 1

    def test_per_child_frequency(self):
        cfg = GAConfig(
            population_size=4, generations=1, mutation_probability=0.3, mutation_kind="per-child"
        )
        rng = np.random.default_rng(6)
        genome = np.full(6, 300.0)
        trials = 20_000
        mutated = sum(
            1 for _ in range(trials) if np.any(mutate(genome, rng, cfg, LOWS, HIGHS) != genome)
        )
        assert abs(mutated / trials - 0.3) < 0.02


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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(population_size=10, generations=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
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
