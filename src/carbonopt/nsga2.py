"""Elitist multi-objective genetic algorithm (NSGA-II style), written from scratch.

The population is evolved by binary tournament selection under the
crowded-comparison order, simulated binary crossover, and uniform-reset
mutation. Parents and children are merged every generation, layered into
non-dominated fronts, and the next population is filled front by front;
the overflowing front is truncated by descending crowding distance. All
objectives are minimized.

Fronts are sorted from a numpy dominance matrix, one objective column at
a time, and peeled by vectorised dominator counts. Their member order is
that of the classic pairwise sort (F1 by index; a later front by the
position of each member's last dominator in the front before, then by
index), because crowding and truncation tie-break on it.

Reproducibility contract: every random draw comes from one seeded
generator consumed in a fixed order: the initial population matrix
first, then per child pair: two tournament draws of two indices each,
one crossover coin, the per-gene spread and swap vectors when mating
happens, and finally the mutation draws for each child (reset mask, then
one uniform per reset gene in index order). Fitness evaluations are pure
functions assigned deterministically and merged in submission order, so
parallel evaluation cannot perturb the stream.
"""

from __future__ import annotations

import math
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError

PER_GENE = "per-gene"
PER_CHILD = "per-child"
MUTATION_KINDS = (PER_GENE, PER_CHILD)


@dataclass
class Individual:
    genome: np.ndarray
    objectives: tuple[float, ...] | None = None
    rank: int = 0  # 1 = Pareto front; 0 = not yet sorted
    crowding: float = 0.0
    index: int = 0  # stable tie-break within a population


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    generations: int = 20
    crossover_probability: float = 0.9
    mutation_probability: float = 0.05
    eta_crossover: float = 15.0
    mutation_kind: str = PER_GENE
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError(
                f"population size must be even and >= 4, got {self.population_size}"
            )
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        for name in ("crossover_probability", "mutation_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.eta_crossover <= 0:
            raise ValueError(f"eta_crossover must be > 0, got {self.eta_crossover}")
        if self.mutation_kind not in MUTATION_KINDS:
            raise ValueError(
                f"mutation_kind must be one of {MUTATION_KINDS}, got {self.mutation_kind!r}"
            )


@dataclass(frozen=True)
class GenerationSnapshot:
    generation: int
    genomes: np.ndarray  # (N, K)
    objectives: np.ndarray  # (N, M)
    ranks: np.ndarray  # (N,)
    crowding: np.ndarray  # (N,)


@dataclass
class FrontArchive:
    """Per-generation population snapshots plus the final first front."""

    snapshots: list[GenerationSnapshot] = field(default_factory=list)
    final_front: list[Individual] = field(default_factory=list)


def dominates(a, b) -> bool:
    """True iff a is no worse than b everywhere and strictly better somewhere."""
    if len(a) != len(b):
        raise ValueError(f"objective length mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def fast_non_dominated_sort(population: list[Individual]) -> list[list[Individual]]:
    """Layer the population into fronts F1, F2, ...; assigns each rank in place.

    F1 is the non-dominated set; each later front is the non-dominated
    set once earlier fronts are removed. The fronts partition the
    population.

    ``dom[i, j]`` (i dominates j) is built one objective column at a
    time: i is strictly better than j on some column and worse on none,
    so a NaN compares neither way, as in :func:`dominates`. Each front is
    peeled from the remaining dominator counts. Member order is part of
    the contract, because crowding and truncation tie-break on it: F1 is
    in index order, and a later front orders its members by the position,
    in the front before, of their last dominator there, then by index.
    """
    n = len(population)
    objs = np.array([ind.objectives for ind in population], dtype=float)
    better = np.zeros((n, n), dtype=bool)
    worse = np.zeros((n, n), dtype=bool)
    for c in objs.T:
        better |= c[:, None] < c
        worse |= c[:, None] > c
    dom = better & ~worse
    counts = dom.sum(0)

    fronts: list[list[Individual]] = []
    current = np.flatnonzero(counts == 0)
    rank = 1
    while current.size:
        fronts.append([population[i] for i in current])
        for ind in fronts[-1]:
            ind.rank = rank
        beaten = dom[current]
        hits = beaten.sum(0)
        nxt = np.flatnonzero((hits > 0) & (counts == hits))
        counts -= hits
        # the position in ``current`` of each new member's last dominator
        last = current.size - 1 - beaten[::-1, nxt].argmax(0)
        current = nxt[np.lexsort((nxt, last))]
        rank += 1
    return fronts


def crowding_distance(front: list[Individual]) -> list[float]:
    """Normalized cuboid density estimate; boundary members get infinity.

    Per objective, the front is sorted and an interior member accrues the
    span between its neighbours divided by the objective range; a zero
    range contributes nothing. Fronts of one or two members are all
    infinite. Distances are also written to each member in place.
    """
    n = len(front)
    if n <= 2:
        for ind in front:
            ind.crowding = math.inf
        return [math.inf] * n
    dists = [0.0] * n
    n_objectives = len(front[0].objectives)
    for m in range(n_objectives):
        order = sorted(range(n), key=lambda k: front[k].objectives[m])
        dists[order[0]] = math.inf
        dists[order[-1]] = math.inf
        low = front[order[0]].objectives[m]
        high = front[order[-1]].objectives[m]
        if high == low:
            continue
        span = high - low
        for pos in range(1, n - 1):
            k = order[pos]
            if dists[k] != math.inf:
                nxt = front[order[pos + 1]].objectives[m]
                prv = front[order[pos - 1]].objectives[m]
                dists[k] += (nxt - prv) / span
    for ind, d in zip(front, dists):
        ind.crowding = d
    return dists


def crowded_compare(a: Individual, b: Individual) -> int:
    """-1 if a precedes b, 1 if b precedes a: lower rank wins, then larger crowding,
    then the stable index."""
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    if a.crowding != b.crowding:
        return -1 if a.crowding > b.crowding else 1
    if a.index != b.index:
        return -1 if a.index < b.index else 1
    return 0


def binary_tournament(population: list[Individual], rng: np.random.Generator) -> Individual:
    """Pick two individuals uniformly (with replacement); keep the crowded-compare winner."""
    i, j = rng.integers(0, len(population), size=2)
    a, b = population[i], population[j]
    return a if crowded_compare(a, b) <= 0 else b


def sbx_crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rng: np.random.Generator,
    cfg: GAConfig,
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover applied gene-wise, children clamped to bounds.

    Each gene gets its own spread factor, and which child receives the
    contracted or expanded value is decided per gene by a fair coin (the
    usual symmetric form; without it the blend correlates all genes and
    the population collapses early). With probability
    1 - crossover_probability the children are plain copies of the
    parents. Identical parents always produce identical children.
    """
    if rng.random() >= cfg.crossover_probability:
        return parent_a.copy(), parent_b.copy()
    exponent = 1.0 / (cfg.eta_crossover + 1.0)
    u = rng.random(parent_a.shape[0])
    beta = np.where(
        u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent
    )
    child_a = 0.5 * ((1.0 + beta) * parent_a + (1.0 - beta) * parent_b)
    child_b = 0.5 * ((1.0 - beta) * parent_a + (1.0 + beta) * parent_b)
    swap = rng.random(parent_a.shape[0]) < 0.5
    child_a, child_b = (
        np.where(swap, child_b, child_a),
        np.where(swap, child_a, child_b),
    )
    return np.clip(child_a, lows, highs), np.clip(child_b, lows, highs)


def mutate(
    genome: np.ndarray,
    rng: np.random.Generator,
    cfg: GAConfig,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Uniform-reset mutation: a reset gene is redrawn uniformly within its bounds.

    ``per-gene`` resets each gene independently with the configured
    probability; ``per-child`` resets one randomly chosen gene in the
    whole genome with that probability.
    """
    out = genome.copy()
    if cfg.mutation_kind == PER_GENE:
        mask = rng.random(out.shape[0]) < cfg.mutation_probability
        for idx in np.flatnonzero(mask):
            out[idx] = rng.uniform(lows[idx], highs[idx])
    else:
        if rng.random() < cfg.mutation_probability:
            idx = int(rng.integers(0, out.shape[0]))
            out[idx] = rng.uniform(lows[idx], highs[idx])
    return out


def _evaluate_all(
    fitness, genomes: list[np.ndarray], map_fn, width: int = 0
) -> list[tuple[float, ...]]:
    """Objectives per genome; every vector must have ``width`` values (0: as many as the
    first one), and a vector that does not is blamed on its genome."""
    results: list[tuple[float, ...]] = []
    iterator = map_fn(fitness, genomes)
    position = 0
    try:
        for raw in iterator:
            objectives = tuple(float(v) for v in raw)
            if not objectives:
                raise ValueError("fitness returned an empty objective vector")
            width = width or len(objectives)
            if len(objectives) != width:
                raise ValueError(
                    f"fitness returned {len(objectives)} objectives, the run's first had {width}"
                )
            results.append(objectives)
            position += 1
    except (EvaluationError, BrokenExecutor):
        raise  # a broken pool (say, a killed worker) is no genome's fault
    except Exception as exc:
        failing = genomes[position] if position < len(genomes) else genomes[-1]
        raise EvaluationError(failing, exc) from exc
    return results


def _score(
    fitness, genomes: list[np.ndarray], map_fn, known: dict[bytes, tuple[float, ...]]
) -> list[tuple[float, ...]]:
    """Objectives per genome, sending each genome not in ``known`` through ``map_fn`` once.

    ``known`` maps genome bytes to objectives already scored; a genome
    equal byte for byte to a known one, or to an earlier one in
    ``genomes``, reuses those objectives; new scores must have as many
    objectives as the known ones and are added to ``known``. Fitness is
    pure, so reuse changes nothing but the number of calls.
    """
    fresh: dict[bytes, np.ndarray] = {}
    for genome in genomes:
        key = genome.tobytes()
        if key not in known:
            fresh.setdefault(key, genome)
    width = len(next(iter(known.values()), ()))
    known.update(zip(fresh, _evaluate_all(fitness, list(fresh.values()), map_fn, width)))
    return [known[g.tobytes()] for g in genomes]


def _snapshot(generation: int, population: list[Individual]) -> GenerationSnapshot:
    return GenerationSnapshot(
        generation=generation,
        genomes=np.array([ind.genome for ind in population], dtype=float),
        objectives=np.array([ind.objectives for ind in population], dtype=float),
        ranks=np.array([ind.rank for ind in population], dtype=int),
        crowding=np.array([ind.crowding for ind in population], dtype=float),
    )


def _rank_population(population: list[Individual]) -> None:
    for front in fast_non_dominated_sort(population):
        crowding_distance(front)


def evolve(fitness, cfg: GAConfig, bounds, map_fn=None) -> FrontArchive:
    """Run the full loop and archive every generation (initial population included).

    ``fitness`` maps a genome array to a tuple of objectives to minimize;
    it must be defined over the whole bound box and pure: a child equal
    byte for byte to a current population member, or to an earlier child
    of its generation, reuses that genome's objectives instead of being
    scored again. ``map_fn`` may be a parallel order-preserving map;
    results are merged in submission order. A failing evaluation aborts
    the run and reports the offending genome.
    """
    rng = np.random.default_rng(cfg.seed)
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lows > highs):
        raise ValueError("lower bound exceeds upper bound")
    mapper = map_fn if map_fn is not None else map
    n = cfg.population_size

    genomes = rng.uniform(lows, highs, size=(n, lows.shape[0]))
    population = [Individual(genome=genomes[i].copy(), index=i) for i in range(n)]
    for ind, objectives in zip(
        population, _score(fitness, [ind.genome for ind in population], mapper, {})
    ):
        ind.objectives = objectives
    _rank_population(population)

    archive = FrontArchive()
    archive.snapshots.append(_snapshot(0, population))

    for generation in range(1, cfg.generations + 1):
        child_genomes: list[np.ndarray] = []
        while len(child_genomes) < n:
            parent_a = binary_tournament(population, rng)
            parent_b = binary_tournament(population, rng)
            child_a, child_b = sbx_crossover(
                parent_a.genome, parent_b.genome, rng, cfg, lows, highs
            )
            child_genomes.append(mutate(child_a, rng, cfg, lows, highs))
            child_genomes.append(mutate(child_b, rng, cfg, lows, highs))
        # children that copy a current member (or an earlier child) are not rescored
        known = {ind.genome.tobytes(): ind.objectives for ind in population}
        child_objectives = _score(fitness, child_genomes, mapper, known)

        merged = population + [
            Individual(genome=g, objectives=o, index=n + k)
            for k, (g, o) in enumerate(zip(child_genomes, child_objectives))
        ]

        selected: list[Individual] = []
        for front in fast_non_dominated_sort(merged):
            crowding_distance(front)
            if len(selected) + len(front) <= n:
                selected.extend(front)
            else:
                room = n - len(selected)
                by_crowding = sorted(front, key=lambda ind: (-ind.crowding, ind.index))
                selected.extend(by_crowding[:room])
                break
        population = selected
        for k, ind in enumerate(population):
            ind.index = k
        archive.snapshots.append(_snapshot(generation, population))

    archive.final_front = [ind for ind in population if ind.rank == 1]
    return archive
