"""Elitist multi-objective genetic algorithm (NSGA-II style), written from scratch.

The population is a ``GenerationSnapshot``: arrays with one row per
individual, whose position is its tie-break index. It is evolved by
binary tournament selection of rows under the crowded-comparison order,
simulated binary crossover, and uniform-reset mutation. Parents and
children (in that row order) are merged every generation, layered into
non-dominated fronts, and the next population is filled front by front;
the overflowing front is cut by descending crowding distance, then row.
All objectives are minimized and must be finite.

Each generation's children are made in two steps. One loop makes every
random draw, in the order of the contract below, and records it: no draw
depends on a genome value. Then crossover and the resets run once on
(pairs x genes) arrays.

Fronts are sorted from a numpy dominance matrix, built from one ``<``
comparison per objective column and its transpose, and peeled by
vectorised dominator counts. Selection peels only the fronts that fill
the next population: the fronts past them are never ranked. Their member
order is that of the classic pairwise sort (F1 by row; a later front by
the position of each member's last dominator in the front before, then by
row), because crowding and truncation tie-break on it.

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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError

PER_GENE = "per-gene"
PER_CHILD = "per-child"
MUTATION_KINDS = (PER_GENE, PER_CHILD)


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
        for name in ("population_size", "generations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if not (math.isfinite(self.eta_crossover) and self.eta_crossover > 0):
            raise ValueError(f"eta_crossover must be finite and > 0, got {self.eta_crossover}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mutation_kind not in MUTATION_KINDS:
            raise ValueError(
                f"mutation_kind must be one of {MUTATION_KINDS}, got {self.mutation_kind!r}"
            )


@dataclass(frozen=True)
class GenerationSnapshot:
    """One generation's population as arrays; a row's position is its tie-break index."""

    generation: int
    genomes: np.ndarray  # (N, K)
    objectives: np.ndarray  # (N, M)
    ranks: np.ndarray  # (N,), 1 = Pareto front
    crowding: np.ndarray  # (N,)


@dataclass
class FrontArchive:
    """Per-generation population snapshots, the initial population first."""

    snapshots: list[GenerationSnapshot] = field(default_factory=list)

    @property
    def final_front(self) -> GenerationSnapshot:
        """The rank-1 rows of the last snapshot, in population order."""
        last = self.snapshots[-1]
        keep = last.ranks == 1
        arrays = (last.genomes, last.objectives, last.ranks, last.crowding)
        return GenerationSnapshot(last.generation, *(a[keep] for a in arrays))


def fast_non_dominated_sort(objectives, limit: int | None = None) -> list[np.ndarray]:
    """Layer the rows of an (N, M) objective array into fronts F1, F2, ... of row indices.

    F1 is the non-dominated set; each later front is the non-dominated
    set once earlier fronts are removed. With no ``limit`` the fronts
    partition the rows; with one, the peel stops at the shortest prefix
    of them that holds at least ``limit`` rows (none for a limit of 0).

    ``better[i, j]`` (i is strictly better than j on some column) is one
    ``<`` comparison per objective column, and i dominates j when
    ``better[i, j]`` and not ``better[j, i]``: a NaN compares neither
    way, so its column counts for neither row. Each front is peeled from
    the remaining dominator counts. Member order is part of the contract,
    because crowding and truncation tie-break on it: F1 is in row order,
    and a later front orders its members by the position, in the front
    before, of their last dominator there, then by row.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    better = np.zeros((n, n), dtype=bool)
    for c in objs.T:
        better |= c[:, None] < c
    dom = better & ~better.T
    counts = dom.sum(0)

    fronts: list[np.ndarray] = []
    left = n if limit is None else limit
    current = np.flatnonzero(counts == 0)
    while current.size and left > 0:
        fronts.append(current)
        left -= current.size
        beaten = dom[current]
        hits = beaten.sum(0)
        nxt = np.flatnonzero((hits > 0) & (counts == hits))
        counts -= hits
        # the position in ``current`` of each new member's last dominator
        last = current.size - 1 - beaten[::-1, nxt].argmax(0)
        current = nxt[np.lexsort((nxt, last))]
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Normalized cuboid density estimate of each row of a front; boundary rows get infinity.

    Per objective, the rows are stably sorted and an interior row accrues
    the span between its neighbours divided by the objective range; a
    zero range contributes nothing, and a row already infinite stays so.
    A column whose range overflows takes its steps on halved values.
    Fronts of one or two rows are all infinite.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n <= 2:
        return np.full(n, math.inf)
    dists = np.zeros(n)
    for col in objs.T:
        order = np.argsort(col, kind="stable")
        dists[order[[0, -1]]] = math.inf
        low, high = float(col[order[0]]), float(col[order[-1]])
        if high == low:
            continue
        if high - low == math.inf:  # the range overflows; halving is exact for normal floats
            col, low, high = col / 2, low / 2, high / 2
        inner = order[1:-1]
        step = (col[order[2:]] - col[order[:-2]]) / (high - low)
        dists[inner] += np.where(dists[inner] == math.inf, 0.0, step)
    return dists


def binary_tournament(ranks, crowding, rng: np.random.Generator) -> int:
    """Pick two rows uniformly (with replacement); the winner is the lower
    ``(rank, -crowding, row)``: lower rank, then larger crowding, then the earlier row.
    ``evolve`` passes ``ranks`` and ``crowding`` as lists, which index faster than arrays.
    Two scalar draws take the same values as one draw of size 2, without its overhead."""
    i, j = int(rng.integers(len(ranks))), int(rng.integers(len(ranks)))
    return min((ranks[i], -crowding[i], i), (ranks[j], -crowding[j], j))[2]


def sbx_crossover(
    parents_a, parents_b, spread, swap, cfg: GAConfig, lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the mating pairs (row p of ``parents_a`` with row p
    of ``parents_b``) applied gene-wise, children clamped to bounds.

    Each gene gets its own spread factor from its uniform draw in
    ``spread``, and ``swap`` (a fair coin per gene) decides which child
    receives the contracted or expanded value (the usual symmetric form;
    without it the blend correlates all genes and the population
    collapses early). Identical parents always produce identical children.
    """
    exponent = 1.0 / (cfg.eta_crossover + 1.0)
    beta = np.where(
        spread <= 0.5, (2.0 * spread) ** exponent, (1.0 / (2.0 * (1.0 - spread))) ** exponent
    )
    child_a = 0.5 * ((1.0 + beta) * parents_a + (1.0 - beta) * parents_b)
    child_b = 0.5 * ((1.0 - beta) * parents_a + (1.0 + beta) * parents_b)
    child_a, child_b = np.where(swap, child_b, child_a), np.where(swap, child_a, child_b)
    return np.clip(child_a, lows, highs), np.clip(child_b, lows, highs)


def mutate(rng: np.random.Generator, cfg: GAConfig, lows, highs) -> list[tuple[int, float]]:
    """One child's uniform-reset mutation draws: ``(gene, value)`` per reset gene, in
    gene order, the value drawn uniformly within the gene's bounds.

    ``per-gene`` resets each gene independently with the configured
    probability; ``per-child`` resets one randomly chosen gene in the
    whole genome with that probability.
    """
    if cfg.mutation_kind == PER_GENE:
        genes = (rng.random(lows.shape[0]) < cfg.mutation_probability).nonzero()[0].tolist()
    elif rng.random() < cfg.mutation_probability:
        genes = [int(rng.integers(0, lows.shape[0]))]
    else:
        return []
    return [(gene, rng.uniform(lows[gene], highs[gene])) for gene in genes]


def _offspring(pop: GenerationSnapshot, rng, cfg: GAConfig, lows, highs) -> np.ndarray:
    """One generation's children: rows 2p and 2p + 1 come from pair p.

    The draw loop records the parent rows, each mating pair's spread and
    swap draws and the ``(child, gene, value)`` resets. Then the children
    start as copies of their parents, the mating pairs (whose coin fell
    below ``crossover_probability``) get their SBX children, and the
    resets are assigned.
    """
    n, k = pop.genomes.shape
    ranks, crowding = pop.ranks.tolist(), pop.crowding.tolist()
    parents, mating, draws, resets = [], [], [], []
    for first in range(0, n, 2):
        parents.append(binary_tournament(ranks, crowding, rng))
        parents.append(binary_tournament(ranks, crowding, rng))
        if rng.random() < cfg.crossover_probability:
            mating.append(first)
            draws.append(rng.random(2 * k))  # spread, then swap: the doubles of two k-draws
        for child in (first, first + 1):
            resets += [(child, gene, value) for gene, value in mutate(rng, cfg, lows, highs)]
    children = pop.genomes[parents]
    if mating:
        a, uniforms = np.array(mating), np.array(draws)
        children[a], children[a + 1] = sbx_crossover(
            children[a], children[a + 1], uniforms[:, :k], uniforms[:, k:] < 0.5, cfg, lows, highs
        )
    if resets:
        rows, genes, values = zip(*resets)
        children[rows, genes] = values
    return children


def _evaluate_all(
    fitness, genomes: list[np.ndarray], map_fn, width: int = 0
) -> list[tuple[float, ...]]:
    """Objectives per genome; every vector must hold ``width`` finite values (0: as many
    as the first one), and a vector that does not is blamed on its genome."""
    results: list[tuple[float, ...]] = []
    iterator = map_fn(fitness, genomes)
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
            if not all(map(math.isfinite, objectives)):
                raise ValueError(f"fitness returned a non-finite objective: {objectives}")
            results.append(objectives)
    except EvaluationError:
        raise
    except Exception as exc:
        # a pool that broke has loaded this module already; a serial run never imports it
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):
            raise  # a broken pool (say, a killed worker) is no genome's fault
        raise EvaluationError(genomes[min(len(results), len(genomes) - 1)], exc) from exc
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
    keys = [g.tobytes() for g in genomes]
    fresh = {k: g for k, g in zip(keys, genomes) if k not in known}
    width = len(next(iter(known.values()), ()))
    known.update(zip(fresh, _evaluate_all(fitness, list(fresh.values()), map_fn, width)))
    return [known[k] for k in keys]


def _select(objectives: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best ``n`` rows, front by front, the overflowing front cut by descending
    crowding then row; plus every row's rank and crowding (0 beyond the fronts used).

    Only the fronts used are sorted: the peel stops once they hold ``n`` rows.
    """
    ranks = np.zeros(len(objectives), dtype=int)
    crowding = np.zeros(len(objectives))
    chosen, room = [np.empty(0, dtype=int)], n
    for rank, front in enumerate(fast_non_dominated_sort(objectives, limit=n), start=1):
        ranks[front] = rank
        crowding[front] = crowding_distance(objectives[front])
        if front.size > room:
            front = front[np.lexsort((front, -crowding[front]))][:room]
        chosen.append(front)
        room -= front.size
    return np.concatenate(chosen), ranks, crowding


def _bound_box(bounds) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bound arrays of a box of ``(low, high)`` pairs, one per gene;
    an empty box, a non-finite bound or a low above its high is refused by gene index."""
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if lows.size == 0:
        raise ValueError("the bound box holds no gene")
    for gene, (low, high) in enumerate(zip(lows.tolist(), highs.tolist())):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError(f"gene {gene}'s bounds must be finite, got ({low}, {high})")
        if low > high:
            raise ValueError(f"gene {gene}'s lower bound {low} exceeds its upper bound {high}")
    return lows, highs


def evolve(fitness, cfg: GAConfig, bounds, map_fn=None) -> FrontArchive:
    """Run the full loop and archive every generation (initial population included).

    ``bounds`` holds one finite ``(low, high)`` pair per gene, low <= high; a
    bad box is refused before anything is drawn or scored. ``fitness`` maps
    a genome array to a tuple of finite objectives to minimize; it must be
    defined over the whole bound box and pure: a child equal byte for byte
    to a current population member, or to an earlier child of its
    generation, reuses that genome's objectives instead of being scored
    again. ``map_fn`` may be a parallel
    order-preserving map; results are merged in submission order. A
    failing evaluation aborts the run and reports the offending genome.
    """
    lows, highs = _bound_box(bounds)
    rng = np.random.default_rng(cfg.seed)
    mapper = map_fn if map_fn is not None else map
    n = cfg.population_size

    genomes = rng.uniform(lows, highs, size=(n, lows.shape[0]))
    objectives = np.array(_score(fitness, list(genomes), mapper, {}))
    _, ranks, crowding = _select(objectives, n)
    pop = GenerationSnapshot(0, genomes, objectives, ranks, crowding)
    archive = FrontArchive([pop])

    for generation in range(1, cfg.generations + 1):
        children = _offspring(pop, rng, cfg, lows, highs)
        # children that copy a current member (or an earlier child) are not rescored
        known = {g.tobytes(): o for g, o in zip(pop.genomes, map(tuple, pop.objectives.tolist()))}
        child_objectives = _score(fitness, list(children), mapper, known)

        # rows 0..n-1 are the population, n.. its children: the row is the tie-break
        genomes = np.vstack([pop.genomes, children])
        objectives = np.vstack([pop.objectives, child_objectives])
        rows, ranks, crowding = _select(objectives, n)
        arrays = (genomes, objectives, ranks, crowding)
        pop = GenerationSnapshot(generation, *(a[rows] for a in arrays))
        archive.snapshots.append(pop)
    return archive
