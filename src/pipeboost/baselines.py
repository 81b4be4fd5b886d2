"""Comparison schedulers: all-GPU, regression-guided splitting, and a GA.

The regression baseline fits per-unit least squares over simple layer
features and then, for each model independently, picks the assignment
minimizing the predicted bottleneck stage time — deliberately blind to
contention between models, which is exactly the weakness the tree search
is meant to expose. The GA evolves mappings, one unit tuple per model,
under the same evaluator the tree search uses, with a repair pass that
merges the cheapest stage into its cheaper neighbor until the stage limit
holds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .simulator import (
    Mapping,
    ThroughputReport,
    _avg_throughput,
    random_mapping_rng,
    randbelow,
    simulate,
    stage_bounds,
    validate_mapping,
)
from .workload import DeviceProfile, DnnModel, Workload


def gpu_only(workload: Workload, profile: DeviceProfile) -> Mapping:
    workload.validate_for(profile)
    gpu = profile.gpu_unit().id
    return Mapping(
        assignments=tuple(
            (gpu,) * profile.models[i].num_layers for i in workload.model_indices
        )
    )


def random_best(
    workload: Workload,
    profile: DeviceProfile,
    n: int = 200,
    max_stages: int = 3,
    seed: int = 0,
) -> tuple[Mapping, ThroughputReport]:
    """Best of n uniformly random valid mappings by simulated T, scored through
    one memo; the first drawn wins a tie. `simulate` checks the one returned."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    mappings = [random_mapping_rng(workload, profile, max_stages, rng) for _ in range(n)]
    memo = {}
    t = [_avg_throughput(workload, m.assignments, profile, memo) for m in mappings]
    best = mappings[t.index(max(t))]
    return best, simulate(workload, best, profile)


# ---------------------------------------------------------------------------
# Linear-regression splitter
# ---------------------------------------------------------------------------

def _features(model: DnnModel) -> np.ndarray:
    return np.array(
        [
            [lf.in_elems, lf.out_elems, lf.macs, 1.0]
            for lf in (layer.features for layer in model.layers)
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class LinRegModel:
    weights: np.ndarray  # (units, 4): in_elems, out_elems, macs, bias

    def predict_model(self, model: DnnModel) -> np.ndarray:
        """Predicted per-layer cost matrix, shape (n_layers, units)."""
        return _features(model) @ self.weights.T


def fit_linreg(profile: DeviceProfile) -> LinRegModel:
    x = np.vstack([_features(m) for m in profile.models])
    y = np.vstack([np.array(rows).T for rows in profile.layer_costs])
    coef, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise ValueError("regression produced non-finite coefficients")
    return LinRegModel(weights=coef.T)


def mosaic_schedule(
    workload: Workload,
    profile: DeviceProfile,
    linreg: LinRegModel,
    max_stages: int = 3,
) -> Mapping:
    """Per model, the ≤max_stages assignment with the smallest predicted
    bottleneck stage time (transfer added to every non-first stage).
    Contention between models is ignored by design.

    Every candidate is scored at once from a (start, end, unit) stage-time
    table. Of the candidates tied at the smallest bottleneck, the
    lexicographically smallest per-layer tuple wins: the first one that
    `iter_assignments` yields."""
    if max_stages < 1:
        raise ValueError("max_stages must be >= 1")
    workload.validate_for(profile)
    n_units = profile.num_units
    assignments = []
    for model_idx in workload.model_indices:
        model = profile.models[model_idx]
        pred = linreg.predict_model(model)
        n = model.num_layers
        table = np.zeros((n, n + 1, n_units))
        for s in range(n):
            for e in range(s + 1, n + 1):
                for u in range(n_units):
                    table[s, e, u] = pred[s:e, u].sum() + (profile.transfer_ms if s else 0.0)
        # per stage count k: (cut sets, unit sequences, their bottlenecks)
        scored = []
        for k in range(1, min(max_stages, n) + 1):
            cuts = list(itertools.combinations(range(1, n), k - 1))
            starts = np.array([(0, *c) for c in cuts], dtype=np.intp)
            ends = np.array([(*c, n) for c in cuts], dtype=np.intp)
            units = np.array(
                [
                    seq
                    for seq in itertools.product(range(n_units), repeat=k)
                    if all(a != b for a, b in zip(seq, seq[1:]))
                ],
                dtype=np.intp,
            ).reshape(-1, k)
            # each candidate's largest stage time, floored at 0.0
            bottleneck = np.zeros((len(starts), len(units)))
            for i in range(k):
                stage = table[starts[:, None, i], ends[:, None, i], units[None, :, i]]
                np.maximum(bottleneck, stage, out=bottleneck)
            scored.append((starts, ends, units, bottleneck))
        best_time = min(bottleneck.min(initial=np.inf) for *_, bottleneck in scored)
        assignments.append(min(
            tuple(
                u
                for s, e, u in zip(starts[c].tolist(), ends[c].tolist(), units[q].tolist())
                for _ in range(s, e)
            )
            for starts, ends, units, bottleneck in scored
            for c, q in zip(*np.nonzero(bottleneck == best_time))
        ))
    return Mapping(assignments=tuple(assignments))


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 100
    mutation_rate: float = 0.1
    tournament_k: int = 3
    elitism: int = 2
    stage_limit: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be < population")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.generations < 1 or self.tournament_k < 1:
            raise ValueError("generations and tournament_k must be >= 1")
        if self.stage_limit < 1:
            raise ValueError("stage_limit must be >= 1")


def merge_to_limit(assignment: tuple[int, ...], costs, limit: int) -> tuple[int, ...]:
    """Repair pass: merge the cheapest stage into its cheaper-cost adjacent
    neighbor (reassigning its layers to the neighbor's unit) until the
    assignment has at most `limit` stages. `costs[u][s][e]` is the model's
    stage-cost table, `profile.stage_costs[m]`. Ties go to the first
    cheapest stage and to the left neighbor.

    `stages` and `cost` are kept equal to the stages of the merged
    assignment and their costs: a merge joins the victim, the target and,
    when it is on the target's unit too, the victim's other neighbor into one
    run. The output is written once, from the final stages; an assignment
    already within the limit is returned as it is."""
    stages = stage_bounds(assignment)
    if len(stages) <= limit:
        return assignment
    cost = [costs[u][s][e] for s, e, u in stages]
    while len(stages) > limit:
        victim = cost.index(min(cost))
        if victim == 0:
            target = 1
        elif victim == len(stages) - 1 or cost[victim - 1] <= cost[victim + 1]:
            target = victim - 1
        else:
            target = victim + 1
        unit = stages[target][2]
        lo, hi = sorted((victim, target))
        other = 2 * victim - target
        if 0 <= other < len(stages) and stages[other][2] == unit:
            lo, hi = min(lo, other), max(hi, other)
        s, e = stages[lo][0], stages[hi][1]
        stages[lo : hi + 1] = [(s, e, unit)]
        cost[lo : hi + 1] = [costs[unit][s][e]]
    out = []
    for s, e, u in stages:
        out += [u] * (e - s)
    return tuple(out)


def ga_schedule(
    workload: Workload,
    profile: DeviceProfile,
    evaluator,
    config: GaConfig | None = None,
) -> Mapping:
    """Evolve mappings under `evaluator`, each a tuple of per-model unit
    tuples, the shape of `Mapping.assignments`. The random draws come in a
    fixed order (initial population; then per child two tournaments, a
    crossover point and one draw per gene, model by model), so a seed fixes
    the result.

    Past the initial population (`random_mapping_rng`), each tournament
    index, crossover point and mutated unit is drawn by `simulator.randbelow`:
    the number and rng state of `randrange(size)`, `randrange(1, total)` and
    `randrange(n_units)`, without their Python frames. Whether a gene mutates
    stays `rng.random() < mutation_rate`. So the generations depend only on
    the seed's `getrandbits` and `random()` streams; `tests/test_simulator.py`
    pins the draw.

    The crossover point cuts the mix's layers in mix order: a child's model
    that it does not split comes whole from one parent. Every member is
    legal: the initial draws, the elites and the repaired children. So a
    model that no crossover point splits and no mutation changed keeps its
    parent's tuple and skips `merge_to_limit`, which would return it
    unchanged. The returned mapping is checked, stage limit included."""
    config = config or GaConfig()
    workload.validate_for(profile)
    bounds = list(itertools.accumulate(
        (profile.models[i].num_layers for i in workload.model_indices), initial=0
    ))
    spans = [
        (bounds[pos], bounds[pos + 1], profile.stage_costs[i])
        for pos, i in enumerate(workload.model_indices)
    ]
    total = bounds[-1]
    size, k, limit = config.population, config.tournament_k, config.stage_limit
    rate, n_units = config.mutation_rate, profile.num_units
    rng = random.Random(config.seed)
    getrandbits, draw = rng.getrandbits, rng.random

    def tournament(fitness: list[float]) -> tuple:
        """Best of k drawn indices by fitness, the lower index on a tie."""
        best = randbelow(getrandbits, size)
        for _ in range(k - 1):
            i = randbelow(getrandbits, size)
            if fitness[i] > fitness[best] or (fitness[i] == fitness[best] and i < best):
                best = i
        return population[best]

    population = [
        random_mapping_rng(workload, profile, limit, rng).assignments for _ in range(size)
    ]
    for _ in range(config.generations):
        fitness = evaluator.score_rows(workload, population).tolist()
        order = sorted(range(size), key=lambda i: (-fitness[i], i))
        nxt = [population[i] for i in order[: config.elitism]]
        while len(nxt) < size:
            p1, p2 = tournament(fitness), tournament(fitness)
            point = 1 + randbelow(getrandbits, total - 1) if total > 1 else 0
            child = []
            for pos, (s, e, costs) in enumerate(spans):
                split = s < point < e
                if split:
                    a = p1[pos][: point - s] + p2[pos][point - s :]
                else:
                    a = (p1 if point >= e else p2)[pos]
                genes = tuple([randbelow(getrandbits, n_units) if draw() < rate else g for g in a])
                child.append(merge_to_limit(genes, costs, limit) if split or genes != a else a)
            nxt.append(tuple(child))
        population = nxt

    fitness = evaluator.score_rows(workload, population).tolist()
    best = Mapping(population[max(range(size), key=lambda i: (fitness[i], -i))])
    validate_mapping(best, profile, workload, limit)
    return best
