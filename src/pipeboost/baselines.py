"""Comparison schedulers: all-GPU, regression-guided splitting, and a GA.

The regression baseline fits per-unit least squares over simple layer
features and then, for each model independently, picks the assignment
minimizing the predicted bottleneck stage time — deliberately blind to
contention between models, which is exactly the weakness the tree search
is meant to expose. The GA evolves flat per-layer unit strings under the
same evaluator the tree search uses, with a repair pass that merges the
cheapest stage into its cheaper neighbor until the stage limit holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .simulator import (
    Mapping,
    ThroughputReport,
    iter_assignments,
    random_mapping_rng,
    simulate,
    simulate_batch,
    stage_bounds,
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
    """Best of n uniformly random valid mappings, judged by simulated T;
    the first drawn wins a tie."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    mappings = [random_mapping_rng(workload, profile, max_stages, rng) for _ in range(n)]
    rows = np.array([[u for a in m.assignments for u in a] for m in mappings])
    best = mappings[int(np.argmax(simulate_batch(workload, rows, profile)))]
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
    Contention between models is ignored by design."""
    workload.validate_for(profile)
    assignments = []
    for model_idx in workload.model_indices:
        model = profile.models[model_idx]
        pred = linreg.predict_model(model)
        n = model.num_layers
        stage_time = {
            (s, e, u): pred[s:e, u].sum() + (profile.transfer_ms if s else 0.0)
            for s in range(n)
            for e in range(s + 1, n + 1)
            for u in range(profile.num_units)
        }
        best, best_time = None, None
        for cand in iter_assignments(n, profile.num_units, max_stages):
            bottleneck = 0.0
            for stage in stage_bounds(cand):
                bottleneck = max(bottleneck, stage_time[stage])
            if best_time is None or bottleneck < best_time:
                best, best_time = cand, bottleneck
        assignments.append(best)
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


def merge_to_limit(
    assignment: list[int], costs: tuple[tuple[float, ...], ...], limit: int
) -> list[int]:
    """Repair pass: merge the cheapest stage into its cheaper-cost adjacent
    neighbor (reassigning its layers to the neighbor's unit) until the
    assignment has at most `limit` stages. `costs[u][l]` is the model's
    layer cost table, `profile.layer_costs[m]`.

    `stages` and `cost` are kept equal to `stage_bounds(out)` and its stage
    sums: a merge joins the victim, the target and, when it is on the
    target's unit too, the victim's other neighbor into one run."""
    out = list(assignment)
    stages = stage_bounds(out)
    cost = [sum(costs[u][s:e]) for s, e, u in stages]
    while len(stages) > limit:
        victim = min(range(len(stages)), key=cost.__getitem__)
        neighbors = [i for i in (victim - 1, victim + 1) if 0 <= i < len(stages)]
        target = min(neighbors, key=cost.__getitem__)
        unit = stages[target][2]
        s, e, _ = stages[victim]
        out[s:e] = [unit] * (e - s)
        lo, hi = sorted((victim, target))
        other = 2 * victim - target
        if 0 <= other < len(stages) and stages[other][2] == unit:
            lo, hi = min(lo, other), max(hi, other)
        s, e = stages[lo][0], stages[hi][1]
        stages[lo : hi + 1] = [(s, e, unit)]
        cost[lo : hi + 1] = [sum(costs[unit][s:e])]
    return out


def ga_schedule(
    workload: Workload,
    profile: DeviceProfile,
    evaluator,
    config: GaConfig | None = None,
) -> Mapping:
    config = config or GaConfig()
    workload.validate_for(profile)
    if len(workload) == 0:
        raise ValueError("cannot schedule an empty workload")
    models = [profile.models[i] for i in workload.model_indices]
    costs = [profile.layer_costs[i] for i in workload.model_indices]
    bounds = np.cumsum([0] + [m.num_layers for m in models])
    total = int(bounds[-1])
    rng = random.Random(config.seed)

    def to_mapping(genes: list[int]) -> Mapping:
        return Mapping(
            assignments=tuple(
                tuple(genes[bounds[i] : bounds[i + 1]]) for i in range(len(models))
            )
        )

    def repair(genes: list[int]) -> list[int]:
        for i, rows in enumerate(costs):
            seg = merge_to_limit(genes[bounds[i] : bounds[i + 1]], rows, config.stage_limit)
            genes[bounds[i] : bounds[i + 1]] = seg
        return genes

    population = [
        [u for a in random_mapping_rng(workload, profile, config.stage_limit, rng).assignments for u in a]
        for _ in range(config.population)
    ]

    def evaluate(pop: list[list[int]]) -> np.ndarray:
        return evaluator.score_batch(workload, [to_mapping(g) for g in pop])

    def tournament(fitness: np.ndarray) -> list[int]:
        contenders = [rng.randrange(config.population) for _ in range(config.tournament_k)]
        winner = max(contenders, key=lambda i: (fitness[i], -i))
        return population[winner]

    for _ in range(config.generations):
        fitness = evaluate(population)
        order = sorted(range(config.population), key=lambda i: (-fitness[i], i))
        nxt = [list(population[i]) for i in order[: config.elitism]]
        while len(nxt) < config.population:
            p1, p2 = tournament(fitness), tournament(fitness)
            point = rng.randrange(1, total) if total > 1 else 0
            child = p1[:point] + p2[point:]
            child = [
                rng.randrange(profile.num_units) if rng.random() < config.mutation_rate else g
                for g in child
            ]
            nxt.append(repair(child))
        population = nxt

    fitness = evaluate(population)
    best = max(range(config.population), key=lambda i: (fitness[i], -i))
    return to_mapping(population[best])
