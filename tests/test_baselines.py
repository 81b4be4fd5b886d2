import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pipeboost as pb
from pipeboost.baselines import (
    GaConfig,
    LinRegModel,
    fit_linreg,
    ga_schedule,
    gpu_only,
    merge_to_limit,
    mosaic_schedule,
    random_best,
)
from pipeboost.errors import MappingError
from pipeboost.evaluators import SimulatorEvaluator
from pipeboost.simulator import (
    Mapping,
    iter_assignments,
    random_mapping_rng,
    simulate,
    stage_bounds,
    validate_mapping,
)
from pipeboost.workload import Workload, stage_cost_table


# -------------------------------------------------- the plain loops, as references

def random_best_by_loop(workload, profile, n, max_stages, seed):
    """Draw and simulate one mapping at a time: the reference for `random_best`."""
    rng = random.Random(seed)
    best = None
    for _ in range(n):
        mapping = random_mapping_rng(workload, profile, max_stages, rng)
        report = simulate(workload, mapping, profile)
        if best is None or report.avg_throughput > best[1].avg_throughput:
            best = (mapping, report)
    return best


def mosaic_by_stage_sums(workload, profile, linreg, max_stages):
    """Sum every candidate's stages afresh: the reference for `mosaic_schedule`."""
    assignments = []
    for model_idx in workload.model_indices:
        model = profile.models[model_idx]
        pred = linreg.predict_model(model)
        best, best_time = None, None
        for cand in iter_assignments(model.num_layers, profile.num_units, max_stages):
            bottleneck = 0.0
            for s, e, u in stage_bounds(cand):
                t = pred[s:e, u].sum() + (profile.transfer_ms if s else 0.0)
                bottleneck = max(bottleneck, t)
            if best_time is None or bottleneck < best_time:
                best, best_time = cand, bottleneck
        assignments.append(best)
    return Mapping(assignments=tuple(assignments))


def ga_by_loop(workload, profile, evaluator, config):
    """Tournament by `max` over a contenders list, fitness as a numpy array:
    the reference for `ga_schedule`."""
    models = [profile.models[i] for i in workload.model_indices]
    costs = [profile.stage_costs[i] for i in workload.model_indices]
    bounds = np.cumsum([0] + [m.num_layers for m in models])
    total = int(bounds[-1])
    rng = random.Random(config.seed)

    def to_mapping(genes):
        return Mapping(
            assignments=tuple(
                tuple(genes[bounds[i] : bounds[i + 1]]) for i in range(len(models))
            )
        )

    def repair(genes):
        for i, rows in enumerate(costs):
            seg = merge_to_limit(tuple(genes[bounds[i] : bounds[i + 1]]), rows, config.stage_limit)
            genes[bounds[i] : bounds[i + 1]] = seg
        return genes

    population = [
        [u for a in random_mapping_rng(workload, profile, config.stage_limit, rng).assignments for u in a]
        for _ in range(config.population)
    ]

    def evaluate(pop):
        return evaluator.score_rows(workload, [to_mapping(genes).assignments for genes in pop])

    def tournament(fitness):
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


def merge_by_rescan(assignment, costs, limit):
    """Split and cost every stage again after each merge: the reference for
    `merge_to_limit`."""
    out = list(assignment)
    while len(stages := stage_bounds(out)) > limit:
        cost = [sum(costs[u][s:e]) for s, e, u in stages]
        victim = min(range(len(stages)), key=cost.__getitem__)
        neighbors = [i for i in (victim - 1, victim + 1) if 0 <= i < len(stages)]
        target = min(neighbors, key=cost.__getitem__)
        s, e, _ = stages[victim]
        out[s:e] = [stages[target][2]] * (e - s)
    return tuple(out)


def test_gpu_only_everything_on_gpu(tiny_profile):
    wl = Workload((0, 1))
    m = gpu_only(wl, tiny_profile)
    assert m.assignments == ((0, 0, 0), (0, 0))
    validate_mapping(m, tiny_profile, wl)


def test_random_best_dominates_single_draw(gen_profile):
    wl = Workload((1, 3))
    _, rep200 = random_best(wl, gen_profile, n=200, seed=0)
    _, rep1 = random_best(wl, gen_profile, n=1, seed=0)
    assert rep200.avg_throughput >= rep1.avg_throughput
    m, rep = random_best(wl, gen_profile, n=50, seed=4)
    assert simulate(wl, m, gen_profile).avg_throughput == rep.avg_throughput
    validate_mapping(m, gen_profile, wl)
    with pytest.raises(ValueError):
        random_best(wl, gen_profile, n=0)


def test_random_best_seeded(gen_profile):
    wl = Workload((0, 2))
    m1, _ = random_best(wl, gen_profile, n=30, seed=7)
    m2, _ = random_best(wl, gen_profile, n=30, seed=7)
    assert m1 == m2


@pytest.mark.parametrize("profile_seed", [11, 22, 33])
def test_random_best_equals_loop_reference(profile_seed):
    profile = pb.generate_profile(8, seed=profile_seed)
    rng = random.Random(profile_seed)
    for trial in range(8):
        wl = Workload(tuple(rng.sample(range(8), rng.randint(1, 5))))
        n, limit = rng.choice([1, 2, 50, 200]), rng.randint(1, 4)
        assert random_best(wl, profile, n, limit, trial) == random_best_by_loop(
            wl, profile, n, limit, trial
        )


def test_random_best_keeps_the_first_of_tied_draws(tiny_profile):
    # one 2-layer model on one stage: many of 40 draws repeat a mapping
    wl = Workload((1,))
    for seed in range(5):
        assert random_best(wl, tiny_profile, 40, 1, seed) == random_best_by_loop(
            wl, tiny_profile, 40, 1, seed
        )


# ------------------------------------------------------------------ linreg

def test_fit_linreg_recovers_exact_linear_costs(tiny_profile):
    # tiny_profile has 5 distinct layers with hand-picked features; a
    # least-squares fit can't be exact there, but predictions must at
    # least be finite and the shape contract must hold
    lin = fit_linreg(tiny_profile)
    assert lin.weights.shape == (3, 4)
    pred = lin.predict_model(tiny_profile.models[0])
    assert pred.shape == (3, 3)
    assert np.all(np.isfinite(pred))


def test_fit_linreg_exact_when_costs_are_linear():
    # build a profile whose kernel times ARE a linear function of the
    # features; lstsq must then reproduce them to rounding error
    from pipeboost.workload import (
        ComputeUnit, DeviceProfile, DnnModel, KernelProfile,
        LayerFeatures, LayerSpec, UnitKind,
    )

    rng = random.Random(0)
    true_w = {0: (0.01, 0.002, 0.0001, 0.3), 1: (0.02, 0.004, 0.0002, 0.6), 2: (0.05, 0.01, 0.0005, 1.5)}

    def mk_layer(name):
        feats = LayerFeatures(
            "conv", rng.randint(10, 500), rng.randint(10, 500), rng.randint(100, 99999)
        )
        times = {
            u: w[0] * feats.in_elems + w[1] * feats.out_elems + w[2] * feats.macs + w[3]
            for u, w in true_w.items()
        }
        return LayerSpec(name, (KernelProfile(name + ".k", times),), feats)

    models = tuple(
        DnnModel(f"m{i}", tuple(mk_layer(f"m{i}.l{j}") for j in range(6)))
        for i in range(3)
    )
    prof = DeviceProfile(
        units=(
            ComputeUnit(0, "gpu", UnitKind.GPU),
            ComputeUnit(1, "big", UnitKind.BIG),
            ComputeUnit(2, "little", UnitKind.LITTLE),
        ),
        models=models,
    )
    lin = fit_linreg(prof)
    for u in range(3):
        np.testing.assert_allclose(lin.weights[u], true_w[u], rtol=1e-6, atol=1e-9)


def test_mosaic_schedule_valid_and_contention_blind(gen_profile):
    lin = fit_linreg(gen_profile)
    wl = Workload((0, 1, 2))
    m = mosaic_schedule(wl, gen_profile, lin)
    validate_mapping(m, gen_profile, wl)
    for a in m.assignments:
        assert len(stage_bounds(a)) <= 3
    # per-model decisions don't depend on what else is in the mix
    solo = mosaic_schedule(Workload((1,)), gen_profile, lin)
    assert m.assignments[1] == solo.assignments[0]


def test_mosaic_prefers_fast_unit_when_obvious(tiny_profile):
    # mB is equally fast everywhere but splitting adds transfer; with
    # weights fitted on tiny_profile the single-stage choice wins for it
    lin = LinRegModel(weights=np.array([
        [0.0, 0.0, 0.0, 1.0],   # unit 0 flat 1ms per layer
        [0.0, 0.0, 0.0, 5.0],
        [0.0, 0.0, 0.0, 5.0],
    ]))
    m = mosaic_schedule(Workload((1,)), tiny_profile, lin)
    # predicted: all on unit0 = 2ms bottleneck; any split >= 1+transfer
    assert m.assignments[0] == (0, 0)


@pytest.mark.parametrize("profile_seed", [11, 22, 33])
def test_mosaic_equals_stage_sum_reference(profile_seed):
    profile = pb.generate_profile(8, seed=profile_seed)
    lin = fit_linreg(profile)
    everything = Workload(tuple(range(8)))
    for limit in (1, 2, 3):
        assert mosaic_schedule(everything, profile, lin, limit) == mosaic_by_stage_sums(
            everything, profile, lin, limit
        )


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0, 2.0])
def test_mosaic_keeps_the_first_of_tied_candidates(weight):
    # every layer costs `weight` on every unit, so many cut points and unit
    # sequences tie; the enumeration's first (lexicographically smallest) wins
    profile = pb.generate_profile(8, seed=11)
    lin = LinRegModel(weights=np.array([[0.0, 0.0, 0.0, weight]] * profile.num_units))
    mix = Workload((0, 3, 6))
    for limit in (1, 2, 3):
        assert mosaic_schedule(mix, profile, lin, limit) == mosaic_by_stage_sums(
            mix, profile, lin, limit
        )


def test_mosaic_refuses_a_stage_limit_below_one(gen_profile):
    with pytest.raises(ValueError, match="max_stages"):
        mosaic_schedule(Workload((0,)), gen_profile, fit_linreg(gen_profile), 0)


# ---------------------------------------------------------------------- ga

def test_merge_to_limit_reduces_stage_count(tiny_profile):
    costs = tiny_profile.stage_costs[0]
    out = merge_to_limit((0, 1, 2), costs, 2)
    assert len(stage_bounds(out)) <= 2
    assert len(out) == 3
    # already-legal assignments are untouched
    assert merge_to_limit((1, 1, 1), costs, 3) == (1, 1, 1)


@given(st.data())
def test_merge_to_limit_keeps_length_and_meets_limit(gen_profile, data):
    m = data.draw(st.integers(0, len(gen_profile.models) - 1))
    n = gen_profile.models[m].num_layers
    assignment = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    limit = data.draw(st.integers(1, 5))
    out = merge_to_limit(assignment, gen_profile.stage_costs[m], limit)
    assert len(out) == n
    assert len(stage_bounds(out)) <= limit
    if len(stage_bounds(assignment)) <= limit:
        assert out == assignment


@pytest.mark.parametrize("profile_seed", [11, 22, 33])
def test_merge_to_limit_equals_rescan_reference(profile_seed):
    profile = pb.generate_profile(8, seed=profile_seed)
    rng = random.Random(profile_seed)
    for _ in range(1500):
        m = rng.randrange(8)
        costs = profile.layer_costs[m]
        units = rng.randint(2, 3)  # two units make many equal-unit neighbors
        assignment = tuple([rng.randrange(units) for _ in range(len(costs[0]))])
        limit = rng.randint(1, 6)
        assert merge_to_limit(assignment, profile.stage_costs[m], limit) == merge_by_rescan(
            assignment, costs, limit
        )


def test_merge_to_limit_breaks_ties_like_rescan_reference():
    # equal layer costs on every unit: stages of equal length tie, and the
    # first cheapest stage and the left neighbor must win
    costs = ((1.0,) * 12,) * 3
    table = stage_cost_table(costs)
    rng = random.Random(5)
    for _ in range(500):
        assignment = tuple([rng.randrange(3) for _ in range(12)])
        limit = rng.randint(1, 6)
        assert merge_to_limit(assignment, table, limit) == merge_by_rescan(
            assignment, costs, limit
        )


def test_merge_to_limit_merges_cheapest_into_cheaper_neighbor(tiny_profile):
    # costs on units: a0=2/4/8, a1=3/6/12, a2=1/2/4
    # stages of [0,1,2]: (a0@0: 2), (a1@1: 6), (a2@2: 4) -> victim a0,
    # its only neighbor is a1@1 -> layers 0 joins unit 1
    out = merge_to_limit((0, 1, 2), tiny_profile.stage_costs[0], 2)
    assert out == (1, 1, 2)


def test_ga_produces_valid_mapping(gen_profile):
    wl = Workload((2, 4))
    ev = SimulatorEvaluator(gen_profile)
    cfg = GaConfig(population=12, generations=8, seed=3)
    m = ga_schedule(wl, gen_profile, ev, cfg)
    validate_mapping(m, gen_profile, wl)
    for a in m.assignments:
        assert len(stage_bounds(a)) <= 3


def test_ga_deterministic_and_improves_over_generation_zero(gen_profile):
    wl = Workload((0, 3))
    ev = SimulatorEvaluator(gen_profile)
    cfg = GaConfig(population=16, generations=12, seed=6)
    m1 = ga_schedule(wl, gen_profile, ev, cfg)
    m2 = ga_schedule(wl, gen_profile, ev, cfg)
    assert m1 == m2
    t_final = simulate(wl, m1, gen_profile).avg_throughput
    short = ga_schedule(wl, gen_profile, ev, GaConfig(population=16, generations=1, seed=6))
    t_short = simulate(wl, short, gen_profile).avg_throughput
    assert t_final >= t_short


class CoarseEvaluator:
    """Three distinct scores, so most tournaments meet a tie."""

    def score_rows(self, workload, rows):
        flat = (list(itertools.chain.from_iterable(row)) for row in rows)
        return np.array([float(ids.count(0) % 3) for ids in flat])


def test_ga_checks_the_mapping_it_returns(tiny_profile, monkeypatch):
    # the evaluators trust the GA's genes; the mapping it returns is checked
    # once. Every gene mutates, so no child is a copy of its parent, and each
    # model slice of each child reaches the repair.
    calls = []

    def bad(genes, costs, limit):
        calls.append(genes)
        return (3,) * len(genes)

    monkeypatch.setattr("pipeboost.baselines.merge_to_limit", bad)
    config = GaConfig(population=4, generations=1, elitism=0, mutation_rate=1.0)
    with pytest.raises(MappingError, match="^unit id 3 out of range$"):
        ga_schedule(Workload((0, 1)), tiny_profile, CoarseEvaluator(), config)
    assert len(calls) == 4 * 2


def test_ga_checks_the_stage_limit_of_the_mapping_it_returns(tiny_profile, monkeypatch):
    # a repair that lets an over-limit slice through is caught at the boundary
    monkeypatch.setattr("pipeboost.baselines.merge_to_limit", lambda genes, costs, limit: genes)
    config = GaConfig(population=4, generations=1, elitism=0, mutation_rate=1.0, stage_limit=1)
    with pytest.raises(MappingError, match="^model 'mA': 2 stages, over the limit 1$"):
        ga_schedule(Workload((0, 1)), tiny_profile, CoarseEvaluator(), config)


@pytest.mark.parametrize("profile_seed", [11, 22, 33])
@pytest.mark.parametrize("coarse", [False, True])
def test_ga_equals_loop_reference(profile_seed, coarse):
    profile = pb.generate_profile(8, seed=profile_seed)
    evaluator = CoarseEvaluator() if coarse else SimulatorEvaluator(profile)
    rng = random.Random(profile_seed)
    for trial, (limit, k, elitism) in enumerate(
        itertools.product((1, 2, 3), (1, 2, 3, 4), (0, 2))
    ):
        wl = Workload(tuple(rng.sample(range(8), trial % 5 + 1)))
        config = GaConfig(
            population=10, generations=4, tournament_k=k, elitism=elitism,
            stage_limit=limit, seed=trial,
        )
        assert ga_schedule(wl, profile, evaluator, config) == ga_by_loop(
            wl, profile, evaluator, config
        )
    # tournament draws at and next to powers of two, no and full mutation, and
    # a mix whose crossover draws below a power of two (total layers - 1)
    layers = [m.num_layers for m in profile.models]
    crossover_mix = next(
        mix
        for size in (1, 2, 3)
        for mix in itertools.combinations(range(8), size)
        if (sum(layers[i] for i in mix) - 1).bit_count() == 1
    )
    for trial, (size, rate) in enumerate(itertools.product((2, 8, 16, 33), (0.0, 0.1, 1.0))):
        mixes = [tuple(rng.sample(range(8), trial % 4 + 1)), crossover_mix]
        for wl in map(Workload, mixes):
            config = GaConfig(
                population=size, generations=3, mutation_rate=rate, tournament_k=3,
                elitism=min(2, size - 1), seed=trial,
            )
            assert ga_schedule(wl, profile, evaluator, config) == ga_by_loop(
                wl, profile, evaluator, config
            )


def test_ga_repairs_only_the_split_slice(monkeypatch):
    # With no mutation a child's models come from its parents, legal and
    # unchanged, except the one the crossover point splits: `merge_to_limit`
    # runs at most once per child, and the GA still equals the loop
    # reference, which repairs every model. A slice within the limit comes
    # back as the same object.
    profile = pb.generate_profile(8, seed=11)
    evaluator = SimulatorEvaluator(profile)
    wl = Workload((0, 3, 5))
    config = GaConfig(population=10, generations=6, mutation_rate=0.0, seed=4)
    want = ga_by_loop(wl, profile, evaluator, config)
    calls = []

    def counting(genes, costs, limit):
        calls.append(len(genes))
        out = merge_to_limit(genes, costs, limit)
        assert out is genes or len(stage_bounds(genes)) > limit
        return out

    monkeypatch.setattr("pipeboost.baselines.merge_to_limit", counting)
    assert ga_schedule(wl, profile, evaluator, config) == want
    children = config.generations * (config.population - config.elitism)
    assert 0 < len(calls) <= children
    assert set(calls) <= {profile.models[i].num_layers for i in wl.model_indices}


def test_ga_equals_loop_reference_at_the_default_config():
    # the bench's GA: 50 members, 100 generations, on 4-model mixes
    profile = pb.generate_profile(11, seed=0)
    evaluator = SimulatorEvaluator(profile)
    for mix, seed in (((0, 3, 6, 9), 1), ((1, 4, 7, 10), 2)):
        wl, config = Workload(mix), GaConfig(seed=seed)
        assert ga_schedule(wl, profile, evaluator, config) == ga_by_loop(
            wl, profile, evaluator, config
        )


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(elitism=50, population=10)
    with pytest.raises(ValueError):
        GaConfig(mutation_rate=1.5)
    with pytest.raises(ValueError, match="stage_limit"):
        GaConfig(stage_limit=0)
