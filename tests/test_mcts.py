"""Search-state machine and the budgeted tree search."""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeboost.baselines import (
    GaConfig,
    fit_linreg,
    ga_schedule,
    gpu_only,
    mosaic_schedule,
    random_best,
)
from pipeboost.errors import MappingError
from pipeboost.estimator import EstimatorNet, TargetStats
from pipeboost.evaluators import EstimatorEvaluator, SimulatorEvaluator
from pipeboost.mcts import (
    UCT_C,
    MctsConfig,
    actions,
    apply,
    initial_state,
    legal_units,
    rollout,
    schedule,
)
from pipeboost.simulator import (
    Mapping,
    count_assignments,
    exhaustive_best,
    random_mapping_rng,
    simulate,
    stage_bounds,
    validate_mapping,
)
from pipeboost.workload import (
    ComputeUnit,
    GeneratorConfig,
    UnitKind,
    Workload,
    generate_profile,
)


CFG = MctsConfig(budget=50, seed=0)


def walk(state, moves):
    for a in moves:
        state = apply(state, a)
    return state


def test_initial_state(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    assert s.cursor == (0, 0)
    assert s.stage_counts == (0, 0)
    assert s.assignments == ((), ())


def test_win_path(tiny_profile):
    s = walk(initial_state(Workload((0, 1)), tiny_profile, CFG), [0, 0, 1, 2, 2])
    assert s.cursor is None
    assert s.mapping().assignments == ((0, 0, 1), (2, 2))
    assert s.stage_counts == (2, 1)


def test_cursor_advances_model_by_model(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    s = walk(s, [1, 1, 1])  # all of mA
    assert s.cursor == (1, 0)
    with pytest.raises(ValueError):
        s.mapping()
    s = walk(s, [0])
    assert s.cursor == (1, 1)


def test_actions_exclude_limit_breakers(tiny_profile):
    cfg = MctsConfig(budget=1, stage_limit=2, seed=0)
    s = walk(initial_state(Workload((0,)), tiny_profile, cfg), [0, 1])
    assert actions(s) == [1]  # only staying on unit 1 is safe
    s_fresh = initial_state(Workload((0,)), tiny_profile, cfg)
    assert actions(s_fresh) == [0, 1, 2]


def test_apply_rejects_terminal_and_bad_unit(tiny_profile):
    s = initial_state(Workload((0,)), tiny_profile, CFG)
    with pytest.raises(ValueError):
        apply(s, 3)
    done = walk(s, [0, 0, 0])
    assert done.cursor is None
    with pytest.raises(ValueError):
        apply(done, 0)
    with pytest.raises(ValueError):
        actions(done)


def test_apply_rejects_units_outside_actions(tiny_profile):
    cfg = MctsConfig(budget=1, stage_limit=2, seed=0)
    s = walk(initial_state(Workload((0,)), tiny_profile, cfg), [0, 1])
    with pytest.raises(ValueError, match="over the limit"):
        apply(s, 2)  # a third stage on a 2-stage limit
    for unit in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            apply(s, unit)
    assert apply(s, 1).mapping().assignments == ((0, 1, 1),)
    # a new model's first layer opens its own stage whatever the unit
    fresh = walk(initial_state(Workload((0, 1)), tiny_profile, cfg), [0, 1, 1])
    assert [apply(fresh, u).stage_counts for u in actions(fresh)] == [(2, 1)] * 3


def flat_rollout(state, rng, config):
    """`rollout` from `state`, given as the flat path `schedule` builds: its
    units in mix order and the stages of the last unit's model. Returns the
    complete mapping and the moves taken."""
    ends = list(itertools.accumulate(state.layer_counts))
    spans = list(zip([0] + ends, ends))
    units = [u for a in state.assignments for u in a]
    used = next((c for a, c in zip(state.assignments[::-1], state.stage_counts[::-1]) if a), 0)
    legal = legal_units(state.num_units, state.stage_limit, max(state.layer_counts))
    taken = rollout(units, used, spans, legal, rng, config)
    return Mapping(tuple(tuple(units[s:e]) for s, e in spans)), taken


def test_rollout_reaches_terminal_and_is_seeded(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    t1, moves1 = flat_rollout(s, random.Random(3), CFG)
    t2, moves2 = flat_rollout(s, random.Random(3), CFG)
    assert moves1 == moves2 and t1 == t2
    assert [u for a in t1.assignments for u in a] == moves1
    validate_mapping(t1, tiny_profile, Workload((0, 1)))


def test_rollout_only_takes_legal_actions(tiny_profile):
    rng = random.Random(9)
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    for _ in range(200):
        t, _ = flat_rollout(s, rng, CFG)
        validate_mapping(t, tiny_profile, Workload((0, 1)))
        assert all(len(stage_bounds(a)) <= CFG.stage_limit for a in t.assignments)


def test_rollout_depth_cap_finishes_greedily(tiny_profile):
    cfg = MctsConfig(budget=1, max_depth=2, seed=0)
    s = initial_state(Workload((0, 1)), tiny_profile, cfg)
    t, moves = flat_rollout(s, random.Random(0), cfg)
    assert len(moves) == 5
    # past the cap each layer repeats the previous unit: no new stages
    for a in t.assignments:
        assert len(stage_bounds(a)) <= 2


def rollout_by_steps(state, rng, config):
    """The rollout as a loop of `actions` and `apply`: the reference for `rollout`."""
    taken = []
    s = state
    while s.cursor is not None and len(taken) < config.max_depth:
        a = rng.choice(actions(s))
        s = apply(s, a)
        taken.append(a)
    while s.cursor is not None:
        m, l = s.cursor
        a = s.assignments[m][l - 1] if l > 0 else 0
        s = apply(s, a)
        taken.append(a)
    return s, taken


class _StateNode:
    __slots__ = ("state", "parent", "children", "untried", "visits", "value")

    def __init__(self, state, parent=None):
        self.state = state
        self.parent = parent
        self.children = []
        self.untried = actions(state) if state.cursor is not None else []
        self.visits = 0
        self.value = 0.0


def _uct_child(node):
    best, best_score = None, -math.inf
    log_n = math.log(node.visits)
    for child in node.children:
        score = child.value / child.visits + UCT_C * math.sqrt(log_n / child.visits)
        if score > best_score:
            best, best_score = child, score
    return best


def schedule_by_states(workload, profile, evaluator, config):
    """The search with one `SearchState` per tree node, `apply` per expansion
    and `rollout_by_steps` per iteration: the reference for `schedule`."""
    rng = random.Random(config.seed)
    root = _StateNode(initial_state(workload, profile, config))
    best_reward, best_mapping = -math.inf, None
    for _ in range(config.budget):
        node = root
        while node.state.cursor is not None and not node.untried:
            node = _uct_child(node)
        if node.untried:
            child = _StateNode(apply(node.state, node.untried.pop(0)), parent=node)
            node.children.append(child)
            node = child
        terminal, _ = rollout_by_steps(node.state, rng, config)
        reward = 1.0 + evaluator.score_ids(workload, terminal.mapping().assignments)
        if reward > best_reward:
            best_reward, best_mapping = reward, terminal.mapping()
        while node is not None:
            node.visits += 1
            node.value += reward
            node = node.parent
    return best_mapping, {"iterations": config.budget, "best_reward": best_reward}


class ConstantEvaluator:
    """Every mapping scores 0.5, so every reward ties and UCT's first-max
    rule alone picks the path."""

    def score_ids(self, workload, assignments):
        return 0.5


class Recorder:
    """An evaluator that keeps every mapping it scores, in order, as its
    per-model unit tuples: the search's whole trace of terminal mappings,
    which shows a changed path even when the best mapping stays the same."""

    def __init__(self, inner):
        self.inner, self.scored = inner, []

    def score_ids(self, workload, assignments):
        self.scored.append(assignments)
        return self.inner.score_ids(workload, assignments)


def _evaluator(kind, profile):
    if kind == "simulator":
        return Recorder(SimulatorEvaluator(profile))
    if kind == "constant":
        return Recorder(ConstantEvaluator())
    # a small random net whose head bias keeps its outputs off the clip bounds
    net = EstimatorNet.new((profile.num_units, len(profile.models), profile.max_layers), seed=1)
    net.params["fc.b"][:] = 0.5
    net.target_stats = TargetStats.from_floats([0.0] * 12)
    return Recorder(EstimatorEvaluator(net, profile))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 9),
    st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True),
    st.integers(1, 400),
    st.integers(1, 100),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["simulator", "estimator", "constant"]),
)
def test_schedule_equals_state_by_state_reference(
    profile_seed, mix, budget, max_depth, stage_limit, seed, kind
):
    profile = generate_profile(6, seed=profile_seed)
    wl = Workload(tuple(mix))
    cfg = MctsConfig(budget=budget, max_depth=max_depth, stage_limit=stage_limit, seed=seed)
    got_ev, want_ev = _evaluator(kind, profile), _evaluator(kind, profile)
    got_mapping, got = schedule(wl, profile, got_ev, cfg)
    want_mapping, want = schedule_by_states(wl, profile, want_ev, cfg)
    assert got_mapping == want_mapping
    assert (got["best_reward"], got["iterations"]) == (want["best_reward"], want["iterations"])
    assert got_ev.scored == want_ev.scored  # the same rollout on every iteration


@pytest.mark.parametrize(
    "cfg",
    [
        MctsConfig(seed=0),
        MctsConfig(max_depth=3, seed=0),  # the greedy fill runs
        MctsConfig(max_depth=1, stage_limit=1, seed=0),
        MctsConfig(stage_limit=2, seed=0),  # the limit binds mid-model at full depth
        # past a model's first layer every layer is forced: max_depth ends in a forced tail
        MctsConfig(max_depth=7, stage_limit=1, seed=0),
        MctsConfig(max_depth=12, stage_limit=3, seed=0),
        MctsConfig(max_depth=20, stage_limit=4, seed=0),
    ],
)
def test_rollout_equals_step_by_step_reference(gen_profile, cfg):
    # 1 to 4 units: with one unit every layer is forced, from a model's first
    profiles = [
        replace(gen_profile, units=tuple(ComputeUnit(u, f"u{u}", UnitKind.BIG) for u in range(n)))
        for n in (1, 2, 3, 4)
    ]
    walker, at_limit = random.Random(17), 0
    for trial in range(60):
        profile = walker.choice(profiles)
        size = walker.randint(1, 4)
        wl = Workload(tuple(walker.sample(range(len(profile.models)), size)))
        s = initial_state(wl, profile, cfg)
        # start at the root, or part-way, often with the cursor inside a model;
        # a path that opens a stage whenever it may fills its model to the limit
        fresh = walker.random() < 0.5
        for _ in range(walker.choice([0, 1, 2, 5, 9, 14])):
            opts = actions(s)
            m, l = s.cursor
            new = [u for u in opts if l == 0 or u != s.assignments[m][-1]]
            nxt = apply(s, walker.choice(new if fresh and new else opts))
            if nxt.cursor is None:
                break
            s = nxt
        m, l = s.cursor
        at_limit += l > 0 and s.stage_counts[m] == cfg.stage_limit
        rng_new, rng_ref = random.Random(trial), random.Random(trial)
        got_mapping, got_moves = flat_rollout(s, rng_new, cfg)
        want, want_moves = rollout_by_steps(s, rng_ref, cfg)
        assert (got_mapping, got_moves) == (want.mapping(), want_moves)
        assert rng_new.getstate() == rng_ref.getstate()  # same draws, same count
    assert at_limit  # some rollouts start inside a forced tail


def test_legal_units_table_is_the_rule_of_actions(tiny_profile):
    for limit in (1, 2, 3, 5):
        cfg = MctsConfig(stage_limit=limit)
        legal = legal_units(tiny_profile.num_units, limit, 3)
        s = initial_state(Workload((0,)), tiny_profile, cfg)
        assert all(k == len(units).bit_length() for units, k in legal.values())
        assert list(legal[0, None][0]) == actions(s)
        for moves in itertools.product(range(3), repeat=2):
            t = s
            for a in moves:
                if a not in actions(t):
                    break
                t = apply(t, a)
                if t.cursor is not None:
                    assert list(legal[t.stage_counts[0], a][0]) == actions(t)


def test_simulator_score_of_a_walked_mapping(tiny_profile):
    # a complete state's mapping scores T / (T + T_ref) as the per-model
    # tuples the search rewards; an incomplete mapping is refused at the boundary
    ev = SimulatorEvaluator(tiny_profile)
    done = walk(initial_state(Workload((0,)), tiny_profile, CFG), [0, 0, 0])
    t = simulate(done.workload, done.mapping(), tiny_profile).avg_throughput
    ref = simulate(done.workload, gpu_only(done.workload, tiny_profile), tiny_profile).avg_throughput
    assert done.mapping() == Mapping(((0, 0, 0),))
    assert ev.score_ids(done.workload, ((0, 0, 0),)) == t / (t + ref)
    with pytest.raises(MappingError):
        validate_mapping(Mapping(((0, 0),)), tiny_profile, done.workload)


# ------------------------------------------------------------- end to end

def test_schedule_returns_valid_mapping(gen_profile):
    wl = Workload((1, 4))
    ev = SimulatorEvaluator(gen_profile)
    mapping, stats = schedule(wl, gen_profile, ev, MctsConfig(budget=200, seed=5))
    validate_mapping(mapping, gen_profile, wl)
    for a in mapping.assignments:
        assert len(stage_bounds(a)) <= 3
    assert stats["iterations"] == 200
    assert stats["best_reward"] >= 1.0
    assert stats["elapsed_ms"] > 0


def test_schedule_checks_the_mapping_it_returns(tiny_profile, monkeypatch):
    # the evaluators trust the search's unit ids; the mapping it returns is
    # checked once, so a bad table cannot leave the search unnoticed
    def only_a_bad_unit(num_units, stage_limit, max_layers):
        return {key: ((num_units,), 1) for key in legal_units(num_units + 1, stage_limit, max_layers)}

    monkeypatch.setattr("pipeboost.mcts.legal_units", only_a_bad_unit)
    with pytest.raises(MappingError, match="^unit id 3 out of range$"):
        schedule(Workload((0, 1)), tiny_profile, ConstantEvaluator(), MctsConfig(budget=20))


class StageCountEvaluator:
    """Scores unit ids, flat in mix order, by their stage count: more stages
    score higher."""

    def score_ids(self, workload, assignments):
        ids = list(itertools.chain.from_iterable(assignments))
        return len(stage_bounds(ids)) / len(ids)


def test_schedule_checks_the_stage_limit_of_the_mapping_it_returns(tiny_profile, monkeypatch):
    # a table that ignores the stage limit is caught at the boundary
    def no_stage_limit(num_units, stage_limit, max_layers):
        return legal_units(num_units, max_layers, max_layers)

    monkeypatch.setattr("pipeboost.mcts.legal_units", no_stage_limit)
    config = MctsConfig(budget=20, stage_limit=1)
    with pytest.raises(MappingError, match="^model 'mA': 3 stages, over the limit 1$"):
        schedule(Workload((0, 1)), tiny_profile, StageCountEvaluator(), config)


def test_schedule_deterministic_per_seed(gen_profile):
    wl = Workload((0, 2))
    ev = SimulatorEvaluator(gen_profile)
    m1, _ = schedule(wl, gen_profile, ev, MctsConfig(budget=120, seed=9))
    m2, _ = schedule(wl, gen_profile, ev, MctsConfig(budget=120, seed=9))
    assert m1 == m2


def test_schedule_rejects_empty(gen_profile):
    with pytest.raises(MappingError, match="^workload has no models$"):
        schedule(Workload(()), gen_profile, SimulatorEvaluator(gen_profile))


def test_schedule_near_optimal_on_tiny_space(tiny_profile):
    # 3+2 layers, 3 units: the whole space is enumerable, and a healthy
    # search with most of the space as budget should land within 5%
    wl = Workload((0, 1))
    _, best = exhaustive_best(wl, tiny_profile, max_stages=3)
    ev = SimulatorEvaluator(tiny_profile)
    mapping, _ = schedule(wl, tiny_profile, ev, MctsConfig(budget=400, seed=1))
    got = simulate(wl, mapping, tiny_profile).avg_throughput
    assert got >= 0.95 * best.avg_throughput


def test_schedule_beats_median_random(gen_profile):
    # the search should comfortably beat the median random mapping
    wl = Workload((0, 5))
    ev = SimulatorEvaluator(gen_profile)
    mapping, _ = schedule(wl, gen_profile, ev, MctsConfig(budget=300, seed=2))
    got = simulate(wl, mapping, gen_profile).avg_throughput
    ts = sorted(
        simulate(
            wl, random_mapping_rng(wl, gen_profile, 3, random.Random(i)), gen_profile
        ).avg_throughput
        for i in range(51)
    )
    assert got > ts[25]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    st.integers(1, 4),
    st.integers(1, 100),
    st.integers(1, 30),
)
def test_schedule_returns_a_mapping_within_the_stage_limit(
    seed, mix, stage_limit, max_depth, budget
):
    # every tree edge and rollout move is legal, so any budget finds a mapping
    profile = generate_profile(4, seed=seed)
    wl = Workload(tuple(mix))
    cfg = MctsConfig(budget=budget, max_depth=max_depth, stage_limit=stage_limit, seed=seed)
    mapping, stats = schedule(wl, profile, SimulatorEvaluator(profile), cfg)
    validate_mapping(mapping, profile, wl)
    assert all(len(stage_bounds(a)) <= stage_limit for a in mapping.assignments)
    assert stats["iterations"] == budget


def _tree_nodes(counts, num_units, stage_limit):
    """Nodes of the whole search tree of a mix whose models have `counts`
    layers: the root and every legal prefix of the flat layer list."""
    nodes, complete = 1, 1
    for n in counts:
        prefixes = sum(count_assignments(j, num_units, stage_limit) for j in range(1, n + 1))
        nodes += complete * prefixes
        complete *= count_assignments(n, num_units, stage_limit)
    return nodes


def test_tree_nodes_counts_every_prefix():
    # 3 + 2 layers, 3 units, one stage a model: 1 + 3 + 3 + 3 + 9 + 9 nodes
    assert _tree_nodes((3, 2), 3, 1) == 28


@pytest.mark.parametrize("stage_limit", [1, 2, 3])
def test_no_method_beats_the_oracle_and_a_full_tree_matches_it(stage_limit):
    # 40 tiny instances per stage limit, 120 in all: no search may score a
    # mapping above exhaustive_best's, and MCTS with three times its tree's
    # node count as budget (UCT revisits complete leaves before it has
    # expanded every node, so the node count alone falls short) finds it
    for seed in range(40):
        profile = generate_profile(3, seed, GeneratorConfig(layer_range=(1, 3)))
        wl = Workload(tuple(random.Random(seed).sample(range(3), 2)))
        best = exhaustive_best(wl, profile, stage_limit)[1].avg_throughput
        ev = SimulatorEvaluator(profile)
        found = {
            "random-best": random_best(wl, profile, max_stages=stage_limit, seed=seed)[0],
            "mosaic": mosaic_schedule(wl, profile, fit_linreg(profile), max_stages=stage_limit),
            "ga": ga_schedule(wl, profile, ev, GaConfig(stage_limit=stage_limit, seed=seed)),
            "mcts": schedule(wl, profile, ev, MctsConfig(stage_limit=stage_limit, seed=seed))[0],
        }
        for method, mapping in found.items():
            assert simulate(wl, mapping, profile).avg_throughput <= best, (seed, method)
        counts = [profile.models[i].num_layers for i in wl.model_indices]
        budget = 3 * _tree_nodes(counts, profile.num_units, stage_limit)
        cfg = MctsConfig(budget=budget, stage_limit=stage_limit, seed=seed)
        mapping, _ = schedule(wl, profile, ev, cfg)
        assert simulate(wl, mapping, profile).avg_throughput == best, seed
