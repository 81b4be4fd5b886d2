"""Search-state machine and the budgeted tree search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeboost.evaluators import SimulatorEvaluator
from pipeboost.mcts import (
    MctsConfig,
    actions,
    apply,
    evaluate_terminal,
    initial_state,
    rollout,
    schedule,
)
from pipeboost.simulator import (
    exhaustive_best,
    random_mapping_rng,
    simulate,
    stage_count,
    validate_mapping,
)
from pipeboost.workload import Workload, generate_profile


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


def test_rollout_reaches_terminal_and_is_seeded(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    t1, moves1 = rollout(s, random.Random(3), CFG)
    t2, moves2 = rollout(s, random.Random(3), CFG)
    assert moves1 == moves2
    validate_mapping(t1.mapping(), tiny_profile, Workload((0, 1)))


def test_rollout_only_takes_legal_actions(tiny_profile):
    rng = random.Random(9)
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    for _ in range(200):
        t, _ = rollout(s, rng, CFG)
        assert t.cursor is None
        assert all(c <= CFG.stage_limit for c in t.stage_counts)


def test_rollout_depth_cap_finishes_greedily(tiny_profile):
    cfg = MctsConfig(budget=1, max_depth=2, seed=0)
    s = initial_state(Workload((0, 1)), tiny_profile, cfg)
    t, moves = rollout(s, random.Random(0), cfg)
    assert t.cursor is None
    # past the cap each layer repeats the previous unit: no new stages
    for a in t.assignments:
        assert stage_count(a) <= 2


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


@pytest.mark.parametrize(
    "cfg",
    [
        MctsConfig(seed=0),
        MctsConfig(max_depth=3, seed=0),  # the greedy fill runs
        MctsConfig(max_depth=1, stage_limit=1, seed=0),
        MctsConfig(stage_limit=2, seed=0),  # the limit binds mid-model at full depth
    ],
)
def test_rollout_equals_step_by_step_reference(gen_profile, cfg):
    walker = random.Random(17)
    for trial in range(60):
        size = walker.randint(1, 4)
        wl = Workload(tuple(walker.sample(range(len(gen_profile.models)), size)))
        s = initial_state(wl, gen_profile, cfg)
        # start at the root, or part-way, often with the cursor inside a model
        for _ in range(walker.choice([0, 1, 2, 5, 9, 14])):
            nxt = apply(s, walker.choice(actions(s)))
            if nxt.cursor is None:
                break
            s = nxt
        rng_new, rng_ref = random.Random(trial), random.Random(trial)
        got = rollout(s, rng_new, cfg)
        want = rollout_by_steps(s, rng_ref, cfg)
        assert got == want
        assert rng_new.getstate() == rng_ref.getstate()  # same draws, same count


def test_evaluate_terminal(tiny_profile):
    ev = SimulatorEvaluator(tiny_profile)
    done = walk(initial_state(Workload((0,)), tiny_profile, CFG), [0, 0, 0])
    assert evaluate_terminal(done, ev) == 1.0 + ev.score(done.workload, done.mapping())
    in_prog = initial_state(Workload((0,)), tiny_profile, CFG)
    with pytest.raises(ValueError):
        evaluate_terminal(in_prog, ev)


# ------------------------------------------------------------- end to end

def test_schedule_returns_valid_mapping(gen_profile):
    wl = Workload((1, 4))
    ev = SimulatorEvaluator(gen_profile)
    mapping, stats = schedule(wl, gen_profile, ev, MctsConfig(budget=200, seed=5))
    validate_mapping(mapping, gen_profile, wl)
    for a in mapping.assignments:
        assert stage_count(a) <= 3
    assert stats["iterations"] == 200
    assert stats["best_reward"] >= 1.0
    assert stats["elapsed_ms"] > 0


def test_schedule_deterministic_per_seed(gen_profile):
    wl = Workload((0, 2))
    ev = SimulatorEvaluator(gen_profile)
    m1, _ = schedule(wl, gen_profile, ev, MctsConfig(budget=120, seed=9))
    m2, _ = schedule(wl, gen_profile, ev, MctsConfig(budget=120, seed=9))
    assert m1 == m2


def test_schedule_rejects_empty(gen_profile):
    with pytest.raises(ValueError):
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
    assert all(stage_count(a) <= stage_limit for a in mapping.assignments)
    assert stats["iterations"] == budget
