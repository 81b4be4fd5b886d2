"""Search-state machine and the budgeted tree search."""

import random

import pytest

import pipeboost as pb
from pipeboost.evaluators import SimulatorEvaluator
from pipeboost.mcts import (
    MctsConfig,
    SearchState,
    Status,
    actions,
    apply,
    evaluate_terminal,
    initial_state,
    rollout,
    schedule,
)
from pipeboost.simulator import exhaustive_best, simulate, stage_count, validate_mapping
from pipeboost.workload import Workload


CFG = MctsConfig(budget=50, seed=0)


def walk(state, moves):
    for a in moves:
        state = apply(state, a)
    return state


def test_initial_state(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    assert s.status is Status.IN_PROGRESS
    assert s.cursor == (0, 0)
    assert s.stage_counts == (0, 0)
    assert s.assignments == ((), ())


def test_win_path(tiny_profile):
    s = walk(initial_state(Workload((0, 1)), tiny_profile, CFG), [0, 0, 1, 2, 2])
    assert s.status is Status.WIN
    assert s.mapping().assignments == ((0, 0, 1), (2, 2))
    assert s.stage_counts == (2, 1)


def test_cursor_advances_model_by_model(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    s = walk(s, [1, 1, 1])  # all of mA
    assert s.cursor == (1, 0)
    assert s.status is Status.IN_PROGRESS
    s = walk(s, [0])
    assert s.cursor == (1, 1)


def test_lose_on_stage_limit(tiny_profile):
    cfg = MctsConfig(budget=1, stage_limit=2, seed=0)
    s = initial_state(Workload((0,)), tiny_profile, cfg)
    s = walk(s, [0, 1])  # two stages used
    # third distinct unit would be stage 3 > 2: apply is lenient, state loses
    s2 = apply(s, 2)
    assert s2.status is Status.LOSE
    with pytest.raises(ValueError):
        s2.mapping()
    # while continuing on the same unit stays alive
    s3 = apply(s, 1)
    assert s3.status is Status.WIN


def test_actions_exclude_limit_breakers(tiny_profile):
    cfg = MctsConfig(budget=1, stage_limit=2, seed=0)
    s = walk(initial_state(Workload((0,)), tiny_profile, cfg), [0, 1])
    assert actions(s) == [1]  # only staying on unit 1 is safe
    s_fresh = initial_state(Workload((0,)), tiny_profile, cfg)
    assert actions(s_fresh) == [0, 1, 2]


def test_actions_per_mix_budget(tiny_profile):
    cfg = MctsConfig(budget=1, stage_limit=3, per_mix_limit=True, seed=0)
    s = initial_state(Workload((0, 1)), tiny_profile, cfg)
    s = walk(s, [0, 1, 2])  # mA uses all three stages of the shared budget
    assert s.status is Status.IN_PROGRESS
    assert s.cursor == (1, 0)
    # mB's first layer necessarily opens a new stage -> no legal action
    assert actions(s) == []


def test_apply_rejects_terminal_and_bad_unit(tiny_profile):
    s = initial_state(Workload((0,)), tiny_profile, CFG)
    with pytest.raises(ValueError):
        apply(s, 3)
    done = walk(s, [0, 0, 0])
    assert done.status is Status.WIN
    with pytest.raises(ValueError):
        apply(done, 0)
    with pytest.raises(ValueError):
        actions(done)


def test_rollout_reaches_terminal_and_is_seeded(tiny_profile):
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    t1, moves1 = rollout(s, random.Random(3), CFG)
    t2, moves2 = rollout(s, random.Random(3), CFG)
    assert moves1 == moves2
    assert t1.status in (Status.WIN, Status.LOSE)
    if t1.status is Status.WIN:
        validate_mapping(t1.mapping(), tiny_profile, Workload((0, 1)))


def test_rollout_only_takes_legal_actions(tiny_profile):
    # with the per-model limit, every rollout from the root stays legal,
    # so terminals are always wins
    rng = random.Random(9)
    s = initial_state(Workload((0, 1)), tiny_profile, CFG)
    for _ in range(200):
        t, _ = rollout(s, rng, CFG)
        assert t.status is Status.WIN
        assert all(c <= CFG.stage_limit for c in t.stage_counts)


def test_rollout_depth_cap_finishes_greedily(tiny_profile):
    cfg = MctsConfig(budget=1, max_depth=2, seed=0)
    s = initial_state(Workload((0, 1)), tiny_profile, cfg)
    t, moves = rollout(s, random.Random(0), cfg)
    assert t.status is Status.WIN
    # past the cap each layer repeats the previous unit: no new stages
    for a in t.assignments:
        assert stage_count(a) <= 2


def rollout_by_steps(state, rng, config):
    """The rollout as a loop of `actions` and `apply`: the reference for `rollout`."""
    taken = []
    s = state
    while s.status is Status.IN_PROGRESS and len(taken) < config.max_depth:
        legal = actions(s)
        a = rng.choice(legal) if legal else 0
        s = apply(s, a)
        taken.append(a)
    while s.status is Status.IN_PROGRESS:
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
        MctsConfig(per_mix_limit=True, seed=0),  # rollouts can lose
        MctsConfig(max_depth=4, stage_limit=5, per_mix_limit=True, seed=0),
    ],
)
def test_rollout_equals_step_by_step_reference(gen_profile, cfg):
    walker = random.Random(17)
    statuses = set()
    for trial in range(60):
        size = walker.randint(1, 4)
        wl = Workload(tuple(walker.sample(range(len(gen_profile.models)), size)))
        s = initial_state(wl, gen_profile, cfg)
        # start at the root, or part-way, often with the cursor inside a model
        for _ in range(walker.choice([0, 1, 2, 5, 9, 14])):
            legal = actions(s)
            if not legal:
                break
            nxt = apply(s, walker.choice(legal))
            if nxt.status is not Status.IN_PROGRESS:
                break
            s = nxt
        rng_new, rng_ref = random.Random(trial), random.Random(trial)
        got = rollout(s, rng_new, cfg)
        want = rollout_by_steps(s, rng_ref, cfg)
        assert got == want
        assert rng_new.getstate() == rng_ref.getstate()  # same draws, same count
        statuses.add(got[0].status)
    if cfg.per_mix_limit:
        assert statuses == {Status.WIN, Status.LOSE}
    else:
        assert statuses == {Status.WIN}


def test_evaluate_terminal(tiny_profile):
    ev = SimulatorEvaluator(tiny_profile)
    cfg = MctsConfig(budget=1, seed=0, win_bonus=1.0, lose_reward=0.0)
    win = walk(initial_state(Workload((0,)), tiny_profile, cfg), [0, 0, 0])
    r = evaluate_terminal(win, ev, cfg)
    assert 1.0 <= r <= 2.0  # bonus + score in [0,1]
    lose_cfg = MctsConfig(budget=1, stage_limit=1, seed=0)
    lose = walk(initial_state(Workload((0,)), tiny_profile, lose_cfg), [0, 1])
    assert evaluate_terminal(lose, ev, lose_cfg) == 0.0
    in_prog = initial_state(Workload((0,)), tiny_profile, cfg)
    with pytest.raises(ValueError):
        evaluate_terminal(in_prog, ev, cfg)


# ------------------------------------------------------------- end to end

def test_schedule_returns_valid_mapping(gen_profile):
    wl = Workload((1, 4))
    ev = SimulatorEvaluator(gen_profile)
    mapping, stats = schedule(wl, gen_profile, ev, MctsConfig(budget=200, seed=5))
    validate_mapping(mapping, gen_profile, wl)
    for a in mapping.assignments:
        assert stage_count(a) <= 3
    assert stats["wins"] + stats["losses"] == stats["iterations"] == 200
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
        simulate(wl, pb.random_mapping(wl, gen_profile, max_stages=3, seed=i), gen_profile).avg_throughput
        for i in range(51)
    )
    assert got > ts[25]
