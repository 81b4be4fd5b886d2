import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeboost import mcts
from pipeboost.baselines import fit_linreg, ga_schedule, gpu_only, mosaic_schedule, random_best
from pipeboost.embedding import build_embedding, mapped_input
from pipeboost.errors import MappingError
from pipeboost.estimator import EstimatorNet
from pipeboost.evaluators import EstimatorEvaluator, SimulatorEvaluator
from pipeboost.simulator import (
    Mapping, _avg_throughput, exhaustive_best, random_mapping_rng, simulate, validate_mapping,
)
from pipeboost.workload import Workload


def test_simulator_evaluator_monotone_in_throughput(gen_profile):
    ev = SimulatorEvaluator(gen_profile)
    wl = Workload((0, 4))
    maps = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)) for i in range(12)]
    ts = [simulate(wl, m, gen_profile).avg_throughput for m in maps]
    scores = [ev.score_ids(wl, m.assignments) for m in maps]
    # same ordering
    assert sorted(range(12), key=ts.__getitem__) == sorted(
        range(12), key=scores.__getitem__
    )
    assert all(0.0 < s < 1.0 for s in scores)


def test_simulator_evaluator_reference_point(gen_profile):
    # the all-GPU mapping scores exactly 1/2 by construction
    ev = SimulatorEvaluator(gen_profile)
    wl = Workload((1, 2))
    assert ev.score_ids(wl, gpu_only(wl, gen_profile).assignments) == pytest.approx(0.5)


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_score_batch_of_no_mappings_is_empty(gen_profile, quick_net, kind):
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    out = ev.score_rows(Workload((3, 5)), [])
    assert out.shape == (0,) and out.dtype == np.float64


def test_simulator_evaluator_batch_checks_each_model_length(tiny_profile):
    # A batch row is the mapping's per-model tuples, which the evaluators
    # score unchecked: they read each model's tuple but check no length. So a
    # 2 + 3 split of the good 3 + 2 mapping's five ids is refused on the
    # mapping, by `validate_mapping` and the checked entries that run it.
    ev = SimulatorEvaluator(tiny_profile)
    wl = Workload((0, 1))  # 3 + 2 layers
    good = Mapping(((0, 1, 2), (1, 1)))
    swapped = Mapping(((0, 1), (2, 1, 1)))  # the same 5 units when joined
    want = ev.score_ids(wl, good.assignments)
    assert ev.score_rows(wl, [good.assignments]).tolist() == [want]
    validate_mapping(good, tiny_profile, wl)
    embedding = build_embedding(tiny_profile)
    for bad in (swapped, Mapping(((0, 1, 2, 1, 1),)), Mapping(((0, 1, 2), (1, 3)))):
        with pytest.raises(MappingError):
            validate_mapping(bad, tiny_profile, wl)
        with pytest.raises(MappingError):
            simulate(wl, bad, tiny_profile)
        with pytest.raises(MappingError):
            mapped_input(embedding, wl, bad, tiny_profile)


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_evaluators_refuse_an_empty_workload(gen_profile, quick_net, kind):
    # the evaluators score unchecked ids; the searches that call them refuse
    # an empty mix before the first score
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    with pytest.raises(MappingError, match="^workload has no models$"):
        ga_schedule(Workload(()), gen_profile, ev)
    with pytest.raises(MappingError, match="^workload has no models$"):
        mcts.schedule(Workload(()), gen_profile, ev)


@pytest.mark.parametrize(
    "entry",
    [
        lambda p: gpu_only(Workload(()), p),
        lambda p: random_best(Workload(()), p, n=3),
        lambda p: mosaic_schedule(Workload(()), p, fit_linreg(p)),
        lambda p: ga_schedule(Workload(()), p, SimulatorEvaluator(p)),
        lambda p: mcts.schedule(Workload(()), p, SimulatorEvaluator(p)),
        lambda p: exhaustive_best(Workload(()), p, 3),
        lambda p: simulate(Workload(()), Mapping(()), p),
        lambda p: mapped_input(build_embedding(p), Workload(()), Mapping(()), p),
    ],
    ids=[
        "gpu_only", "random_best", "mosaic_schedule", "ga_schedule", "mcts.schedule",
        "exhaustive_best", "simulate", "mapped_input",
    ],
)
def test_every_entry_refuses_an_empty_mix(gen_profile, entry):
    # one refusal, `Workload.validate_for`'s, for every entry that takes a mix
    with pytest.raises(MappingError, match="^workload has no models$"):
        entry(gen_profile)


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["models", "layers", "range", 1.0, 1.5, "1", True, np.int64(1)]),
)
def test_every_entry_gives_a_mapping_one_answer(gen_profile, rng, change):
    # a valid mapping changed in one way: every checked entry accepts it, and
    # the scoring core then gives simulate's throughput, or every checked
    # entry raises the same MappingError
    wl = Workload(tuple(rng.sample(range(len(gen_profile.models)), rng.randint(1, 4))))
    valid = random_mapping_rng(wl, gen_profile, 3, rng)
    rows = [list(a) for a in valid.assignments]
    pos = rng.randrange(len(rows))
    if change == "models":  # drop or repeat one model's row
        rows[pos:pos + 1] = [] if rng.random() < 0.5 else [rows[pos]] * 2
    elif change == "layers":  # drop or repeat its last layer
        rows[pos][-1:] = [] if rng.random() < 0.5 else rows[pos][-1:] * 2
    else:
        n = gen_profile.num_units
        bad = rng.choice([-1, n, n + 1]) if change == "range" else change
        rows[pos][rng.randrange(len(rows[pos]))] = bad
    mapping = Mapping(tuple(map(tuple, rows)))
    emb = build_embedding(gen_profile)
    entries = {
        "validate_mapping": lambda: validate_mapping(mapping, gen_profile, wl),
        "simulate": lambda: simulate(wl, mapping, gen_profile).avg_throughput,
        "mapped_input": lambda: mapped_input(emb, wl, mapping, gen_profile),
    }
    answers, errors = {}, {}
    for name, entry in entries.items():
        try:
            answers[name] = entry()
        except MappingError as e:
            errors[name] = str(e)
    if errors:
        assert len(errors) == len(entries) and len(set(errors.values())) == 1, errors
    else:
        assert _avg_throughput(wl, mapping.assignments, gen_profile, {}) == answers["simulate"]


@pytest.fixture(scope="module")
def shared_sim(gen_profile):
    """One simulator evaluator for every example of a hypothesis test, so its
    memo meets new mixes, mixes again and repeated rows."""
    return SimulatorEvaluator(gen_profile)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 8))
def test_scores_equal_independent_references(gen_profile, quick_net, shared_sim, rng, limit, n):
    # score_ids and score_rows on mappings' per-model tuples of legal unit
    # ids, as the searches call them, equal references that share no scoring
    # code with them, whatever the evaluator's memo already holds: T / (T + T_gpu) from
    # `simulate`, and the net's clamped mean over the stacked `mapped_input`s
    wl = Workload(tuple(rng.sample(range(len(gen_profile.models)), rng.randint(1, 5))))
    maps = [random_mapping_rng(wl, gen_profile, limit, rng) for _ in range(n)]
    maps += rng.sample(maps, rng.randint(0, n))  # repeated rows
    rows = [m.assignments for m in maps]
    ts = [simulate(wl, m, gen_profile).avg_throughput for m in maps]
    ref = simulate(wl, gpu_only(wl, gen_profile), gen_profile).avg_throughput
    est = EstimatorEvaluator(quick_net, gen_profile)
    xs = np.stack([mapped_input(est.embedding, wl, m, gen_profile) for m in maps])
    for ev, want in (
        (shared_sim, [t / (t + ref) for t in ts]),
        (SimulatorEvaluator(gen_profile), [t / (t + ref) for t in ts]),
        (est, np.clip(quick_net.forward(xs), 0.0, 1.0).mean(axis=1).tolist()),
    ):
        assert [ev.score_ids(wl, r) for r in rows] == want
        assert ev.score_rows(wl, rows).tolist() == want
    memo = {}
    assert [_avg_throughput(wl, r, gen_profile, memo) for r in rows] == ts
    assert [_avg_throughput(wl, r, gen_profile, memo) for r in rows] == ts  # every walk a hit


def test_one_evaluator_holds_one_mix(gen_profile):
    # mix A, then B, then A again through one evaluator: the floats of fresh
    # evaluators, bit for bit, and after B only B's walks are kept
    a, b = Workload((0, 4, 5)), Workload((4, 2))  # model 4 in both, at other positions
    rng = random.Random(19)
    maps = {wl: [random_mapping_rng(wl, gen_profile, 3, rng) for _ in range(30)] for wl in (a, b)}
    rows = {wl: [m.assignments for m in ms] for wl, ms in maps.items()}
    want = {wl: SimulatorEvaluator(gen_profile).score_rows(wl, rs) for wl, rs in rows.items()}
    ev = SimulatorEvaluator(gen_profile)
    for wl in (a, b, a):
        assert [ev.score_ids(wl, r) for r in rows[wl]] == want[wl].tolist()
        assert np.array_equal(ev.score_rows(wl, rows[wl]), want[wl])
        keys = {(i, ids) for m in maps[wl] for i, ids in zip(wl.model_indices, m.assignments)}
        assert ev._workload == wl and set(ev._memo) == keys


def test_estimator_evaluator_requires_training(gen_profile):
    net = EstimatorNet.new((3, 6, gen_profile.max_layers), seed=0)
    with pytest.raises(ValueError):
        EstimatorEvaluator(net, gen_profile)


def test_estimator_evaluator_score_range_and_batch(gen_profile, quick_net):
    ev = EstimatorEvaluator(quick_net, gen_profile)
    wl = Workload((2, 4))
    rows = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)).assignments for i in range(6)]
    scores = [ev.score_ids(wl, r) for r in rows]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert np.array_equal(ev.score_rows(wl, rows), scores)


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_score_batch_equals_score(gen_profile, quick_net, kind):
    # the GA scores rows in batches and MCTS one at a time: both must see the
    # same floats. 17 rows leave the net a one-row last block
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    wl = Workload((1, 3, 5))
    rows = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)).assignments for i in range(17)]
    assert np.array_equal(ev.score_rows(wl, rows), [ev.score_ids(wl, r) for r in rows])


@pytest.mark.parametrize("cls", [EstimatorEvaluator, SimulatorEvaluator])
def test_each_evaluator_has_one_scoring_protocol(cls):
    # unchecked ids everywhere; a mapping is checked at the boundary instead
    public = {name for name, value in vars(cls).items() if callable(value) and name[0] != "_"}
    assert public == {"score_ids", "score_rows"}
