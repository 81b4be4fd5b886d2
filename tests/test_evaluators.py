import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeboost.baselines import gpu_only
from pipeboost.embedding import mapped_inputs
from pipeboost.errors import MappingError
from pipeboost.estimator import EstimatorNet
from pipeboost.evaluators import EstimatorEvaluator, SimulatorEvaluator
from pipeboost.simulator import (
    Mapping, _avg_throughput, random_mapping_rng, simulate, simulate_batch, validate_mapping,
)
from pipeboost.workload import Workload


def test_simulator_evaluator_monotone_in_throughput(gen_profile):
    ev = SimulatorEvaluator(gen_profile)
    wl = Workload((0, 4))
    maps = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)) for i in range(12)]
    ts = [simulate(wl, m, gen_profile).avg_throughput for m in maps]
    scores = [ev.score(wl, m) for m in maps]
    # same ordering
    assert sorted(range(12), key=ts.__getitem__) == sorted(
        range(12), key=scores.__getitem__
    )
    assert all(0.0 < s < 1.0 for s in scores)


def test_simulator_evaluator_reference_point(gen_profile):
    # the all-GPU mapping scores exactly 1/2 by construction
    ev = SimulatorEvaluator(gen_profile)
    wl = Workload((1, 2))
    assert ev.score(wl, gpu_only(wl, gen_profile)) == pytest.approx(0.5)


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_score_batch_of_no_mappings_is_empty(gen_profile, quick_net, kind):
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    out = ev.score_batch(Workload((3, 5)), [])
    assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_evaluators_refuse_an_empty_workload(gen_profile, quick_net, kind):
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    with pytest.raises(MappingError, match="^workload has no models$"):
        ev.score(Workload(()), Mapping(()))
    with pytest.raises(MappingError, match="^workload has no models$"):
        ev.score_batch(Workload(()), [Mapping(())])


def test_simulator_evaluator_batch_checks_each_model_length(tiny_profile):
    ev = SimulatorEvaluator(tiny_profile)
    wl = Workload((0, 1))  # 3 + 2 layers
    good = Mapping(((0, 1, 2), (1, 1)))
    swapped = Mapping(((0, 1), (2, 1, 1)))  # the same 5 units when joined
    for bad in (swapped, Mapping(((0, 1, 2, 1, 1),)), Mapping(((0, 1, 2), (1, 3)))):
        with pytest.raises(MappingError):
            ev.score_batch(wl, [good, bad])


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["models", "layers", "range", 1.0, 1.5, "1", True, np.int64(1)]),
)
def test_every_entry_gives_a_mapping_one_answer(gen_profile, quick_net, rng, change):
    # a valid mapping changed in one way: every entry accepts it, with equal
    # throughputs, or every entry raises the same MappingError
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
    sim, est = SimulatorEvaluator(gen_profile), EstimatorEvaluator(quick_net, gen_profile)
    entries = {
        "validate_mapping": lambda: validate_mapping(mapping, gen_profile, wl),
        "simulate": lambda: simulate(wl, mapping, gen_profile).avg_throughput,
        "simulate_batch": lambda: simulate_batch(wl, [valid, mapping], gen_profile)[1],
        "mapped_inputs": lambda: mapped_inputs(est.embedding, wl, [valid, mapping], gen_profile),
        "sim.score": lambda: sim.score(wl, mapping),
        "sim.score_batch": lambda: sim.score_batch(wl, [valid, mapping]),
        "est.score": lambda: est.score(wl, mapping),
        "est.score_batch": lambda: est.score_batch(wl, [valid, mapping]),
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
        assert answers["simulate_batch"] == answers["simulate"]


@pytest.fixture(scope="module")
def shared_sim(gen_profile):
    """One simulator evaluator for every example of a hypothesis test, so its
    memo meets new mixes, mixes again and repeated rows."""
    return SimulatorEvaluator(gen_profile)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 8))
def test_unchecked_cores_equal_the_checked_entries(gen_profile, quick_net, shared_sim, rng, limit, n):
    # the searches score legal unit ids flat in mix order through
    # score_ids and score_rows: the same floats as score and score_batch,
    # whatever the evaluator's memo already holds
    wl = Workload(tuple(rng.sample(range(len(gen_profile.models)), rng.randint(1, 5))))
    maps = [random_mapping_rng(wl, gen_profile, limit, rng) for _ in range(n)]
    maps += rng.sample(maps, rng.randint(0, n))  # repeated rows
    rows = [[u for a in m.assignments for u in a] for m in maps]
    fresh = [SimulatorEvaluator(gen_profile).score(wl, m) for m in maps]
    for ev in (shared_sim, SimulatorEvaluator(gen_profile), EstimatorEvaluator(quick_net, gen_profile)):
        assert [ev.score_ids(wl, r) for r in rows] == [ev.score(wl, m) for m in maps]
        assert np.array_equal(ev.score_rows(wl, rows), ev.score_batch(wl, maps))
    assert [shared_sim.score_ids(wl, r) for r in rows] == fresh
    want = [simulate(wl, m, gen_profile).avg_throughput for m in maps]
    memo = {}
    assert [_avg_throughput(wl, r, gen_profile, memo) for r in rows] == want
    assert [_avg_throughput(wl, r, gen_profile, memo) for r in rows] == want  # every walk a hit
    assert np.array_equal(simulate_batch(wl, maps, gen_profile), want)


def test_one_evaluator_holds_one_mix(gen_profile):
    # mix A, then B, then A again through one evaluator: the floats of fresh
    # evaluators, bit for bit, and after B only B's walks are kept
    a, b = Workload((0, 4, 5)), Workload((4, 2))  # model 4 in both, at other positions
    rng = random.Random(19)
    maps = {wl: [random_mapping_rng(wl, gen_profile, 3, rng) for _ in range(30)] for wl in (a, b)}
    want = {wl: SimulatorEvaluator(gen_profile).score_batch(wl, ms) for wl, ms in maps.items()}
    ev = SimulatorEvaluator(gen_profile)
    for wl in (a, b, a):
        assert [ev.score(wl, m) for m in maps[wl]] == want[wl].tolist()
        assert np.array_equal(ev.score_batch(wl, maps[wl]), want[wl])
        keys = {(i, ids) for m in maps[wl] for i, ids in zip(wl.model_indices, m.assignments)}
        assert ev._workload == wl and set(ev._memo) == keys


def test_estimator_evaluator_requires_training(gen_profile):
    net = EstimatorNet.new((3, 6, gen_profile.max_layers), seed=0)
    with pytest.raises(ValueError):
        EstimatorEvaluator(net, gen_profile)


def test_estimator_evaluator_score_range_and_batch(gen_profile, quick_net):
    ev = EstimatorEvaluator(quick_net, gen_profile)
    wl = Workload((2, 4))
    maps = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)) for i in range(6)]
    scores = [ev.score(wl, m) for m in maps]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert np.array_equal(ev.score_batch(wl, maps), scores)


@pytest.mark.parametrize("kind", ["simulator", "estimator"])
def test_score_batch_equals_score(gen_profile, quick_net, kind):
    # the GA scores batches and MCTS one mapping at a time: both must see the
    # same floats. 17 mappings leave the net a one-row last block
    if kind == "simulator":
        ev = SimulatorEvaluator(gen_profile)
    else:
        ev = EstimatorEvaluator(quick_net, gen_profile)
    wl = Workload((1, 3, 5))
    maps = [random_mapping_rng(wl, gen_profile, 3, random.Random(i)) for i in range(17)]
    assert np.array_equal(ev.score_batch(wl, maps), [ev.score(wl, m) for m in maps])
