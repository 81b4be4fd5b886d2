import random

import numpy as np
import pytest

from pipeboost.baselines import gpu_only
from pipeboost.errors import MappingError
from pipeboost.estimator import EstimatorNet
from pipeboost.evaluators import EstimatorEvaluator, SimulatorEvaluator
from pipeboost.simulator import Mapping, random_mapping_rng, simulate
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


def test_simulator_evaluator_batch_checks_each_model_length(tiny_profile):
    ev = SimulatorEvaluator(tiny_profile)
    wl = Workload((0, 1))  # 3 + 2 layers
    good = Mapping(((0, 1, 2), (1, 1)))
    swapped = Mapping(((0, 1), (2, 1, 1)))  # the same 5 units when joined
    for bad in (swapped, Mapping(((0, 1, 2, 1, 1),)), Mapping(((0, 1, 2), (1, 3)))):
        with pytest.raises(MappingError):
            ev.score_batch(wl, [good, bad])


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
