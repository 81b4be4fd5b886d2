"""Simulator tests.

The fuzz oracle below re-derives the throughput model from scratch
(groupby-based, numpy arithmetic) so that an error in the production
implementation cannot hide in a shared helper.
"""

import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeboost as pb
from pipeboost.errors import MappingError, SearchSpaceError
from pipeboost.simulator import (
    Mapping,
    _avg_throughput,
    count_assignments,
    exhaustive_best,
    iter_assignments,
    load_mapping,
    random_mapping_rng,
    randbelow,
    save_mapping,
    simulate,
    stage_bounds,
    stages_of,
    validate_mapping,
)
from pipeboost.workload import Workload, layer_cost


# ---------------------------------------------------------------- oracle

def oracle_simulate(workload, mapping, profile):
    """Independent re-derivation of the throughput model."""
    rates = []
    stage_lists = []
    for pos, mi in enumerate(workload.model_indices):
        model = profile.models[mi]
        groups = []
        for unit, run in itertools.groupby(
            range(model.num_layers), key=lambda l: mapping.assignments[pos][l]
        ):
            layers = list(run)
            groups.append((unit, sum(layer_cost(model.layers[l], unit) for l in layers)))
        eff = np.array(
            [c + (profile.transfer_ms if i else 0.0) for i, (_, c) in enumerate(groups)]
        )
        rates.append(1000.0 / eff.max())
        stage_lists.append((groups, eff))
    load = np.zeros(profile.num_units)
    for r, (groups, eff) in zip(rates, stage_lists):
        for (unit, _), e in zip(groups, eff):
            load[unit] += r * e / 1000.0
    theta = min(1.0, 1.0 / load.max())
    x = np.array(rates) * theta
    y = np.zeros(profile.num_units)
    for xm, (groups, _) in zip(x, stage_lists):
        for unit in set(u for u, _ in groups):
            y[unit] += xm
    return x, y, x.mean(), theta


# ------------------------------------------------------------ hand cases

def test_simulate_by_hand_pipelined(tiny_profile):
    # mA split (gpu,gpu | big), mB whole on little.
    # mA stages: 5ms then 2+1ms transfer -> rate 200/s
    # mB: 15ms -> rate 66.67/s; no unit oversubscribed -> theta = 1
    wl = Workload((0, 1))
    m = Mapping(((0, 0, 1), (2, 2)))
    rep = simulate(wl, m, tiny_profile)
    assert rep.theta == pytest.approx(1.0)
    assert rep.per_dnn_inf_s[0] == pytest.approx(200.0)
    assert rep.per_dnn_inf_s[1] == pytest.approx(1000.0 / 15.0)
    assert rep.avg_throughput == pytest.approx((200.0 + 1000.0 / 15.0) / 2)
    assert rep.per_unit_inf_s == pytest.approx((200.0, 200.0, 1000.0 / 15.0))
    assert rep.unit_utilization == pytest.approx((1.0, 0.6, 1.0))


def test_simulate_by_hand_contended(tiny_profile):
    # everything on the GPU: loads sum to 2, so theta halves every rate
    wl = Workload((0, 1))
    m = Mapping(((0, 0, 0), (0, 0)))
    rep = simulate(wl, m, tiny_profile)
    assert rep.theta == pytest.approx(0.5)
    assert rep.per_dnn_inf_s == pytest.approx((1000.0 / 12.0, 1000.0 / 30.0))
    assert rep.per_unit_inf_s[0] == pytest.approx(1000.0 / 12.0 + 1000.0 / 30.0)
    assert rep.per_unit_inf_s[1:] == (0.0, 0.0)
    assert rep.unit_utilization[0] == pytest.approx(1.0)


def test_simulate_transfer_charged_on_non_first_stages_only(tiny_profile):
    wl = Workload((1,))
    whole = simulate(wl, Mapping(((0, 0),)), tiny_profile)
    split = simulate(wl, Mapping(((0, 1),)), tiny_profile)
    # whole: bottleneck 15ms; split: stages 5 and 10+1 -> bottleneck 11ms
    assert whole.per_dnn_inf_s[0] == pytest.approx(1000.0 / 15.0)
    assert split.per_dnn_inf_s[0] == pytest.approx(1000.0 / 11.0)


def test_simulate_empty_workload_rejected(tiny_profile):
    with pytest.raises(ValueError):
        simulate(Workload(()), Mapping(()), tiny_profile)


def test_validate_mapping_refuses_an_empty_workload(tiny_profile):
    with pytest.raises(MappingError, match="^workload has no models$"):
        validate_mapping(Mapping(()), tiny_profile, Workload(()))


def test_stage_helpers(tiny_profile):
    assert len(stage_bounds((0, 0, 1))) == 2
    assert len(stage_bounds((0, 1, 0))) == 3
    assert len(stage_bounds((2, 2, 2))) == 1
    stages = stages_of(Mapping(((0, 0, 1), (2, 2))), tiny_profile, Workload((0, 1)))
    assert [(s.unit, s.layer_range, s.cost_ms) for s in stages[0]] == [
        (0, (0, 1), 5.0),
        (1, (2, 2), 2.0),
    ]
    assert stages[1][0].cost_ms == 15.0


@given(st.lists(st.integers(0, 3), max_size=40))
def test_stage_bounds_are_the_maximal_runs(assignment):
    bounds = stage_bounds(assignment)
    assert [u for s, e, u in bounds for _ in range(s, e)] == assignment
    assert [l for s, e, _ in bounds for l in range(s, e)] == list(range(len(assignment)))
    assert all(a[2] != b[2] for a, b in zip(bounds, bounds[1:]))
    assert len(bounds) == len(list(itertools.groupby(assignment)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_stage_cost_is_the_left_to_right_sum_of_layer_costs(seed, rng):
    # exact equality: the searches compare near-equal scores, so a stage
    # cost that rounds differently can change the mapping they pick
    profile = pb.generate_profile(3, seed=seed)
    wl = Workload((0, 1, 2))
    mapping = random_mapping_rng(wl, profile, 30, rng)
    for pos, stages in enumerate(stages_of(mapping, profile, wl)):
        layers = profile.models[pos].layers
        for stage in stages:
            lo, hi = stage.layer_range
            expected = sum(layer_cost(layers[l], stage.unit) for l in range(lo, hi + 1))
            assert stage.cost_ms == expected


def test_validate_mapping_errors(tiny_profile):
    wl = Workload((0, 1))  # 3 + 2 layers
    with pytest.raises(MappingError):
        validate_mapping(Mapping(((0, 0, 1),)), tiny_profile, wl)  # model count
    with pytest.raises(MappingError):
        validate_mapping(Mapping(((0, 0), (2, 2))), tiny_profile, wl)  # layer count
    with pytest.raises(MappingError):
        validate_mapping(Mapping(((0, 0, 3), (2, 2))), tiny_profile, wl)  # unit range
    for bad, match in (
        (Mapping(((0, 1), (2, 1, 1))), "^model 'mA': 2 assignments for 3 layers$"),  # the same 5 units
        (Mapping(((0, 1, 2, 1, 1),)), r"^mapping has 1 models, workload has 2 models of \[3, 2\]"),
        (Mapping(((0, 1, 2), (1,))), "^model 'mB': 1 assignments for 2 layers$"),  # a layer short
    ):
        with pytest.raises(MappingError, match=match):
            validate_mapping(bad, tiny_profile, wl)


@pytest.mark.parametrize(
    "second, bad",
    [
        ((2, 3), 3), ((-1, 0), -1), ((1, -2), -2), ((3, -1), 3), ((-4, 5), -4),
        ((1.5, 0), 1.5), ((0, "1"), "1"), (("1", 3), "1"),  # ids are members of range(3)
        ((1.0, 0), 1.0), ((np.int64(1), 0), np.int64(1)),  # ... and ints
    ],
)
def test_validate_mapping_names_the_first_bad_unit(tiny_profile, second, bad):
    # the second model's units are checked after the first model's are found good
    wl = Workload((0, 1))
    with pytest.raises(MappingError, match=rf"^unit id {re.escape(repr(bad))} out of range$"):
        validate_mapping(Mapping(((0, 1, 2), second)), tiny_profile, wl)


def test_validate_mapping_checks_the_stage_limit_after_the_ids(tiny_profile):
    wl = Workload((0, 1))
    validate_mapping(Mapping(((0, 1, 2), (1, 2))), tiny_profile, wl, 3)
    with pytest.raises(MappingError, match="^model 'mA': 3 stages, over the limit 2$"):
        validate_mapping(Mapping(((0, 1, 2), (1, 2))), tiny_profile, wl, 2)
    with pytest.raises(MappingError, match="^model 'mB': 2 stages, over the limit 1$"):
        validate_mapping(Mapping(((0, 0, 0), (1, 2))), tiny_profile, wl, 1)
    with pytest.raises(MappingError, match="^unit id 3 out of range$"):
        validate_mapping(Mapping(((0, 1, 2), (1, 3))), tiny_profile, wl, 1)


def test_simulate_refuses_a_float_unit_id(tiny_profile):
    # 1.0 == 1 is a member of range(3), but not an int
    wl = Workload((0, 1))
    with pytest.raises(MappingError, match=r"^unit id 1\.0 out of range$"):
        simulate(wl, Mapping(((0, 1.0, 2), (1, 1))), tiny_profile)
    # True is unit 1 everywhere, as in tuple indexing
    want = simulate(wl, Mapping(((0, 1, 2), (1, 1))), tiny_profile)
    assert simulate(wl, Mapping(((0, True, 2), (1, 1))), tiny_profile) == want


# ------------------------------------------------------- Stage reference

def simulate_by_stages(workload, mapping, profile):
    """`simulate` as it ran on `stages_of`'s `Stage` objects: the reference
    for the one-pass `simulate`, which must return an equal report."""
    per_model_stages = stages_of(mapping, profile, workload)
    eff_times = []
    rates = []
    for stages in per_model_stages:
        times = [
            s.cost_ms + (profile.transfer_ms if i > 0 else 0.0)
            for i, s in enumerate(stages)
        ]
        eff_times.append(times)
        rates.append(1000.0 / max(times))
    raw_load = [0.0] * profile.num_units
    for stages, times, r in zip(per_model_stages, eff_times, rates):
        for s, e in zip(stages, times):
            raw_load[s.unit] += r * e / 1000.0
    theta = min(1.0, 1.0 / max(raw_load))
    x = [theta * r for r in rates]
    y = [0.0] * profile.num_units
    for stages, xm in zip(per_model_stages, x):
        for unit in {s.unit for s in stages}:
            y[unit] += xm
    return pb.ThroughputReport(
        per_dnn_inf_s=tuple(x),
        per_unit_inf_s=tuple(y),
        avg_throughput=sum(x) / len(x),
        unit_utilization=tuple(theta * l for l in raw_load),
        theta=theta,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1), (1, 3), (5, 30)]),
    st.integers(1, 5),
    st.sampled_from([1, 2, 3, None]),
    st.randoms(use_true_random=False),
)
def test_simulate_equals_stage_reference(seed, layer_range, size, limit, rng):
    # exact equality of whole reports, 1-layer models included
    cfg = pb.GeneratorConfig(layer_range=layer_range)
    profile = pb.generate_profile(5, seed=seed, config=cfg)
    wl = Workload(tuple(rng.sample(range(5), size)))
    for _ in range(5):
        if limit is None:  # an independent unit per layer
            mapping = Mapping(tuple(
                tuple(rng.randrange(profile.num_units) for _ in range(profile.models[i].num_layers))
                for i in wl.model_indices
            ))
        else:
            mapping = random_mapping_rng(wl, profile, limit, rng)
        assert simulate(wl, mapping, profile) == simulate_by_stages(wl, mapping, profile)


# ------------------------------------------------------------ scoring core

@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, None]),
    st.randoms(use_true_random=False),
)
def test_avg_throughput_equals_simulate(seed, size, n, limit, rng):
    # exact equality: the searches and random-best rank mappings by these
    # floats, scored through one fresh memo
    profile = pb.generate_profile(5, seed=seed)
    wl = Workload(tuple(rng.sample(range(5), size)))
    if limit is None:  # unconstrained: an independent unit per layer
        maps = [
            Mapping(tuple(
                tuple(rng.randrange(profile.num_units) for _ in range(profile.models[i].num_layers))
                for i in wl.model_indices
            ))
            for _ in range(n)
        ]
    else:
        maps = [random_mapping_rng(wl, profile, limit, rng) for _ in range(n)]
    expected = [simulate(wl, m, profile).avg_throughput for m in maps]
    memo = {}
    assert [_avg_throughput(wl, m.assignments, profile, memo) for m in maps] == expected


def test_simulate_batch_rejects_bad_mappings(tiny_profile):
    # A batch of mappings is scored by `_avg_throughput` on unchecked tuples and
    # checked at `simulate`: a good member scores as `simulate` reports it,
    # and each bad member is refused by its own message.
    wl = Workload((0, 1))  # 3 + 2 layers
    good = Mapping(((0, 1, 2), (1, 1)))
    memo = {}
    assert _avg_throughput(wl, ((0, 1, 2), (1, 1)), tiny_profile, memo) == simulate(
        wl, good, tiny_profile
    ).avg_throughput
    for bad, match in (
        (Mapping(((0, 1), (2, 1, 1))), "layers"),  # the same 5 units, split 2 + 3
        (Mapping(((0, 1, 2, 1, 1),)), "layers"),  # all in one model
        (Mapping(((0, 1, 2), (1,))), "layers"),  # a layer short
        (Mapping(((0, 1, 3), (1, 1))), "^unit id 3 out of range$"),
        (Mapping(((0, 1, 2), (1, -1))), "^unit id -1 out of range$"),
        (Mapping(((0, 1.5, 2), (1, 1))), r"^unit id 1\.5 out of range$"),  # not unit 1
        (Mapping(((0, 1, 2), ("1", 1))), "^unit id '1' out of range$"),
        (Mapping(((0, 1.0, 2), (1, 1))), r"^unit id 1\.0 out of range$"),  # not unit 1
        (Mapping(((0, 1, 2), (np.int64(1), 1))), r"^unit id np\.int64\(1\) out of range$"),
    ):
        with pytest.raises(MappingError, match=match):
            [simulate(wl, m, tiny_profile) for m in (good, bad)]
    with pytest.raises(ValueError):
        simulate(Workload(()), Mapping(()), tiny_profile)


def test_avg_throughput_adds_each_units_stages_in_simulates_order():
    # Both models run on units 0, 1, 0, 1, 0, so unit 0 holds three stages of
    # each. These costs make unit 0's load, and so theta, depend on the order
    # of its six additions: one unit's stages must be added in (model, stage)
    # order, as `simulate` does, not in layer order, and none may be dropped.
    from pipeboost.workload import (
        ComputeUnit, DeviceProfile, DnnModel, KernelProfile, LayerFeatures, LayerSpec, UnitKind,
    )

    def model(name, times):
        return DnnModel(name, tuple(
            LayerSpec(f"{name}{l}", (KernelProfile("k", {0: t0, 1: t1, 2: 9.0}),),
                      LayerFeatures("conv", 1, 1, 1))
            for l, (t0, t1) in enumerate(times)
        ))

    profile = DeviceProfile(
        units=tuple(ComputeUnit(i, k.value, k) for i, k in enumerate(UnitKind)),
        models=(
            model("a", [(3.7, 0.7), (0.7, 0.7), (1.1, 0.1), (0.2, 0.3), (0.2, 1.3)]),
            model("b", [(0.7, 1.1), (3.7, 2.9), (3.7, 0.7), (2.9, 0.3), (1.3, 0.2)]),
        ),
        transfer_ms=0.0,
    )
    wl = Workload((0, 1))
    maps = [
        Mapping(((0, 1, 0, 1, 0), (0, 1, 0, 1, 0))),
        Mapping(((0, 0, 0, 0, 0), (1, 0, 1, 0, 1))),
    ]
    want = [simulate(wl, m, profile).avg_throughput for m in maps]
    memo = {}
    assert [_avg_throughput(wl, m.assignments, profile, memo) for m in maps] == want


def test_one_memo_keys_each_walk_by_model_and_ids():
    # A workload cannot repeat a model, so one memo serves mixes that hold a
    # model at other positions, and models of equal length given the same
    # ids: each T through the memo, hit or miss, is `simulate`'s.
    profile = pb.generate_profile(4, seed=3, config=pb.GeneratorConfig(layer_range=(4, 4)))
    rng, memo = random.Random(5), {}
    for wl in (Workload((0, 1)), Workload((1, 0)), Workload((2, 1, 3))) * 2:
        maps = [random_mapping_rng(wl, profile, 2, rng) for _ in range(20)]
        maps.append(Mapping(((0, 1, 1, 2),) * len(wl)))  # one id tuple for every model
        for m in maps:
            t = _avg_throughput(wl, m.assignments, profile, memo)
            assert t == simulate(wl, m, profile).avg_throughput
    assert len({ids for _, ids in memo}) < len(memo)  # some ids stored under two models


# ------------------------------------------------------------ fuzz oracle

def test_simulate_matches_independent_oracle(gen_profile):
    rng = random.Random(77)
    for _ in range(300):
        k = rng.randint(1, 4)
        wl = Workload(tuple(rng.sample(range(len(gen_profile.models)), k)))
        m = random_mapping_rng(wl, gen_profile, 3, rng)
        rep = simulate(wl, m, gen_profile)
        x, y, t, theta = oracle_simulate(wl, m, gen_profile)
        np.testing.assert_allclose(rep.per_dnn_inf_s, x, rtol=1e-12)
        np.testing.assert_allclose(rep.per_unit_inf_s, y, rtol=1e-12)
        assert rep.avg_throughput == pytest.approx(t, rel=1e-12)
        assert rep.theta == pytest.approx(theta, rel=1e-12)
        assert max(rep.unit_utilization) <= 1.0 + 1e-9


def test_simulate_scale_covariance(tiny_profile):
    # scaling every kernel time and the transfer cost by c divides all
    # rates by c and leaves theta unchanged
    from pipeboost.workload import (
        DeviceProfile, DnnModel, KernelProfile, LayerSpec,
    )

    c = 3.5

    def scaled_layer(layer):
        kernels = tuple(
            KernelProfile(k.name, {u: t * c for u, t in k.time_ms.items()})
            for k in layer.kernels
        )
        return LayerSpec(layer.name, kernels, layer.features)

    scaled = DeviceProfile(
        units=tiny_profile.units,
        models=tuple(
            DnnModel(m.name, tuple(scaled_layer(l) for l in m.layers))
            for m in tiny_profile.models
        ),
        transfer_ms=tiny_profile.transfer_ms * c,
    )
    wl = Workload((0, 1))
    m = Mapping(((0, 1, 2), (2, 0)))
    a = simulate(wl, m, tiny_profile)
    b = simulate(wl, m, scaled)
    np.testing.assert_allclose(
        np.array(a.per_dnn_inf_s) / c, b.per_dnn_inf_s, rtol=1e-12
    )
    assert a.theta == pytest.approx(b.theta, rel=1e-12)


# ----------------------------------------------------- counting/enumeration

def brute_count(n, u, s):
    return sum(
        1
        for combo in itertools.product(range(u), repeat=n)
        if len(stage_bounds(combo)) <= s
    )


@pytest.mark.parametrize(
    "n,u,s",
    [(1, 3, 1), (2, 3, 2), (4, 3, 3), (5, 3, 3), (5, 2, 4), (6, 4, 2), (3, 3, 5)],
)
def test_count_assignments_against_bruteforce(n, u, s):
    assert count_assignments(n, u, s) == brute_count(n, u, s)


def test_count_assignments_closed_form():
    # sum over stage counts of C(n-1, s-1) * u * (u-1)^(s-1)
    n, u, smax = 7, 3, 3
    expected = sum(
        math.comb(n - 1, s - 1) * u * (u - 1) ** (s - 1) for s in range(1, smax + 1)
    )
    assert count_assignments(n, u, smax) == expected


def test_iter_assignments_exhaustive_and_sorted():
    got = list(iter_assignments(4, 3, 2))
    assert len(got) == count_assignments(4, 3, 2)
    assert len(set(got)) == len(got)
    assert got == sorted(got)
    for a in got:
        assert len(stage_bounds(a)) <= 2
        assert all(0 <= x < 3 for x in a)


def test_exhaustive_best_matches_bruteforce(tiny_profile):
    wl = Workload((0, 1))
    best_map, best_rep = exhaustive_best(wl, tiny_profile, max_stages=3)
    per_model = [
        list(iter_assignments(m.num_layers, 3, 3))
        for m in (tiny_profile.models[0], tiny_profile.models[1])
    ]
    t_star = max(
        simulate(wl, Mapping(c), tiny_profile).avg_throughput
        for c in itertools.product(*per_model)
    )
    assert best_rep.avg_throughput == pytest.approx(t_star, rel=1e-12)
    validate_mapping(best_map, tiny_profile, wl)
    # determinism of tie-breaking
    again, _ = exhaustive_best(wl, tiny_profile, max_stages=3)
    assert again == best_map


def test_exhaustive_best_respects_enumeration_cap(gen_profile):
    big = Workload(tuple(range(6)))
    with pytest.raises(SearchSpaceError):
        exhaustive_best(big, gen_profile, max_stages=3, cap=1000)


# ------------------------------------------------------------ random + io

def test_random_mapping_valid_and_seeded(gen_profile):
    wl = Workload((0, 3, 5))
    m1 = random_mapping_rng(wl, gen_profile, 3, random.Random(4))
    m2 = random_mapping_rng(wl, gen_profile, 3, random.Random(4))
    assert m1 == m2
    validate_mapping(m1, gen_profile, wl)
    for a in m1.assignments:
        assert len(stage_bounds(a)) <= 3
    m3 = random_mapping_rng(wl, gen_profile, 3, random.Random(5))
    assert m1 != m3  # overwhelmingly likely for this space


def test_randbelow_is_randrange_and_choice():
    # every n up to 130, so every power of two up to 128: there CPython's
    # k = n.bit_length() throws away half the draws, and (n - 1).bit_length()
    # would give other numbers
    for n in range(1, 131):
        for seed in range(50):
            rng, by_range, by_choice = (random.Random(seed) for _ in range(3))
            got = [randbelow(rng.getrandbits, n) for _ in range(3)]
            assert got == [by_range.randrange(n) for _ in range(3)]
            assert got == [by_choice.choice(range(n)) for _ in range(3)]
            assert rng.getstate() == by_range.getstate() == by_choice.getstate()


def test_a_block_of_words_is_that_many_single_bit_draws():
    # mcts.rollout's forced tails rely on this: getrandbits(32 * m) takes
    # exactly m 32-bit words, and getrandbits(1) is bit 31 of one word, so
    # the block's bits 31 are m single-bit draws with the same rng state
    for m in range(1, 41):
        high = sum(1 << 32 * i + 31 for i in range(m))
        for seed in range(8):
            block, single = random.Random(seed), random.Random(seed)
            ones = (block.getrandbits(32 * m) & high).bit_count()
            assert ones == sum(single.getrandbits(1) for _ in range(m))
            assert block.getstate() == single.getstate()


def test_mapping_json_roundtrip(tiny_profile, tmp_path):
    wl = Workload((1, 0))
    m = Mapping(((2, 2), (0, 1, 1)))
    path = tmp_path / "map.json"
    save_mapping(m, tiny_profile, wl, path)
    wl2, m2 = load_mapping(path, tiny_profile)
    assert wl2 == wl
    assert m2 == m


def test_load_mapping_rejects_unknown_keys(tiny_profile, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"workload": ["mA"], "assignments": [[0, 0, 0]], "x": 1}))
    with pytest.raises(MappingError):
        load_mapping(path, tiny_profile)
