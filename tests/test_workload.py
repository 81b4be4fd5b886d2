import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeboost as pb
from pipeboost.baselines import fit_linreg
from pipeboost.errors import ProfileError
from pipeboost.workload import (
    GeneratorConfig,
    Workload,
    layer_cost,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    stage_cost_table,
    workload_from_names,
)


def test_layer_and_model_cost(tiny_profile):
    m_a = tiny_profile.models[0]
    assert layer_cost(m_a.layers[0], 0) == 2.0
    assert layer_cost(m_a.layers[0], 2) == 8.0
    assert [sum(row) for row in tiny_profile.layer_costs[0]] == [6.0, 12.0, 24.0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_layer_cost_table_equals_layer_cost(seed):
    profile = pb.generate_profile(3, seed=seed)
    for m, model in enumerate(profile.models):
        assert len(profile.layer_costs[m]) == profile.num_units
        for u in range(profile.num_units):
            assert profile.layer_costs[m][u] == tuple(layer_cost(l, u) for l in model.layers)


def _left_fold(xs):
    """xs[0] + xs[1] + ..., added left to right onto the int 0."""
    total = 0
    for x in xs:
        total = total + x
    return total


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stage_cost_table_is_the_sum_of_each_slice(seed):
    # bit for bit: prefix-sum differences would round differently, and a
    # fold from -0.0 would keep a leading -0.0 where the fold from 0 gives 0.0
    profile = pb.generate_profile(3, seed=seed)
    linreg = fit_linreg(profile)
    cases = list(profile.layer_costs)
    for model in profile.models:
        pred = linreg.predict_model(model).T.tolist()
        cases += [pred, [[-v for v in row] for row in pred], [[-0.0, *row] for row in pred]]
    cases.append([[-0.0], [-0.0, -0.0, 1.5], [-0.0, -2.5, 1e16, 1.0, -1e16]])
    for rows in cases:
        table = stage_cost_table(rows)
        for u, row in enumerate(rows):
            for s in range(len(row)):
                assert table[u][s][: s + 1] == (None,) * (s + 1)
                for e in range(s + 1, len(row) + 1):
                    assert table[u][s][e].hex() == _left_fold(row[s:e]).hex()
                    if sys.version_info < (3, 12):  # 3.12's sum is compensated
                        assert table[u][s][e].hex() == sum(row[s:e]).hex()
    for m, rows in enumerate(profile.layer_costs):
        assert profile.stage_costs[m] == stage_cost_table(rows)


def test_stage_costs_build_only_the_models_read():
    profile = pb.generate_profile(6, seed=0)
    wl = Workload((4, 1))
    pb.simulate(wl, pb.gpu_only(wl, profile), profile)
    assert sorted(profile.stage_costs) == [1, 4]


def test_profile_properties(tiny_profile):
    assert tiny_profile.num_units == 3
    assert tiny_profile.max_layers == 3
    assert tiny_profile.gpu_unit().id == 0
    assert tiny_profile.model_index("mB") == 1
    with pytest.raises(ProfileError):
        tiny_profile.model_index("nope")


def test_workload_distinct_indices():
    Workload((0, 1, 2))  # fine
    with pytest.raises(ValueError):
        Workload((0, 0))
    with pytest.raises(ValueError):
        Workload((-1,))


def test_workload_from_names(tiny_profile):
    wl = workload_from_names(tiny_profile, ["mB", "mA"])
    assert wl.model_indices == (1, 0)


def test_generate_profile_deterministic():
    p1 = pb.generate_profile(4, seed=9)
    p2 = pb.generate_profile(4, seed=9)
    assert profile_to_dict(p1) == profile_to_dict(p2)
    p3 = pb.generate_profile(4, seed=10)
    assert profile_to_dict(p1) != profile_to_dict(p3)


def test_generate_profile_respects_config():
    cfg = GeneratorConfig(layer_range=(3, 4), transfer_ms=0.25)
    prof = pb.generate_profile(5, seed=1, config=cfg)
    assert len(prof.models) == 5
    assert prof.transfer_ms == 0.25
    for m in prof.models:
        assert 3 <= m.num_layers <= 4
    prof.validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("layer_range", (5, 2)),  # an empty range, which randrange refused
        ("layer_range", (0, 3)),
        ("layer_range", (2.0, 3)),
        ("kernels_range", (3, 1)),
        ("kernels_range", (0, 0)),
        ("base_ms_range", (0.0, 1.0)),
        ("base_ms_range", (2.0, 1.0)),
        ("base_ms_range", (1.0, math.inf)),
        ("jitter_range", (math.nan, 1.0)),
        ("jitter_range", (-0.5, 1.0)),
        ("transfer_ms", -0.1),
        ("transfer_ms", math.nan),
        ("transfer_ms", math.inf),  # `simulate` divided by zero on such a profile
        ("unit_factors", (1.0, 2.0, 3.0, 4.0)),  # one more than there are units
        ("unit_factors", (1.0, 3.0)),
        ("unit_factors", (0.0, 3.0, 8.0)),
        ("unit_factors", (1.0, -3.0, 8.0)),
        ("unit_factors", (1.0, 3.0, math.nan)),
        ("unit_factors", (math.inf, 3.0, 8.0)),
    ],
)
def test_generator_config_refuses_bad_ranges(field, value):
    with pytest.raises(ValueError, match=f"GeneratorConfig.{field} "):
        pb.generate_profile(3, 0, GeneratorConfig(**{field: value}))


def test_generator_config_accepts_the_edges_of_its_ranges():
    cfg = GeneratorConfig(
        layer_range=(1, 1), kernels_range=(1, 1), base_ms_range=(0.5, 0.5),
        jitter_range=(1e-9, 1e-9), transfer_ms=0.0,
    )
    prof = pb.generate_profile(2, seed=0, config=cfg)
    assert all(m.num_layers == 1 and len(m.layers[0].kernels) == 1 for m in prof.models)


def test_generated_unit_factor_ordering():
    # with heavily skewed factors the GPU should be the cheapest unit
    # for the whole model almost by construction
    cfg = GeneratorConfig(unit_factors=(1.0, 5.0, 20.0))
    prof = pb.generate_profile(3, seed=2, config=cfg)
    for rows in prof.layer_costs:
        assert sum(rows[0]) < sum(rows[1]) < sum(rows[2])


def test_profile_json_roundtrip(tiny_profile, tmp_path):
    path = tmp_path / "prof.json"
    save_profile(tiny_profile, path)
    back = load_profile(path)
    assert back == tiny_profile
    # the file itself is plain JSON
    data = json.loads(path.read_text())
    assert data["transfer_ms"] == 1.0


def test_saved_profile_loads_to_the_indented_object(tmp_path):
    # the content of the file is pinned, not its whitespace
    profile = pb.generate_profile(4, seed=3)
    path = tmp_path / "prof.json"
    save_profile(profile, path)
    want = json.loads(json.dumps(profile_to_dict(profile), indent=2))
    assert json.loads(path.read_text()) == want
    assert load_profile(path) == profile


def test_profile_from_dict_rejects_unknown_keys(tiny_profile):
    data = profile_to_dict(tiny_profile)
    data["extra"] = 1
    with pytest.raises(ProfileError):
        profile_from_dict(data)


@pytest.mark.parametrize("transfer_ms", [-0.5, math.inf, math.nan])
def test_profile_validate_refuses_a_bad_transfer_time(transfer_ms):
    # a profile built in code must not validate with such a time: `simulate`
    # would divide by zero (inf) or report a `nan` utilization (nan)
    prof = dataclasses.replace(pb.generate_profile(3, 0), transfer_ms=transfer_ms)
    with pytest.raises(ProfileError, match="transfer_ms must be finite and >= 0"):
        prof.validate()


def test_profile_validate_catches_bad_unit_ids(tiny_profile):
    prof = pb.workload.DeviceProfile(
        units=(tiny_profile.units[1], tiny_profile.units[0], tiny_profile.units[2]),
        models=tiny_profile.models,
        transfer_ms=1.0,
    )
    with pytest.raises(ProfileError):
        prof.validate()
