"""Dataset generation, preprocessing, and the Adam/L1 training loop."""

import csv
import json

import numpy as np
import pytest

from pipeboost.errors import DatasetError
from pipeboost.estimator import EstimatorNet, row_blocks
from pipeboost.simulator import simulate
from pipeboost.training import (
    TrainConfig,
    generate_dataset,
    gradient_check,
    l1_loss,
    load_dataset,
    preprocess_targets,
    save_dataset,
    save_history_csv,
    train,
)


def test_generate_dataset_shapes_and_labels(gen_profile):
    samples = generate_dataset(gen_profile, count=40, mix_range=(1, 4), seed=3)
    assert len(samples) == 40
    shape = (3, 6, gen_profile.max_layers)
    for s in samples:
        assert s.input.shape == shape
        assert s.target_raw.shape == (3,)
        assert s.target is None
        assert 1 <= len(s.workload) <= 4
        # the label really is the simulator's per-unit output
        rep = simulate(s.workload, s.mapping, gen_profile)
        np.testing.assert_allclose(s.target_raw, rep.per_unit_inf_s)


def test_generate_dataset_prefix_stability(gen_profile):
    # per-sample seeding: a longer dataset starts with the shorter one
    short = generate_dataset(gen_profile, count=10, seed=1)
    long = generate_dataset(gen_profile, count=25, seed=1)
    for a, b in zip(short, long):
        assert a.workload == b.workload
        assert a.mapping == b.mapping
    other = generate_dataset(gen_profile, count=10, seed=2)
    assert any(a.mapping != b.mapping for a, b in zip(short, other))


def test_generate_dataset_validation(gen_profile):
    with pytest.raises(ValueError):
        generate_dataset(gen_profile, count=5, mix_range=(0, 3))
    with pytest.raises(ValueError):
        generate_dataset(gen_profile, count=5, mix_range=(1, 7))  # only 6 models


def test_preprocess_targets_range_and_stats(gen_profile):
    samples = generate_dataset(gen_profile, count=60, seed=4)
    stats, out = preprocess_targets(samples, train_count=48)
    train_targets = np.stack([s.target for s in out[:48]])
    assert train_targets.min() == pytest.approx(0.0)
    assert train_targets.max() == pytest.approx(1.0)
    for s in out:
        assert s.target.min() >= 0.0 and s.target.max() <= 1.0
    # z-scores by the training rows' statistics, min-max scaled by the training
    # rows' range, clipped to [0, 1] on the validation rows
    raw = np.stack([s.target_raw for s in samples])
    z = (raw - raw[:48].mean(axis=0)) / raw[:48].std(axis=0)
    lo, hi = z[:48].min(axis=0), z[:48].max(axis=0)
    want = np.clip((z - lo) / (hi - lo), 0.0, 1.0)
    np.testing.assert_allclose(np.stack([s.target for s in out]), want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(stats.transform(raw), np.stack([s.target for s in out]))


def test_train_decreases_loss_and_is_deterministic(gen_profile):
    samples = generate_dataset(gen_profile, count=90, seed=8)
    stats, samples = preprocess_targets(samples, 72)
    cfg = TrainConfig(epochs=8, seed=1, train_size=72, val_size=18)

    net_a = EstimatorNet.new((3, 6, gen_profile.max_layers), seed=2)
    net_a, hist_a = train(net_a, samples, cfg, stats=stats)
    assert hist_a["train_l1"][-1] < hist_a["train_l1"][0]
    assert len(hist_a["train_l1"]) == len(hist_a["val_l1"]) == 8
    assert net_a.target_stats is stats

    net_b = EstimatorNet.new((3, 6, gen_profile.max_layers), seed=2)
    net_b, hist_b = train(net_b, samples, cfg, stats=stats)
    assert hist_a == hist_b
    for k in EstimatorNet.PARAM_ORDER:
        np.testing.assert_array_equal(net_a.params[k], net_b.params[k])


def test_train_split_must_cover_samples(gen_profile):
    samples = generate_dataset(gen_profile, count=30, seed=0)
    _, samples = preprocess_targets(samples)
    with pytest.raises(ValueError):
        train(
            EstimatorNet.new((3, 6, gen_profile.max_layers)),
            samples,
            TrainConfig(train_size=20, val_size=5),
        )


def test_train_rejects_unprocessed_targets(gen_profile):
    samples = generate_dataset(gen_profile, count=12, seed=0)
    with pytest.raises(ValueError):
        train(
            EstimatorNet.new((3, 6, gen_profile.max_layers)),
            samples,
            TrainConfig(epochs=1, train_size=10, val_size=2),
        )


def test_gradient_check_small_sample(gen_profile):
    samples = generate_dataset(gen_profile, count=4, seed=2)
    _, samples = preprocess_targets(samples)
    net = EstimatorNet.new((3, 6, gen_profile.max_layers), seed=4)
    worst = gradient_check(net, samples[0].input, samples[0].target, n_checks=60, seed=0)
    assert worst <= 1e-4


@pytest.mark.parametrize("size", [1, 2, 3, 4, 32])
@pytest.mark.parametrize("rows", [1, 5, 33])
def test_forward_in_slices_equals_one_forward(rows, size):
    # `train` validates with one `forward` call, which runs row blocks itself;
    # any `row_blocks` split gives the same rows. Rows 5 and 33 leave a one-row
    # last slice at some sizes; it must join the slice before it, since a
    # one-row head rounds differently
    net = EstimatorNet.new((3, 4, 7), seed=2)
    rng = np.random.default_rng(rows)
    for k, v in net.params.items():
        if k.endswith(".b"):
            v[:] = rng.normal(0.0, 0.1, v.shape)
    x = rng.random((rows, 3, 4, 7))
    sliced = np.concatenate([net.forward(x[part]) for part in row_blocks(rows, size)])
    assert np.array_equal(sliced, net.forward(x))


def test_l1_loss():
    assert l1_loss(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == 1.5


def test_dataset_json_roundtrip(gen_profile, tmp_path):
    samples = generate_dataset(gen_profile, count=15, seed=6)
    path = tmp_path / "ds.json"
    save_dataset(samples, gen_profile, path)
    back = load_dataset(path, gen_profile)
    assert len(back) == 15
    for a, b in zip(samples, back):
        assert a.workload == b.workload
        assert a.mapping == b.mapping
        np.testing.assert_allclose(a.target_raw, b.target_raw)
        np.testing.assert_array_equal(a.input, b.input)
        assert b.target is None


@pytest.mark.parametrize(
    "layout",
    [
        [],
        {},
        {"samples": 5},
        {"samples": [{"workload": ["net00"], "assignments": [[0]]}]},
        {"samples": [], "extra": 1},
        {"samples": [{"workload": "net00", "assignments": [[0]], "target_raw": [1, 1, 1]}]},
        {"samples": [{"workload": ["net00"], "assignments": 5, "target_raw": [1, 1, 1]}]},
        {"samples": [{"workload": ["net00"], "assignments": [5], "target_raw": [1, 1, 1]}]},
        {"samples": [{"workload": ["net00"], "assignments": [[0]], "target_raw": 5}]},
        {"samples": [{"workload": ["net00"], "assignments": [[0]], "target_raw": [1, 1]}]},
        {"samples": [{"workload": ["net00"], "assignments": [[0]], "target_raw": [1, "x", 1]}]},
        # net02 has 7 layers, so only target_raw is at fault in these two
        {"samples": [{"workload": ["net02"], "assignments": [[0] * 7], "target_raw": [1, float("nan"), 1]}]},
        {"samples": [{"workload": ["net02"], "assignments": [[0] * 7], "target_raw": [1, 10**400, 1]}]},
        # only the assignments are at fault in these: a short model, a bad unit
        {"samples": [{"workload": ["net02"], "assignments": [[0]], "target_raw": [1, 1, 1]}]},
        {"samples": [{"workload": ["net02"], "assignments": [[0] * 6 + [3]], "target_raw": [1, 1, 1]}]},
    ],
)
def test_load_dataset_rejects_bad_layout(gen_profile, tmp_path, layout):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(layout))
    with pytest.raises(DatasetError):
        load_dataset(path, gen_profile)


def test_history_csv_format(tmp_path):
    hist = {"train_l1": [0.5, 0.25], "val_l1": [0.6, 0.3]}
    path = tmp_path / "hist.csv"
    save_history_csv(hist, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_l1", "val_l1"]
    assert rows[1] == ["1", "0.5", "0.6"]
    assert rows[2] == ["2", "0.25", "0.3"]
