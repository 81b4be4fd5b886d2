"""Dataset generation, preprocessing, and the Adam/L1 training loop."""

import csv
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from pipeboost import cli, embedding, training
from pipeboost.embedding import build_embedding, mapped_input
from pipeboost.errors import DatasetError
from pipeboost.estimator import EstimatorNet, save_weights
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
from pipeboost.workload import generate_profile, save_profile


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


def test_generate_dataset_inputs_are_mapped_inputs(gen_profile):
    # generate_dataset gathers each input without mapped_input's second check
    embedding = build_embedding(gen_profile)
    for s in generate_dataset(gen_profile, count=60, mix_range=(1, 6), seed=8):
        want = mapped_input(embedding, s.workload, s.mapping, gen_profile)
        assert s.input.dtype == want.dtype and not s.input.flags.writeable
        assert s.input.tobytes() == want.tobytes()


def test_bench_recipe_dataset_mappings_are_pinned():
    # the mixes and mappings of `genprofile --models 11 --seed 0` then
    # `dataset --count 500 --mix-min 1 --mix-max 5 --seed 0` depend only on
    # the rng draws, so any change to a draw changes this hash
    profile = generate_profile(11, 0)
    samples = generate_dataset(profile, 500, (1, 5), 0)
    rows = [s.mapping.to_dict(profile, s.workload) for s in samples]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "a5067ad4cb6e5a7a99e35d6820690bee7a4149352f822eee60f82fd8f60ccafb"


def test_dataset_command_builds_no_inputs(tmp_path, monkeypatch, capsys):
    # the file holds labels only, so `dataset` gathers no net input; the
    # bench recipe's file, targets included, is pinned by its hash
    def no_gather(*args):
        raise AssertionError("dataset built a net input")

    monkeypatch.setattr(training, "_gather", no_gather)
    monkeypatch.setattr(embedding, "_gather", no_gather)
    prof, data = tmp_path / "p.json", tmp_path / "d.json"
    assert cli.main(["genprofile", "--models", "11", "--seed", "0", "--out", str(prof)]) == 0
    assert cli.main([
        "dataset", "--profile", str(prof), "--count", "500", "--mix-min", "1",
        "--mix-max", "5", "--seed", "0", "--out", str(data),
    ]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {data}: 500 samples"
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    assert digest == "c9fcaf46aef7105d03dd1798a23b8fa24a18a6e3e75ebf8e224fe88e68fe4629"


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


def test_train_rejects_inputs_of_another_shape(gen_profile):
    samples = generate_dataset(gen_profile, count=12, seed=0)
    _, samples = preprocess_targets(samples)
    with pytest.raises(ValueError, match="input shape"):
        train(
            EstimatorNet.new((3, 5, gen_profile.max_layers)),
            samples,
            TrainConfig(epochs=1, train_size=10, val_size=2),
        )


def trained_bytes(profile, samples, stats, cfg, tmp_path, tag):
    net = EstimatorNet.new((3, 6, profile.max_layers), seed=3)
    net, history = train(net, samples, cfg, stats=stats)
    save_weights(net, tmp_path / f"{tag}.bin")
    save_history_csv(history, tmp_path / f"{tag}.csv")
    return (tmp_path / f"{tag}.bin").read_bytes(), (tmp_path / f"{tag}.csv").read_bytes()


@pytest.mark.parametrize("batch, train_size, val_size", [
    pytest.param(32, 68, 21, id="32-68"),
    pytest.param(17, 56, 21, id="17-56"),
    pytest.param(8, 20, 21, id="8-20"),
    (16, 33, 1), (16, 34, 2), (16, 35, 3),
])
def test_the_worker_keeps_every_byte(
    gen_profile, tmp_path, monkeypatch, batch, train_size, val_size
):
    # with and without the forked worker: a batch splits its rows at n // 2,
    # 16 + 16, 8 + 9 and 8 + 8, and the last batches of 4 or 5 rows 2 + 2 and
    # 2 + 3; a last batch of 1, 2 or 3 rows runs here alone, and so does a
    # single validation row, while 2, 3 and 21 rows split 1 + 1, 1 + 2 and
    # 10 + 11. A batch of 8 rows is one block, so it forks no worker
    samples = generate_dataset(gen_profile, count=train_size + val_size, seed=6)
    stats, samples = preprocess_targets(samples, train_size)
    cfg = TrainConfig(
        epochs=3, batch_size=batch, seed=2, train_size=train_size, val_size=val_size
    )
    forks = []
    start = training._Worker.__init__

    def counted(self, *args):
        forks.append(batch)
        start(self, *args)

    monkeypatch.setattr(training._Worker, "__init__", counted)
    monkeypatch.setattr(training, "_two_cpus", lambda: True)
    split = trained_bytes(gen_profile, samples, stats, cfg, tmp_path, "split")
    assert forks == ([batch] if batch > 8 else [])
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(training, "_two_cpus", lambda: False)
    serial = trained_bytes(gen_profile, samples, stats, cfg, tmp_path, "serial")
    assert len(forks) == (batch > 8)
    assert split == serial


def fail_in_the_worker(monkeypatch, how):
    """Make `l1_rows` fail in any process but this one: raise, or exit."""
    parent = os.getpid()
    rows = EstimatorNet.l1_rows

    def failing(self, *args):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected")
        return rows(self, *args)

    monkeypatch.setattr(EstimatorNet, "l1_rows", failing)
    monkeypatch.setattr(training, "_two_cpus", lambda: True)


@pytest.mark.parametrize("how, message", [
    ("raise", "training worker failed: RuntimeError: injected"),
    ("exit", "training worker exited with code 3"),
])
def test_a_failed_worker_is_a_child_process_error(gen_profile, monkeypatch, how, message):
    samples = generate_dataset(gen_profile, count=40, seed=0)
    _, samples = preprocess_targets(samples, 32)
    fail_in_the_worker(monkeypatch, how)
    with pytest.raises(ChildProcessError, match=message):
        train(
            EstimatorNet.new((3, 6, gen_profile.max_layers)),
            samples,
            TrainConfig(epochs=1, batch_size=16, train_size=32, val_size=8),
        )
    assert multiprocessing.active_children() == []


def test_train_command_reports_a_failed_worker(gen_profile, tmp_path, monkeypatch, capsys):
    samples = generate_dataset(gen_profile, count=40, seed=0)
    save_profile(gen_profile, tmp_path / "p.json")
    save_dataset(samples, gen_profile, tmp_path / "d.json")
    fail_in_the_worker(monkeypatch, "raise")
    code = cli.main([
        "train", "--profile", str(tmp_path / "p.json"), "--dataset", str(tmp_path / "d.json"),
        "--epochs", "1", "--batch-size", "16", "--train-size", "32", "--val-size", "8",
        "--out", str(tmp_path / "w.bin"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: training worker failed: RuntimeError: injected\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mid_step", [False, True])
def test_the_worker_returns_when_the_parent_end_closes(gen_profile, mid_step):
    # idle, or waiting for a step's partial sums: both end at the EOF, which
    # the worker sees only because it closed its copy of the parent's end
    samples = generate_dataset(gen_profile, count=16, seed=0)
    _, samples = preprocess_targets(samples)
    targets = np.stack([s.target for s in samples])
    net = EstimatorNet.new((3, 6, gen_profile.max_layers))
    worker = training._Worker(net, samples, targets)
    try:
        if mid_step:
            worker.send(("step", net.params, np.arange(8, 16), 16))
        worker.conn.close()
        worker.process.join(timeout=60)
        assert not worker.process.is_alive()
        assert worker.process.exitcode == 0
    finally:
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()


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
    # any split gives the same rows, one-row slices included (all of them at
    # size 1, and the last of rows 5 and 33 at some sizes)
    net = EstimatorNet.new((3, 4, 7), seed=2)
    rng = np.random.default_rng(rows)
    for k, v in net.params.items():
        if k.endswith(".b"):
            v[:] = rng.normal(0.0, 0.1, v.shape)
    x = rng.random((rows, 3, 4, 7))
    sliced = np.concatenate([net.forward(x[a : a + size]) for a in range(0, rows, size)])
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
        assert a.target_raw.tobytes() == b.target_raw.tobytes()
        assert a.input.tobytes() == b.input.tobytes()
        assert b.target is None


def test_saved_dataset_loads_to_the_indented_object(gen_profile, tmp_path):
    # the content of the file is pinned, not its whitespace
    samples = generate_dataset(gen_profile, count=15, seed=6)
    path = tmp_path / "ds.json"
    save_dataset(samples, gen_profile, path)
    rows = [
        {**s.mapping.to_dict(gen_profile, s.workload), "target_raw": s.target_raw.tolist()}
        for s in samples
    ]
    assert json.loads(path.read_text()) == json.loads(json.dumps({"samples": rows}, indent=2))


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
