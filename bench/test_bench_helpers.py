"""Tests of the benchmark's own helpers: span self times, the tail-percentile
rule, the norm_T ratio, mix balance, tracer installation and the host clock."""

import json
import random
from collections import Counter

import pytest

import harness
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_give_self_times():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    outer = tr.begin()
    clock.now += 1.0
    inner = tr.begin()
    clock.now += 2.0
    leaf = tr.begin()
    clock.now += 4.0
    tr.end("leaf", leaf)
    tr.end("inner", inner)
    inner = tr.begin()
    clock.now += 8.0
    tr.end("inner", inner)
    clock.now += 16.0
    tr.end("outer", outer)
    assert tr.spans["leaf"] == [1, 4.0, 4.0]
    assert tr.spans["inner"] == [2, 14.0, 10.0]
    assert tr.spans["outer"] == [1, 31.0, 17.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(range(100)) == (90.0, 89)
    assert harness.tail_percentile(range(1000)) == (99.0, 989)
    pct, value = harness.tail_percentile(list(range(18))[::-1])
    assert value == 7 and sum(x > value for x in range(18)) == 10
    assert pct == pytest.approx(100 * 8 / 18)
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _layer(name, gpu, big, little):
    return {
        "name": name,
        "kernels": [{"name": "k0", "time_ms": {"0": gpu, "1": big, "2": little}}],
        "features": {"op_kind": "conv", "in_elems": 1, "out_elems": 1, "macs": 1},
    }


def test_norm_t_on_a_two_model_profile(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "units": [
            {"id": 0, "name": "gpu", "kind": "gpu"},
            {"id": 1, "name": "big-cpu", "kind": "big"},
            {"id": 2, "name": "little-cpu", "kind": "little"},
        ],
        "transfer_ms": 0.5,
        "models": [
            {"name": "a", "layers": [_layer("l0", 2.0, 4.0, 8.0), _layer("l1", 2.0, 4.0, 8.0)]},
            {"name": "b", "layers": [_layer("l0", 4.0, 6.0, 10.0)]},
        ],
    }))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"workload": ["a", "b"], "assignments": [[0, 0], [1]]}))
    # GPU-only: both models run at 250/s alone and load the GPU 2x, so theta
    # is 1/2 and T = 125. Moving b to the big CPU removes the contention:
    # T = (250 + 1000/6) / 2 = 208.33, and norm_T = 5/3.
    assert harness.norm_t(profile, mapping) == pytest.approx(5 / 3, rel=1e-12)


def test_balanced_mixes_use_every_model_evenly():
    mixes = harness.balanced_mixes(random.Random(3), 11, [4] * 11)
    assert all(len(set(mix)) == 4 for mix in mixes)
    assert set(Counter(m for mix in mixes for m in mix).values()) == {4}
    sizes = harness.SCHEDULE_SIZES
    counts = Counter(m for mix in harness.balanced_mixes(random.Random(5), 11, sizes) for m in mix)
    assert max(counts.values()) - min(counts.values()) <= 1


def test_missing_function_reports_zero(monkeypatch):
    from pipeboost import cli, mcts

    main = cli.main
    monkeypatch.delattr(mcts, "apply")
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        assert cli.main is not main
        metrics = tr.metrics()
    finally:
        tr.uninstall()
    assert cli.main is main
    assert metrics["mcts.apply.calls"] == (0, "count")
    assert metrics["mcts.rollout.busy_s"] == (0.0, "s")
    assert metrics["training.train.self_s_per_epoch"] == (0.0, "s")


def test_host_clock_scales_by_the_reference_around_a_span():
    times = iter([0.1, 0.2, 0.05])
    clock = harness.HostClock(lambda: next(times))
    # Reference 0.1 s before and 0.2 s after: the host ran at 1/3 of the
    # speed at which the loop takes REF_S on average.
    assert clock.scale() == pytest.approx(2 * harness.REF_S / 0.3)
    # The measurement after one span is the one before the next.
    assert clock.scale() == pytest.approx(2 * harness.REF_S / 0.25)
