"""Dataset generation and the L1/Adam training loop for the throughput net.

Samples are labelled by the simulator: for a random mix and a random valid
mapping, the target is the 3-vector of per-unit inference rates. Targets
are standardized per component and then min-max scaled to [0,1] with
statistics fitted on the training split only.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import _gather, build_embedding, mapped_input
from .errors import DatasetError, MappingError
from .estimator import EstimatorNet, TargetStats
from .simulator import (
    Mapping,
    _mapping_from_dict,
    random_mapping_rng,
    randbelow,
    sample_range,
    simulate,
)
from .workload import DeviceProfile, Workload, _check_keys, _float, _read_json, _typed


# Adam's step size, moment decay rates and the guard added to its denominator.
_LEARNING_RATE = 1e-3
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class Sample:
    input: np.ndarray  # (units, models, max_layers) masked cost tensor
    target_raw: np.ndarray  # (3,) per-unit inferences/second from the simulator
    target: np.ndarray | None  # (3,) preprocessed, None until preprocessing
    workload: Workload
    mapping: Mapping


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    train_size: int = 400
    val_size: int = 100

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.train_size < 0 or self.val_size < 0:
            raise ValueError("split sizes must be non-negative")


def generate_dataset(
    profile: DeviceProfile,
    count: int = 500,
    mix_range: tuple[int, int] = (1, 5),
    seed: int = 0,
) -> list[Sample]:
    """Random mixes with random valid mappings, labelled by the simulator.

    Each sample draws from its own string-derived rng, so samples are
    independent of one another and of `count`. A sample draws its mix size
    and models as `rng.randint(lo, hi)` and `rng.sample(range(models), size)`
    would, through `randbelow` and `sample_range`, then its mapping by
    `random_mapping_rng`. `simulate` checks the mapping, so its input is
    gathered without `mapped_input`'s second check.
    """
    if count < 1:
        raise ValueError(f"dataset count must be >= 1, got {count}")
    lo, hi = mix_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad mix range ({lo}, {hi})")
    if len(profile.models) < hi:
        raise ValueError(
            f"profile has {len(profile.models)} models, need at least {hi}"
        )
    embedding = build_embedding(profile)
    samples = []
    for i in range(count):
        rng = random.Random(f"ds:{seed}:{i}")
        size = lo + randbelow(rng.getrandbits, hi - lo + 1)
        workload = Workload(tuple(sample_range(rng.getrandbits, 0, len(profile.models), size)))
        mapping = random_mapping_rng(workload, profile, profile.num_units, rng)
        report = simulate(workload, mapping, profile)
        x = _gather(embedding, workload, [mapping.assignments], profile)[0]
        samples.append(
            Sample(
                input=x,
                target_raw=np.array(report.per_unit_inf_s, dtype=np.float64),
                target=None,
                workload=workload,
                mapping=mapping,
            )
        )
    return samples


def preprocess_targets(
    samples: list[Sample], train_count: int | None = None
) -> tuple[TargetStats, list[Sample]]:
    """Fit stats on the first `train_count` samples, transform all of them."""
    if train_count is None:
        train_count = len(samples)
    stats = TargetStats.fit(np.stack([s.target_raw for s in samples[:train_count]]))
    out = [
        Sample(
            input=s.input,
            target_raw=s.target_raw,
            target=stats.transform(s.target_raw),
            workload=s.workload,
            mapping=s.mapping,
        )
        for s in samples
    ]
    return stats, out


def l1_loss(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.abs(pred - target).mean())


def train(
    net: EstimatorNet,
    samples: list[Sample],
    config: TrainConfig,
    stats: TargetStats | None = None,
) -> tuple[EstimatorNet, dict[str, list[float]]]:
    """Mini-batch Adam on L1 loss; shuffling is fixed per (seed, epoch)."""
    if config.train_size + config.val_size != len(samples):
        raise ValueError(
            f"split {config.train_size}+{config.val_size} does not cover "
            f"{len(samples)} samples"
        )
    if config.train_size == 0:
        raise ValueError("empty training set")
    if any(s.target is None for s in samples):
        raise ValueError("dataset targets are not preprocessed")

    x_train = np.stack([s.input for s in samples[: config.train_size]])
    y_train = np.stack([s.target for s in samples[: config.train_size]])
    x_val = y_val = None
    if config.val_size:
        x_val = np.stack([s.input for s in samples[config.train_size :]])
        y_val = np.stack([s.target for s in samples[config.train_size :]])

    m = {k: np.zeros_like(v) for k, v in net.params.items()}
    v = {k: np.zeros_like(p) for k, p in net.params.items()}
    t = 0
    history: dict[str, list[float]] = {"train_l1": [], "val_l1": []}

    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, epoch]).permutation(
            config.train_size
        )
        abs_sum = 0.0
        n_terms = 0
        for start in range(0, config.train_size, config.batch_size):
            idx = perm[start : start + config.batch_size]
            pred, grads = net.l1_gradients(x_train[idx], y_train[idx])
            diff = pred - y_train[idx]
            abs_sum += float(np.abs(diff).sum())
            n_terms += diff.size
            t += 1
            for k in EstimatorNet.PARAM_ORDER:
                g = grads[k]
                m[k] *= _BETA1
                m[k] += (1 - _BETA1) * g
                v[k] *= _BETA2
                v[k] += (1 - _BETA2) * g * g
                m_hat = m[k] / (1 - _BETA1**t)
                v_hat = v[k] / (1 - _BETA2**t)
                net.params[k] -= _LEARNING_RATE * m_hat / (np.sqrt(v_hat) + _EPS)
        history["train_l1"].append(abs_sum / n_terms)
        if config.val_size:
            pred = net.forward(x_val)
            history["val_l1"].append(l1_loss(pred, y_val))
        else:
            history["val_l1"].append(float("nan"))

    if stats is not None:
        net.target_stats = stats
    return net, history


def gradient_check(
    net: EstimatorNet,
    x: np.ndarray,
    y: np.ndarray,
    n_checks: int = 1000,
    h: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    _, grads = net.l1_gradients(x, y)

    index = [
        (name, i) for name in EstimatorNet.PARAM_ORDER
        for i in range(net.params[name].size)
    ]
    rng = random.Random(seed)
    picks = rng.sample(index, min(n_checks, len(index)))
    worst = 0.0
    for name, i in picks:
        p = net.params[name]
        orig = p.flat[i]
        p.flat[i] = orig + h
        lo_plus = l1_loss(net.forward(x), y)
        p.flat[i] = orig - h
        lo_minus = l1_loss(net.forward(x), y)
        p.flat[i] = orig
        fd = (lo_plus - lo_minus) / (2 * h)
        analytic = grads[name].flat[i]
        worst = max(worst, abs(analytic - fd) / max(1.0, abs(analytic)))
    return worst


# ---------------------------------------------------------------------------
# Persistence: dataset JSON (inputs rebuilt from the profile) and history CSV
# ---------------------------------------------------------------------------

def save_dataset(samples: list[Sample], profile: DeviceProfile, path: str | Path) -> None:
    rows = [
        {**s.mapping.to_dict(profile, s.workload), "target_raw": [float(v) for v in s.target_raw]}
        for s in samples
    ]
    Path(path).write_text(json.dumps({"samples": rows}) + "\n")


def load_dataset(path: str | Path, profile: DeviceProfile) -> list[Sample]:
    data = _read_json(path, "dataset", DatasetError)
    _check_keys(data, ("samples",), str(path), DatasetError)
    embedding = build_embedding(profile)
    samples = []
    for i, row in enumerate(_typed(data["samples"], list, f"{path}: samples", DatasetError)):
        ctx = f"{path}: samples[{i}]"
        _check_keys(row, ("workload", "assignments", "target_raw"), ctx, DatasetError)
        workload, mapping = _mapping_from_dict(row, profile, ctx, DatasetError)
        target = _typed(row["target_raw"], list, f"{ctx}: target_raw", DatasetError)
        if len(target) != profile.num_units:
            raise DatasetError(
                f"{ctx}: target_raw must be a list of {profile.num_units} numbers"
            )
        target = [_float(v, f"{ctx}: target_raw", DatasetError) for v in target]
        try:
            x = mapped_input(embedding, workload, mapping, profile)
        except MappingError as exc:
            raise DatasetError(f"{ctx}: {exc}") from None
        samples.append(
            Sample(
                input=x,
                target_raw=np.array(target, dtype=np.float64),
                target=None,
                workload=workload,
                mapping=mapping,
            )
        )
    return samples


def save_history_csv(history: dict[str, list[float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_l1", "val_l1"])
        for i, (tr, vl) in enumerate(zip(history["train_l1"], history["val_l1"]), 1):
            writer.writerow([i, f"{tr:.10g}", f"{vl:.10g}"])
