"""Dataset generation and the L1/Adam training loop for the throughput net.

Samples are labelled by the simulator: for a random mix and a random valid
mapping, the target is the 3-vector of per-unit inference rates. Targets
are standardized per component and then min-max scaled to [0,1] with
statistics fitted on the training split only.

`train` runs each step on two processes when it can: itself and one worker
forked per call, which reads its rows from its copy of the samples. The
split is by rows: of an n-row batch, this process walks the first n // 2
by `l1_rows` and adds their conv terms into zeros, as `l1_gradients` does,
while the worker walks the rest and keeps its term rows. This process then
sends its partial sums; the worker adds its rows onto them in batch order
and returns them with its (out, dout, GAP) rows, and the head's terms are
taken over the concatenated rows. A validation pass splits its rows the
same way through `forward`. Why the bits hold: the walk is exact row by
row unless a block has one row, and every sum gets the rows of the whole
batch in batch order onto zeros, which is the sum `l1_gradients` makes; so
the weights and the history are the same bytes with or without the worker.
A step of fewer than 4 rows would leave one row on a side, so it runs here
alone, and so does a validation set of fewer than 2 rows, whose first half
would be empty. Only parameter-sized arrays cross the pipe each way: the
parameters, and the partial and the final sums. The worker is forked only
when a step has two blocks or more (`batch_size` > 8), the process may run
on two CPUs and the `fork` start method exists; otherwise every step is
`l1_gradients` and every validation pass `forward`.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import random
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .embedding import _gather, build_embedding, mapped_input
from .errors import DatasetError, MappingError
from .estimator import (
    EstimatorNet,
    TargetStats,
    add_rows,
    head_gradients,
    step_blocks,
    zero_gradients,
)
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


class Label(NamedTuple):
    """One drawn sample without its net input: the mix, its mapping and the
    simulator's per-unit rates. A dataset file holds these."""

    workload: Workload
    mapping: Mapping
    target_raw: tuple[float, ...]


def label_dataset(
    profile: DeviceProfile,
    count: int = 500,
    mix_range: tuple[int, int] = (1, 5),
    seed: int = 0,
) -> list[Label]:
    """Random mixes with random valid mappings, labelled by the simulator.

    Each sample draws from its own string-derived rng, so samples are
    independent of one another and of `count`. A sample draws its mix size
    and models as `rng.randint(lo, hi)` and `rng.sample(range(models), size)`
    would, through `randbelow` and `sample_range`, then its mapping by
    `random_mapping_rng`; `simulate` checks the mapping and labels it.
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
    labels = []
    for i in range(count):
        rng = random.Random(f"ds:{seed}:{i}")
        size = lo + randbelow(rng.getrandbits, hi - lo + 1)
        workload = Workload(tuple(sample_range(rng.getrandbits, 0, len(profile.models), size)))
        mapping = random_mapping_rng(workload, profile, profile.num_units, rng)
        labels.append(Label(workload, mapping, simulate(workload, mapping, profile).per_unit_inf_s))
    return labels


def generate_dataset(
    profile: DeviceProfile,
    count: int = 500,
    mix_range: tuple[int, int] = (1, 5),
    seed: int = 0,
) -> list[Sample]:
    """The samples of `label_dataset`'s labels, each with its net input.
    `simulate` has checked each mapping, so its input is gathered without
    `mapped_input`'s second check."""
    labels = label_dataset(profile, count, mix_range, seed)
    embedding = build_embedding(profile)
    return [
        Sample(
            input=_gather(embedding, workload, [mapping.assignments], profile)[0],
            target_raw=np.array(target_raw, dtype=np.float64),
            target=None,
            workload=workload,
            mapping=mapping,
        )
        for workload, mapping, target_raw in labels
    ]


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
    """Mini-batch Adam on L1 loss; shuffling is fixed per (seed, epoch).

    Each batch and validation set is stacked from `samples` by index, and
    a step may run on two processes (see the module docstring)."""
    if config.train_size + config.val_size != len(samples):
        raise ValueError(
            f"split {config.train_size}+{config.val_size} does not cover "
            f"{len(samples)} samples"
        )
    if config.train_size == 0:
        raise ValueError("empty training set")
    if any(s.target is None for s in samples):
        raise ValueError("dataset targets are not preprocessed")
    if any(s.input.shape != net.input_shape for s in samples):
        raise ValueError(f"sample inputs do not match the net's input shape {net.input_shape}")

    targets = np.stack([s.target for s in samples])
    val_rows = np.arange(config.train_size, len(samples))
    m = {k: np.zeros_like(v) for k, v in net.params.items()}
    v = {k: np.zeros_like(p) for k, p in net.params.items()}
    t = 0
    history: dict[str, list[float]] = {"train_l1": [], "val_l1": []}

    fork = _forks(config.batch_size)
    with _Worker(net, samples, targets) if fork else nullcontext() as worker:
        for epoch in range(config.epochs):
            perm = np.random.default_rng([config.seed, epoch]).permutation(
                config.train_size
            )
            abs_sum = 0.0
            n_terms = 0
            for start in range(0, config.train_size, config.batch_size):
                idx = perm[start : start + config.batch_size]
                pred, grads = _step(net, samples, targets, idx, worker)
                diff = pred - targets[idx]
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
                pred = _validate(net, samples, val_rows, worker)
                history["val_l1"].append(l1_loss(pred, targets[val_rows]))
            else:
                history["val_l1"].append(float("nan"))

    if stats is not None:
        net.target_stats = stats
    return net, history


# ---------------------------------------------------------------------------
# The training step on two processes (see the module docstring)
# ---------------------------------------------------------------------------

def _inputs(samples: list[Sample], rows: np.ndarray) -> np.ndarray:
    return np.stack([samples[i].input for i in rows])


def _step(net, samples, targets, idx, worker) -> tuple[np.ndarray, dict]:
    """One step's output rows and gradients: `l1_gradients` here, or with a
    worker and 4 rows or more, the first half of the rows here and the rest
    in the worker."""
    n = len(idx)
    if not worker or n < 4:
        return net.l1_gradients(_inputs(samples, idx), targets[idx])
    here = idx[: n // 2]
    worker.send(("step", net.params, idx[n // 2 :], n))
    grads = zero_gradients()
    part = net.l1_rows(_inputs(samples, here), targets[here], n, partial(add_rows, grads))
    worker.send(grads)
    rest, grads = worker.recv()
    return head_gradients(grads, [part, rest])


def _validate(net, samples, rows, worker) -> np.ndarray:
    n = len(rows)
    if not worker or n < 2:
        return net.forward(_inputs(samples, rows))
    worker.send(("forward", net.params, rows[n // 2 :], n))
    out = net.forward(_inputs(samples, rows[: n // 2]))
    return np.concatenate([out, worker.recv()])


def _serve(conn, parent_end, net, samples, targets) -> None:
    """The worker's loop: for each request, walk its rows with the
    parameters it carries. It returns when the parent's end of the pipe
    closes. An error is sent to the parent as its message, and then every
    request is read and dropped until that end closes."""
    parent_end.close()  # else the pipe would stay open if the parent died
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
    try:
        while True:
            kind, net.params, rows, n = conn.recv()
            try:
                x = _inputs(samples, rows)
                if kind == "forward":
                    reply = net.forward(x)
                else:
                    kept = []
                    part = net.l1_rows(
                        x, targets[rows], n, lambda name, terms: kept.append((name, terms))
                    )
                    grads = conn.recv()
                    for name, terms in kept:
                        add_rows(grads, name, terms)
                    reply = part, grads
            except Exception as exc:
                conn.send(f"{type(exc).__name__}: {exc}")
                while True:
                    conn.recv()
            conn.send(reply)
    except (EOFError, OSError):
        return


class _Worker:
    """The parent's end of the forked worker. A worker that failed or died
    raises `ChildProcessError` here, at the next send or receive."""

    def __init__(self, net, samples, targets):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve, args=(child_end, self.conn, net, samples, targets), daemon=True
        )
        self.process.start()
        child_end.close()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            raise self._exited() from None

    def recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            raise self._exited() from None
        if isinstance(reply, str):
            raise ChildProcessError(f"training worker failed: {reply}")
        return reply

    def _exited(self) -> ChildProcessError:
        self.process.join()
        return ChildProcessError(f"training worker exited with code {self.process.exitcode}")

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.conn.close()
        self.process.join()


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _forks(batch_size: int) -> bool:
    """Whether `train` forks a worker: when a step has two blocks or more,
    the process may run on two CPUs and the `fork` start method exists."""
    return (
        len(step_blocks(batch_size)) > 1
        and _two_cpus()
        and "fork" in multiprocessing.get_all_start_methods()
    )


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

def save_dataset(
    samples: list[Sample] | list[Label], profile: DeviceProfile, path: str | Path
) -> None:
    """Write the mix, mapping and `target_raw` of each sample or label; the
    net inputs are not written, and `load_dataset` builds them."""
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
