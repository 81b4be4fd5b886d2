"""The pipeboost benchmark: workloads, output checks and metrics.

Every operation goes through `pipeboost.cli.main(argv)`, called in-process,
with inputs the benchmark generates from its seed and passes as files and
flags. See README.md for why each workload exists and what each metric
should predict; `run.py` is the entry point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from pipeboost import cli

MODELS = 11
# One device profile for every seed: the estimator's input width and every
# layer cost follow from it, so a seed-derived profile would make timings
# differ between seeds. The seed picks the mixes, and the training seed on train.
PROFILE_SEED = 0
DATASET_SIZE = 500
TRAIN_RECIPE = ("--batch-size", "32", "--train-size", "400", "--val-size", "100")
TRAIN_EPOCHS = 2  # per `train` operation
# Training is most of schedule-est's set-up time. With this net, 10, 20 and 30
# epochs all gave mappings about as good as GPU-only or better (README.md);
# 30 would add about 15 s to every schedule-est run.
SETUP_EPOCHS = 20
# One dataset, and on schedule-est one net, for every seed. The dataset's
# validation split sets how hard the L1 target is (a seed-derived one spread
# val_l1 by 17% between seeds, the training seed by 3%), and the estimator's
# speed depends on its weights, because numpy's `x**3` takes longer on some
# values than on others.
NET_SEED = 0
SEARCH = ("--budget", "500", "--depth", "100")
STAGE_LIMIT = 3
SCHEDULE_SIZES = (3, 4, 5) * 3  # one mix size per decision of a pass
# compare-sim's 4-model mixes: the same for every seed, which orders them and
# picks each command's seed. Seed-drawn mixes spread decision_ms.tail, the
# slowest of these decisions, by 23 to 26% between seeds.
COMPARE_MIXES = 10
COMPARE_MIX_SEED = 0
METHODS = ("gpu", "random-best", "mosaic", "ga", "mcts")
TAIL_BEYOND = 10
# Side probes: every workload reports every end-to-end metric, so each one
# also runs a few operations of the other kinds, on fixed inputs, so that
# their quality numbers are the same for every seed.
# Each probe repeats one operation, so that its median and maximum come from
# equal work.
SIDE_DECISION_MIX, SIDE_DECISIONS = (1, 5, 9, 2), 3
SIDE_COMPARE_MIX, SIDE_COMPARES = (0, 3, 6, 9), 3
SIDE_SEED = "1"
# Host speed. The machine this was tuned on drifts by up to half its speed
# over seconds to minutes, and a process's CPU time drifts with it. So the
# timed spans of interpreter-bound work (decisions, `compare` and input
# generation) are scaled by the speed of a fixed pure-Python loop run right
# before and right after them: a scaled time is what the span would take on a
# host that runs the loop in REF_S seconds. Training, mostly numpy arithmetic,
# follows the loop's speed only in part, and is reported unscaled (README.md).
REF_ITERATIONS = 600_000
REF_S = 0.05


class CheckFailed(Exception):
    """A command failed or its output is wrong."""


class SetupFailed(Exception):
    """The benchmark could not prepare its inputs."""


# ---------------------------------------------------------------------------
# Helpers with their own tests
# ---------------------------------------------------------------------------

def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value); with `beyond` samples or fewer there is no
    such percentile and the maximum is returned as the 100th.
    """
    xs = sorted(samples)
    if len(xs) <= beyond:
        return 100.0, xs[-1]
    k = len(xs) - beyond - 1
    return 100.0 * (k + 1) / len(xs), xs[k]


def balanced_mixes(rng: random.Random, n_models: int, sizes) -> list[list[int]]:
    """Mixes of distinct models in which every model appears equally often,
    give or take one, so that the total work of a pass hardly depends on the seed."""
    stream: list[int] = []
    mixes = []
    for size in sizes:
        mix: list[int] = []
        while len(mix) < size:
            while len(stream) < size:
                stream.extend(rng.sample(range(n_models), n_models))
            pick = next(m for m in stream if m not in mix)
            stream.remove(pick)
            mix.append(pick)
        mixes.append(mix)
    return mixes


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Scale factors for timed spans: REF_S over the mean of the reference
    loop's time just before and just after the span."""

    def __init__(self, reference=reference_seconds):
        self.reference = reference
        self.scales: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Measure the host right before a span starts."""
        self.before = self.reference()

    def scale(self) -> float:
        """Measure the host right after a span; the span's scale factor. The
        measurement also serves as the next span's `mark`."""
        after = self.reference()
        factor = 2 * REF_S / (self.before + after)
        self.before = after
        self.scales.append(factor)
        return factor


def pipeboost(*argv: str) -> str:
    """Run one CLI command in-process and return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    if code != 0:
        raise CheckFailed(f"`{argv[0]}` exited with {code}: {err.getvalue().strip()}")
    return out.getvalue()


def simulated_t(profile: Path, mapping: Path) -> float:
    report = json.loads(pipeboost("simulate", "--profile", str(profile), "--mapping", str(mapping)))
    t = report["avg_throughput"]
    if not (math.isfinite(t) and t > 0):
        raise CheckFailed(f"simulated T of {mapping.name} is {t}")
    return t


def norm_t(profile: Path, mapping: Path) -> float:
    """Simulated T of a mapping file over that of the GPU-only mapping of its mix."""
    units = json.loads(profile.read_text())["units"]
    gpu = next(u["id"] for u in units if u["kind"] == "gpu")
    chosen = json.loads(mapping.read_text())
    gpu_only = mapping.with_name(mapping.stem + ".gpu.json")
    gpu_only.write_text(json.dumps({
        "workload": chosen["workload"],
        "assignments": [[gpu] * len(a) for a in chosen["assignments"]],
    }))
    return simulated_t(profile, mapping) / simulated_t(profile, gpu_only)


def stage_counts(assignments) -> list[int]:
    return [1 + sum(a != b for a, b in zip(seq, seq[1:])) for seq in assignments]


# ---------------------------------------------------------------------------
# Operations and the measuring loop
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed; an attempt is a decision, a `compare`
    cell or a `train` command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)


@dataclass
class Outcome:
    """What one operation returned: its value, a fingerprint of its output that
    a repeat must reproduce, its failed attempts, its timed wall seconds and
    the host-speed scale of the operation."""

    value: object
    fingerprint: str
    failures: int = 0
    why: str = ""
    seconds: float | None = None
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def run_op(op, attempts: int, tally: Tally, clock: HostClock, first: Outcome | None = None):
    """Run one operation; a raised error or a failed check is a failed operation."""
    tally.attempted += attempts
    t0 = time.perf_counter()
    try:
        outcome = op()
    except Exception as exc:  # any failure of the program counts, none stops the run
        clock.mark()
        tally.fail(attempts, f"{type(exc).__name__}: {exc}")
        return None
    if outcome.seconds is None:
        outcome.seconds = time.perf_counter() - t0
    outcome.scale = clock.scale()
    if outcome.failures:
        tally.fail(outcome.failures, outcome.why)
    if first is not None and outcome.fingerprint != first.fingerprint:
        tally.fail(attempts - outcome.failures, "a repeated operation gave another output")
        return None
    return outcome


def measure(ops, attempts: int, seconds: float, tally: Tally, clock: HostClock, between=None):
    """Run one pass over `ops`, then repeat them from the start while the next
    one is expected to end within `seconds`, calling `between()` after each.
    A repeat must reproduce the first pass's output. Returns the first pass's
    outcomes (None where one failed) and (run index, outcome) for every
    operation that succeeded."""
    first: list[Outcome | None] = []
    done: list[tuple[int, Outcome]] = []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        k = i % len(ops)
        outcome = run_op(ops[k], attempts, tally, clock, first[k] if i >= len(ops) else None)
        if i < len(ops):
            first.append(outcome)
        if outcome is not None:
            done.append((i, outcome))
        if between is not None:
            between()
        i += 1
    return first, done


def run_side(op, repeats: int, attempts: int, tally: Tally, clock: HostClock) -> list[Outcome]:
    """Run a side-probe operation `repeats` times; every repeat must reproduce
    the first. Returns the outcomes that succeeded."""
    first = run_op(op, attempts, tally, clock)
    done = [run_op(op, attempts, tally, clock, first) for _ in range(repeats - 1)] if first else []
    return [o for o in [first, *done] if o is not None]


# ---------------------------------------------------------------------------
# Metrics of each kind of operation
# ---------------------------------------------------------------------------

def train_metrics(outcomes: list[Outcome], epochs: int) -> dict:
    """From `train` commands of `epochs` epochs: wall seconds per epoch, and
    the final validation L1 of the first."""
    if not outcomes:
        return {}
    return {
        "train.epoch_s": (statistics.median(o.seconds for o in outcomes) / epochs, "s"),
        "train.val_l1": (outcomes[0].value, "l1"),
    }


def decision_metrics(ms: list[float], pass_ms: list[float], norms: list[float]) -> dict:
    """From decision latencies in scaled ms, of every decision and of the first
    pass's, and the norm_T of the first pass's mappings. The tail comes from
    the pass alone, so that it is the same order statistic in every run: with
    repeats the count would vary, and from 11 to 20 decisions the rule's
    percentile is at or below the median."""
    if not ms or not pass_ms or not norms:
        return {}
    pct, tail = tail_percentile(pass_ms)
    print(f"decision_ms.p50 is of {len(ms)} decisions, "
          f"decision_ms.tail is p{pct:.1f} of the pass's {len(pass_ms)}")
    return {
        "decision_ms.p50": (statistics.median(ms), "ms"),
        "decision_ms.tail": (tail, "ms"),
        "norm_T.mcts": (statistics.fmean(norms), "ratio"),
    }


def compare_metrics(outcomes: list[Outcome], first: list[Outcome], methods) -> dict:
    """From `compare` commands: scaled seconds per command, and the mean
    normalized T of each of `methods` over the first pass's mixes."""
    if not outcomes:
        return {}
    out = {"compare_s": (statistics.median(o.scaled_s for o in outcomes), "s")}
    for method in methods:
        vals = [o.value[method] for o in first if method in o.value]
        if vals:
            out[f"norm_T.{method}"] = (statistics.fmean(vals), "ratio")
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, a warm-up, side probes and a pass of timed operations."""

    attempts = 1  # attempts per operation of the pass

    def __init__(self, seed: int, work: Path, tally: Tally, clock: HostClock):
        self.rng = random.Random(f"pipeboost-bench:{seed}")
        self.work = work
        self.tally = tally
        self.clock = clock
        self.profile = work / "profile.json"
        self.dataset = work / "dataset.json"
        self.setup_extra_s = 0.0
        self.seeds = {"workload": seed, "profile": PROFILE_SEED, "dataset": NET_SEED,
                      "side": int(SIDE_SEED)}

    def draw_seed(self, name: str | None = None) -> str:
        """A seed for one command, derived from the workload seed; named ones are recorded."""
        seed = self.rng.randrange(1 << 30)
        if name:
            self.seeds[name] = seed
        return str(seed)

    def generate_inputs(self) -> float:
        """Generate the profile and the dataset; the scaled seconds it took."""
        self.clock.mark()
        t0 = time.perf_counter()
        try:
            pipeboost("genprofile", "--models", str(MODELS), "--seed", str(PROFILE_SEED),
                      "--out", str(self.profile))
            pipeboost("dataset", "--profile", str(self.profile), "--count", str(DATASET_SIZE),
                      "--mix-min", "1", "--mix-max", "5", "--seed", str(NET_SEED),
                      "--out", str(self.dataset))
        except CheckFailed as exc:
            raise SetupFailed(str(exc)) from None
        seconds = time.perf_counter() - t0
        return seconds * self.clock.scale()

    def setup(self) -> None:
        """Set-up beyond the inputs; adds its wall seconds to `setup_extra_s`."""

    def names(self, mix) -> str:
        return ",".join(f"net{m:02d}" for m in mix)

    def train(self, epochs: int, seed: str, tag: str) -> Outcome:
        """One `train` command; every loss it reports must be finite."""
        weights, history = self.work / f"{tag}.bin", self.work / f"{tag}.csv"
        pipeboost("train", "--profile", str(self.profile), "--dataset", str(self.dataset),
                  *TRAIN_RECIPE, "--epochs", str(epochs), "--seed", seed,
                  "--out", str(weights), "--history", str(history))
        text = history.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        losses = [float(r[k]) for r in rows for k in ("train_l1", "val_l1")]
        if len(rows) != epochs or not all(map(math.isfinite, losses)):
            raise CheckFailed(f"history has {len(rows)} rows for {epochs} epochs, "
                              f"{sum(not math.isfinite(v) for v in losses)} non-finite losses")
        return Outcome(float(rows[-1]["val_l1"]), text)

    def decide(self, mix, seed: str, weights: Path, tag: str) -> Outcome:
        """One estimator-guided `schedule` decision, timed alone; its value is
        the mapping's norm_T."""
        mapping = self.work / f"{tag}.json"
        t0 = time.perf_counter()
        pipeboost("schedule", "--profile", str(self.profile), "--mix", self.names(mix),
                  "--weights", str(weights), "--evaluator", "estimator", *SEARCH,
                  "--stage-limit", str(STAGE_LIMIT), "--seed", seed, "--out", str(mapping))
        seconds = time.perf_counter() - t0
        text = mapping.read_text()
        chosen = json.loads(text)
        if chosen["workload"] != self.names(mix).split(","):
            raise CheckFailed(f"mapping is for {chosen['workload']}, not {mix}")
        if max(stage_counts(chosen["assignments"])) > STAGE_LIMIT:
            raise CheckFailed(f"mapping has {stage_counts(chosen['assignments'])} stages")
        return Outcome(norm_t(self.profile, mapping), text, seconds=seconds)

    def compare(self, mix, seed: str) -> Outcome:
        """One simulator-guided `compare` of every method on one mix. Every cell
        must be present and finite, and GPU-only normalizes to exactly 1. Its
        value maps each good method to its normalized T, and "mcts_ms" to the
        MCTS cell's decision time."""
        out = pipeboost("compare", "--profile", str(self.profile), "--evaluator", "simulator",
                        "--mix", self.names(mix), "--methods", ",".join(METHODS), *SEARCH,
                        "--stage-limit", str(STAGE_LIMIT), "--format", "json", "--seed", seed)
        rows = {r["method"]: r for r in json.loads(out)["rows"] if r["mix_id"] == 0}
        value = {}
        for method in METHODS:
            row = rows.get(method)
            values = [row[k] for k in ("avg_throughput", "normalized", "decision_ms")] if row else []
            ok = row is not None and all(isinstance(v, (int, float)) and math.isfinite(v)
                                         for v in values)
            if ok and (method != "gpu" or row["normalized"] == 1.0):
                value[method] = row["normalized"]
        if "mcts" in value:
            value["mcts_ms"] = rows["mcts"]["decision_ms"]
        fingerprint = json.dumps([(m, r["avg_throughput"], r["normalized"])
                                  for m, r in sorted(rows.items())])
        bad = [m for m in METHODS if m not in value]
        return Outcome(value, fingerprint, failures=len(bad), why=f"bad cells {bad}")

    def side_compare(self) -> dict:
        """`compare_s` and the baselines' norm_T from the fixed side mixes."""
        done = run_side(lambda: self.compare(SIDE_COMPARE_MIX, SIDE_SEED), SIDE_COMPARES,
                        len(METHODS), self.tally, self.clock)
        return compare_metrics(done, done, ("random-best", "mosaic", "ga"))


class TrainWorkload(Workload):
    """`train` commands on the 500-sample dataset, 400/100 split, batch 32.
    Side probes: decisions with a 2-epoch net, and `compare` commands."""

    def warm_up(self) -> None:
        self.train_seed = self.draw_seed("train")
        # The side decisions' net; training it is also the warm-up.
        self.tally.attempted += 1
        try:
            self.train(TRAIN_EPOCHS, SIDE_SEED, "side-net")
        except CheckFailed as exc:
            raise SetupFailed(f"warm-up training failed: {exc}") from None
        self.clock.mark()

    def side(self) -> dict:
        weights = self.work / "side-net.bin"
        done = run_side(lambda: self.decide(SIDE_DECISION_MIX, SIDE_SEED, weights, "side"),
                        SIDE_DECISIONS, 1, self.tally, self.clock)
        ms = [o.scaled_s * 1000.0 for o in done]
        metrics = decision_metrics(ms, ms, [o.value for o in done])
        metrics.update(self.side_compare())
        return metrics

    def ops(self):
        return [lambda: self.train(TRAIN_EPOCHS, self.train_seed, "train")]

    def metrics(self, first, done) -> dict:
        return train_metrics([o for _, o in done], TRAIN_EPOCHS)


class ScheduleEstWorkload(Workload):
    """Estimator-guided `schedule` decisions on mixes of 3 to 5 models, each
    scored against GPU-only with `simulate`. Side probes: `compare` commands;
    the set-up training gives the `train.*` metrics."""

    def setup(self) -> None:
        self.weights = self.work / "net.bin"
        self.tally.attempted += 1  # the set-up `train` command is an attempt too
        t0 = time.perf_counter()
        try:
            net = self.train(SETUP_EPOCHS, str(NET_SEED), "net")
        except CheckFailed as exc:
            raise SetupFailed(f"set-up training failed: {exc}") from None
        net.seconds = time.perf_counter() - t0
        self.seeds["net"] = NET_SEED
        self.setup_extra_s = net.seconds
        self.net_metrics = train_metrics([net], SETUP_EPOCHS)

    def warm_up(self) -> None:
        self.mixes = balanced_mixes(self.rng, MODELS, SCHEDULE_SIZES)
        self.decision_seeds = [self.draw_seed() for _ in self.mixes]
        warm = self.rng.sample(range(MODELS), 4)
        run_op(lambda: self.decide(warm, self.draw_seed(), self.weights, "warmup"), 1,
               Tally(), self.clock)

    def side(self) -> dict:
        return dict(self.net_metrics, **self.side_compare())

    def ops(self):
        return [
            (lambda mix=mix, seed=seed, i=i: self.decide(mix, seed, self.weights, f"decision{i}"))
            for i, (mix, seed) in enumerate(zip(self.mixes, self.decision_seeds))
        ]

    def metrics(self, first, done) -> dict:
        return decision_metrics([o.scaled_s * 1000.0 for _, o in done],
                                [o.scaled_s * 1000.0 for o in first], [o.value for o in first])


class CompareSimWorkload(Workload):
    """One simulator-guided `compare` of every method per 4-model mix; the
    MCTS cells are the decisions. Side probe: one `train` command."""

    attempts = len(METHODS)

    def warm_up(self) -> None:
        self.mixes = balanced_mixes(random.Random(COMPARE_MIX_SEED), MODELS, [4] * COMPARE_MIXES)
        self.rng.shuffle(self.mixes)
        self.compare_seeds = [self.draw_seed() for _ in self.mixes]
        warm = self.rng.sample(range(MODELS), 4)
        run_op(lambda: self.compare(warm, self.draw_seed()), self.attempts, Tally(), self.clock)
        # The side `train` is this process's first; warm its code up on a few samples.
        small = self.work / "warmup-dataset.json"
        try:
            pipeboost("dataset", "--profile", str(self.profile), "--count", "40",
                      "--seed", str(NET_SEED), "--out", str(small))
            pipeboost("train", "--profile", str(self.profile), "--dataset", str(small),
                      "--train-size", "32", "--val-size", "8", "--epochs", "1",
                      "--out", str(self.work / "warmup.bin"))
        except CheckFailed as exc:
            raise SetupFailed(f"warm-up training failed: {exc}") from None
        self.clock.mark()

    def side(self) -> dict:
        done = run_side(lambda: self.train(TRAIN_EPOCHS, SIDE_SEED, "side-net"), 1, 1,
                        self.tally, self.clock)
        return train_metrics(done, TRAIN_EPOCHS)

    def ops(self):
        return [
            (lambda mix=mix, seed=seed: self.compare(mix, seed))
            for mix, seed in zip(self.mixes, self.compare_seeds)
        ]

    def metrics(self, first, done) -> dict:
        def mcts_ms(outcomes):
            return [o.value["mcts_ms"] * o.scale for o in outcomes if "mcts_ms" in o.value]

        metrics = decision_metrics(mcts_ms(o for _, o in done), mcts_ms(first),
                                   [o.value["mcts"] for o in first if "mcts" in o.value])
        metrics.update(compare_metrics([o for _, o in done], first, METHODS[1:]))
        return metrics


WORKLOADS = {
    "train": TrainWorkload,
    "schedule-est": ScheduleEstWorkload,
    "compare-sim": CompareSimWorkload,
}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def environment(blas_threads: int, workload: Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": blas_threads,
        "setup_epochs": SETUP_EPOCHS,
        "train_epochs": TRAIN_EPOCHS,
        "seeds": workload.seeds,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        blas_threads: int) -> dict:
    """Set up, warm up and measure one workload; return the result object."""
    tally = Tally()
    clock = HostClock()
    wl = WORKLOADS[name](seed, work, tally, clock)
    inputs_s = [wl.generate_inputs()]
    wl.setup()
    wl.warm_up()
    ops = wl.ops()
    if trace:
        metrics = traced_pass(wl, ops, tally)
    else:
        t0 = time.perf_counter()
        metrics = wl.side()
        # The inputs are generated again after every operation, so that the
        # median set-up time samples the whole run, as the other timings do.
        first, done = measure(ops, wl.attempts, seconds - (time.perf_counter() - t0), tally,
                              clock, lambda: inputs_s.append(wl.generate_inputs()))
        first = [o for o in first if o is not None]
        if first:
            metrics.update(wl.metrics(first, done))
        metrics["setup_s"] = (statistics.median(inputs_s) + wl.setup_extra_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        scales = sorted(clock.scales)
        print(f"host scale: median {statistics.median(scales):.3f}, "
              f"range {scales[0]:.3f} to {scales[-1]:.3f} over {len(scales)} spans")
    print("env: " + json.dumps(environment(blas_threads, wl)))
    for why in tally.errors:
        print(f"failed: {why}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_pass(wl: Workload, ops, tally: Tally) -> dict:
    """One untraced pass, then the same pass traced; per-layer metrics and the
    tracing overhead. The traced pass must reproduce the untraced outputs."""
    t0 = time.perf_counter()
    first, _ = measure(ops, wl.attempts, 0.0, tally, wl.clock)
    plain_s = time.perf_counter() - t0
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        t0 = time.perf_counter()
        for op, ref in zip(ops, first):
            if ref is not None:
                run_op(op, wl.attempts, tally, wl.clock, ref)
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    print(f"pass: untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    print(f"{'span':32} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
    for span, (calls, busy, own) in sorted(tr.spans.items()):
        print(f"{span:32} {calls:>10} {busy:>10.4f} {own:>10.4f}")
    return metrics
