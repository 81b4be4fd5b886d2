"""Per-layer tracing for the benchmark's traced run, installed from outside pipeboost.

`install` replaces pipeboost's public functions with timing wrappers at every
module that binds them (each `from .simulator import simulate` makes its own
name), and `Tracer.uninstall` puts the originals back. Spans nest: a span's
self time is its duration minus the time its child spans cover. Spans are
aggregated by name as they close, because `layer_cost` alone is called
millions of times in one pass.

A function that pipeboost no longer has is skipped rather than breaking the
run. Its metrics report zero, as do those of a function that was not called,
because the benchmark's result must hold every per-layer metric.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module or module.Class, attribute, span name). One span name may be bound
# in several modules; every binding gets the same wrapper behaviour.
WRAP_POINTS = (
    ("workload", "layer_cost", "workload.layer_cost"),
    ("simulator", "layer_cost", "workload.layer_cost"),
    ("embedding", "layer_cost", "workload.layer_cost"),
    ("baselines", "layer_cost", "workload.layer_cost"),
    ("simulator", "simulate", "simulator.simulate"),
    ("evaluators", "simulate", "simulator.simulate"),
    ("baselines", "simulate", "simulator.simulate"),
    ("cli", "simulate", "simulator.simulate"),
    ("training", "simulate", "simulator.simulate"),
    ("simulator", "validate_mapping", "simulator.validate_mapping"),
    ("embedding", "validate_mapping", "simulator.validate_mapping"),
    ("embedding", "build_mask", "embedding.build_mask"),
    ("evaluators", "build_mask", "embedding.build_mask"),
    ("estimator", "build_mask", "embedding.build_mask"),
    ("training", "build_mask", "embedding.build_mask"),
    ("estimator", "gelu", "estimator.gelu"),
    ("estimator", "gelu_grad", "estimator.gelu_grad"),
    ("mcts", "apply", "mcts.apply"),
    ("mcts", "rollout", "mcts.rollout"),
    ("mcts", "evaluate_terminal", "mcts.evaluate"),
    ("baselines", "ga_schedule", "baselines.ga"),
    ("baselines", "merge_to_limit", "baselines.merge_to_limit"),
    ("baselines", "mosaic_schedule", "baselines.mosaic"),
    ("baselines", "random_best", "baselines.random_best"),
    ("cli", "main", "cli.main"),
)

# Span name -> its per-layer metrics: (metric name, statistic).
SPAN_METRICS = {
    "workload.layer_cost": (("workload.layer_cost.calls", "calls"),),
    "simulator.simulate": (
        ("simulator.simulate.calls", "calls"),
        ("simulator.simulate.us_per_call", "us_per_call"),
    ),
    "simulator.validate_mapping": (("simulator.validate_mapping.calls", "calls"),),
    "embedding.build_mask": (
        ("embedding.build_mask.calls", "calls"),
        ("embedding.build_mask.us_per_call", "us_per_call"),
    ),
    "estimator.forward.b1": (("estimator.forward.b1.us_per_call", "us_per_call"),),
    "estimator.forward.b32": (("estimator.forward.b32.us_per_call", "us_per_call"),),
    "estimator.backward.b32": (("estimator.backward.b32.us_per_call", "us_per_call"),),
    "estimator.gelu": (("estimator.gelu.busy_s", "busy_s"),),
    "estimator.gelu_grad": (("estimator.gelu_grad.busy_s", "busy_s"),),
    "evaluators.score": (
        ("evaluators.score.calls", "calls"),
        ("evaluators.score.us_per_call", "us_per_call"),
    ),
    "mcts.apply": (("mcts.apply.calls", "calls"),),
    "mcts.rollout": (("mcts.rollout.busy_s", "busy_s"),),
    "mcts.evaluate": (("mcts.evaluate.busy_s", "busy_s"),),
    "mcts.schedule": (("mcts.tree.self_s", "self_s"),),
    "baselines.ga": (("baselines.ga.busy_s", "busy_s"),),
    "baselines.merge_to_limit": (
        ("baselines.merge_to_limit.calls", "calls"),
        ("baselines.merge_to_limit.busy_s", "busy_s"),
    ),
    "baselines.mosaic": (("baselines.mosaic.busy_s", "busy_s"),),
    "baselines.random_best": (("baselines.random_best.busy_s", "busy_s"),),
    "cli.main": (("cli.self_s", "self_s"),),
}

UNITS = {"calls": "count", "us_per_call": "us", "busy_s": "s", "self_s": "s"}

# Metrics derived from hook state rather than from one span; zero until a
# hook reports them.
DERIVED_METRICS = {
    "evaluators.score_batch.mean_size": "count",
    "evaluators.distinct_ratio": "ratio",
    "mcts.iterations": "count",
    "mcts.best_at_frac": "ratio",
    "training.train.self_s_per_epoch": "s",
}


class Tracer:
    """Aggregates nested spans by name into calls, busy (inclusive) and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.extra: dict[str, tuple[float, str]] = {}  # derived metrics
        self.reports: list = []  # callables that fill `extra` from hook state
        self._open: list[float] = []  # child seconds of each open span
        self._restore: list[tuple[object, str, object]] = []

    def begin(self) -> float:
        self._open.append(0.0)
        return self.clock()

    def end(self, name: str, t0: float) -> None:
        dt = self.clock() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += dt
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child

    def wrap(self, fn, name: str, label=None):
        """Time every call of `fn` as span `name`, or `name.<label(*args)>`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if label is None else f"{name}.{label(*args, **kwargs)}"
            t0 = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span, t0)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def stat(self, span: str, what: str) -> float:
        calls, busy, own = self.spans.get(span, (0, 0.0, 0.0))
        if what == "calls":
            return calls
        if what == "us_per_call":
            return busy / calls * 1e6 if calls else 0.0
        return busy if what == "busy_s" else own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        out = {name: (0.0, unit) for name, unit in DERIVED_METRICS.items()}
        for span, wanted in SPAN_METRICS.items():
            for metric, what in wanted:
                out[metric] = (self.stat(span, what), UNITS[what])
        for report in self.reports:
            report()
        out.update(self.extra)
        return out


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"pipeboost.{module}")
    return getattr(obj, cls, None) if cls else obj


def _batch(x) -> int:
    return 1 if x.ndim == 3 else x.shape[0]


def install(tracer: Tracer) -> None:
    """Wrap every traced pipeboost function that exists; see the module docstring."""
    for path, attr, name in WRAP_POINTS:
        owner = _resolve(path)
        if owner is not None and attr in vars(owner):
            tracer.patch(owner, attr, tracer.wrap(vars(owner)[attr], name))

    net = _resolve("estimator.EstimatorNet")
    for attr, name, label in (
        ("forward_with_cache", "estimator.forward", lambda self, x: f"b{_batch(x)}"),
        ("backward", "estimator.backward", lambda self, cache, dout: f"b{len(dout)}"),
    ):
        if net is not None and attr in vars(net):
            tracer.patch(net, attr, tracer.wrap(vars(net)[attr], name, label))

    _install_scoring(tracer)
    _install_search(tracer)
    _install_training(tracer)


def _install_scoring(tracer: Tracer) -> None:
    """Evaluator calls, batch sizes, and the share of distinct mappings scored.

    A mapping counts once per evaluator object: an evaluation cache would live
    on the evaluator, which one `compare` command shares between methods.
    Scores made inside another evaluator call (SimulatorEvaluator.score_batch
    calls score) are not counted twice.
    """
    depth = [0]
    seen: set = set()
    totals = {"scores": 0, "batches": 0, "batched": 0}

    def scoring(fn, batched):
        name = "evaluators.score_batch" if batched else "evaluators.score"

        @functools.wraps(fn)
        def wrapper(self, workload, arg, *rest, **kwargs):
            if depth[0] == 0:
                items = list(arg) if batched else [arg]
                totals["scores"] += len(items)
                seen.update((self, workload, m) for m in items)
            if batched:
                totals["batches"] += 1
                totals["batched"] += len(arg)
            depth[0] += 1
            t0 = tracer.begin()
            try:
                return fn(self, workload, arg, *rest, **kwargs)
            finally:
                depth[0] -= 1
                tracer.end(name, t0)

        return wrapper

    found = False
    for cls in ("EstimatorEvaluator", "SimulatorEvaluator"):
        owner = _resolve(f"evaluators.{cls}")
        for attr, batched in (("score", False), ("score_batch", True)):
            if owner is not None and attr in vars(owner):
                tracer.patch(owner, attr, scoring(vars(owner)[attr], batched))
                found = True
    if not found:
        return

    def report():
        b, s = totals["batches"], totals["scores"]
        tracer.extra["evaluators.score_batch.mean_size"] = (
            totals["batched"] / b if b else 0.0, "count")
        tracer.extra["evaluators.distinct_ratio"] = (len(seen) / s if s else 0.0, "ratio")

    tracer.reports.append(report)


def _install_search(tracer: Tracer) -> None:
    """MCTS iterations and the share of the budget spent when the best score
    last improved, averaged over searches."""
    mcts = _resolve("mcts")
    if "schedule" not in vars(mcts):
        return
    searches: list[list] = []  # per open search: [rewards seen, best, index of best]
    fracs: list[float] = []
    iterations = [0]
    schedule = vars(mcts)["schedule"]

    @functools.wraps(schedule)
    def traced_schedule(*args, **kwargs):
        searches.append([0, float("-inf"), 0])
        t0 = tracer.begin()
        try:
            mapping, stats = schedule(*args, **kwargs)
        finally:
            tracer.end("mcts.schedule", t0)
            rewards, _, best_at = searches.pop()
        iterations[0] += stats["iterations"]
        if rewards:
            fracs.append(best_at / stats["iterations"])
        return mapping, stats

    tracer.patch(mcts, "schedule", traced_schedule)

    evaluate = vars(mcts).get("evaluate_terminal")  # the span wrapper from WRAP_POINTS
    if evaluate is not None:

        @functools.wraps(evaluate)
        def observed(*args, **kwargs):
            reward = evaluate(*args, **kwargs)
            if searches:
                rec = searches[-1]
                rec[0] += 1
                if reward > rec[1]:
                    rec[1], rec[2] = reward, rec[0]
            return reward

        tracer.patch(mcts, "evaluate_terminal", observed)

    def report():
        tracer.extra["mcts.iterations"] = (iterations[0], "count")
        if evaluate is not None:
            tracer.extra["mcts.best_at_frac"] = (
                sum(fracs) / len(fracs) if fracs else 0.0, "ratio")

    tracer.reports.append(report)


def _install_training(tracer: Tracer) -> None:
    """Self time of `train` per epoch: batching and Adam, outside forward and backward."""
    training = _resolve("training")
    train = vars(training).get("train")
    if train is None:
        return
    epochs = [0]

    @functools.wraps(train)
    def traced_train(net, samples, config, *args, **kwargs):
        epochs[0] += config.epochs
        t0 = tracer.begin()
        try:
            return train(net, samples, config, *args, **kwargs)
        finally:
            tracer.end("training.train", t0)

    for owner in (training, _resolve("cli")):
        if "train" in vars(owner):
            tracer.patch(owner, "train", traced_train)

    def report():
        own = tracer.stat("training.train", "self_s")
        tracer.extra["training.train.self_s_per_epoch"] = (
            own / epochs[0] if epochs[0] else 0.0, "s")

    tracer.reports.append(report)
