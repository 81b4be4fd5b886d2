"""Command-line front end: profile/dataset generation, training, scheduling,
simulation, and the method-comparison harness."""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from pathlib import Path

from . import baselines, mcts
from .embedding import build_embedding
from .estimator import EstimatorNet, load_weights, save_weights
from .evaluators import EstimatorEvaluator, SimulatorEvaluator
from .simulator import (
    count_assignments,
    load_mapping,
    save_mapping,
    simulate,
)
from .training import (
    TrainConfig,
    label_dataset,
    load_dataset,
    preprocess_targets,
    save_dataset,
    save_history_csv,
    train,
)
from .workload import (
    GeneratorConfig,
    Workload,
    generate_profile,
    load_profile,
    save_profile,
    workload_from_names,
)

METHODS = ("gpu", "random-best", "mosaic", "ga", "mcts")


def _derived_seed(base: int, *parts) -> int:
    return random.Random(f"cmp:{base}:" + ":".join(str(p) for p in parts)).getrandbits(32)


def _layer_range(text: str) -> tuple[int, int]:
    """`--layer-range`: two integers min,max with 1 <= min <= max."""
    try:
        lo, hi = (int(v) for v in text.split(","))
        ok = 1 <= lo <= hi
    except ValueError:  # not two integers
        ok = False
    if not ok:
        raise ValueError(
            f"--layer-range needs two integers min,max with 1 <= min <= max, got {text!r}"
        )
    return lo, hi


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_genprofile(args) -> int:
    cfg = {}
    if args.factors:
        cfg["unit_factors"] = tuple(float(v) for v in args.factors.split(","))
    if args.layer_range is not None:
        cfg["layer_range"] = _layer_range(args.layer_range)
    profile = generate_profile(args.models, args.seed, GeneratorConfig(**cfg))
    save_profile(profile, args.out)
    print(f"wrote {args.out}: {len(profile.models)} models, "
          f"{profile.num_units} units, max {profile.max_layers} layers")
    return 0


def cmd_dataset(args) -> int:
    profile = load_profile(args.profile)
    labels = label_dataset(
        profile, count=args.count, mix_range=(args.mix_min, args.mix_max),
        seed=args.seed,
    )
    save_dataset(labels, profile, args.out)
    print(f"wrote {args.out}: {len(labels)} samples")
    return 0


def cmd_train(args) -> int:
    profile = load_profile(args.profile)
    samples = load_dataset(args.dataset, profile)
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        train_size=args.train_size, val_size=args.val_size,
    )
    stats, samples = preprocess_targets(samples, config.train_size)
    net = EstimatorNet.new(samples[0].input.shape, seed=config.seed)
    net, history = train(net, samples, config, stats=stats)
    save_weights(net, args.out)
    if args.history:
        save_history_csv(history, args.history)
    print(f"wrote {args.out}: final train_l1={history['train_l1'][-1]:.4f} "
          f"val_l1={history['val_l1'][-1]:.4f}")
    return 0


def _make_evaluator(args, profile):
    if args.evaluator == "simulator":
        return SimulatorEvaluator(profile)
    if not args.weights:
        raise ValueError("--weights is required with the estimator evaluator")
    embedding = build_embedding(profile)
    return EstimatorEvaluator(load_weights(args.weights, embedding.shape), profile, embedding)


def _mcts_config(args, seed: int) -> mcts.MctsConfig:
    return mcts.MctsConfig(
        budget=args.budget, max_depth=args.depth, stage_limit=args.stage_limit, seed=seed
    )


def cmd_schedule(args) -> int:
    profile = load_profile(args.profile)
    workload = workload_from_names(profile, args.mix.split(","))
    evaluator = _make_evaluator(args, profile)
    mapping, stats = mcts.schedule(workload, profile, evaluator, _mcts_config(args, args.seed))
    save_mapping(mapping, profile, workload, args.out)
    print(json.dumps(stats))
    return 0


def cmd_simulate(args) -> int:
    profile = load_profile(args.profile)
    workload, mapping = load_mapping(args.mapping, profile)
    report = simulate(workload, mapping, profile)
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_count(args) -> int:
    if args.cuts is not None:
        print(math.comb(args.layers, args.cuts))
    else:
        print(count_assignments(args.layers, args.units, args.max_stages))
    return 0


def _run_method(method, workload, profile, evaluator, linreg, args, seed):
    t0 = time.perf_counter()
    if method == "gpu":
        mapping = baselines.gpu_only(workload, profile)
    elif method == "random-best":
        mapping, _ = baselines.random_best(
            workload, profile, n=args.random_n, max_stages=args.stage_limit, seed=seed
        )
    elif method == "mosaic":
        mapping = baselines.mosaic_schedule(
            workload, profile, linreg, max_stages=args.stage_limit
        )
    elif method == "ga":
        mapping = baselines.ga_schedule(
            workload, profile, evaluator,
            baselines.GaConfig(stage_limit=args.stage_limit, seed=seed),
        )
    elif method == "mcts":
        mapping, _ = mcts.schedule(workload, profile, evaluator, _mcts_config(args, seed))
    else:  # pragma: no cover - filtered during argument validation
        raise ValueError(f"unknown method {method!r}")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return mapping, elapsed_ms


def cmd_compare(args, parser: argparse.ArgumentParser) -> int:
    profile = load_profile(args.profile)

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method {m!r}; valid methods: {', '.join(METHODS)}")

    mixes: list[Workload] = []
    for spec_text in args.mix or []:
        mixes.append(workload_from_names(profile, spec_text.split(",")))
    if args.random_mixes:
        if not 1 <= args.mix_size <= len(profile.models):
            raise ValueError(
                f"--mix-size must be in 1..{len(profile.models)}, the profile's model count; "
                f"got {args.mix_size}"
            )
        rng = random.Random(f"mixes:{args.seed}")
        for _ in range(args.random_mixes):
            mixes.append(
                Workload(tuple(rng.sample(range(len(profile.models)), args.mix_size)))
            )
    if not mixes:
        parser.error("no mixes given: use --mix and/or --random-mixes")

    needs_estimator = args.evaluator == "estimator" and ({"ga", "mcts"} & set(methods))
    evaluator = _make_evaluator(args, profile) if needs_estimator or args.evaluator == "simulator" else None
    linreg = baselines.fit_linreg(profile) if "mosaic" in methods else None

    rows = []
    for mix_id, workload in enumerate(mixes):
        gpu_t = simulate(
            workload, baselines.gpu_only(workload, profile), profile
        ).avg_throughput
        for method in methods:
            seed = _derived_seed(args.seed, mix_id, method)
            mapping, elapsed_ms = _run_method(
                method, workload, profile, evaluator, linreg, args, seed
            )
            t = simulate(workload, mapping, profile).avg_throughput
            rows.append({
                "mix_id": mix_id,
                "method": method,
                "avg_throughput": t,
                "normalized": t / gpu_t,
                "decision_ms": elapsed_ms,
            })

    if args.format == "json":
        text = json.dumps({"rows": rows}, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    else:
        target = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.writer(target)
            writer.writerow(["mix_id", "method", "avg_throughput", "normalized", "decision_ms"])
            for r in rows:
                writer.writerow([
                    r["mix_id"], r["method"],
                    f"{r['avg_throughput']:.6f}", f"{r['normalized']:.6f}",
                    f"{r['decision_ms']:.3f}",
                ])
        finally:
            if args.out:
                target.close()
    if args.out:
        print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeboost",
        description="Pipeline scheduling of concurrent DNNs on a 3-unit device",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {  # the flags that several commands share, declared once
        "--profile": dict(required=True),
        "--weights": {},
        "--evaluator": dict(choices=("estimator", "simulator"), default="estimator"),
        "--budget": dict(type=int, default=mcts.MctsConfig.budget),
        "--depth": dict(type=int, default=mcts.MctsConfig.max_depth),
        "--stage-limit": dict(type=int, default=mcts.MctsConfig.stage_limit),
        "--seed": dict(type=int, default=0, help="rng seed (default: 0)"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("genprofile", help="generate a synthetic device profile")
    p.add_argument("--models", type=int, default=11)
    p.add_argument("--factors", help="per-unit slowdown factors, e.g. 1.0,3.0,8.0")
    p.add_argument("--layer-range", help="min,max layers per model")
    p.add_argument("--out", required=True)
    add(p, "--seed")
    p.set_defaults(func=cmd_genprofile)

    p = sub.add_parser("dataset", help="generate a simulator-labelled dataset")
    add(p, "--profile")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--mix-min", type=int, default=1)
    p.add_argument("--mix-max", type=int, default=5)
    p.add_argument("--out", required=True)
    add(p, "--seed")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the throughput net on a dataset")
    add(p, "--profile")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--train-size", type=int, default=400)
    p.add_argument("--val-size", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="optional loss-history CSV path")
    add(p, "--seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("schedule", help="search a mapping for a mix")
    add(p, "--profile")
    p.add_argument("--mix", required=True, help="comma-separated model names")
    add(p, "--weights", "--evaluator", "--budget", "--depth", "--stage-limit")
    p.add_argument("--out", required=True)
    add(p, "--seed")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="score a mapping file with the simulator")
    add(p, "--profile")
    p.add_argument("--mapping", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="benchmark scheduling methods over mixes")
    add(p, "--profile", "--weights", "--evaluator")
    p.add_argument("--mix", action="append", help="explicit mix (repeatable)")
    p.add_argument("--random-mixes", type=int, default=0)
    p.add_argument("--mix-size", type=int, default=4)
    p.add_argument("--methods", default="gpu,random-best,mosaic,ga,mcts")
    p.add_argument("--random-n", type=int, default=200)
    add(p, "--budget", "--depth", "--stage-limit")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    add(p, "--seed")
    p.set_defaults(func=lambda args, _p=p: cmd_compare(args, _p))

    p = sub.add_parser("count", help="size of the assignment space")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--cuts", type=int, help="count cut-point choices: C(layers, cuts)")
    p.add_argument("--units", type=int, default=3)
    p.add_argument("--max-stages", type=int, default=3)
    p.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
