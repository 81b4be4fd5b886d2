"""Deterministic pipeline throughput oracle.

Given a workload and a per-layer unit mapping, computes per-DNN rates,
per-unit rates, and average throughput under pipeline bottleneck plus a
uniform shared-unit contention scaling. Also provides mapping combinatorics,
uniform random mappings, and exhaustive search for small instances.

The throughput model, with times in ms and rates in inferences/second:

  1. effective stage time  e(s) = cost(s) + transfer_ms if s is not its
     model's first stage, else cost(s)
  2. standalone rate       r_m = 1000 / max over s in m of e(s)
  3. raw unit load         L_u = sum over stages s on u of r_m(s) * e(s) / 1000
  4. contention scaling    theta = min(1, 1 / max_u L_u)
  5. per-DNN rate          x_m = theta * r_m
  6. per-unit rate         y_u = sum of x_m over models with a stage on u
  7. average throughput    T = sum(x_m) / M

A stage's cost(s) is read from `profile.stage_costs`, whose entry for
layers s to e - 1 is the Python `sum` of their `profile.layer_costs`,
taken in layer order. It is not a difference of prefix sums: `P[e] - P[s]`
rounds differently from the sum, and the searches compare near-equal
scores, so a last-digit change can change the mapping they pick.

`validate_mapping` is the rule of every checked entry: `simulate`,
`stages_of`, `load_mapping` and the embedding's `mapped_input`. Each search
checks the mapping it returns by it. `_avg_throughput` is the one scoring
core, unchecked, for the simulator evaluator, `random_best` and
`exhaustive_best`: it scores the per-model tuples of legal unit ids of one
mapping, `Mapping.assignments`' shape, and takes each model's walk
(`_model_walk`, steps 1-3) from a memo keyed by (model index, the model's
tuple). T keeps its bits: `simulate` makes the same walks and adds the
loads in the same order.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import MappingError, SearchSpaceError
from .workload import (
    DeviceProfile, Workload, _check_keys, _is_int, _read_json, workload_from_names,
)

DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class Mapping:
    """Per-model unit assignment, one unit id per layer."""

    assignments: tuple[tuple[int, ...], ...]

    def to_dict(self, profile: DeviceProfile, workload: Workload) -> dict:
        return {
            "workload": [profile.models[i].name for i in workload.model_indices],
            "assignments": [list(a) for a in self.assignments],
        }


@dataclass(frozen=True)
class Stage:
    """A maximal run of one model's consecutive layers on a single unit."""

    model_index: int
    unit: int
    layer_range: tuple[int, int]  # inclusive
    cost_ms: float


@dataclass(frozen=True)
class ThroughputReport:
    per_dnn_inf_s: tuple[float, ...]
    per_unit_inf_s: tuple[float, ...]
    avg_throughput: float
    unit_utilization: tuple[float, ...]
    theta: float

    def to_dict(self) -> dict:
        return {
            "per_dnn_inf_s": list(self.per_dnn_inf_s),
            "per_unit_inf_s": list(self.per_unit_inf_s),
            "avg_throughput": self.avg_throughput,
            "unit_utilization": list(self.unit_utilization),
            "theta": self.theta,
        }


def validate_mapping(
    mapping: Mapping, profile: DeviceProfile, workload: Workload, max_stages: int | None = None
) -> None:
    """Raise `MappingError` unless `mapping` fits `workload` on `profile`: a
    workload of at least one model, one assignment per model, one unit id per
    layer, and each id an `int` in range(num_units) (`True` is unit 1, as in
    tuple indexing; `1.0` and `np.int64(1)` are refused). The rule of every
    checked entry. It checks, in order: the workload (not empty, and in the
    profile), the mapping's shape (naming the first wrong model), the ids
    (naming the first bad one), then, with `max_stages`, that no model has
    more than `max_stages` stages (naming the first that has)."""
    workload.validate_for(profile)
    counts = [profile.models[i].num_layers for i in workload.model_indices]
    shape = list(map(len, mapping.assignments))
    if shape != counts:
        if len(shape) != len(counts):
            raise MappingError(
                f"mapping has {len(shape)} models, "
                f"workload has {len(counts)} models of {counts} layers"
            )
        pos = next(p for p, (n, k) in enumerate(zip(shape, counts)) if n != k)
        name = profile.models[workload.model_indices[pos]].name
        raise MappingError(f"model {name!r}: {shape[pos]} assignments for {counts[pos]} layers")
    flat = list(itertools.chain.from_iterable(mapping.assignments))
    # the membership test first, so that the sum meets only numbers equal to ids
    ids = frozenset(range(profile.num_units))
    if not ids.issuperset(flat) or type(sum(flat)) is not int:
        bad = next(u for u in flat if u not in ids or not isinstance(u, int))
        raise MappingError(f"unit id {bad!r} out of range")
    if max_stages is None:
        return
    for model_idx, assignment in zip(workload.model_indices, mapping.assignments):
        count = len(stage_bounds(assignment))
        if count > max_stages:
            name = profile.models[model_idx].name
            raise MappingError(f"model {name!r}: {count} stages, over the limit {max_stages}")


def stage_bounds(assignment: tuple[int, ...] | list[int]) -> list[tuple[int, int, int]]:
    """Maximal runs of equal unit ids, as (start, end_exclusive, unit)."""
    if not assignment:
        return []
    bounds = []
    start, prev = 0, assignment[0]
    for l, u in enumerate(assignment):
        if u != prev:
            bounds.append((start, l, prev))
            start, prev = l, u
    bounds.append((start, len(assignment), prev))
    return bounds


def stages_of(
    mapping: Mapping, profile: DeviceProfile, workload: Workload
) -> list[list[Stage]]:
    """Run-length group each model's assignment into pipeline stages."""
    validate_mapping(mapping, profile, workload)
    per_model = []
    for pos, model_idx in enumerate(workload.model_indices):
        costs = profile.stage_costs[model_idx]
        per_model.append([
            Stage(model_index=pos, unit=u, layer_range=(s, e - 1), cost_ms=costs[u][s][e])
            for s, e, u in stage_bounds(mapping.assignments[pos])
        ])
    return per_model


def _model_walk(costs, ids, transfer_ms: float) -> tuple[float, list]:
    """Steps 1-2 of one model, of its stage-cost table `costs`
    (`profile.stage_costs[m]`) and its legal unit ids `ids`: its rate r, and
    each stage's (unit, r * e / 1000), its term of step 3."""
    bounds = stage_bounds(ids)
    times = [costs[u][s][e] + (transfer_ms if s > 0 else 0.0) for s, e, u in bounds]
    r = 1000.0 / max(times)
    return r, [(u, r * e / 1000.0) for (_, _, u), e in zip(bounds, times)]


def _contention(walks: list, num_units: int) -> tuple[list[float], float]:
    """Steps 3-4 of the models' walks: the raw unit loads, the stages' terms
    added in (model, stage) order, and theta."""
    raw_load = [0.0] * num_units
    for _, loads in walks:
        for u, load in loads:
            raw_load[u] += load
    return raw_load, min(1.0, 1.0 / max(raw_load))


def _avg_throughput(workload: Workload, assignments, profile: DeviceProfile, memo: dict) -> float:
    """`simulate(...).avg_throughput` of one mapping's per-model tuples of
    legal unit ids, unchecked: the scoring core. Each model's walk is read
    from `memo`, by (model index, the model's tuple), or made and stored there."""
    walks = []
    for key in zip(workload.model_indices, assignments):
        walk = memo.get(key)
        if walk is None:
            walk = memo[key] = _model_walk(profile.stage_costs[key[0]], key[1], profile.transfer_ms)
        walks.append(walk)
    _, theta = _contention(walks, profile.num_units)
    return sum([theta * r for r, _ in walks]) / len(walks)


def simulate(workload: Workload, mapping: Mapping, profile: DeviceProfile) -> ThroughputReport:
    """Score a mapping; deterministic and pure. See the module docstring."""
    validate_mapping(mapping, profile, workload)
    walks = [
        _model_walk(profile.stage_costs[i], a, profile.transfer_ms)
        for i, a in zip(workload.model_indices, mapping.assignments)
    ]
    raw_load, theta = _contention(walks, profile.num_units)
    x = [theta * r for r, _ in walks]
    y = [0.0] * profile.num_units
    for (_, loads), xm in zip(walks, x):
        for unit in {u for u, _ in loads}:
            y[unit] += xm
    return ThroughputReport(
        per_dnn_inf_s=tuple(x),
        per_unit_inf_s=tuple(y),
        avg_throughput=sum(x) / len(x),
        unit_utilization=tuple(theta * l for l in raw_load),
        theta=theta,
    )


# ---------------------------------------------------------------------------
# Combinatorics and enumeration
# ---------------------------------------------------------------------------

def count_assignments(n_layers: int, n_units: int, max_stages: int) -> int:
    """Exact number of per-layer unit assignments with at most max_stages stages.

    An assignment with s stages is a choice of s-1 cut points among n-1
    boundaries times a unit sequence with distinct neighbors.
    """
    if min(n_layers, n_units, max_stages) < 1:
        raise ValueError("n_layers, n_units, max_stages must all be >= 1")
    total = 0
    for s in range(1, max_stages + 1):
        total += (
            math.comb(n_layers - 1, s - 1) * n_units * (n_units - 1) ** (s - 1)
        )
    return total


def iter_assignments(n_layers: int, n_units: int, max_stages: int):
    """Yield all valid per-model assignments in lexicographic order."""

    def rec(prefix: list[int], stages: int):
        if len(prefix) == n_layers:
            yield tuple(prefix)
            return
        last = prefix[-1] if prefix else -1
        for u in range(n_units):
            ns = stages + (1 if u != last else 0)
            if ns <= max_stages:
                prefix.append(u)
                yield from rec(prefix, ns)
                prefix.pop()

    yield from rec([], 0)


def exhaustive_best(
    workload: Workload,
    profile: DeviceProfile,
    max_stages: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Mapping, ThroughputReport]:
    """Brute-force the best mapping by average throughput, each scored by
    `_avg_throughput` through one memo; `simulate` reports the winner.

    Ties break toward the lexicographically smallest concatenated assignment
    vector, which is the first one encountered in enumeration order.
    """
    workload.validate_for(profile)
    layer_counts = [profile.models[i].num_layers for i in workload.model_indices]
    sizes = [count_assignments(n, profile.num_units, max_stages) for n in layer_counts]
    total = math.prod(sizes)
    if total > cap:
        raise SearchSpaceError(f"{total} mappings exceed the cap of {cap}")

    per_model = [
        list(iter_assignments(n, profile.num_units, max_stages)) for n in layer_counts
    ]
    memo, best, best_t = {}, None, None
    for combo in itertools.product(*per_model):
        t = _avg_throughput(workload, combo, profile, memo)
        if best is None or t > best_t:
            best, best_t = combo, t
    mapping = Mapping(assignments=best)
    return mapping, simulate(workload, mapping, profile)


def _random_assignment(
    n_layers: int, n_units: int, max_stages: int, rng: random.Random
) -> tuple[int, ...]:
    s = rng.randint(1, min(max_stages, n_layers))
    cuts = sorted(rng.sample(range(1, n_layers), s - 1))
    bounds = [0] + cuts + [n_layers]
    units = [rng.randrange(n_units)]
    for _ in range(s - 1):
        units.append(rng.choice([u for u in range(n_units) if u != units[-1]]))
    assignment = []
    for seg, unit in enumerate(units):
        assignment.extend([unit] * (bounds[seg + 1] - bounds[seg]))
    return tuple(assignment)


def randbelow(getrandbits, n: int) -> int:
    """`rng.randrange(n)`, and the index `rng.choice` takes from n items, for
    `getrandbits = rng.getrandbits` and n >= 1 (n = 0 never returns): the loop
    of CPython's `Random._randbelow` behind both, so the same number and rng
    state without their Python frames. k is n.bit_length(), not
    (n - 1).bit_length(), as there: at n = 2**j half the draws are thrown away.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_mapping_rng(
    workload: Workload, profile: DeviceProfile, max_stages: int, rng: random.Random
) -> Mapping:
    """Sample a mapping: uniform stage count, cut points, and unit runs per model."""
    workload.validate_for(profile)
    if max_stages < 1:
        raise ValueError("max_stages must be >= 1")
    return Mapping(
        assignments=tuple(
            _random_assignment(
                profile.models[i].num_layers, profile.num_units, max_stages, rng
            )
            for i in workload.model_indices
        )
    )


# ---------------------------------------------------------------------------
# Mapping file I/O
# ---------------------------------------------------------------------------

def save_mapping(
    mapping: Mapping, profile: DeviceProfile, workload: Workload, path: str | Path
) -> None:
    Path(path).write_text(
        json.dumps(mapping.to_dict(profile, workload), indent=2) + "\n"
    )


def _mapping_from_dict(
    data: dict, profile: DeviceProfile, ctx: str, error: type[ValueError] = MappingError
) -> tuple[Workload, Mapping]:
    """Parse the `workload` (model names) and `assignments` (unit ids per
    layer) of a mapping file or dataset row, raising `error` on a value of
    the wrong type. Shape and range checks are `validate_mapping`'s."""
    names, assignments = data["workload"], data["assignments"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise error(f"{ctx}: workload must be a list of model names")
    if not isinstance(assignments, list) or not all(
        isinstance(a, list) and all(_is_int(u) for u in a) for a in assignments
    ):
        raise error(f"{ctx}: assignments must be a list of lists of unit ids")
    return workload_from_names(profile, names), Mapping(tuple(tuple(a) for a in assignments))


def load_mapping(path: str | Path, profile: DeviceProfile) -> tuple[Workload, Mapping]:
    data = _read_json(path, "mapping", MappingError)
    _check_keys(data, ("workload", "assignments"), str(path), MappingError)
    workload, mapping = _mapping_from_dict(data, profile, str(path))
    validate_mapping(mapping, profile, workload)
    return workload, mapping
