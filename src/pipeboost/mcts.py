"""Monte Carlo tree search over layer-to-unit assignments.

The search walks layers left to right, model by model. Each tree edge
assigns the next layer to one of the compute units, and only units that
keep the model within the stage limit are offered, so every path ends in a
complete, valid mapping. The returned mapping is the best one seen anywhere
during the search, checked once by `validate_mapping`, stage limit
included.

The search runs on a flat path: a tree node holds only its unit, children,
untried units and statistics. Each iteration replays its path from the root
onto one flat list of the mix's layer units, counting the current model's
stages, `rollout` continues that list, and its reward is 1 + the
evaluator's unchecked `score_ids`, a score in [0, 1]. The tree and the
rollout read legal units from one table, `legal_units`. `SearchState`,
`initial_state`, `actions` and `apply` are the same rules one move at a
time, the reference the tests hold the flat path to; no workflow calls
them, and they stay in the package because `bench/test_bench_helpers.py`
pins `mcts.apply`.

The rollout's moves are the search's only random draws. A free move runs
the loop of `simulator.randbelow`, the one behind `Random.choice`, with its
k kept in the `legal_units` table: the number and rng state of
`rng.choice`, so a seeded search depends only on the seed's `getrandbits`
stream. Once a model has used its stages, its tail is forced, and `rollout`
takes the tail's draws of `getrandbits(1)` in exact blocks of 32-bit words
with the same rng state; its docstring says why every word is consumed.
`tests/test_simulator.py` pins the draw against `randrange` and `choice`,
and the block against single draws.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, replace

from .simulator import Mapping, validate_mapping
from .workload import DeviceProfile, Workload

UCT_C = math.sqrt(2)


@dataclass(frozen=True)
class MctsConfig:
    budget: int = 500
    max_depth: int = 100
    stage_limit: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.stage_limit < 1:
            raise ValueError("stage_limit must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class SearchState:
    """A partial mapping; complete when `cursor` (model, layer) is None."""

    workload: Workload
    layer_counts: tuple[int, ...]
    num_units: int
    stage_limit: int
    assignments: tuple[tuple[int, ...], ...]
    stage_counts: tuple[int, ...]
    cursor: tuple[int, int] | None

    def mapping(self) -> Mapping:
        if self.cursor is not None:
            raise ValueError("only complete states carry a mapping")
        return Mapping(assignments=self.assignments)


def initial_state(
    workload: Workload, profile: DeviceProfile, config: MctsConfig
) -> SearchState:
    workload.validate_for(profile)
    counts = tuple(profile.models[i].num_layers for i in workload.model_indices)
    return SearchState(
        workload=workload,
        layer_counts=counts,
        num_units=profile.num_units,
        stage_limit=config.stage_limit,
        assignments=tuple(() for _ in counts),
        stage_counts=tuple(0 for _ in counts),
        cursor=(0, 0) if counts else None,
    )


def actions(state: SearchState) -> list[int]:
    """Unit ids that keep the cursor's model within the stage limit."""
    if state.cursor is None:
        raise ValueError("complete state has no actions")
    m, l = state.cursor
    prev = state.assignments[m][-1] if l > 0 else None
    used = state.stage_counts[m]
    return [u for u in range(state.num_units) if used + (u != prev) <= state.stage_limit]


def apply(state: SearchState, action: int) -> SearchState:
    """Assign the cursor layer to `action`, one of `actions(state)`."""
    if state.cursor is None:
        raise ValueError("cannot apply an action to a complete state")
    if not 0 <= action < state.num_units:
        raise ValueError(f"unit id {action} out of range")
    m, l = state.cursor
    prefix = state.assignments[m]
    new_count = state.stage_counts[m] + (l == 0 or action != prefix[-1])
    if new_count > state.stage_limit:
        raise ValueError(
            f"unit {action} would give model {m} stage {new_count} "
            f"over the limit {state.stage_limit}"
        )
    if l + 1 < state.layer_counts[m]:
        cursor = (m, l + 1)
    elif m + 1 < len(state.layer_counts):
        cursor = (m + 1, 0)
    else:
        cursor = None
    return replace(
        state,
        assignments=state.assignments[:m] + (prefix + (action,),) + state.assignments[m + 1 :],
        stage_counts=state.stage_counts[:m] + (new_count,) + state.stage_counts[m + 1 :],
        cursor=cursor,
    )


def legal_units(num_units: int, stage_limit: int, max_layers: int) -> dict:
    """The rule of `actions` as a table for the flat path: by (stages its
    model has used, previous unit or None), the units open to a layer and
    the bit length of their count, the `k` of `rollout`'s draw."""
    table = {}
    for used in range(min(stage_limit, max_layers) + 1):
        for prev in (None, *range(num_units)):
            units = tuple(u for u in range(num_units) if used + (u != prev) <= stage_limit)
            table[used, prev] = units, len(units).bit_length()
    return table


class _HighBits(dict):
    """m -> bit 31 of each of m 32-bit words, the mask of `rollout`'s block
    draws, built on first use."""

    def __missing__(self, m: int) -> int:
        mask = self[m] = sum(1 << 32 * i + 31 for i in range(m))
        return mask


_HIGH_BITS = _HighBits()


def rollout(
    units: list[int], used: int, spans, legal: dict, rng: random.Random, config: MctsConfig
) -> list[int]:
    """Random legal moves to completion; greedy same-unit fill past max_depth.

    Appends the missing layers to `units`, a mapping's first layers flat in
    mix order (`spans` are each model's (start, end) there, and `used` the
    stages so far of the last unit's model), and returns them. It must draw
    exactly as stepping `actions` and `apply` does: the same numbers as
    `rng.choice` on the same legal units, or seeded searches change. A free
    move is `simulator.randbelow`'s loop written inline, with k from `legal`.

    Once `legal` offers one unit (the model is at its stage limit, or there
    is one unit), that unit holds to the model's end, and it fills the tail
    at once. Each tail layer within max_depth owes draws of `getrandbits(1)`
    until one is 0, and each such draw is bit 31 of one 32-bit Mersenne
    Twister word. The tail draws `getrandbits(32 * owed)`, exactly `owed`
    words, and stepping would consume all of them: it stops at its owed-th
    0, which `owed` words reach only if every one is 0, at the last. The
    words with bit 31 set were rejected draws, so their count is what the
    tail still owes; about log2 of the tail's length blocks settle it.
    Past max_depth the rest of each model repeats the previous unit, or
    starts on unit 0, with no draws.
    """
    start, depth = len(units), config.max_depth
    getrandbits, append = rng.getrandbits, units.append
    for s, e in spans:
        rest = e - len(units)
        if rest <= 0:
            continue
        prev = units[-1] if len(units) > s else None
        used = 0 if prev is None else used
        while rest:
            if not depth:  # the greedy fill
                units += [0 if prev is None else prev] * rest
                break
            opts, k = legal[used, prev]
            if len(opts) == 1:  # a forced tail
                owed = rest if rest < depth else depth
                depth -= owed
                while owed:
                    owed = (getrandbits(32 * owed) & _HIGH_BITS[owed]).bit_count()
                units += opts * rest
                break
            n = len(opts)  # a free move
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            a = opts[r]
            depth -= 1
            rest -= 1
            used += a != prev
            append(a)
            prev = a
    return units[start:]


class _Node:
    __slots__ = ("unit", "children", "untried", "visits", "value")

    def __init__(self, unit: int | None, untried: list[int]):
        self.unit, self.untried, self.children, self.visits, self.value = unit, untried, [], 0, 0.0


def _select_child(node: _Node) -> _Node:
    best, best_score = None, -math.inf
    log_n = math.log(node.visits)
    for child in node.children:
        score = child.value / child.visits + UCT_C * math.sqrt(log_n / child.visits)
        if score > best_score:
            best, best_score = child, score
    return best


def schedule(
    workload: Workload, profile: DeviceProfile, evaluator, config: MctsConfig | None = None
) -> tuple[Mapping, dict]:
    """Run the budgeted search and return the best complete mapping found."""
    config = config or MctsConfig()
    workload.validate_for(profile)
    counts = [profile.models[i].num_layers for i in workload.model_indices]
    ends = list(itertools.accumulate(counts))
    spans = list(zip([0] + ends, ends))
    starts = {s for s, _ in spans}
    legal = legal_units(profile.num_units, config.stage_limit, max(counts))
    rng = random.Random(config.seed)
    root = _Node(None, list(legal[0, None][0]))
    score_ids, best_reward, best_units = evaluator.score_ids, -math.inf, None
    t0 = time.perf_counter()

    for _ in range(config.budget):
        node, path = root, [root]
        while node.children and not node.untried:
            node = _select_child(node)
            path.append(node)
        if node.untried:
            node.children.append(_Node(node.untried.pop(0), []))
            path.append(node.children[-1])
        units, key = [], (0, None)  # key: (stages used, previous unit) of the next layer
        for n in path[1:]:
            units.append(n.unit)
            used = key[0] + (n.unit != key[1])
            key = (0, None) if len(units) in starts else (used, n.unit)
        if node is not path[-1] and len(units) < ends[-1]:  # a new node's untried units
            path[-1].untried = list(legal[key][0])
        rollout(units, key[0], spans, legal, rng, config)
        reward = 1.0 + score_ids(workload, units)
        if reward > best_reward:
            best_reward, best_units = reward, units
        for n in path:
            n.visits += 1
            n.value += reward

    ms = (time.perf_counter() - t0) * 1000.0
    best_mapping = Mapping(tuple(tuple(best_units[s:e]) for s, e in spans))
    validate_mapping(best_mapping, profile, workload, config.stage_limit)
    return best_mapping, {"iterations": config.budget, "best_reward": best_reward, "elapsed_ms": ms}
