"""Monte Carlo tree search over layer-to-unit assignments.

The search walks layers left to right, model by model. Each tree edge
assigns the next layer to one of the compute units, and only units that
keep the model within the stage limit are offered, so every path ends in a
complete, valid mapping. A complete state is scored 1 + the evaluator's
[0,1] scalar. The returned mapping is the best complete state seen anywhere
during the search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

from .simulator import Mapping
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


def rollout(
    state: SearchState, rng: random.Random, config: MctsConfig
) -> tuple[SearchState, list[int]]:
    """Random legal moves to completion; greedy same-unit fill past max_depth.

    Works on mutable lists and builds one `SearchState` at the end, but must
    behave exactly like stepping `actions` and `apply` move by move: the same
    `rng.choice` on the same legal units, so that it draws the same random
    sequence. Seeded searches return the same mapping only while that holds.
    The legal units depend only on (stages used, previous unit), so each
    pair's tuple is built once per rollout.
    """
    taken: list[int] = []
    if state.cursor is None:
        return state, taken
    counts = state.layer_counts
    limit = state.stage_limit
    units = range(state.num_units)
    legal: dict[tuple[int, int | None], tuple[int, ...]] = {}
    assignments = [list(a) for a in state.assignments]
    stage_counts = list(state.stage_counts)
    m, l = state.cursor
    while m < len(counts):
        row = assignments[m]
        prev = row[-1] if l > 0 else None
        if len(taken) < config.max_depth:
            used = stage_counts[m]
            choices = legal.get((used, prev))
            if choices is None:
                choices = legal[used, prev] = tuple(
                    u for u in units if used + (u != prev) <= limit
                )
            a = rng.choice(choices)
        else:
            a = 0 if prev is None else prev
        stage_counts[m] += a != prev
        row.append(a)
        taken.append(a)
        l += 1
        if l >= counts[m]:
            m, l = m + 1, 0
    terminal = replace(
        state,
        assignments=tuple(tuple(a) for a in assignments),
        stage_counts=tuple(stage_counts),
        cursor=None,
    )
    return terminal, taken


def evaluate_terminal(state: SearchState, evaluator) -> float:
    """Reward of a complete state: 1 + the evaluator's score in [0, 1]."""
    return 1.0 + evaluator.score(state.workload, state.mapping())


class _Node:
    __slots__ = ("state", "parent", "children", "untried", "visits", "value")

    def __init__(self, state: SearchState, parent: "_Node | None" = None):
        self.state = state
        self.parent = parent
        self.children: list[_Node] = []
        self.untried = actions(state) if state.cursor is not None else []
        self.visits = 0
        self.value = 0.0


def _select_child(node: _Node) -> _Node:
    best, best_score = None, -math.inf
    log_n = math.log(node.visits)
    for child in node.children:
        score = child.value / child.visits + UCT_C * math.sqrt(log_n / child.visits)
        if score > best_score:
            best, best_score = child, score
    return best


def schedule(
    workload: Workload,
    profile: DeviceProfile,
    evaluator,
    config: MctsConfig | None = None,
) -> tuple[Mapping, dict]:
    """Run the budgeted search and return the best complete mapping found."""
    config = config or MctsConfig()
    if len(workload) == 0:
        raise ValueError("cannot schedule an empty workload")
    rng = random.Random(config.seed)
    root = _Node(initial_state(workload, profile, config))
    best_reward = -math.inf
    best_mapping: Mapping | None = None
    t0 = time.perf_counter()

    for _ in range(config.budget):
        node = root
        while node.state.cursor is not None and not node.untried:
            node = _select_child(node)
        if node.untried:
            child = _Node(apply(node.state, node.untried.pop(0)), parent=node)
            node.children.append(child)
            node = child
        terminal, _ = rollout(node.state, rng, config)
        reward = evaluate_terminal(terminal, evaluator)
        if reward > best_reward:
            best_reward, best_mapping = reward, terminal.mapping()
        while node is not None:
            node.visits += 1
            node.value += reward
            node = node.parent

    stats = {
        "iterations": config.budget,
        "best_reward": best_reward,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return best_mapping, stats
