"""Monte Carlo tree search over layer-to-unit assignments.

The search walks layers left to right, model by model. Each tree edge
assigns the next layer to one of the compute units; a state wins when
every layer is assigned and every model stays within the stage limit, and
loses the moment a prefix exceeds it. Terminal rewards: losses score 0,
wins score 1 + the evaluator's [0,1] scalar, so any win beats any loss
and wins are ranked by estimated throughput. The returned mapping is the
best winning terminal seen anywhere during the search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from enum import Enum

from .simulator import Mapping
from .workload import DeviceProfile, Workload


class Status(Enum):
    IN_PROGRESS = "in_progress"
    WIN = "win"
    LOSE = "lose"


@dataclass(frozen=True)
class MctsConfig:
    budget: int = 500
    max_depth: int = 100
    stage_limit: int = 3
    uct_c: float = math.sqrt(2)
    win_bonus: float = 1.0
    lose_reward: float = 0.0
    seed: int = 0
    per_mix_limit: bool = False  # apply stage_limit to the whole mix, not per model

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.stage_limit < 1:
            raise ValueError("stage_limit must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class SearchState:
    workload: Workload
    layer_counts: tuple[int, ...]
    num_units: int
    stage_limit: int
    per_mix_limit: bool
    assignments: tuple[tuple[int, ...], ...]
    stage_counts: tuple[int, ...]
    cursor: tuple[int, int] | None
    status: Status

    def mapping(self) -> Mapping:
        if self.status is not Status.WIN:
            raise ValueError("only winning states carry a complete mapping")
        return Mapping(assignments=self.assignments)


def initial_state(
    workload: Workload, profile: DeviceProfile, config: MctsConfig
) -> SearchState:
    workload.validate_for(profile)
    counts = tuple(profile.models[i].num_layers for i in workload.model_indices)
    done = len(counts) == 0
    return SearchState(
        workload=workload,
        layer_counts=counts,
        num_units=profile.num_units,
        stage_limit=config.stage_limit,
        per_mix_limit=config.per_mix_limit,
        assignments=tuple(() for _ in counts),
        stage_counts=tuple(0 for _ in counts),
        cursor=None if done else (0, 0),
        status=Status.WIN if done else Status.IN_PROGRESS,
    )


def actions(state: SearchState) -> list[int]:
    """Unit ids that do not immediately break the stage limit."""
    if state.status is not Status.IN_PROGRESS:
        raise ValueError("terminal state has no actions")
    m, l = state.cursor
    prev = state.assignments[m][-1] if l > 0 else None
    legal = []
    for u in range(state.num_units):
        inc = 0 if u == prev else 1
        if state.per_mix_limit:
            ok = sum(state.stage_counts) + inc <= state.stage_limit
        else:
            ok = state.stage_counts[m] + inc <= state.stage_limit
        if ok:
            legal.append(u)
    return legal


def apply(state: SearchState, action: int) -> SearchState:
    """Assign the cursor layer to `action` and recompute the status.

    Deliberately accepts any in-range unit, including ones that push the
    state over the stage limit — those transitions land on Lose.
    """
    if state.status is not Status.IN_PROGRESS:
        raise ValueError("cannot apply an action to a terminal state")
    if not 0 <= action < state.num_units:
        raise ValueError(f"unit id {action} out of range")
    m, l = state.cursor
    prefix = state.assignments[m]
    inc = 0 if (l > 0 and action == prefix[-1]) else 1
    new_count = state.stage_counts[m] + inc
    assignments = (
        state.assignments[:m] + (prefix + (action,),) + state.assignments[m + 1 :]
    )
    stage_counts = (
        state.stage_counts[:m] + (new_count,) + state.stage_counts[m + 1 :]
    )
    if l + 1 < state.layer_counts[m]:
        cursor = (m, l + 1)
    elif m + 1 < len(state.layer_counts):
        cursor = (m + 1, 0)
    else:
        cursor = None
    over = (
        sum(stage_counts) > state.stage_limit
        if state.per_mix_limit
        else new_count > state.stage_limit
    )
    if over:
        status = Status.LOSE
    elif cursor is None:
        status = Status.WIN
    else:
        status = Status.IN_PROGRESS
    return replace(
        state,
        assignments=assignments,
        stage_counts=stage_counts,
        cursor=cursor,
        status=status,
    )


def rollout(
    state: SearchState, rng: random.Random, config: MctsConfig
) -> tuple[SearchState, list[int]]:
    """Random legal moves to a terminal; greedy same-unit fill past max_depth.

    Works on mutable lists and builds one `SearchState` at the end, but must
    behave exactly like stepping `actions` and `apply` move by move: the same
    `rng.choice` on the same legal lists, so that it draws the same random
    sequence. Seeded searches return the same mapping only while that holds.
    """
    taken: list[int] = []
    if state.status is not Status.IN_PROGRESS:
        return state, taken
    counts = state.layer_counts
    limit = state.stage_limit
    per_mix = state.per_mix_limit
    units = range(state.num_units)
    assignments = [list(a) for a in state.assignments]
    stage_counts = list(state.stage_counts)
    m, l = state.cursor
    while True:
        row = assignments[m]
        prev = row[-1] if l > 0 else None
        if len(taken) < config.max_depth:
            used = sum(stage_counts) if per_mix else stage_counts[m]
            legal = [u for u in units if used + (u != prev) <= limit]
            # A saturated per-mix limit can leave no safe action; force the issue.
            a = rng.choice(legal) if legal else 0
        else:
            a = 0 if prev is None else prev
        stage_counts[m] += a != prev
        row.append(a)
        taken.append(a)
        over = (sum(stage_counts) if per_mix else stage_counts[m]) > limit
        l += 1
        if l >= counts[m]:
            m, l = m + 1, 0
        done = m == len(counts)
        if over or done:
            break
    terminal = replace(
        state,
        assignments=tuple(tuple(a) for a in assignments),
        stage_counts=tuple(stage_counts),
        cursor=None if done else (m, l),
        status=Status.LOSE if over else Status.WIN,
    )
    return terminal, taken


def evaluate_terminal(state: SearchState, evaluator, config: MctsConfig) -> float:
    if state.status is Status.IN_PROGRESS:
        raise ValueError("cannot evaluate a non-terminal state")
    if state.status is Status.LOSE:
        return config.lose_reward
    return config.win_bonus + evaluator.score(state.workload, state.mapping())


class _Node:
    __slots__ = ("state", "parent", "children", "untried", "visits", "value")

    def __init__(self, state: SearchState, parent: "_Node | None" = None):
        self.state = state
        self.parent = parent
        self.children: list[_Node] = []
        self.untried = (
            actions(state) if state.status is Status.IN_PROGRESS else []
        )
        self.visits = 0
        self.value = 0.0


def _select_child(node: _Node, c: float) -> _Node:
    best, best_score = None, -math.inf
    log_n = math.log(node.visits)
    for child in node.children:
        score = child.value / child.visits + c * math.sqrt(log_n / child.visits)
        if score > best_score:
            best, best_score = child, score
    return best


def schedule(
    workload: Workload,
    profile: DeviceProfile,
    evaluator,
    config: MctsConfig | None = None,
) -> tuple[Mapping, dict]:
    """Run the budgeted search and return the best winning mapping found."""
    config = config or MctsConfig()
    if len(workload) == 0:
        raise ValueError("cannot schedule an empty workload")
    rng = random.Random(config.seed)
    root = _Node(initial_state(workload, profile, config))
    best_reward = -math.inf
    best_mapping: Mapping | None = None
    wins = losses = 0
    t0 = time.perf_counter()

    for _ in range(config.budget):
        node = root
        while (
            node.state.status is Status.IN_PROGRESS
            and not node.untried
            and node.children
        ):
            node = _select_child(node, config.uct_c)
        if node.state.status is Status.IN_PROGRESS and node.untried:
            child = _Node(apply(node.state, node.untried.pop(0)), parent=node)
            node.children.append(child)
            node = child
        if node.state.status is Status.IN_PROGRESS:
            terminal, _ = rollout(node.state, rng, config)
        else:
            terminal = node.state
        reward = evaluate_terminal(terminal, evaluator, config)
        if terminal.status is Status.WIN:
            wins += 1
            if reward > best_reward:
                best_reward, best_mapping = reward, terminal.mapping()
        else:
            losses += 1
        while node is not None:
            node.visits += 1
            node.value += reward
            node = node.parent

    if best_mapping is None:
        raise RuntimeError("search finished without a single complete mapping")
    stats = {
        "iterations": config.budget,
        "best_reward": best_reward,
        "wins": wins,
        "losses": losses,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return best_mapping, stats
