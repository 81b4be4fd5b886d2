"""Scalar mapping evaluators shared by the search algorithms.

Each evaluator scores mappings of one mix in [0, 1] (higher is better) by
one protocol: `score_ids` scores one mapping and `score_rows` a batch, with
the same floats, unchecked. A mapping comes in the shape of
`Mapping.assignments`: one tuple of legal unit ids per model of the mix.
`legal_units` and `merge_to_limit` make the ids legal, and each search
checks the mapping it returns by `validate_mapping`. The estimator-backed evaluator is the
default, as in the paper, where the net stands in for measuring each
mapping on the board. The simulator-backed one scores with the analytic
model that labels the net's training data: exact for it and much faster,
for oracle runs. It keeps the memo of model walks of the mix it last
scored, so a search walks each distinct assignment of a model once.
"""

from __future__ import annotations

import numpy as np

from .baselines import gpu_only
from .embedding import _gather, build_embedding
from .estimator import EstimatorNet
from .simulator import _avg_throughput, simulate
from .workload import DeviceProfile, Workload


class EstimatorEvaluator:
    """Mean of the net's clamped 3-component prediction.

    `scores_pairs` tells `mcts.schedule` to score its iterations two rows a
    `score_rows` call: a batch of 2 costs the net less per row than two
    batches of 1.
    """

    scores_pairs = True

    def __init__(
        self,
        net: EstimatorNet,
        profile: DeviceProfile,
        embedding: np.ndarray | None = None,
    ):
        if net.target_stats is None:
            raise ValueError("estimator is untrained (no target statistics)")
        self.net = net
        self.profile = profile
        self.embedding = embedding if embedding is not None else build_embedding(profile)

    def score_ids(self, workload: Workload, assignments) -> float:
        return float(self.score_rows(workload, [assignments])[0])

    def score_rows(self, workload: Workload, rows) -> np.ndarray:
        xs = _gather(self.embedding, workload, rows, self.profile)
        return np.clip(self.net.forward(xs), 0.0, 1.0).mean(axis=1)


class SimulatorEvaluator:
    """Ground-truth average throughput T squashed to T / (T + T_ref).

    T_ref is the all-GPU throughput of the same workload, so 0.5 means "as
    good as not splitting at all" and the score spreads over (0, 1) in the
    range where mappings actually differ. The transform is strictly
    increasing, so rankings match the simulator exactly while staying inside
    [0, 1) like the estimator's.

    The evaluator keeps the state of one mix: the workload, its T_ref and the
    memo of model walks that `score_ids` and `score_rows` score through. A
    call on another workload replaces all three.
    """

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        self._workload: Workload | None = None
        self._ref = 0.0
        self._memo: dict = {}

    def _mix(self, workload: Workload) -> dict:
        """The memo of `workload`, once it is the evaluator's mix."""
        if workload is not self._workload and workload != self._workload:
            gpu = gpu_only(workload, self.profile)
            self._ref = simulate(workload, gpu, self.profile).avg_throughput
            self._workload, self._memo = workload, {}
        return self._memo

    def score_ids(self, workload: Workload, assignments) -> float:
        memo = self._mix(workload)
        t = _avg_throughput(workload, assignments, self.profile, memo)
        return t / (t + self._ref)

    def score_rows(self, workload: Workload, rows) -> np.ndarray:
        memo = self._mix(workload)
        t = np.array(
            [_avg_throughput(workload, a, self.profile, memo) for a in rows], dtype=np.float64
        )
        return t / (t + self._ref)
