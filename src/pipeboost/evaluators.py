"""Scalar mapping evaluators shared by the search algorithms.

Both searchers only need `score(workload, mapping) -> float in [0, 1]`
(higher is better). The estimator-backed evaluator is the default, as in
the paper, where the net stands in for measuring each mapping on the board.
The simulator-backed one scores with the analytic pipeline model that also
labels the estimator's training data: it is exact for that model and much
faster than the net's forward pass, so it serves oracle experiments.
"""

from __future__ import annotations

import numpy as np

from .baselines import gpu_only
from .embedding import build_embedding, mapped_inputs
from .estimator import EstimatorNet
from .simulator import Mapping, simulate, simulate_batch
from .workload import DeviceProfile, Workload


class EstimatorEvaluator:
    """Mean of the net's clamped 3-component prediction."""

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

    def score(self, workload: Workload, mapping: Mapping) -> float:
        return float(self.score_batch(workload, [mapping])[0])

    def score_batch(self, workload: Workload, mappings: list[Mapping]) -> np.ndarray:
        xs = mapped_inputs(self.embedding, workload, mappings, self.profile)
        pred = np.clip(self.net.forward(xs), 0.0, 1.0)
        return pred.mean(axis=1)


class SimulatorEvaluator:
    """Ground-truth average throughput T squashed to T / (T + T_ref).

    T_ref is the all-GPU throughput of the same workload (cached per
    workload), so 0.5 means "as good as not splitting at all" and the
    score spreads over (0, 1) in the range where mappings actually
    differ. The transform is strictly increasing, so rankings match the
    simulator exactly while staying inside [0, 1) like the estimator's.
    """

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        self._ref: dict[Workload, float] = {}

    def _reference(self, workload: Workload) -> float:
        ref = self._ref.get(workload)
        if ref is None:
            ref = simulate(
                workload, gpu_only(workload, self.profile), self.profile
            ).avg_throughput
            self._ref[workload] = ref
        return ref

    def score(self, workload: Workload, mapping: Mapping) -> float:
        t = simulate(workload, mapping, self.profile).avg_throughput
        return t / (t + self._reference(workload))

    def score_batch(self, workload: Workload, mappings: list[Mapping]) -> np.ndarray:
        """`score` of each mapping, through one `simulate_batch` call."""
        t = simulate_batch(workload, mappings, self.profile)
        return t / (t + self._reference(workload))
