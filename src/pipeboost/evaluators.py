"""Scalar mapping evaluators shared by the search algorithms.

Each evaluator scores mappings of one mix in [0, 1] (higher is better) by
two protocols with the same floats. Callers use `score` and `score_batch`,
which check each mapping as `validate_mapping` does. The searches use
`score_ids` and `score_rows` on unit ids flat in mix order, unchecked:
`legal_units` and `merge_to_limit` make them legal, and each search checks
the one mapping it returns. The estimator-backed evaluator is the default,
as in the paper, where the net stands in for measuring each mapping on the
board. The simulator-backed one scores with the analytic model that labels
the net's training data: exact for it and much faster, for oracle runs.
"""

from __future__ import annotations

import numpy as np

from .baselines import gpu_only
from .embedding import _gather, build_embedding, mapped_inputs
from .estimator import EstimatorNet
from .simulator import (
    Mapping, _avg_throughput, _throughput_rows, _unit_ids, simulate, simulate_batch,
)
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
        return self._readout(mapped_inputs(self.embedding, workload, mappings, self.profile))

    def score_ids(self, workload: Workload, ids: list[int]) -> float:
        return float(self.score_rows(workload, [ids])[0])

    def score_rows(self, workload: Workload, rows) -> np.ndarray:
        return self._readout(_gather(self.embedding, workload, rows, self.profile))

    def _readout(self, xs: np.ndarray) -> np.ndarray:
        return np.clip(self.net.forward(xs), 0.0, 1.0).mean(axis=1)


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

    def _squash(self, workload: Workload, t):
        """T / (T + T_ref) of throughput `t` of a mapping of `workload`."""
        ref = self._ref.get(workload)
        if ref is None:
            gpu = gpu_only(workload, self.profile)
            ref = self._ref[workload] = simulate(workload, gpu, self.profile).avg_throughput
        return t / (t + ref)

    def score(self, workload: Workload, mapping: Mapping) -> float:
        """`score_ids` of `mapping` once it passes `validate_mapping`'s rule."""
        return self.score_ids(workload, _unit_ids([mapping], self.profile, workload))

    def score_batch(self, workload: Workload, mappings: list[Mapping]) -> np.ndarray:
        """`score` of each mapping, through one `simulate_batch` call."""
        return self._squash(workload, simulate_batch(workload, mappings, self.profile))

    def score_ids(self, workload: Workload, ids: list[int]) -> float:
        return self._squash(workload, _avg_throughput(workload, ids, self.profile))

    def score_rows(self, workload: Workload, rows) -> np.ndarray:
        return self._squash(workload, _throughput_rows(workload, rows, self.profile))
