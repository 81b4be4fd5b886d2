"""Normalized cost tensors and boolean mapping masks.

The embedding tensor stacks one slice per compute unit; each slice is a
(models x max_layers) matrix of per-layer execution times divided by the
single largest layer cost anywhere in the profile, zero-padded on the
right for models with fewer layers. A mapping is presented to the
estimator by elementwise-multiplying the embedding with a boolean mask
that is one-hot over the unit axis for every (model-in-mix, layer) cell.
"""

from __future__ import annotations

import numpy as np

from .simulator import Mapping, validate_mapping
from .workload import DeviceProfile, Workload


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_embedding(profile: DeviceProfile) -> np.ndarray:
    """Read-only (units, models, max_layers) normalized execution times:
    `profile.cost_array` with its first two axes swapped, divided by its maximum."""
    data = profile.cost_array.transpose(1, 0, 2).copy()
    peak = data.max()
    if peak > 0:
        data /= peak
    return _freeze(data)


def build_mask(
    workload: Workload, mapping: Mapping, profile: DeviceProfile
) -> np.ndarray:
    """Read-only boolean tensor with the same dims as the embedding."""
    validate_mapping(mapping, profile, workload)
    data = np.zeros(
        (profile.num_units, len(profile.models), profile.max_layers), dtype=bool
    )
    for pos, model_idx in enumerate(workload.model_indices):
        for l, unit in enumerate(mapping.assignments[pos]):
            data[unit, model_idx, l] = True
    return _freeze(data)


def masked_input(embedding: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if embedding.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: embedding {embedding.shape}, mask {mask.shape}"
        )
    return _freeze(embedding * mask)
