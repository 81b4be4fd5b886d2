"""Normalized cost tensors and boolean mapping masks.

The embedding tensor stacks one slice per compute unit; each slice is a
(models x max_layers) matrix of per-layer execution times divided by the
single largest layer cost anywhere in the profile, zero-padded on the
right for models with fewer layers. A mapping is presented to the
estimator by elementwise-multiplying the embedding with a boolean mask
that is one-hot over the unit axis for every (model-in-mix, layer) cell.
"""

from __future__ import annotations

import functools

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
    _check_shape(embedding, mask.shape)
    return _freeze(embedding * mask)


def _check_shape(embedding: np.ndarray, mask_shape: tuple[int, ...]) -> None:
    if embedding.shape != mask_shape:
        raise ValueError(f"shape mismatch: embedding {embedding.shape}, mask {mask_shape}")


@functools.lru_cache(maxsize=256)
def _cells(model_indices: tuple[int, ...], counts: tuple[int, ...], width: int) -> np.ndarray:
    """Offsets model * width + layer of a mix's layers, flat in mix order."""
    return _freeze(np.array([m * width + l for m, n in zip(model_indices, counts) for l in range(n)]))


def mapped_inputs(
    embedding: np.ndarray,
    workload: Workload,
    mappings: list[Mapping],
    profile: DeviceProfile,
) -> np.ndarray:
    """`masked_input(embedding, build_mask(workload, m, profile))` of each
    mapping, stacked, after the same checks, but built by one gather: each
    mapping's (unit, model, layer) cells are copied from the embedding, and
    every other cell stays 0.0, as the mask's False leaves it of a
    non-negative embedding."""
    for mapping in mappings:
        validate_mapping(mapping, profile, workload)
    _check_shape(embedding, (profile.num_units, len(profile.models), profile.max_layers))
    counts = tuple(profile.models[i].num_layers for i in workload.model_indices)
    units = np.array(
        [[u for a in m.assignments for u in a] for m in mappings], dtype=np.intp
    ).reshape(len(mappings), sum(counts))
    cells = units * embedding[0].size + _cells(workload.model_indices, counts, embedding.shape[2])
    out = np.zeros((len(mappings), embedding.size))
    out[np.arange(len(mappings))[:, None], cells] = embedding.reshape(-1)[cells]
    return out.reshape(len(mappings), *embedding.shape)
