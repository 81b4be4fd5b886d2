"""Normalized cost tensors and the net inputs of mappings.

The embedding tensor stacks one slice per compute unit; each slice is a
(models x max_layers) matrix of per-layer execution times divided by the
single largest layer cost anywhere in the profile, zero-padded on the
right for models with fewer layers; its shape, (units, models,
max_layers), is the estimator's input shape. A mapping is presented to the
estimator as the embedding masked by the mapping: each (model-in-mix,
layer) cell keeps its value on the one unit that runs it, and every other
cell is 0.0.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .simulator import Mapping, validate_mapping
from .workload import DeviceProfile, Workload


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_embedding(profile: DeviceProfile) -> np.ndarray:
    """Read-only (units, models, max_layers) normalized execution times:
    `profile.layer_costs` zero-padded on the right and divided by its maximum."""
    data = np.zeros((profile.num_units, len(profile.models), profile.max_layers))
    for m, rows in enumerate(profile.layer_costs):
        data[:, m, : len(rows[0])] = rows
    peak = data.max()
    if peak > 0:
        data /= peak
    return _freeze(data)


@functools.lru_cache(maxsize=256)
def _cells(model_indices: tuple[int, ...], counts: tuple[int, ...], width: int) -> np.ndarray:
    """Offsets model * width + layer of a mix's layers, flat in mix order."""
    return _freeze(np.array([m * width + l for m, n in zip(model_indices, counts) for l in range(n)]))


def mapped_input(
    embedding: np.ndarray,
    workload: Workload,
    mapping: Mapping,
    profile: DeviceProfile,
) -> np.ndarray:
    """The read-only net input of `mapping` of one mix: its (unit, model,
    layer) cells are copied from the embedding by one gather, and every other
    cell is 0.0. The mapping is checked by `validate_mapping`'s rule first."""
    validate_mapping(mapping, profile, workload)
    want = (profile.num_units, len(profile.models), profile.max_layers)
    if embedding.shape != want:
        raise ValueError(f"shape mismatch: embedding {embedding.shape}, profile {want}")
    return _gather(embedding, workload, [mapping.assignments], profile)[0]


def _gather(embedding: np.ndarray, workload: Workload, rows, profile: DeviceProfile) -> np.ndarray:
    """The stacked, read-only net inputs of `rows`, unchecked: one mapping's
    per-model tuples of legal unit ids a row, flattened here in mix order.
    No rows give an empty (0, *embedding.shape) stack."""
    counts = tuple(profile.models[i].num_layers for i in workload.model_indices)
    width = sum(counts)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
    units = np.fromiter(flat, np.intp, len(rows) * width).reshape(len(rows), width)
    cells = units * embedding[0].size + _cells(workload.model_indices, counts, embedding.shape[2])
    out = np.zeros((len(units), embedding.size))
    out[np.arange(len(units))[:, None], cells] = embedding.reshape(-1)[cells]
    return _freeze(out.reshape(len(units), *embedding.shape))
