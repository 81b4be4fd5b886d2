import random

import numpy as np
import pytest

from pipeboost.embedding import build_embedding, mapped_inputs
from pipeboost.errors import MappingError
from pipeboost.simulator import Mapping, random_mapping_rng
from pipeboost.workload import Workload, generate_profile, layer_cost


def test_embedding_shape_and_normalization(tiny_profile):
    emb = build_embedding(tiny_profile)
    assert emb.shape == (3, 2, 3)
    assert emb.max() == 1.0
    assert emb.min() >= 0.0
    # largest layer anywhere: mA layer a1 on little-cpu (12ms)... no,
    # mB layers are 5/10ms flat, mA a1 on unit 2 is 12ms -> the peak
    assert emb[2, 0, 1] == 1.0
    # exact ratio check for one cell
    assert emb[0, 0, 0] == pytest.approx(2.0 / 12.0)


def test_embedding_zero_padding(tiny_profile):
    emb = build_embedding(tiny_profile)
    # mB has 2 layers, padded to 3
    assert np.all(emb[:, 1, 2] == 0.0)


def masked_by_loop(embedding, workload, mapping):
    """The embedding times a boolean mask that is one-hot over the unit axis
    for each (model-in-mix, layer) cell: the reference for `mapped_inputs`."""
    mask = np.zeros(embedding.shape, dtype=bool)
    for pos, model_idx in enumerate(workload.model_indices):
        for l, unit in enumerate(mapping.assignments[pos]):
            mask[unit, model_idx, l] = True
    return embedding * mask


def test_embedding_is_readonly(tiny_profile):
    emb = build_embedding(tiny_profile)
    for arr in (emb, mapped_inputs(emb, Workload((1,)), [Mapping(((0, 0),))], tiny_profile)):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1


def test_mask_one_hot_over_units(tiny_profile):
    wl = Workload((0, 1))
    m = Mapping(((0, 1, 2), (2, 0)))
    x = mapped_inputs(build_embedding(tiny_profile), wl, [m], tiny_profile)[0]
    mask = x != 0.0  # every real layer of the tiny profile costs > 0
    assert x.shape == (3, 2, 3)
    # every (model-in-mix, real layer) column has exactly one unit set
    assert mask[:, 0, :].sum() == 3
    assert mask[:, 1, :2].sum() == 2
    sums = mask.sum(axis=0)
    assert sums[0].tolist() == [1, 1, 1]
    assert sums[1].tolist() == [1, 1, 0]
    assert mask[0, 0, 0] and mask[1, 0, 1] and mask[2, 0, 2]
    assert mask[2, 1, 0] and mask[0, 1, 1]


def test_mask_absent_model_rows_are_empty(tiny_profile):
    x = mapped_inputs(build_embedding(tiny_profile), Workload((1,)), [Mapping(((0, 0),))], tiny_profile)
    assert not x[0, :, 0, :].any()  # mA not in the mix


def test_masked_input_values(tiny_profile):
    emb = build_embedding(tiny_profile)
    x = mapped_inputs(emb, Workload((0,)), [Mapping(((1, 1, 1),))], tiny_profile)[0]
    # only mA's row on unit 1 survives
    expected = np.array([layer_cost(l, 1) for l in tiny_profile.models[0].layers])
    np.testing.assert_allclose(x[1, 0, :], expected / 12.0)
    assert x.sum() == pytest.approx((expected / 12.0).sum())


def test_masked_input_shape_mismatch(tiny_profile, gen_profile):
    wl = Workload((0,))
    good = Mapping(((0,) * gen_profile.models[0].num_layers,))
    with pytest.raises(ValueError, match="shape mismatch"):
        mapped_inputs(build_embedding(tiny_profile), wl, [good], gen_profile)


@pytest.mark.parametrize("seed", range(6))
def test_mapped_inputs_equal_masked_inputs(seed):
    rng = random.Random(seed)
    profile = generate_profile(6, seed=seed)
    emb = build_embedding(profile)
    for _ in range(10):
        wl = Workload(tuple(rng.sample(range(6), rng.randint(1, 5))))
        maps = [random_mapping_rng(wl, profile, rng.randint(1, 4), rng) for _ in range(rng.randint(1, 4))]
        want = np.array([masked_by_loop(emb, wl, m) for m in maps])
        got = mapped_inputs(emb, wl, maps, profile)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_mapped_inputs_keep_the_mask_checks(tiny_profile):
    wl = Workload((0, 1))
    emb = build_embedding(tiny_profile)
    good = Mapping(((0, 1, 2), (1, 1)))
    for bad, match in (
        (Mapping(((0, 1, 3), (1, 1))), "unit id 3"),
        (Mapping(((0, 1.5, 2), (1, 1))), r"unit id 1\.5"),  # not truncated to unit 1
        (Mapping(((0, 1, 2), ("1", 1))), "unit id '1'"),
        (Mapping(((0, 1), (1, 1))), "assignments"),
        (Mapping(((0, 1, 2),)), "models"),
        (Mapping(((0, 1.0, 2), (1, 1))), r"unit id 1\.0"),
        (Mapping(((0, 1, 2), (np.int64(1), 1))), r"unit id np\.int64\(1\)"),
    ):
        with pytest.raises(MappingError, match=match):
            mapped_inputs(emb, wl, [good, bad], tiny_profile)
