"""Network structure, numerics, and the weights file format."""

import numpy as np
import pytest

from pipeboost.estimator import (
    PARAM_COUNT,
    EstimatorNet,
    TargetStats,
    _conv_backward,
    _conv_forward,
    _im2col,
    _pool_backward,
    _pool_forward,
    gelu,
    gelu_grad,
    load_weights,
    save_weights,
)
from pipeboost.training import gradient_check


SHAPE = (3, 4, 8)  # any (units, models, layers) works; the net pools to 1x1


def test_parameter_count_exact():
    net = EstimatorNet.new(SHAPE, seed=0)
    assert net.param_count == PARAM_COUNT == 20003


def test_parameter_count_by_hand():
    # conv stacks: 8*(3*3*3)+8, 16*(8*3*3)+16, 2 residual 16x16 convs,
    # 24*(16*3*3)+24, 2 residual 24x24 convs, then a 24->3 head
    expected = (
        (8 * 3 * 3 * 3 + 8)
        + (16 * 8 * 3 * 3 + 16)
        + 2 * (16 * 16 * 3 * 3 + 16)
        + (24 * 16 * 3 * 3 + 24)
        + 2 * (24 * 24 * 3 * 3 + 24)
        + (3 * 24 + 3)
    )
    assert PARAM_COUNT == expected


def test_init_determinism_and_seed_sensitivity():
    a = EstimatorNet.new(SHAPE, seed=7)
    b = EstimatorNet.new(SHAPE, seed=7)
    c = EstimatorNet.new(SHAPE, seed=8)
    for k in EstimatorNet.PARAM_ORDER:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    assert any(
        not np.array_equal(a.params[k], c.params[k]) for k in EstimatorNet.PARAM_ORDER
    )
    # biases start at zero
    assert not a.params["convA.b"].any()


def test_forward_shapes_and_batching():
    net = EstimatorNet.new(SHAPE, seed=0)
    rng = np.random.default_rng(1)
    single = rng.random(SHAPE)
    batch = rng.random((5,) + SHAPE)
    out1 = net.forward(single)
    out5 = net.forward(batch)
    assert out1.shape == (3,)  # single inputs are unwrapped
    assert out5.shape == (5, 3)
    # batch processing must agree with one-at-a-time processing
    np.testing.assert_allclose(
        out5, np.stack([net.forward(batch[i]) for i in range(5)]), atol=1e-12
    )


def conv_backward_padded(dout, cache):
    """A conv's input, weight and bias gradients, the input gradient through a
    zero-padded buffer: the reference for `_conv_backward` and the row terms."""
    (bs, c, h, wd), cols, w = cache
    o = w.shape[0]
    dflat = dout.reshape(bs, o, h * wd)
    dw = np.matmul(dflat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w.reshape(o, c * 9).T, dflat).reshape(bs, c, 9, h, wd)
    dxp = np.zeros((bs, c, h + 2, wd + 2))
    k = 0
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di : di + h, dj : dj + wd] += dcols[:, :, k]
            k += 1
    return dxp[:, :, 1 : h + 1, 1 : wd + 1], dw, dout.sum(axis=(0, 2, 3))


@pytest.mark.parametrize(
    "shape", [(2, 3, 1, 5), (2, 3, 4, 1), (1, 2, 1, 1), (3, 4, 2, 7), (2, 5, 6, 2), (2, 2, 2, 2)]
)
def test_conv_backward_equals_padded_reference(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, shape[1], 3, 3))
    out, cache = _conv_forward(x, w, rng.normal(size=3))
    dout = rng.normal(size=out.shape)
    dx = _conv_backward(dout, cache)
    assert dx.flags.c_contiguous
    want = conv_backward_padded(dout, cache)[0]
    assert np.array_equal(dx.view(np.int64), np.ascontiguousarray(want).view(np.int64))


def unrolled_forward_backward(net, x, dout):
    """The net's forward pass and gradients with every layer written out, as
    before the layer table, over the whole batch as one block: the reference
    for `forward` and `l1_gradients`."""
    p = net.params
    c = {}
    a_pre, c["convA"] = _conv_forward(x, p["convA.w"], p["convA.b"])
    a = gelu(a_pre)
    b_pre, c["convB"] = _conv_forward(a, p["convB.w"], p["convB.b"])
    b_out, c["pool1"] = _pool_forward(gelu(b_pre))
    r1a_pre, c["r1c1"] = _conv_forward(b_out, p["r1c1.w"], p["r1c1.b"])
    r1b_pre, c["r1c2"] = _conv_forward(gelu(r1a_pre), p["r1c2.w"], p["r1c2.b"])
    s1 = b_out + r1b_pre
    cc_pre, c["convC"] = _conv_forward(gelu(s1), p["convC.w"], p["convC.b"])
    c_out, c["pool2"] = _pool_forward(gelu(cc_pre))
    r2a_pre, c["r2c1"] = _conv_forward(c_out, p["r2c1.w"], p["r2c1.b"])
    r2b_pre, c["r2c2"] = _conv_forward(gelu(r2a_pre), p["r2c2.w"], p["r2c2.b"])
    s2 = c_out + r2b_pre
    r2_out = gelu(s2)
    g = r2_out.mean(axis=(2, 3))
    out = g @ p["fc.w"].T + p["fc.b"]

    grads = {"fc.w": dout.T @ g, "fc.b": dout.sum(axis=0)}
    dg = dout @ p["fc.w"]
    bs, ch, h, w = r2_out.shape
    dr2_out = np.broadcast_to(dg[:, :, None, None], (bs, ch, h, w)) / (h * w)
    ds2 = dr2_out * gelu_grad(s2)
    dr2b, grads["r2c2.w"], grads["r2c2.b"] = conv_backward_padded(ds2, c["r2c2"])
    dr2a = dr2b * gelu_grad(r2a_pre)
    dc_out, grads["r2c1.w"], grads["r2c1.b"] = conv_backward_padded(dr2a, c["r2c1"])
    dc_out = dc_out + ds2
    dcc = _pool_backward(dc_out, c["pool2"]) * gelu_grad(cc_pre)
    dr1_out, grads["convC.w"], grads["convC.b"] = conv_backward_padded(dcc, c["convC"])
    ds1 = dr1_out * gelu_grad(s1)
    dr1b, grads["r1c2.w"], grads["r1c2.b"] = conv_backward_padded(ds1, c["r1c2"])
    dr1a = dr1b * gelu_grad(r1a_pre)
    db_out, grads["r1c1.w"], grads["r1c1.b"] = conv_backward_padded(dr1a, c["r1c1"])
    db_out = db_out + ds1
    db_act = _pool_backward(db_out, c["pool1"]) * gelu_grad(b_pre)
    da, grads["convB.w"], grads["convB.b"] = conv_backward_padded(db_act, c["convB"])
    da = da * gelu_grad(a_pre)
    _, grads["convA.w"], grads["convA.b"] = conv_backward_padded(da, c["convA"])
    return out, grads


def random_biases(net, rng):
    """Set every bias to a random value, to exercise the bias adds too."""
    for name in EstimatorNet.PARAM_ORDER:
        if name.endswith(".b"):
            net.params[name] = rng.normal(0.0, 0.1, net.params[name].shape)


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize(
    "shape",
    [(3, 2, 3), (3, 5, 7), (3, 11, 28)],  # pools skipped, odd dims truncated, bench size
)
def test_inference_forward_equals_training_forward(shape, batch):
    # `forward` walks without a cache, `l1_gradients` with one
    net = EstimatorNet.new(shape, seed=4)
    rng = np.random.default_rng(batch)
    random_biases(net, rng)
    x = rng.random((batch,) + shape)
    want, _ = net.l1_gradients(x, rng.random((batch, 3)))
    assert np.array_equal(net.forward(x), want)
    if batch == 1:
        assert np.array_equal(net.forward(x[0]), want[0])


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("shape", [(3, 2, 3), (3, 5, 7), (3, 11, 28)])
def test_layer_walk_equals_unrolled_reference(shape, batch):
    net = EstimatorNet.new(shape, seed=6)
    rng = np.random.default_rng(10 + batch)
    random_biases(net, rng)
    x = rng.random((batch,) + shape)
    y = rng.random((batch, 3))
    want_out = unrolled_forward_backward(net, x, np.zeros((batch, 3)))[0]
    want_grads = unrolled_forward_backward(net, x, np.sign(want_out - y) / want_out.size)[1]
    assert np.array_equal(net.forward(x), want_out)
    out, grads = net.l1_gradients(x, y)
    assert np.array_equal(out, want_out)
    assert grads.keys() == want_grads.keys() == set(EstimatorNet.PARAM_ORDER)
    for name, want in want_grads.items():
        assert np.array_equal(grads[name], want), name


@pytest.mark.parametrize("batch", [1, 2, 5, 8, 9, 16, 17, 32, 33])
def test_l1_gradients_equal_one_block(batch):
    # `l1_gradients` walks row blocks; the reference takes the batch as one
    shape = (3, 11, 28)
    net = EstimatorNet.new(shape, seed=2)
    rng = np.random.default_rng(20 + batch)
    random_biases(net, rng)
    x = rng.random((batch,) + shape)
    y = rng.random((batch, 3))
    want_out = unrolled_forward_backward(net, x, np.zeros((batch, 3)))[0]
    want_grads = unrolled_forward_backward(net, x, np.sign(want_out - y) / want_out.size)[1]
    buffers = {}  # first sized by a larger batch, then reused for this one
    net.l1_gradients(rng.random((40,) + shape), rng.random((40, 3)), buffers)
    for out, grads in (net.l1_gradients(x, y), net.l1_gradients(x, y, buffers)):
        assert np.array_equal(out, want_out)
        assert grads.keys() == want_grads.keys() == set(EstimatorNet.PARAM_ORDER)
        for name, want in want_grads.items():
            assert np.array_equal(grads[name], want), name
    if batch == 1:  # an unbatched input, with a target above and below the output
        y1 = want_out[0] + np.array([-1.0, 1.0, -1.0])
        out, grads = net.l1_gradients(x[0], y1)
        want_grads = unrolled_forward_backward(net, x, np.sign(want_out - y1) / want_out.size)[1]
        assert np.array_equal(out, want_out)
        for name, want in want_grads.items():
            assert np.array_equal(grads[name], want), name


def test_blocked_forward_equals_one_walk():
    # past `_BLOCK_ROWS` rows `forward` runs row blocks; a one-row last block
    # must join the block before it, since the head rounds a one-row batch
    # differently
    net = EstimatorNet.new((3, 4, 7), seed=2)
    rng = np.random.default_rng(0)
    for k, v in net.params.items():
        if k.endswith(".b"):
            v[:] = rng.normal(0.0, 0.1, v.shape)
    x = rng.random((64, 3, 4, 7))
    for rows in range(1, 65):
        assert np.array_equal(net.forward(x[:rows]), net._walk(x[:rows], None)), rows


def pool_by_argmax(x, dout):
    """2x2 max-pool by argmax over the windows, and its gradient by
    `put_along_axis`: the reference for `_pool_forward`/`_pool_backward`."""
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    xr = (
        x[:, :, : 2 * h2, : 2 * w2]
        .reshape(b, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h2, w2, 4)
    )
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    dxr = np.zeros((b, c, h2, w2, 4))
    np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
    dx = np.zeros((b, c, h, w))
    dx[:, :, : 2 * h2, : 2 * w2] = (
        dxr.reshape(b, c, h2, w2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, 2 * h2, 2 * w2)
    )
    return out, dx


@pytest.mark.parametrize("shape", [(2, 3, 4, 6), (2, 3, 5, 7), (1, 4, 11, 28), (3, 2, 3, 2)])
def test_pool_equals_argmax_reference(shape):
    rng = np.random.default_rng(sum(shape))
    # small integers make many windows tie; the zeroed quarter ties at 0.0
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    x[:, :, : shape[2] // 2] = 0.0
    out, cache = _pool_forward(x)
    dout = rng.normal(size=out.shape)
    want_out, want_dx = pool_by_argmax(x, dout)
    assert np.array_equal(out, want_out)
    assert np.array_equal(_pool_backward(dout, cache), want_dx)


def test_pool_passes_through_below_two():
    x = np.arange(6.0).reshape(1, 1, 1, 6)
    out, cache = _pool_forward(x)
    assert out is x and cache is None
    assert _pool_backward(x, cache) is x


def test_forward_rejects_wrong_shape():
    net = EstimatorNet.new(SHAPE, seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((3, 4, 9)))


def test_forward_works_on_tiny_spatial_dims():
    # pooling must guard dims < 2: a 3-layer model grid is 4x3 after one
    # pool and must still reach the head without erroring
    net = EstimatorNet.new((3, 2, 3), seed=0)
    out = net.forward(np.random.default_rng(0).random((3, 2, 3)))
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))


def test_gelu_against_reference():
    x = np.linspace(-4, 4, 101)
    k = np.sqrt(2.0 / np.pi)
    ref = 0.5 * x * (1.0 + np.tanh(k * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(gelu(x), ref, rtol=1e-12)
    # numeric derivative
    h = 1e-6
    num = (gelu(x + h) - gelu(x - h)) / (2 * h)
    np.testing.assert_allclose(gelu_grad(x), num, atol=1e-8)


def im2col_by_slices(x):
    """(B, C*9, H*W) columns from nine slice copies of the zero-padded input:
    the reference for `_im2col`."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    cols = np.empty((b, c, 9, h, w), dtype=x.dtype)
    k = 0
    for di in range(3):
        for dj in range(3):
            cols[:, :, k] = xp[:, :, di : di + h, dj : dj + w]
            k += 1
    return cols.reshape(b, c * 9, h * w)


@pytest.mark.parametrize(
    "shape", [(1, 3, 11, 28), (32, 16, 5, 14), (2, 24, 2, 7), (1, 3, 1, 1), (0, 8, 4, 6)]
)
def test_im2col_equals_slice_reference(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    for arr in (x, x[..., ::-1], x.transpose(0, 1, 3, 2)):  # strided inputs too
        arr.flags.writeable = False
        cols = _im2col(arr)
        assert cols.shape == (shape[0], shape[1] * 9, arr.shape[2] * arr.shape[3])
        assert np.array_equal(cols, im2col_by_slices(arr))
        assert not np.shares_memory(cols, arr)


def gelu_by_expression(x):
    x2 = x * x
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * (x2 * x))))


def gelu_grad_by_expression(x):
    k = 0.7978845608028654
    x2 = x * x
    t = np.tanh(k * (x + 0.044715 * (x2 * x)))
    du = k * (1.0 + 3 * 0.044715 * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def test_gelu_and_grad_equal_expression_reference_bit_for_bit():
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [
            rng.normal(0.0, 3.0, 4000),
            rng.uniform(-50.0, 50.0, 2000),
            10.0 ** rng.uniform(-300, 300, 1000) * rng.choice([-1.0, 1.0], 1000),
            [0.0, -0.0, 1e-320, -1e-320, 1e103, -1e103, 1e308, -1e308],  # cubes overflow
        ]
    )
    x.flags.writeable = False
    before = x.copy()
    bits = lambda a: a.view(np.int64)  # -0.0 is not 0.0, and NaN equals its own bits
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in (x, x[::-3], x[:7000].reshape(2, 5, 700)):
            assert np.array_equal(bits(gelu(arr)), bits(gelu_by_expression(arr)))
            assert np.array_equal(bits(gelu_grad(arr)), bits(gelu_grad_by_expression(arr)))
    assert np.array_equal(bits(x), bits(before))


def test_gradients_match_finite_differences():
    net = EstimatorNet.new(SHAPE, seed=3)
    rng = np.random.default_rng(5)
    x = rng.random((2,) + SHAPE)
    y = rng.random((2, 3))
    err = gradient_check(net, x, y, n_checks=150, seed=11)
    assert err <= 1e-4


def test_target_stats_roundtrip_and_clipping():
    rng = np.random.default_rng(2)
    raw = rng.normal(50.0, 20.0, (64, 3))
    stats = TargetStats.fit(raw)
    t = stats.transform(raw)
    assert t.min() >= 0.0 and t.max() <= 1.0
    assert t.min() == pytest.approx(0.0) and t.max() == pytest.approx(1.0)
    # the training rows get their z-scores, min-max scaled per column
    z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    want = (z - z.min(axis=0)) / (z.max(axis=0) - z.min(axis=0))
    np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)
    # out-of-range values clip instead of extrapolating
    beyond = stats.transform(raw.max(axis=0) * 10)
    assert np.all(beyond == 1.0)


def test_target_stats_constant_column():
    raw = np.column_stack(
        [np.full(10, 7.0), np.arange(10.0), np.arange(10.0) * 2]
    )
    stats = TargetStats.fit(raw)
    t = stats.transform(raw)
    assert np.all(np.isfinite(t))
    assert np.all(t[:, 0] == 0.0)  # degenerate column maps to 0


def test_target_stats_serialization():
    raw = np.random.default_rng(0).random((16, 3)) * 100
    stats = TargetStats.fit(raw)
    again = TargetStats.from_floats(stats.to_floats())
    sample = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(stats.transform(sample), again.transform(sample))
    with pytest.raises(ValueError):
        TargetStats.from_floats([1.0] * 11)


def test_weights_file_roundtrip(tmp_path):
    net = EstimatorNet.new(SHAPE, seed=9)
    net.target_stats = TargetStats.fit(
        np.random.default_rng(1).random((8, 3)) * 40
    )
    path = tmp_path / "w.bin"
    save_weights(net, path)
    back = load_weights(path, SHAPE)
    for k in EstimatorNet.PARAM_ORDER:
        np.testing.assert_array_equal(net.params[k], back.params[k])
    np.testing.assert_array_equal(
        net.target_stats.to_floats(), back.target_stats.to_floats()
    )
    # byte-identical on re-save
    save_weights(back, tmp_path / "w2.bin")
    assert (tmp_path / "w.bin").read_bytes() == (tmp_path / "w2.bin").read_bytes()


def test_save_weights_requires_stats(tmp_path):
    net = EstimatorNet.new(SHAPE, seed=0)
    with pytest.raises(ValueError):
        save_weights(net, tmp_path / "w.bin")


def test_load_weights_rejects_corruption(tmp_path):
    net = EstimatorNet.new(SHAPE, seed=0)
    net.target_stats = TargetStats.fit(np.ones((4, 3)) + np.arange(4)[:, None])
    path = tmp_path / "w.bin"
    save_weights(net, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:-4])  # truncated
    with pytest.raises(ValueError):
        load_weights(bad, SHAPE)
    raw[0] = 0
    bad.write_bytes(bytes(raw))  # magic broken
    with pytest.raises(ValueError):
        load_weights(bad, SHAPE)
    with pytest.raises(FileNotFoundError):
        load_weights(tmp_path / "missing.bin", SHAPE)
