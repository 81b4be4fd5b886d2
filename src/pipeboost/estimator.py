"""Small residual CNN regressor over masked cost tensors, in plain numpy.

Architecture (fixed): conv 3->8, conv 8->16 + 2x2 max-pool, residual block
16->16, conv 16->24 + 2x2 max-pool, residual block 24->24, global average
pool, linear 24->3. GELU after every conv (tanh approximation), no output
activation. Pools are skipped when a spatial dim is < 2 so tiny test
tensors survive the stack. Everything runs in float64 with hand-written
backward passes; there is no autodiff here.

The net is written once, as the layer table `_LAYERS`, and one walk runs it:
`EstimatorNet.forward` keeps nothing, and the training step `l1_gradients`
keeps what its reverse walk over the table needs. Both walk a batch in row
blocks of at most `_BLOCK_ROWS`, so columns and activations stay small. The
walk is exact row by row: every conv is a stacked matmul, and the head is
one too, so a row's output has the same bits in any batch and `forward` of
a batch equals `forward` of each row. The backward head `dout @ fc.w` is a
plain matmul, which rounds a one-row block differently, so `l1_gradients`
splits a batch evenly into blocks of two rows or more (`step_blocks`). A
block's reverse walk (`l1_block`) hands each conv's gradient rows to its
caller, and `l1_gradients` adds them into the sums row by row, in batch
order, as one numpy reduction over the batch would (`add_rows`); so a step
holds one block's activations whatever the batch size and gives one block's
gradients bit for bit. `training` walks the same blocks on two processes.

Total trainable parameters: 224 + 1,168 + 4,640 + 3,480 + 10,416 + 75
= 20,003, asserted at construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

PARAM_COUNT = 20_003
_MAGIC = b"EST1"
_VERSION = 1
_GELU_K = 0.7978845608028654  # sqrt(2/pi)


# Cubes are written as x2 * x: numpy has no fast path for `x**3`, which goes
# through the general `pow` and is far slower than two multiplies. Both
# functions work in place on their own temporaries, with the float operations
# of `0.5 * x * (1 + tanh(K * (x + 0.044715 * x2 * x)))` in the same order, so
# they give the same bits with fewer allocations. They never write `x`: the
# training cache keeps the pre-activations, and search inputs are read-only.

def gelu(x: np.ndarray) -> np.ndarray:
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    t += 1.0
    h = 0.5 * x
    h *= t
    return h


def gelu_grad(x: np.ndarray) -> np.ndarray:
    # d/dx [0.5 x (1 + tanh(u))], u = k (x + 0.044715 x^3)
    # = 0.5 (1 + t) + 0.5 x (1 - t^2) du, t = tanh(u), du = k (1 + 3 * 0.044715 x^2)
    x2 = x * x
    t = x2 * x
    t *= 0.044715
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    du = x2
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_K
    g = t * t
    np.subtract(1.0, g, out=g)
    g *= 0.5 * x
    g *= du
    t += 1.0
    t *= 0.5
    t += g
    return t


# ---------------------------------------------------------------------------
# Primitive layers: 3x3 same-padding conv (im2col), 2x2 max-pool
# ---------------------------------------------------------------------------

# Columns come from one strided copy, not nine slice copies: a (B, C, 3, 3,
# H, W) window view of the private padded buffer, reshaped, so they never
# alias `x` (the training step caches them).

def _im2col(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    s0, s1, s2, s3 = xp.strides
    windows = np.ndarray(
        (b, c, 3, 3, h, w), dtype=xp.dtype, buffer=xp, strides=(s0, s1, s2, s3, s2, s3)
    )
    return windows.reshape(b, c * 9, h * w)


def _conv_forward(x, w, b):
    bs, c, h, wd = x.shape
    o = w.shape[0]
    cols = _im2col(x)
    out = np.matmul(w.reshape(o, c * 9), cols).reshape(bs, o, h, wd)
    out += b[None, :, None, None]
    return out, (x.shape, cols, w)


def _conv_weight_rows(dout, cache):
    """Each row's (O, C*9) weight gradient; their sum over the batch is the
    conv's weight gradient."""
    (bs, _, h, wd), cols, w = cache
    return np.matmul(dout.reshape(bs, w.shape[0], h * wd), cols.transpose(0, 2, 1))


def _shift(n, s):
    """Along an axis of length n, the slices that a shift by s maps onto each
    other: gradient positions i and column positions i - s."""
    return slice(max(s, 0), n + min(s, 0)), slice(max(-s, 0), n - max(s, 0))


def _conv_backward(dout, cache):
    """A conv's input gradient. Each of the nine column blocks is added, in
    window order, to the part of the (B, C, H, W) gradient it overlaps: only
    the interior is written, with no padded buffer."""
    (bs, c, h, wd), _, w = cache
    o = w.shape[0]
    dflat = dout.reshape(bs, o, h * wd)
    dcols = np.matmul(w.reshape(o, c * 9).T, dflat).reshape(bs, c, 9, h, wd)
    dx = np.zeros((bs, c, h, wd))
    k = 0
    for di in (-1, 0, 1):
        to_i, from_i = _shift(h, di)
        for dj in (-1, 0, 1):
            to_j, from_j = _shift(wd, dj)
            dx[:, :, to_i, to_j] += dcols[:, :, k, from_i, from_j]
            k += 1
    return dx


def _pool_views(x):
    """The four strided views of a 2x2 max-pool, in (0,0), (0,1), (1,0),
    (1,1) window order; an odd last row or column is dropped."""
    h2, w2 = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, i:h2:2, j:w2:2] for i in (0, 1) for j in (0, 1)]


def _pool(x):
    """Inference pool: the max of the four strided views."""
    h, w = x.shape[2:]
    if h < 2 or w < 2:
        return x
    v00, v01, v10, v11 = _pool_views(x)
    return np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))


def _pool_forward(x):
    """`_pool`'s output and, per view, a mask of the windows whose first
    maximum it holds: the gradient routing of an argmax."""
    out = _pool(x)
    if out is x:
        return x, None
    masks = []
    taken = np.zeros(out.shape, dtype=bool)
    for view in _pool_views(x):
        mask = (view == out) & ~taken
        taken |= mask
        masks.append(mask)
    return out, (x.shape, masks)


def _pool_backward(dout, cache):
    if cache is None:
        return dout
    shape, masks = cache
    dx = np.zeros(shape)
    for view, mask in zip(_pool_views(dx), masks):
        view[...] = np.where(mask, dout, 0.0)
    return dx


# ---------------------------------------------------------------------------
# Target preprocessing statistics (z-score, then min-max to [0,1])
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetStats:
    mean: np.ndarray
    std: np.ndarray
    mn: np.ndarray
    mx: np.ndarray

    @classmethod
    def fit(cls, targets: np.ndarray) -> "TargetStats":
        """Fit on the training-split raw targets, shape (n, 3)."""
        if targets.ndim != 2 or targets.shape[0] < 2:
            raise ValueError("need at least 2 target rows to fit statistics")
        mean = targets.mean(axis=0)
        std = targets.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        z = (targets - mean) / std
        return cls(mean=mean, std=std, mn=z.min(axis=0), mx=z.max(axis=0))

    def transform(self, y: np.ndarray) -> np.ndarray:
        z = (y - self.mean) / self.std
        span = self.mx - self.mn
        t = np.where(span > 0, (z - self.mn) / np.where(span > 0, span, 1.0), 0.0)
        return np.clip(t, 0.0, 1.0)

    def to_floats(self) -> list[float]:
        return [float(v) for arr in (self.mean, self.std, self.mn, self.mx) for v in arr]

    @classmethod
    def from_floats(cls, values) -> "TargetStats":
        a = np.asarray(values, dtype=np.float64)
        if a.shape != (12,):
            raise ValueError(f"expected 12 statistics values, got {a.shape}")
        return cls(mean=a[0:3], std=a[3:6], mn=a[6:9], mx=a[9:12])


# ---------------------------------------------------------------------------
# The network
# ---------------------------------------------------------------------------

_SHAPES = {
    "convA.w": (8, 3, 3, 3),
    "convA.b": (8,),
    "convB.w": (16, 8, 3, 3),
    "convB.b": (16,),
    "r1c1.w": (16, 16, 3, 3),
    "r1c1.b": (16,),
    "r1c2.w": (16, 16, 3, 3),
    "r1c2.b": (16,),
    "convC.w": (24, 16, 3, 3),
    "convC.b": (24,),
    "r2c1.w": (24, 24, 3, 3),
    "r2c1.b": (24,),
    "r2c2.w": (24, 24, 3, 3),
    "r2c2.b": (24,),
    "fc.w": (3, 24),
    "fc.b": (3,),
}

# The layers before the GAP + linear head, in order: a conv by its parameter
# name, "gelu", a 2x2 "pool", and a residual block as "skip" (keep the current
# activation) ... "add" (add it back to the block's output).
_LAYERS = (
    "convA", "gelu",
    "convB", "gelu", "pool",
    "skip", "r1c1", "gelu", "r1c2", "add", "gelu",
    "convC", "gelu", "pool",
    "skip", "r2c1", "gelu", "r2c2", "add", "gelu",
)

# Rows per block of `EstimatorNet.forward` and `l1_gradients`. Five
# 2-epoch `train` commands in one process, batch 32, (3, 11, 28) inputs, one
# BLAS thread: peak RSS 51 MB with 4 rows, 55 MB with 8, 60 MB with 16 and
# 72 MB with one 32-row block. 8 rows ran fastest: a median of 0.38 s per
# epoch over 9 runs, against 0.39 s with 4 and 0.46 s (3 runs) with 16, where
# each command faulted in about 73k pages, against 16k with 8.
_BLOCK_ROWS = 8


@dataclass
class EstimatorNet:
    params: dict[str, np.ndarray]
    input_shape: tuple[int, int, int]
    target_stats: TargetStats | None = None

    PARAM_ORDER: ClassVar[tuple[str, ...]] = tuple(_SHAPES)

    def __post_init__(self):
        got = {k: v.shape for k, v in self.params.items()}
        want = dict(_SHAPES)
        if got != want:
            raise ValueError(f"parameter shapes {got} do not match the architecture")
        assert self.param_count == PARAM_COUNT

    @classmethod
    def new(cls, input_shape: tuple[int, int, int], seed: int = 0) -> "EstimatorNet":
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in _SHAPES.items():
            if name.endswith(".b"):
                params[name] = np.zeros(shape)
            else:
                fan_in = int(np.prod(shape[1:]))
                params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        return cls(params=params, input_shape=tuple(input_shape))

    @property
    def param_count(self) -> int:
        return sum(v.size for v in self.params.values())

    # -- forward / backward ------------------------------------------------

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:] if x.ndim == 4 else x.shape} "
                f"does not match expected {self.input_shape}"
            )
        return x

    def _walk(self, x: np.ndarray, cache: list | None) -> np.ndarray:
        """Run `_LAYERS` and the head on a checked batch. Given a `cache` list,
        append one entry per layer (each conv's cache, each GELU's
        pre-activation, each pool's masks, None for "skip" and "add"), then
        the head's (GAP input shape, GAP output)."""
        p = self.params
        for op in _LAYERS:
            kept = None
            if op == "gelu":
                kept, x = x, gelu(x)
            elif op == "pool":
                if cache is None:
                    x = _pool(x)
                else:
                    x, kept = _pool_forward(x)
            elif op == "skip":
                skip = x
            elif op == "add":
                x = skip + x
            else:
                x, kept = _conv_forward(x, p[op + ".w"], p[op + ".b"])
            if cache is not None:
                cache.append(kept)
        g = x.mean(axis=(2, 3))
        if cache is not None:
            cache.append((x.shape, g))
        return np.matmul(g[:, None, :], p["fc.w"].T)[:, 0] + p["fc.b"]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference: one walk per block of `_BLOCK_ROWS` rows.

        A single (C, H, W) input gives a (3,) output; a batch gives (B, 3),
        and an empty batch (0, 3).
        """
        single = np.asarray(x).ndim == 3
        x = self._check(x)
        blocks = range(0, max(len(x), 1), _BLOCK_ROWS)
        out = np.concatenate([self._walk(x[a : a + _BLOCK_ROWS], None) for a in blocks])
        return out[0] if single else out

    def l1_gradients(self, x: np.ndarray, y: np.ndarray):
        """A batch's `forward` output and every parameter's gradient of the
        mean L1 loss to `y`: `l1_block` over each of `step_blocks(len(x))`,
        its conv terms added into zeros, then `head_gradients`. Only the
        head's `dout` and GAP rows outlive their block, so a step holds one
        block's activations whatever the batch size."""
        x = self._check(x)
        n = len(x)
        y = np.broadcast_to(y, (n, len(self.params["fc.b"])))
        grads = zero_gradients()
        parts = [self.l1_block(x[b], y[b], n, partial(add_rows, grads)) for b in step_blocks(n)]
        return head_gradients(grads, parts)

    def l1_block(self, x: np.ndarray, y: np.ndarray, n: int, add) -> tuple:
        """One row block of an `n`-row training step: walk it with a cache
        and back again with `dout = sign(out - y) / (n * 3)` at the head, pass
        each conv's weight and bias term rows to `add(name, rows)`, and return
        the block's (out, dout, GAP) rows."""
        cache = []
        out = self._walk(x, cache)
        dout = np.sign(out - y) / (n * out.shape[1])
        return out, dout, self._backward(cache, dout, add)

    def _backward(self, cache: list, dout: np.ndarray, add) -> np.ndarray:
        """Walk `_LAYERS` in reverse, popping each cache entry as it is used,
        and pass each conv's weight and bias terms to `add(name, rows)`, one
        row per batch row (a bias row is that row's `sum(axis=(2, 3))`);
        return the block's GAP rows."""
        p = self.params
        (bs, ch, h, w), g = cache.pop()
        dg = dout @ p["fc.w"]
        d = np.broadcast_to(dg[:, :, None, None], (bs, ch, h, w)) / (h * w)
        for op in reversed(_LAYERS):
            kept = cache.pop()
            if op == "gelu":
                d = d * gelu_grad(kept)
            elif op == "pool":
                d = _pool_backward(d, kept)
            elif op == "add":
                skip = d
            elif op == "skip":
                d = d + skip
            else:
                add(op + ".w", _conv_weight_rows(d, kept).reshape((bs,) + _SHAPES[op + ".w"]))
                add(op + ".b", d.sum(axis=(2, 3)))
                if cache:  # the input needs no gradient
                    d = _conv_backward(d, kept)
        return g


def step_blocks(n: int) -> list[slice]:
    """The row blocks of an n-row training step: ceil(n / `_BLOCK_ROWS`)
    even parts, so none has one row unless the batch has, because the
    backward head's `dout @ fc.w` rounds a one-row matmul differently."""
    blocks = -(-n // _BLOCK_ROWS)
    return [slice(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def zero_gradients() -> dict[str, np.ndarray]:
    return {name: np.zeros(shape) for name, shape in _SHAPES.items()}


def add_rows(grads: dict, name: str, rows: np.ndarray) -> None:
    """Add `rows` into `grads[name]` one at a time, in order. Rows added in
    batch order onto zeros have the bits of numpy's one `sum(axis=0)` over
    the batch, so the blocks of a step may be walked anywhere as long as
    their rows reach the sum in that order."""
    acc = grads[name]
    for row in rows:
        acc += row


def head_gradients(grads: dict, parts: list) -> tuple[np.ndarray, dict]:
    """Finish a step from its blocks' (out, dout, GAP) rows in batch order:
    set the head's terms in `grads`, whose conv sums hold every row, and
    return the batch output and `grads`."""
    out, dout, g = (np.concatenate(rows) for rows in zip(*parts))
    grads["fc.w"], grads["fc.b"] = dout.T @ g, dout.sum(axis=0)
    return out, grads


# ---------------------------------------------------------------------------
# Weights file: 16-byte header (magic, version, param count), the parameters
# as little-endian float64 in PARAM_ORDER, then the 12 target statistics.
# ---------------------------------------------------------------------------

def save_weights(net: EstimatorNet, path: str | Path) -> None:
    if net.target_stats is None:
        raise ValueError("refusing to save an untrained net (no target statistics)")
    header = _MAGIC + struct.pack("<IQ", _VERSION, net.param_count)
    body = b"".join(
        net.params[k].astype("<f8").tobytes(order="C") for k in EstimatorNet.PARAM_ORDER
    )
    tail = struct.pack("<12d", *net.target_stats.to_floats())
    Path(path).write_bytes(header + body + tail)


def load_weights(path: str | Path, input_shape: tuple[int, int, int]) -> EstimatorNet:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"weights file not found: {p}")
    raw = p.read_bytes()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise ValueError(f"{p}: not a weights file (bad magic)")
    version, count = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise ValueError(f"{p}: unsupported weights version {version}")
    expected = 16 + (count + 12) * 8
    if count != PARAM_COUNT or len(raw) != expected:
        raise ValueError(f"{p}: malformed weights file ({count} params, {len(raw)} bytes)")
    if not np.isfinite(np.frombuffer(raw[16:], dtype="<f8")).all():
        raise ValueError(f"{p}: weights file holds non-finite values")
    flat = np.frombuffer(raw[16 : 16 + count * 8], dtype="<f8")
    params = {}
    pos = 0
    for name in EstimatorNet.PARAM_ORDER:
        shape = _SHAPES[name]
        size = int(np.prod(shape))
        params[name] = flat[pos : pos + size].reshape(shape).copy()
        pos += size
    stats = TargetStats.from_floats(struct.unpack("<12d", raw[16 + count * 8 :]))
    return EstimatorNet(params=params, input_shape=tuple(input_shape), target_stats=stats)
