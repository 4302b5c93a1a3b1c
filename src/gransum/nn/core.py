"""Minimal deterministic neural kernel shared by both trainable models.

Tensors are plain float64 numpy arrays.  Every layer is a pair of pure
functions (forward returning a cache, backward consuming it) with
gradients accumulated into a ParameterStore, which keeps the whole stack
checkable against central finite differences.  All randomness flows from
the store's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import kernels


class TrainingError(RuntimeError):
    """Raised when training produces a non-finite loss."""


class ShapeError(RuntimeError):
    """Operand shapes are incompatible: a program fault, not bad input."""


# float64 values one store may hold: 128 MiB of weights, about 640 MiB
# with the gradients and Adam's state.
MAX_PARAMETERS = 2 ** 24


def check_hyperparameters(config, minimums: dict[str, int]) -> None:
    """Range checks shared by the model configs: each field named in
    minimums is at least its minimum, lr is finite and > 0, and every
    other float field is finite.  A failure is a ValueError naming the
    config and the key."""
    what = type(config).__name__
    for key, low in minimums.items():
        value = getattr(config, key)
        if value < low:
            raise ValueError(f"{what}: {key!r} must be >= {low}, got {value!r}")
    if not 0.0 < config.lr < math.inf:
        raise ValueError(f"{what}: 'lr' must be finite and > 0, got {config.lr!r}")
    for key, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what}: {key!r} must be finite, got {value!r}")


class _Gradients(dict):
    """Gradient buffers by parameter name, each allocated as zeros when
    it is first read, so a step holds only the buffers its backward pass
    has reached so far."""

    def __init__(self, params: dict[str, np.ndarray]):
        super().__init__()
        self._params = params

    def __missing__(self, name: str) -> np.ndarray:
        buf = self[name] = np.zeros_like(self._params[name])
        return buf


class ParameterStore:
    """Named parameters with matching gradient buffers, each allocated
    zeroed when first read and dropped by zero_grads.

    Initialization is deterministic in the seed and in the order add() is
    called, so two models built by the same code path are bit-identical.
    add() refuses, before allocating, a parameter that would take the
    store past MAX_PARAMETERS values.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.step = 0
        self.size = 0
        self.params: dict[str, np.ndarray] = {}
        self.grads = _Gradients(self.params)
        self._rng = np.random.default_rng(seed)

    def add(self, name: str, shape: tuple[int, ...], init: str = "glorot") -> np.ndarray:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        size = self.size + math.prod(shape)
        if size > MAX_PARAMETERS:
            raise ValueError(
                f"parameter {name!r} of shape {shape} would bring the model to "
                f"{size} values, over the cap of {MAX_PARAMETERS}"
            )
        self.size = size
        if init == "glorot":
            fan_in = shape[0]
            fan_out = shape[-1]
            s = math.sqrt(6.0 / (fan_in + fan_out))
            value = self._rng.uniform(-s, s, size=shape)
        elif init == "zeros":
            value = np.zeros(shape)
        elif init == "ones":
            value = np.ones(shape)
        elif init == "embedding":
            value = self._rng.normal(0.0, 0.1, size=shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.params[name] = np.asarray(value, dtype=np.float64)
        return self.params[name]

    def zero_grads(self) -> None:
        """Drops every gradient buffer; the next read of one allocates it
        zeroed."""
        self.grads.clear()

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        buf = self.grads[name]
        if buf.shape != np.shape(grad):
            raise ShapeError(
                f"gradient for {name!r}: got {np.shape(grad)}, want {buf.shape}"
            )
        buf += grad


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax with exact zeros outside the mask."""
    if scores.shape != mask.shape:
        raise ShapeError(f"scores {scores.shape} vs mask {mask.shape}")
    if not mask.any(axis=-1).all():
        raise ShapeError("softmax row with no allowed positions")
    neg = np.where(mask, scores, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - m)
    e = np.where(mask, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (dp - (dp * p).sum(axis=-1, keepdims=True))


# one read-only table per width, as long as the longest length asked for;
# a row depends only on its position, so a shorter table is a slice of it
_SINUSOIDS: dict[int, np.ndarray] = {}


def sinusoidal_encoding(n: int, d: int) -> np.ndarray:
    """Standard sine/cosine positional encoding table [n, d], read-only."""
    table = _SINUSOIDS.get(d)
    if table is None or table.shape[0] < n:
        table = np.zeros((n, d))
        position = np.arange(n)[:, None].astype(np.float64)
        div = np.exp(np.arange(0, d, 2, dtype=np.float64) * (-math.log(10000.0) / d))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div[: d // 2])
        table.flags.writeable = False
        _SINUSOIDS[d] = table
    return table[:n]


# ----------------------------------------------------------------------
# Linear and layer norm
# ----------------------------------------------------------------------

def linear_forward(x, store: ParameterStore, w_name: str, b_name: str):
    w = store.params[w_name]
    b = store.params[b_name]
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear {w_name}: input {x.shape} vs weight {w.shape}")
    return x @ w + b, (x, w_name, b_name)


def linear_backward(dy, cache, store: ParameterStore):
    x, w_name, b_name = cache
    w = store.params[w_name]
    store.accumulate(w_name, x.T @ dy)
    store.accumulate(b_name, dy.sum(axis=0))
    return dy @ w.T


_LN_EPS = 1e-6


def layer_norm_forward(x, store: ParameterStore, g_name: str, b_name: str):
    g = store.params[g_name]
    b = store.params[b_name]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g_name, b_name)


def layer_norm_backward(dy, cache, store: ParameterStore):
    xhat, inv, g_name, b_name = cache
    g = store.params[g_name]
    store.accumulate(g_name, (dy * xhat).sum(axis=0))
    store.accumulate(b_name, dy.sum(axis=0))
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


# ----------------------------------------------------------------------
# GRU (sequence form, backed by the batched kernels)
# ----------------------------------------------------------------------

def add_gru_params(store: ParameterStore, prefix: str, input_dim: int, hidden: int):
    store.add(f"{prefix}.wx_zr", (input_dim, 2 * hidden))
    store.add(f"{prefix}.wx_n", (input_dim, hidden))
    store.add(f"{prefix}.wh_zr", (hidden, 2 * hidden))
    store.add(f"{prefix}.wh_n", (hidden, hidden))
    store.add(f"{prefix}.b_zr", (2 * hidden,), init="zeros")
    store.add(f"{prefix}.b_n", (hidden,), init="zeros")


def gru_forward(x, store: ParameterStore, prefix: str, h0=None, lengths=None):
    """GRU over S zero-padded sequences x [T, S, I] with h0 [S, H] and
    lengths [S] (states [T, S, H]; a sequence's state is carried
    unchanged through its padded steps).  Returns the states and a
    cache."""
    p = store.params
    hidden = p[f"{prefix}.wh_n"].shape[0]
    steps, seqs, in_dim = x.shape
    h0 = np.zeros((seqs, hidden)) if h0 is None else h0
    rows = x.reshape(steps * seqs, in_dim)
    xzr = (rows @ p[f"{prefix}.wx_zr"]).reshape(steps, seqs, 2 * hidden)
    xn = (rows @ p[f"{prefix}.wx_n"]).reshape(steps, seqs, hidden)
    hs, zs, rs, ns = kernels.gru_seq_forward(
        xzr, xn, p[f"{prefix}.wh_zr"][None], p[f"{prefix}.wh_n"][None],
        p[f"{prefix}.b_zr"][None], p[f"{prefix}.b_n"][None], h0, lengths,
    )
    return hs[1:], (x, hs, zs, rs, ns, prefix)


def gru_backward(dh_out, cache, store: ParameterStore):
    """Backward for gru_forward; returns (dx [T, S, I], dh0 [S, H])."""
    x, hs, zs, rs, ns, prefix = cache
    p = store.params
    steps, seqs, hidden = zs.shape
    dxzr, dxn, dwhzr, dwhn, dbzr, dbn, dh0 = kernels.gru_seq_backward(
        hs, zs, rs, ns, p[f"{prefix}.wh_zr"][None], p[f"{prefix}.wh_n"][None], dh_out
    )
    dxzr = dxzr.reshape(steps * seqs, 2 * hidden)
    dxn = dxn.reshape(steps * seqs, hidden)
    rows = x.reshape(steps * seqs, -1)
    store.accumulate(f"{prefix}.wh_zr", dwhzr[0])
    store.accumulate(f"{prefix}.wh_n", dwhn[0])
    store.accumulate(f"{prefix}.b_zr", dbzr[0])
    store.accumulate(f"{prefix}.b_n", dbn[0])
    store.accumulate(f"{prefix}.wx_zr", rows.T @ dxzr)
    store.accumulate(f"{prefix}.wx_n", rows.T @ dxn)
    dx = (dxzr @ p[f"{prefix}.wx_zr"].T + dxn @ p[f"{prefix}.wx_n"].T).reshape(x.shape)
    return dx, dh0


def add_bigru_params(store: ParameterStore, prefix: str, input_dim: int, hidden: int):
    add_gru_params(store, f"{prefix}.fwd", input_dim, hidden)
    add_gru_params(store, f"{prefix}.bwd", input_dim, hidden)


def _flip(steps: int, seqs: int, lengths):
    """Reverses the step axis of a [T, S, ...] array, each sequence within
    its own length (all T when lengths is None); padded steps stay in
    place.  It is its own inverse."""
    t = np.arange(steps)[:, None]
    n = np.full((1, seqs), steps) if lengths is None else np.asarray(lengths)[None, :]
    rows = np.where(t < n, n - 1 - t, t)
    cols = np.arange(seqs)[None, :]
    return lambda a: a[rows, cols]


def _direction_sets(m: int, seqs: int) -> tuple[slice, slice]:
    """The kernel columns of model m's forward and backward sequences:
    each model has two weight sets of seqs sequences, forward first."""
    return slice(2 * m * seqs, (2 * m + 1) * seqs), slice((2 * m + 1) * seqs, (2 * m + 2) * seqs)


def bigru_forward(xs, stores: list[ParameterStore], prefix: str, lengths=None):
    """Bidirectional GRUs of M models run together; each output is the
    fwd/bwd concatenation.

    xs[m] is model m's S zero-padded sequences [T_m, S, I] with lengths
    lengths[m] [S] (None, or a None entry: all T_m), and its output is
    [T_m, S, 2H] (padded rows carry no meaning); S, I and H are shared.
    Both directions of every model's sequences run as one kernel call of
    2M weight sets, padded to the longest T_m, the backward direction on
    each sequence reversed within its own length.  Each model's four input
    projections are one matmul on its own rows, so a model's arithmetic
    is that of a call of its own.  One model is the M = 1 case.
    """
    names = (f"{prefix}.fwd", f"{prefix}.bwd")
    lengths = [None] * len(xs) if lengths is None else lengths
    seqs = xs[0].shape[1]
    hidden = stores[0].params[f"{names[0]}.wh_n"].shape[0]
    steps = max(x.shape[0] for x in xs)
    proj = np.zeros((steps, 2 * len(xs) * seqs, 3 * hidden))
    w_ins, flips = [], []
    for m, (x, store, n) in enumerate(zip(xs, stores, lengths)):
        p = store.params
        t_m, _, in_dim = x.shape
        flip = _flip(t_m, seqs, n)
        w_in = np.concatenate([p[f"{q}.{w}"] for q in names for w in ("wx_zr", "wx_n")], axis=1)
        proj_m = (x.reshape(t_m * seqs, in_dim) @ w_in).reshape(t_m, seqs, 6 * hidden)
        fwd, bwd = _direction_sets(m, seqs)
        proj[:t_m, fwd] = proj_m[:, :, :3 * hidden]
        proj[:t_m, bwd] = flip(proj_m[:, :, 3 * hidden:])
        w_ins.append(w_in)
        flips.append(flip)
    whzr, whn, bzr, bn = (
        np.stack([s.params[f"{q}.{w}"] for s in stores for q in names])
        for w in ("wh_zr", "wh_n", "b_zr", "b_n")
    )
    all_lengths = np.concatenate([
        np.tile(np.full(seqs, x.shape[0]) if n is None else n, 2) for x, n in zip(xs, lengths)
    ])
    states = kernels.gru_seq_forward(
        proj[:, :, :2 * hidden], proj[:, :, 2 * hidden:], whzr, whn, bzr, bn,
        np.zeros((2 * len(xs) * seqs, hidden)), all_lengths,
    )
    hs = states[0][1:]
    outs = []
    for m, (x, flip) in enumerate(zip(xs, flips)):
        fwd, bwd = _direction_sets(m, seqs)
        t_m = x.shape[0]
        outs.append(np.concatenate([hs[:t_m, fwd], flip(hs[:t_m, bwd])], axis=2))
    return outs, [xs, w_ins, flips, states, whzr, whn, names]


def bigru_backward(douts, cache, stores: list[ParameterStore]):
    """Backward for bigru_forward, one dout per model; returns each
    model's dx, of the shape of its x.  Each set's recurrent weight
    gradients sum its own model's steps only (see
    kernels.gru_seq_backward).  The cache is consumed: it is emptied, so
    the encoder states are freed as soon as their gradients are taken."""
    xs, w_ins, flips, states, whzr, whn, names = cache
    cache.clear()
    steps, batch, hidden = states[1].shape
    seqs = batch // (2 * len(xs))
    dh_out = np.zeros((steps, batch, hidden))
    for m, (dout, flip) in enumerate(zip(douts, flips)):
        fwd, bwd = _direction_sets(m, seqs)
        t_m = dout.shape[0]
        dh_out[:t_m, fwd] = dout[:, :, :hidden]
        dh_out[:t_m, bwd] = flip(dout[:, :, hidden:])
    dxzr, dxn, dwhzr, dwhn, dbzr, dbn, _ = kernels.gru_seq_backward(
        *states, whzr, whn, dh_out, set_steps=np.repeat([x.shape[0] for x in xs], 2)
    )
    del states, dh_out
    dxs = []
    for m, (x, w_in, flip, store) in enumerate(zip(xs, w_ins, flips, stores)):
        t_m, _, in_dim = x.shape
        fwd, bwd = _direction_sets(m, seqs)
        dproj = np.concatenate(
            [dxzr[:t_m, fwd], dxn[:t_m, fwd], flip(dxzr[:t_m, bwd]), flip(dxn[:t_m, bwd])],
            axis=2,
        ).reshape(t_m * seqs, 6 * hidden)
        dw_in = x.reshape(t_m * seqs, in_dim).T @ dproj
        for d, q in enumerate(names):
            g = 2 * m + d
            store.accumulate(f"{q}.wh_zr", dwhzr[g])
            store.accumulate(f"{q}.wh_n", dwhn[g])
            store.accumulate(f"{q}.b_zr", dbzr[g])
            store.accumulate(f"{q}.b_n", dbn[g])
            col = 3 * hidden * d
            store.accumulate(f"{q}.wx_zr", dw_in[:, col:col + 2 * hidden])
            store.accumulate(f"{q}.wx_n", dw_in[:, col + 2 * hidden:col + 3 * hidden])
        dxs.append((dproj @ w_in.T).reshape(t_m, seqs, in_dim))
    return dxs


# ----------------------------------------------------------------------
# Transformer block (pre-norm attention + feed-forward, final norm)
# ----------------------------------------------------------------------

def add_transformer_params(store: ParameterStore, prefix: str, d: int, d_ff: int):
    for ln in ("ln1", "ln2", "ln3"):
        store.add(f"{prefix}.{ln}_g", (d,), init="ones")
        store.add(f"{prefix}.{ln}_b", (d,), init="zeros")
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"{prefix}.{name}", (d, d))
        store.add(f"{prefix}.{name}_b", (d,), init="zeros")
    store.add(f"{prefix}.ff_w1", (d, d_ff))
    store.add(f"{prefix}.ff_b1", (d_ff,), init="zeros")
    store.add(f"{prefix}.ff_w2", (d_ff, d))
    store.add(f"{prefix}.ff_b2", (d,), init="zeros")


def transformer_forward(x, store: ParameterStore, prefix: str):
    """Single-head pre-norm transformer block; output shape equals input.

    With all attention/feed-forward weights at zero the block reduces to
    the layer-normed residual path.  Positional information is the
    caller's responsibility.
    """
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"transformer input must be [n, d], got {x.shape}")
    d = x.shape[1]
    scale = 1.0 / math.sqrt(d)

    h1, ln1_cache = layer_norm_forward(x, store, f"{prefix}.ln1_g", f"{prefix}.ln1_b")
    q, q_cache = linear_forward(h1, store, f"{prefix}.wq", f"{prefix}.wq_b")
    k, k_cache = linear_forward(h1, store, f"{prefix}.wk", f"{prefix}.wk_b")
    v, v_cache = linear_forward(h1, store, f"{prefix}.wv", f"{prefix}.wv_b")
    s = (q @ k.T) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    c = p @ v
    a, o_cache = linear_forward(c, store, f"{prefix}.wo", f"{prefix}.wo_b")
    x1 = x + a

    h2, ln2_cache = layer_norm_forward(x1, store, f"{prefix}.ln2_g", f"{prefix}.ln2_b")
    f1_pre, ff1_cache = linear_forward(h2, store, f"{prefix}.ff_w1", f"{prefix}.ff_b1")
    f1 = np.tanh(f1_pre)
    f, ff2_cache = linear_forward(f1, store, f"{prefix}.ff_w2", f"{prefix}.ff_b2")
    x2 = x1 + f

    y, ln3_cache = layer_norm_forward(x2, store, f"{prefix}.ln3_g", f"{prefix}.ln3_b")
    cache = (
        ln1_cache, q_cache, k_cache, v_cache, o_cache, q, k, v, p, c, scale,
        ln2_cache, ff1_cache, f1, ff2_cache, ln3_cache,
    )
    return y, cache


def transformer_backward(dy, cache, store: ParameterStore):
    (
        ln1_cache, q_cache, k_cache, v_cache, o_cache, q, k, v, p, c, scale,
        ln2_cache, ff1_cache, f1, ff2_cache, ln3_cache,
    ) = cache

    dx2 = layer_norm_backward(dy, ln3_cache, store)
    df = dx2
    df1 = linear_backward(df, ff2_cache, store)
    df1_pre = df1 * (1.0 - f1 * f1)
    dh2 = linear_backward(df1_pre, ff1_cache, store)
    dx1 = dx2 + layer_norm_backward(dh2, ln2_cache, store)

    da = dx1
    dc = linear_backward(da, o_cache, store)
    dp = dc @ v.T
    dv = p.T @ dc
    ds = softmax_backward(dp, p)
    dq = ds @ k * scale
    dk = ds.T @ q * scale
    dh1 = (
        linear_backward(dq, q_cache, store)
        + linear_backward(dk, k_cache, store)
        + linear_backward(dv, v_cache, store)
    )
    dx = dx1 + layer_norm_backward(dh1, ln1_cache, store)
    return dx


# ----------------------------------------------------------------------
# Embedding bag (mean over hashed n-gram buckets)
# ----------------------------------------------------------------------

class Bag:
    """n tokens over k distinct surfaces, the input of the embedding bag:
    token i is surface tokens[i], every surface in range(k) is some
    token's, and surface j's buckets are flat[starts[j]:starts[j] +
    counts[j]].  The index arrays of the backward pass are made on its
    first call and kept, so a bag reused across steps makes them once.
    Indices are int32, which halves what a kept bag holds."""

    def __init__(self, tokens: np.ndarray, buckets: list[np.ndarray]):
        self.tokens = tokens.astype(np.int32)
        self.counts = np.array([len(b) for b in buckets], dtype=np.int32)
        self.flat = np.concatenate(buckets, dtype=np.int32) if buckets else np.zeros(0, np.int32)
        self.starts = np.zeros(len(buckets), dtype=np.int32)
        np.cumsum(self.counts[:-1], out=self.starts[1:])

    @cached_property
    def _backward_index(self):
        """(token order, surface runs, buckets, bucket runs, surface rows)
        of the backward's two segment sums: the tokens sorted by surface
        and where each surface's run starts; then the sorted distinct
        buckets, where each one's run starts among the sorted bucket
        entries, and each sorted entry's surface."""
        token_order = np.argsort(self.tokens, kind="stable")
        sorted_tokens = self.tokens[token_order]
        surface_runs = np.flatnonzero(np.r_[True, sorted_tokens[1:] != sorted_tokens[:-1]])
        order = np.argsort(self.flat, kind="stable")
        flat = self.flat[order]
        bucket_runs = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        rows = np.repeat(np.arange(self.counts.size, dtype=np.int32), self.counts)[order]
        return (
            token_order.astype(np.int32), surface_runs.astype(np.int32), flat[bucket_runs],
            bucket_runs.astype(np.int32), rows,
        )


class Surfaces:
    """Distinct token surfaces numbered in order of first appearance, each
    with its bucket array from buckets(surface)."""

    def __init__(self, buckets):
        self._buckets = buckets
        self._ids: dict[str, int] = {}
        self._arrays: list[np.ndarray] = []

    def ids(self, surfaces) -> np.ndarray:
        """The ids of surfaces, numbering the ones not seen before."""
        out = np.empty(len(surfaces), dtype=np.int32)
        for i, surface in enumerate(surfaces):
            j = self._ids.get(surface)
            if j is None:
                j = self._ids[surface] = len(self._arrays)
                self._arrays.append(self._buckets(surface))
            out[i] = j
        return out

    def bag(self, ids: np.ndarray) -> Bag:
        """The Bag of tokens with surface ids ids, over their distinct
        surfaces."""
        distinct, tokens = np.unique(ids, return_inverse=True)
        return Bag(tokens, [self._arrays[j] for j in distinct])


def embed_bag_forward(bag: Bag, table: np.ndarray) -> np.ndarray:
    """Each token's mean over its surface's bucket rows of table; the mean
    is taken once per distinct surface."""
    if not bag.tokens.size:
        return np.zeros((0, table.shape[1]))
    sums = np.add.reduceat(table[bag.flat], bag.starts, axis=0)
    return (sums / bag.counts[:, None])[bag.tokens]


def embed_bag_backward(dx, bag: Bag, grad_table: np.ndarray) -> None:
    """Adds the gradient of embed_bag_forward, for dx the gradient of its
    output, into grad_table: the tokens' gradients are summed per
    surface, then each surface's mean share is summed per bucket."""
    if not bag.tokens.size:
        return
    token_order, surface_runs, buckets, bucket_runs, rows = bag._backward_index
    # sort-based segment sums; np.add.at is an order of magnitude slower
    dsurface = np.add.reduceat(dx[token_order], surface_runs, axis=0) / bag.counts[:, None]
    grad_table[buckets] += np.add.reduceat(dsurface[rows], bucket_runs, axis=0)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------

def sigmoid_bce(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy, overflow-safe; returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    n = logits.size
    if n == 0:
        raise ShapeError("empty loss")
    per = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    dlogits = (sigmoid(logits) - labels) / n
    return float(per.mean()), dlogits


# ----------------------------------------------------------------------
# Optimizer and the generic training step
# ----------------------------------------------------------------------

# Adam's moment decay rates and denominator guard; only the rate varies
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, store: ParameterStore, lr: float):
        self.store = store
        self.lr = lr
        # each moment is one buffer, viewed per parameter: two allocations
        # for the optimizer's life rather than two per parameter
        self.m = _views(store.params)
        self.v = _views(store.params)
        self._largest = max(v.size for v in store.params.values())

    def step(self) -> None:
        self.store.step += 1
        t = self.store.step
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        # one scratch for every parameter, alive during the step only, so
        # optimizers that step one after another hold one between them
        scratch = np.empty(self._largest)
        for name, param in self.store.params.items():
            g = self.store.grads[name]
            m = self.m[name]
            v = self.v[name]
            s = scratch[:param.size].reshape(param.shape)
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v += s
            np.multiply(v, 1.0 / bc2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, s, out=s)
            s *= self.lr / bc1
            param -= s


def _views(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Zeroed arrays shaped like params, views into one buffer."""
    buf = np.zeros(sum(v.size for v in params.values()))
    out = {}
    lo = 0
    for name, v in params.items():
        out[name] = buf[lo:lo + v.size].reshape(v.shape)
        lo += v.size
    return out


def train_step(models, batches, optimizers: list[Adam]) -> list[float]:
    """One deterministic gradient step of each model on its own batch;
    returns the losses.

    A model exposes store (a ParameterStore) and loss_and_grads(batch)
    accumulating into store.grads.  Models of a class that has
    losses_and_grads(models, batches) run together through it: it yields
    each model's loss as soon as that model's gradients are complete, and
    may share work between the models (the summarizers share one BiGRU
    call) while keeping each model's arithmetic that of its step alone.
    Each model's Adam step runs, and its gradient buffers are released,
    as soon as its loss is in, before the next model's gradients are
    made.  A non-finite loss is a TrainingError naming the step, the seed
    and the first parameter whose gradient is non-finite.
    """
    for model in models:
        model.store.zero_grads()
    together = getattr(type(models[0]), "losses_and_grads", None)
    if together is None:
        losses = (model.loss_and_grads(batch) for model, batch in zip(models, batches))
    else:
        losses = together(models, batches)
    out = []
    for model, optimizer, loss in zip(models, optimizers, losses):
        store = model.store
        if not np.isfinite(loss):
            bad = next((n for n in store.params if not np.isfinite(store.grads[n]).all()), None)
            raise TrainingError(
                f"non-finite loss {loss!r} at step {store.step} (seed {store.seed}); "
                + ("all gradients finite" if bad is None else f"first non-finite gradient {bad!r}")
            )
        optimizer.step()
        store.zero_grads()
        out.append(loss)
    return out


@dataclass
class History:
    """One training run: each epoch's mean batch loss, each epoch's dev
    score (0.0 without a dev score) and the epoch whose state the model
    holds at the end."""

    epoch_losses: list[float] = field(default_factory=list)
    dev_scores: list[float] = field(default_factory=list)
    best_epoch: int = -1


@dataclass(frozen=True)
class Job:
    """One model's part of a fit: its training items, batch size,
    shuffle seed and learning rate."""

    model: object
    items: list
    batch_size: int
    seed: int
    lr: float


def fit(jobs: list[Job], epochs: int, dev_score=None) -> list[History]:
    """The epoch loop of every trainable model: Adam over shuffled batches
    of each job's items, the jobs in lockstep; returns one History per job.

    Step k of an epoch is one train_step over the k-th batch of every
    job; a job with fewer batches sits out the remaining steps.  Each
    job's epoch shuffle is drawn from (its seed, epoch) and it has its
    own Adam, so it trains exactly as it would alone.  With dev_score
    (models -> one score per model) the models are scored together after
    each epoch, and each model gets back the parameters and step count
    of the first epoch to reach its highest score; without it the last
    epoch's model is kept.
    """
    if not jobs or not all(job.items for job in jobs):
        raise ValueError("empty training corpus")
    models = [job.model for job in jobs]
    optimizers = [Adam(model.store, job.lr) for model, job in zip(models, jobs)]
    histories = [History() for _ in jobs]
    best_scores = [-1.0] * len(jobs)
    best_states = [None] * len(jobs)
    for epoch in range(epochs):
        batches = []
        for job in jobs:
            order = np.random.default_rng((job.seed, epoch)).permutation(len(job.items))
            batches.append([
                [job.items[i] for i in order[lo:lo + job.batch_size]]
                for lo in range(0, len(job.items), job.batch_size)
            ])
        losses = [0.0] * len(jobs)
        for step in range(max(len(b) for b in batches)):
            live = [j for j, b in enumerate(batches) if step < len(b)]
            step_losses = train_step(
                [models[j] for j in live], [batches[j][step] for j in live],
                [optimizers[j] for j in live],
            )
            for j, loss in zip(live, step_losses):
                losses[j] += loss
        scores = None if dev_score is None else dev_score(models)
        for j, (model, history) in enumerate(zip(models, histories)):
            history.epoch_losses.append(losses[j] / len(batches[j]))
            if scores is None:
                history.dev_scores.append(0.0)
                history.best_epoch = epoch
                continue
            history.dev_scores.append(scores[j])
            if scores[j] > best_scores[j]:
                best_scores[j] = scores[j]
                history.best_epoch = epoch
                # the last epoch's state is the one the model keeps anyway
                best_states[j] = None if epoch == epochs - 1 else (
                    {k: v.copy() for k, v in model.store.params.items()}, model.store.step
                )
    for model, state in zip(models, best_states):
        if state is not None:
            params, model.store.step = state
            for k, v in params.items():
                model.store.params[k][...] = v
    return histories
