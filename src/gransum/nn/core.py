"""Minimal deterministic neural kernel shared by both trainable models.

Tensors are plain float64 numpy arrays.  Every layer is a pair of pure
functions (forward returning a cache, backward consuming it) with
gradients accumulated into a ParameterStore, which keeps the whole stack
checkable against central finite differences.  All randomness flows from
the store's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import kernels


class TrainingError(RuntimeError):
    """Raised when training produces a non-finite loss."""


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


# float64 values one store may hold: 128 MiB of weights, about 640 MiB
# with the gradients and Adam's state.
MAX_PARAMETERS = 2 ** 24


def check_hyperparameters(config, minimums: dict[str, int]) -> None:
    """Range checks shared by the model configs: each field named in
    minimums is at least its minimum, and lr is finite and > 0.  A
    failure is a ValueError naming the config and the key."""
    what = type(config).__name__
    for key, low in minimums.items():
        value = getattr(config, key)
        if value < low:
            raise ValueError(f"{what}: {key!r} must be >= {low}, got {value!r}")
    if not 0.0 < config.lr < math.inf:
        raise ValueError(f"{what}: 'lr' must be finite and > 0, got {config.lr!r}")


class ParameterStore:
    """Named parameters with matching gradient buffers.

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
        self.grads: dict[str, np.ndarray] = {}
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
        self.grads[name] = np.zeros(shape, dtype=np.float64)
        return self.params[name]

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

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


def sinusoidal_encoding(n: int, d: int) -> np.ndarray:
    """Standard sine/cosine positional encoding table [n, d]."""
    pe = np.zeros((n, d))
    position = np.arange(n)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d, 2, dtype=np.float64) * (-math.log(10000.0) / d))
    pe[:, 0::2] = np.sin(position * div)
    pe[:, 1::2] = np.cos(position * div[: d // 2])
    return pe


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
    """GRU over one sequence x [T, I] (states [T, H]) or over S zero-padded
    sequences x [T, S, I] with h0 [S, H] and lengths [S] (states
    [T, S, H]; a sequence's state is carried unchanged through its padded
    steps).  Returns the states and a cache."""
    p = store.params
    hidden = p[f"{prefix}.wh_n"].shape[0]
    xs = x[:, None, :] if x.ndim == 2 else x
    steps, seqs, in_dim = xs.shape
    h0 = np.zeros((seqs, hidden)) if h0 is None else np.reshape(h0, (seqs, hidden))
    rows = xs.reshape(steps * seqs, in_dim)
    xzr = (rows @ p[f"{prefix}.wx_zr"]).reshape(steps, seqs, 2 * hidden)
    xn = (rows @ p[f"{prefix}.wx_n"]).reshape(steps, seqs, hidden)
    hs, zs, rs, ns = kernels.gru_seq_forward(
        xzr, xn, p[f"{prefix}.wh_zr"][None], p[f"{prefix}.wh_n"][None],
        p[f"{prefix}.b_zr"][None], p[f"{prefix}.b_n"][None], h0, lengths,
    )
    if x.ndim == 2:
        hs, zs, rs, ns = hs[:, 0], zs[:, 0], rs[:, 0], ns[:, 0]
    return hs[1:], (x, hs, zs, rs, ns, prefix)


def gru_backward(dh_out, cache, store: ParameterStore, dh_final=None):
    """Backward for gru_forward; returns (dx, dh0) shaped like its x and h0."""
    x, hs, zs, rs, ns, prefix = cache
    p = store.params
    one = x.ndim == 2
    if one:  # one sequence: add the batch axis
        x, hs, zs, rs, ns, dh_out = (a[:, None] for a in (x, hs, zs, rs, ns, dh_out))
    steps, seqs, hidden = zs.shape
    dh_final = np.zeros((seqs, hidden)) if dh_final is None else np.reshape(dh_final, (seqs, hidden))
    dxzr, dxn, dwhzr, dwhn, dbzr, dbn, dh0 = kernels.gru_seq_backward(
        hs, zs, rs, ns, p[f"{prefix}.wh_zr"][None], p[f"{prefix}.wh_n"][None], dh_out, dh_final,
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
    return (dx[:, 0], dh0[0]) if one else (dx, dh0)


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


def bigru_forward(x, store: ParameterStore, prefix: str, lengths=None):
    """Bidirectional GRU; output is the fwd/bwd concatenation.

    x is one sequence [T, I] (output [T, 2H]) or S zero-padded sequences
    [T, S, I] with lengths [S] (output [T, S, 2H]; padded rows carry no
    meaning).  Both directions of every sequence run as one kernel call
    of 2S sequences, the backward direction on each sequence reversed
    within its own length.  The four input projections are one matmul.
    """
    p = store.params
    names = (f"{prefix}.fwd", f"{prefix}.bwd")
    xs = x[:, None, :] if x.ndim == 2 else x
    steps, seqs, in_dim = xs.shape
    hidden = p[f"{names[0]}.wh_n"].shape[0]
    flip = _flip(steps, seqs, lengths)
    w_in = np.concatenate([p[f"{q}.{w}"] for q in names for w in ("wx_zr", "wx_n")], axis=1)
    proj = (xs.reshape(steps * seqs, in_dim) @ w_in).reshape(steps, seqs, 6 * hidden)
    proj = np.concatenate([proj[:, :, :3 * hidden], flip(proj[:, :, 3 * hidden:])], axis=1)
    whzr, whn, bzr, bn = (
        np.stack([p[f"{q}.{w}"] for q in names]) for w in ("wh_zr", "wh_n", "b_zr", "b_n")
    )
    states = kernels.gru_seq_forward(
        proj[:, :, :2 * hidden], proj[:, :, 2 * hidden:], whzr, whn, bzr, bn,
        np.zeros((2 * seqs, hidden)), None if lengths is None else np.tile(lengths, 2),
    )
    hs = states[0][1:]
    out = np.concatenate([hs[:, :seqs], flip(hs[:, seqs:])], axis=2)
    cache = (xs, w_in, flip, states, whzr, whn, names)
    return (out[:, 0] if x.ndim == 2 else out), cache


def bigru_backward(dout, cache, store: ParameterStore):
    """Backward for bigru_forward; dx has the shape of its x."""
    xs, w_in, flip, states, whzr, whn, names = cache
    douts = dout[:, None, :] if dout.ndim == 2 else dout
    steps, seqs, in_dim = xs.shape
    hidden = whn.shape[1]
    dh_out = np.concatenate([douts[:, :, :hidden], flip(douts[:, :, hidden:])], axis=1)
    dxzr, dxn, dwhzr, dwhn, dbzr, dbn, _ = kernels.gru_seq_backward(
        *states, whzr, whn, dh_out, np.zeros((2 * seqs, hidden))
    )
    dproj = np.concatenate(
        [dxzr[:, :seqs], dxn[:, :seqs], flip(dxzr[:, seqs:]), flip(dxn[:, seqs:])], axis=2
    ).reshape(steps * seqs, 6 * hidden)
    dw_in = xs.reshape(steps * seqs, in_dim).T @ dproj
    for g, q in enumerate(names):
        store.accumulate(f"{q}.wh_zr", dwhzr[g])
        store.accumulate(f"{q}.wh_n", dwhn[g])
        store.accumulate(f"{q}.b_zr", dbzr[g])
        store.accumulate(f"{q}.b_n", dbn[g])
        lo = 3 * hidden * g
        store.accumulate(f"{q}.wx_zr", dw_in[:, lo:lo + 2 * hidden])
        store.accumulate(f"{q}.wx_n", dw_in[:, lo + 2 * hidden:lo + 3 * hidden])
    dx = (dproj @ w_in.T).reshape(steps, seqs, in_dim)
    return dx[:, 0] if dout.ndim == 2 else dx


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
    p = masked_softmax(s, np.ones_like(s, dtype=bool))
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

def embed_bag_forward(bucket_lists, table: np.ndarray) -> np.ndarray:
    if not bucket_lists:
        return np.zeros((0, table.shape[1]))
    counts = np.array([len(b) for b in bucket_lists])
    flat = np.concatenate(bucket_lists)
    starts = np.zeros(len(bucket_lists), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sums = np.add.reduceat(table[flat], starts, axis=0)
    return sums / counts[:, None]


def embed_bag_backward(dx, bucket_lists, grad_table: np.ndarray) -> None:
    if not bucket_lists:
        return
    counts = np.array([len(b) for b in bucket_lists])
    flat = np.concatenate(bucket_lists)
    # sort-based segment sum; np.add.at is an order of magnitude slower
    order = np.argsort(flat, kind="stable")
    sorted_idx = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    # one gather gives each sorted entry its token's share of dx
    rows = np.repeat(np.arange(len(counts)), counts)[order]
    grad_table[sorted_idx[starts]] += np.add.reduceat(
        (dx / counts[:, None])[rows], starts, axis=0
    )


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

@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    def __init__(self, store: ParameterStore, config: AdamConfig = AdamConfig()):
        self.store = store
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in store.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.params.items()}
        self._scratch = {k: np.empty_like(v) for k, v in store.params.items()}

    def step(self) -> None:
        c = self.config
        self.store.step += 1
        t = self.store.step
        bc1 = 1.0 - c.beta1 ** t
        bc2 = 1.0 - c.beta2 ** t
        for name, param in self.store.params.items():
            g = self.store.grads[name]
            m = self.m[name]
            v = self.v[name]
            s = self._scratch[name]
            m *= c.beta1
            np.multiply(g, 1.0 - c.beta1, out=s)
            m += s
            v *= c.beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - c.beta2
            v += s
            np.multiply(v, 1.0 / bc2, out=s)
            np.sqrt(s, out=s)
            s += c.eps
            np.divide(m, s, out=s)
            s *= c.lr / bc1
            param -= s


def train_step(model, batch, optimizer: Adam) -> float:
    """One deterministic gradient step on one batch.

    The model must expose store (a ParameterStore) and
    loss_and_grads(batch) accumulating into store.grads.  A non-finite
    loss is a TrainingError naming the step, the seed and the first
    parameter whose gradient is non-finite.
    """
    store = model.store
    store.zero_grads()
    loss = model.loss_and_grads(batch)
    if not np.isfinite(loss):
        bad = next((n for n, g in store.grads.items() if not np.isfinite(g).all()), None)
        raise TrainingError(
            f"non-finite loss {loss!r} at step {store.step} (seed {store.seed}); "
            + ("all gradients finite" if bad is None else f"first non-finite gradient {bad!r}")
        )
    optimizer.step()
    return loss
