"""Scalar reference forms, the simple code the fast paths in ``gransum``
are checked against.

These are the one-sequence GRU recurrence and the table-filling LCS
backtrace as they stood before the GRU kernel was batched, the
embedding bag over one bucket array per token as it stood before it
took each distinct surface once, the pointer
segmenter's one-sentence greedy decode as it stood before decoding was
batched, run_experiment's summarizer stage as it stood before the
kinds were trained and summarized in lockstep, and the summarizer's
embedding of its case streams through a padded role matrix and its
masks as it stood before the streams held their token positions.
Nothing in ``src/`` calls them; the tests run both forms on the same
seeded inputs and require them to agree.
"""

import os

import numpy as np

from gransum import nn
from gransum.nn.checkpoint import save_checkpoint
from gransum.pipeline import build_documents, kind_report, summarizer_config, with_oracle_labels
from gransum.summarizer import summarize, summarizer_train


def lcs_mask_greedy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mark positions of ``a`` matched by one LCS of ``a`` and ``b``.

    Backtrace is greedy from the end: take the diagonal whenever symbols
    match, otherwise prefer decrementing the ``a`` index on ties.  Callers
    wanting leftmost matches run this on reversed inputs.
    """
    n = a.shape[0]
    m = b.shape[0]
    L = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                L[i, j] = L[i - 1, j - 1] + 1
            elif L[i - 1, j] >= L[i, j - 1]:
                L[i, j] = L[i - 1, j]
            else:
                L[i, j] = L[i, j - 1]
    mask = np.zeros(n, dtype=np.uint8)
    i, j = n, m
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            mask[i - 1] = 1
            i -= 1
            j -= 1
        elif L[i - 1, j] >= L[i, j - 1]:
            i -= 1
        else:
            j -= 1
    return mask


def gru_seq_forward(xzr, xn, whzr, whn, bzr, bn, h0):
    """Run a GRU over a sequence of pre-projected inputs.

    xzr: [T, 2H] input projections for the update/reset gates.
    xn:  [T, H] input projection for the candidate state.
    Returns (hs, zs, rs, ns) where hs is [T+1, H] with hs[0] == h0; the
    gate activations are kept for the backward pass.
    """
    T = xzr.shape[0]
    H = h0.shape[0]
    hs = np.empty((T + 1, H))
    hs[0] = h0
    zs = np.empty((T, H))
    rs = np.empty((T, H))
    ns = np.empty((T, H))
    for t in range(T):
        h = hs[t]
        a_zr = xzr[t] + h @ whzr + bzr
        z = 1.0 / (1.0 + np.exp(-a_zr[:H]))
        r = 1.0 / (1.0 + np.exp(-a_zr[H:]))
        a_n = xn[t] + (r * h) @ whn + bn
        n = np.tanh(a_n)
        hs[t + 1] = (1.0 - z) * n + z * h
        zs[t] = z
        rs[t] = r
        ns[t] = n
    return hs, zs, rs, ns


def gru_seq_backward(hs, zs, rs, ns, whzr, whn, dh_out):
    """Backward pass matching gru_seq_forward.

    dh_out: [T, H] gradient w.r.t. each emitted state hs[1..T].
    Returns (dxzr, dxn, dwhzr, dwhn, dbzr, dbn, dh0).  Weight gradients are
    assembled from the per-step gate gradients with two matmuls after the
    recurrence, keeping the loop itself to two small dots per step.
    """
    T = zs.shape[0]
    H = hs.shape[1]
    whzr_t = whzr.T.copy()
    whn_t = whn.T.copy()
    dxzr = np.empty((T, 2 * H))
    dxn = np.empty((T, H))
    carry = np.zeros(H)
    da_zr = np.empty(2 * H)
    for t in range(T - 1, -1, -1):
        dhp = dh_out[t] + carry
        h = hs[t]
        z = zs[t]
        r = rs[t]
        n = ns[t]
        da_z = dhp * (h - n) * z * (1.0 - z)
        da_n = dhp * (1.0 - z) * (1.0 - n * n)
        carry = dhp * z
        drh = da_n @ whn_t
        da_r = drh * h * r * (1.0 - r)
        carry = carry + drh * r
        da_zr[:H] = da_z
        da_zr[H:] = da_r
        carry = carry + da_zr @ whzr_t
        dxzr[t] = da_zr
        dxn[t] = da_n
    dwhzr = hs[:T].T @ dxzr
    dwhn = (rs * hs[:T]).T @ dxn
    dbzr = dxzr.sum(axis=0)
    dbn = dxn.sum(axis=0)
    return dxzr, dxn, dwhzr, dwhn, dbzr, dbn, carry


def embed_bag_forward(bucket_lists, table: np.ndarray) -> np.ndarray:
    """Each token's mean over the rows of table its bucket array names."""
    if not bucket_lists:
        return np.zeros((0, table.shape[1]))
    counts = np.array([len(b) for b in bucket_lists])
    flat = np.concatenate(bucket_lists)
    starts = np.zeros(len(bucket_lists), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sums = np.add.reduceat(table[flat], starts, axis=0)
    return sums / counts[:, None]


def embed_bag_backward(dx, bucket_lists, grad_table: np.ndarray) -> None:
    """Adds the gradient of embed_bag_forward into grad_table, summing
    each bucket's entries in token order."""
    if not bucket_lists:
        return
    counts = np.array([len(b) for b in bucket_lists])
    flat = np.concatenate(bucket_lists)
    order = np.argsort(flat, kind="stable")
    sorted_idx = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    rows = np.repeat(np.arange(len(counts)), counts)[order]
    grad_table[sorted_idx[starts]] += np.add.reduceat(
        (dx / counts[:, None])[rows], starts, axis=0
    )


def summarizer_roles(streams) -> np.ndarray:
    """[S, T] roles of S case streams, each position 0 [CLS], 1 [SEP] or
    2 word token, -1 padding each stream to the longest."""
    roles = np.full((len(streams), max(len(stream) for stream in streams)), -1)
    for s, stream in enumerate(streams):
        roles[s, stream.cls] = 0
        roles[s, stream.sep] = 1
        roles[s, stream.words] = 2
    return roles


def summarizer_encode(models, streams):
    """summarizer._encode by role masks: each model embeds its streams
    as one [S, T] batch, adds the positions to every row, zeroes the
    padding and runs the BiGRU on its [T, S] transpose."""
    xs = []
    for model, model_streams in zip(models, streams):
        p = model.store.params
        config = model.config
        roles = summarizer_roles(model_streams)
        x = np.zeros(roles.shape + (config.embed_dim,))
        x[roles == 0] = p["cls_vec"]
        x[roles == 1] = p["sep_vec"]
        x[roles == 2] = np.concatenate([
            nn.embed_bag_forward(stream.bag, p["emb"]) for stream in model_streams
        ])
        x += config.pe_scale * nn.sinusoidal_encoding(roles.shape[1], config.embed_dim)
        x[roles < 0] = 0.0
        xs.append(x.transpose(1, 0, 2))
    lengths = [np.array([len(stream) for stream in ss]) for ss in streams]
    return nn.bigru_forward(xs, [model.store for model in models], "enc", lengths)


def summarizer_embed_backward(model, streams, dx) -> None:
    """The embedding half of Summarizer.losses_and_grads by role masks:
    adds the gradients of cls_vec, sep_vec and emb for dx [T, S, E], the
    gradient of the BiGRU input of model's streams."""
    grads = model.store.grads
    roles = summarizer_roles(streams)
    dx = dx.transpose(1, 0, 2)
    grads["cls_vec"] += dx[roles == 0].sum(axis=0)
    grads["sep_vec"] += dx[roles == 1].sum(axis=0)
    words = dx[roles == 2]
    lo = 0
    for stream in streams:
        hi = lo + stream.bag.tokens.size
        nn.embed_bag_backward(words[lo:hi], stream.bag, grads["emb"])
        lo = hi


def pointer_greedy_decode(model, surfaces) -> tuple[int, ...]:
    """One sentence's greedy monotone decode by a PointerSegmenter: the
    sentence is encoded alone and the decoder takes one T=1 step per
    unit, pointing with one masked distribution per step."""
    p = model.store.params
    x = embed_bag_forward([model.hasher.buckets(s) for s in surfaces], p["emb"])
    enc = nn.bigru_forward([x[:, None]], [model.store], "enc")[0][0][:, 0]
    enc_proj = enc @ p["attn.w_enc"] + p["attn.b"]
    t_count = len(surfaces)
    positions = []
    start = 0
    h = p["dec_h0"]
    while start < t_count:
        h_seq = nn.gru_forward(enc[start][None, None], model.store, "dec", h0=h[None])[0][:, 0]
        h = h_seq[0]
        act = np.tanh(enc_proj[None, :, :] + (h_seq @ p["attn.w_dec"])[:, None, :])
        mask = np.arange(t_count)[None, :] >= start
        probs = nn.masked_softmax(act @ p["attn.v"], mask)
        end = int(np.argmax(probs[0]))
        if end >= t_count - 1:
            break
        positions.append(end)
        start = end + 1
    return tuple(positions)


def train_and_summarize(config, views, cuts, indices, budget, out_dir) -> dict:
    """pipeline.train_and_summarize one kind after another: each kind's
    summarizer is trained alone, saved, and summarizes the test cases
    alone before the next kind starts."""
    train_idx, dev_idx, test_idx = indices
    kind_reports = {}
    for kind in config.kinds:
        docs = list(build_documents(views, kind, cuts[kind]))
        model, history = summarizer_train(
            [with_oracle_labels(docs[i], budget, config.oracle_mode) for i in train_idx],
            [docs[i] for i in dev_idx],
            kind,
            summarizer_config(config, kind),
            budget_chars=budget,
        )
        save_checkpoint(
            model.to_checkpoint(),
            os.path.join(out_dir, f"summarizer_{kind.value.lower()}.ckpt"),
        )
        test_docs = [docs[i] for i in test_idx]
        [results] = summarize([test_docs], [model], budget_chars=budget)
        kind_reports[kind.value] = kind_report(out_dir, kind, history, test_docs, results)
    return kind_reports
