"""Scalar reference forms, the simple code the fast paths in ``gransum``
are checked against.

These are the one-sequence GRU recurrence and the table-filling LCS
backtrace as they stood before the GRU kernel was batched, and the
pointer segmenter's one-sentence greedy decode as it stood before
decoding was batched.  Nothing in ``src/`` calls them; the tests run
both forms on the same seeded inputs and require them to agree.
"""

import numpy as np

from gransum import nn


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


def gru_seq_backward(hs, zs, rs, ns, whzr, whn, dh_out, dh_final):
    """Backward pass matching gru_seq_forward.

    dh_out: [T, H] gradient w.r.t. each emitted state hs[1..T].
    dh_final: [H] extra gradient on the last state (from downstream use).
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
    carry = dh_final.copy()
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


def pointer_greedy_decode(model, surfaces) -> tuple[int, ...]:
    """One sentence's greedy monotone decode by a PointerSegmenter: the
    sentence is encoded alone and the decoder takes one T=1 step per
    unit, pointing with one masked distribution per step."""
    p = model.store.params
    x = nn.embed_bag_forward([model.hasher.buckets(s) for s in surfaces], p["emb"])
    enc, _ = nn.bigru_forward(x, model.store, "enc")
    enc_proj = enc @ p["attn.w_enc"] + p["attn.b"]
    t_count = len(surfaces)
    positions = []
    start = 0
    h = p["dec_h0"]
    while start < t_count:
        h_seq, _ = nn.gru_forward(enc[start][None, :], model.store, "dec", h0=h)
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
