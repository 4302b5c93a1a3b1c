"""Hot numeric kernels: the LCS dynamic program behind ROUGE-L and the
batched GRU recurrence shared by both trainable models.

The GRU kernels run B sequences per call, each step one batched matmul
per gate group (the recurrent batching of Appleyard et al., 2016).  The
scalar one-sequence forms they replaced live in ``tests/`` as the
reference they are checked against.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench/run.py::machine_facts until the benchmark stops reading it.
NUMBA_ENABLED = False


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


def gru_seq_forward(xzr, xn, whzr, whn, bzr, bn, h0, lengths=None):
    """Run B GRUs side by side over padded sequences of input projections.

    The weights are stacked on a leading axis of G sets, G dividing B:
    sequence b runs on set b // (B // G).  With G == B every sequence has
    its own weights, so GRUs with different weights (the two directions
    of a BiGRU) share one call; sequences that share a set are grouped so
    each step is one batched matmul per gate group either way.

    xzr: [T, B, 2H] input projections for the update/reset gates.
    xn:  [T, B, H] input projection for the candidate state.
    whzr [G, H, 2H], whn [G, H, H], bzr [G, 2H], bn [G, H]; h0 [B, H].
    lengths: [B] real steps per sequence (None: all T).  Steps at or past
    a sequence's length are padding: its update gate there is exactly 1,
    so h passes through unchanged and, in the backward pass, the step's
    gradients are exactly zero.  Each step is two batched matmuls and ten
    elementwise calls writing into buffers allocated once per call.

    Returns (hs, zs, rs, ns): hs is [T+1, B, H] with hs[0] == h0, and the
    gate activations [T, B, H] are kept for the backward pass.
    """
    T, B, H2 = xzr.shape
    H = H2 // 2
    G = whzr.shape[0]
    S = B // G
    # Biases are folded into the projections once.  One exp serves both
    # gates: the buffer holds +a_z and -a_r, so 1 / (1 + exp(.)) gives
    # 1 - z and r, and h' = h + (1 - z) * (n - h).
    pre = xzr.reshape(T, G, S, H2) + bzr[:, None]
    pre[..., H:] *= -1.0
    pre = pre.reshape(T, B, H2)
    if lengths is not None:
        pre[:, :, :H][np.arange(T)[:, None] >= np.asarray(lengths)] = np.inf
    w_rec = whzr.copy()
    w_rec[..., :H] *= -1.0
    xn_b = (xn.reshape(T, G, S, H) + bn[:, None]).reshape(T, B, H)
    hs = np.empty((T + 1, B, H))
    hs[0] = h0
    gates = np.empty((T, B, H2))
    omz = gates[:, :, :H]
    rs = gates[:, :, H:]
    ns = np.empty((T, B, H))
    # step views come from iterating over arrays made once: [G, S, .] for
    # the matmuls, [B, .] otherwise
    hs_g = hs.reshape(T + 1, G, S, H)
    rec_zr = np.empty((G, S, H2))
    rec_n = np.empty((G, S, H))
    rh = np.empty((G, S, H))
    rec_zr_b = rec_zr.reshape(B, H2)
    rec_n_b = rec_n.reshape(B, H)
    rh_b = rh.reshape(B, H)
    matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add
    exp, divide, tanh = np.exp, np.divide, np.tanh
    steps = zip(hs[:T], hs[1:], hs_g, gates, omz, rs, ns, pre, xn_b)
    for h, h_next, h_g, g, omz_t, r, n, pre_t, xn_t in steps:
        matmul(h_g, w_rec, out=rec_zr)
        subtract(pre_t, rec_zr_b, out=g)
        exp(g, out=g)
        g += 1.0
        divide(1.0, g, out=g)
        multiply(r, h, out=rh_b)
        matmul(rh, whn, out=rec_n)
        add(xn_t, rec_n_b, out=n)
        tanh(n, out=n)
        subtract(n, h, out=rh_b)
        rh_b *= omz_t
        add(h, rh_b, out=h_next)
    zs = np.subtract(1.0, omz, out=omz)
    return hs, zs, rs, ns


def gru_seq_backward(hs, zs, rs, ns, whzr, whn, dh_out, dh_final):
    """Backward pass matching gru_seq_forward.

    dh_out: [T, B, H] gradient w.r.t. each emitted state hs[1..T].
    dh_final: [B, H] extra gradient on the last state (from downstream use).
    Returns (dxzr, dxn, dwhzr, dwhn, dbzr, dbn, dh0); the weight and bias
    gradients are per weight set ([G, ...]), summed over its sequences.
    The gate factors that do not depend on the carried gradient are
    computed for all steps before the recurrence and the weight gradients
    with batched matmuls after it, so each step is two small matmuls and
    a few elementwise products.
    """
    T, B, H = zs.shape
    G = whzr.shape[0]
    S = B // G
    h_prev = hs[:T]
    one_z = np.subtract(1.0, zs)
    f_z = np.subtract(h_prev, ns)
    f_z *= zs
    f_z *= one_z
    f_n = np.multiply(ns, ns)
    np.subtract(1.0, f_n, out=f_n)
    f_n *= one_z
    f_r = np.subtract(1.0, rs)
    f_r *= rs
    f_r *= h_prev
    del one_z
    whzr_t = whzr.transpose(0, 2, 1).copy()
    whn_t = whn.transpose(0, 2, 1).copy()
    dxzr = np.empty((T, B, 2 * H))
    dxn = np.empty((T, B, H))
    carry = np.array(dh_final, dtype=np.float64).reshape(B, H)
    # step views come from iterating, last step first, over arrays made
    # once: [G, S, .] for the matmuls, [B, .] otherwise
    dxz = dxzr[:, :, :H]
    dxr = dxzr[:, :, H:]
    dxzr_g = dxzr.reshape(T, G, S, 2 * H)
    dxn_g = dxn.reshape(T, G, S, H)
    dhp = np.empty((B, H))
    drh = np.empty((G, S, H))
    rec = np.empty((G, S, H))
    drh_b = drh.reshape(B, H)
    rec_b = rec.reshape(B, H)
    tmp = np.empty((B, H))
    matmul, multiply, add = np.matmul, np.multiply, np.add
    back = slice(None, None, -1)
    steps = zip(*(a[back] for a in (dh_out, f_z, f_n, f_r, zs, rs, dxz, dxr, dxn, dxn_g, dxzr_g)))
    for dh, fz, fn, fr, z, r, dxz_t, dxr_t, dxn_t, dxn_gt, dxzr_gt in steps:
        add(dh, carry, out=dhp)
        multiply(dhp, fz, out=dxz_t)
        multiply(dhp, fn, out=dxn_t)
        matmul(dxn_gt, whn_t, out=drh)
        multiply(drh_b, fr, out=dxr_t)
        multiply(dhp, z, out=carry)
        multiply(drh_b, r, out=tmp)
        carry += tmp
        matmul(dxzr_gt, whzr_t, out=rec)
        carry += rec_b

    def per_set(a):
        # [T, B, k] -> [G, T*S, k]: the rows of each weight set's sequences
        return a.reshape(T, G, S, a.shape[2]).transpose(1, 0, 2, 3).reshape(G, T * S, -1)

    del f_z, f_n
    dxzr_rows = per_set(dxzr)
    dxn_rows = per_set(dxn)
    dwhzr = np.matmul(per_set(h_prev).transpose(0, 2, 1), dxzr_rows)
    dwhn = np.matmul(per_set(np.multiply(rs, h_prev, out=f_r)).transpose(0, 2, 1), dxn_rows)
    dbzr = dxzr_rows.sum(axis=1)
    dbn = dxn_rows.sum(axis=1)
    return dxzr, dxn, dwhzr, dwhn, dbzr, dbn, carry


def lcs_ref_match_mask(ref_ids: np.ndarray, cand_ids: np.ndarray) -> np.ndarray:
    """Boolean mask over reference positions matched by one LCS.

    Tie-breaking is leftmost: when several LCSs exist, the match positions
    chosen are the earliest in the reference (achieved by running the
    greedy-from-the-end backtrace on reversed sequences).
    """
    ref_ids = np.ascontiguousarray(ref_ids, dtype=np.int64)
    cand_ids = np.ascontiguousarray(cand_ids, dtype=np.int64)
    if ref_ids.size == 0 or cand_ids.size == 0:
        return np.zeros(ref_ids.size, dtype=bool)
    rev = lcs_mask_greedy(
        np.ascontiguousarray(ref_ids[::-1]), np.ascontiguousarray(cand_ids[::-1])
    )
    return rev[::-1].astype(bool)
