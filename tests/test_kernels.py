import numpy as np
import pytest

from gransum import kernels

import reference_kernels


def _gru_batch(seed, lengths, weight_sets, hidden=4):
    """Seeded inputs for B = len(lengths) sequences on weight_sets sets."""
    rng = np.random.default_rng(seed)
    steps, batch, h = max(lengths), len(lengths), hidden
    return dict(
        xzr=rng.normal(size=(steps, batch, 2 * h)),
        xn=rng.normal(size=(steps, batch, h)),
        whzr=rng.normal(size=(weight_sets, h, 2 * h)) * 0.3,
        whn=rng.normal(size=(weight_sets, h, h)) * 0.3,
        bzr=rng.normal(size=(weight_sets, 2 * h)) * 0.1,
        bn=rng.normal(size=(weight_sets, h)) * 0.1,
        h0=rng.normal(size=(batch, h)),
    )


@pytest.mark.parametrize(
    "lengths, weight_sets",
    [
        ([1], 1),
        ([12], 1),
        ([9, 9], 2),  # the two directions of one BiGRU sequence
        ([1, 12, 5, 7, 3, 12, 1, 9, 2, 4, 11, 6, 8, 10, 12, 1], 16),
        ([12, 1, 5, 7, 3, 12, 1, 9, 2, 4, 11, 6, 8, 10, 12, 1], 2),  # 8 sentences x 2 directions
    ],
    ids=["T1", "B1", "B2-stacked", "B16-ragged", "B16-grouped"],
)
def test_gru_matches_reference(lengths, weight_sets):
    """The batched kernels agree with the scalar reference run on each
    sequence alone; padded steps leave h unchanged and get zero gradient."""
    args = _gru_batch(len(lengths) + weight_sets, lengths, weight_sets)
    batch = len(lengths)
    per_set = batch // weight_sets
    hs, zs, rs, ns = kernels.gru_seq_forward(**args, lengths=np.array(lengths))
    rng = np.random.default_rng(batch)
    dh_out = rng.normal(size=zs.shape)
    for b, n in enumerate(lengths):
        dh_out[n:, b] = 0.0
    grads = kernels.gru_seq_backward(hs, zs, rs, ns, args["whzr"], args["whn"], dh_out)
    dxzr, dxn, dwhzr, dwhn, dbzr, dbn, dh0 = grads
    weight_grads = [np.zeros_like(g) for g in (dwhzr, dwhn, dbzr, dbn)]
    for b, n in enumerate(lengths):
        k = b // per_set
        weights = [args[name][k] for name in ("whzr", "whn", "bzr", "bn")]
        states = reference_kernels.gru_seq_forward(
            args["xzr"][:n, b], args["xn"][:n, b], *weights, args["h0"][b]
        )
        for want, got in zip(states, (hs[: n + 1, b], zs[:n, b], rs[:n, b], ns[:n, b])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (hs[n:, b] == hs[n, b]).all()
        ref = reference_kernels.gru_seq_backward(
            *states, weights[0], weights[1], dh_out[:n, b]
        )
        for want, got in zip(ref[:2] + ref[6:], (dxzr[:n, b], dxn[:n, b], dh0[b])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not dxzr[n:, b].any() and not dxn[n:, b].any()
        for acc, g in zip(weight_grads, ref[2:6]):
            acc[k] += g
    for want, got in zip(weight_grads, (dwhzr, dwhn, dbzr, dbn)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_padded_weight_sets_match_their_own_calls():
    """Three BiGRU-like weight-set pairs of different lengths padded into
    one G=6 call give the bits of three G=2 calls of their own T, the
    weight gradients included: T=300 and T=520 lie on either side of an
    OpenBLAS K-block split, where a padded inner dimension regroups the
    sums unless each set sums its own rows."""
    hidden = 32
    own_steps = (300, 417, 520)
    calls = [_gru_batch(t, [t, t], 2, hidden) for t in own_steps]
    steps = max(own_steps)
    rng = np.random.default_rng(3)
    dh_outs = [rng.normal(size=(t, 2, hidden)) for t in own_steps]

    def padded(arrays):
        out = np.zeros((steps, 2 * len(arrays)) + arrays[0].shape[2:])
        for m, a in enumerate(arrays):
            out[:a.shape[0], 2 * m:2 * m + 2] = a
        return out

    stacked = {k: np.concatenate([c[k] for c in calls]) for k in ("whzr", "whn", "bzr", "bn", "h0")}
    states = kernels.gru_seq_forward(
        padded([c["xzr"] for c in calls]), padded([c["xn"] for c in calls]),
        stacked["whzr"], stacked["whn"], stacked["bzr"], stacked["bn"], stacked["h0"],
        np.repeat(own_steps, 2),
    )
    grads = kernels.gru_seq_backward(
        *states, stacked["whzr"], stacked["whn"], padded(dh_outs),
        set_steps=np.repeat(own_steps, 2),
    )
    for m, (t, call, dh_out) in enumerate(zip(own_steps, calls, dh_outs)):
        sets = slice(2 * m, 2 * m + 2)
        own = kernels.gru_seq_forward(**call, lengths=None)
        for want, got in zip(own, states):
            assert np.array_equal(got[:want.shape[0], sets], want)
        own_grads = kernels.gru_seq_backward(*own, call["whzr"], call["whn"], dh_out)
        for want, got in zip(own_grads[:2], grads[:2]):  # dxzr, dxn
            assert np.array_equal(got[:t, sets], want)
        for want, got in zip(own_grads[2:6], grads[2:6]):  # dwhzr, dwhn, dbzr, dbn
            assert np.array_equal(got[sets], want)
        assert np.array_equal(grads[6][sets], own_grads[6])


def _lcs_pairs():
    rng = np.random.default_rng(11)
    for alphabet in (1, 2, 3, 5):
        for _ in range(60):
            yield (
                rng.integers(0, alphabet, rng.integers(1, 25)),
                rng.integers(0, alphabet, rng.integers(1, 25)),
            )
    yield np.array([3]), np.array([3])  # length 1
    yield np.array([1, 2, 3]), np.array([4, 5])  # no match
    yield rng.integers(0, 20, 1), rng.integers(0, 20, 441)
    yield rng.integers(0, 30, 300), rng.integers(0, 30, 300)


def test_lcs_mask_matches_reference():
    for a, b in _lcs_pairs():
        a = a.astype(np.int64)
        b = b.astype(np.int64)
        np.testing.assert_array_equal(
            kernels.lcs_mask_greedy(a, b), reference_kernels.lcs_mask_greedy(a, b)
        )
