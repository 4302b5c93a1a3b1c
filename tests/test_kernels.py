import numpy as np
import pytest

from gransum import kernels

import reference_kernels


class TestLcsMask:
    def test_leftmost_tie_break(self):
        # reference (a, a) vs candidate (a): leftmost position matched
        mask = kernels.lcs_ref_match_mask(
            np.array([0, 0], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        np.testing.assert_array_equal(mask, [True, False])

    def test_empty_inputs(self):
        out = kernels.lcs_ref_match_mask(
            np.array([], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert out.size == 0

    def test_mask_count_is_lcs_length(self):
        mask = kernels.lcs_ref_match_mask(
            np.array([1, 2, 3, 4], dtype=np.int64),
            np.array([1, 9, 3, 9, 4], dtype=np.int64),
        )
        assert mask.sum() == 3


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
    dh_final = rng.normal(size=(batch, zs.shape[2]))
    for b, n in enumerate(lengths):
        dh_out[n:, b] = 0.0
    grads = kernels.gru_seq_backward(
        hs, zs, rs, ns, args["whzr"], args["whn"], dh_out, dh_final
    )
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
            *states, weights[0], weights[1], dh_out[:n, b], dh_final[b]
        )
        for want, got in zip(ref[:2] + ref[6:], (dxzr[:n, b], dxn[:n, b], dh0[b])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not dxzr[n:, b].any() and not dxn[n:, b].any()
        for acc, g in zip(weight_grads, ref[2:6]):
            acc[k] += g
    for want, got in zip(weight_grads, (dwhzr, dwhn, dbzr, dbn)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
