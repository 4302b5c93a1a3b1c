import json
import struct

import numpy as np
import pytest

from gransum import nn
from gransum.nn.checkpoint import MAGIC, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint


class _ToyLogistic:
    """Logistic regression on top of the shared training contract."""

    def __init__(self, dim, seed):
        self.store = nn.ParameterStore(seed)
        self.store.add("w", (dim,))
        self.store.add("b", (1,), init="zeros")

    def loss_and_grads(self, batch):
        x, y = batch
        logits = x @ self.store.params["w"] + self.store.params["b"][0]
        loss, dlogits = nn.sigmoid_bce(logits, y)
        self.store.accumulate("w", x.T @ dlogits)
        self.store.accumulate("b", np.array([dlogits.sum()]))
        return loss


def _toy_batch(seed=0, n=64, dim=4):
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=dim) * 3
    x = rng.normal(size=(n, dim))
    y = (x @ w_true > 0).astype(np.float64)
    return x, y


class TestBce:
    def test_logit_zero_label_one_is_ln2(self):
        loss, _ = nn.sigmoid_bce(np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2), abs=1e-15)

    def test_large_logit_stable(self):
        loss, grads = nn.sigmoid_bce(np.array([40.0]), np.array([1.0]))
        assert 0 <= loss < 1e-15
        assert np.isfinite(grads).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=12)
        labels = (rng.random(12) > 0.5).astype(np.float64)
        _, grad = nn.sigmoid_bce(logits, labels)
        h = 1e-6
        for i in range(12):
            up = logits.copy(); up[i] += h
            down = logits.copy(); down[i] -= h
            num = (nn.sigmoid_bce(up, labels)[0] - nn.sigmoid_bce(down, labels)[0]) / (2 * h)
            assert abs(num - grad[i]) / max(abs(num), abs(grad[i]), 1e-6) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.sigmoid_bce(np.zeros(2), np.zeros(3))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(50, 9)) * 10
        mask = rng.random((50, 9)) > 0.3
        mask[:, 0] = True
        p = nn.masked_softmax(scores, mask)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p[~mask] == 0.0).all()

    def test_empty_row_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.masked_softmax(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))


class TestTransformerBlock:
    def _setup(self, d=6, n=4, seed=0):
        store = nn.ParameterStore(seed)
        nn.add_transformer_params(store, "tf", d, 2 * d)
        rng = np.random.default_rng(seed + 1)
        return store, rng.normal(size=(n, d)), rng.normal(size=(n, d))

    def test_single_row_shape(self):
        store, _, _ = self._setup()
        x = np.random.default_rng(3).normal(size=(1, 6))
        y, _ = nn.transformer_forward(x, store, "tf")
        assert y.shape == (1, 6)

    def test_zero_weights_layer_normed_residual(self):
        store, x, _ = self._setup()
        for name, p in store.params.items():
            if "ln" not in name:
                p[...] = 0.0
        y, _ = nn.transformer_forward(x, store, "tf")
        expected, _ = nn.layer_norm_forward(x, store, "tf.ln3_g", "tf.ln3_b")
        np.testing.assert_allclose(y, expected, atol=1e-15)

    def test_gradcheck(self):
        store, x, target = self._setup()

        def loss_fn():
            store.zero_grads()
            y, cache = nn.transformer_forward(x, store, "tf")
            loss = float(((y - target) ** 2).mean())
            nn.transformer_backward(2.0 * (y - target) / y.size, cache, store)
            return loss

        assert nn.finite_difference_check(loss_fn, store) < 1e-4

    def test_shape_error(self):
        store, _, _ = self._setup()
        with pytest.raises(nn.ShapeError):
            nn.transformer_forward(np.zeros((2, 3, 4)), store, "tf")


class TestGru:
    def test_gradcheck_unidirectional(self):
        store = nn.ParameterStore(4)
        nn.add_gru_params(store, "g", 3, 5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 5))

        def loss_fn():
            store.zero_grads()
            h, cache = nn.gru_forward(x, store, "g")
            loss = float(((h - target) ** 2).mean())
            nn.gru_backward(2.0 * (h - target) / h.size, cache, store)
            return loss

        assert nn.finite_difference_check(loss_fn, store) < 1e-4

    def test_gradcheck_bidirectional(self):
        store = nn.ParameterStore(6)
        nn.add_bigru_params(store, "g", 3, 4)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 8))

        def loss_fn():
            store.zero_grads()
            h, cache = nn.bigru_forward(x, store, "g")
            loss = float(((h - target) ** 2).mean())
            nn.bigru_backward(2.0 * (h - target) / h.size, cache, store)
            return loss

        assert nn.finite_difference_check(loss_fn, store) < 1e-4

    def test_ragged_batch_matches_separate_sequences(self):
        lengths = (6, 3, 1)
        store = nn.ParameterStore(8)
        nn.add_bigru_params(store, "g", 3, 4)
        rng = np.random.default_rng(9)
        x = np.zeros((6, 3, 3))
        dout = np.zeros((6, 3, 8))
        for s, n in enumerate(lengths):
            x[:n, s] = rng.normal(size=(n, 3))
            dout[:n, s] = rng.normal(size=(n, 8))

        store.zero_grads()
        out, cache = nn.bigru_forward(x, store, "g", np.array(lengths))
        dx = nn.bigru_backward(dout, cache, store)
        batched = {k: v.copy() for k, v in store.grads.items()}

        store.zero_grads()
        for s, n in enumerate(lengths):
            out_s, cache_s = nn.bigru_forward(x[:n, s], store, "g")
            dx_s = nn.bigru_backward(dout[:n, s], cache_s, store)
            np.testing.assert_allclose(out[:n, s], out_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dx[:n, s], dx_s, rtol=0, atol=1e-12)
            assert not dx[n:, s].any()
        for name, grad in store.grads.items():
            np.testing.assert_allclose(batched[name], grad, rtol=0, atol=1e-12, err_msg=name)


    def test_unidirectional_ragged_batch_matches_separate_sequences(self):
        lengths = (5, 1, 3)
        store = nn.ParameterStore(10)
        nn.add_gru_params(store, "g", 3, 4)
        rng = np.random.default_rng(11)
        x = np.zeros((5, 3, 3))
        dh = np.zeros((5, 3, 4))
        for s, n in enumerate(lengths):
            x[:n, s] = rng.normal(size=(n, 3))
            dh[:n, s] = rng.normal(size=(n, 4))
        h0 = rng.normal(size=(3, 4))

        store.zero_grads()
        h, cache = nn.gru_forward(x, store, "g", h0, np.array(lengths))
        dx, dh0 = nn.gru_backward(dh, cache, store)
        batched = {k: v.copy() for k, v in store.grads.items()}

        store.zero_grads()
        for s, n in enumerate(lengths):
            h_s, cache_s = nn.gru_forward(x[:n, s], store, "g", h0[s])
            dx_s, dh0_s = nn.gru_backward(dh[:n, s], cache_s, store)
            np.testing.assert_allclose(h[:n, s], h_s, rtol=0, atol=1e-12)
            assert (h[n:, s] == h[n - 1, s]).all()  # padded steps carry the state
            np.testing.assert_allclose(dx[:n, s], dx_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dh0[s], dh0_s, rtol=0, atol=1e-12)
            assert not dx[n:, s].any()
        for name, grad in store.grads.items():
            np.testing.assert_allclose(batched[name], grad, rtol=0, atol=1e-12, err_msg=name)


class TestLayerNormAndLinear:
    def test_layer_norm_gradcheck(self):
        store = nn.ParameterStore(8)
        store.add("g", (7,), init="ones")
        store.add("b", (7,), init="zeros")
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 7))
        target = rng.normal(size=(3, 7))

        base = x.copy()

        def loss_fn():
            store.zero_grads()
            y, cache = nn.layer_norm_forward(base, store, "g", "b")
            loss = float(((y - target) ** 2).mean())
            nn.layer_norm_backward(2.0 * (y - target) / y.size, cache, store)
            return loss

        assert nn.finite_difference_check(loss_fn, store) < 1e-4

    def test_linear_gradcheck(self):
        store = nn.ParameterStore(10)
        store.add("w", (4, 3))
        store.add("b", (3,), init="zeros")
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            store.zero_grads()
            y, cache = nn.linear_forward(x, store, "w", "b")
            loss = float(((y - target) ** 2).mean())
            nn.linear_backward(2.0 * (y - target) / y.size, cache, store)
            return loss

        assert nn.finite_difference_check(loss_fn, store) < 1e-4


class TestTraining:
    def test_lr_zero_keeps_parameters(self):
        model = _ToyLogistic(4, seed=0)
        before = {k: v.copy() for k, v in model.store.params.items()}
        opt = nn.Adam(model.store, nn.AdamConfig(lr=0.0))
        nn.train_step(model, _toy_batch(), opt)
        for k, v in model.store.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_same_seed_bit_identical(self):
        runs = []
        for _ in range(2):
            model = _ToyLogistic(4, seed=3)
            opt = nn.Adam(model.store, nn.AdamConfig())
            batch = _toy_batch(seed=5)
            for _ in range(20):
                nn.train_step(model, batch, opt)
            runs.append({k: v.copy() for k, v in model.store.params.items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_loss_decreases_on_separable_toy(self):
        model = _ToyLogistic(4, seed=1)
        opt = nn.Adam(model.store, nn.AdamConfig(lr=3e-2))
        batch = _toy_batch(seed=2)
        losses = [nn.train_step(model, batch, opt) for _ in range(200)]
        smoothed = np.convolve(losses, np.ones(20) / 20, mode="valid")
        assert all(a >= b for a, b in zip(smoothed, smoothed[1:]))
        assert losses[-1] < losses[0] / 4

    def test_non_finite_loss_raises(self):
        model = _ToyLogistic(2, seed=0)
        model.store.params["w"][...] = np.nan
        opt = nn.Adam(model.store, nn.AdamConfig())
        with pytest.raises(nn.TrainingError):
            nn.train_step(model, _toy_batch(n=4, dim=2), opt)

    def test_parameter_cap_refuses_before_allocating(self):
        store = nn.ParameterStore(0)
        store.add("small", (3, 4))
        # 2**40 float64 values would need 8 TiB; refusing must not try
        with pytest.raises(ValueError, match="'huge' of shape .* over the cap"):
            store.add("huge", (2 ** 20, 2 ** 20))
        assert list(store.params) == ["small"] and store.size == 12
        store.size = nn.core.MAX_PARAMETERS - 12  # as if the model were nearly full
        store.add("fits", (3, 4))
        with pytest.raises(ValueError, match="over the cap"):
            store.add("one_more", (1,))


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        ckpt = Checkpoint(
            kind="demo",
            hyper={"dim": 3, "name": "t"},
            tensors={
                "a": rng.normal(size=(3, 4)),
                "b": np.arange(5, dtype=np.int64),
            },
            seed=7,
            step=42,
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.kind == "demo"
        assert loaded.hyper == {"dim": 3, "name": "t"}
        assert loaded.seed == 7 and loaded.step == 42
        for name in ckpt.tensors:
            assert loaded.tensors[name].dtype == ckpt.tensors[name].dtype
            np.testing.assert_array_equal(loaded.tensors[name], ckpt.tensors[name])
        # identical content serializes to identical bytes
        save_checkpoint(loaded, str(tmp_path / "m2.ckpt"))
        assert path.read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_kind_mismatch_rejected(self, tmp_path):
        ckpt = Checkpoint("demo", {}, {"a": np.zeros(2)}, 0, 0)
        save_checkpoint(ckpt, str(tmp_path / "m.ckpt"))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "m.ckpt"), expect_kind="other")

    def test_garbage_rejected(self, tmp_path):
        good = tmp_path / "ok.ckpt"
        save_checkpoint(Checkpoint("demo", {}, {"a": np.arange(6.0).reshape(2, 3)}, 0, 0), str(good))
        data = good.read_bytes()
        magic = data[: len(MAGIC)]
        (header_len,) = struct.unpack("<Q", data[len(MAGIC):len(MAGIC) + 8])
        header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])

        def with_header(**tensor):
            h = dict(header, tensors=[dict(header["tensors"][0], **tensor)])
            raw = json.dumps(h).encode()
            return magic + struct.pack("<Q", len(raw)) + raw + data[len(MAGIC) + 8 + header_len:]

        cases = {
            "not a checkpoint": b"not a checkpoint",
            "magic only": magic,
            "short length field": magic + b"\x05\x00",
            "header past end of file": magic + struct.pack("<Q", 2**40) + b"{}",
            "header not JSON": magic + struct.pack("<Q", 2) + b"{x",
            "truncated payload": data[:-1],
            "offset overruns payload": with_header(offset=8),
            "nbytes not shape times itemsize": with_header(nbytes=40),
        }
        path = tmp_path / "g.ckpt"
        for name, raw in cases.items():
            path.write_bytes(raw)
            try:
                load_checkpoint(str(path))
            except CheckpointError:
                continue
            pytest.fail(f"{name}: loaded without a CheckpointError")


def test_sinusoidal_encoding_shape_and_range():
    pe = nn.sinusoidal_encoding(10, 8)
    assert pe.shape == (10, 8)
    assert np.abs(pe).max() <= 1.0
    assert not np.array_equal(pe[0], pe[1])


def test_parameter_store_deterministic_init():
    a = nn.ParameterStore(5)
    a.add("w", (4, 4))
    b = nn.ParameterStore(5)
    b.add("w", (4, 4))
    np.testing.assert_array_equal(a.params["w"], b.params["w"])
    with pytest.raises(ValueError):
        a.add("w", (2,))
