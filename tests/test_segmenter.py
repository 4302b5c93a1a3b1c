import dataclasses

import numpy as np
import pytest

from gransum import nn
from gransum.analysis import corpus_boundary_prf
from gransum.corpus import SyntheticSpec, generate_synthetic
from gransum.nn.checkpoint import load_checkpoint, save_checkpoint
from gransum.segmenter import (
    PointerSegmenter,
    SegmenterConfig,
    SentenceExample,
    segmenter_train,
)
from gransum.splitters import BoundarySet, split_sentences
from gransum.tokenization import tokenize

import reference_kernels

SMALL = SegmenterConfig(
    embed_dim=8, hidden=6, dec_hidden=8, attn_dim=8, bucket_count=256, epochs=2, seed=0
)


def make_examples(case_count=30, seed=42):
    spec = SyntheticSpec(
        case_count=case_count,
        sentences_per_record=6,
        segments_per_sentence={1: 0.3, 2: 0.4, 3: 0.3},
        tokens_per_segment=(2, 4),
        seed=seed,
    )
    g = generate_synthetic(spec)
    gold = g.gold_by_case()
    examples = []
    for case in g.cases:
        for si, s in enumerate(split_sentences(case.record_text)):
            toks = tokenize(s.text, g.hooks)
            examples.append(
                SentenceExample(tuple(t.surface for t in toks), gold[case.id][si])
            )
    return examples


class TestStructuralInvariants:
    def test_untrained_one_token_sentence_empty(self):
        model = PointerSegmenter(SMALL)
        assert model.predict([["w"]]) == [()]

    def test_positions_strictly_increasing_fuzz(self):
        model = PointerSegmenter(SMALL)
        rng = np.random.default_rng(9)
        pieces = ["wa", "bo", ",", "ke", "。", "lu", "mi"]
        sentences = [
            [pieces[i] for i in rng.integers(0, len(pieces), int(rng.integers(1, 15)))]
            for _ in range(300)
        ]
        for surfaces, positions in zip(sentences, model.predict(sentences)):
            assert all(a < b for a, b in zip(positions, positions[1:]))
            BoundarySet(0, positions).validate(len(surfaces))

    def test_greedy_decode_deterministic(self):
        model = PointerSegmenter(SMALL)
        surfaces = ["wa", ",", "bo", ",", "ke"]
        assert model.predict([surfaces]) == model.predict([surfaces])

    def test_attention_mass_zero_before_start(self):
        model = PointerSegmenter(SMALL)
        enc, lengths, _ = model._encode([["wa", "bo", ",", "ke", "lu"]])
        p = model.store.params
        enc_proj = (enc @ p["attn.w_enc"] + p["attn.b"]).transpose(1, 0, 2)
        h, _ = nn.gru_forward(enc[2], model.store, "dec", h0=p["dec_h0"])
        probs = model._point_distribution(enc_proj, h[None], np.array([[2]]), lengths)[0][0, 0]
        assert (probs[:2] == 0.0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestTraining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            segmenter_train([], SMALL)

    def test_single_sentence_no_boundary_finite_loss(self):
        ex = SentenceExample(("wa", "bo"), ())
        model, history = segmenter_train([ex], SMALL)
        assert np.isfinite(history.epoch_losses).all()

    def test_gold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SentenceExample(("wa", "bo"), (1,))

    def test_learns_planted_comma_cue(self):
        examples = make_examples(case_count=50)
        split = int(len(examples) * 0.8)
        train, held = examples[:split], examples[split:]
        config = SegmenterConfig(bucket_count=2 ** 12, epochs=4, seed=0)
        model, history = segmenter_train(train, config)
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        predicted = model.predict([ex.surfaces for ex in held])
        pairs = [
            (BoundarySet(0, positions), BoundarySet(0, ex.gold))
            for ex, positions in zip(held, predicted)
        ]
        micro, _ = corpus_boundary_prf(pairs)
        assert micro.f1 >= 0.95
        # comma-cue model points at the commas even on unseen surfaces
        assert model.predict([["w", ",", "w", ",", "w"]]) == [(1, 3)]

    def test_training_deterministic(self):
        examples = make_examples(case_count=6)
        runs = []
        for _ in range(2):
            model, _ = segmenter_train(examples, SMALL)
            runs.append({k: v.copy() for k, v in model.store.params.items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])


class TestCheckpointing:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        examples = make_examples(case_count=4)
        model, _ = segmenter_train(examples, SMALL)
        path = tmp_path / "seg.ckpt"
        save_checkpoint(model.to_checkpoint(), str(path))
        loaded = load_checkpoint(str(path))
        surfaces = [ex.surfaces for ex in examples]
        restored = PointerSegmenter.from_checkpoint(loaded)
        assert restored.predict(surfaces) == model.predict(surfaces)

    def test_wrong_kind_rejected(self, tmp_path):
        from gransum.nn.checkpoint import Checkpoint

        ckpt = Checkpoint("other", {}, {"x": np.zeros(1)}, 0, 0)
        with pytest.raises(nn.CheckpointError):
            PointerSegmenter.from_checkpoint(ckpt)

    def test_dimension_mismatch_rejected(self, tmp_path):
        model = PointerSegmenter(SMALL)
        ckpt = model.to_checkpoint()
        ckpt.tensors["emb"] = np.zeros((2, 2))
        with pytest.raises(nn.CheckpointError):
            PointerSegmenter.from_checkpoint(ckpt)


def test_gradcheck_six_token_sentence():
    config = SegmenterConfig(
        embed_dim=5, hidden=4, dec_hidden=5, attn_dim=5, bucket_count=48,
        epochs=1, seed=3,
    )
    model = PointerSegmenter(config)
    ex = SentenceExample(("wa", "bo", ",", "ke", "lu", "。"), (2,))

    def loss_fn():
        model.store.zero_grads()
        return model.loss_and_grads([ex])

    assert nn.finite_difference_check(loss_fn, model.store) < 1e-4


def test_gradcheck_ragged_three_sentence_batch():
    config = SegmenterConfig(
        embed_dim=5, hidden=4, dec_hidden=5, attn_dim=5, bucket_count=48,
        epochs=1, seed=3,
    )
    model = PointerSegmenter(config)
    # 3, 1 and 2 units: the padded decoder batch is ragged too
    batch = [
        SentenceExample(("wa", "bo", ",", "ke", "lu", "。"), (1, 3)),
        SentenceExample(("ne",), ()),
        SentenceExample(("mi", ",", "su", "。"), (1,)),
    ]

    def loss_fn():
        model.store.zero_grads()
        return model.loss_and_grads(batch)

    assert nn.finite_difference_check(loss_fn, model.store) < 1e-4


def test_batched_predict_matches_one_sentence_reference():
    """The lockstep decoder gives exactly the positions of the
    one-sentence greedy decode, on ragged chunks that hold a 1-token
    sentence and more sentences than batch_sentences."""
    examples = make_examples(case_count=6)
    config = dataclasses.replace(SMALL, epochs=6, lr=1e-2, batch_sentences=4)
    model, _ = segmenter_train(examples, config)
    surfaces = [ex.surfaces for ex in examples]
    sentences = surfaces[:9] + [("ne",)] + surfaces[9:14]
    assert len(sentences) > model.config.batch_sentences
    want = [reference_kernels.pointer_greedy_decode(model, s) for s in sentences]
    assert model.predict(sentences) == want
    assert any(len(positions) >= 2 for positions in want)
    assert want[9] == ()


def test_batched_decoder_matches_per_sentence_loop():
    """Loss and every gradient of one ragged batch agree with the mean
    over one-sentence batches."""
    model = PointerSegmenter(SMALL)
    batch = [
        SentenceExample(("wa", "bo", ",", "ke", "lu", "。", "mi"), (1, 3, 4)),
        SentenceExample(("ne",), ()),
        SentenceExample(("mi", ",", "su", "。"), (1,)),
        SentenceExample(("ko", "ra", ",", "te"), ()),
        SentenceExample(("a", ",", "b", ",", "c"), (0, 2)),
    ]
    model.store.zero_grads()
    loss = model.loss_and_grads(batch)
    grads = {k: g.copy() for k, g in model.store.grads.items()}
    want_loss = 0.0
    want = {k: np.zeros_like(g) for k, g in grads.items()}
    for ex in batch:
        model.store.zero_grads()
        want_loss += model.loss_and_grads([ex]) / len(batch)
        for k, g in model.store.grads.items():
            want[k] += g / len(batch)
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
    for k in want:
        np.testing.assert_allclose(grads[k], want[k], rtol=0, atol=1e-12, err_msg=k)
