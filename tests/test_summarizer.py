import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from gransum import nn
from gransum.corpus import SyntheticSpec, generate_synthetic
from gransum.nn.checkpoint import load_checkpoint, save_checkpoint
from gransum.pipeline import (
    build_documents,
    build_views,
    split_views,
    unit_method,
    with_oracle_labels,
)
from gransum import summarizer
from gransum.spans import TextSpan, Unit, UnitKind, budget_length, budget_select
from gransum.summarizer import (
    DocumentExample,
    Summarizer,
    SummarizerConfig,
    predict_probs,
    prepare_documents,
    summarize,
    summarizer_train,
    train_summarizers,
)

import reference_kernels
from unit_checks import finite_difference_check

SMALL = SummarizerConfig(
    embed_dim=8, hidden=6, d_ff=12, bucket_count=256, epochs=2, seed=0
)


SENTENCES = (("wa", "bo", ",", "ke"), ("lu", "mi", "。"))


def unit(si, ui, ts, te, length, kind=UnitKind.SEGMENT):
    return Unit(si, ui, kind, TextSpan(0, 4), ts, te, SENTENCES[si][ts:te], length)


def toy_doc(kind=UnitKind.SEGMENT, labels=(1, 0, 1)):
    if kind is UnitKind.SENTENCE:
        units = (
            unit(0, 0, 0, 4, 7, kind),
            unit(1, 0, 0, 3, 5, kind),
        )
        labels = labels[: len(units)]
        texts = ("wa bo, ke", "lu mi。")
    else:
        units = (unit(0, 0, 0, 3, 5), unit(0, 1, 3, 4, 2), unit(1, 0, 0, 3, 5))
        texts = ("wa bo,", "ke", "lu mi。")
    return DocumentExample(
        case_id="c1",
        kind=kind,
        sentences=SENTENCES,
        units=units,
        unit_texts=texts,
        labels=tuple(labels),
        reference_sentences=(("wa", "bo"),),
    )


def synth_docs(kind, case_count=40, seed=77, marker_prob=0.12):
    spec = SyntheticSpec(
        case_count=case_count, sentences_per_record=6, marker_prob=marker_prob,
        seed=seed,
    )
    g = generate_synthetic(spec)
    views = build_views(g.cases, g.hooks)
    bsets = split_views(views, unit_method(kind, "gold"), g)
    budget = float(np.mean([budget_length(v.case.summary_text) for v in views]))
    docs = [with_oracle_labels(d, budget) for d in build_documents(views, kind, bsets)]
    return docs, g, budget


def prepared(model, doc):
    """doc prepared for model alone."""
    return prepare_documents([model], [[doc]])[0][0]


class TestEncodeDocument:
    def test_single_token_unit_pool_is_identity(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        pools = prepared(model, toy_doc()).pools
        # the middle unit covers exactly one token
        a, b = pools[1]
        assert b - a == 1

    def test_pooling_equals_arithmetic_mean(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        doc = toy_doc()
        item = prepared(model, doc)
        stream = item.stream
        words = [s for sentence in doc.sentences for s in sentence]
        x = np.empty((len(stream), SMALL.embed_dim))
        p = model.store.params
        x[stream.cls] = p["cls_vec"]
        x[stream.sep] = p["sep_vec"]
        x[stream.words] = [p["emb"][model.hasher.buckets(w)].mean(axis=0) for w in words]
        x = x + SMALL.pe_scale * nn.sinusoidal_encoding(len(stream), SMALL.embed_dim)
        enc = nn.bigru_forward([x[:, None]], [model.store], "enc")[0][0][:, 0]
        for (a, b) in item.pools:
            manual = enc[a:b].mean(axis=0)
            np.testing.assert_allclose(manual, enc[a:b].sum(axis=0) / (b - a), atol=1e-12)

    def test_boundary_tokens_excluded_from_pools(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        item = prepared(model, toy_doc())
        special = set(item.stream.cls.tolist()) | set(item.stream.sep.tolist())
        for a, b in item.pools:
            assert not (set(range(a, b)) & special)

    def test_sentence_kind_uses_cls(self):
        model = Summarizer(SMALL, UnitKind.SENTENCE)
        doc = toy_doc(UnitKind.SENTENCE)
        item = prepared(model, doc)
        cls_positions = item.stream.cls.tolist()
        assert item.pools.tolist() == [[c, c + 1] for c in cls_positions]

    def test_zero_head_gives_half_probability(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        model.store.params["head_w"][...] = 0.0
        model.store.params["head_b"][...] = 0.0
        [(probs, _)] = predict_probs([model], [[toy_doc()]])[0]
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_window_truncation_drops_trailing_sentences(self):
        config = dataclasses.replace(SMALL, max_window=8)
        model = Summarizer(config, UnitKind.SEGMENT)
        # first sentence costs 6 (4 tokens + cls + sep); second would overflow
        assert prepared(model, toy_doc()).unit_idx == [0, 1]

    def test_kind_mismatch_rejected(self):
        model = Summarizer(SMALL, UnitKind.CLAUSE)
        with pytest.raises(ValueError, match="kind"):
            prepared(model, toy_doc())
        with pytest.raises(ValueError, match="kind"):
            summarizer_train([toy_doc()], [], UnitKind.CLAUSE, SMALL)

    def test_summarize_refuses_document_of_another_kind(self):
        model = Summarizer(SMALL, UnitKind.SENTENCE)
        with pytest.raises(ValueError, match="c1: kind UnitKind.SEGMENT != model kind"):
            summarize([[toy_doc()]], [model])
        with pytest.raises(ValueError, match="kind"):
            predict_probs([model], [[toy_doc()]])

    def test_overlapping_units_rejected(self):
        doc = dataclasses.replace(
            toy_doc(), units=(unit(0, 0, 0, 3, 5), unit(0, 1, 2, 4, 3), unit(1, 0, 0, 3, 5))
        )
        with pytest.raises(ValueError, match="overlap"):
            prepared(Summarizer(SMALL, UnitKind.SEGMENT), doc)

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            DocumentExample(
                case_id="x", kind=UnitKind.SEGMENT, sentences=(),
                units=(), unit_texts=(),
            )


class TestGradients:
    def test_full_model_two_sentence_doc(self):
        config = SummarizerConfig(
            embed_dim=6, hidden=4, d_ff=8, bucket_count=48, seed=3
        )
        model = Summarizer(config, UnitKind.SEGMENT)
        item = prepared(model, toy_doc())

        def loss_fn():
            model.store.zero_grads()
            [loss] = Summarizer.losses_and_grads([model], [[item]])
            return loss

        assert finite_difference_check(loss_fn, model.store) < 1e-4


class TestSummarize:
    def test_budget_zero_selects_single_top_unit(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        [result] = summarize([[toy_doc()]], [model], budget_chars=0)[0]
        assert len(result.units) == 1

    def test_equal_probabilities_document_order_prefix(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        model.store.params["head_w"][...] = 0.0
        model.store.params["head_b"][...] = 0.0
        doc = toy_doc()
        [result] = summarize([[doc]], [model], budget_chars=6)[0]
        # char lengths 5, 2, 5: prefix crosses budget at the second unit...
        # 5 + 2 = 7 > 6, so exactly the first two units in document order
        assert result.units == doc.units[:2]

    def test_ranking_invariant_under_monotone_logit_transform(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=4)
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        base = [r.units for r in summarize([docs], [model], budget_chars=budget)[0]]
        # scale the head: logits -> 3 * logits + 1 is strictly monotone
        model.store.params["head_w"][...] *= 3.0
        model.store.params["head_b"][...] = model.store.params["head_b"] * 3.0 + 1.0
        after = [r.units for r in summarize([docs], [model], budget_chars=budget)[0]]
        assert base == after

    def test_output_length_exceeds_budget_by_at_most_one_unit(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=6)
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        for doc, result in zip(docs, summarize([docs], [model], budget_chars=budget)[0]):
            total = sum(u.char_length for u in result.units)
            max_unit = max(u.char_length for u in doc.units)
            assert total <= budget + max_unit

    def test_summary_joined_by_single_space(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        [result] = summarize([[toy_doc()]], [model], budget_chars=10 ** 6)[0]
        assert result.summary_text == "wa bo, ke lu mi。"


def ten_char_units(count):
    return [unit(0, ui, 0, 1, 10) for ui in range(count)]


class TestBudgetSelect:
    def test_keep_includes_crossing_unit(self):
        assert budget_select([3, 2, 1], ten_char_units(3), 25) == [0, 1, 2]

    def test_exact_budget_not_crossing(self):
        assert budget_select([2, 1], ten_char_units(2), 20) == [0, 1]

    def test_drop_excludes_crossing_unit(self):
        assert budget_select([3, 2, 1], ten_char_units(3), 25, mode="drop") == [0, 1]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            budget_select([0], ten_char_units(1), 10, mode="bad")


def test_budget_length_skips_exactly_the_space_characters():
    for c in map(chr, range(sys.maxunicode + 1)):
        assert budget_length("a" + c + "b") == 2 + (not c.isspace()), hex(ord(c))


class TestTraining:
    def test_all_zero_labels_drift_to_zero(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=10)
        zeroed = [
            dataclasses.replace(d, labels=tuple(0 for _ in d.units)) for d in docs
        ]
        config = dataclasses.replace(SMALL, epochs=4)
        model, _ = summarizer_train(zeroed, [], UnitKind.SEGMENT, config, budget)
        probs = [q for p, _ in predict_probs([model], [zeroed])[0] for q in p.tolist()]
        assert np.mean(probs) < 0.1

    def test_same_seed_identical_dev_trajectories(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=10)
        train, dev = docs[:8], docs[8:]
        trajectories = []
        for _ in range(2):
            _, hist = summarizer_train(train, dev, UnitKind.SEGMENT, SMALL, budget)
            trajectories.append(hist.dev_scores)
        assert trajectories[0] == trajectories[1]

    def test_planted_marker_cue_classification(self):
        docs, g, _ = synth_docs(UnitKind.SEGMENT, case_count=60, marker_prob=0.3)
        markers = g.hooks.disease_list | frozenset(g.hooks.exam_pattern_list)
        relabeled = []
        for doc in docs:
            labels = []
            for u in doc.units:
                labels.append(int(any(t in markers for t in u.tokens)))
            relabeled.append(dataclasses.replace(doc, labels=tuple(labels)))
        train, dev, test = relabeled[:44], relabeled[44:50], relabeled[50:]
        config = SummarizerConfig(bucket_count=2 ** 14, epochs=6, seed=1)
        model, _ = summarizer_train(train, dev, UnitKind.SEGMENT, config, 100)
        tp = fp = fn = 0
        for doc, (probs, idx) in zip(test, predict_probs([model], [test])[0]):
            for p, i in zip(probs, idx):
                pred, gold = p >= 0.5, doc.labels[i]
                tp += pred and gold
                fp += pred and not gold
                fn += (not pred) and gold
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall)
        assert f1 >= 0.9

    def test_non_finite_training_names_first_bad_gradient(self):
        docs = [toy_doc(), dataclasses.replace(toy_doc(), case_id="c2", labels=(0, 1, 0))]
        config = dataclasses.replace(SMALL, lr=1e300)
        with np.errstate(all="ignore"), pytest.raises(nn.TrainingError) as exc:
            summarizer_train(docs, [], UnitKind.SEGMENT, config)
        assert str(exc.value) == (
            "non-finite loss nan at step 1 (seed 0); first non-finite gradient 'emb'"
        )

    def test_missing_labels_rejected(self):
        doc = dataclasses.replace(toy_doc(), labels=None)
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        with pytest.raises(ValueError, match="labels"):
            list(Summarizer.losses_and_grads([model], [[prepared(model, doc)]]))

    @pytest.mark.slow
    def test_trained_beats_random_selection_paired(self):
        from gransum.pipeline import rouge_eval

        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=110, seed=12)
        train, dev, test = docs[:50], docs[50:55], docs[55:]
        assert len(test) >= 50
        config = SummarizerConfig(epochs=8, seed=4)
        model, _ = summarizer_train(train, dev, UnitKind.SEGMENT, config, budget)
        rng = np.random.default_rng(9)
        diffs = []
        for doc, trained in zip(test, summarize([test], [model], budget_chars=budget)[0]):
            refs = [list(s) for s in doc.reference_sentences]
            trained_tokens = [list(u.tokens) for u in trained.units]
            trained_f1 = rouge_eval(trained_tokens, refs)["rouge1"].f1

            # a random ranking: the unit at rank k scores -k
            rank = np.argsort(rng.permutation(len(doc.units)))
            chosen = budget_select(-rank, list(doc.units), budget)
            rand_tokens = [list(doc.units[i].tokens) for i in chosen]
            random_f1 = rouge_eval(rand_tokens, refs)["rouge1"].f1
            diffs.append(trained_f1 - random_f1)
        assert np.mean(diffs) > 0.0


class TestCheckpointing:
    def test_roundtrip_preserves_probabilities(self, tmp_path):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=4)
        model, _ = summarizer_train(docs[:3], [], UnitKind.SEGMENT, SMALL, budget)
        path = tmp_path / "sum.ckpt"
        save_checkpoint(model.to_checkpoint(), str(path))
        loaded = Summarizer.from_checkpoint(load_checkpoint(str(path)))
        assert loaded.unit_kind is UnitKind.SEGMENT
        [(p0, _)] = predict_probs([model], [docs[3:]])[0]
        [(p1, _)] = predict_probs([loaded], [docs[3:]])[0]
        np.testing.assert_array_equal(p0, p1)


def test_batched_inference_matches_one_document_calls():
    """predict_probs over documents of different lengths, grouped under
    max_window, agrees with one-document calls, and summarize selects the
    same units."""
    docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=5)
    lengths = [len(prepared(Summarizer(SMALL, UnitKind.SEGMENT), d).stream) for d in docs]
    window = 2 * max(lengths)
    assert len(set(lengths)) > 1 and sum(lengths) > window  # two documents a group at most
    model = Summarizer(dataclasses.replace(SMALL, max_window=window), UnitKind.SEGMENT)
    batched = predict_probs([model], [docs])[0]
    for doc, (probs, unit_idx) in zip(docs, batched):
        [(want, want_idx)] = predict_probs([model], [[doc]])[0]
        assert unit_idx == want_idx
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
    together = [r.units for r in summarize([docs], [model], budget_chars=budget)[0]]
    alone = [summarize([[doc]], [model], budget_chars=budget)[0][0].units for doc in docs]
    assert together == alone


def _three_kinds(case_count=5):
    """One model per kind (seeds differ) and each kind's documents of the
    same cases."""
    docs = {kind: synth_docs(kind, case_count=case_count)[0] for kind in UnitKind}
    models = [
        Summarizer(dataclasses.replace(SMALL, seed=seed), kind)
        for seed, kind in enumerate(UnitKind)
    ]
    return models, [docs[model.unit_kind] for model in models]


def test_models_run_together_match_each_model_alone():
    """predict_probs of three models over the same cases, run together
    (one BiGRU call per group), equals each model run alone, bit for bit."""
    models, docs = _three_kinds()
    together = predict_probs(models, docs)
    for model, model_docs, got in zip(models, docs, together):
        [want] = predict_probs([model], [model_docs])
        assert [idx for _, idx in got] == [idx for _, idx in want]
        for (p_got, _), (p_want, _) in zip(got, want):
            assert np.array_equal(p_got, p_want)


def test_lockstep_training_step_matches_each_model_alone():
    """One losses_and_grads over three models, each on a different
    document (different lengths, padded to the longest), gives each
    model's loss and gradients bit for bit as its step alone."""
    models, docs = _three_kinds()
    batches = [[items[k]] for k, items in enumerate(prepare_documents(models, docs))]
    assert len({len(batch[0].stream) for batch in batches}) > 1
    losses = list(Summarizer.losses_and_grads(models, batches))
    together = [{k: g.copy() for k, g in m.store.grads.items()} for m in models]
    for model, batch, loss, grads in zip(models, batches, losses, together):
        model.store.zero_grads()
        assert list(Summarizer.losses_and_grads([model], [batch])) == [loss]
        for name, grad in model.store.grads.items():
            assert np.array_equal(grads[name], grad), name


def test_models_run_together_need_the_same_cases():
    models, docs = _three_kinds()
    with pytest.raises(ValueError, match="same cases"):
        predict_probs(models[:2], [docs[0], docs[1][::-1]])
    wide = Summarizer(dataclasses.replace(SMALL, max_window=512), UnitKind.SEGMENT)
    with pytest.raises(ValueError, match="max_window"):
        predict_probs([models[0], wide], [docs[0], docs[1]])


def test_models_trained_together_need_one_max_window():
    """train_summarizers refuses kinds of different max_window, dev
    documents or not."""
    docs = synth_docs(UnitKind.SEGMENT, case_count=3)[0]
    configs = [SMALL, dataclasses.replace(SMALL, max_window=512)]
    with pytest.raises(ValueError, match="max_window"):
        train_summarizers([docs, docs], [[], []], [UnitKind.SEGMENT] * 2, configs)


def test_each_case_is_prepared_once(monkeypatch):
    """Three kinds trained in lockstep for two epochs with dev scoring,
    then summarizing: each case's stream is built once, for all kinds,
    steps and dev evaluations."""
    kinds = list(UnitKind)
    per_kind = [synth_docs(kind, case_count=7) for kind in kinds]
    budget = per_kind[0][2]
    docs = [d for d, _, _ in per_kind]
    calls = Counter()
    real = summarizer.case_stream

    def counting(sentences, *args):
        calls[sentences] += 1
        return real(sentences, *args)

    monkeypatch.setattr(summarizer, "case_stream", counting)
    trained = train_summarizers(
        [d[:4] for d in docs], [d[4:5] for d in docs], kinds,
        [dataclasses.replace(SMALL, seed=k) for k in range(len(kinds))], budget,
    )
    assert all(len(history.dev_scores) == 2 for _, history in trained)
    summarize([d[5:] for d in docs], [model for model, _ in trained], budget_chars=budget)
    assert len(calls) == 7
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("max_window", [1024, 9, 5])
def test_case_stream_positions(max_window):
    """cls, sep and words partition the stream's positions, one [CLS]
    and one [SEP] around each kept sentence; a lone over-long first
    sentence keeps max_window - 2 tokens."""
    sentences = (("a", "b", "c", "d", "e", "f", "g", "h"), ("i",), ("j", "k"))
    stream = summarizer.case_stream(sentences, max_window, SMALL.hasher())
    length = len(stream)
    positions = np.concatenate([stream.cls, stream.sep, stream.words])
    assert np.array_equal(np.sort(positions), np.arange(length))
    assert {a.dtype for a in (stream.cls, stream.sep, stream.words)} == {np.dtype(np.int32)}
    assert stream.words.size == stream.bag.tokens.size
    kept = {1024: [8, 1, 2], 9: [7], 5: [3]}[max_window]
    assert (stream.sep - stream.cls - 1).tolist() == kept
    assert length == sum(kept) + 2 * len(kept) <= max_window


def _streams_of_three_lengths(models):
    docs = [synth_docs(model.unit_kind, case_count=3)[0] for model in models]
    prepared_docs = prepare_documents(models, docs)
    streams = [item.stream for item in prepared_docs[0]]
    assert len({len(stream) for stream in streams}) == 3
    return prepared_docs, streams


def test_encode_matches_role_mask_reference():
    """_encode of two models over a group of three streams of different
    lengths is bit for bit the role-mask reference, inputs and
    encodings."""
    models, _ = _three_kinds()
    models = models[:2]
    _, streams = _streams_of_three_lengths(models)
    got, got_cache = summarizer._encode(models, [streams] * 2)
    want, want_cache = reference_kernels.summarizer_encode(models, [streams] * 2)
    for x_got, x_want, enc_got, enc_want in zip(got_cache[0], want_cache[0], got, want):
        assert np.array_equal(x_got, x_want)
        assert np.array_equal(enc_got, enc_want)


def test_embedding_gradients_match_role_mask_reference():
    """One lockstep step's cls_vec, sep_vec and emb gradients are bit for
    bit those of the role-mask reference (one document per model, the
    models' streams of different lengths)."""
    models, _ = _three_kinds()
    prepared_docs, _ = _streams_of_three_lengths(models)
    batches = [[items[k]] for k, items in enumerate(prepared_docs)]
    list(Summarizer.losses_and_grads(models, batches))
    names = ("cls_vec", "sep_vec", "emb")
    got = [{name: model.store.grads[name].copy() for name in names} for model in models]
    for model in models:
        model.store.zero_grads()
    streams = [[batch[0].stream] for batch in batches]
    encs, cache = reference_kernels.summarizer_encode(models, streams)
    denc = [
        model._units_loss_and_grads(batch, enc)[1]
        for model, batch, enc in zip(models, batches, encs)
    ]
    dxs = nn.bigru_backward(denc, cache, [model.store for model in models])
    for model, model_streams, dx, grads in zip(models, streams, dxs, got):
        reference_kernels.summarizer_embed_backward(model, model_streams, dx)
        for name in names:
            assert np.array_equal(grads[name], model.store.grads[name]), name
