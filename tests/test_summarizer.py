import dataclasses

import numpy as np
import pytest

from gransum import nn
from gransum.corpus import SyntheticSpec, generate_synthetic
from gransum.nn.checkpoint import load_checkpoint, save_checkpoint
from gransum.pipeline import BoundaryProvider, build_document, build_views
from gransum.spans import TextSpan, Unit, UnitKind, budget_length, budget_select
from gransum.summarizer import (
    DocumentExample,
    Summarizer,
    SummarizerConfig,
    summarize,
    summarizer_train,
)

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
    boundaries = {
        UnitKind.SENTENCE: None,
        UnitKind.SEGMENT: BoundaryProvider("gold", g.hooks, gold=g.gold_by_case()),
        UnitKind.CLAUSE: BoundaryProvider("clauses", g.hooks),
    }[kind]
    budget = float(np.mean([budget_length(v.case.summary_text) for v in views]))
    docs = [build_document(v, kind, boundaries, budget) for v in views]
    return docs, g, budget


class TestEncodeDocument:
    def test_single_token_unit_pool_is_identity(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        doc = toy_doc()
        _, pools, _ = model._layout(doc)
        # the middle unit covers exactly one token
        a, b = pools[1]
        assert b - a == 1

    def test_pooling_equals_arithmetic_mean(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        doc = toy_doc()
        stream, pools, unit_idx = model._layout(doc)
        x = np.empty((len(stream), SMALL.embed_dim))
        p = model.store.params
        for t, (surface, role) in enumerate(stream):
            if role == 0:
                x[t] = p["cls_vec"]
            elif role == 1:
                x[t] = p["sep_vec"]
            else:
                x[t] = p["emb"][model.hasher.buckets(surface)].mean(axis=0)
        x = x + SMALL.pe_scale * nn.sinusoidal_encoding(len(stream), SMALL.embed_dim)
        enc, _ = nn.bigru_forward(x, model.store, "enc")
        for (a, b) in pools:
            manual = enc[a:b].mean(axis=0)
            np.testing.assert_allclose(manual, enc[a:b].sum(axis=0) / (b - a), atol=1e-12)

    def test_boundary_tokens_excluded_from_pools(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        stream, pools, _ = model._layout(toy_doc())
        special = {t for t, (s, role) in enumerate(stream) if role in (0, 1)}
        for a, b in pools:
            assert not (set(range(a, b)) & special)

    def test_sentence_kind_uses_cls(self):
        model = Summarizer(SMALL, UnitKind.SENTENCE)
        doc = toy_doc(UnitKind.SENTENCE)
        stream, pools, _ = model._layout(doc)
        cls_positions = [t for t, (s, role) in enumerate(stream) if role == 0]
        assert pools == [(c, c + 1) for c in cls_positions]

    def test_zero_head_gives_half_probability(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        model.store.params["head_w"][...] = 0.0
        model.store.params["head_b"][...] = 0.0
        [(probs, _)] = model.predict_probs([toy_doc()])
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_window_truncation_drops_trailing_sentences(self):
        config = dataclasses.replace(SMALL, max_window=8)
        model = Summarizer(config, UnitKind.SEGMENT)
        # first sentence costs 6 (4 tokens + cls + sep); second would overflow
        doc = toy_doc()
        _, [unit_idx], _ = model._forward([doc], [model._layout(doc)])
        assert unit_idx == [0, 1]

    def test_kind_mismatch_rejected(self):
        model = Summarizer(SMALL, UnitKind.CLAUSE)
        with pytest.raises(ValueError, match="kind"):
            model.loss_and_grads([toy_doc()])

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
        doc = toy_doc()

        def loss_fn():
            model.store.zero_grads()
            return model.loss_and_grads([doc])

        assert nn.finite_difference_check(loss_fn, model.store) < 1e-4


class TestSummarize:
    def test_budget_zero_selects_single_top_unit(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        [result] = summarize([toy_doc()], model, budget_chars=0)
        assert len(result.units) == 1

    def test_equal_probabilities_document_order_prefix(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        model.store.params["head_w"][...] = 0.0
        model.store.params["head_b"][...] = 0.0
        doc = toy_doc()
        [result] = summarize([doc], model, budget_chars=6)
        # char lengths 5, 2, 5: prefix crosses budget at the second unit...
        # 5 + 2 = 7 > 6, so exactly the first two units in document order
        assert result.units == doc.units[:2]

    def test_ranking_invariant_under_monotone_logit_transform(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=4)
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        base = [r.units for r in summarize(docs, model, budget_chars=budget)]
        # scale the head: logits -> 3 * logits + 1 is strictly monotone
        model.store.params["head_w"][...] *= 3.0
        model.store.params["head_b"][...] = model.store.params["head_b"] * 3.0 + 1.0
        after = [r.units for r in summarize(docs, model, budget_chars=budget)]
        assert base == after

    def test_output_length_exceeds_budget_by_at_most_one_unit(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=6)
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        for doc, result in zip(docs, summarize(docs, model, budget_chars=budget)):
            total = sum(u.char_length for u in result.units)
            max_unit = max(u.char_length for u in doc.units)
            assert total <= budget + max_unit

    def test_summary_joined_by_single_space(self):
        model = Summarizer(SMALL, UnitKind.SEGMENT)
        [result] = summarize([toy_doc()], model, budget_chars=10 ** 6)
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


class TestTraining:
    def test_all_zero_labels_drift_to_zero(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=10)
        zeroed = [
            dataclasses.replace(d, labels=tuple(0 for _ in d.units)) for d in docs
        ]
        config = dataclasses.replace(SMALL, epochs=4)
        model, _ = summarizer_train(zeroed, [], UnitKind.SEGMENT, config, budget)
        probs = [q for p, _ in model.predict_probs(zeroed) for q in p.tolist()]
        assert np.mean(probs) < 0.1

    def test_same_seed_identical_dev_trajectories(self):
        docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=10)
        train, dev = docs[:8], docs[8:]
        trajectories = []
        for _ in range(2):
            _, hist = summarizer_train(train, dev, UnitKind.SEGMENT, SMALL, budget)
            trajectories.append(hist.dev_rouge1)
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
        for doc, (probs, idx) in zip(test, model.predict_probs(test)):
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
            model.loss_and_grads([doc])

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
        for doc, trained in zip(test, summarize(test, model, budget_chars=budget)):
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
        [(p0, _)] = model.predict_probs(docs[3:])
        [(p1, _)] = loaded.predict_probs(docs[3:])
        np.testing.assert_array_equal(p0, p1)


def test_batched_inference_matches_one_document_calls():
    """predict_probs over documents of different lengths, grouped under
    max_window, agrees with one-document calls, and summarize selects the
    same units."""
    docs, _, budget = synth_docs(UnitKind.SEGMENT, case_count=5)
    lengths = [len(Summarizer(SMALL, UnitKind.SEGMENT)._layout(d)[0]) for d in docs]
    window = 2 * max(lengths)
    assert len(set(lengths)) > 1 and sum(lengths) > window  # two documents a group at most
    model = Summarizer(dataclasses.replace(SMALL, max_window=window), UnitKind.SEGMENT)
    batched = model.predict_probs(docs)
    for doc, (probs, unit_idx) in zip(docs, batched):
        [(want, want_idx)] = model.predict_probs([doc])
        assert unit_idx == want_idx
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
    together = [r.units for r in summarize(docs, model, budget_chars=budget)]
    alone = [summarize([doc], model, budget_chars=budget)[0].units for doc in docs]
    assert together == alone
