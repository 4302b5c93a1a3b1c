import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gransum import pipeline
from gransum.cli import main as cli_main
from gransum.corpus import Corpus, SyntheticSpec, generate_synthetic
from gransum.pipeline import (
    REPORT_VERSION,
    PipelineConfig,
    build_document,
    build_views,
    rouge_eval_texts,
    run_experiment,
    split_indices,
    split_views,
    surface_sentences,
)
from gransum.segmenter import PointerSegmenter, SegmenterConfig
from gransum.settings import load_settings
from gransum.spans import UnitKind
from gransum.splitters import split_sentences
from gransum.summarizer import SummarizerConfig
from gransum.tokenization import Tag, tokenize

import reference_kernels

TINY = PipelineConfig(
    synthetic=SyntheticSpec(
        case_count=12,
        sentences_per_record=4,
        segments_per_sentence={2: 0.5, 3: 0.5},
        seed=9,
    ),
    segment_method="gold",
    dev_fraction=0.15,
    test_fraction=0.15,
    seed=3,
    segmenter=SegmenterConfig(bucket_count=256, epochs=1, seed=0),
    summarizer=SummarizerConfig(
        embed_dim=8, hidden=6, d_ff=12, bucket_count=256, epochs=1, seed=0
    ),
)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(TINY, str(out))
    return report, out


class TestRunExperiment:
    def test_report_has_requested_kind_rows(self, tiny_report):
        report, _ = tiny_report
        assert set(report["summarization"]) == {"SENTENCE", "SEGMENT", "CLAUSE"}

    def test_single_kind_config(self, tmp_path):
        config = PipelineConfig(
            synthetic=TINY.synthetic,
            kinds=(UnitKind.SENTENCE,),
            segment_method="gold",
            dev_fraction=0.15,
            test_fraction=0.15,
            seed=3,
            segmenter=TINY.segmenter,
            summarizer=TINY.summarizer,
        )
        report = run_experiment(config, str(tmp_path))
        assert list(report["summarization"]) == ["SENTENCE"]
        assert report["relations"] == {}

    def test_pointer_decodes_each_sentence_once(self, tmp_path, monkeypatch):
        decoded = []
        predict = PointerSegmenter.predict

        def counted(model, sentences):
            decoded.extend(tuple(s) for s in sentences)
            return predict(model, sentences)

        monkeypatch.setattr(PointerSegmenter, "predict", counted)
        run_experiment(replace(TINY, segment_method="pointer"), str(tmp_path))
        corpus = Corpus.load(str(tmp_path / "corpus.jsonl"), hooks_path=str(tmp_path / "hooks.json"))
        views = build_views(corpus.cases, corpus.hooks)
        sentences = [tuple(t.surface for t in toks) for v in views for toks in v.tokens]
        assert Counter(decoded) == Counter(sentences)

    def test_report_files_written(self, tiny_report):
        _, out = tiny_report
        for name in (
            "report.json",
            "report.tsv",
            "corpus.jsonl",
            "gold_boundaries.jsonl",
            "hooks.json",
            "patterns.json",
            "summarizer_sentence.ckpt",
            "summaries_sentence.jsonl",
        ):
            assert (out / name).exists(), name

    def test_segmentation_section_scores_fullstop_zero(self, tiny_report):
        report, _ = tiny_report
        # generator plants no internal full stops, so the baseline finds nothing
        assert report["segmentation"]["fullstop"]["micro"]["f1"] == 0.0

    def test_sentence_granularity_row(self, tiny_report):
        report, _ = tiny_report
        assert report["granularity"]["SENTENCE"]["units_per_sentence"] == 1.0
        seg = report["granularity"]["SEGMENT"]
        sent = report["granularity"]["SENTENCE"]
        assert seg["chars_per_unit"] < sent["chars_per_unit"]

    def test_relations_partition(self, tiny_report):
        report, _ = tiny_report
        rel = report["relations"]
        assert sum(rel["counts"].values()) == rel["total_intersecting"]
        assert sum(rel["percentages"].values()) == pytest.approx(100.0)

    def test_report_version_round_trip(self, tiny_report):
        report, out = tiny_report
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["report_version"] == report["report_version"] == REPORT_VERSION

    @pytest.mark.parametrize("segment_method", ["gold", "rules"])
    def test_cli_tables_match_report(self, segment_method, tiny_report, tmp_path):
        if segment_method == TINY.segment_method:
            _, out = tiny_report
        else:
            out = tmp_path / "exp"
            run_experiment(replace(TINY, segment_method=segment_method), str(out))
        report_lines = set((out / "report.tsv").read_text().splitlines())
        common = [
            "--corpus", str(out / "corpus.jsonl"),
            "--hooks", str(out / "hooks.json"),
            "--patterns", str(out / "patterns.json"),
            "--method", segment_method,
            "--gold", str(out / "gold_boundaries.jsonl"),
        ]
        runs = [["stats", *common, "--kind", k.value] for k in TINY.kinds]
        runs.append(["analyze-relations", *common])
        for argv in runs:
            path = tmp_path / "table.tsv"
            assert cli_main(argv + ["--output", str(path)]) == 0
            lines = path.read_text().splitlines()
            assert lines and all(line in report_lines for line in lines), argv


def test_lockstep_kinds_match_one_kind_at_a_time(tmp_path, monkeypatch):
    """run_experiment trains and summarizes the three kinds together; a
    small pointer run (two summarizer epochs, dev cases) writes every
    artifact byte for byte as the reference stage that runs one kind
    after another."""
    config = replace(
        TINY,
        segment_method="pointer",
        summarizer=replace(TINY.summarizer, embed_dim=32, hidden=32, d_ff=96, epochs=2),
    )
    lockstep, sequential = tmp_path / "lockstep", tmp_path / "sequential"
    run_experiment(config, str(lockstep))
    monkeypatch.setattr(pipeline, "train_and_summarize", reference_kernels.train_and_summarize)
    run_experiment(config, str(sequential))
    names = sorted(p.name for p in lockstep.iterdir())
    assert names == sorted(p.name for p in sequential.iterdir())
    assert {"segmenter.ckpt", "summarizer_clause.ckpt", "summaries_clause.jsonl"} <= set(names)
    for name in names:
        assert (lockstep / name).read_bytes() == (sequential / name).read_bytes(), name
    report = json.loads((lockstep / "report.json").read_text())
    assert report["corpus"]["dev"] > 0
    assert all(len(k["dev_rouge1_trajectory"]) == 2 for k in report["summarization"].values())


class TestConfig:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(synthetic=TINY.synthetic, dev_fraction=0.6, test_fraction=0.5)

    def test_unknown_segment_method(self):
        with pytest.raises(ValueError):
            PipelineConfig(synthetic=TINY.synthetic, segment_method="magic")

    def test_needs_corpus_or_synthetic(self):
        with pytest.raises(ValueError):
            PipelineConfig(corpus_path=None, synthetic=None)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY.to_dict()))
        loaded = load_settings(PipelineConfig, str(path))
        assert loaded == TINY


class TestSplitIndices:
    def test_partition_and_determinism(self):
        train, dev, test = split_indices(50, 0.1, 0.1, seed=4)
        assert sorted(train + dev + test) == list(range(50))
        assert (train, dev, test) == split_indices(50, 0.1, 0.1, seed=4)

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            split_indices(2, 0.4, 0.4, seed=0)

    @pytest.mark.parametrize(
        "dev, test",
        [(0.0, 0.1), (-3.0, 0.1), (1.0, 0.1), (float("inf"), 0.1), (float("nan"), 0.1),
         (0.1, -0.1), (0.1, 1.0), (0.1, float("nan"))],
    )
    def test_fraction_out_of_range_rejected(self, dev, test):
        with pytest.raises(ValueError, match="fraction must be in"):
            split_indices(50, dev, test, seed=0)

    def test_zero_test_fraction_draws_dev_first(self):
        """With no test share, dev is the head of the seeded permutation."""
        train, dev, test = split_indices(20, 0.1, 0.0, seed=4)
        order = [int(i) for i in np.random.default_rng(4).permutation(20)]
        assert test == [] and dev == sorted(order[:2]) and train == sorted(order[2:])


def test_rouge_eval_texts_identity():
    scores = rouge_eval_texts("a b。c d", "a b。c d")
    assert scores["rouge1"].f1 == 1.0
    assert scores["rougeL"].f1 == 1.0


def test_rouge_eval_texts_empty_candidate():
    scores = rouge_eval_texts("", "a b")
    assert scores["rouge1"].f1 == 0.0


@pytest.mark.parametrize("seed", [9, 20250808])
def test_hooks_never_change_surfaces(seed):
    """The planted lexicon tags tokens but never moves a boundary, so a
    summary tokenized without hooks has the surfaces it has with them."""
    corpus = generate_synthetic(SyntheticSpec(case_count=20, chunks_per_summary=40, seed=seed))
    markers = 0
    for case in corpus.cases:
        for text in (case.record_text, case.summary_text):
            hooked = tuple(
                tuple(t.surface for t in tokenize(s.text, corpus.hooks))
                for s in split_sentences(text)
            )
            assert hooked == surface_sentences(text)
            markers += sum(
                t.tag is Tag.MARKER
                for s in split_sentences(text)
                for t in tokenize(s.text, corpus.hooks)
            )
    assert markers > 0


def test_every_kind_shares_the_view_surfaces():
    """Each kind's document holds the view's own surface tuples, and its
    units slice them by their token and character bounds."""
    corpus = generate_synthetic(SyntheticSpec(case_count=3, seed=4))
    views = build_views(corpus.cases, corpus.hooks)
    view = views[0]
    for kind, method in ((UnitKind.SENTENCE, "whole"), (UnitKind.SEGMENT, "rules"),
                         (UnitKind.CLAUSE, "clauses")):
        doc = build_document(view, kind, split_views(views, method, corpus)[0])
        assert doc.sentences is view.surfaces
        assert doc.reference_sentences is view.reference_sentences
        for unit, text in zip(doc.units, doc.unit_texts):
            assert not hasattr(unit, "span")
            sentence = view.sentences[unit.sentence_index].text
            assert text == sentence[unit.char_start:unit.char_end]
            assert unit.tokens == view.surfaces[unit.sentence_index][unit.token_start:unit.token_end]
