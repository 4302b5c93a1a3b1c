import json

import pytest

from gransum.corpus import (
    Case,
    Corpus,
    CorpusError,
    SyntheticSpec,
    dump_case,
    generate_synthetic,
    load_corpus,
    load_gold_boundaries,
    save_corpus,
    save_gold_boundaries,
)
from gransum.rouge import rouge_n
from gransum.settings import load_settings
from gransum.splitters import DEFAULT_PATTERNS_VERSION, RulePatterns, split_sentences
from gransum.tokenization import LexiconHooks, tokenize


class TestLoadCorpus:
    def test_two_wellformed_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"id": "a", "records": ["r1。"], "summary": "s"}) + "\n"
            + json.dumps({"id": "b", "records": ["r2。"], "summary": "t"}) + "\n"
        )
        cases = load_corpus(str(path))
        assert [c.id for c in cases] == ["a", "b"]

    def test_missing_summary_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"id": "a", "records": ["r"], "summary": "s"}) + "\n"
            + json.dumps({"id": "b", "records": ["r"]}) + "\n"
        )
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(str(path)) == []

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = json.dumps({"id": "a", "records": ["r"], "summary": "s"})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(str(path))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        for bad in ("{", "[1, 2]", "5"):
            path.write_text(bad + "\n")
            with pytest.raises(CorpusError, match=":1:"):
                load_corpus(str(path))

    def test_roundtrip_preserves_bytes(self, tmp_path):
        cases = [
            Case("a", ("line one。", "line two"), "sum。"),
            Case("b", ("x",), "y"),
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(cases, str(path))
        first = path.read_bytes()
        reloaded = load_corpus(str(path))
        assert reloaded == cases
        save_corpus(reloaded, str(path))
        assert path.read_bytes() == first

    def test_case_validation(self):
        with pytest.raises(CorpusError):
            Case("", ("r",), "s")
        with pytest.raises(CorpusError):
            Case("a", (), "s")
        with pytest.raises(CorpusError):
            Case("a", ("r",), "")


class TestSyntheticSpec:
    def test_copy_rate_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(copy_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(copy_rate=-0.1)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            SyntheticSpec(case_count=0)

    def test_spec_file_coerces_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"case_count": 3, "segments_per_sentence": {"2": 1}}')
        spec = load_settings(SyntheticSpec, str(path))
        assert spec.segments_per_sentence == {2: 1.0}
        assert type(spec.segments_per_sentence[2]) is float


class TestGenerator:
    def test_determinism_byte_identical(self, tmp_path):
        spec = SyntheticSpec(case_count=5, sentences_per_record=3, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a.cases, str(pa))
        save_corpus(b.cases, str(pb))
        assert pa.read_bytes() == pb.read_bytes()
        assert a.gold == b.gold

    def test_copy_rate_one_every_chunk_verbatim(self):
        spec = SyntheticSpec(
            case_count=4, sentences_per_record=4, copy_rate=1.0, seed=2
        )
        g = generate_synthetic(spec)
        for case in g.cases:
            records = case.record_text
            for chunk in case.summary_text.split("\n"):
                assert chunk in records

    def test_copy_rate_zero_disjoint_rouge1_zero(self):
        spec = SyntheticSpec(
            case_count=4, sentences_per_record=4, copy_rate=0.0, seed=3
        )
        g = generate_synthetic(spec)
        for case in g.cases:
            rec_tokens = [
                t.surface
                for s in split_sentences(case.record_text)
                for t in tokenize(s.text)
            ]
            sum_tokens = [
                t.surface
                for s in split_sentences(case.summary_text)
                for t in tokenize(s.text)
            ]
            assert rouge_n(sum_tokens, rec_tokens, 1).recall == 0.0

    def test_measured_copy_fraction_near_rate(self):
        spec = SyntheticSpec(case_count=100, copy_rate=0.25, seed=11)
        g = generate_synthetic(spec)
        copied = total = 0
        for case in g.cases:
            records = case.record_text
            for chunk in case.summary_text.split("\n"):
                total += 1
                copied += chunk in records
        assert abs(copied / total - 0.25) < 0.05

    def test_planted_boundaries_tile_sentences(self):
        spec = SyntheticSpec(case_count=6, sentences_per_record=4, seed=4)
        g = generate_synthetic(spec)
        gold = g.gold
        for case in g.cases:
            sentences = split_sentences(case.record_text)
            assert len(sentences) == len(case.record_sentences)
            for si, s in enumerate(sentences):
                tokens = tokenize(s.text, g.hooks)
                positions = gold[case.id][si]
                assert all(0 <= p < len(tokens) - 1 for p in positions)
                assert all(a < b for a, b in zip(positions, positions[1:]))
                # planted cue: every boundary sits on a comma token
                for p in positions:
                    assert tokens[p].surface == ","

    def test_noise_flags(self):
        spec = SyntheticSpec(
            case_count=8,
            sentences_per_record=4,
            drop_fullstop_prob=0.5,
            inject_newline_prob=0.5,
            seed=6,
        )
        g = generate_synthetic(spec)
        gold = g.gold
        some_dropped = False
        some_injected = False
        for case in g.cases:
            if len(case.record_sentences) > 4:
                some_injected = True
            if any(not line.endswith("。") for line in case.record_sentences):
                some_dropped = True
            sentences = split_sentences(case.record_text)
            assert len(sentences) == len(case.record_sentences)
            for si, s in enumerate(sentences):
                tokens = tokenize(s.text, g.hooks)
                for p in gold[case.id][si]:
                    assert 0 <= p < len(tokens) - 1
        assert some_dropped and some_injected


def test_gold_boundaries_roundtrip(tmp_path):
    gold = {"a": {0: (1, 3), 1: ()}, "b": {0: (2,)}}
    path = tmp_path / "g.jsonl"
    save_gold_boundaries(gold, str(path))
    assert load_gold_boundaries(str(path)) == gold


def test_generated_gold_file_roundtrips_byte_for_byte(tmp_path):
    """Table equality ignores order, so the file's bytes are compared:
    saving a loaded gold file writes the same lines in the same order."""
    spec = SyntheticSpec(
        case_count=6, sentences_per_record=4, drop_fullstop_prob=0.5,
        inject_newline_prob=0.5, seed=6,
    )
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_synthetic(spec).save(str(tmp_path / "c.jsonl"), gold_path=str(first))
    save_gold_boundaries(load_gold_boundaries(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()
    # injected newlines give records more lines than sentences_per_record
    assert len(first.read_text().splitlines()) > 6 * 4


def test_corpus_bundle_roundtrips_byte_for_byte(tmp_path):
    """Saving a loaded bundle writes the four files it was loaded from;
    the corpus file alone loads no gold and the default side files."""
    names = ("corpus.jsonl", "gold.jsonl", "hooks.json", "patterns.json")
    first = [tmp_path / f"a_{name}" for name in names]
    second = [tmp_path / f"b_{name}" for name in names]
    generated = generate_synthetic(SyntheticSpec(case_count=6, sentences_per_record=4, seed=6))
    generated.save(*map(str, first))
    Corpus.load(*map(str, first)).save(*map(str, second))
    for a, b in zip(first, second):
        assert b.read_bytes() == a.read_bytes(), a.name
    alone = Corpus.load(str(first[0]))
    assert alone.cases == generated.cases
    assert alone.gold is None
    assert alone.hooks == LexiconHooks()
    assert alone.patterns == RulePatterns(DEFAULT_PATTERNS_VERSION)


def test_dump_case_stable_key_order():
    case = Case("a", ("r",), "s")
    assert dump_case(case) == '{"id":"a","records":["r"],"summary":"s"}'


def test_malformed_gold_lines_name_line(tmp_path):
    path = tmp_path / "g.jsonl"
    good = json.dumps({"id": "a", "sentence_index": 0, "boundaries": [1]})
    for bad in (
        "{oops",
        "[1, 2]",
        "5",
        json.dumps({"id": "a", "sentence_index": 0}),
        json.dumps({"id": "a", "sentence_index": 0, "boundaries": 5}),
        json.dumps({"id": "a", "sentence_index": 0, "boundaries": [1.5]}),
        json.dumps({"id": "a", "sentence_index": 0, "boundaries": ["1"]}),
        json.dumps({"id": "a", "sentence_index": "0", "boundaries": [1]}),
    ):
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(CorpusError, match=":2:"):
            load_gold_boundaries(str(path))
