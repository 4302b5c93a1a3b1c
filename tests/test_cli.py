import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from gransum import pipeline
from gransum.cli import main
from gransum.corpus import load_corpus
from gransum.nn import core as nn
from gransum.nn.checkpoint import MAGIC, save_checkpoint
from gransum.nn.core import train_step
from gransum.segmenter import PointerSegmenter, SegmenterConfig
from gransum.spans import UnitKind
from gransum.splitters import split_sentences
from gransum.summarizer import Summarizer, SummarizerConfig


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "gen-synthetic",
            "--spec", _write_spec(d),
            "--corpus-out", str(d / "corpus.jsonl"),
            "--gold-out", str(d / "gold.jsonl"),
            "--hooks-out", str(d / "hooks.json"),
            "--patterns-out", str(d / "patterns.json"),
        ]
    )
    assert rc == 0
    return d


def _write_spec(d):
    path = d / "spec.json"
    path.write_text(
        json.dumps(
            {
                "case_count": 8,
                "sentences_per_record": 4,
                "segments_per_sentence": {"2": 0.5, "3": 0.5},
                "seed": 5,
            }
        )
    )
    return str(path)


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segment", "--bogus-flag"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_corpus_is_data_error(tmp_path):
    rc = main(["split-sentences", "--corpus", str(tmp_path / "nope.jsonl")])
    assert rc == 2


def test_numeric_error_exits_three(synth_dir, tmp_path, monkeypatch):
    from gransum.nn.core import TrainingError
    import gransum.cli as cli_mod

    def explode(*args, **kwargs):
        raise TrainingError("non-finite loss nan at step 3")

    monkeypatch.setattr(cli_mod, "segmenter_train", explode)
    rc = main(
        [
            "train-segmenter",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--gold", str(synth_dir / "gold.jsonl"),
            "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ]
    )
    assert rc == 3


def test_program_fault_is_not_data_error(synth_dir, monkeypatch):
    """A KeyError inside a command is a program fault: main raises it
    rather than reporting bad input with exit 2."""
    import gransum.cli as cli_mod

    def missing_key(*args, **kwargs):
        raise KeyError("units_per_sentence")

    monkeypatch.setattr(cli_mod, "view_stats", missing_key)
    with pytest.raises(KeyError, match="units_per_sentence"):
        main(["stats", "--corpus", str(synth_dir / "corpus.jsonl"), "--kind", "SENTENCE"])


def test_malformed_corpus_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n")
    rc = main(["split-sentences", "--corpus", str(bad)])
    assert rc == 2


def test_split_sentences(synth_dir, tmp_path):
    out = tmp_path / "sentences.jsonl"
    rc = main(
        ["split-sentences", "--corpus", str(synth_dir / "corpus.jsonl"), "--output", str(out)]
    )
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 8
    assert all(r["sentences"] for r in rows)


def test_segment_fullstop_emits_jsonl(synth_dir, tmp_path):
    out = tmp_path / "bounds.jsonl"
    rc = main(
        [
            "segment",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "fullstop",
            "--output", str(out),
        ]
    )
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    # no internal full stops in the generator: all boundary lists empty
    assert rows and all(r["boundaries"] == [] for r in rows)


def test_eval_rouge_identity_scores_one(synth_dir, tmp_path):
    corpus = synth_dir / "corpus.jsonl"
    cand = tmp_path / "cand.jsonl"
    with open(corpus) as fh, open(cand, "w") as out:
        for line in fh:
            obj = json.loads(line)
            out.write(
                json.dumps({"case_id": obj["id"], "summary_text": obj["summary"]}) + "\n"
            )
    result_path = tmp_path / "rouge.json"
    rc = main(
        [
            "eval-rouge",
            "--candidates", str(cand),
            "--corpus", str(corpus),
            "--output", str(result_path),
        ]
    )
    assert rc == 0
    result = json.loads(result_path.read_text())
    for key in ("rouge1", "rouge2", "rougeL"):
        assert result["means"][key]["f1"] == pytest.approx(1.0)


def test_segmenter_train_eval_cycle(synth_dir, tmp_path):
    ckpt = tmp_path / "seg.ckpt"
    rc = main(
        [
            "train-segmenter",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--gold", str(synth_dir / "gold.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--epochs", "2",
            "--seed", "3",
            "--out", str(ckpt),
        ]
    )
    assert rc == 0 and ckpt.exists()
    out = tmp_path / "seg_eval.json"
    rc = main(
        [
            "eval-segmenter",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--gold", str(synth_dir / "gold.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "pointer",
            "--checkpoint", str(ckpt),
            "--output", str(out),
        ]
    )
    assert rc == 0
    scores = json.loads(out.read_text())
    assert 0.0 <= scores["micro"]["f1"] <= 1.0


def test_oracle_then_train_then_summarize(synth_dir, tmp_path):
    labels = tmp_path / "labels.jsonl"
    rc = main(
        [
            "make-oracle",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "gold",
            "--gold", str(synth_dir / "gold.jsonl"),
            "--kind", "SEGMENT",
            "--budget", "120",
            "--output", str(labels),
        ]
    )
    assert rc == 0
    rows = [json.loads(l) for l in labels.read_text().splitlines()]
    assert any(r["gold"] for r in rows)
    assert all(r["kind"] == "SEGMENT" for r in rows)

    ckpt = tmp_path / "sum.ckpt"
    rc = main(
        [
            "train-summarizer",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--labels", str(labels),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "gold",
            "--gold", str(synth_dir / "gold.jsonl"),
            "--kind", "SEGMENT",
            "--budget", "120",
            "--epochs", "1",
            "--seed", "1",
            "--out", str(ckpt),
        ]
    )
    assert rc == 0 and ckpt.exists()

    summaries = tmp_path / "summaries.jsonl"
    rc = main(
        [
            "summarize",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "gold",
            "--gold", str(synth_dir / "gold.jsonl"),
            "--model", str(ckpt),
            "--budget", "120",
            "--output", str(summaries),
        ]
    )
    assert rc == 0
    rows = [json.loads(l) for l in summaries.read_text().splitlines()]
    assert len(rows) == 8
    assert all("summary_text" in r and "selected_units" in r for r in rows)


def test_wrong_checkpoint_kind_is_data_error(synth_dir, tmp_path):
    ckpt = tmp_path / "seg2.ckpt"
    main(
        [
            "train-segmenter",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--gold", str(synth_dir / "gold.jsonl"),
            "--epochs", "1",
            "--out", str(ckpt),
        ]
    )
    rc = main(
        [
            "summarize",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--method", "fullstop",
            "--model", str(ckpt),
        ]
    )
    assert rc == 2


def test_stats_and_relations(synth_dir, tmp_path):
    out = tmp_path / "stats.tsv"
    rc = main(
        [
            "stats",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--kind", "SENTENCE",
            "--output", str(out),
        ]
    )
    assert rc == 0
    line = out.read_text().splitlines()[1]
    assert line.startswith("Sentence\t1.00")

    out2 = tmp_path / "relations.tsv"
    rc = main(
        [
            "analyze-relations",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--patterns", str(synth_dir / "patterns.json"),
            "--method", "rules",
            "--output", str(out2),
        ]
    )
    assert rc == 0
    assert out2.read_text().startswith("Relation types\t")


def _bad_gold(synth_dir, tmp_path):
    """The generated gold file with one position past its sentence's end."""
    lines = (synth_dir / "gold.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    row["boundaries"] = [999]
    path = tmp_path / "bad_gold.jsonl"
    path.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command",
    [
        ["segment", "--method", "gold"],
        ["analyze-relations", "--method", "gold"],
        ["eval-segmenter", "--method", "rules"],
        ["train-segmenter", "--epochs", "1"],
        ["stats", "--method", "gold", "--kind", "SEGMENT"],
        ["make-oracle", "--method", "gold", "--kind", "SEGMENT"],
    ],
    ids=lambda command: command[0],
)
def test_out_of_range_gold_is_data_error(command, synth_dir, tmp_path, capsys):
    argv = command + [
        "--corpus", str(synth_dir / "corpus.jsonl"),
        "--hooks", str(synth_dir / "hooks.json"),
        "--gold", _bad_gold(synth_dir, tmp_path),
    ]
    if command[0] == "train-segmenter":
        argv += ["--out", str(tmp_path / "seg.ckpt")]
    else:
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: gold boundaries of case") and "\n" not in err


def test_malformed_candidates_are_data_error(synth_dir, tmp_path, capsys):
    cand = tmp_path / "cand.jsonl"
    for bad in (
        "[1, 2]",
        '{"case_id": 3, "summary_text": "x"}',
        '{"case_id": "case-00000", "summary_text": ["x"]}',
        '{"case_id": "case-00000"}',
        "{oops",
    ):
        cand.write_text('\n' + bad + "\n")
        rc = main(
            ["eval-rouge", "--candidates", str(cand), "--corpus", str(synth_dir / "corpus.jsonl")]
        )
        assert rc == 2, bad
        assert f"{cand}:2:" in capsys.readouterr().err, bad


def _checkpoint_bytes(tmp_path, model, **extra_hyper):
    """A saved checkpoint of model with its hyperparameters altered."""
    ckpt = model.to_checkpoint()
    ckpt.hyper.update(extra_hyper)
    path = tmp_path / "altered.ckpt"
    save_checkpoint(ckpt, str(path))
    return path.read_bytes()


def _nan_checkpoint_bytes(tmp_path, model, name):
    """A saved checkpoint of model whose tensor name ends in a NaN, as a
    payload tail overwritten with 0xFF bytes reads."""
    ckpt = model.to_checkpoint()
    ckpt.tensors[name] = ckpt.tensors[name].copy()
    ckpt.tensors[name].flat[-1] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, str(path))
    return path.read_bytes()


def _checkpoint_header_bytes(tmp_path, model, **fields):
    """A saved checkpoint of model with header fields replaced; a field
    given as None is removed."""
    data = _checkpoint_bytes(tmp_path, model)
    start = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", data[len(MAGIC):start])
    header = json.loads(data[start:start + length])
    for name, value in fields.items():
        if value is None:
            del header[name]
        else:
            header[name] = value
    raw = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + length:]


def _label_line(**fields):
    row = {"case_id": "case-00000", "sentence_index": 0, "unit_index": 0,
           "kind": "SENTENCE", "score": 0.0, "gold": True}
    row.update(fields)
    return json.dumps(row) + "\n"


@pytest.mark.parametrize("argv", [
    ["eval-segmenter", "--method", "rules", "--gold", "{dir}/gold.jsonl"],
    ["segment", "--method", "rules"],
    ["stats", "--method", "rules", "--kind", "CLAUSE"],
    ["analyze-relations", "--method", "rules"],
])
def test_commands_that_read_no_summary_do_not_tokenize_it(argv, synth_dir, tmp_path, monkeypatch):
    """Each record sentence is tokenized once, and no summary sentence."""
    calls = []
    tokenize = pipeline.tokenize
    monkeypatch.setattr(
        pipeline, "tokenize", lambda text, hooks=None: calls.append(text) or tokenize(text, hooks)
    )
    corpus = str(synth_dir / "corpus.jsonl")
    argv = [a.format(dir=synth_dir) for a in argv]
    assert main(argv + ["--corpus", corpus, "--hooks", str(synth_dir / "hooks.json"),
                        "--output", str(tmp_path / "out")]) == 0
    records = [s.text for case in load_corpus(corpus) for s in split_sentences(case.record_text)]
    assert calls == records


def test_eval_segmenter_gold_loads_gold_once(synth_dir, tmp_path, monkeypatch):
    """--method gold scores the gold boundaries against themselves, read
    and validated once."""
    import gransum.corpus as corpus_mod

    loaded = []
    load = corpus_mod.load_gold_boundaries
    monkeypatch.setattr(
        corpus_mod, "load_gold_boundaries", lambda path: loaded.append(path) or load(path)
    )
    out = tmp_path / "eval.json"
    rc = main(
        [
            "eval-segmenter",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--hooks", str(synth_dir / "hooks.json"),
            "--method", "gold",
            "--gold", str(synth_dir / "gold.jsonl"),
            "--output", str(out),
        ]
    )
    assert rc == 0 and len(loaded) == 1
    assert json.loads(out.read_text())["micro"]["f1"] == 1.0


def test_damaged_checkpoint_is_data_error(synth_dir, tmp_path, capsys, monkeypatch):
    """Damaged checkpoints and every other malformed input file exit 2
    with a one-line error naming the fault, before any training step."""
    corpus = str(synth_dir / "corpus.jsonl")
    segment = ["segment", "--corpus", corpus, "--method", "rules"]
    summarize = ["summarize", "--corpus", corpus, "--method", "fullstop"]
    run = ["run-experiment", "--out", str(tmp_path / "exp"), "--config"]
    train = ["train-summarizer", "--corpus", corpus, "--kind", "SENTENCE",
             "--out", str(tmp_path / "sum.ckpt"), "--labels"]
    segmenter = PointerSegmenter(SegmenterConfig(bucket_count=16))
    summarizer = Summarizer(SummarizerConfig(bucket_count=16), UnitKind.SENTENCE)
    bad_index = "{path}:1: sentence_index and unit_index must be integers"
    labels_path = tmp_path / "sentence_labels.jsonl"
    assert main(["make-oracle", "--corpus", corpus, "--kind", "SENTENCE",
                 "--output", str(labels_path)]) == 0
    labels = labels_path.read_text()
    segment_labels = tmp_path / "segment_labels.jsonl"
    assert main(["make-oracle", "--corpus", corpus, "--kind", "SEGMENT",
                 "--output", str(segment_labels)]) == 0
    eval_gold = ["eval-segmenter", "--corpus", corpus, "--method", "rules", "--gold"]
    gold_row = '{{"id": "{}", "sentence_index": {}, "boundaries": []}}'
    budget = "budget must be finite and >= 0, got {}"
    dev = "dev fraction must be in (0, 1), got {}"
    gen = ["gen-synthetic", "--corpus-out", str(tmp_path / "c.jsonl"), "--spec"]
    weights = "segments_per_sentence weights must have a finite, positive sum"
    bad_id = "{path}:1: id must be a string or an integer"
    cases = [
        # (argv ending in the option that takes the file, file content, expected)
        (summarize + ["--model"], b"GRANSUMCKPT\n", "truncated header length"),
        (["segment", "--corpus", corpus, "--method", "pointer", "--checkpoint"],
         _checkpoint_bytes(tmp_path, segmenter, bogus=1),
         "checkpoint hyperparameters rejected: SegmenterConfig"),
        (summarize + ["--model"],
         _checkpoint_bytes(tmp_path, summarizer, unit_kind="WORD"),
         "checkpoint hyperparameters rejected: 'WORD'"),
        # tensors that are not all finite
        (summarize + ["--model"], _nan_checkpoint_bytes(tmp_path, summarizer, "unit_tf.wv"),
         "tensor 'unit_tf.wv' is not all finite"),
        (["segment", "--corpus", corpus, "--method", "pointer", "--checkpoint"],
         _nan_checkpoint_bytes(tmp_path, segmenter, "attn.v"),
         "tensor 'attn.v' is not all finite"),
        # header fields that are missing or of the wrong type
        *[(summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, **{name: None}),
           f"{{path}}: header has no {name!r}") for name in ("kind", "hyper", "seed", "step")],
        (summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, hyper=[1]),
         "{path}: header 'hyper' must be an object, got [1]"),
        (summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, step="x"),
         "{path}: header 'step' must be an integer >= 0, got 'x'"),
        (summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, seed="x"),
         "{path}: header 'seed' must be an integer >= 0, got 'x'"),
        (summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, step=-5),
         "{path}: header 'step' must be an integer >= 0, got -5"),
        (summarize + ["--model"], _checkpoint_header_bytes(tmp_path, summarizer, seed=1.5),
         "{path}: header 'seed' must be an integer >= 0, got 1.5"),
        (segment + ["--hooks"], "[1, 2]", "{path}: expected a JSON object"),
        (segment + ["--hooks"], '{"verb_list": 5}',
         "{path}: 'verb_list' must be frozenset[str], got int"),
        (segment + ["--hooks"], '{"verb_list": [], "bogus": []}', "{path}: unknown key 'bogus'"),
        (segment + ["--hooks"], '{"verb_list": [', "{path}: malformed JSON"),
        (segment + ["--hooks"], b"\xff{}", "{path}: malformed JSON"),
        (segment + ["--patterns"], "[1]", "{path}: expected a JSON object"),
        (segment + ["--patterns"], '{"version": 1, "plan_surfaces": [1]}',
         "{path}: 'plan_surfaces'[0] must be str, got int"),
        (segment + ["--patterns"], '{"version": 1, "max_enum_chunk_tokens": "3"}',
         "{path}: 'max_enum_chunk_tokens' must be int, got str"),
        (segment + ["--patterns"], '{"version": 1, "bogus": 3}', "{path}: unknown key 'bogus'"),
        (segment + ["--patterns"], '{"plan_surfaces": []}', "{path}: missing key 'version'"),
        (segment + ["--patterns"], '{"version": 2}', "unsupported rule pattern file version: 2"),
        (run, '{"bogus": 1}', "unknown key 'bogus'"),
        (run, '{"synthetic": {"bogus": 1}}', "unknown key 'bogus'"),
        (run, '{"segmenter": {"bogus": 1}}', "unknown key 'bogus'"),
        (run, '{"summarizer": {"bogus": 1}}', "unknown key 'bogus'"),
        (run, '{"synthetic": {"case_count": "x"}}', "'case_count' must be int, got str"),
        (run, '{"kinds": 5}', "'kinds' must be tuple[UnitKind, ...], got int"),
        (run, '{"segmenter": {"hidden": "x"}}', "'hidden' must be int, got str"),
        (run, '{"kinds": ["WORD"]}', "'kinds'[0] must be one of"),
        (gen, '{"bogus": 1}', "unknown key 'bogus'"),
        # segment-count weights that make no distribution
        (gen, '{"segments_per_sentence": {"5": 0}}', weights),
        (gen, '{"segments_per_sentence": {"5": Infinity}}', weights),
        (gen, '{"segments_per_sentence": {"5": NaN}}', "weights >= 0"),
        (gen, '{"segments_per_sentence": {"x": 1}}', "key 'x' must be int"),
        # probabilities outside [0, 1]
        (gen, '{"drop_fullstop_prob": 2.0}', "drop_fullstop_prob must be in [0, 1]"),
        (gen, '{"marker_prob": -1.0}', "marker_prob must be in [0, 1]"),
        (gen, '{"inject_newline_prob": NaN}', "inject_newline_prob must be in [0, 1]"),
        (train, _label_line(sentence_index="0"), bad_index),
        (train, _label_line(unit_index=0.5), bad_index),
        (train, _label_line(case_id=3), "{path}:1: case_id"),
        (train, _label_line(gold="x"), "{path}:1: gold"),
        # a second line for one key
        (train, _label_line() + _label_line(gold=False),
         "{path}:2: duplicate label for case 'case-00000' unit (0, 0)"),
        (["segment", "--corpus", corpus, "--method", "gold", "--gold"],
         '{"id": "case-00000", "sentence_index": 0, "boundaries": []}\n' * 2,
         "{path}:2: duplicate gold boundaries for case 'case-00000' sentence 0"),
        (["eval-rouge", "--corpus", corpus, "--candidates"],
         '{"case_id": "case-00000", "summary_text": "x"}\n' * 2,
         "{path}:2: duplicate candidate for case 'case-00000'"),
        # gold rows that match no sentence of the corpus, and labels of
        # another unit kind
        (eval_gold, gold_row.format("nope", 0), "gold boundaries of case nope: no such case"),
        (eval_gold, gold_row.format("case-00000", 99),
         "gold boundaries of case case-00000 sentence 99: the record has 4 sentences"),
        (eval_gold, gold_row.format("case-00000", -1),
         "gold boundaries of case case-00000 sentence -1: the record has 4 sentences"),
        (["train-segmenter", "--corpus", corpus, "--out", str(tmp_path / "seg.ckpt"), "--gold"],
         gold_row.format("nope", 0), "gold boundaries of case nope: no such case"),
        (train, segment_labels.read_text(), "{path}:1: label of kind 'SEGMENT', expected 'SENTENCE'"),
        # ids that are neither strings nor integers
        (["segment", "--method", "fullstop", "--corpus"],
         '{"id": null, "records": ["a ."], "summary": "b"}', bad_id),
        (["segment", "--method", "fullstop", "--corpus"],
         '{"id": [1], "records": ["a ."], "summary": "b"}', bad_id),
        (["segment", "--corpus", corpus, "--method", "gold", "--gold"],
         '{"id": null, "sentence_index": 0, "boundaries": []}', bad_id),
        (["segment", "--corpus", corpus, "--method", "gold", "--gold"],
         '{"id": [1], "sentence_index": 0, "boundaries": []}', bad_id),
        # out-of-range hyperparameters, refused before any training
        (["train-segmenter", "--corpus", corpus, "--epochs", "0",
          "--out", str(tmp_path / "seg.ckpt"), "--gold"], "", "'epochs' must be >= 1"),
        (train[:-1] + ["--epochs", "0", "--labels"], _label_line(), "'epochs' must be >= 1"),
        (run, '{"segmenter": {"hidden": 0}}', "'hidden' must be >= 1"),
        (run, '{"segmenter": {"batch_sentences": 0}}', "'batch_sentences' must be >= 1"),
        (run, '{"segmenter": {"n_max": 1}}', "require 1 <= n_min <= n_max"),
        (run, '{"summarizer": {"n_max": 1}}', "require 1 <= n_min <= n_max"),
        (run, '{"summarizer": {"epochs": 0}}', "'epochs' must be >= 1"),
        (run, '{"summarizer": {"max_window": 2}}', "'max_window' must be >= 3"),
        (run, '{"summarizer": {"lr": Infinity}}', "'lr' must be finite and > 0"),
        (run, '{"segmenter": {"lr": 0}}', "'lr' must be finite and > 0"),
        (run, '{"summarizer": {"pe_scale": Infinity}}', "'pe_scale' must be finite, got inf"),
        (run, '{"summarizer": {"unit_pe_scale": NaN}}', "'unit_pe_scale' must be finite, got nan"),
        (run, '{"kinds": []}', "'kinds' must name at least one unit kind"),
        (run, '{"kinds": ["CLAUSE", "CLAUSE"]}', "'kinds' must not name a unit kind twice"),
        # budgets that are not finite and >= 0, refused before any work
        (run, '{"oracle_budget": NaN}', "oracle_budget must be 'auto' or finite and >= 0"),
        (run, '{"oracle_budget": -5}', "oracle_budget must be 'auto' or finite and >= 0"),
        (summarize + ["--budget", "nan", "--model"], _checkpoint_bytes(tmp_path, summarizer),
         "budget must be finite and >= 0, got nan"),
        (summarize + ["--budget", "inf", "--model"], _checkpoint_bytes(tmp_path, summarizer),
         "budget must be finite and >= 0, got inf"),
        (summarize + ["--budget=-5", "--model"], _checkpoint_bytes(tmp_path, summarizer),
         "budget must be finite and >= 0, got -5.0"),
        (["make-oracle", "--corpus", corpus, "--kind", "SENTENCE", "--budget", "nan",
          "--output", str(tmp_path / "labels.jsonl"), "--hooks"], "{}",
         "budget must be finite and >= 0, got nan"),
        (train[:-1] + ["--budget", "nan", "--labels"], labels, budget.format("nan")),
        (train[:-1] + ["--budget", "inf", "--labels"], labels, budget.format("inf")),
        (train[:-1] + ["--budget=-5", "--labels"], labels, budget.format("-5.0")),
        # dev fractions outside (0, 1), refused by the shared split
        (train[:-1] + ["--dev-fraction", "inf", "--labels"], labels, dev.format("inf")),
        (train[:-1] + ["--dev-fraction=-inf", "--labels"], labels, dev.format("-inf")),
        (train[:-1] + ["--dev-fraction", "1e308", "--labels"], labels, dev.format("1e+308")),
        (train[:-1] + ["--dev-fraction", "0", "--labels"], labels, dev.format("0.0")),
        (train[:-1] + ["--dev-fraction=-3", "--labels"], labels, dev.format("-3.0")),
        # a model too large to allocate is refused before allocating
        (run, '{"synthetic": {"case_count": 10}, "segmenter": {"bucket_count": 1099511627776}}',
         "over the cap"),
        # a directory where a file is read or written
        (segment + ["--hooks"], None, "Is a directory: '{path}'"),
        (["segment", "--method", "fullstop", "--corpus"], None, "Is a directory: '{path}'"),
        (segment + ["--output"], None, "Is a directory: '{path}'"),
    ]
    # the binding nn.fit calls
    steps = []
    monkeypatch.setattr(nn, "train_step", lambda *args: steps.append(args) or train_step(*args))
    file_path = tmp_path / "input"
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv, content, expected in cases:
        # content None: the option names a directory
        path = folder if content is None else file_path
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        label = f"{argv[0]} {argv[-1]} {content!r:.40}"
        assert main(argv + [str(path)]) == 2, label
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, label
        assert expected.format(path=path) in err, label
        assert not steps, label
    # the counter sees the steps of a valid run
    assert main(train + [str(labels_path)]) == 0
    assert steps


def _benchmark_tracer():
    """perfbench/tracer.py's Tracer, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_wraps_live_names(synth_dir, tmp_path):
    """The benchmark's tracer wraps program functions by name and reads
    their arguments and results; a rename or a reshaped argument fails
    here rather than in a benchmark run."""
    ckpt = tmp_path / "sum.ckpt"
    model = Summarizer(SummarizerConfig(bucket_count=16), UnitKind.SEGMENT)
    save_checkpoint(model.to_checkpoint(), str(ckpt))
    config = tmp_path / "config.json"
    tiny = {"epochs": 1, "bucket_count": 64, "embed_dim": 4, "hidden": 4}
    config.write_text(json.dumps({
        "synthetic": None, "segment_method": "pointer",
        "corpus_path": str(synth_dir / "corpus.jsonl"),
        "gold_boundaries_path": str(synth_dir / "gold.jsonl"),
        "hooks_path": str(synth_dir / "hooks.json"),
        "segmenter": tiny, "summarizer": dict(tiny, d_ff=8),
    }))
    common = [
        "--corpus", str(synth_dir / "corpus.jsonl"),
        "--hooks", str(synth_dir / "hooks.json"),
        "--patterns", str(synth_dir / "patterns.json"),
        "--method", "rules",
    ]
    tracer = _benchmark_tracer()
    tracer.install()
    try:
        assert main(["make-oracle", *common, "--kind", "SEGMENT",
                     "--output", str(tmp_path / "labels.jsonl")]) == 0
        assert main(["summarize", *common, "--model", str(ckpt),
                     "--output", str(tmp_path / "summaries.jsonl")]) == 0
        # training runs the GRU kernels, whose argument layout the
        # tracer's hooks read
        assert main(["train-segmenter", *common[:4], "--gold", str(synth_dir / "gold.jsonl"),
                     "--epochs", "1", "--out", str(tmp_path / "seg.ckpt")]) == 0
        # pointer inference: batched decoding with T=1 decoder steps
        assert main(["segment", *common[:6], "--method", "pointer",
                     "--checkpoint", str(tmp_path / "seg.ckpt"),
                     "--output", str(tmp_path / "pointer.jsonl")]) == 0
        assert main(["train-summarizer", *common, "--kind", "SEGMENT", "--epochs", "1",
                     "--labels", str(tmp_path / "labels.jsonl"),
                     "--out", str(tmp_path / "trained.ckpt")]) == 0
        # boundary scores, ROUGE and corpus generation
        assert main(["eval-segmenter", *common, "--gold", str(synth_dir / "gold.jsonl"),
                     "--output", str(tmp_path / "eval.json")]) == 0
        assert main(["eval-rouge", "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--candidates", str(tmp_path / "summaries.jsonl"),
                     "--output", str(tmp_path / "rouge.json")]) == 0
        assert main(["gen-synthetic", "--spec", _write_spec(tmp_path),
                     "--corpus-out", str(tmp_path / "gen.jsonl"),
                     "--gold-out", str(tmp_path / "gen_gold.jsonl")]) == 0
        # the experiment: pointer segments, units of every kind, documents
        assert main(["run-experiment", "--config", str(config),
                     "--out", str(tmp_path / "exp")]) == 0
    finally:
        tracer.remove()
    counts = tracer.work_counts()
    for name in ("oracle.units_scored", "work.units.SEGMENT", "summarizer.summarize.calls",
                 "kernels.gru_forward.steps", "kernels.gru_backward.steps",
                 "segmenter.train.calls", "summarizer.train.calls",
                 "segmenter.predict.calls", "kernels.gru_forward.t1_calls",
                 "analysis.corpus_boundary_prf.calls", "rouge.rouge_l.calls",
                 "pipeline.build_document.calls", "work.units.CLAUSE",
                 "tokenization.tokenize.calls", "rouge.rouge_n.calls",
                 "nn.embed_bag_forward.calls", "nn.embed_bag_backward.calls",
                 "nn.transformer_forward.calls"):
        assert counts[name] > 0, name
    # summarize ran on several documents at once
    assert len((tmp_path / "summaries.jsonl").read_text().splitlines()) >= 3
    assert not hasattr(pipeline.make_oracle_labels, "__wrapped__")
