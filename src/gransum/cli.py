"""Command line interface.

Every command reads and writes files (nothing interactive) and exits with
0 on success, 1 on usage errors, 2 on data errors, 3 on numeric errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .corpus import Corpus, CorpusError, SyntheticSpec, generate_synthetic, read_jsonl
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.core import TrainingError
from .oracle import dump_labels, label_documents, load_labels, make_oracle_labels
from .pipeline import (
    STATS_HEADER,
    SPLIT_METHODS,
    PipelineConfig,
    boundary_scores,
    build_documents,
    build_views,
    census_dict,
    census_lines,
    mean_rouge,
    rouge_eval_texts,
    run_experiment,
    segmenter_examples,
    split_indices,
    split_views,
    stats_line,
    summary_json,
    unit_method,
    view_census,
    view_stats,
    write_lines,
)
from .segmenter import (
    PointerSegmenter,
    SegmenterConfig,
    segmenter_train,
)
from .settings import load_settings
from .spans import UnitKind
from .splitters import split_sentences
from .summarizer import (
    Summarizer,
    SummarizerConfig,
    summarize,
    summarizer_train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _boundaries(args, views, corpus: Corpus, kind: UnitKind):
    """Every sentence's boundaries for kind units under unit_method, one
    list per view; --method names the segment splitter, fed by
    --checkpoint or --gold."""
    method = unit_method(kind, args.method)
    pointer = None
    if method == "pointer":
        if not args.checkpoint:
            raise CorpusError("--method pointer requires --checkpoint")
        ckpt = load_checkpoint(args.checkpoint, expect_kind=PointerSegmenter.KIND)
        pointer = PointerSegmenter.from_checkpoint(ckpt)
    return split_views(views, method, corpus, pointer=pointer)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_gen_synthetic(args) -> int:
    if args.spec:
        spec = load_settings(SyntheticSpec, args.spec)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:
        spec = SyntheticSpec(
            case_count=args.cases,
            copy_rate=args.copy_rate,
            seed=args.seed if args.seed is not None else 1234,
        )
    corpus = generate_synthetic(spec)
    corpus.save(args.corpus_out, args.gold_out, args.hooks_out, args.patterns_out)
    print(f"wrote {len(corpus.cases)} cases to {args.corpus_out}")
    return EXIT_OK


def cmd_split_sentences(args) -> int:
    lines = []
    for case in Corpus.load(args.corpus).cases:
        sentences = split_sentences(case.record_text)
        lines.append(
            json.dumps(
                {
                    "id": case.id,
                    "sentences": [
                        {"text": s.text, "start": s.start, "end": s.end}
                        for s in sentences
                    ],
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    write_lines(args.output, lines)
    return EXIT_OK


def cmd_segment(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    lines = [
        json.dumps(
            {"id": view.case.id, "sentence_index": si, "boundaries": list(bset.positions)},
            ensure_ascii=False,
            sort_keys=True,
        )
        for view, bsets in zip(views, _boundaries(args, views, corpus, UnitKind.SEGMENT))
        for si, bset in enumerate(bsets)
    ]
    write_lines(args.output, lines)
    return EXIT_OK


def cmd_train_segmenter(args) -> int:
    config = SegmenterConfig(
        epochs=args.epochs, seed=args.seed if args.seed is not None else 0
    )
    corpus = Corpus.load(args.corpus, args.gold, args.hooks)
    views = build_views(corpus.cases, corpus.hooks)
    gold = split_views(views, "gold", corpus)
    model, history = segmenter_train(segmenter_examples(views, gold), config)
    save_checkpoint(model.to_checkpoint(), args.out)
    print(
        f"trained segmenter: {len(history.epoch_losses)} epochs, "
        f"final loss {history.epoch_losses[-1]:.4f}, saved to {args.out}"
    )
    return EXIT_OK


def cmd_eval_segmenter(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    gold = split_views(views, "gold", corpus)
    predicted = (
        gold if args.method == "gold" else _boundaries(args, views, corpus, UnitKind.SEGMENT)
    )
    scores = boundary_scores(predicted, gold)
    write_lines(args.output, [json.dumps(scores, sort_keys=True, indent=2)])
    return EXIT_OK


def cmd_make_oracle(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    kind = UnitKind(args.kind)
    lines = []
    for doc in build_documents(views, kind, _boundaries(args, views, corpus, kind)):
        labels = make_oracle_labels(
            list(doc.units), doc.reference_tokens, args.budget, args.mode
        )
        lines.extend(dump_labels(doc.case_id, labels))
    write_lines(args.output, lines)
    return EXIT_OK


def cmd_train_summarizer(args) -> int:
    seed = args.seed if args.seed is not None else 0
    config = SummarizerConfig(epochs=args.epochs, seed=seed)
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    kind = UnitKind(args.kind)
    label_table = load_labels(args.labels, kind)
    labeled_docs = label_documents(
        build_documents(views, kind, _boundaries(args, views, corpus, kind)), label_table
    )
    train_i, dev_i, _ = split_indices(len(labeled_docs), args.dev_fraction, 0.0, seed)
    model, history = summarizer_train(
        [labeled_docs[i] for i in train_i],
        [labeled_docs[i] for i in dev_i],
        kind,
        config,
        budget_chars=args.budget,
    )
    save_checkpoint(model.to_checkpoint(), args.out)
    print(
        f"trained summarizer[{kind.value}]: best epoch {history.best_epoch}, "
        f"dev ROUGE-1 {history.dev_scores[history.best_epoch] * 100:.2f}, "
        f"saved to {args.out}"
    )
    return EXIT_OK


def cmd_summarize(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    ckpt = load_checkpoint(args.model, expect_kind=Summarizer.KIND)
    model = Summarizer.from_checkpoint(ckpt)
    kind = model.unit_kind
    docs = list(build_documents(views, kind, _boundaries(args, views, corpus, kind)))
    [results] = summarize([docs], [model], budget_chars=args.budget, mode=args.mode)
    write_lines(args.output, [summary_json(result) for result in results])
    return EXIT_OK


def cmd_eval_rouge(args) -> int:
    cases = {c.id: c for c in Corpus.load(args.corpus).cases}
    rows = []
    per_case = []
    seen = set()
    for where, obj in read_jsonl(args.candidates, ("case_id", "summary_text")):
        if not all(isinstance(obj[key], str) for key in ("case_id", "summary_text")):
            raise CorpusError(f"{where}: case_id and summary_text must be strings")
        case_id = obj["case_id"]
        if case_id in seen:
            raise CorpusError(f"{where}: duplicate candidate for case {case_id!r}")
        seen.add(case_id)
        case = cases.get(case_id)
        if case is None:
            raise CorpusError(f"{where}: candidate for unknown case {case_id!r}")
        scores = rouge_eval_texts(obj["summary_text"], case.summary_text)
        per_case.append(scores)
        row = {key: dataclasses.asdict(score) for key, score in scores.items()}
        rows.append({"case_id": case_id, **row})
    out = {"cases": rows, "means": mean_rouge(per_case)}
    write_lines(args.output, [json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2)])
    return EXIT_OK


def cmd_analyze_relations(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    census = view_census(
        views,
        _boundaries(args, views, corpus, UnitKind.SEGMENT),
        _boundaries(args, views, corpus, UnitKind.CLAUSE),
    )
    write_lines(args.output, census_lines(census_dict(census)))
    return EXIT_OK


def cmd_stats(args) -> int:
    corpus = Corpus.load(args.corpus, args.gold, args.hooks, args.patterns)
    views = build_views(corpus.cases, corpus.hooks)
    kind = UnitKind(args.kind)
    stats = view_stats(views, _boundaries(args, views, corpus, kind))
    line = stats_line(kind.value, dataclasses.asdict(stats))
    write_lines(args.output, [STATS_HEADER, line])
    return EXIT_OK


def cmd_run_experiment(args) -> int:
    config = load_settings(PipelineConfig, args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config, args.out)
    for kind, section in report["summarization"].items():
        r1 = section["rouge"]["rouge1"]["f1"]
        print(f"{kind}: ROUGE-1 F1 {r1:.2f}")
    print(f"report written to {args.out}/report.json")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_split_args(p, gold_required=False):
    p.add_argument("--hooks", help="lexicon hooks JSON")
    p.add_argument("--patterns", help="rule pattern JSON")
    p.add_argument("--method", default="rules", choices=SPLIT_METHODS)
    p.add_argument("--checkpoint", help="segmenter checkpoint (pointer method)")
    p.add_argument(
        "--gold",
        required=gold_required,
        help="gold boundaries JSONL (gold method / evaluation)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gransum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    p.add_argument("--spec", help="SyntheticSpec JSON file")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--copy-rate", type=float, default=0.25)
    p.add_argument("--seed", type=int)
    p.add_argument("--corpus-out", required=True)
    p.add_argument("--gold-out")
    p.add_argument("--hooks-out")
    p.add_argument("--patterns-out")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("split-sentences", help="sentence-split record text")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_split_sentences)

    p = sub.add_parser("segment", help="emit unit boundaries per sentence")
    p.add_argument("--corpus", required=True)
    _add_split_args(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train-segmenter", help="train the pointer segmenter")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--hooks")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_segmenter)

    p = sub.add_parser("eval-segmenter", help="boundary P/R/F1 against gold")
    p.add_argument("--corpus", required=True)
    _add_split_args(p, gold_required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval_segmenter)

    p = sub.add_parser("make-oracle", help="greedy ROUGE-2 pseudo-labels")
    p.add_argument("--corpus", required=True)
    _add_split_args(p)
    p.add_argument("--kind", required=True, choices=[k.value for k in UnitKind])
    p.add_argument("--budget", type=float, default=1200)
    p.add_argument("--mode", default="keep", choices=["keep", "drop"])
    p.add_argument("--output")
    p.set_defaults(func=cmd_make_oracle)

    p = sub.add_parser("train-summarizer", help="train the unit summarizer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    _add_split_args(p)
    p.add_argument("--kind", required=True, choices=[k.value for k in UnitKind])
    p.add_argument("--budget", type=float, default=1200)
    p.add_argument("--dev-fraction", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_summarizer)

    p = sub.add_parser("summarize", help="budgeted extractive inference")
    p.add_argument("--corpus", required=True)
    _add_split_args(p)
    p.add_argument("--model", required=True, help="summarizer checkpoint")
    p.add_argument("--budget", type=float, default=1200)
    p.add_argument("--mode", default="keep", choices=["keep", "drop"])
    p.add_argument("--output")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("eval-rouge", help="ROUGE of candidate summaries")
    p.add_argument("--candidates", required=True, help="JSONL with summary_text")
    p.add_argument("--corpus", required=True, help="reference corpus JSONL")
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval_rouge)

    p = sub.add_parser("analyze-relations", help="segment/clause relation census")
    p.add_argument("--corpus", required=True)
    _add_split_args(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_analyze_relations)

    p = sub.add_parser("stats", help="granularity statistics")
    p.add_argument("--corpus", required=True)
    _add_split_args(p)
    p.add_argument("--kind", required=True, choices=[k.value for k in UnitKind])
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run-experiment", help="full pipeline per unit kind")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
