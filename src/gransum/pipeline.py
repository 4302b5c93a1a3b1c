"""Experiment orchestration: split, label, train, summarize, score.

run_experiment drives the full pipeline for each configured unit
granularity and writes one report (JSON plus table-style TSV sections) with
ROUGE-1/2/L per granularity, segmentation quality against planted
boundaries, granularity statistics, and the segment/clause relation
census.  Every stage is seeded from the config, so identical configs
produce byte-identical reports and bit-identical checkpoints at a fixed
BLAS thread count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .analysis import RelationType, corpus_boundary_prf, granularity_stats, relation_census
from .corpus import Case, Corpus, CorpusError, GoldTable, SyntheticSpec, generate_synthetic
from .nn.core import History
from .nn.checkpoint import save_checkpoint
from .oracle import make_oracle_labels
from .rouge import PRF, rouge_l, rouge_n
from .spans import Unit, UnitKind, budget_length
from .splitters import (
    BoundarySet,
    Sentence,
    split_clauses,
    split_clinical_rules,
    split_fullstop,
    split_fullstop_verb,
    split_sentences,
    units_from_boundaries,
)
from .segmenter import (
    PointerSegmenter,
    SegmenterConfig,
    SentenceExample,
    segmenter_train,
)
from .summarizer import (
    DocumentExample,
    SummarizerConfig,
    SummaryResult,
    summarize,
    train_summarizers,
)
from .tokenization import LexiconHooks, Token, tokenize

REPORT_VERSION = 1

SPLIT_METHODS = ("fullstop", "fullstop-verb", "clauses", "rules", "pointer", "gold")
SEGMENT_METHODS = ("pointer", "rules", "gold")


def unit_method(kind: UnitKind, segment_method: str) -> str:
    """The split method that cuts sentences into kind units: whole keeps
    sentences whole, segment_method cuts segments, clauses cuts clauses."""
    return {
        UnitKind.SENTENCE: "whole",
        UnitKind.SEGMENT: segment_method,
        UnitKind.CLAUSE: "clauses",
    }[kind]


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: str | None = None
    gold_boundaries_path: str | None = None
    hooks_path: str | None = None
    patterns_path: str | None = None
    synthetic: SyntheticSpec | None = field(default_factory=SyntheticSpec)
    kinds: tuple[UnitKind, ...] = (
        UnitKind.SENTENCE,
        UnitKind.SEGMENT,
        UnitKind.CLAUSE,
    )
    segment_method: str = "pointer"
    oracle_budget: float | str = "auto"
    oracle_mode: str = "keep"
    dev_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 1234
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    summarizer: SummarizerConfig = field(default_factory=SummarizerConfig)

    def __post_init__(self):
        if self.corpus_path is None and self.synthetic is None:
            raise ValueError("config needs corpus_path or a synthetic spec")
        if not self.kinds:
            raise ValueError("config: 'kinds' must name at least one unit kind")
        if len(set(self.kinds)) != len(self.kinds):
            raise ValueError("config: 'kinds' must not name a unit kind twice")
        if self.segment_method not in SEGMENT_METHODS:
            raise ValueError(f"segment_method must be one of {SEGMENT_METHODS}")
        if self.oracle_mode not in ("keep", "drop"):
            raise ValueError("oracle_mode must be keep or drop")
        if not 0.0 < self.dev_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ValueError("split fractions must be in (0, 1)")
        if self.dev_fraction + self.test_fraction >= 1.0:
            raise ValueError("train split would be empty")
        budget = self.oracle_budget
        if budget != "auto" and (isinstance(budget, str) or not 0 <= budget < math.inf):
            raise ValueError(f"oracle_budget must be 'auto' or finite and >= 0, got {budget!r}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["kinds"] = [k.value for k in self.kinds]
        return out


@dataclass
class CaseView:
    """A case after sentence splitting and tokenization of its record."""

    case: Case
    sentences: list[Sentence]
    tokens: list[list[Token]]

    @cached_property
    def reference_sentences(self) -> list[list[str]]:
        """Token surfaces of each summary sentence, made on first read.
        Lexicon hooks set tags, never surfaces, so none are needed."""
        return surface_sentences(self.case.summary_text)


def surface_sentences(text: str, hooks: LexiconHooks | None = None) -> list[list[str]]:
    """Token surfaces of each sentence of text."""
    return [[t.surface for t in tokenize(s.text, hooks)] for s in split_sentences(text)]


def build_view(case: Case, hooks: LexiconHooks) -> CaseView:
    sentences = split_sentences(case.record_text)
    if not sentences:
        raise CorpusError(f"case {case.id}: record text has no sentences")
    tokens = [tokenize(s.text, hooks) for s in sentences]
    return CaseView(case, sentences, tokens)


def build_views(cases: list[Case], hooks: LexiconHooks) -> list[CaseView]:
    return [build_view(c, hooks) for c in cases]


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------

def split_views(
    views: list[CaseView],
    method: str,
    corpus: Corpus,
    pointer: PointerSegmenter | None = None,
) -> list[list[BoundarySet]]:
    """The boundary set of every sentence under one of SPLIT_METHODS or
    whole (no boundaries), one list per view; the views are of corpus's
    cases, whose hooks, patterns and gold the methods read.

    pointer needs a trained segmenter, which decodes every sentence in one
    predict call.  gold needs the corpus's gold table; sentences it lacks
    stay whole.  A gold row whose case is not among the views or whose
    sentence index is not one of its record's, and a gold position that is
    negative or at or beyond the sentence's last token, is a CorpusError.
    """
    hooks, gold = corpus.hooks, corpus.gold
    if method == "pointer":
        if pointer is None:
            raise ValueError("pointer method needs a trained segmenter")
        flat = iter(pointer.predict(
            [[t.surface for t in tokens] for view in views for tokens in view.tokens]
        ))
        return [[BoundarySet(next(flat)) for _ in view.tokens] for view in views]
    if method == "whole":
        return [[BoundarySet(())] * len(view.tokens) for view in views]
    if method == "fullstop":
        split = lambda view, si, tokens: split_fullstop(tokens)
    elif method == "fullstop-verb":
        split = lambda view, si, tokens: split_fullstop_verb(tokens, hooks)
    elif method == "clauses":
        split = lambda view, si, tokens: split_clauses(tokens, hooks)
    elif method == "rules":
        split = lambda view, si, tokens: split_clinical_rules(tokens, hooks, corpus.patterns)
    elif method == "gold":
        if gold is None:
            raise CorpusError("gold method needs gold boundaries")
        _check_gold_rows(gold, views)
        split = lambda view, si, tokens: _gold_set(gold, view.case.id, si, tokens)
    else:
        raise ValueError(f"unknown split method {method!r}")
    return [[split(view, si, tokens) for si, tokens in enumerate(view.tokens)] for view in views]


def _check_gold_rows(gold: GoldTable, views: list[CaseView]) -> None:
    """Refuses a gold row that matches no sentence of views."""
    sentence_counts = {view.case.id: len(view.tokens) for view in views}
    for case_id, sentences in gold.items():
        if case_id not in sentence_counts:
            raise CorpusError(f"gold boundaries of case {case_id}: no such case in the corpus")
        for si in sentences:
            if not 0 <= si < sentence_counts[case_id]:
                raise CorpusError(
                    f"gold boundaries of case {case_id} sentence {si}: "
                    f"the record has {sentence_counts[case_id]} sentences"
                )


def _gold_set(
    gold: GoldTable, case_id: str, si: int, tokens: list[Token]
) -> BoundarySet:
    try:
        bset = BoundarySet(gold.get(case_id, {}).get(si, ()))
        bset.validate(len(tokens))
    except ValueError as exc:
        raise CorpusError(
            f"gold boundaries of case {case_id} sentence {si}: {exc}"
        ) from exc
    return bset


def segmenter_examples(
    views: list[CaseView], gold: list[list[BoundarySet]]
) -> list[SentenceExample]:
    """One pointer-segmenter training example per sentence."""
    return [
        SentenceExample(tuple(t.surface for t in tokens), bset.positions)
        for view, bsets in zip(views, gold)
        for tokens, bset in zip(view.tokens, bsets)
    ]


def view_stats(views: list[CaseView], bsets: list[list[BoundarySet]]) -> dict:
    """Granularity statistics of the units bsets cut."""
    rows = [
        (sentence.text, tokens)
        for view in views
        for sentence, tokens in zip(view.sentences, view.tokens)
    ]
    return granularity_stats(rows, [b for per_view in bsets for b in per_view])


def view_census(
    views: list[CaseView],
    segments: list[list[BoundarySet]],
    clauses: list[list[BoundarySet]],
) -> dict:
    return relation_census(
        [tokens for view in views for tokens in view.tokens],
        [b for per_view in segments for b in per_view],
        [b for per_view in clauses for b in per_view],
    )


def boundary_scores(
    predicted: list[list[BoundarySet]], gold: list[list[BoundarySet]]
) -> dict[str, dict[str, float]]:
    """Micro and macro boundary P/R/F1 of predicted against gold."""
    pairs = [pair for p, g in zip(predicted, gold) for pair in zip(p, g)]
    micro, macro = corpus_boundary_prf(pairs)
    return {"micro": asdict(micro), "macro": asdict(macro)}


def units_for_view(
    view: CaseView, kind: UnitKind, bsets: list[BoundarySet]
) -> tuple[list[Unit], list[str]]:
    """Materialize units plus their texts for one case; bsets cuts the
    view's sentences into kind units."""
    units: list[Unit] = []
    unit_texts: list[str] = []
    for si, (sentence, tokens, bset) in enumerate(zip(view.sentences, view.tokens, bsets)):
        sent_units = units_from_boundaries(sentence.text, tokens, bset, kind, si)
        units.extend(sent_units)
        unit_texts.extend(u.text(sentence.text) for u in sent_units)
    return units, unit_texts


def build_document(
    view: CaseView, kind: UnitKind, bsets: list[BoundarySet]
) -> DocumentExample:
    """One case as an unlabeled document of kind units (see units_for_view)."""
    units, unit_texts = units_for_view(view, kind, bsets)
    return DocumentExample(
        case_id=view.case.id,
        kind=kind,
        sentences=tuple(tuple(t.surface for t in toks) for toks in view.tokens),
        units=tuple(units),
        unit_texts=tuple(unit_texts),
        reference_sentences=tuple(tuple(s) for s in view.reference_sentences),
    )


def build_documents(
    views: list[CaseView], kind: UnitKind, bsets: list[list[BoundarySet]]
):
    """Yields build_document of each view with its boundary list, one at a
    time, so a caller that streams them holds one document."""
    for view, per_view in zip(views, bsets):
        yield build_document(view, kind, per_view)


def with_oracle_labels(
    doc: DocumentExample, budget_chars: float, mode: str = "keep"
) -> DocumentExample:
    """doc with the greedy ROUGE-2 oracle labels of its units."""
    labeled = make_oracle_labels(list(doc.units), doc.reference_tokens, budget_chars, mode)
    return replace(doc, labels=tuple(int(lu.gold) for lu in labeled))


# ----------------------------------------------------------------------
# Evaluation helpers
# ----------------------------------------------------------------------

def rouge_eval(
    candidate_sentences: list[list[str]], reference_sentences: list[list[str]]
) -> dict[str, PRF]:
    cand_flat = [t for sent in candidate_sentences for t in sent]
    ref_flat = [t for sent in reference_sentences for t in sent]
    return {
        "rouge1": rouge_n(cand_flat, ref_flat, 1),
        "rouge2": rouge_n(cand_flat, ref_flat, 2),
        "rougeL": rouge_l(candidate_sentences, reference_sentences),
    }


def rouge_eval_texts(candidate_text: str, reference_text: str) -> dict[str, PRF]:
    return rouge_eval(
        surface_sentences(candidate_text), surface_sentences(reference_text)
    )


def mean_rouge(
    per_case: list[dict[str, PRF]], scale: float = 1.0
) -> dict[str, dict[str, float]]:
    """Mean precision, recall and F1 of each ROUGE variant, times scale;
    0.0 for no cases."""
    return {
        key: {
            stat: scale * float(np.mean([getattr(s[key], stat) for s in per_case]))
            if per_case
            else 0.0
            for stat in ("precision", "recall", "f1")
        }
        for key in ("rouge1", "rouge2", "rougeL")
    }


def split_indices(n: int, dev_fraction: float, test_fraction: float, seed: int):
    """Deterministic document-level train/dev/test split.

    dev_fraction must be in (0, 1) and test_fraction in [0, 1); a nonzero
    fraction takes at least one document, and train must keep one.
    """
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError(f"dev fraction must be in (0, 1), got {dev_fraction}")
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test fraction must be in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction))) if test_fraction else 0
    n_dev = max(1, int(round(n * dev_fraction)))
    if n_test + n_dev >= n:
        raise ValueError(f"corpus of {n} cases too small for the requested split")
    test = sorted(int(i) for i in order[:n_test])
    dev = sorted(int(i) for i in order[n_test:n_test + n_dev])
    train = sorted(int(i) for i in order[n_test + n_dev:])
    return train, dev, test


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

def _resolve_corpus(config: PipelineConfig, out_dir: str) -> Corpus:
    """The config's corpus files, or its synthetic corpus saved to out_dir."""
    if config.corpus_path is not None:
        return Corpus.load(
            config.corpus_path, config.gold_boundaries_path, config.hooks_path, config.patterns_path
        )
    corpus = generate_synthetic(config.synthetic)
    corpus.save(*(
        os.path.join(out_dir, name)
        for name in ("corpus.jsonl", "gold_boundaries.jsonl", "hooks.json", "patterns.json")
    ))
    return corpus


def run_experiment(config: PipelineConfig, out_dir: str) -> dict:
    """Execute the full pipeline per unit kind and write the report."""
    os.makedirs(out_dir, exist_ok=True)
    corpus = _resolve_corpus(config, out_dir)
    views = build_views(corpus.cases, corpus.hooks)
    train_idx, dev_idx, test_idx = split_indices(
        len(views), config.dev_fraction, config.test_fraction, config.seed
    )

    split = lambda method, vs, **kw: split_views(vs, method, corpus, **kw)
    # every method splits each sentence once: the methods that cut units,
    # and gold, over all views; the ones only scored, over the test views
    bounds = {} if corpus.gold is None else {"gold": split("gold", views)}
    if UnitKind.SEGMENT in config.kinds and config.segment_method == "pointer":
        if corpus.gold is None:
            raise CorpusError(
                "segment_method 'pointer' needs gold boundaries to train on"
            )
        pointer, _ = segmenter_train(
            segmenter_examples(
                [views[i] for i in train_idx], [bounds["gold"][i] for i in train_idx]
            ),
            config.segmenter,
        )
        save_checkpoint(
            pointer.to_checkpoint(), os.path.join(out_dir, "segmenter.ckpt")
        )
        bounds["pointer"] = split("pointer", views, pointer=pointer)
        del pointer  # nothing reads the segmenter after the split
    cuts = {}
    for kind in config.kinds:
        method = unit_method(kind, config.segment_method)
        if method not in bounds:
            bounds[method] = split(method, views)
        cuts[kind] = bounds[method]

    segmentation_report = {}
    if corpus.gold:
        test_views = [views[i] for i in test_idx]
        on_test = lambda m: (
            [bounds[m][i] for i in test_idx] if m in bounds else split(m, test_views)
        )
        test_gold = on_test("gold")
        scored = ["fullstop", "fullstop-verb", "clauses", "rules"]
        if "pointer" in bounds:
            scored.append("pointer")
        segmentation_report = {m: boundary_scores(on_test(m), test_gold) for m in scored}

    if config.oracle_budget == "auto":
        budget = float(
            np.mean([budget_length(views[i].case.summary_text) for i in train_idx])
        )
    else:
        budget = float(config.oracle_budget)

    kind_reports = train_and_summarize(
        config, views, cuts, (train_idx, dev_idx, test_idx), budget, out_dir
    )
    per_kind_stats = {kind.value: view_stats(views, cuts[kind]) for kind in config.kinds}

    relations = {}
    if UnitKind.SEGMENT in cuts and UnitKind.CLAUSE in cuts:
        relations = view_census(views, cuts[UnitKind.SEGMENT], cuts[UnitKind.CLAUSE])

    report = {
        "report_version": REPORT_VERSION,
        "config": config.to_dict(),
        "corpus": {
            "cases": len(views),
            "train": len(train_idx),
            "dev": len(dev_idx),
            "test": len(test_idx),
            "oracle_budget_chars": budget,
        },
        "segmentation": segmentation_report,
        "summarization": kind_reports,
        "granularity": per_kind_stats,
        "relations": relations,
    }
    write_report(report, out_dir)
    return report


def train_and_summarize(
    config: PipelineConfig,
    views: list[CaseView],
    cuts: dict[UnitKind, list[list[BoundarySet]]],
    indices: tuple[list[int], list[int], list[int]],
    budget: float,
    out_dir: str,
) -> dict:
    """The summarizer stage of run_experiment: builds every kind's
    documents from its cuts, trains the kinds' summarizers in lockstep on
    the train cases (oracle-labeled) with the dev cases, saves their
    checkpoints, summarizes the test cases with all of them together and
    writes each kind's summaries.  indices are the train, dev and test
    case indices.  Returns each kind's report entry (see kind_report)."""
    train_idx, dev_idx, test_idx = indices
    kinds = list(config.kinds)
    docs = [list(build_documents(views, kind, cuts[kind])) for kind in kinds]
    # only the training documents need oracle labels
    trained = train_summarizers(
        [[with_oracle_labels(d[i], budget, config.oracle_mode) for i in train_idx] for d in docs],
        [[d[i] for i in dev_idx] for d in docs],
        kinds,
        [summarizer_config(config, kind) for kind in kinds],
        budget_chars=budget,
    )
    for kind, (model, _) in zip(kinds, trained):
        save_checkpoint(
            model.to_checkpoint(),
            os.path.join(out_dir, f"summarizer_{kind.value.lower()}.ckpt"),
        )
    test_docs = [[d[i] for i in test_idx] for d in docs]
    results = summarize(test_docs, [model for model, _ in trained], budget_chars=budget)
    return {
        kind.value: kind_report(out_dir, kind, history, kind_docs, kind_results)
        for kind, (_, history), kind_docs, kind_results in zip(kinds, trained, test_docs, results)
    }


def summarizer_config(config: PipelineConfig, kind: UnitKind) -> SummarizerConfig:
    """The summarizer config of kind: the pipeline's, seeded per kind."""
    offset = {"SENTENCE": 101, "SEGMENT": 211, "CLAUSE": 307}[kind.value]
    return replace(config.summarizer, seed=config.summarizer.seed + offset)


def kind_report(
    out_dir: str,
    kind: UnitKind,
    history: History,
    test_docs: list[DocumentExample],
    results: list[SummaryResult],
) -> dict:
    """Writes kind's test summaries; returns its report entry: the test
    ROUGE in percent, the dev ROUGE-1 trajectory, the best epoch and the
    test case count."""
    per_case = [
        rouge_eval([list(u.tokens) for u in result.units], list(doc.reference_sentences))
        for doc, result in zip(test_docs, results)
    ]
    write_lines(
        os.path.join(out_dir, f"summaries_{kind.value.lower()}.jsonl"),
        [summary_json(result) for result in results],
    )
    return {
        "rouge": mean_rouge(per_case, scale=100.0),
        "dev_rouge1_trajectory": [100.0 * s for s in history.dev_scores],
        "best_epoch": history.best_epoch,
        "test_cases": len(test_docs),
    }


def summary_json(result: SummaryResult) -> str:
    """One line of a summaries JSONL file."""
    return json.dumps(
        {
            "case_id": result.case_id,
            "selected_units": [[u.sentence_index, u.unit_index] for u in result.units],
            "summary_text": result.summary_text,
        },
        ensure_ascii=False,
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

STATS_HEADER = "Units\tUnits/Sentence\tTokens/Unit\tCharacters/Unit"


def stats_line(kind: str, stats: dict) -> str:
    """The granularity-table row of one unit kind."""
    return (
        f"{kind.capitalize()}\t{stats['units_per_sentence']:.2f}"
        f"\t{stats['tokens_per_unit']:.2f}\t{stats['chars_per_unit']:.2f}"
    )


def census_lines(relations: dict) -> list[str]:
    """The relation-census table: header, counts and percentages."""
    c = relations["counts"]
    p = relations["percentages"]
    return [
        "Relation types\t" + "\t".join(r.value.capitalize() for r in RelationType),
        "Number of relationships\t" + "\t".join(str(c[r.value]) for r in RelationType),
        "Percentage\t" + "\t".join(f"{p[r.value]:.1f}%" for r in RelationType),
    ]


def write_report(report: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")

    lines = ["Units\tROUGE-1\tROUGE-2\tROUGE-L"]
    for kind in report["config"]["kinds"]:
        r = report["summarization"][kind]["rouge"]
        lines.append(
            f"{kind.capitalize()}\t{r['rouge1']['f1']:.2f}"
            f"\t{r['rouge2']['f1']:.2f}\t{r['rougeL']['f1']:.2f}"
        )
    lines.append("")
    lines.append(STATS_HEADER)
    for kind in report["config"]["kinds"]:
        lines.append(stats_line(kind, report["granularity"][kind]))
    if report["relations"]:
        lines.append("")
        lines.extend(census_lines(report["relations"]))
    if report["segmentation"]:
        lines.append("")
        lines.append("Method\tPrecision\tRecall\tF1")
        for name in sorted(report["segmentation"]):
            m = report["segmentation"][name]["micro"]
            lines.append(
                f"{name}\t{m['precision']:.3f}\t{m['recall']:.3f}\t{m['f1']:.3f}"
            )
    write_lines(os.path.join(out_dir, "report.tsv"), lines)


def write_lines(path: str | None, lines: list[str]) -> None:
    """Write each line and a newline to path, one at a time; to stdout
    when path is None."""
    if path is None:
        for line in lines:
            print(line)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
