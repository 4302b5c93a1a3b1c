"""Experiment orchestration: split, label, train, summarize, score.

run_experiment drives the full pipeline for each configured unit
granularity and writes one report (JSON plus table-style TSV sections) with
ROUGE-1/2/L per granularity, segmentation quality against planted
boundaries, granularity statistics, and the segment/clause relation
census.  Every stage is seeded from the config, so identical configs
produce byte-identical reports and bit-identical checkpoints.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analysis import (
    GranularityStats,
    RelationCensus,
    RelationType,
    corpus_boundary_prf,
    granularity_stats,
    relation_census,
)
from .corpus import (
    Case,
    CorpusError,
    GeneratedCorpus,
    GoldTable,
    SyntheticSpec,
    config_kwargs,
    generate_synthetic,
    gold_table,
    load_corpus,
    load_gold_boundaries,
    save_corpus,
    save_gold_boundaries,
)
from .nn.checkpoint import save_checkpoint
from .oracle import make_oracle_labels
from .rouge import RougeScore, rouge_l, rouge_n
from .spans import Unit, UnitKind, budget_length
from .splitters import (
    BoundarySet,
    RuleConfig,
    RulePatterns,
    Sentence,
    sentence_as_unit,
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
    example_from_tokens,
    segmenter_train,
)
from .summarizer import (
    DocumentExample,
    SummarizerConfig,
    SummaryResult,
    summarize,
    summarizer_train,
)
from .tokenization import LexiconHooks, Token, tokenize

REPORT_VERSION = 1

SEGMENT_METHODS = ("pointer", "rules", "gold")


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
        if self.segment_method not in SEGMENT_METHODS:
            raise ValueError(f"segment_method must be one of {SEGMENT_METHODS}")
        if self.oracle_mode not in ("keep", "drop"):
            raise ValueError("oracle_mode must be keep or drop")
        if not 0.0 < self.dev_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ValueError("split fractions must be in (0, 1)")
        if self.dev_fraction + self.test_fraction >= 1.0:
            raise ValueError("train split would be empty")
        if isinstance(self.oracle_budget, str) and self.oracle_budget != "auto":
            raise ValueError("oracle_budget must be a number or 'auto'")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        kwargs = config_kwargs(cls, raw, "config")
        if kwargs.get("synthetic") is not None:
            kwargs["synthetic"] = SyntheticSpec.from_dict(kwargs["synthetic"])
        if "kinds" in kwargs:
            kwargs["kinds"] = tuple(UnitKind(k) for k in kwargs["kinds"])
        for name, section in (
            ("segmenter", SegmenterConfig),
            ("summarizer", SummarizerConfig),
        ):
            if name in kwargs:
                what = f"config section {name!r}"
                kwargs[name] = section(**config_kwargs(section, kwargs[name], what))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["kinds"] = [k.value for k in self.kinds]
        return out


@dataclass
class CaseView:
    """A case after sentence splitting and tokenization."""

    case: Case
    sentences: list[Sentence]
    tokens: list[list[Token]]
    reference_sentences: list[list[str]]


def load_lexicons(
    hooks_path: str | None, patterns_path: str | None = None
) -> tuple[LexiconHooks, RulePatterns]:
    """Lexicon hooks and rule patterns from JSON; defaults for a missing path."""
    hooks = LexiconHooks.from_json(hooks_path) if hooks_path else LexiconHooks()
    patterns = RulePatterns.from_json(patterns_path) if patterns_path else RulePatterns()
    return hooks, patterns


def surface_sentences(text: str, hooks: LexiconHooks | None = None) -> list[list[str]]:
    """Token surfaces of each sentence of text."""
    return [[t.surface for t in tokenize(s.text, hooks)] for s in split_sentences(text)]


def build_view(case: Case, hooks: LexiconHooks) -> CaseView:
    sentences = split_sentences(case.record_text)
    if not sentences:
        raise CorpusError(f"case {case.id}: record text has no sentences")
    tokens = [tokenize(s.text, hooks) for s in sentences]
    return CaseView(case, sentences, tokens, surface_sentences(case.summary_text, hooks))


def build_views(cases: list[Case], hooks: LexiconHooks) -> list[CaseView]:
    return [build_view(c, hooks) for c in cases]


# ----------------------------------------------------------------------
# Boundary provider
# ----------------------------------------------------------------------

class BoundaryProvider:
    """Internal boundaries of one corpus's sentences under one split method.

    Methods: fullstop, fullstop-verb, clauses, rules, pointer (needs a
    trained segmenter) and gold (needs a gold table; sentences it lacks
    stay whole).  many() maps (case_id, sentence_index, tokens) items to
    BoundarySets in one pass, so the pointer segmenter decodes them in
    batches; a call is one item.  Results are memoized per (case_id,
    sentence_index), so a provider serves one corpus.  A gold position
    that is negative or at or beyond the sentence's last token is a
    CorpusError.
    """

    def __init__(
        self,
        method: str,
        hooks: LexiconHooks,
        patterns: RulePatterns | None = None,
        pointer: PointerSegmenter | None = None,
        gold: GoldTable | None = None,
    ):
        # every method but pointer maps one item at a time with split
        split_many = lambda items: [split(*item) for item in items]
        if method == "pointer":
            if pointer is None:
                raise ValueError("pointer method needs a trained segmenter")
            split_many = lambda items: [
                BoundarySet(si, positions)
                for (_, si, _), positions in zip(items, pointer.predict([t for _, _, t in items]))
            ]
        elif method == "fullstop":
            split = lambda cid, si, toks: split_fullstop(toks, si)
        elif method == "fullstop-verb":
            split = lambda cid, si, toks: split_fullstop_verb(toks, hooks, si)
        elif method == "clauses":
            split = lambda cid, si, toks: split_clauses(toks, hooks, si)
        elif method == "rules":
            config = RuleConfig(hooks=hooks, patterns=patterns or RulePatterns())
            split = lambda cid, si, toks: split_clinical_rules(toks, config, si)
        elif method == "gold":
            if gold is None:
                raise CorpusError("gold method needs gold boundaries")
            split = lambda cid, si, toks: _gold_set(gold, cid, si, toks)
        else:
            raise ValueError(f"unknown split method {method!r}")
        self._split_many = split_many
        self._memo: dict[tuple[str, int], BoundarySet] = {}

    def many(self, items: list[tuple[str, int, list[Token]]]) -> list[BoundarySet]:
        todo = [item for item in items if item[:2] not in self._memo]
        if todo:
            for item, bset in zip(todo, self._split_many(todo)):
                self._memo[item[:2]] = bset
        return [self._memo[item[:2]] for item in items]

    def __call__(
        self, case_id: str, sentence_index: int, tokens: list[Token]
    ) -> BoundarySet:
        return self.many([(case_id, sentence_index, tokens)])[0]


def _gold_set(
    gold: GoldTable, case_id: str, si: int, tokens: list[Token]
) -> BoundarySet:
    try:
        bset = BoundarySet(si, gold.get(case_id, {}).get(si, ()))
        bset.validate(len(tokens))
    except ValueError as exc:
        raise CorpusError(
            f"gold boundaries of case {case_id} sentence {si}: {exc}"
        ) from exc
    return bset


def sentence_boundaries(
    views: list[CaseView], boundaries: BoundaryProvider | None
) -> list[BoundarySet]:
    """Every sentence's boundary set in corpus order, fetched in one pass;
    None keeps sentences whole."""
    items = [
        (view.case.id, si, tokens)
        for view in views
        for si, tokens in enumerate(view.tokens)
    ]
    if boundaries is None:
        return [BoundarySet(si, ()) for _, si, _ in items]
    return boundaries.many(items)


def segmenter_examples(
    views: list[CaseView], gold: BoundaryProvider
) -> list[SentenceExample]:
    """One pointer-segmenter training example per sentence."""
    return [
        example_from_tokens(tokens, gold(view.case.id, si, tokens))
        for view in views
        for si, tokens in enumerate(view.tokens)
    ]


def view_stats(
    views: list[CaseView], boundaries: BoundaryProvider | None
) -> GranularityStats:
    rows = [
        (sentence.text, tokens)
        for view in views
        for sentence, tokens in zip(view.sentences, view.tokens)
    ]
    return granularity_stats(rows, sentence_boundaries(views, boundaries))


def view_census(
    views: list[CaseView], segments: BoundaryProvider, clauses: BoundaryProvider
) -> RelationCensus:
    return relation_census(
        [tokens for view in views for tokens in view.tokens],
        sentence_boundaries(views, segments),
        sentence_boundaries(views, clauses),
    )


def boundary_scores(
    views: list[CaseView], predicted: BoundaryProvider, gold: BoundaryProvider
) -> dict[str, dict[str, float]]:
    """Micro and macro boundary P/R/F1 of predicted against gold."""
    pairs = zip(sentence_boundaries(views, predicted), sentence_boundaries(views, gold))
    micro, macro = corpus_boundary_prf(list(pairs))
    return {"micro": asdict(micro), "macro": asdict(macro)}


def units_for_view(
    view: CaseView,
    kind: UnitKind,
    boundaries: BoundaryProvider | None,
) -> tuple[list[Unit], list[str]]:
    """Materialize units plus their texts for one case.

    boundaries cuts sentences into kind units; SENTENCE units ignore it.
    """
    units: list[Unit] = []
    unit_texts: list[str] = []
    for si, (sentence, tokens) in enumerate(zip(view.sentences, view.tokens)):
        if kind is UnitKind.SENTENCE:
            sent_units = [sentence_as_unit(sentence.text, tokens, si)]
        else:
            bset = boundaries(view.case.id, si, tokens)
            sent_units = units_from_boundaries(sentence.text, tokens, bset, kind)
        units.extend(sent_units)
        unit_texts.extend(u.text(sentence.text) for u in sent_units)
    return units, unit_texts


def build_document(
    view: CaseView,
    kind: UnitKind,
    boundaries: BoundaryProvider | None,
    budget_chars: float,
    oracle_mode: str = "keep",
    with_labels: bool = True,
) -> DocumentExample:
    units, unit_texts = units_for_view(view, kind, boundaries)
    doc = DocumentExample(
        case_id=view.case.id,
        kind=kind,
        sentences=tuple(tuple(t.surface for t in toks) for toks in view.tokens),
        units=tuple(units),
        unit_texts=tuple(unit_texts),
        reference_sentences=tuple(tuple(s) for s in view.reference_sentences),
    )
    if with_labels:
        labeled = make_oracle_labels(
            units, doc.reference_tokens, budget_chars, oracle_mode
        )
        doc = replace(doc, labels=tuple(int(lu.gold) for lu in labeled))
    return doc


def build_documents(
    views: list[CaseView],
    kind: UnitKind,
    boundaries: BoundaryProvider | None,
    budget_chars: float,
    oracle_mode: str = "keep",
    labeled=(),
):
    """Yields build_document of each view, one at a time; the views whose
    index is in labeled get oracle labels.  Every sentence's boundaries are
    fetched first in one pass, so the pointer segmenter decodes them in
    batches."""
    sentence_boundaries(views, boundaries)
    for i, view in enumerate(views):
        yield build_document(view, kind, boundaries, budget_chars, oracle_mode, i in labeled)


# ----------------------------------------------------------------------
# Evaluation helpers
# ----------------------------------------------------------------------

def rouge_eval(
    candidate_sentences: list[list[str]], reference_sentences: list[list[str]]
) -> dict[str, RougeScore]:
    cand_flat = [t for sent in candidate_sentences for t in sent]
    ref_flat = [t for sent in reference_sentences for t in sent]
    return {
        "rouge1": rouge_n(cand_flat, ref_flat, 1),
        "rouge2": rouge_n(cand_flat, ref_flat, 2),
        "rougeL": rouge_l(candidate_sentences, reference_sentences),
    }


def rouge_eval_texts(candidate_text: str, reference_text: str) -> dict[str, RougeScore]:
    return rouge_eval(
        surface_sentences(candidate_text), surface_sentences(reference_text)
    )


def mean_rouge(
    per_case: list[dict[str, RougeScore]], scale: float = 1.0
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
    """Deterministic document-level train/dev/test split."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
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

def _resolve_corpus(config: PipelineConfig, out_dir: str):
    if config.corpus_path is not None:
        cases = load_corpus(config.corpus_path)
        hooks, patterns = load_lexicons(config.hooks_path, config.patterns_path)
        gold = None
        if config.gold_boundaries_path:
            gold = gold_table(load_gold_boundaries(config.gold_boundaries_path))
        return cases, hooks, patterns, gold

    generated: GeneratedCorpus = generate_synthetic(config.synthetic)
    save_corpus(generated.cases, os.path.join(out_dir, "corpus.jsonl"))
    save_gold_boundaries(
        generated.gold_boundaries, os.path.join(out_dir, "gold_boundaries.jsonl")
    )
    generated.hooks.to_json(os.path.join(out_dir, "hooks.json"))
    generated.patterns.to_json(os.path.join(out_dir, "patterns.json"))
    return generated.cases, generated.hooks, generated.patterns, generated.gold_by_case()


def run_experiment(config: PipelineConfig, out_dir: str) -> dict:
    """Execute the full pipeline per unit kind and write the report."""
    os.makedirs(out_dir, exist_ok=True)
    cases, hooks, patterns, gold = _resolve_corpus(config, out_dir)
    views = build_views(cases, hooks)
    train_idx, dev_idx, test_idx = split_indices(
        len(views), config.dev_fraction, config.test_fraction, config.seed
    )

    providers = {
        method: BoundaryProvider(method, hooks, patterns)
        for method in ("fullstop", "fullstop-verb", "clauses", "rules")
    }
    if gold is not None:
        providers["gold"] = BoundaryProvider("gold", hooks, gold=gold)
    if UnitKind.SEGMENT in config.kinds and config.segment_method == "pointer":
        if gold is None:
            raise CorpusError(
                "segment_method 'pointer' needs gold boundaries to train on"
            )
        pointer, _ = segmenter_train(
            segmenter_examples([views[i] for i in train_idx], providers["gold"]),
            config.segmenter,
        )
        save_checkpoint(
            pointer.to_checkpoint(), os.path.join(out_dir, "segmenter.ckpt")
        )
        providers["pointer"] = BoundaryProvider("pointer", hooks, pointer=pointer)
        # one batched pass over every sentence; the memo serves the rest
        sentence_boundaries(views, providers["pointer"])
    segmentation_report = {}
    if gold:
        test_views = [views[i] for i in test_idx]
        segmentation_report = {
            method: boundary_scores(test_views, provider, providers["gold"])
            for method, provider in providers.items()
            if method != "gold"
        }

    if config.oracle_budget == "auto":
        budget = float(
            np.mean([budget_length(views[i].case.summary_text) for i in train_idx])
        )
    else:
        budget = float(config.oracle_budget)

    segments = None
    if UnitKind.SEGMENT in config.kinds:
        if config.segment_method == "gold" and gold is None:
            raise CorpusError("segment_method 'gold' needs side-channel boundaries")
        segments = providers[config.segment_method]
    unit_boundaries = {
        UnitKind.SENTENCE: None,
        UnitKind.SEGMENT: segments,
        UnitKind.CLAUSE: providers["clauses"],
    }

    kind_reports = {}
    per_kind_stats = {}
    for kind in config.kinds:
        # only the training documents need oracle labels
        docs = list(build_documents(
            views, kind, unit_boundaries[kind], budget, config.oracle_mode, set(train_idx)
        ))
        model, history = summarizer_train(
            [docs[i] for i in train_idx],
            [docs[i] for i in dev_idx],
            kind,
            replace(config.summarizer, seed=config.summarizer.seed + _kind_offset(kind)),
            budget_chars=budget,
        )
        save_checkpoint(
            model.to_checkpoint(),
            os.path.join(out_dir, f"summarizer_{kind.value.lower()}.ckpt"),
        )
        per_case = []
        summaries = []
        test_docs = [docs[i] for i in test_idx]
        for doc, result in zip(test_docs, summarize(test_docs, model, budget_chars=budget)):
            cand_sentences = [list(u.tokens) for u in result.units]
            per_case.append(rouge_eval(cand_sentences, list(doc.reference_sentences)))
            summaries.append(summary_json(result))
        with open(
            os.path.join(out_dir, f"summaries_{kind.value.lower()}.jsonl"),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write("".join(line + "\n" for line in summaries))
        kind_reports[kind.value] = {
            "rouge": mean_rouge(per_case, scale=100.0),
            "dev_rouge1_trajectory": [100.0 * s for s in history.dev_rouge1],
            "best_epoch": history.best_epoch,
            "test_cases": len(test_idx),
        }
        per_kind_stats[kind.value] = asdict(view_stats(views, unit_boundaries[kind]))

    relations = {}
    if segments is not None and UnitKind.CLAUSE in config.kinds:
        relations = census_dict(view_census(views, segments, providers["clauses"]))

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


def _kind_offset(kind: UnitKind) -> int:
    return {"SENTENCE": 101, "SEGMENT": 211, "CLAUSE": 307}[kind.value]


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


def census_dict(census: RelationCensus) -> dict:
    pct = census.percentages()
    return {
        "counts": {r.value: census.counts[r] for r in RelationType},
        "percentages": {r.value: pct[r] for r in RelationType},
        "total_intersecting": census.total,
    }


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
        if kind not in report["summarization"]:
            continue
        r = report["summarization"][kind]["rouge"]
        lines.append(
            f"{kind.capitalize()}\t{r['rouge1']['f1']:.2f}"
            f"\t{r['rouge2']['f1']:.2f}\t{r['rougeL']['f1']:.2f}"
        )
    lines.append("")
    lines.append(STATS_HEADER)
    for kind in report["config"]["kinds"]:
        if kind in report["granularity"]:
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
    with open(os.path.join(out_dir, "report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
