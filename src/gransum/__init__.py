"""Granularity-aware extractive summarization toolkit.

Splits documents into sentences, clinical-style segments, and clauses;
builds greedy ROUGE-2 pseudo-labels; trains a pointer-network segmenter
and a unit-level extractive summarizer; and measures which granularity
wins under ROUGE on synthetic desk-scale corpora.
"""

from .analysis import (
    GranularityStats,
    RelationType,
    classify_relation,
    corpus_boundary_prf,
    granularity_stats,
    relation_census,
)
from .corpus import (
    Case,
    Corpus,
    CorpusError,
    GoldTable,
    SyntheticSpec,
    generate_synthetic,
    load_corpus,
    load_gold_boundaries,
    save_corpus,
    save_gold_boundaries,
)
from .oracle import LabeledUnit, make_oracle_labels
from .pipeline import PipelineConfig, run_experiment
from .rouge import PRF, rouge_l, rouge_n, union_lcs
from .segmenter import (
    PointerSegmenter,
    SegmenterConfig,
    SentenceExample,
    segmenter_train,
)
from .spans import TextSpan, Unit, UnitKind
from .splitters import (
    BoundarySet,
    RuleConfig,
    RulePatterns,
    Sentence,
    split_clauses,
    split_clinical_rules,
    split_fullstop,
    split_fullstop_verb,
    split_sentences,
    units_from_boundaries,
)
from .summarizer import (
    DocumentExample,
    Summarizer,
    SummarizerConfig,
    SummaryResult,
    summarize,
    summarizer_train,
)
from .tokenization import LexiconHooks, SubwordHasher, Tag, Token, tokenize

__version__ = "0.1.0"

__all__ = [
    "BoundarySet",
    "Case",
    "Corpus",
    "CorpusError",
    "DocumentExample",
    "GoldTable",
    "GranularityStats",
    "LabeledUnit",
    "LexiconHooks",
    "PRF",
    "PipelineConfig",
    "PointerSegmenter",
    "RelationType",
    "RuleConfig",
    "RulePatterns",
    "SegmenterConfig",
    "Sentence",
    "SentenceExample",
    "SubwordHasher",
    "Summarizer",
    "SummarizerConfig",
    "SummaryResult",
    "SyntheticSpec",
    "Tag",
    "TextSpan",
    "Token",
    "Unit",
    "UnitKind",
    "classify_relation",
    "corpus_boundary_prf",
    "generate_synthetic",
    "granularity_stats",
    "load_corpus",
    "load_gold_boundaries",
    "make_oracle_labels",
    "relation_census",
    "rouge_l",
    "rouge_n",
    "run_experiment",
    "save_corpus",
    "save_gold_boundaries",
    "segmenter_train",
    "split_clauses",
    "split_clinical_rules",
    "split_fullstop",
    "split_fullstop_verb",
    "split_sentences",
    "summarize",
    "summarizer_train",
    "tokenize",
    "union_lcs",
    "units_from_boundaries",
]
