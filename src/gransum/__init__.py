"""Granularity-aware extractive summarization toolkit.

Splits documents into sentences, clinical-style segments, and clauses;
builds greedy ROUGE-2 pseudo-labels; trains a pointer-network segmenter
and a unit-level extractive summarizer; and measures which granularity
wins under ROUGE on synthetic desk-scale corpora.
"""

__version__ = "0.1.0"
