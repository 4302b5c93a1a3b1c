"""Boundary detection scores, granularity statistics, relation taxonomy.

Boundary P/R/F1 treats a sentence left correctly unsplit (both boundary
sets empty) as perfect agreement; corpus-level scores micro-average over
boundary instances, with sentence-level macro averages reported next to
them.  The relation census classifies every intersecting
(segment, clause) pair as Equal, Inclusive, Included, or Overlap; pairs
that do not intersect are excluded unless explicitly requested.
"""

from __future__ import annotations

from enum import Enum

from .rouge import PRF
from .spans import budget_length
from .splitters import BoundarySet, token_ranges
from .tokenization import Token


class RelationType(str, Enum):
    EQUAL = "EQUAL"
    INCLUSIVE = "INCLUSIVE"
    INCLUDED = "INCLUDED"
    OVERLAP = "OVERLAP"


def _boundary_counts(predicted: BoundarySet, gold: BoundarySet) -> tuple[int, int, int]:
    """(matched, predicted, gold) boundary counts of one sentence."""
    pset = set(predicted.positions)
    gset = set(gold.positions)
    return len(pset & gset), len(pset), len(gset)


def _boundary_score(match: int, predicted: int, gold: int) -> PRF:
    """PRF.from_counts, except that two empty boundary sets agree fully."""
    if predicted == 0 and gold == 0:
        return PRF(1.0, 1.0, 1.0)
    return PRF.from_counts(match, predicted, gold)


def corpus_boundary_prf(
    pairs: list[tuple[BoundarySet, BoundarySet]]
) -> tuple[PRF, PRF]:
    """(micro, macro) boundary scores over (predicted, gold) pairs."""
    counts = [_boundary_counts(predicted, gold) for predicted, gold in pairs]
    if not counts:
        return PRF(1.0, 1.0, 1.0), PRF(1.0, 1.0, 1.0)
    micro = _boundary_score(*map(sum, zip(*counts)))
    per_sentence = [_boundary_score(*c) for c in counts]
    n = len(per_sentence)
    macro = PRF(
        sum(s.precision for s in per_sentence) / n,
        sum(s.recall for s in per_sentence) / n,
        sum(s.f1 for s in per_sentence) / n,
    )
    return micro, macro


def classify_relation(
    segment: tuple[int, int], clause: tuple[int, int]
) -> RelationType | None:
    """Relation of a segment token interval to a clause token interval.

    Intervals are half-open [start, end); disjoint pairs return None.
    """
    s0, s1 = segment
    c0, c1 = clause
    if s1 <= c0 or c1 <= s0:
        return None
    if s0 == c0 and s1 == c1:
        return RelationType.EQUAL
    if s0 <= c0 and c1 <= s1:
        return RelationType.INCLUSIVE
    if c0 <= s0 and s1 <= c1:
        return RelationType.INCLUDED
    return RelationType.OVERLAP


def relation_census(
    sentences: list[list[Token]],
    segments: list[BoundarySet],
    clauses: list[BoundarySet],
) -> dict:
    """Classify all (segment, clause) pairs of every sentence.

    segments[i] and clauses[i] are the two boundary sets of sentences[i].
    Counts cover intersecting pairs and partition them exactly; disjoint
    pairs are not counted.  Returns the report's "relations" entry: counts
    and percentages keyed by relation name, and total_intersecting.
    """
    counts = {r: 0 for r in RelationType}
    for tokens, seg_set, cl_set in zip(sentences, segments, clauses, strict=True):
        n = len(tokens)
        for seg in token_ranges(seg_set.positions, n):
            for cl in token_ranges(cl_set.positions, n):
                rel = classify_relation(seg, cl)
                if rel is not None:
                    counts[rel] += 1
    total = sum(counts.values())
    return {
        "counts": {r.value: counts[r] for r in RelationType},
        "percentages": {
            r.value: 100.0 * counts[r] / total if total else 0.0 for r in RelationType
        },
        "total_intersecting": total,
    }


def granularity_stats(
    sentences: list[tuple[str, list[Token]]],
    boundaries: list[BoundarySet],
) -> dict:
    """Mean units/sentence, tokens/unit, and characters/unit.

    boundaries[i] splits sentences[i] into units.  Character counts
    exclude whitespace, matching the budget length used everywhere else.
    tokens/unit and chars/unit average over units.  Returns the report's
    "granularity" entry of one kind, with the sentence and unit counts.
    """
    if not sentences:
        raise ValueError("no sentences")
    total_units = 0
    total_tokens = 0
    total_chars = 0
    for (text, tokens), bset in zip(sentences, boundaries, strict=True):
        bset.validate(len(tokens))
        total_units += len(bset.positions) + 1
        total_tokens += len(tokens)
        total_chars += budget_length(text)
    n = len(sentences)
    return {
        "units_per_sentence": total_units / n,
        "tokens_per_unit": total_tokens / total_units,
        "chars_per_unit": total_chars / total_units,
        "sentence_count": n,
        "unit_count": total_units,
    }
