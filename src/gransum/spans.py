"""Character spans, summarization units and budgeted unit selection.

A TextSpan is a half-open character interval over exactly one sentence's
text.  A Unit is a span tagged with the granularity it was produced at,
carrying its token surfaces and budget length; units of one sentence and
one kind always tile the sentence.  budget_select is the one selection
rule, shared by the oracle labeler and summarizer inference: rank units
by descending score (ties in document order) and take them until the
character budget is crossed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class UnitKind(str, Enum):
    SENTENCE = "SENTENCE"
    SEGMENT = "SEGMENT"
    CLAUSE = "CLAUSE"


@dataclass(frozen=True)
class TextSpan:
    """Half-open character interval [start, end) into a sentence."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def slice(self, text: str) -> str:
        return text[self.start:self.end]


def budget_length(text: str) -> int:
    """Length of text in characters, whitespace excluded.

    This is the length used by every character-budget rule, so that join
    separators and incidental spacing never count against the budget.
    """
    return sum(map(len, text.split()))


@dataclass(frozen=True)
class Unit:
    """One summarization unit of a sentence.

    token_start/token_end give the half-open token-index interval the unit
    covers and tokens the surfaces in it; span gives the character
    interval and char_length the budget_length of its text.  Character
    spans of the units of one sentence tile it exactly: the first unit
    starts at 0, each later unit starts where the previous one ends, and
    the last unit ends at the sentence length.
    """

    sentence_index: int
    unit_index: int
    kind: UnitKind
    span: TextSpan
    token_start: int
    token_end: int
    tokens: tuple[str, ...]
    char_length: int

    def text(self, sentence_text: str) -> str:
        return self.span.slice(sentence_text)


DEFAULT_BUDGET_CHARS = 1200


def check_budget(budget_chars: float) -> None:
    """A character budget that is not finite and >= 0 is a ValueError."""
    if not 0 <= budget_chars < math.inf:
        raise ValueError(f"budget must be finite and >= 0, got {budget_chars}")


def budget_select(
    scores, units: list[Unit], budget_chars: float, mode: str = "keep"
) -> list[int]:
    """Indices (ascending) of the units selected under the character budget.

    Units rank by descending score, ties by (sentence_index, unit_index),
    and are taken in rank order while summing char_length.  keep: the unit
    that first makes the running total exceed the budget is still
    selected, then selection stops.  drop: that unit is skipped and
    selection stops.  The budget must pass check_budget.
    """
    if mode not in ("keep", "drop"):
        raise ValueError(f"unknown budget mode {mode!r}")
    check_budget(budget_chars)
    order = sorted(
        range(len(units)),
        key=lambda i: (-scores[i], units[i].sentence_index, units[i].unit_index),
    )
    selected: list[int] = []
    total = 0
    for i in order:
        length = units[i].char_length
        if mode == "drop" and total + length > budget_chars:
            break
        selected.append(i)
        total += length
        if total > budget_chars:
            break
    return sorted(selected)

