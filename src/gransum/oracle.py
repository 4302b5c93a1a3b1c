"""Pseudo-label construction by greedy bigram-overlap ranking.

Every unit is scored with ROUGE-2 F1 against the reference summary and
spans.budget_select picks units under the character budget: descending
score, ties in document order, and the unit that first pushes the
running total past the budget is still selected before selection stops
(the stricter drop-and-stop variant is available for sensitivity
analysis).  Selected units become the positive training labels.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .corpus import CorpusError, read_jsonl
from .rouge import clipped_prf, ngram_counts
from .spans import Unit, UnitKind, budget_select
from .summarizer import DocumentExample

DEFAULT_BUDGET_CHARS = 1200


@dataclass(frozen=True)
class LabeledUnit:
    unit: Unit
    score: float
    gold: bool


def make_oracle_labels(
    units: list[Unit],
    reference_tokens: list[str],
    budget_chars: float = DEFAULT_BUDGET_CHARS,
    mode: str = "keep",
) -> list[LabeledUnit]:
    """Score and budget-select the units of one case.

    Returns one LabeledUnit per input unit, in input (document) order.
    Units shorter than two tokens carry no bigrams and score 0.
    """
    reference = ngram_counts(reference_tokens, 2)
    total = sum(reference.values())
    scores = [clipped_prf(ngram_counts(u.tokens, 2), reference, total).f1 for u in units]
    chosen = set(budget_select(scores, units, budget_chars, mode))
    return [
        LabeledUnit(u, score, i in chosen)
        for i, (u, score) in enumerate(zip(units, scores))
    ]


def dump_labels(case_id: str, labels: list[LabeledUnit]) -> list[str]:
    lines = []
    for lab in labels:
        lines.append(
            json.dumps(
                {
                    "case_id": case_id,
                    "sentence_index": lab.unit.sentence_index,
                    "unit_index": lab.unit.unit_index,
                    "kind": lab.unit.kind.value,
                    "score": lab.score,
                    "gold": lab.gold,
                },
                ensure_ascii=False,
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return lines


def load_labels(path: str, kind: UnitKind) -> dict[str, dict[tuple[int, int], bool]]:
    """Gold flags of kind units keyed by case id and (sentence_index,
    unit_index); a line of another kind, or a second line for one key, is
    a CorpusError."""
    table: dict[str, dict[tuple[int, int], bool]] = {}
    for where, obj in read_jsonl(
        path, ("case_id", "sentence_index", "unit_index", "kind", "gold")
    ):
        if not isinstance(obj["case_id"], str):
            raise CorpusError(f"{where}: case_id must be a string")
        key = (obj["sentence_index"], obj["unit_index"])
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in key):
            raise CorpusError(f"{where}: sentence_index and unit_index must be integers")
        if obj["kind"] != kind.value:
            raise CorpusError(f"{where}: label of kind {obj['kind']!r}, expected {kind.value!r}")
        if not isinstance(obj["gold"], bool):
            raise CorpusError(f"{where}: gold must be true or false")
        case_labels = table.setdefault(obj["case_id"], {})
        if key in case_labels:
            raise CorpusError(f"{where}: duplicate label for case {obj['case_id']!r} unit {key}")
        case_labels[key] = obj["gold"]
    return table


def label_documents(
    docs: Iterable[DocumentExample], table: dict[str, dict[tuple[int, int], bool]]
) -> list[DocumentExample]:
    """Each document with the labels of its units from a load_labels
    table; a case or unit the table lacks is a CorpusError."""
    labeled = []
    for doc in docs:
        case_labels = table.get(doc.case_id)
        if case_labels is None:
            raise CorpusError(f"labels file has no entries for case {doc.case_id}")
        labels = []
        for u in doc.units:
            key = (u.sentence_index, u.unit_index)
            if key not in case_labels:
                raise CorpusError(
                    f"case {doc.case_id}: no label for unit {key}; "
                    "labels were built with a different splitter"
                )
            labels.append(int(case_labels[key]))
        labeled.append(replace(doc, labels=tuple(labels)))
    return labeled
