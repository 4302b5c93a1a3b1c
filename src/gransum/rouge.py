"""ROUGE-N with clipped n-gram matching and union-LCS ROUGE-L.

ROUGE-N counts how many n-grams co-occur between candidate and reference,
clipping each n-gram's match count at its reference (resp. candidate)
multiplicity.  ROUGE-L scores, per reference sentence, the union of the
token positions matched by the longest common subsequence against each
candidate sentence, then normalizes by total reference / candidate tokens.

Token sequences are plain lists of surfaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class PRF:
    """Precision, recall and F1, of ROUGE or of boundary detection."""

    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, match: int, predicted: int, gold: int) -> "PRF":
        """Scores match items of predicted against gold; a zero
        denominator scores 0."""
        p = match / predicted if predicted else 0.0
        r = match / gold if gold else 0.0
        return cls(p, r, 2.0 * p * r / (p + r) if p + r else 0.0)


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Multiset of n-grams as a Counter of token tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def clipped_prf(candidate: Counter, reference: Counter, reference_total: int) -> PRF:
    """Clipped overlap of candidate n-gram counts with reference counts
    that sum to reference_total; reference is only read."""
    ref = reference.get
    match = sum(min(count, ref(gram, 0)) for gram, count in candidate.items())
    return PRF.from_counts(match, sum(candidate.values()), reference_total)


def rouge_n(candidate: list[str], reference: list[str], n: int) -> PRF:
    """Clipped n-gram overlap; zero denominators score 0."""
    ref = ngram_counts(reference, n)
    return clipped_prf(ngram_counts(candidate, n), ref, sum(ref.values()))


def _lcs_matched(candidates: list[list[str]], references: list[list[str]]) -> int:
    """Reference positions matched by union-LCS, summed over references.

    Every token is numbered in one table and each sentence's ids are
    reversed once: the greedy-from-the-end backtrace of
    kernels.lcs_mask_greedy then picks the leftmost matches.  Masks stay
    in reversed order, which leaves their union's count unchanged.
    """
    vocab: dict[str, int] = {}

    def reversed_ids(seq: list[str]) -> np.ndarray:
        return np.array(
            [vocab.setdefault(tok, len(vocab)) for tok in reversed(seq)], dtype=np.int64
        )

    cand_ids = [reversed_ids(c) for c in candidates if c]
    matched = 0
    for ref in references:
        if not ref:
            continue
        ref_ids = reversed_ids(ref)
        union = np.zeros(len(ref), dtype=np.uint8)
        for cid in cand_ids:
            union |= kernels.lcs_mask_greedy(ref_ids, cid)
        matched += int(np.count_nonzero(union))
    return matched


def union_lcs(reference: list[str], candidates: list[list[str]]) -> tuple[int, float]:
    """Union of LCS-matched reference positions across candidate sentences.

    Returns (matched token count, matched count / reference length).  Each
    candidate contributes one LCS against the reference (leftmost ties);
    the union is over reference positions, so repeated coverage of the
    same position is counted once.
    """
    count = _lcs_matched(candidates, [reference])
    return count, count / len(reference) if reference else 0.0


def rouge_l(candidates: list[list[str]], references: list[list[str]]) -> PRF:
    """Union-LCS ROUGE-L over candidate and reference sentence lists."""
    return PRF.from_counts(
        _lcs_matched(candidates, references),
        sum(len(c) for c in candidates),
        sum(len(ref) for ref in references),
    )
