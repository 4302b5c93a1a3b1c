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

from .kernels import lcs_ref_match_mask


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


def _intern_ids(reference: list[str], candidates: list[list[str]]):
    vocab: dict[str, int] = {}
    def ids(seq: list[str]) -> np.ndarray:
        out = np.empty(len(seq), dtype=np.int64)
        for i, tok in enumerate(seq):
            out[i] = vocab.setdefault(tok, len(vocab))
        return out
    return ids(reference), [ids(c) for c in candidates]


def union_lcs(reference: list[str], candidates: list[list[str]]) -> tuple[int, float]:
    """Union of LCS-matched reference positions across candidate sentences.

    Returns (matched token count, matched count / reference length).  Each
    candidate contributes one LCS against the reference (leftmost ties);
    the union is over reference positions, so repeated coverage of the
    same position is counted once.
    """
    if not reference:
        return 0, 0.0
    ref_ids, cand_ids = _intern_ids(reference, candidates)
    union = np.zeros(len(reference), dtype=bool)
    for cid in cand_ids:
        if cid.size == 0:
            continue
        union |= lcs_ref_match_mask(ref_ids, cid)
    count = int(union.sum())
    return count, count / len(reference)


def rouge_l(candidates: list[list[str]], references: list[list[str]]) -> PRF:
    """Union-LCS ROUGE-L over candidate and reference sentence lists."""
    matched = sum(union_lcs(ref, candidates)[0] for ref in references)
    return PRF.from_counts(
        matched, sum(len(c) for c in candidates), sum(len(ref) for ref in references)
    )
