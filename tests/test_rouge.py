from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gransum.rouge import ngram_counts, rouge_l, rouge_n, union_lcs


def brute_force_rouge_n(cand, ref, n):
    """Independent clipped n-gram oracle (plain dict arithmetic)."""
    def grams(seq):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i:i + n])
            out[g] = out.get(g, 0) + 1
        return out

    cg, rg = grams(cand), grams(ref)
    match = sum(min(c, rg.get(g, 0)) for g, c in cg.items())
    recall = Fraction(match, sum(rg.values())) if rg else Fraction(0)
    precision = Fraction(match, sum(cg.values())) if cg else Fraction(0)
    return float(precision), float(recall)


def exhaustive_lcs_len(a, b):
    """LCS length by enumerating every subsequence of the shorter side."""
    if len(a) > len(b):
        a, b = b, a

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(x in it for x in sub)

    best = 0
    for k in range(len(a), 0, -1):
        for idx in combinations(range(len(a)), k):
            if is_subseq([a[i] for i in idx], b):
                return k
    return best


class TestRougeN:
    def test_identity(self):
        s = rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_candidate_shorter_than_n(self):
        s = rouge_n(["a"], ["a", "b"], 2)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_hand_enumerated_bigrams(self):
        # ref bigrams {ab, bc, cd}; cand bigrams {ab, bd}; one match
        s = rouge_n(["a", "b", "d"], ["a", "b", "c", "d"], 2)
        assert s.recall == pytest.approx(1 / 3)
        assert s.precision == pytest.approx(1 / 2)
        assert s.f1 == pytest.approx(2 / 5)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        vocab = ["w%d" % i for i in range(6)]
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            cand = [vocab[i] for i in rng.integers(0, 6, rng.integers(0, 15))]
            ref = [vocab[i] for i in rng.integers(0, 6, rng.integers(0, 15))]
            s = rouge_n(cand, ref, n)
            p, r = brute_force_rouge_n(cand, ref, n)
            assert s.precision == p
            assert s.recall == r

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            cand = [vocab[i] for i in rng.integers(0, 3, rng.integers(1, 10))]
            ref = [vocab[i] for i in rng.integers(0, 3, rng.integers(1, 10))]
            fwd = rouge_n(cand, ref, 2)
            bwd = rouge_n(ref, cand, 2)
            assert fwd.precision == bwd.recall
            assert fwd.recall == bwd.precision

    def test_clipping_of_repeats(self):
        # "a a a" vs "a": only one unigram can match
        s = rouge_n(["a", "a", "a"], ["a"], 1)
        assert s.recall == 1.0
        assert s.precision == pytest.approx(1 / 3)


class TestUnionLcs:
    def test_two_candidate_union_example(self):
        count, ratio = union_lcs(
            ["w1", "w2", "w3", "w4"],
            [["w1", "w2", "w6", "w7"], ["w1", "w8", "w4", "w9"]],
        )
        assert count == 3
        assert ratio == 3 / 4

    def test_empty_candidates(self):
        assert union_lcs(["a", "b"], []) == (0, 0.0)

    def test_identity_candidate(self):
        count, ratio = union_lcs(["a", "b", "c"], [["a", "b", "c"]])
        assert (count, ratio) == (3, 1.0)

    def test_per_sentence_lcs_matches_exhaustive(self):
        alphabet = ["x", "y", "z"]
        seqs = []
        for length in range(1, 4):
            stack = [[]]
            for _ in range(length):
                stack = [s + [c] for s in stack for c in alphabet]
            seqs.extend(stack)
        # all pairs at short lengths
        for a in seqs:
            for b in seqs:
                count, _ = union_lcs(a, [b])
                assert count == exhaustive_lcs_len(a, b)
        # seeded random pairs at lengths 4..8
        rng = np.random.default_rng(99)
        for _ in range(1500):
            la, lb = rng.integers(4, 9), rng.integers(4, 9)
            a = [alphabet[i] for i in rng.integers(0, 3, la)]
            b = [alphabet[i] for i in rng.integers(0, 3, lb)]
            count, _ = union_lcs(a, [b])
            assert count == exhaustive_lcs_len(a, b)

    def test_leftmost_tie_break(self):
        # reference (a, a) vs candidate (a): one position matched
        assert union_lcs(["a", "a"], [["a"]]) == (1, 0.5)

    def test_leftmost_match_shows_in_the_union(self):
        # (a) takes the first a, which (a, b) covers too; the last a would
        # make the union 3
        assert union_lcs(["a", "b", "a"], [["a"], ["a", "b"]]) == (2, 2 / 3)

    def test_empty_inputs(self):
        assert union_lcs([], [["b"]]) == (0, 0.0)
        assert union_lcs(["a"], [[]]) == (0, 0.0)

    def test_mask_count_is_lcs_length(self):
        assert union_lcs(["1", "2", "3", "4"], [["1", "9", "3", "9", "4"]]) == (3, 3 / 4)

    def test_adding_candidate_never_decreases(self):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            ref = [vocab[i] for i in rng.integers(0, 4, 8)]
            cands = [
                [vocab[i] for i in rng.integers(0, 4, rng.integers(1, 8))]
                for _ in range(4)
            ]
            prev = 0
            for k in range(1, 5):
                count, _ = union_lcs(ref, cands[:k])
                assert count >= prev
                prev = count


class TestRougeL:
    def test_identity(self):
        s = rouge_l([["a", "b"]], [["a", "b"]])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        s = rouge_l([["a"]], [["b"]])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_two_candidate_full_scores(self):
        s = rouge_l(
            [["w1", "w2", "w6", "w7"], ["w1", "w8", "w4", "w9"]],
            [["w1", "w2", "w3", "w4"]],
        )
        assert s.recall == 3 / 4
        assert s.precision == 3 / 8
        assert s.f1 == 1 / 2

    def test_union_counts_positions_once(self):
        # both candidates match the same reference positions
        s = rouge_l([["a", "b"], ["a", "b"]], [["a", "b"]])
        assert s.recall == 1.0
        assert s.precision == 1 / 2


def test_ngram_counts():
    assert ngram_counts(["a", "b", "a", "b"], 2) == Counter(
        {("a", "b"): 2, ("b", "a"): 1}
    )
    with pytest.raises(ValueError):
        ngram_counts(["a"], 0)
