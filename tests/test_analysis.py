import numpy as np
import pytest

from gransum.analysis import (
    RelationType,
    classify_relation,
    corpus_boundary_prf,
    granularity_stats,
    relation_census,
)
from gransum.splitters import BoundarySet, split_clauses, token_ranges
from gransum.tokenization import LexiconHooks, tokenize


def sentence_prf(predicted: BoundarySet, gold: BoundarySet):
    """One sentence's score: the micro and macro scores of a one-pair
    corpus, which must agree."""
    micro, macro = corpus_boundary_prf([(predicted, gold)])
    assert micro == macro
    return micro


class TestBoundaryPrf:
    def test_half_overlap(self):
        s = sentence_prf(BoundarySet((2, 5)), BoundarySet((2, 7)))
        assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)

    def test_exact_match(self):
        s = sentence_prf(BoundarySet((1, 4)), BoundarySet((1, 4)))
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_predicted_empty_gold_nonempty(self):
        s = sentence_prf(BoundarySet(()), BoundarySet((1,)))
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_both_empty_is_perfect(self):
        s = sentence_prf(BoundarySet(()), BoundarySet(()))
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_matches_confusion_matrix_on_random_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            pred = tuple(sorted(set(rng.integers(0, 12, rng.integers(0, 6)))))
            gold = tuple(sorted(set(rng.integers(0, 12, rng.integers(0, 6)))))
            s = sentence_prf(BoundarySet(pred), BoundarySet(gold))
            tp = len(set(pred) & set(gold))
            fp = len(set(pred) - set(gold))
            fn = len(set(gold) - set(pred))
            if tp + fp + fn == 0:
                assert s.f1 == 1.0
            else:
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                assert s.precision == p and s.recall == r and s.f1 == f

    def test_micro_macro(self):
        pairs = [
            (BoundarySet((1,)), BoundarySet((1,))),
            (BoundarySet(()), BoundarySet((2,))),
        ]
        micro, macro = corpus_boundary_prf(pairs)
        assert micro.precision == 1.0
        assert micro.recall == 0.5
        assert macro.f1 == 0.5


class TestClassifyRelation:
    def test_equal(self):
        assert classify_relation((0, 5), (0, 5)) is RelationType.EQUAL

    def test_inclusive(self):
        assert classify_relation((0, 10), (2, 6)) is RelationType.INCLUSIVE

    def test_overlap(self):
        assert classify_relation((0, 5), (3, 8)) is RelationType.OVERLAP

    def test_included(self):
        assert classify_relation((2, 4), (0, 8)) is RelationType.INCLUDED

    def test_disjoint_none(self):
        assert classify_relation((0, 3), (3, 6)) is None

    def test_antisymmetry(self):
        rng = np.random.default_rng(33)
        swap = {
            RelationType.INCLUSIVE: RelationType.INCLUDED,
            RelationType.INCLUDED: RelationType.INCLUSIVE,
            RelationType.EQUAL: RelationType.EQUAL,
            RelationType.OVERLAP: RelationType.OVERLAP,
        }
        for _ in range(500):
            a0 = int(rng.integers(0, 10)); a1 = a0 + int(rng.integers(1, 6))
            b0 = int(rng.integers(0, 10)); b1 = b0 + int(rng.integers(1, 6))
            fwd = classify_relation((a0, a1), (b0, b1))
            bwd = classify_relation((b0, b1), (a0, a1))
            if fwd is None:
                assert bwd is None
            else:
                assert bwd is swap[fwd]

    def test_shared_edge_containment_is_inclusive(self):
        assert classify_relation((0, 5), (0, 3)) is RelationType.INCLUSIVE


HOOKS = LexiconHooks(verb_list=frozenset({"vrun"}), case_particle_list=frozenset({"wo"}))


class TestRelationCensus:
    def _sentences(self, texts):
        return [tokenize(t, HOOKS) for t in texts]

    def test_identical_splitters_all_equal(self):
        sents = self._sentences(["a, b vrun c", "x y", "p, q"])
        fn = lambda toks: split_clauses(toks, HOOKS)
        census = relation_census(sents, [fn(t) for t in sents], [fn(t) for t in sents])
        assert census["counts"]["EQUAL"] == census["total_intersecting"] > 0
        assert census["counts"]["OVERLAP"] == 0

    def test_refinement_yields_included(self):
        sents = self._sentences(["aa bb vrun cc dd"])
        coarse = [BoundarySet(()) for toks in sents]
        fine = [split_clauses(toks, HOOKS) for toks in sents]
        census = relation_census(sents, coarse, fine)
        # segment = whole sentence strictly contains both clauses
        assert census["counts"]["INCLUSIVE"] == 2
        # swapped: each clause is included in the whole-sentence clause
        census_sw = relation_census(sents, fine, coarse)
        assert census_sw["counts"]["INCLUDED"] == 2

    def test_partition_exact_on_random_corpora(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            tokens = tokenize(" ".join("w%d" % i for i in range(n)))
            seg_pos = tuple(sorted(set(rng.integers(0, max(1, n - 1), rng.integers(0, 4)))))
            cl_pos = tuple(sorted(set(rng.integers(0, max(1, n - 1), rng.integers(0, 4)))))
            seg_pos = tuple(p for p in seg_pos if p < n - 1)
            cl_pos = tuple(p for p in cl_pos if p < n - 1)
            census = relation_census([tokens], [BoundarySet(seg_pos)], [BoundarySet(cl_pos)])
            disjoint = sum(
                classify_relation(seg, cl) is None
                for seg in token_ranges(seg_pos, n)
                for cl in token_ranges(cl_pos, n)
            )
            n_seg = len(seg_pos) + 1
            n_cl = len(cl_pos) + 1
            assert census["total_intersecting"] + disjoint == n_seg * n_cl
            assert sum(census["percentages"].values()) == pytest.approx(100.0)


class TestGranularityStats:
    def test_sentence_kind_is_one(self):
        sents = [("a b", tokenize("a b")), ("c d e", tokenize("c d e"))]
        stats = granularity_stats(sents, [BoundarySet(()) for _ in sents])
        assert stats["units_per_sentence"] == 1.0

    def test_one_boundary_per_sentence(self):
        sents = [("a b c", tokenize("a b c")), ("d e f", tokenize("d e f"))]
        stats = granularity_stats(sents, [BoundarySet((0,)) for _ in sents])
        assert stats["units_per_sentence"] == 2.0

    def test_units_equals_mean_boundaries_plus_one(self):
        rng = np.random.default_rng(35)
        sents = []
        boundary_counts = []
        splits = {}
        for k in range(60):
            n = int(rng.integers(1, 15))
            prefix = chr(97 + k % 26) + chr(97 + k // 26)
            text = " ".join(prefix + chr(97 + i) for i in range(n))
            toks = tokenize(text)
            pos = tuple(sorted(set(rng.integers(0, max(1, n - 1), rng.integers(0, 5)))))
            pos = tuple(p for p in pos if p < n - 1)
            splits[text] = pos
            boundary_counts.append(len(pos))
            sents.append((text, toks))
        stats = granularity_stats(
            sents,
            [BoundarySet(splits[" ".join(t.surface for t in toks)]) for _, toks in sents],
        )
        assert abs(stats["units_per_sentence"] - (np.mean(boundary_counts) + 1)) < 1e-12
