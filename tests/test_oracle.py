import numpy as np
import pytest

from gransum.oracle import make_oracle_labels
from gransum.rouge import rouge_n
from gransum.spans import TextSpan, Unit, UnitKind


def entry(si, ui, tokens, length=None):
    length = length if length is not None else len("".join(tokens))
    return Unit(
        si, ui, UnitKind.SEGMENT, TextSpan(0, max(1, length)), 0, len(tokens),
        tuple(tokens), length,
    )


def reference_selection(entries, reference, budget, mode="keep"):
    """Independent oracle: exhaustive stable re-sort plus prefix scan."""
    scored = []
    for i, e in enumerate(entries):
        scored.append(
            (rouge_n(list(e.tokens), reference, 2).f1, e.sentence_index,
             e.unit_index, i)
        )
    ranked = sorted(scored, key=lambda t: (-t[0], t[1], t[2]))
    chosen = set()
    cum = 0
    for _, _, _, i in ranked:
        length = entries[i].char_length
        if mode == "drop" and cum + length > budget:
            break
        chosen.add(i)
        cum += length
        if cum > budget:
            break
    return chosen


class TestStoppingRule:
    def test_budget_zero_selects_top_unit_only(self):
        entries = [
            entry(0, 0, ["a", "b"], 5),
            entry(0, 1, ["a", "b"], 5),
            entry(1, 0, ["x", "y"], 5),
        ]
        labels = make_oracle_labels(entries, ["a", "b"], budget_chars=0)
        assert [l.gold for l in labels] == [True, False, False]

    def test_equal_scores_budget_25_selects_first_three(self):
        entries = [entry(0, i, ["a", "b"], 10) for i in range(5)]
        labels = make_oracle_labels(entries, ["a", "b"], budget_chars=25)
        assert [l.gold for l in labels] == [True, True, True, False, False]

    def test_exactly_at_budget_continues(self):
        entries = [entry(0, i, ["a", "b"], 10) for i in range(3)]
        labels = make_oracle_labels(entries, ["a", "b"], budget_chars=20)
        # 10 + 10 == 20 does not exceed; the third unit crosses and is kept
        assert [l.gold for l in labels] == [True, True, True]

    def test_drop_mode_excludes_crossing_unit(self):
        entries = [entry(0, i, ["a", "b"], 10) for i in range(3)]
        labels = make_oracle_labels(entries, ["a", "b"], budget_chars=25, mode="drop")
        assert [l.gold for l in labels] == [True, True, False]

    def test_unit_equal_to_summary_ranks_first(self):
        summary = ["w1", "w2", "w3", "w4"]
        entries = [
            entry(0, 0, ["n1", "n2"], 4),
            entry(0, 1, summary, 8),
            entry(1, 0, ["n3", "n4"], 4),
        ]
        labels = make_oracle_labels(entries, summary, budget_chars=0)
        assert [l.gold for l in labels] == [False, True, False]

    def test_short_units_score_zero(self):
        labels = make_oracle_labels(
            [entry(0, 0, ["w1"], 2)], ["w1", "w2"], budget_chars=100
        )
        assert labels[0].score == 0.0


class TestOracleProperties:
    def _random_case(self, rng):
        vocab = ["w%d" % i for i in range(12)]
        reference = [vocab[i] for i in rng.integers(0, 12, rng.integers(4, 20))]
        entries = []
        for si in range(int(rng.integers(1, 6))):
            for ui in range(int(rng.integers(1, 4))):
                toks = [vocab[i] for i in rng.integers(0, 12, rng.integers(1, 7))]
                entries.append(entry(si, ui, toks, int(rng.integers(1, 15))))
        return entries, reference

    def test_matches_reference_implementation_on_200_cases(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            entries, reference = self._random_case(rng)
            budget = float(rng.integers(0, 40))
            for mode in ("keep", "drop"):
                labels = make_oracle_labels(entries, reference, budget, mode)
                expected = reference_selection(entries, reference, budget, mode)
                assert {i for i, l in enumerate(labels) if l.gold} == expected
                assert [l.score for l in labels] == [
                    rouge_n(list(e.tokens), reference, 2).f1 for e in entries
                ]

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            entries, reference = self._random_case(rng)
            prev = set()
            for budget in (0, 5, 12, 30, 100):
                labels = make_oracle_labels(entries, reference, budget)
                cur = {i for i, l in enumerate(labels) if l.gold}
                assert prev <= cur
                prev = cur

    def test_zero_score_units_selected_last(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            entries, reference = self._random_case(rng)
            labels = make_oracle_labels(entries, reference, budget_chars=10 ** 6)
            # huge budget selects everything; check rank order instead
            order = sorted(
                range(len(labels)),
                key=lambda i: (
                    -labels[i].score,
                    labels[i].unit.sentence_index,
                    labels[i].unit.unit_index,
                ),
            )
            seen_zero = False
            for i in order:
                if labels[i].score == 0.0:
                    seen_zero = True
                else:
                    assert not seen_zero

    @pytest.mark.parametrize(
        "reference, units",
        [
            # a reference that repeats its bigrams
            (["a", "b", "a", "b", "a", "b", "c"],
             [["a", "b"], ["b", "a", "b"], ["a", "b", "c", "a"], ["c", "a", "b"]]),
            # units that use a bigram more often than the reference does
            (["a", "b", "c", "d", "a", "b"],
             [["a", "b", "a", "b", "a", "b"], ["c", "d", "c", "d"], ["a", "b", "c", "d"]]),
        ],
    )
    def test_clipped_scores_in_either_unit_order(self, reference, units):
        """Each unit is clipped at the reference's counts, and scoring one
        unit never changes the counts the next unit is scored against."""
        entries = [entry(0, i, toks) for i, toks in enumerate(units)]
        expected = [rouge_n(toks, reference, 2).f1 for toks in units]
        forward = make_oracle_labels(entries, reference, budget_chars=10)
        backward = make_oracle_labels(entries[::-1], reference, budget_chars=10)
        assert [l.score for l in forward] == expected
        assert [l.score for l in backward] == expected[::-1]

    def test_empty_units(self):
        assert make_oracle_labels([], ["a"], 10) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            make_oracle_labels([entry(0, 0, ["a"], 1)], ["a"], -1)
