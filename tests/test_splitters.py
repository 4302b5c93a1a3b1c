import numpy as np
import pytest

from gransum.spans import UnitKind
from gransum.splitters import (
    DEFAULT_PATTERNS_VERSION,
    BoundarySet,
    RuleConfig,
    RulePatterns,
    split_clauses,
    split_clinical_rules,
    split_fullstop,
    split_fullstop_verb,
    split_sentences,
    units_from_boundaries,
)
from gransum.tokenization import LexiconHooks, tokenize

from unit_checks import check_tiling

HOOKS = LexiconHooks(
    verb_list=frozenset({"vrun", "vsee"}),
    noun_list=frozenset({"napple", "nchair", "ndep"}),
    non_independent_list=frozenset({"ndep"}),
    verbal_noun_list=frozenset({"fasting", "dosing"}),
    disease_list=frozenset({"pneumonia", "fever"}),
    exam_pattern_list=("ctscan", "lab*"),
    case_particle_list=frozenset({"wo", "de", "ni"}),
)

PATTERNS = RulePatterns(
    version=DEFAULT_PATTERNS_VERSION,
    case_particles=frozenset({"wo", "de", "ni"}),
    denial_surfaces=frozenset({"denied"}),
    plan_surfaces=frozenset({"planned"}),
    temporal_surfaces=frozenset({"after"}),
)


class TestSplitSentences:
    def test_fullstop_rule(self):
        assert [s.text for s in split_sentences("A。B。")] == ["A。", "B。"]

    def test_newline_without_fullstop(self):
        assert [s.text for s in split_sentences("A\nB。")] == ["A", "B。"]

    def test_newline_after_fullstop_no_empty(self):
        assert [s.text for s in split_sentences("A。\nB")] == ["A。", "B"]

    def test_spans_lossless(self):
        text = "alpha beta。\n gamma\ndelta。"
        for s in split_sentences(text):
            assert text[s.start:s.end] == s.text

    def test_empty_input(self):
        assert split_sentences("") == []

    def test_ascii_period_in_default_set(self):
        assert [s.text for s in split_sentences("a. b.")] == ["a.", "b."]


class TestSplitFullstop:
    def test_internal_only(self):
        tokens = tokenize("w。w。")
        assert split_fullstop(tokens).positions == (1,)

    def test_no_fullstops(self):
        assert split_fullstop(tokenize("a b c")).positions == ()

    def test_leading_fullstop(self):
        tokens = tokenize("。w")
        assert split_fullstop(tokens).positions == (0,)


class TestSplitFullstopVerb:
    def test_verb_then_noun(self):
        tokens = tokenize("vrun napple", HOOKS)
        assert split_fullstop_verb(tokens, HOOKS).positions == (0,)

    def test_non_independent_noun_skipped(self):
        tokens = tokenize("vrun x ndep", HOOKS)
        assert split_fullstop_verb(tokens, HOOKS).positions == ()

    def test_two_verbs_two_boundaries(self):
        # boundary immediately before each next independent noun
        tokens = tokenize("vrun a napple vsee b nchair", HOOKS)
        assert split_fullstop_verb(tokens, HOOKS).positions == (1, 4)

    def test_includes_fullstop_boundaries(self):
        rng = np.random.default_rng(3)
        words = ["vrun", "napple", "ndep", "x", "。", "nchair"]
        for _ in range(300):
            n = int(rng.integers(1, 10))
            text = " ".join(words[i] for i in rng.integers(0, len(words), n))
            tokens = tokenize(text, HOOKS)
            base = set(split_fullstop(tokens).positions)
            combined = set(split_fullstop_verb(tokens, HOOKS).positions)
            assert base <= combined


class TestSplitClauses:
    def test_comma(self):
        assert split_clauses(tokenize("w, w", HOOKS), HOOKS).positions == (1,)

    def test_verb(self):
        assert split_clauses(tokenize("w vrun w", HOOKS), HOOKS).positions == (1,)

    def test_no_cues(self):
        assert split_clauses(tokenize("a b c", HOOKS), HOOKS).positions == ()

    def test_verbal_noun_before_particle(self):
        tokens = tokenize("fasting de w", HOOKS)
        assert split_clauses(tokens, HOOKS).positions == (0,)
        tokens = tokenize("fasting w", HOOKS)
        assert split_clauses(tokens, HOOKS).positions == ()


class TestClinicalRules:
    def config(self, rules=None):
        return RuleConfig(
            hooks=HOOKS,
            patterns=PATTERNS,
            enabled_rules=frozenset(rules) if rules else frozenset(
                {"R1", "R2", "R3", "R4", "R5", "R6"}
            ),
        )

    def test_r1_comma_boundaries_with_markers(self):
        # comma-separated treatment/disease content splits at each comma
        tokens = tokenize("fasting, dosing, pneumonia relieved。", HOOKS)
        bset = split_clinical_rules(tokens, self.config())
        commas = tuple(i for i, t in enumerate(tokens) if t.surface == ",")
        assert bset.positions == commas

    def test_r5_non_medical_sentence_unsplit(self):
        tokens = tokenize("she came, with manager。", HOOKS)
        assert split_clinical_rules(tokens, self.config()).positions == ()

    def test_r6_negated_enumeration_unsplit(self):
        tokens = tokenize("fever, sweating, weightloss denied", HOOKS)
        assert split_clinical_rules(tokens, self.config()).positions == ()

    def test_r3_disease_phrase_with_particle(self):
        # boundary after the disease-plus-particle phrase
        tokens = tokenize("pneumonia de referred here", HOOKS)
        bset = split_clinical_rules(tokens, self.config({"R1", "R3"}))
        assert 1 in bset.positions

    def test_r4_exam_result_boundary(self):
        tokens = tokenize("ctscan 4512 de highly elevated", HOOKS)
        bset = split_clinical_rules(tokens, self.config({"R1", "R4"}))
        assert 2 in bset.positions

    def test_r2_parentheses_promoted(self):
        tokens = tokenize("w ( pneumonia de shadow, severe ) admitted", HOOKS)
        with_r2 = split_clinical_rules(tokens, self.config({"R1", "R2", "R3"}))
        without_r2 = split_clinical_rules(tokens, self.config({"R1", "R3"}))
        open_idx = next(i for i, t in enumerate(tokens) if t.surface == "(")
        close_idx = next(i for i, t in enumerate(tokens) if t.surface == ")")
        assert open_idx - 1 in with_r2.positions
        assert close_idx in with_r2.positions
        assert close_idx not in without_r2.positions

    def test_r1_must_be_enabled(self):
        with pytest.raises(ValueError):
            RuleConfig(hooks=HOOKS, patterns=PATTERNS, enabled_rules=frozenset({"R2"}))


class TestBoundarySet:
    def test_normalizes_sorted_unique(self):
        b = BoundarySet((3, 1, 3))
        assert b.positions == (1, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BoundarySet((-1,))

    def test_validate_internal(self):
        with pytest.raises(ValueError):
            BoundarySet((4,)).validate(5)
        BoundarySet((3,)).validate(5)


class TestUnitsFromBoundaries:
    def test_tiling_exact(self):
        text = "aa bb, cc dd。"
        tokens = tokenize(text)
        bset = BoundarySet((2,))
        units = units_from_boundaries(text, tokens, bset, UnitKind.SEGMENT)
        check_tiling(units, len(text))
        assert units[0].text(text) == "aa bb, "
        assert units[1].text(text) == "cc dd。"
        assert units[0].char_length == 5  # "aabb," without whitespace
        assert units[0].tokens == ("aa", "bb", ",")
        assert units[1].tokens == ("cc", "dd", "。")

    def test_fuzz_tiling_all_splitters(self):
        rng = np.random.default_rng(17)
        words = ["vrun", "napple", "fasting", "wo", "x", ",", "。", "pneumonia", "(", ")"]
        config = RuleConfig(hooks=HOOKS, patterns=PATTERNS)
        splitters = [
            lambda t: split_fullstop(t),
            lambda t: split_fullstop_verb(t, HOOKS),
            lambda t: split_clauses(t, HOOKS),
            lambda t: split_clinical_rules(t, config),
        ]
        for _ in range(400):
            n = int(rng.integers(1, 14))
            text = " ".join(words[i] for i in rng.integers(0, len(words), n))
            tokens = tokenize(text, HOOKS)
            for split in splitters:
                bset = split(tokens)
                assert all(a < b for a, b in zip(bset.positions, bset.positions[1:]))
                bset.validate(len(tokens))
                units = units_from_boundaries(text, tokens, bset, UnitKind.SEGMENT)
                check_tiling(units, len(text))
