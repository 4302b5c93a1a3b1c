import numpy as np
import pytest

from gransum.settings import load_settings, save_settings
from gransum.tokenization import (
    LexiconHooks,
    SubwordHasher,
    Tag,
    tokenize,
)


def surfaces(tokens):
    return [t.surface for t in tokens]


class TestTokenize:
    def test_fullstop_class(self):
        tokens = tokenize("a b。")
        assert surfaces(tokens) == ["a", "b", "。"]
        assert [t.tag for t in tokens] == [Tag.WORD, Tag.WORD, Tag.FULLSTOP]

    def test_paren_class(self):
        tokens = tokenize("x（y）")
        assert [t.tag for t in tokens] == [
            Tag.WORD,
            Tag.PAREN_OPEN,
            Tag.WORD,
            Tag.PAREN_CLOSE,
        ]

    def test_disease_marker_then_comma(self):
        hooks = LexiconHooks(disease_list=frozenset({"fever"}))
        tokens = tokenize("fever,", hooks)
        assert [(t.tag, t.marker) for t in tokens] == [
            (Tag.MARKER, "disease"),
            (Tag.COMMA, None),
        ]

    def test_number_and_exam_wildcard(self):
        hooks = LexiconHooks(exam_pattern_list=("lab*",))
        tokens = tokenize("lab42x 4512", hooks)
        assert tokens[0].tag is Tag.MARKER and tokens[0].marker == "exam"
        assert tokens[-1].tag is Tag.NUMBER

    def test_offsets_are_exact_slices(self):
        text = "alpha  beta、ga 12。"
        for tok in tokenize(text):
            assert text[tok.start:tok.start + len(tok.surface)] == tok.surface

    def test_tiling_reconstruction(self):
        rng = np.random.default_rng(11)
        pieces = ["wo", "ni", "fever", ",", "。", "(", ")", "4512", "ga"]
        for _ in range(200):
            n = rng.integers(1, 12)
            text = ""
            for i in rng.integers(0, len(pieces), n):
                text += pieces[i]
                if rng.random() < 0.4:
                    text += " "
            text = text.strip()
            if not text:
                continue
            tokens = tokenize(text)
            rebuilt = list(text)
            for tok in tokens:
                for k in range(tok.start, tok.start + len(tok.surface)):
                    rebuilt[k] = None
            # everything not covered by a token span must be whitespace
            assert all(c is None or c.isspace() for c in rebuilt)
            # spans are ordered and non-overlapping
            for a, b in zip(tokens, tokens[1:]):
                assert a.start + len(a.surface) <= b.start

    @pytest.mark.parametrize(
        "patterns, surface, expected",
        [
            (("ctscan",), "ctscan", True),
            (("ctscan",), "ctscans", False),
            (("lab*",), "lab", True),
            (("lab*",), "la", False),
            (("ct", "lab*"), "lab42x", True),
            (("*",), "anything", True),
            (("*",), "。", True),
            ((), "lab", False),
        ],
    )
    def test_matches_exam(self, patterns, surface, expected):
        hooks = LexiconHooks(exam_pattern_list=patterns)
        assert hooks.matches_exam(surface) is expected

    def test_determinism(self):
        hooks = LexiconHooks(verb_list=frozenset({"runs"}))
        a = tokenize("he runs fast。", hooks)
        b = tokenize("he runs fast。", hooks)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tokenize("")


class TestSubwordHasher:
    def test_boundary_padding_count(self):
        hasher = SubwordHasher(n_min=2, n_max=2, bucket_count=97)
        tok = tokenize("ab")[0]
        buckets = hasher.buckets(tok.surface)
        # padded "<ab>" has bigrams "<a", "ab", "b>"
        assert len(buckets) == 3

    def test_identical_surfaces_identical_buckets(self):
        hasher = SubwordHasher()
        a = tokenize("word")[0]
        b = tokenize("word")[0]
        assert hasher.buckets(a.surface).tolist() == hasher.buckets(b.surface).tolist()

    def test_oov_never_empty(self):
        hasher = SubwordHasher()
        assert len(hasher.buckets("q")) > 0
        assert len(hasher.buckets("zzzzzzzzzzzz")) > 0

    def test_seed_changes_hashes(self):
        a = SubwordHasher(seed=0).buckets("word")
        b = SubwordHasher(seed=1).buckets("word")
        assert list(a) != list(b)

    def test_load_roughly_uniform(self):
        # 10k random surfaces into 2^16 buckets; with ~15 n-grams per
        # surface most individual buckets stay empty, so uniformity is
        # asserted over 64 aggregated bucket ranges.
        rng = np.random.default_rng(123)
        hasher = SubwordHasher(bucket_count=2 ** 16)
        letters = "abcdefghijklmnopqrstuvwxyz"
        loads = np.zeros(2 ** 16, dtype=np.int64)
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            surface = "".join(letters[i] for i in rng.integers(0, 26, n))
            for b in hasher.buckets(surface):
                loads[b] += 1
        coarse = loads.reshape(64, -1).sum(axis=1)
        assert coarse.max() / coarse.min() < 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SubwordHasher(n_min=0)
        with pytest.raises(ValueError):
            SubwordHasher(n_min=3, n_max=2)
        with pytest.raises(ValueError):
            SubwordHasher(bucket_count=0)


def test_hooks_json_roundtrip(tmp_path):
    hooks = LexiconHooks(
        verb_list=frozenset({"ru"}),
        disease_list=frozenset({"fe", "po"}),
        exam_pattern_list=("lab*",),
        case_particle_list=frozenset({"wo"}),
    )
    path = tmp_path / "hooks.json"
    save_settings(hooks, str(path))
    assert load_settings(LexiconHooks, str(path)) == hooks
