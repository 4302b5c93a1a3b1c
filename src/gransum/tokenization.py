"""Deterministic tiling tokenizer and hashed character-n-gram features.

The tokenizer is a pluggable stand-in for a full morphological analyzer:
it splits on whitespace, punctuation classes, and script boundaries, and
tags tokens through user-supplied lexicon lists.  Whitespace is consumed
(never emitted as a token) but every token keeps its absolute character
span, so the sentence text is always reconstructible.

Subword features are hashed character n-grams over the boundary-padded
surface, which keeps out-of-vocabulary surfaces embeddable without any
pretrained resources.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .spans import TextSpan

FULLSTOP_CHARS = frozenset({"。", "．", "."})
COMMA_CHARS = frozenset({"、", "，", ","})
PAREN_OPEN_CHARS = frozenset({"(", "（", "「", "『", "【", "["})
PAREN_CLOSE_CHARS = frozenset({")", "）", "」", "』", "】", "]"})


class Tag(str, Enum):
    WORD = "WORD"
    NUMBER = "NUMBER"
    PUNCT = "PUNCT"
    FULLSTOP = "FULLSTOP"
    COMMA = "COMMA"
    PAREN_OPEN = "PAREN_OPEN"
    PAREN_CLOSE = "PAREN_CLOSE"
    MARKER = "MARKER"


@dataclass(frozen=True)
class Token:
    """One token of a sentence; surface always equals the span's slice."""

    span: TextSpan
    surface: str
    tag: Tag
    marker: str | None = None  # "disease" | "exam" | "verbal_noun" when tag is MARKER


@dataclass(frozen=True)
class LexiconHooks:
    """Named surface lists that drive tagging and the rule splitters.

    Lists hold exact surfaces, except exam_pattern_list which also accepts
    simple ``prefix*`` wildcards.  case_particle_list is consulted by the
    clause splitter for verbal-noun boundaries.
    """

    verb_list: frozenset[str] = frozenset()
    noun_list: frozenset[str] = frozenset()
    non_independent_list: frozenset[str] = frozenset()
    verbal_noun_list: frozenset[str] = frozenset()
    disease_list: frozenset[str] = frozenset()
    exam_pattern_list: tuple[str, ...] = ()
    case_particle_list: frozenset[str] = frozenset()

    def matches_exam(self, surface: str) -> bool:
        for pat in self.exam_pattern_list:
            if pat.endswith("*"):
                if surface.startswith(pat[:-1]):
                    return True
            elif surface == pat:
                return True
        return False


def _classify(c: str) -> str:
    if c.isspace():
        return "space"
    if c in FULLSTOP_CHARS:
        return "fullstop"
    if c in COMMA_CHARS:
        return "comma"
    if c in PAREN_OPEN_CHARS:
        return "paren_open"
    if c in PAREN_CLOSE_CHARS:
        return "paren_close"
    if c.isdigit():
        return "digit"
    cat = unicodedata.category(c)
    if cat.startswith("P") or cat.startswith("S"):
        return "punct"
    name = unicodedata.name(c, "")
    if "CJK" in name or "HIRAGANA" in name or "KATAKANA" in name:
        return "cjk"
    return "word"


class _CharClasses(dict):
    """Character -> class, classified on the character's first lookup.

    A character's class never changes, so one table serves every call; its
    __getitem__ is mapped over a sentence without a Python call per
    character.
    """

    def __missing__(self, c: str) -> str:
        cls = self[c] = _classify(c)
        return cls


_char_class = _CharClasses().__getitem__

# The character classes that always form single-character tokens, and
# their tags.
_CLASS_TAG = {
    "fullstop": Tag.FULLSTOP,
    "comma": Tag.COMMA,
    "paren_open": Tag.PAREN_OPEN,
    "paren_close": Tag.PAREN_CLOSE,
    "punct": Tag.PUNCT,
}


def _marker_kind(surface: str, hooks: LexiconHooks) -> str | None:
    # MARKER is reserved for the medically meaningful lexicon kinds; verbs
    # and nouns stay WORD and are resolved through hooks by the splitters.
    if surface in hooks.disease_list:
        return "disease"
    if hooks.matches_exam(surface):
        return "exam"
    if surface in hooks.verbal_noun_list:
        return "verbal_noun"
    return None


# The hooks of a tokenize call that passes none.
_NO_HOOKS = LexiconHooks()


def tokenize(sentence_text: str, hooks: LexiconHooks | None = None) -> list[Token]:
    """Split one sentence into a deterministic tiling of tokens.

    Runs of same-class characters (latin word chars, digits, CJK chars)
    form one token each; punctuation characters are single tokens;
    whitespace separates tokens and is consumed.  Offsets are absolute
    within sentence_text.
    """
    if not sentence_text:
        raise ValueError("sentence_text must be non-empty")
    hooks = hooks or _NO_HOOKS
    classes = list(map(_char_class, sentence_text))
    tokens: list[Token] = []
    i = 0
    n = len(classes)
    while i < n:
        cls = classes[i]
        if cls == "space":
            i += 1
            continue
        j = i + 1
        if cls not in _CLASS_TAG:
            while j < n and classes[j] == cls:
                j += 1
        surface = sentence_text[i:j]
        if cls == "digit":
            tag, marker = Tag.NUMBER, None
        elif cls in _CLASS_TAG:
            tag, marker = _CLASS_TAG[cls], None
        else:
            marker = _marker_kind(surface, hooks)
            tag = Tag.MARKER if marker else Tag.WORD
        tokens.append(Token(TextSpan(i, j), surface, tag, marker))
        i = j
    return tokens


@dataclass
class SubwordHasher:
    """Hashed character n-gram feature extractor.

    Surfaces are padded with '<' and '>' before n-gram extraction, so even
    a one-character surface always yields features.  Hashing is seeded
    FNV-1a, independent of the interpreter's hash randomization.
    """

    n_min: int = 2
    n_max: int = 4
    bucket_count: int = 2 ** 16
    seed: int = 0
    _cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError("require 1 <= n_min <= n_max")
        if self.bucket_count < 1:
            raise ValueError("bucket_count must be >= 1")

    def _hash(self, gram: str) -> int:
        # 64-bit FNV-1a over utf-8 bytes, seed folded into the offset basis.
        h = (0xCBF29CE484222325 ^ (self.seed * 0x100000001B3)) & 0xFFFFFFFFFFFFFFFF
        for byte in gram.encode("utf-8"):
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h % self.bucket_count

    def buckets(self, surface: str) -> np.ndarray:
        """Bucket indices of all character n-grams of the padded surface."""
        cached = self._cache.get(surface)
        if cached is not None:
            return cached
        padded = "<" + surface + ">"
        out = []
        for n in range(self.n_min, self.n_max + 1):
            for k in range(len(padded) - n + 1):
                out.append(self._hash(padded[k:k + n]))
        arr = np.asarray(out, dtype=np.int64)
        self._cache[surface] = arr
        return arr
