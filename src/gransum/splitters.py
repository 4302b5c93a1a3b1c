"""Sentence splitting and rule-based unit splitters.

All unit splitters speak one currency: the BoundarySet, the sorted set of
internal split positions of one sentence expressed as token indices.  A
boundary at position b means "a unit ends after token b"; the sentence-
final position is never a boundary, so a sentence with n boundaries has
n + 1 units.

The clinical rule engine approximates the six segmentation heuristics
with an auditable, pattern-file-driven implementation: R1 proposes
boundaries at commas and verbal-noun predicate ends, R2 promotes
parenthesized content, R3/R4 force boundaries around disease mentions and
examination results, and R5/R6 suppress splits that separate non-medical
or meaning-free content.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spans import Unit, UnitKind, budget_length
from .tokenization import FULLSTOP_CHARS, LexiconHooks, Tag, Token


@dataclass(frozen=True)
class Sentence:
    """One sentence with its lossless absolute span in the source text."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class BoundarySet:
    """Internal split positions of one sentence (token indices)."""

    positions: tuple[int, ...]

    def __post_init__(self):
        norm = tuple(sorted(set(self.positions)))
        if norm != self.positions:
            object.__setattr__(self, "positions", norm)
        if any(p < 0 for p in self.positions):
            raise ValueError("boundary positions must be non-negative")

    def validate(self, n_tokens: int) -> None:
        if any(p >= n_tokens - 1 for p in self.positions):
            raise ValueError(
                f"boundary beyond last internal position for {n_tokens} tokens"
            )


def token_ranges(positions, n_tokens: int) -> list[tuple[int, int]]:
    """Half-open token ranges [start, end) of the units that the sorted
    internal boundary positions cut a sentence of n_tokens into."""
    starts = [0] + [p + 1 for p in positions]
    return list(zip(starts, starts[1:] + [n_tokens]))


def split_sentences(raw_text: str) -> list[Sentence]:
    """Split raw text into sentences at full stops and bare newlines.

    A sentence ends right after a full-stop mark, or at a newline when the
    statement has no full stop.  Empty candidates (e.g. a newline directly
    after a full stop) are dropped; spans slice the input exactly.
    """
    out: list[Sentence] = []

    def emit(start: int, end: int) -> None:
        while start < end and raw_text[start].isspace():
            start += 1
        while end > start and raw_text[end - 1].isspace():
            end -= 1
        if end > start:
            out.append(Sentence(raw_text[start:end], start, end))

    start = 0
    for i, c in enumerate(raw_text):
        if c in FULLSTOP_CHARS:
            emit(start, i + 1)
            start = i + 1
        elif c == "\n":
            emit(start, i)
            start = i + 1
    emit(start, len(raw_text))
    return out


def _internal(positions, n_tokens: int):
    return tuple(p for p in positions if 0 <= p < n_tokens - 1)


def split_fullstop(tokens: list[Token]) -> BoundarySet:
    """Boundary after every full-stop token that is not sentence-final."""
    pos = [i for i, t in enumerate(tokens) if t.tag is Tag.FULLSTOP]
    return BoundarySet(_internal(pos, len(tokens)))


def split_fullstop_verb(tokens: list[Token], hooks: LexiconHooks) -> BoundarySet:
    """Full-stop boundaries plus verb-to-next-noun boundaries.

    For each verb token, a boundary is placed immediately before the next
    noun whose surface is not a non-independent noun; non-independent
    nouns are skipped, not boundary targets.
    """
    pos = set(split_fullstop(tokens).positions)
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.surface not in hooks.verb_list:
            continue
        for j in range(i + 1, n):
            surface = tokens[j].surface
            if surface in hooks.noun_list and surface not in hooks.non_independent_list:
                pos.add(j - 1)
                break
    return BoundarySet(_internal(pos, n))


def split_clauses(tokens: list[Token], hooks: LexiconHooks) -> BoundarySet:
    """Clause boundaries: commas, verbs, verbal nouns before case particles."""
    pos = set()
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.tag is Tag.COMMA:
            pos.add(i)
        elif tok.surface in hooks.verb_list:
            pos.add(i)
        elif (
            tok.marker == "verbal_noun"
            and i + 1 < n
            and tokens[i + 1].surface in hooks.case_particle_list
        ):
            pos.add(i)
    return BoundarySet(_internal(pos, n))


DEFAULT_PATTERNS_VERSION = 1


@dataclass(frozen=True)
class RulePatterns:
    """Versioned pattern file backing rules R3--R6; a file must name its
    version."""

    version: int
    case_particles: frozenset[str] = frozenset()
    denial_surfaces: frozenset[str] = frozenset()
    plan_surfaces: frozenset[str] = frozenset()
    temporal_surfaces: frozenset[str] = frozenset()
    max_enum_chunk_tokens: int = 3

    def __post_init__(self):
        if self.version != DEFAULT_PATTERNS_VERSION:
            raise ValueError(f"unsupported rule pattern file version: {self.version!r}")


def _attachment_run(tokens, i, hooks, particles, allow_numbers: bool) -> int:
    """Last index of the phrase starting at token i (particles, attached nouns)."""
    j = i
    n = len(tokens)
    while j + 1 < n:
        nxt = tokens[j + 1]
        attachable = (
            nxt.surface in particles
            or nxt.surface in hooks.non_independent_list
            or nxt.surface in hooks.noun_list
            or (allow_numbers and nxt.tag is Tag.NUMBER)
        )
        if not attachable:
            break
        j += 1
    return j


def _phrase_boundaries(tokens, i, hooks, particles, allow_numbers: bool) -> set[int]:
    """R3/R4 boundary candidates around the marker phrase starting at i."""
    pos: set[int] = set()
    if i > 0:
        pos.add(i - 1)
    j = _attachment_run(tokens, i, hooks, particles, allow_numbers)
    # The after-phrase boundary exists only for a real phrase; adjacent
    # punctuation already carries its own boundary.
    if j > i and j + 1 < len(tokens) and tokens[j + 1].tag not in (
        Tag.COMMA,
        Tag.FULLSTOP,
        Tag.PAREN_CLOSE,
    ):
        pos.add(j)
    return pos


def _content_size(tokens, start, end) -> int:
    return sum(
        1
        for t in tokens[start:end]
        if t.tag in (Tag.WORD, Tag.NUMBER, Tag.MARKER)
    )


def split_clinical_rules(
    tokens: list[Token], hooks: LexiconHooks, patterns: RulePatterns
) -> BoundarySet:
    """Apply the clinical segmentation rule engine R1--R6.  The pattern
    file's case particles, when it names any, replace the hooks'."""
    n = len(tokens)
    particles = patterns.case_particles or hooks.case_particle_list
    candidates: set[int] = set()

    # R1
    for i, tok in enumerate(tokens):
        if tok.tag is Tag.COMMA:
            candidates.add(i)
        elif tok.marker == "verbal_noun":
            j = _attachment_run(tokens, i, hooks, particles, allow_numbers=False)
            if j + 1 < n and tokens[j + 1].tag not in (
                Tag.COMMA,
                Tag.FULLSTOP,
                Tag.PAREN_CLOSE,
            ):
                candidates.add(j)

    # R3, then R4
    for marker, allow_numbers in (("disease", False), ("exam", True)):
        for i, tok in enumerate(tokens):
            if tok.marker == marker:
                candidates |= _phrase_boundaries(tokens, i, hooks, particles, allow_numbers)

    # R2
    stack: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.tag is Tag.PAREN_OPEN:
            stack.append(i)
        elif tok.tag is Tag.PAREN_CLOSE and stack:
            o = stack.pop()
            if any(o <= p < i for p in candidates):
                if o > 0:
                    candidates.add(o - 1)
                candidates.add(i)

    positions = sorted(_internal(candidates, n))
    if not positions:
        return BoundarySet(())

    chunks = token_ranges(positions, n)
    has_marker = [
        any(t.tag is Tag.MARKER for t in tokens[start:end]) for start, end in chunks
    ]

    # R5
    suppress = {
        p for k, p in enumerate(positions) if not has_marker[k] and not has_marker[k + 1]
    }

    # R6
    def chunk_has(start, end, surfaces):
        return any(t.surface in surfaces for t in tokens[start:end])

    for k, (start, end) in enumerate(chunks):
        if chunk_has(start, end, patterns.denial_surfaces):
            # Enumeration of findings resolved by one denial: merge
            # the run of short comma-separated chunks it closes.
            run = k
            while (
                run > 0
                and tokens[positions[run - 1]].tag is Tag.COMMA
                and _content_size(tokens, *chunks[run - 1])
                <= patterns.max_enum_chunk_tokens
            ):
                suppress.add(positions[run - 1])
                run -= 1
        if chunk_has(start, end, patterns.plan_surfaces) and k > 0:
            suppress.add(positions[k - 1])
        if chunk_has(start, end, patterns.temporal_surfaces) and k < len(positions):
            suppress.add(positions[k])

    return BoundarySet(tuple(p for p in positions if p not in suppress))


def units_from_boundaries(
    sentence_text: str,
    tokens: list[Token],
    boundaries: BoundarySet,
    kind: UnitKind,
    sentence_index: int = 0,
) -> list[Unit]:
    """Materialize the tiling units a BoundarySet induces on sentence
    sentence_index; the empty BoundarySet gives the whole sentence.

    Unit character bounds snap to token edges, except that the first unit
    starts at 0 and every unit extends to the start of the next, so the
    units tile the sentence exactly.
    """
    if not tokens:
        raise ValueError("cannot materialize units for an empty token list")
    boundaries.validate(len(tokens))
    ranges = token_ranges(boundaries.positions, len(tokens))
    char_starts = [0] + [tokens[start].start for start, _ in ranges[1:]]
    char_ends = char_starts[1:] + [len(sentence_text)]
    surfaces = tuple(t.surface for t in tokens)
    return [
        Unit(
            sentence_index=sentence_index,
            unit_index=k,
            kind=kind,
            char_start=char_starts[k],
            char_end=char_ends[k],
            token_start=start,
            token_end=end,
            tokens=surfaces[start:end],
            char_length=budget_length(sentence_text[char_starts[k]:char_ends[k]]),
        )
        for k, (start, end) in enumerate(ranges)
    ]
