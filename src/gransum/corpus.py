"""Document model, JSONL corpus ingestion, and the synthetic generator.

A Case pairs the ordered raw lines of one inpatient-style record with its
reference summary.  The corpus file format is JSON-lines, one object per
case: ``{"id": ..., "records": [...], "summary": ...}``.

The synthetic generator builds desk-scale corpora over a pronounceable
pseudo-word vocabulary with a small planted lexicon of disease, exam, and
verbal-noun marker tokens, so every splitter rule and both trainable
models can be exercised without any external language resources.  Each
summary is assembled from segment-sized chunks: a controllable fraction
(copy_rate) are verbatim copies of record segments, the rest are
paraphrase-noise chunks drawn from a disjoint vocabulary.  Planted
segment boundaries are emitted as side-channel ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .splitters import RulePatterns
from .tokenization import LexiconHooks


class CorpusError(ValueError):
    """Malformed corpus file or invalid case data."""


def config_kwargs(cls, raw, what: str) -> dict:
    """A copy of raw, a JSON object whose keys must all be fields of the
    dataclass cls and whose values must fit the fields' annotations;
    anything else is a ValueError naming what and the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    declared = {f.name: f.type for f in fields(cls)}
    hints = get_type_hints(cls)
    for key, value in raw.items():
        if key not in declared:
            raise ValueError(f"{what}: unknown key {key!r}")
        if not _json_fits(value, hints[key]):
            raise ValueError(
                f"{what}: {key!r} must be {declared[key]}, got {type(value).__name__}"
            )
    return dict(raw)


def _json_fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated hint: a list
    for a tuple, an object for a dict or a nested config, a string for a
    str enum, and an integer for a float."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_json_fits(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, list):
            return False
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        return len(items) == len(value) and all(map(_json_fits, value, items))
    if origin is dict:
        return isinstance(value, dict) and all(
            _json_fits(v, args[1]) for v in value.values()
        )
    if is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, str if issubclass(hint, str) else hint)


@dataclass(frozen=True)
class Case:
    """One patient episode: record lines plus one reference summary."""

    id: str
    record_sentences: tuple[str, ...]
    summary_text: str

    def __post_init__(self):
        if not self.id:
            raise CorpusError("case id must be non-empty")
        if not self.record_sentences:
            raise CorpusError(f"case {self.id}: record_sentences must be non-empty")
        if not self.summary_text:
            raise CorpusError(f"case {self.id}: summary_text must be non-empty")

    @property
    def record_text(self) -> str:
        return "\n".join(self.record_sentences)


def read_jsonl(path: str, fields: tuple[str, ...]):
    """Yield ("path:line", object) for each non-blank line of a JSONL file.

    A line that is not a JSON object holding every one of fields is a
    CorpusError naming its path and line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{where}: expected a JSON object")
            for key in fields:
                if key not in obj:
                    raise CorpusError(f"{where}: missing field {key!r}")
            yield where, obj


def load_corpus(path: str) -> list[Case]:
    """Read a JSONL corpus; offsets and text are preserved exactly."""
    cases: list[Case] = []
    seen: set[str] = set()
    for where, obj in read_jsonl(path, ("id", "records", "summary")):
        if not isinstance(obj["records"], list) or not all(
            isinstance(r, str) for r in obj["records"]
        ):
            raise CorpusError(f"{where}: records must be a list of strings")
        if not isinstance(obj["summary"], str):
            raise CorpusError(f"{where}: summary must be a string")
        case_id = str(obj["id"])
        if case_id in seen:
            raise CorpusError(f"{where}: duplicate case id {case_id!r}")
        seen.add(case_id)
        try:
            cases.append(Case(case_id, tuple(obj["records"]), obj["summary"]))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
    return cases


def dump_case(case: Case) -> str:
    return json.dumps(
        {"id": case.id, "records": list(case.record_sentences), "summary": case.summary_text},
        ensure_ascii=False,
        sort_keys=True,
        separators=(",", ":"),
    )


def save_corpus(cases: list[Case], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for case in cases:
            fh.write(dump_case(case))
            fh.write("\n")


@dataclass(frozen=True)
class GoldBoundary:
    """Side-channel planted boundaries for one generated sentence."""

    case_id: str
    sentence_index: int
    positions: tuple[int, ...]


def save_gold_boundaries(entries: list[GoldBoundary], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(
                json.dumps(
                    {
                        "id": e.case_id,
                        "sentence_index": e.sentence_index,
                        "boundaries": list(e.positions),
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_gold_boundaries(path: str) -> list[GoldBoundary]:
    """Gold boundaries in file order; a second line for one (id,
    sentence_index) is a CorpusError."""
    out = []
    seen: set[tuple[str, int]] = set()
    for where, obj in read_jsonl(path, ("id", "sentence_index", "boundaries")):
        if not _is_int(obj["sentence_index"]):
            raise CorpusError(f"{where}: sentence_index must be an integer")
        positions = obj["boundaries"]
        if not isinstance(positions, list) or not all(_is_int(p) for p in positions):
            raise CorpusError(f"{where}: boundaries must be a list of integers")
        key = (str(obj["id"]), obj["sentence_index"])
        if key in seen:
            raise CorpusError(f"{where}: duplicate gold boundaries for case {key[0]!r} sentence {key[1]}")
        seen.add(key)
        out.append(GoldBoundary(*key, tuple(positions)))
    return out


GoldTable = dict[str, dict[int, tuple[int, ...]]]


def gold_table(entries: list[GoldBoundary]) -> GoldTable:
    """Gold positions by case id, then sentence index."""
    table: GoldTable = {}
    for e in entries:
        table.setdefault(e.case_id, {})[e.sentence_index] = e.positions
    return table


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls for the synthetic corpus generator.

    copy_rate is the per-chunk probability that a summary chunk is a
    verbatim copy of a record segment (the default sits in the 20-31%
    overlap range reported for real discharge summaries).  marker_prob controls how often a
    record segment carries a medical marker token; copied chunks are drawn
    preferentially from marker-bearing segments (copy_marker_bias), which
    is the learnable selection signal.
    """

    case_count: int = 100
    sentences_per_record: int = 10
    segments_per_sentence: dict[int, float] = field(
        default_factory=lambda: {5: 0.3, 6: 0.4, 7: 0.3}
    )
    tokens_per_segment: tuple[int, int] = (2, 4)
    copy_rate: float = 0.25
    chunks_per_summary: int = 12
    marker_prob: float = 0.12
    decoy_prob: float = 0.18
    copy_marker_bias: float = 0.9
    vocab_seed: int = 7
    seed: int = 1234
    drop_fullstop_prob: float = 0.0
    inject_newline_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.copy_rate <= 1.0:
            raise ValueError("copy_rate must be in [0, 1]")
        if self.marker_prob + 2 * self.decoy_prob > 1.0:
            raise ValueError("marker_prob + 2 * decoy_prob must not exceed 1")
        for name in ("case_count", "sentences_per_record", "chunks_per_summary"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.segments_per_sentence:
            raise ValueError("segments_per_sentence distribution is empty")
        if any(k <= 0 or w < 0 for k, w in self.segments_per_sentence.items()):
            raise ValueError("segments_per_sentence needs positive counts/weights")
        lo, hi = self.tokens_per_segment
        if not 1 <= lo <= hi:
            raise ValueError("tokens_per_segment must be a valid range")

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        kwargs = config_kwargs(cls, raw, "synthetic spec")
        if "segments_per_sentence" in kwargs:
            kwargs["segments_per_sentence"] = {
                int(k): float(v) for k, v in kwargs["segments_per_sentence"].items()
            }
        if "tokens_per_segment" in kwargs:
            kwargs["tokens_per_segment"] = tuple(kwargs["tokens_per_segment"])
        return cls(**kwargs)


_RECORD_SYLLABLES = [c + v for c in "bdgklmnprstvz" for v in "aeiou"]
_NOISE_SYLLABLES = [c + v for c in "fhjqwxy" for v in "aeiou"]
_PARTICLES = ("wo", "ni", "ga", "de", "to", "wa")


def _make_words(rng: np.random.Generator, syllables, count, n_syll, taken):
    words = []
    while len(words) < count:
        k = int(rng.integers(n_syll[0], n_syll[1] + 1))
        w = "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), k))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


@dataclass(frozen=True)
class SyntheticVocab:
    common: tuple[str, ...]
    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    non_independent: tuple[str, ...]
    verbal_nouns: tuple[str, ...]
    diseases: tuple[str, ...]
    exams: tuple[str, ...]
    noise: tuple[str, ...]
    denial: tuple[str, ...]
    plan: tuple[str, ...]
    temporal: tuple[str, ...]

    def hooks(self) -> LexiconHooks:
        return LexiconHooks(
            verb_list=frozenset(self.verbs),
            noun_list=frozenset(self.nouns)
            | frozenset(self.non_independent)
            | frozenset(self.diseases),
            non_independent_list=frozenset(self.non_independent),
            verbal_noun_list=frozenset(self.verbal_nouns),
            disease_list=frozenset(self.diseases),
            exam_pattern_list=tuple(sorted(self.exams)),
            case_particle_list=frozenset(_PARTICLES),
        )

    def patterns(self) -> RulePatterns:
        return RulePatterns(
            case_particles=frozenset(_PARTICLES),
            denial_surfaces=frozenset(self.denial),
            plan_surfaces=frozenset(self.plan),
            temporal_surfaces=frozenset(self.temporal),
        )


def build_vocab(vocab_seed: int) -> SyntheticVocab:
    rng = np.random.default_rng(vocab_seed)
    taken: set[str] = set(_PARTICLES)
    rec = _RECORD_SYLLABLES
    # A small content vocabulary keeps accidental n-gram overlap realistic:
    # short units then score noisily under the bigram oracle, as in real text.
    return SyntheticVocab(
        common=tuple(_make_words(rng, rec, 32, (2, 3), taken)),
        verbs=tuple(_make_words(rng, rec, 24, (2, 3), taken)),
        nouns=tuple(_make_words(rng, rec, 40, (2, 3), taken)),
        non_independent=tuple(_make_words(rng, rec, 8, (2, 2), taken)),
        verbal_nouns=tuple(_make_words(rng, rec, 16, (2, 3), taken)),
        diseases=tuple(_make_words(rng, rec, 16, (3, 3), taken)),
        exams=tuple(_make_words(rng, rec, 10, (3, 3), taken)),
        noise=tuple(_make_words(rng, _NOISE_SYLLABLES, 120, (2, 3), taken)),
        denial=tuple(_make_words(rng, rec, 3, (3, 3), taken)),
        plan=tuple(_make_words(rng, rec, 3, (3, 3), taken)),
        temporal=tuple(_make_words(rng, rec, 3, (3, 3), taken)),
    )


@dataclass
class _Segment:
    tokens: list[str]
    has_marker: bool
    text: str = ""


def _render(tokens: list[str]) -> str:
    parts = []
    for i, tok in enumerate(tokens):
        if i > 0 and tok not in (",", "。"):
            parts.append(" ")
        parts.append(tok)
    return "".join(parts)


def _make_segment(rng, vocab: SyntheticVocab, spec: SyntheticSpec) -> _Segment:
    """One segment; copy-eligible segments carry a disease/outcome pair.

    The medically meaningful (summary-worthy) segments open with a disease
    or exam marker and close with a verbal-noun outcome; decoy segments
    carry one half of the pair only.  The pair is what makes the whole
    segment the smallest meaningful unit: neither half alone predicts
    summary membership.
    """
    r = rng.random()
    if r < spec.marker_prob:
        shape = "pair"
    elif r < spec.marker_prob + spec.decoy_prob:
        shape = "head_only"
    elif r < spec.marker_prob + 2 * spec.decoy_prob:
        shape = "tail_only"
    else:
        shape = "plain"

    tokens: list[str] = []
    if shape in ("pair", "head_only"):
        if rng.random() < 0.6:
            tokens.append(vocab.diseases[int(rng.integers(len(vocab.diseases)))])
        else:
            tokens.append(vocab.exams[int(rng.integers(len(vocab.exams)))])
            if rng.random() < 0.8:
                tokens.append(str(int(rng.integers(10, 5000))))
    lo, hi = spec.tokens_per_segment
    n_content = int(rng.integers(lo, hi + 1))
    head = max(1, n_content // 3)
    for _ in range(head):
        tokens.append(vocab.common[int(rng.integers(len(vocab.common)))])
    # Internal verbs keep the clause splitter finer than the planted
    # segments, cutting the marker pair into separate pieces; verb-less
    # segments stay single-clause (the Equal relation in the census).
    with_verb = rng.random() < 0.75
    if with_verb:
        tokens.append(vocab.verbs[int(rng.integers(len(vocab.verbs)))])
    tail = n_content - head
    for k in range(tail):
        tokens.append(vocab.common[int(rng.integers(len(vocab.common)))])
        if with_verb and k == 0 and tail > 1 and rng.random() < 0.5:
            tokens.append(vocab.verbs[int(rng.integers(len(vocab.verbs)))])
    if shape in ("pair", "tail_only"):
        tokens.append(vocab.verbal_nouns[int(rng.integers(len(vocab.verbal_nouns)))])
    return _Segment(tokens, has_marker=shape == "pair")


@dataclass
class GeneratedCorpus:
    """Synthetic cases plus their side-channel ground truth and lexicons."""

    cases: list[Case]
    gold_boundaries: list[GoldBoundary]
    hooks: LexiconHooks
    patterns: RulePatterns

    def gold_by_case(self) -> GoldTable:
        return gold_table(self.gold_boundaries)


def generate_synthetic(spec: SyntheticSpec) -> GeneratedCorpus:
    """Generate a deterministic corpus with planted boundaries.

    Record sentences are sequences of segments separated by comma tokens;
    the planted BoundarySet of a sentence is exactly the set of comma
    positions, so every generated sentence's units tile it by
    construction.  Summaries mix verbatim copies of record segments with
    paraphrase-noise chunks over a disjoint vocabulary, joined by
    newlines.
    """
    vocab = build_vocab(spec.vocab_seed)
    rng = np.random.default_rng(spec.seed)
    seg_counts = sorted(spec.segments_per_sentence)
    weights = np.asarray(
        [spec.segments_per_sentence[k] for k in seg_counts], dtype=float
    )
    weights = weights / weights.sum()

    cases: list[Case] = []
    gold: list[GoldBoundary] = []
    for ci in range(spec.case_count):
        case_id = f"case-{ci:05d}"
        lines: list[str] = []
        line_boundaries: list[tuple[int, ...]] = []
        segments: list[_Segment] = []

        for _ in range(spec.sentences_per_record):
            k = int(rng.choice(np.asarray(seg_counts), p=weights))
            sent_segments = [_make_segment(rng, vocab, spec) for _ in range(k)]

            pieces: list[list[_Segment]] = [sent_segments]
            if k > 1 and rng.random() < spec.inject_newline_prob:
                cut = int(rng.integers(1, k))
                pieces = [sent_segments[:cut], sent_segments[cut:]]

            for pi, piece in enumerate(pieces):
                tokens: list[str] = []
                positions: list[int] = []
                last_piece = pi == len(pieces) - 1
                for si, seg in enumerate(piece):
                    seg_tokens = list(seg.tokens)
                    if si < len(piece) - 1:
                        seg_tokens.append(",")
                        positions.append(len(tokens) + len(seg_tokens) - 1)
                    elif last_piece and rng.random() >= spec.drop_fullstop_prob:
                        seg_tokens.append("。")
                    seg.text = _render(seg_tokens)
                    tokens.extend(seg_tokens)
                    segments.append(seg)
                gold.append(
                    GoldBoundary(case_id, len(lines), tuple(positions))
                )
                lines.append(_render(tokens))

        chunks: list[str] = []
        marker_pool = [s for s in segments if s.has_marker]
        plain_pool = [s for s in segments if not s.has_marker]
        for _ in range(spec.chunks_per_summary):
            copied = rng.random() < spec.copy_rate
            if copied and (marker_pool or plain_pool):
                use_marker = marker_pool and (
                    rng.random() < spec.copy_marker_bias or not plain_pool
                )
                pool = marker_pool if use_marker else plain_pool
                seg = pool.pop(int(rng.integers(len(pool))))
                chunks.append(seg.text)
            else:
                n = int(rng.integers(3, 6))
                chunks.append(
                    " ".join(
                        vocab.noise[int(i)]
                        for i in rng.integers(0, len(vocab.noise), n)
                    )
                )
        cases.append(Case(case_id, tuple(lines), "\n".join(chunks)))

    for entry in gold:
        # Planted boundaries must be internal and strictly increasing.
        assert all(a < b for a, b in zip(entry.positions, entry.positions[1:]))
    return GeneratedCorpus(cases, gold, vocab.hooks(), vocab.patterns())
