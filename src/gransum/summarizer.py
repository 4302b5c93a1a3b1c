"""Trainable extractive summarizer over any unit granularity.

Documents are encoded as one token stream with a [CLS] inserted before
and a [SEP] after every sentence.  Token vectors (hashed n-gram bag
embeddings plus sinusoidal positions) run through a bidirectional GRU;
each unit is pooled by the arithmetic mean of its own token vectors
(boundary tokens excluded), except sentence-granularity units which use
their [CLS] vector directly; a document's units share no token.  A
unit-level transformer block contextualizes the pooled vectors and a
sigmoid head scores each unit; training minimizes mean binary
cross-entropy against oracle labels.

Inference selects units with spans.budget_select, the oracle labeler's
rule, scoring each unit by its probability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .nn.checkpoint import Checkpoint, model_checkpoint, restore_model
from .rouge import rouge_n
from .spans import Unit, UnitKind, budget_select, check_budget
from .tokenization import SubwordHasher


@dataclass(frozen=True)
class SummarizerConfig:
    embed_dim: int = 32
    hidden: int = 32
    d_ff: int = 96
    max_window: int = 1024
    n_min: int = 2
    n_max: int = 4
    bucket_count: int = 2 ** 12
    hash_seed: int = 0
    epochs: int = 6
    lr: float = 1e-3
    pe_scale: float = 0.1  # keeps sinusoids from drowning the embeddings
    unit_pe_scale: float = 0.02  # unit order is a weak, deliberately faint signal
    seed: int = 0

    def __post_init__(self):
        nn.check_hyperparameters(self, {
            "embed_dim": 1, "hidden": 1, "d_ff": 1, "max_window": 3, "n_min": 1,
            "bucket_count": 1, "epochs": 1,
        })
        self.hasher()  # refuses n_max < n_min

    def hasher(self) -> SubwordHasher:
        return SubwordHasher(self.n_min, self.n_max, self.bucket_count, self.hash_seed)


@dataclass(frozen=True)
class DocumentExample:
    """One case prepared for the summarizer at a fixed granularity."""

    case_id: str
    kind: UnitKind
    sentences: tuple[tuple[str, ...], ...]
    units: tuple[Unit, ...]
    unit_texts: tuple[str, ...]
    labels: tuple[int, ...] | None = None
    reference_sentences: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"{self.case_id}: document has no sentences")
        if not self.units:
            raise ValueError(f"{self.case_id}: document has no units")
        if self.labels is not None and len(self.labels) != len(self.units):
            raise ValueError(f"{self.case_id}: labels do not match units")

    @property
    def reference_tokens(self) -> list[str]:
        """The reference summary as one token sequence."""
        if self.reference_sentences is None:
            raise ValueError(f"{self.case_id}: document lacks reference")
        return [t for sent in self.reference_sentences for t in sent]


@dataclass(frozen=True)
class CaseStream:
    """One case's token stream under the window cap, the part of its
    documents that no unit kind changes: a [CLS] before and a [SEP] after
    each kept sentence.  cls, sep and words are the stream positions of
    the [CLS], the [SEP] and the word tokens, increasing (int32; kept
    sentence i is the words between cls[i] and sep[i]), and bag holds the
    word tokens in stream order."""

    cls: np.ndarray
    sep: np.ndarray
    words: np.ndarray
    bag: nn.Bag

    def __len__(self) -> int:
        return int(self.sep[-1]) + 1


def case_stream(sentences, max_window: int, hasher: SubwordHasher) -> CaseStream:
    """The CaseStream of a case's sentences.

    Truncation drops trailing sentences once the window is full (a lone
    over-long first sentence is token-truncated).
    """
    kept: list[tuple[str, ...]] = []
    total = 0
    for si, sent in enumerate(sentences):
        need = len(sent) + 2
        if total + need > max_window:
            if si == 0:
                kept.append(sent[: max(1, max_window - 2)])
            break
        kept.append(sent)
        total += need
    lengths = np.array([len(sent) for sent in kept], dtype=np.int32)
    sep = np.cumsum(lengths + 2, dtype=np.int32) - 1
    cls = sep - lengths - 1
    words = np.setdiff1d(np.arange(sep[-1] + 1, dtype=np.int32), np.r_[cls, sep])
    surfaces = nn.Surfaces(hasher.buckets)
    ids = surfaces.ids([s for sent in kept for s in sent])
    return CaseStream(cls, sep, words, surfaces.bag(ids))


@dataclass(frozen=True)
class PreparedDocument:
    """A document ready for a model of its kind: its case's stream, the
    token range [a, b) of the stream that each scored unit pools (pools
    [U, 2]), their lengths b - a, the stream positions they cover (unit
    by unit, each position once), and those units' indices in
    doc.units."""

    doc: DocumentExample
    stream: CaseStream
    pools: np.ndarray
    pool_lengths: np.ndarray
    pool_rows: np.ndarray
    unit_idx: list[int]


def _stream_key(config: SummarizerConfig) -> tuple:
    """The config fields a case's stream depends on."""
    return (config.max_window, config.n_min, config.n_max, config.bucket_count, config.hash_seed)


def prepare_documents(models, docs) -> list[list[PreparedDocument]]:
    """Each model's documents prepared for it, docs[m] being model m's.
    Models run together: they must share max_window and the hasher, and
    docs[m] must be the same cases, in the same order, for every model.
    Each case's stream is built once (case_stream) and shared by all of
    its documents."""
    config = models[0].config
    if any(_stream_key(model.config) != _stream_key(config) for model in models):
        raise ValueError("summarizers run together need one max_window and hasher")
    if any(
        len(model_docs) != len(docs[0])
        or any(doc.sentences != first.sentences for doc, first in zip(model_docs, docs[0]))
        for model_docs in docs
    ):
        raise ValueError("summarizers run together need the same cases")
    streams = [case_stream(doc.sentences, config.max_window, models[0].hasher) for doc in docs[0]]
    return [
        [model._prepare(doc, stream) for doc, stream in zip(model_docs, streams)]
        for model, model_docs in zip(models, docs)
    ]


class Summarizer:
    KIND = "summarizer"

    def __init__(self, config: SummarizerConfig, unit_kind: UnitKind):
        self.config = config
        self.unit_kind = unit_kind
        self.hasher = config.hasher()
        d = 2 * config.hidden
        store = nn.ParameterStore(config.seed)
        store.add("emb", (config.bucket_count, config.embed_dim), init="embedding")
        store.add("cls_vec", (config.embed_dim,), init="embedding")
        store.add("sep_vec", (config.embed_dim,), init="embedding")
        nn.add_bigru_params(store, "enc", config.embed_dim, config.hidden)
        nn.add_transformer_params(store, "unit_tf", d, config.d_ff)
        store.add("head_w", (d,))
        store.add("head_b", (1,), init="zeros")
        self.store = store

    # -- prepared documents --------------------------------------------

    def _prepare(self, doc: DocumentExample, stream: CaseStream) -> PreparedDocument:
        """doc over its case's stream, with the token range each unit
        that fits the stream pools.  Units that do not fit the kept tokens
        are excluded from scoring; units that share a token, and a
        document of another kind than the model's, are refused."""
        if doc.kind is not self.unit_kind:
            raise ValueError(f"{doc.case_id}: kind {doc.kind} != model kind {self.unit_kind}")
        kept = (stream.sep - stream.cls - 1).tolist()
        cls_pos = stream.cls.tolist()
        unit_idx = []
        pools = []
        for ui, unit in enumerate(doc.units):
            si = unit.sentence_index
            if si >= len(kept) or unit.token_end > kept[si]:
                continue
            unit_idx.append(ui)
            if self.unit_kind is UnitKind.SENTENCE:
                pools.append((cls_pos[si], cls_pos[si] + 1))
            else:
                a = cls_pos[si] + 1 + unit.token_start
                pools.append((a, a + (unit.token_end - unit.token_start)))
        if not unit_idx:
            raise ValueError(f"{doc.case_id}: no units fit the token window")
        rows = np.concatenate([np.arange(a, b, dtype=np.int32) for a, b in pools])
        if np.unique(rows).size != rows.size:
            raise ValueError(f"{doc.case_id}: units overlap")
        pools = np.array(pools, dtype=np.int32)
        return PreparedDocument(doc, stream, pools, pools[:, 1] - pools[:, 0], rows, unit_idx)

    # -- forward / backward --------------------------------------------

    @staticmethod
    def losses_and_grads(models, batches):
        """Yields each model's mean BCE on its own batch of labeled
        documents (PreparedDocuments) once its gradients are accumulated
        into its store.  The models' BiGRUs run as one call (see
        _encode); everything else is per model, so each model's
        arithmetic is that of its step alone.  The unit heads run one
        model at a time, and a model's embedding gradient is made only
        when the caller has taken the previous model's loss, so one
        model's head caches and one embedding gradient are alive at
        once."""
        streams = [[item.stream for item in batch] for batch in batches]
        encs, enc_cache = _encode(models, streams)
        steps = [
            model._units_loss_and_grads(batch, enc)
            for model, batch, enc in zip(models, batches, encs)
        ]
        del encs
        losses = [loss for loss, _ in steps]
        dxs = nn.bigru_backward(
            [denc for _, denc in steps], enc_cache, [model.store for model in models]
        )
        del steps
        for model, loss, dx, model_streams in zip(models, losses, dxs, streams):
            grads = model.store.grads
            for s, stream in enumerate(model_streams):
                grads["cls_vec"] += dx[stream.cls, s].sum(axis=0)
                grads["sep_vec"] += dx[stream.sep, s].sum(axis=0)
                nn.embed_bag_backward(dx[stream.words, s], stream.bag, grads["emb"])
            yield loss

    def _units_forward(self, enc, items):
        """Unit logits of each of S prepared documents from their BiGRU
        encoding enc [T, S, 2H]: pooling, the unit transformer and the
        head, per document.  Returns (logits, caches)."""
        p = self.store.params
        logits = []
        caches = []
        for s, item in enumerate(items):
            # every pool ends before a [SEP], so each bound indexes a row
            pooled = np.add.reduceat(enc[:, s], item.pools.ravel(), axis=0)[::2]
            pooled /= item.pool_lengths[:, None]
            s_in = pooled + self.config.unit_pe_scale * nn.sinusoidal_encoding(
                len(item.pools), enc.shape[2]
            )
            s_out, tf_cache = nn.transformer_forward(s_in, self.store, "unit_tf")
            logits.append(s_out @ p["head_w"] + p["head_b"][0])
            caches.append((s_out, tf_cache))
        return logits, caches

    def _units_loss_and_grads(self, batch, enc):
        """The mean BCE of batch (PreparedDocuments) from its BiGRU
        encoding enc [T, S, 2H], with the gradients of the head and the
        unit transformer; returns (loss, denc), denc the gradient of
        enc."""
        store = self.store
        logits, caches = self._units_forward(enc, batch)
        scale = 1.0 / len(batch)
        total = 0.0
        denc = np.zeros(enc.shape)
        for s, (item, doc_logits, (s_out, tf_cache)) in enumerate(zip(batch, logits, caches)):
            if item.doc.labels is None:
                raise ValueError(f"{item.doc.case_id}: no labels for training")
            labels = np.asarray([item.doc.labels[i] for i in item.unit_idx], dtype=np.float64)
            loss, dl = nn.sigmoid_bce(doc_logits, labels)
            total += loss
            dl = dl * scale
            store.accumulate("head_w", s_out.T @ dl)
            store.accumulate("head_b", np.array([dl.sum()]))
            ds_in = nn.transformer_backward(np.outer(dl, store.params["head_w"]), tf_cache, store)
            # units share no position, so one assignment scatters them all
            denc[item.pool_rows, s] = np.repeat(
                ds_in / item.pool_lengths[:, None], item.pool_lengths, axis=0
            )
        return total * scale, denc

    # -- persistence ---------------------------------------------------

    def to_checkpoint(self) -> Checkpoint:
        hyper = asdict(self.config)
        hyper["unit_kind"] = self.unit_kind.value
        return model_checkpoint(self.KIND, hyper, self.store)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "Summarizer":
        def build(hyper: dict) -> "Summarizer":
            unit_kind = UnitKind(hyper.pop("unit_kind"))
            return cls(SummarizerConfig(**hyper), unit_kind)

        return restore_model(ckpt, cls.KIND, build)


def _encode(models, streams):
    """BiGRU encodings [T, S, 2H] of each model's case streams,
    streams[m] being model m's: each model writes its streams' tokens at
    their positions in one zero-padded [T, S, E] batch, and the streams
    of all models run through the BiGRU as one call (nn.bigru_forward).
    Returns (encodings, cache)."""
    xs = []
    for model, model_streams in zip(models, streams):
        p = model.store.params
        config = model.config
        steps = max(len(stream) for stream in model_streams)
        pe = config.pe_scale * nn.sinusoidal_encoding(steps, config.embed_dim)
        x = np.zeros((steps, len(model_streams), config.embed_dim))
        for s, stream in enumerate(model_streams):
            x[stream.cls, s] = p["cls_vec"]
            x[stream.sep, s] = p["sep_vec"]
            x[stream.words, s] = nn.embed_bag_forward(stream.bag, p["emb"])
            x[:len(stream), s] += pe[:len(stream)]
        xs.append(x)
    lengths = [np.array([len(stream) for stream in ss]) for ss in streams]
    return nn.bigru_forward(xs, [model.store for model in models], "enc", lengths)


def predict_probs(models: list[Summarizer], docs: list[list[DocumentExample]]):
    """(probabilities, unit indices) of the units of each model's
    documents, one list per model; units outside the window are omitted.

    docs[m] are model m's documents: the same cases, in the same order,
    for every model (a case's units differ by kind).  See _predict.
    """
    return _predict(models, prepare_documents(models, docs))


def _predict(models: list[Summarizer], prepared: list[list[PreparedDocument]]):
    """predict_probs of prepared documents, prepared[m] being model m's.

    The models' documents share each case's stream (prepare_documents).
    Consecutive cases share a forward, which runs every model's BiGRU as
    one call, while their padded token count (longest stream times
    cases) stays within max_window, the buffers of one maximal training
    document.
    """
    config = models[0].config
    streams = [item.stream for item in prepared[0]]
    out = [[] for _ in models]
    lo = 0
    while lo < len(streams):
        hi = lo + 1
        longest = len(streams[lo])
        while hi < len(streams):
            longest = max(longest, len(streams[hi]))
            if longest * (hi + 1 - lo) > config.max_window:
                break
            hi += 1
        # the cache is not kept, so one group's buffers are alive at a time
        encs = _encode(models, [streams[lo:hi]] * len(models))[0]
        for model_out, model, enc, items in zip(out, models, encs, prepared):
            group = items[lo:hi]
            logits = model._units_forward(enc, group)[0]
            model_out.extend((nn.sigmoid(lg), item.unit_idx) for lg, item in zip(logits, group))
        lo = hi
    return out


@dataclass(frozen=True)
class SummaryResult:
    case_id: str
    units: tuple[Unit, ...]  # the selected units, in document order
    summary_text: str


def summarize(
    docs: list[list[DocumentExample]],
    models: list[Summarizer],
    budget_chars: float = 1200,
    mode: str = "keep",
) -> list[list[SummaryResult]]:
    """Select the units of each model's documents under the character
    budget, scored by that model's probabilities; docs[m] are model m's
    documents, and the models run together (see predict_probs).  Returns
    one list of results per model.

    budget_select ranks the units (ties in document order) and applies
    mode, its keep or drop rule for the unit that crosses the budget.
    Units outside the window are never selected.  A summary joins the
    selected units' stripped texts in document order.
    """
    return _summaries(models, prepare_documents(models, docs), budget_chars, mode)


def _summaries(models, prepared, budget_chars, mode="keep") -> list[list[SummaryResult]]:
    """summarize of prepared documents, prepared[m] being model m's."""
    out = []
    for items, model_probs in zip(prepared, _predict(models, prepared)):
        results = []
        for item, (probs, unit_idx) in zip(items, model_probs):
            doc = item.doc
            units = [doc.units[i] for i in unit_idx]
            chosen = budget_select(probs, units, budget_chars, mode)
            results.append(SummaryResult(
                case_id=doc.case_id,
                units=tuple(units[k] for k in chosen),
                summary_text=" ".join(doc.unit_texts[unit_idx[k]].strip() for k in chosen),
            ))
        out.append(results)
    return out


def _dev_rouge1_f1(models, prepared, budget: float) -> list[float]:
    """Each model's mean ROUGE-1 F1 of its summaries of its prepared
    documents against their references (0.0 for no documents)."""
    return [
        float(np.mean([
            rouge_n(
                [t for unit in result.units for t in unit.tokens], item.doc.reference_tokens, 1
            ).f1
            for item, result in zip(items, results)
        ])) if items else 0.0
        for items, results in zip(prepared, _summaries(models, prepared, budget))
    ]


def train_summarizers(
    train_docs: list[list[DocumentExample]],
    dev_docs: list[list[DocumentExample]],
    kinds: list[UnitKind],
    configs: list[SummarizerConfig],
    budget_chars: float = 1200,
) -> list[tuple[Summarizer, nn.History]]:
    """Seeded BCE training of one summarizer per kind, one document per
    step, the models in lockstep (one nn.fit job each): each model trains
    exactly as it would alone, and step k of all of them shares one BiGRU
    call.  train_docs[m], dev_docs[m] and configs[m] belong to kinds[m].

    The configs agree in epochs, max_window and the hasher, and
    train_docs[m] and dev_docs[m] are the same cases for every kind.
    Without dev documents each model ends in its last epoch.  Otherwise
    the models are scored together by dev ROUGE-1 after each epoch, and
    each model ends in the state of its first epoch with its highest
    score.  Every document is prepared once (prepare_documents), so each
    case's stream is built once for all kinds and epochs.  Returns
    (model, history) per kind.
    """
    check_budget(budget_chars)
    if len({config.epochs for config in configs}) != 1:
        raise ValueError("summarizers trained together need one epoch count")
    models = [Summarizer(config, kind) for config, kind in zip(configs, kinds)]
    prepared = prepare_documents(models, [train + dev for train, dev in zip(train_docs, dev_docs)])
    train_items = [items[:len(docs)] for items, docs in zip(prepared, train_docs)]
    dev_items = [items[len(docs):] for items, docs in zip(prepared, train_docs)]
    jobs = [
        nn.Job(model, items, 1, config.seed, config.lr)
        for model, items, config in zip(models, train_items, configs)
    ]
    dev_score = (
        (lambda ms: _dev_rouge1_f1(ms, dev_items, budget_chars)) if any(dev_items) else None
    )
    return list(zip(models, nn.fit(jobs, configs[0].epochs, dev_score)))


def summarizer_train(
    train_docs: list[DocumentExample],
    dev_docs: list[DocumentExample],
    kind: UnitKind,
    config: SummarizerConfig = SummarizerConfig(),
    budget_chars: float = 1200,
) -> tuple[Summarizer, nn.History]:
    """Trains one kind's summarizer, the one-kind case of
    train_summarizers; returns (model, history).  The model holds the
    state of its first epoch with the highest dev ROUGE-1, or of its last
    epoch without dev documents."""
    [trained] = train_summarizers([train_docs], [dev_docs], [kind], [config], budget_chars)
    return trained
