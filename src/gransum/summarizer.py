"""Trainable extractive summarizer over any unit granularity.

Documents are encoded as one token stream with a [CLS] inserted before
and a [SEP] after every sentence.  Token vectors (hashed n-gram bag
embeddings plus sinusoidal positions) run through a bidirectional GRU;
each unit is pooled by the arithmetic mean of its own token vectors
(boundary tokens excluded), except sentence-granularity units which use
their [CLS] vector directly.  A unit-level transformer block
contextualizes the pooled vectors and a sigmoid head scores each unit;
training minimizes mean binary cross-entropy against oracle labels.

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

    # -- document layout -----------------------------------------------

    def _layout(self, doc: DocumentExample):
        """Token stream with [CLS]/[SEP] boundaries under the window cap.

        Truncation drops trailing sentences once the window is full (a
        lone over-long first sentence is token-truncated).  Units that do
        not fit the kept tokens are excluded from scoring.
        """
        window = self.config.max_window
        kept: list[tuple[str, ...]] = []
        total = 0
        for si, sent in enumerate(doc.sentences):
            need = len(sent) + 2
            if total + need > window:
                if si == 0:
                    kept.append(sent[: max(1, window - 2)])
                    total += len(kept[0]) + 2
                break
            kept.append(sent)
            total += need

        stream: list[tuple[str, int]] = []  # (surface, role) role: 0 cls, 1 sep, 2 token
        cls_pos: list[int] = []
        offsets: list[int] = []
        for sent in kept:
            cls_pos.append(len(stream))
            stream.append(("", 0))
            offsets.append(len(stream))
            stream.extend((s, 2) for s in sent)
            stream.append(("", 1))

        unit_idx = []
        pools = []
        for ui, unit in enumerate(doc.units):
            si = unit.sentence_index
            if si >= len(kept) or unit.token_end > len(kept[si]):
                continue
            unit_idx.append(ui)
            if self.unit_kind is UnitKind.SENTENCE:
                pools.append((cls_pos[si], cls_pos[si] + 1))
            else:
                a = offsets[si] + unit.token_start
                pools.append((a, a + (unit.token_end - unit.token_start)))
        return stream, pools, unit_idx

    # -- forward / backward --------------------------------------------

    def _forward(self, docs: list[DocumentExample], layouts):
        """Unit logits of each document, from its _layout.  The documents'
        token streams run through the BiGRU as one zero-padded [T, S]
        batch with lengths; pooling, the unit transformer and the head run
        per document.  Returns (logits, unit indices, cache), the first two
        one entry per document."""
        p = self.store.params
        for doc, (_, _, unit_idx) in zip(docs, layouts):
            if not unit_idx:
                raise ValueError(f"{doc.case_id}: no units fit the token window")
        lengths = np.array([len(stream) for stream, _, _ in layouts])
        steps = lengths.max()
        roles = np.full((len(docs), steps), -1)  # -1 marks padding
        for s, (stream, _, _) in enumerate(layouts):
            roles[s, :len(stream)] = [role for _, role in stream]
        bucket_lists = [
            self.hasher.buckets(surface)
            for stream, _, _ in layouts
            for surface, role in stream
            if role == 2
        ]
        x = np.zeros((len(docs), steps, self.config.embed_dim))
        x[roles == 0] = p["cls_vec"]
        x[roles == 1] = p["sep_vec"]
        x[roles == 2] = nn.embed_bag_forward(bucket_lists, p["emb"])
        x += self.config.pe_scale * nn.sinusoidal_encoding(steps, self.config.embed_dim)
        x[roles < 0] = 0.0

        enc, enc_cache = nn.bigru_forward(x.transpose(1, 0, 2), self.store, "enc", lengths)
        logits = []
        per_doc = []
        for s, (_, pools, _) in enumerate(layouts):
            pooled = np.empty((len(pools), enc.shape[2]))
            for u, (a, b) in enumerate(pools):
                pooled[u] = enc[a:b, s].mean(axis=0)
            s_in = pooled + self.config.unit_pe_scale * nn.sinusoidal_encoding(
                len(pools), enc.shape[2]
            )
            s_out, tf_cache = nn.transformer_forward(s_in, self.store, "unit_tf")
            logits.append(s_out @ p["head_w"] + p["head_b"][0])
            per_doc.append((pools, s_out, tf_cache))
        unit_idxs = [unit_idx for _, _, unit_idx in layouts]
        return logits, unit_idxs, (roles, bucket_lists, enc_cache, enc.shape, per_doc)

    def _backward(self, dlogits, cache):
        store = self.store
        p = store.params
        roles, bucket_lists, enc_cache, enc_shape, per_doc = cache
        denc = np.zeros(enc_shape)
        for s, (dl, (pools, s_out, tf_cache)) in enumerate(zip(dlogits, per_doc)):
            store.accumulate("head_w", s_out.T @ dl)
            store.accumulate("head_b", np.array([dl.sum()]))
            ds_in = nn.transformer_backward(np.outer(dl, p["head_w"]), tf_cache, store)
            for u, (a, b) in enumerate(pools):
                denc[a:b, s] += ds_in[u] / (b - a)
        dx = nn.bigru_backward(denc, enc_cache, store).transpose(1, 0, 2)
        store.grads["cls_vec"] += dx[roles == 0].sum(axis=0)
        store.grads["sep_vec"] += dx[roles == 1].sum(axis=0)
        nn.embed_bag_backward(dx[roles == 2], bucket_lists, store.grads["emb"])

    def loss_and_grads(self, batch: list[DocumentExample]) -> float:
        for doc in batch:
            if doc.labels is None:
                raise ValueError(f"{doc.case_id}: no labels for training")
            if doc.kind is not self.unit_kind:
                raise ValueError(
                    f"{doc.case_id}: document kind {doc.kind} does not match "
                    f"model kind {self.unit_kind}"
                )
        logits, unit_idxs, cache = self._forward(batch, [self._layout(doc) for doc in batch])
        total = 0.0
        scale = 1.0 / len(batch)
        dlogits = []
        for doc, doc_logits, unit_idx in zip(batch, logits, unit_idxs):
            labels = np.asarray([doc.labels[i] for i in unit_idx], dtype=np.float64)
            loss, dl = nn.sigmoid_bce(doc_logits, labels)
            total += loss
            dlogits.append(dl * scale)
        self._backward(dlogits, cache)
        return total * scale

    def predict_probs(self, docs: list[DocumentExample]):
        """(probabilities, unit indices) of each document's units; units
        outside the window are omitted.  Consecutive documents share a
        _forward while their padded token count (longest stream times
        documents) stays within max_window, the buffers of one maximal
        training document."""
        layouts = [self._layout(doc) for doc in docs]
        out = []
        lo = 0
        while lo < len(docs):
            hi = lo + 1
            longest = len(layouts[lo][0])
            while hi < len(docs):
                longest = max(longest, len(layouts[hi][0]))
                if longest * (hi + 1 - lo) > self.config.max_window:
                    break
                hi += 1
            # the cache is not kept, so one group's buffers are alive at a time
            logits, unit_idxs = self._forward(docs[lo:hi], layouts[lo:hi])[:2]
            out.extend((nn.sigmoid(lg), unit_idx) for lg, unit_idx in zip(logits, unit_idxs))
            lo = hi
        return out

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


@dataclass(frozen=True)
class SummaryResult:
    case_id: str
    units: tuple[Unit, ...]  # the selected units, in document order
    summary_text: str


def summarize(
    docs: list[DocumentExample],
    model: Summarizer,
    budget_chars: float = 1200,
    mode: str = "keep",
) -> list[SummaryResult]:
    """Select each document's units under the character budget, scored by
    probability.

    budget_select ranks them (ties in document order) and applies mode,
    its keep or drop rule for the unit that crosses the budget.  Units
    outside the model's window are never selected.  A summary joins the
    selected units' stripped texts in document order.
    """
    results = []
    for doc, (probs, unit_idx) in zip(docs, model.predict_probs(docs)):
        units = [doc.units[i] for i in unit_idx]
        chosen = budget_select(probs, units, budget_chars, mode)
        results.append(SummaryResult(
            case_id=doc.case_id,
            units=tuple(units[k] for k in chosen),
            summary_text=" ".join(doc.unit_texts[unit_idx[k]].strip() for k in chosen),
        ))
    return results


def dev_rouge1_f1(model: Summarizer, docs: list[DocumentExample], budget: float) -> float:
    scores = [
        rouge_n([t for unit in result.units for t in unit.tokens], doc.reference_tokens, 1).f1
        for doc, result in zip(docs, summarize(docs, model, budget_chars=budget))
    ]
    return float(np.mean(scores)) if scores else 0.0


def summarizer_train(
    train_docs: list[DocumentExample],
    dev_docs: list[DocumentExample],
    kind: UnitKind,
    config: SummarizerConfig = SummarizerConfig(),
    budget_chars: float = 1200,
) -> tuple[Summarizer, nn.History]:
    """Seeded BCE training, one document per step; returns the model state
    of the best dev ROUGE-1 epoch, or of the last epoch without dev docs."""
    check_budget(budget_chars)
    for doc in train_docs + dev_docs:
        if doc.kind is not kind:
            raise ValueError(f"{doc.case_id}: kind {doc.kind} != {kind}")
    model = Summarizer(config, kind)
    return model, nn.fit(
        model, train_docs, 1, config.epochs, config.seed, config.lr,
        dev_score=(lambda m: dev_rouge1_f1(m, dev_docs, budget_chars)) if dev_docs else None,
    )
