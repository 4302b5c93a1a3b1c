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
        if not unit_idx:
            raise ValueError(f"{doc.case_id}: no units fit the token window")
        return stream, pools, unit_idx

    # -- forward / backward --------------------------------------------

    def _streams(self, layouts):
        """(lengths [S], roles [S, T], bucket lists) of the token streams
        of S documents' _layouts; role -1 marks padding, and the bucket
        lists are those of the role-2 tokens in stream order."""
        lengths = np.array([len(stream) for stream, _, _ in layouts])
        roles = np.full((len(layouts), lengths.max()), -1)
        for s, (stream, _, _) in enumerate(layouts):
            roles[s, :len(stream)] = [role for _, role in stream]
        bucket_lists = [
            self.hasher.buckets(surface)
            for stream, _, _ in layouts
            for surface, role in stream
            if role == 2
        ]
        return lengths, roles, bucket_lists

    @staticmethod
    def losses_and_grads(models, batches):
        """Yields each model's mean BCE on its own batch of labeled
        documents once its gradients are accumulated into its store.  The
        models' BiGRUs run as one call (see _encode); everything else is
        per model, so each model's arithmetic is that of its step alone.
        The unit heads run one model at a time, and a model's embedding
        gradient is made only when the caller has taken the previous
        model's loss, so one model's head caches and one embedding
        gradient are alive at once."""
        for model, batch in zip(models, batches):
            for doc in batch:
                if doc.labels is None:
                    raise ValueError(f"{doc.case_id}: no labels for training")
                if doc.kind is not model.unit_kind:
                    raise ValueError(
                        f"{doc.case_id}: document kind {doc.kind} does not match "
                        f"model kind {model.unit_kind}"
                    )
        layouts = [[model._layout(doc) for doc in batch] for model, batch in zip(models, batches)]
        streams = [model._streams(lays) for model, lays in zip(models, layouts)]
        encs, enc_cache = _encode(models, streams)
        steps = [
            model._units_loss_and_grads(batch, lays, enc)
            for model, batch, lays, enc in zip(models, batches, layouts, encs)
        ]
        del encs
        losses = [loss for loss, _ in steps]
        dxs = nn.bigru_backward(
            [denc for _, denc in steps], enc_cache, [model.store for model in models]
        )
        del steps
        for model, loss, dx, (_, roles, bucket_lists) in zip(models, losses, dxs, streams):
            grads = model.store.grads
            dx = dx.transpose(1, 0, 2)
            grads["cls_vec"] += dx[roles == 0].sum(axis=0)
            grads["sep_vec"] += dx[roles == 1].sum(axis=0)
            nn.embed_bag_backward(dx[roles == 2], bucket_lists, grads["emb"])
            yield loss

    def _units_forward(self, enc, layouts):
        """Unit logits of each of S documents from their BiGRU encoding
        enc [T, S, 2H]: pooling, the unit transformer and the head, per
        document.  Returns (logits, caches)."""
        p = self.store.params
        logits = []
        caches = []
        for s, (_, pools, _) in enumerate(layouts):
            pooled = np.empty((len(pools), enc.shape[2]))
            for u, (a, b) in enumerate(pools):
                pooled[u] = enc[a:b, s].mean(axis=0)
            s_in = pooled + self.config.unit_pe_scale * nn.sinusoidal_encoding(
                len(pools), enc.shape[2]
            )
            s_out, tf_cache = nn.transformer_forward(s_in, self.store, "unit_tf")
            logits.append(s_out @ p["head_w"] + p["head_b"][0])
            caches.append((s_out, tf_cache))
        return logits, caches

    def _units_loss_and_grads(self, batch, layouts, enc):
        """The mean BCE of batch from its BiGRU encoding enc [T, S, 2H],
        with the gradients of the head and the unit transformer; returns
        (loss, denc), denc the gradient of enc."""
        store = self.store
        logits, caches = self._units_forward(enc, layouts)
        scale = 1.0 / len(batch)
        total = 0.0
        denc = np.zeros(enc.shape)
        for s, (doc, (_, pools, unit_idx), doc_logits, (s_out, tf_cache)) in enumerate(
            zip(batch, layouts, logits, caches)
        ):
            labels = np.asarray([doc.labels[i] for i in unit_idx], dtype=np.float64)
            loss, dl = nn.sigmoid_bce(doc_logits, labels)
            total += loss
            dl = dl * scale
            store.accumulate("head_w", s_out.T @ dl)
            store.accumulate("head_b", np.array([dl.sum()]))
            ds_in = nn.transformer_backward(np.outer(dl, store.params["head_w"]), tf_cache, store)
            for u, (a, b) in enumerate(pools):
                denc[a:b, s] += ds_in[u] / (b - a)
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
    """BiGRU encodings [T, S, 2H] of each model's token streams, streams[m]
    being model m's _streams: each model embeds its streams as one
    zero-padded [T, S] batch, and the streams of all models run through
    the BiGRU as one call (nn.bigru_forward).  Returns (encodings,
    cache)."""
    xs = []
    for model, (_, roles, bucket_lists) in zip(models, streams):
        p = model.store.params
        config = model.config
        x = np.zeros(roles.shape + (config.embed_dim,))
        x[roles == 0] = p["cls_vec"]
        x[roles == 1] = p["sep_vec"]
        x[roles == 2] = nn.embed_bag_forward(bucket_lists, p["emb"])
        x += config.pe_scale * nn.sinusoidal_encoding(roles.shape[1], config.embed_dim)
        x[roles < 0] = 0.0
        xs.append(x.transpose(1, 0, 2))
    return nn.bigru_forward(
        xs, [model.store for model in models], "enc", [lengths for lengths, _, _ in streams]
    )


def predict_probs(models: list[Summarizer], docs: list[list[DocumentExample]]):
    """(probabilities, unit indices) of the units of each model's
    documents, one list per model; units outside the window are omitted.

    docs[m] are model m's documents: the same cases, in the same order,
    for every model (a case's units differ by kind).  A case's token
    stream depends only on its sentences and max_window, so the models
    must share max_window and the hasher, and each stream's roles and
    buckets are built once.  Consecutive cases share a forward, which
    runs every model's BiGRU as one call, while their padded token count
    (longest stream times cases) stays within max_window, the buffers of
    one maximal training document.
    """
    config = models[0].config
    shared = lambda c: (c.max_window, c.n_min, c.n_max, c.bucket_count, c.hash_seed)
    if any(shared(model.config) != shared(config) for model in models):
        raise ValueError("summarizers run together need one max_window and hasher")
    layouts = [[model._layout(doc) for doc in model_docs] for model, model_docs in zip(models, docs)]
    streams = [stream for stream, _, _ in layouts[0]]
    if any([stream for stream, _, _ in model_layouts] != streams for model_layouts in layouts):
        raise ValueError("summarizers run together need the same cases")
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
        group = [model_layouts[lo:hi] for model_layouts in layouts]
        # the cache is not kept, so one group's buffers are alive at a time
        encs = _encode(models, [models[0]._streams(group[0])] * len(models))[0]
        for model_out, model, enc, model_layouts in zip(out, models, encs, group):
            logits = model._units_forward(enc, model_layouts)[0]
            model_out.extend(
                (nn.sigmoid(lg), unit_idx) for lg, (_, _, unit_idx) in zip(logits, model_layouts)
            )
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
    out = []
    for model_docs, model_probs in zip(docs, predict_probs(models, docs)):
        results = []
        for doc, (probs, unit_idx) in zip(model_docs, model_probs):
            units = [doc.units[i] for i in unit_idx]
            chosen = budget_select(probs, units, budget_chars, mode)
            results.append(SummaryResult(
                case_id=doc.case_id,
                units=tuple(units[k] for k in chosen),
                summary_text=" ".join(doc.unit_texts[unit_idx[k]].strip() for k in chosen),
            ))
        out.append(results)
    return out


def dev_rouge1_f1(
    models: list[Summarizer], docs: list[list[DocumentExample]], budget: float
) -> list[float]:
    """Each model's mean ROUGE-1 F1 of its summaries of its documents
    against their references (0.0 for no documents)."""
    return [
        float(np.mean([
            rouge_n([t for unit in result.units for t in unit.tokens], doc.reference_tokens, 1).f1
            for doc, result in zip(model_docs, results)
        ])) if model_docs else 0.0
        for model_docs, results in zip(docs, summarize(docs, models, budget_chars=budget))
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

    The configs agree in epochs.  Without dev documents each model ends
    in its last epoch.  Otherwise dev_docs[m] are the same cases for
    every kind, the models are scored together by dev ROUGE-1 after each
    epoch (so they also share max_window and the hasher), and each model
    ends in the state of its first epoch with its highest score.
    Returns (model, history) per kind.
    """
    check_budget(budget_chars)
    for kind, train, dev in zip(kinds, train_docs, dev_docs):
        for doc in train + dev:
            if doc.kind is not kind:
                raise ValueError(f"{doc.case_id}: kind {doc.kind} != {kind}")
    if len({config.epochs for config in configs}) != 1:
        raise ValueError("summarizers trained together need one epoch count")
    models = [Summarizer(config, kind) for config, kind in zip(configs, kinds)]
    jobs = [
        nn.Job(model, docs, 1, config.seed, config.lr)
        for model, docs, config in zip(models, train_docs, configs)
    ]
    dev_score = (lambda ms: dev_rouge1_f1(ms, dev_docs, budget_chars)) if any(dev_docs) else None
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
