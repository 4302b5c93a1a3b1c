"""Learned segment-boundary detector (encode, decode, point).

A bidirectional GRU encodes the sentence; a decoder GRU walks unit by
unit, consuming the encoding of the current unit's first token; additive
attention points at the unit's end position.  Attention is masked to
positions at or after the current start, so pointing is monotone and
decoding always terminates with a valid internal BoundarySet.  The
sentence-final position is a legal pointer target but never emits an
internal boundary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .nn.checkpoint import Checkpoint, model_checkpoint, restore_model
from .splitters import BoundarySet, token_ranges
from .tokenization import SubwordHasher, Token


@dataclass(frozen=True)
class SegmenterConfig:
    embed_dim: int = 32
    hidden: int = 32
    dec_hidden: int = 64
    attn_dim: int = 48
    n_min: int = 2
    n_max: int = 4
    bucket_count: int = 2 ** 12
    hash_seed: int = 0
    epochs: int = 5
    lr: float = 1e-3
    batch_sentences: int = 8
    seed: int = 0

    def __post_init__(self):
        nn.check_hyperparameters(self, {
            "embed_dim": 1, "hidden": 1, "dec_hidden": 1, "attn_dim": 1, "n_min": 1,
            "bucket_count": 1, "epochs": 1, "batch_sentences": 1,
        })

    def hasher(self) -> SubwordHasher:
        return SubwordHasher(self.n_min, self.n_max, self.bucket_count, self.hash_seed)


@dataclass(frozen=True)
class SentenceExample:
    """One training sentence: token surfaces plus its gold boundaries."""

    surfaces: tuple[str, ...]
    gold: tuple[int, ...]

    def __post_init__(self):
        if not self.surfaces:
            raise ValueError("empty sentence")
        n = len(self.surfaces)
        if any(not (0 <= p < n - 1) for p in self.gold):
            raise ValueError(f"gold boundary out of range for {n} tokens")


def example_from_tokens(tokens: list[Token], gold: BoundarySet) -> SentenceExample:
    gold.validate(len(tokens))
    return SentenceExample(tuple(t.surface for t in tokens), gold.positions)


class PointerSegmenter:
    KIND = "pointer-segmenter"

    def __init__(self, config: SegmenterConfig):
        self.config = config
        self.hasher = config.hasher()
        store = nn.ParameterStore(config.seed)
        store.add("emb", (config.bucket_count, config.embed_dim), init="embedding")
        nn.add_bigru_params(store, "enc", config.embed_dim, config.hidden)
        nn.add_gru_params(store, "dec", 2 * config.hidden, config.dec_hidden)
        store.add("dec_h0", (config.dec_hidden,), init="zeros")
        store.add("attn.w_enc", (2 * config.hidden, config.attn_dim))
        store.add("attn.w_dec", (config.dec_hidden, config.attn_dim))
        store.add("attn.b", (config.attn_dim,), init="zeros")
        store.add("attn.v", (config.attn_dim,))
        self.store = store

    # -- encoding ------------------------------------------------------

    def _buckets(self, surfaces) -> list[np.ndarray]:
        return [self.hasher.buckets(s) for s in surfaces]

    def _encode(self, bucket_lists):
        x = nn.embed_bag_forward(bucket_lists, self.store.params["emb"])
        enc, cache = nn.bigru_forward(x, self.store, "enc")
        return enc, (x, cache)

    def _point_distribution(self, enc_proj, dec_states, starts):
        """Masked pointer distributions [m, T] for decoder states [m, Hd]:
        row k is over positions [starts[k], T-1].  Returns (probs, act)."""
        p = self.store.params
        act = np.tanh(enc_proj[None, :, :] + (dec_states @ p["attn.w_dec"])[:, None, :])
        mask = np.arange(enc_proj.shape[0])[None, :] >= np.asarray(starts)[:, None]
        return nn.masked_softmax(act @ p["attn.v"], mask), act

    # -- training ------------------------------------------------------

    def _pointer_loss_grads(self, gold, enc, scale: float):
        """Teacher-forced pointer loss of one sentence from its encodings
        enc [T, 2H]; accumulates the decoder and attention grads (scaled)
        and returns (loss, denc).

        The decoder input at step k is the encoding of unit k's first
        token, which the gold boundaries alone fix, so the m decoder steps
        run as one sequence and the m pointer distributions as one [m, T]
        masked softmax.
        """
        store = self.store
        p = store.params
        t_count = enc.shape[0]
        ranges = token_ranges(gold, t_count)
        starts = np.array([a for a, _ in ranges])
        # the pointer targets the unit's last token
        ends = np.array([b - 1 for _, b in ranges])
        m = len(ranges)
        steps = np.arange(m)

        enc_proj = enc @ p["attn.w_enc"] + p["attn.b"]
        h, dec_cache = nn.gru_forward(enc[starts], store, "dec", h0=p["dec_h0"])
        probs, act = self._point_distribution(enc_proj, h, starts)
        target = np.maximum(probs[steps, ends], 1e-300)
        loss = float(-np.log(target).sum()) / m

        dprobs = np.zeros_like(probs)
        dprobs[steps, ends] = -(scale / m) / target
        dscores = nn.softmax_backward(dprobs, probs)
        store.accumulate("attn.v", act.reshape(-1, act.shape[2]).T @ dscores.reshape(-1))
        dpre = dscores[:, :, None] * p["attn.v"] * (1.0 - act * act)
        dpre_dec = dpre.sum(axis=1)
        store.accumulate("attn.w_dec", h.T @ dpre_dec)
        dx_dec, dh0 = nn.gru_backward(dpre_dec @ p["attn.w_dec"].T, dec_cache, store)
        store.accumulate("dec_h0", dh0)

        denc_proj = dpre.sum(axis=0)
        store.accumulate("attn.w_enc", enc.T @ denc_proj)
        store.accumulate("attn.b", denc_proj.sum(axis=0))
        denc = denc_proj @ p["attn.w_enc"].T
        denc[starts] += dx_dec
        return loss, denc

    def loss_and_grads(self, batch: list[SentenceExample]) -> float:
        """Mean teacher-forced loss over the batch.  The batch's sentences
        are encoded together as one zero-padded [T, S] BiGRU batch."""
        store = self.store
        scale = 1.0 / len(batch)
        bucket_lists = [self._buckets(ex.surfaces) for ex in batch]
        lengths = np.array([len(lists) for lists in bucket_lists])
        rows = np.concatenate([np.arange(n) for n in lengths])
        cols = np.repeat(np.arange(len(batch)), lengths)
        flat = [b for lists in bucket_lists for b in lists]
        x = np.zeros((lengths.max(), len(batch), self.config.embed_dim))
        x[rows, cols] = nn.embed_bag_forward(flat, store.params["emb"])
        enc, enc_cache = nn.bigru_forward(x, store, "enc", lengths)

        total = 0.0
        denc = np.zeros_like(enc)
        for s, (ex, n) in enumerate(zip(batch, lengths)):
            loss, denc[:n, s] = self._pointer_loss_grads(ex.gold, enc[:n, s], scale)
            total += loss
        dx = nn.bigru_backward(denc, enc_cache, store)[rows, cols]
        del enc, enc_cache, denc  # frees the batch's encoder state before the bag backward
        nn.embed_bag_backward(dx, flat, store.grads["emb"])
        return total * scale

    # -- inference -----------------------------------------------------

    def predict(self, tokens: list[Token] | list[str], sentence_index: int = 0) -> BoundarySet:
        """Greedy monotone decode; always yields a valid BoundarySet."""
        surfaces = [t.surface if isinstance(t, Token) else t for t in tokens]
        if not surfaces:
            raise ValueError("cannot segment an empty sentence")
        p = self.store.params
        bucket_lists = self._buckets(surfaces)
        enc, _ = self._encode(bucket_lists)
        enc_proj = enc @ p["attn.w_enc"] + p["attn.b"]
        t_count = len(surfaces)
        positions = []
        start = 0
        h = p["dec_h0"]
        while start < t_count:
            h_seq, _ = nn.gru_forward(enc[start][None, :], self.store, "dec", h0=h)
            h = h_seq[0]
            probs, _ = self._point_distribution(enc_proj, h_seq, [start])
            end = int(np.argmax(probs[0]))
            if end >= t_count - 1:
                break
            positions.append(end)
            start = end + 1
        return BoundarySet(sentence_index, tuple(positions))

    # -- persistence ---------------------------------------------------

    def to_checkpoint(self) -> Checkpoint:
        return model_checkpoint(self.KIND, asdict(self.config), self.store)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "PointerSegmenter":
        return restore_model(ckpt, cls.KIND, lambda hyper: cls(SegmenterConfig(**hyper)))


@dataclass
class SegmenterHistory:
    epoch_losses: list[float] = field(default_factory=list)


def segmenter_train(
    examples: list[SentenceExample], config: SegmenterConfig = SegmenterConfig()
) -> tuple[PointerSegmenter, SegmenterHistory]:
    """Train the pointer segmenter on (sentence, BoundarySet) pairs.

    Every epoch's shuffle is drawn from (seed, epoch), so training is
    deterministic in the config.
    """
    if not examples:
        raise ValueError("empty training corpus")
    model = PointerSegmenter(config)
    optimizer = nn.Adam(model.store, nn.AdamConfig(lr=config.lr))
    history = SegmenterHistory()
    for epoch in range(config.epochs):
        rng = np.random.default_rng((config.seed, epoch))
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_sentences):
            batch = [examples[i] for i in order[lo:lo + config.batch_sentences]]
            epoch_loss += nn.train_step(model, batch, optimizer)
            n_batches += 1
        history.epoch_losses.append(epoch_loss / n_batches)
    return model, history
