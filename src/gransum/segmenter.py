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

    def _point_distribution(self, enc_proj, dec_state, start):
        """Masked pointer distribution over [start, T-1]."""
        p = self.store.params
        t_count = enc_proj.shape[0]
        act = np.tanh(enc_proj + dec_state @ p["attn.w_dec"])
        scores = act @ p["attn.v"]
        mask = np.zeros(t_count, dtype=bool)
        mask[start:] = True
        probs = nn.masked_softmax(scores[None, :], mask[None, :])[0]
        return probs, act, mask

    # -- training ------------------------------------------------------

    def _sentence_loss_grads(self, example: SentenceExample, scale: float) -> float:
        """Teacher-forced pointer loss for one sentence (grads scaled)."""
        store = self.store
        p = store.params
        surfaces = example.surfaces

        bucket_lists = self._buckets(surfaces)
        enc, (x, enc_cache) = self._encode(bucket_lists)
        enc_proj = enc @ p["attn.w_enc"] + p["attn.b"]

        h = p["dec_h0"]
        steps = []
        loss = 0.0
        for start, end in token_ranges(example.gold, len(surfaces)):
            h_seq, cell_cache = nn.gru_forward(enc[start][None, :], store, "dec", h0=h)
            h = h_seq[0]
            probs, act, mask = self._point_distribution(enc_proj, h, start)
            # the pointer targets the unit's last token
            step_loss, dprobs = nn.cross_entropy_from_probs(probs, end - 1)
            loss += step_loss
            steps.append((start, h, cell_cache, probs, act, dprobs))

        m = len(steps)
        loss /= m

        denc = np.zeros_like(enc)
        denc_proj = np.zeros_like(enc_proj)
        carry = np.zeros_like(p["dec_h0"])
        for start, h_state, cell_cache, probs, act, dprobs in reversed(steps):
            dscores = nn.softmax_backward(
                dprobs[None, :] * (scale / m), probs[None, :]
            )[0]
            store.accumulate("attn.v", act.T @ dscores)
            dact = np.outer(dscores, p["attn.v"])
            dpre = dact * (1.0 - act * act)
            denc_proj += dpre
            dh = dpre.sum(axis=0) @ p["attn.w_dec"].T
            store.accumulate("attn.w_dec", np.outer(h_state, dpre.sum(axis=0)))
            dx_cell, carry = nn.gru_backward(
                (dh + carry)[None, :], cell_cache, store
            )
            denc[start] += dx_cell[0]
        store.accumulate("dec_h0", carry)

        store.accumulate("attn.w_enc", enc.T @ denc_proj)
        store.accumulate("attn.b", denc_proj.sum(axis=0))
        denc += denc_proj @ p["attn.w_enc"].T
        dx = nn.bigru_backward(denc, enc_cache, store)
        nn.embed_bag_backward(dx, bucket_lists, store.grads["emb"])
        return loss

    def loss_and_grads(self, batch: list[SentenceExample]) -> float:
        total = 0.0
        scale = 1.0 / len(batch)
        for ex in batch:
            total += self._sentence_loss_grads(ex, scale)
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
            probs, _, _ = self._point_distribution(enc_proj, h, start)
            end = int(np.argmax(probs))
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
