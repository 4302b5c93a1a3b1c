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

    def _encode(self, sentences):
        """Encodes sentences (lists of token surfaces) as one zero-padded
        [T, S] batch: one embed-bag call and one BiGRU call with lengths.
        Returns (enc [T, S, 2H], lengths [S], cache); the cache holds the
        token rows and columns, the bucket lists and the BiGRU cache."""
        bucket_lists = [self.hasher.buckets(s) for sentence in sentences for s in sentence]
        lengths = np.array([len(sentence) for sentence in sentences])
        rows = np.concatenate([np.arange(n) for n in lengths])
        cols = np.repeat(np.arange(len(sentences)), lengths)
        x = np.zeros((lengths.max(), len(sentences), self.config.embed_dim))
        x[rows, cols] = nn.embed_bag_forward(bucket_lists, self.store.params["emb"])
        enc, enc_cache = nn.bigru_forward(x, self.store, "enc", lengths)
        return enc, lengths, (rows, cols, bucket_lists, enc_cache)

    def _point_distribution(self, enc_proj, dec_states, starts, lengths):
        """Masked pointer distributions [S, m, T] for decoder states
        [S, m, Hd] over encoder projections enc_proj [S, T, A]: row (s, k)
        is over positions [starts[s, k], lengths[s] - 1].  Returns
        (probs, act)."""
        p = self.store.params
        act = np.tanh(enc_proj[:, None] + (dec_states @ p["attn.w_dec"])[:, :, None])
        t = np.arange(enc_proj.shape[1])
        mask = (t >= starts[:, :, None]) & (t < lengths[:, None, None])
        return nn.masked_softmax(act @ p["attn.v"], mask), act

    # -- training ------------------------------------------------------

    def loss_and_grads(self, batch: list[SentenceExample]) -> float:
        """Mean teacher-forced loss over the batch.

        The batch's S sentences are encoded together.  The decoder input at
        step k is the encoding of unit k's first token, which the gold
        boundaries alone fix, so the decoders of all S sentences run as one
        zero-padded [m_max, S] GRU batch with lengths and their pointer
        distributions as one [S, m_max, T] masked softmax.  Padded decoder
        steps point from position 0 and get no gradient.
        """
        store = self.store
        p = store.params
        enc, lengths, (rows, cols, bucket_lists, enc_cache) = self._encode(
            [ex.surfaces for ex in batch]
        )
        seqs = len(batch)
        ranges = [token_ranges(ex.gold, n) for ex, n in zip(batch, lengths)]
        units = np.array([len(r) for r in ranges])
        # the (sentence, step) pairs of the real decoder steps
        sent = np.repeat(np.arange(seqs), units)
        step = np.concatenate([np.arange(m) for m in units])
        starts = np.zeros((seqs, units.max()), dtype=np.int64)
        starts[sent, step] = [a for r in ranges for a, _ in r]
        # the pointer targets the unit's last token
        ends = np.array([b - 1 for r in ranges for _, b in r])
        first = starts[sent, step]

        x_dec = np.zeros((units.max(), seqs, enc.shape[2]))
        x_dec[step, sent] = enc[first, sent]
        h0 = np.broadcast_to(p["dec_h0"], (seqs, p["dec_h0"].shape[0]))
        h, dec_cache = nn.gru_forward(x_dec, store, "dec", h0, units)
        h = h.transpose(1, 0, 2)
        enc_proj = (enc @ p["attn.w_enc"] + p["attn.b"]).transpose(1, 0, 2)
        probs, act = self._point_distribution(enc_proj, h, starts, lengths)
        target = np.maximum(probs[sent, step, ends], 1e-300)
        loss = float((-np.log(target) / units[sent]).sum()) / seqs

        dprobs = np.zeros_like(probs)
        dprobs[sent, step, ends] = -(1.0 / seqs / units[sent]) / target
        dscores = nn.softmax_backward(dprobs, probs)
        attn = act.shape[3]
        store.accumulate("attn.v", act.reshape(-1, attn).T @ dscores.reshape(-1))
        dpre = dscores[..., None] * p["attn.v"] * (1.0 - act * act)
        dpre_dec = dpre.sum(axis=2)
        store.accumulate("attn.w_dec", h.reshape(-1, h.shape[2]).T @ dpre_dec.reshape(-1, attn))
        dh = (dpre_dec @ p["attn.w_dec"].T).transpose(1, 0, 2)
        dx_dec, dh0 = nn.gru_backward(dh, dec_cache, store)
        store.accumulate("dec_h0", dh0.sum(axis=0))

        denc_proj = dpre.sum(axis=1).transpose(1, 0, 2)
        store.accumulate("attn.w_enc", enc.reshape(-1, enc.shape[2]).T @ denc_proj.reshape(-1, attn))
        store.accumulate("attn.b", denc_proj.sum(axis=(0, 1)))
        denc = denc_proj @ p["attn.w_enc"].T
        denc[first, sent] += dx_dec[step, sent]
        dx = nn.bigru_backward(denc, enc_cache, store)[rows, cols]
        del enc, enc_cache, denc  # frees the batch's encoder state before the bag backward
        nn.embed_bag_backward(dx, bucket_lists, store.grads["emb"])
        return loss

    # -- inference -----------------------------------------------------

    def predict(self, sentences: list[list[Token]] | list[list[str]]) -> list[tuple[int, ...]]:
        """Greedy monotone decode of each sentence (tokens or surfaces);
        returns each sentence's internal boundary positions, always a valid
        boundary set.

        Sentences are decoded in chunks of batch_sentences, in lockstep:
        each step runs the decoder GRU on the chunk's unfinished sentences
        at once and points with one masked [k, T] attention.  A sentence
        finishes when it points at its last token.
        """
        surfaces = [[t.surface if isinstance(t, Token) else t for t in s] for s in sentences]
        if not all(surfaces):
            raise ValueError("cannot segment an empty sentence")
        p = self.store.params
        out = []
        for lo in range(0, len(surfaces), self.config.batch_sentences):
            enc, lengths = self._encode(surfaces[lo:lo + self.config.batch_sentences])[:2]
            enc_proj = (enc @ p["attn.w_enc"] + p["attn.b"]).transpose(1, 0, 2)
            positions = [[] for _ in lengths]
            live = np.arange(len(lengths))
            starts = np.zeros(len(lengths), dtype=np.int64)
            h = np.broadcast_to(p["dec_h0"], (len(lengths), p["dec_h0"].shape[0]))
            while live.size:
                h = nn.gru_forward(enc[starts[live], live][None], self.store, "dec", h0=h)[0][0]
                probs = self._point_distribution(
                    enc_proj[live], h[:, None], starts[live, None], lengths[live]
                )[0]
                ends = probs[:, 0].argmax(axis=1)
                going = ends < lengths[live] - 1
                live, h, ends = live[going], h[going], ends[going]
                for s, end in zip(live, ends):
                    positions[s].append(int(end))
                starts[live] = ends + 1
            out.extend(tuple(pos) for pos in positions)
        return out

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
