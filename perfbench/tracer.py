"""Per-layer spans and time marks recorded from outside the program.

The tracer wraps public functions of the ``gransum`` modules for the
duration of a traced pass and restores the originals afterwards, so an
untraced pass runs the program's own code unchanged.  ``pipeline`` and
``cli`` import functions by name (``from .oracle import
make_oracle_labels``), so wrapping one attribute is not enough: every
module namespace that holds the original function object is rebound.

A span's self time is its duration minus the time covered by the spans
it encloses.  Counts (work done) are recorded at the same boundaries.
``Marks`` is the light variant the untraced passes use to time pieces.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict


def _gru_direction(prefix: str) -> str:
    if prefix.endswith(".fwd"):
        return "fwd"
    if prefix.endswith(".bwd"):
        return "bwd"
    return "uni"


class _Patches:
    """Wraps gransum functions in place and restores them on remove()."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def _patch_function(self, module_name: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gransum" or mod_name.startswith("gransum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, module_name: str, qualname: str, make_wrapper) -> None:
        cls_name, meth = qualname.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[meth]
        self._restore.append((cls, meth, original))
        setattr(cls, meth, make_wrapper(original))

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        if "." in attr:
            self._patch_method(module_name, attr, make_wrapper)
        else:
            self._patch_function(module_name, attr, make_wrapper)

    def remove(self) -> None:
        """Restore every original function, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class Marks(_Patches):
    """Time marks for the untraced passes.

    A mark is taken at the start of every command and at the entry and
    exit of a few coarse functions (CUTS), which cuts a pass into pieces
    from a fraction of a millisecond to tens of milliseconds.  The inputs
    are the same in every pass, so the k-th piece does the same work in
    each; the sum over k of the fastest k-th piece is the pass's wall time
    with the slow moments of a shared machine left out.  It reads a little
    lower the more passes a run makes.  Only the entry and exit of the
    CUTS functions are timed, nothing is attributed to layers, and a CUTS
    function the program no longer has is skipped.
    """

    CUTS = [
        ("gransum.nn.core", "train_step"),
        ("gransum.segmenter", "PointerSegmenter.predict"),
        ("gransum.summarizer", "summarize"),
        ("gransum.oracle", "make_oracle_labels"),
        ("gransum.tokenization", "tokenize"),
    ]

    def __init__(self):
        super().__init__()
        self.times: list[float] = []
        self.mark = self.times.append

    def _wrap(self, fn):
        mark, clock = self.times.append, time.perf_counter

        def marked(*args, **kwargs):
            mark(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                mark(clock())

        marked.__wrapped__ = fn
        return marked

    def install(self) -> None:
        try:
            for module_name, attr in self.CUTS:
                owner = sys.modules.get(module_name)
                if owner is not None and hasattr(owner, attr.split(".")[0]):
                    self._patch(module_name, attr, self._wrap)
        except BaseException:
            self.remove()
            raise

    def pieces(self, end: float) -> list[float]:
        """Durations between consecutive marks, the last one up to end."""
        times = self.times + [end]
        return [b - a for a, b in zip(times, times[1:])]


class Tracer(_Patches):
    """Spans and work counts for one or more traced passes."""

    def __init__(self):
        super().__init__()
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        # (pass, T, H, direction) -> calls, pass in {"forward", "backward"}
        self.gru_shapes: Counter = Counter()
        self.lcs_shapes: Counter = Counter()  # (n, m) -> calls
        self._stack: list[float] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                entry = spans[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- count hooks ---------------------------------------------------

    def _on_gru_kernel_forward(self, args, kwargs, result):
        steps = args[0].shape[0]
        self.counts["kernels.gru_forward.steps"] += steps
        if steps == 1:
            self.counts["kernels.gru_forward.t1_calls"] += 1

    def _on_gru_kernel_backward(self, args, kwargs, result):
        self.counts["kernels.gru_backward.steps"] += args[1].shape[0]

    def _on_lcs(self, args, kwargs, result):
        n, m = args[0].shape[0], args[1].shape[0]
        self.counts["kernels.lcs.cells"] += n * m
        self.lcs_shapes[(n, m)] += 1

    def _on_gru_forward(self, args, kwargs, result):
        x, store, prefix = args[0], args[1], args[2]
        hidden = store.params[f"{prefix}.wh_n"].shape[0]
        self.gru_shapes[("forward", x.shape[0], hidden, _gru_direction(prefix))] += 1
        if prefix == "dec":
            self.counts["segmenter.decode_steps"] += 1

    def _on_gru_backward(self, args, kwargs, result):
        x, hs, _, _, _, prefix = args[1]
        self.gru_shapes[("backward", x.shape[0], hs.shape[1], _gru_direction(prefix))] += 1

    def _on_tokenize(self, args, kwargs, result):
        self.counts["tokenization.tokenize.tokens"] += len(result)

    def _on_split_sentences(self, args, kwargs, result):
        self.counts["work.sentences"] += len(result)

    def _on_load_corpus(self, args, kwargs, result):
        self.counts["work.docs"] += len(result)

    def _on_oracle(self, args, kwargs, result):
        self.counts["oracle.units_scored"] += len(args[0])

    def _on_units_for_view(self, args, kwargs, result):
        self.counts[f"work.units.{args[1].value}"] += len(result[0])

    def _on_save_checkpoint(self, args, kwargs, result):
        self.counts["nn.checkpoint.bytes"] += os.path.getsize(args[1])

    def _on_load_checkpoint(self, args, kwargs, result):
        self.counts["nn.checkpoint.bytes"] += os.path.getsize(args[0])

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; pair with remove()."""
        functions = [
            ("gransum.kernels", "gru_seq_forward", "kernels.gru_forward", self._on_gru_kernel_forward),
            ("gransum.kernels", "gru_seq_backward", "kernels.gru_backward", self._on_gru_kernel_backward),
            ("gransum.kernels", "lcs_mask_greedy", "kernels.lcs", self._on_lcs),
            ("gransum.nn.core", "gru_forward", "nn.gru_forward", self._on_gru_forward),
            ("gransum.nn.core", "gru_backward", "nn.gru_backward", self._on_gru_backward),
            ("gransum.nn.core", "embed_bag_forward", "nn.embed_bag_forward", None),
            ("gransum.nn.core", "embed_bag_backward", "nn.embed_bag_backward", None),
            ("gransum.nn.core", "transformer_forward", "nn.transformer_forward", None),
            ("gransum.nn.core", "transformer_backward", "nn.transformer_backward", None),
            ("gransum.nn.core", "train_step", "nn.train_step", None),
            ("gransum.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save", self._on_save_checkpoint),
            ("gransum.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load", self._on_load_checkpoint),
            ("gransum.segmenter", "segmenter_train", "segmenter.train", None),
            ("gransum.summarizer", "summarizer_train", "summarizer.train", None),
            ("gransum.summarizer", "summarize", "summarizer.summarize", None),
            ("gransum.oracle", "make_oracle_labels", "oracle.make_oracle_labels", self._on_oracle),
            ("gransum.rouge", "rouge_n", "rouge.rouge_n", None),
            ("gransum.rouge", "rouge_l", "rouge.rouge_l", None),
            ("gransum.tokenization", "tokenize", "tokenization.tokenize", self._on_tokenize),
            ("gransum.splitters", "split_sentences", "splitters.split_sentences", self._on_split_sentences),
            ("gransum.splitters", "split_clinical_rules", "splitters.split_clinical_rules", None),
            ("gransum.splitters", "split_clauses", "splitters.split_clauses", None),
            ("gransum.corpus", "load_corpus", "corpus.load_corpus", self._on_load_corpus),
            ("gransum.pipeline", "build_views", "pipeline.build_views", None),
            ("gransum.pipeline", "units_for_view", "pipeline.units_for_view", self._on_units_for_view),
            ("gransum.pipeline", "build_document", "pipeline.build_document", None),
            ("gransum.pipeline", "rouge_eval", "pipeline.rouge_eval", None),
            ("gransum.analysis", "corpus_boundary_prf", "analysis.corpus_boundary_prf", None),
            ("gransum.cli", "main", "cli.main", None),
        ]
        methods = [
            ("gransum.nn.core", "Adam.step", "nn.adam_step", None),
            ("gransum.segmenter", "PointerSegmenter.predict", "segmenter.predict", None),
        ]
        try:
            for module_name, attr, name, hook in functions + methods:
                self._patch(module_name, attr, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
        except BaseException:
            self.remove()
            raise

    # -- results -------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Exact counts that must repeat across passes on the same inputs:
        the recorded counts plus every span's call count."""
        out = {f"{name}.calls": entry[0] for name, entry in self.spans.items()}
        out.update(self.counts)
        return out

    def self_seconds(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def total_seconds(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def lcs_cells_quantiles(self) -> tuple[float, int]:
        """Median and maximum cells (n*m) per LCS call."""
        cells = sorted(n * m for (n, m), c in self.lcs_shapes.items() for _ in range(c))
        if not cells:
            return 0.0, 0
        return float(statistics.median(cells)), cells[-1]

    def shapes_json(self) -> dict:
        return {
            "gru": [
                {"pass": p, "T": t, "H": h, "direction": d, "calls": c}
                for (p, t, h, d), c in sorted(self.gru_shapes.items())
            ],
            "lcs": [
                {"n": n, "m": m, "calls": c} for (n, m), c in sorted(self.lcs_shapes.items())
            ],
        }
