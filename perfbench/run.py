#!/usr/bin/env python3
"""The gransum benchmark.

Run from the root of a gransum checkout:

    python3 perfbench/run.py --workload train-pointer --seed 1 --seconds 50 --trace 0

A pass runs every command of the workload once (see workloads.py) on the
inputs made from ``--seed``; passes repeat until ``--seconds`` have gone,
at least three times.  The inputs are written under ``.perfbench/`` in the
checkout, and ``gransum`` is imported from the checkout's ``src``.

``--trace 0`` measures the end-to-end metrics untraced; only the time
marks of ``wall_s`` wrap a few of the program's functions:

- ``wall_s``: the wall time of one pass, as the sum over its pieces of
  each piece's fastest run.  Time marks at the start of each command and
  around a few coarse functions (``Marks`` in tracer.py) cut every pass
  the same way into hundreds of pieces.  On a shared 2-vCPU x86-64
  virtual machine (numpy 2.4, OpenBLAS 0.3), identical passes ran up to
  1.5x slower, in phases lasting from seconds to minutes; the shorter the
  timed unit, the likelier it fits a quiet moment, so the sum of the
  fastest pieces is steadier than the fastest pass.  The fastest, median
  and quartile pass walls are printed too.
- ``setup_s``: the median of SETUP_REPEATS set-ups; one set-up imports
  ``gransum.cli`` in a fresh interpreter and writes the inputs.
- ``peak_rss_mb``: peak resident memory of this process, which runs every
  command in-process, after the timed passes.
- ``rouge2_f1``, ``rougeL_f1`` (percent) and ``boundary_f1`` (ratio):
  from one more pass on inputs made from PINNED_SEED, so they are the
  same for every ``--seed`` and move only when the program's arithmetic
  does.  train-pointer: means over the three granularities of the test
  ROUGE in report.json, and the pointer's micro boundary F1.  label-score:
  eval-rouge of the lead baseline and eval-segmenter of the rule
  segmenter.

``--trace 1`` alternates untraced and traced passes.  The traced ones wrap
each layer's public functions (see tracer.py) and give the per-layer self
times (fastest traced pass), exact work counts (which must repeat in every
traced pass) and kernel shape histograms; the difference between the
fastest traced and untraced walls is ``trace.overhead_s``.

An operation is one command; it fails when it exits non-zero, when its
output check fails, or when its output bytes differ from the first pass's.
label-score outputs on the pinned seed must match the digests committed
in digests.json.  Human-readable lines, machine facts among them, come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import Marks, Tracer
from workloads import WORKLOADS, SetupError, file_digest, run_command

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
WORK_DIR = ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 3
PINNED_SEED = 20250808

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rouge2_f1", "%"),
    ("rougeL_f1", "%"),
    ("boundary_f1", "ratio"),
]

# Spans whose self time is reported, under the span's own name.
SELF_TIME_SPANS = [
    "kernels.gru_forward",
    "kernels.gru_backward",
    "kernels.lcs",
    "rouge.rouge_n",
    "rouge.rouge_l",
    "oracle.make_oracle_labels",
    "tokenization.tokenize",
    "splitters.split_sentences",
    "splitters.split_clinical_rules",
    "splitters.split_clauses",
    "nn.gru_forward",
    "nn.gru_backward",
    "nn.train_step",
    "nn.adam_step",
    "nn.embed_bag_forward",
    "nn.embed_bag_backward",
    "nn.transformer_forward",
    "nn.transformer_backward",
    "segmenter.train",
    "segmenter.predict",
    "summarizer.train",
    "summarizer.summarize",
    "corpus.load_corpus",
    "pipeline.build_views",
    "pipeline.build_document",
    "pipeline.rouge_eval",
    "analysis.corpus_boundary_prf",
    "cli.main",
]

# Exact work counts, asserted equal across the traced passes of a run.
WORK_COUNTS = [
    "work.docs",
    "work.sentences",
    "tokenization.tokenize.calls",
    "tokenization.tokenize.tokens",
    "work.units.SENTENCE",
    "work.units.SEGMENT",
    "work.units.CLAUSE",
    "oracle.make_oracle_labels.calls",
    "oracle.units_scored",
    "rouge.rouge_n.calls",
    "kernels.lcs.calls",
    "kernels.lcs.cells",
    "kernels.gru_forward.calls",
    "kernels.gru_forward.steps",
    "kernels.gru_forward.t1_calls",
    "kernels.gru_backward.calls",
    "kernels.gru_backward.steps",
    "splitters.split_clauses.calls",
    "nn.train_step.calls",
    "segmenter.predict.calls",
    "segmenter.decode_steps",
    "summarizer.summarize.calls",
    "nn.checkpoint.bytes",
    "cli.main.calls",
]

PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIME_SPANS]
    + [(name, "count") for name in WORK_COUNTS]
    + [
        ("kernels.lcs.cells_median", "count"),
        ("kernels.lcs.cells_max", "count"),
        ("nn.checkpoint.save_s", "s"),
        ("nn.checkpoint.load_s", "s"),
        ("corpus.generate_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    from gransum import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "NUMBA_ENABLED": bool(kernels.NUMBA_ENABLED),
        "GRANSUM_NUMBA": os.environ.get("GRANSUM_NUMBA"),
        "gransum": os.path.relpath(os.path.dirname(kernels.__file__)),
    }


def _import_gransum(root: str) -> None:
    """Import gransum from <root>/src, here and in child processes."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gransum", "__init__.py")):
        raise SystemExit(
            f"error: {root} is not a gransum checkout (no src/gransum); "
            "run this from the repository root"
        )
    sys.path.insert(0, src)
    # Child processes started by the program must import the same package.
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    import gransum

    if os.path.dirname(os.path.abspath(gransum.__file__)) != os.path.join(src, "gransum"):
        raise SystemExit(f"error: gransum was imported from {gransum.__file__}, not {src}")


def _run_pass(workload, out_dir, tracer=None):
    """Run one pass, traced or with time marks; returns (wall seconds,
    operations, failed labels, piece seconds or None when traced)."""
    os.makedirs(out_dir, exist_ok=True)
    ops = workload.operations(out_dir)
    failed = set()
    marks = Marks() if tracer is None else None
    recorder = tracer or marks
    gc.collect()
    recorder.install()
    results = []
    t0 = time.perf_counter()
    try:
        for op in ops:
            if marks is not None:
                marks.mark(time.perf_counter())
            results.append((op, run_command(op.argv)))
    finally:
        end = time.perf_counter()
        recorder.remove()
    wall = end - t0
    for op, (code, err) in results:
        if code != 0:
            print(f"FAILED {op.label}: exit {code}: {err}")
            failed.add(op.label)
    if not failed:
        for label in workload.validate(out_dir):
            print(f"FAILED {label}: output check")
            failed.add(label)
    return wall, ops, failed, None if marks is None else marks.pieces(end)


def _digests(ops) -> dict[str, list]:
    return {
        op.label: [file_digest(p) if os.path.exists(p) else None for p in op.outputs]
        for op in ops
    }


def _fastest_pieces(pieces):
    """Sum over k of the fastest k-th piece, over the passes cut into as
    many pieces as the first; returns (seconds, passes used)."""
    same = [p for p in pieces if len(p) == len(pieces[0])]
    return sum(min(column) for column in zip(*same)), len(same)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import gransum.cli; "
    "elapsed = time.perf_counter() - t0; import gransum; print(gransum.__file__); print(elapsed)"
)


def _child_import_seconds(src: str) -> float:
    """Import time of gransum.cli in a fresh interpreter, which must find
    the package in the checkout's src through the inherited PYTHONPATH."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ), capture_output=True, text=True, timeout=120,
    )
    lines = probe.stdout.split()
    if probe.returncode != 0 or len(lines) != 2:
        raise SetupError(f"importing gransum in a child process failed: {probe.stderr.strip()}")
    if os.path.dirname(os.path.abspath(lines[0])) != os.path.join(src, "gransum"):
        raise SetupError(f"a child process imported gransum from {lines[0]}, not {src}")
    return float(lines[1])


def _timed_setup(workload, inputs_dir, seed, counters):
    """Set up SETUP_REPEATS times.  One set-up is the import of gransum in
    a fresh interpreter plus writing the inputs.  Returns the median
    set-up seconds, the median corpus generation seconds and every set-up
    time."""
    src = os.path.join(os.getcwd(), "src")
    times, generate, reference = [], [], None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        os.makedirs(inputs_dir)
        import_s = _child_import_seconds(src)
        gc.collect()
        t0 = time.perf_counter()
        digests = workload.setup(inputs_dir, seed)
        times.append(import_s + time.perf_counter() - t0)
        generate.append(workload.generate_s)
        counters["attempted"] += 1
        if reference is None:
            reference = digests
        elif digests != reference:
            print("FAILED setup: inputs or checkpoints differ between set-ups")
            counters["failed"] += 1
    return statistics.median(times), statistics.median(generate), times


def _pinned_pass(workload, work_dir, counters):
    """One untimed pass on inputs made from PINNED_SEED.

    The quality metrics come from this pass, so they do not depend on
    ``--seed`` and move only when the program's arithmetic changes.
    label-score outputs are also compared byte for byte with the digests
    committed in digests.json.  Returns the quality metrics, or None if
    the pass failed.
    """
    inputs = os.path.join(work_dir, "pinned-inputs")
    out = os.path.join(work_dir, "pinned-out")
    os.makedirs(inputs)
    workload.setup(inputs, PINNED_SEED)
    _, ops, failed, _ = _run_pass(workload, out)
    if workload.pinned_digests:
        digests = _digests(ops)
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)["outputs"]
        for op in ops:
            if op.label not in failed and digests[op.label] != expected.get(op.label):
                print(f"FAILED pinned {op.label}: output differs from digests.json (seed {PINNED_SEED})")
                failed.add(op.label)
    counters["attempted"] += len(ops)
    counters["failed"] += len(failed)
    return None if failed else workload.quality(out)


def _print_metric(name, value, unit):
    print(f"  {name:<40} {value:>16.6f} {unit}" if isinstance(value, float) else f"  {name:<40} {value:>16} {unit}")


def _ratio(name, num, num_name, den, den_name):
    value = num / den if den else 0.0
    print(f"  {name:<40} {value:>16.4f}   ({num_name} {num} / {den_name} {den})")


def _per_layer_metrics(tracers, untraced, traced, generate_s):
    def fastest(fn):
        return min(fn(t) for t in tracers)

    first = tracers[0]
    counts = first.work_counts()
    cells_median, cells_max = first.lcs_cells_quantiles()
    values = {f"{name}.self_s": fastest(lambda t, n=name: t.self_seconds(n)) for name in SELF_TIME_SPANS}
    values.update({name: counts.get(name, 0) for name in WORK_COUNTS})
    values.update(
        {
            "kernels.lcs.cells_median": cells_median,
            "kernels.lcs.cells_max": cells_max,
            "nn.checkpoint.save_s": fastest(lambda t: t.total_seconds("nn.checkpoint.save")),
            "nn.checkpoint.load_s": fastest(lambda t: t.total_seconds("nn.checkpoint.load")),
            "corpus.generate_s": generate_s,
            "trace.untraced_wall_s": min(untraced),
            "trace.traced_wall_s": min(traced),
            "trace.overhead_s": min(traced) - min(untraced),
        }
    )
    return values


def _print_trace_report(tracers, values, name, facts):
    first = tracers[0]
    c = values
    print("work counts (equal in every traced pass) and ratios:")
    _ratio("tokens per doc read", c["tokenization.tokenize.tokens"], "tokens", c["work.docs"], "docs")
    _ratio("sentences per doc read", c["work.sentences"], "sentences", c["work.docs"], "docs")
    _ratio("steps per GRU forward call", c["kernels.gru_forward.steps"], "steps", c["kernels.gru_forward.calls"], "calls")
    _ratio("T=1 share of GRU forward calls", c["kernels.gru_forward.t1_calls"], "T=1 calls", c["kernels.gru_forward.calls"], "calls")
    _ratio("steps per GRU backward call", c["kernels.gru_backward.steps"], "steps", c["kernels.gru_backward.calls"], "calls")
    _ratio("cells per LCS call", c["kernels.lcs.cells"], "cells", c["kernels.lcs.calls"], "calls")
    _ratio("units scored per oracle call", c["oracle.units_scored"], "units", c["oracle.make_oracle_labels.calls"], "calls")
    _ratio("decoder steps per predict call", c["segmenter.decode_steps"], "steps", c["segmenter.predict.calls"], "calls")
    wall = c["trace.traced_wall_s"]
    print(f"self time by layer (fastest of {len(tracers)} traced passes; share of traced wall {wall:.3f} s):")
    for span in sorted(SELF_TIME_SPANS, key=lambda s: -c[f"{s}.self_s"]):
        v = c[f"{span}.self_s"]
        print(f"  {span:<40} {v:>10.4f} s  {100.0 * v / wall:6.2f} %")
    if first.gru_shapes:
        print("GRU shapes (pass, T, H, direction) -> calls, most frequent first:")
        for key, calls in sorted(first.gru_shapes.items(), key=lambda kv: -kv[1])[:8]:
            print(f"  {key}: {calls}")
    if first.lcs_shapes:
        print(f"LCS cells per call: median {c['kernels.lcs.cells_median']}, max {c['kernels.lcs.cells_max']}")
    path = os.path.join(WORK_DIR, f"trace-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "machine": facts,
                "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(first.spans.items())},
                "counts": dict(sorted(first.counts.items())),
                "shapes": first.shapes_json(),
            },
            fh,
            indent=1,
        )
    print(f"first traced pass written to {path}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    _import_gransum(root)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    facts = machine_facts()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))

    counters = {"attempted": 0, "failed": 0}
    try:
        setup_s, generate_s, setup_times = _timed_setup(workload, os.path.join(work_dir, "inputs"), args.seed, counters)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    # The first pass's outputs are the reference every later pass must
    # reproduce byte for byte.
    walls = {False: [], True: []}
    pieces = []
    tracers = []
    reference = None
    k = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and k % 2 == 1
        tracer = Tracer() if traced else None
        out = os.path.join(work_dir, f"pass-{k}")
        wall, ops, failed, pass_pieces = _run_pass(workload, out, tracer)
        walls[traced].append(wall)
        if pass_pieces is not None:
            pieces.append(pass_pieces)
        digests = _digests(ops)
        if reference is None:
            reference = digests
        else:
            for op in ops:
                if op.label not in failed and digests[op.label] != reference[op.label]:
                    print(f"FAILED {op.label}: output differs from the first pass")
                    failed.add(op.label)
            shutil.rmtree(out)
        if tracer is not None:
            if tracers and tracer.work_counts() != tracers[0].work_counts():
                print("FAILED work counts differ from the first traced pass")
                failed.add(ops[0].label)
            tracers.append(tracer)
        counters["attempted"] += len(ops)
        counters["failed"] += len(failed)
        k += 1
        enough = len(tracers) >= 1 if args.trace else k >= MIN_PASSES
        if enough and time.perf_counter() >= deadline and (not args.trace or traced):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        quality = _pinned_pass(WORKLOADS[args.workload](), work_dir, counters)
    except SetupError as exc:
        print(f"error: set-up of the pinned pass failed: {exc}", file=sys.stderr)
        return 1
    untraced = walls[False]
    print(f"passes: {len(untraced)} untraced, {len(walls[True])} traced")
    print("untraced pass walls (s): " + " ".join(f"{w:.4f}" for w in untraced))
    print("set-ups, each with a fresh-interpreter import (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    attempted, failed = counters["attempted"], counters["failed"]
    print(f"error_rate {failed / attempted:.6f} ratio  (failed {failed} / attempted {attempted} operations)")

    if args.trace:
        values = _per_layer_metrics(tracers, untraced, walls[True], generate_s)
        _print_trace_report(tracers, values, workload.name, facts)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        lo, hi = _quartiles(untraced)
        print(
            f"pass walls over {len(untraced)} passes: fastest {min(untraced):.4f} s, "
            f"median {statistics.median(untraced):.4f} s, quartiles {lo:.4f} .. {hi:.4f} s"
        )
        wall_s, used = _fastest_pieces(pieces)
        print(f"wall_s {wall_s:.4f} s: fastest of each of {len(pieces[0])} pieces, over {used} of {len(pieces)} passes")
        if used < len(pieces):
            print("  the other passes were cut into another number of pieces and were left out")
        details = []
        if quality is None:  # the pass failed and is counted; report zeros
            quality = {name: 0.0 for name in ("rouge2_f1", "rougeL_f1", "boundary_f1")}
        else:
            details = workload.details(os.path.join(work_dir, "pinned-out"))
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for line in details:
            print(f"  pinned seed {PINNED_SEED}: {line}")
    print("metrics:")
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
