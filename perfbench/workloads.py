"""The benchmark's workloads: inputs made from a seed, the timed commands,
and the checks on their outputs.

Every workload is one caller in a closed loop: each command starts only
after the previous one returned.  Commands go through the user-facing
entry point ``gransum.cli.main``; the program receives only the files the
set-up wrote.

Why these two:

- ``train-pointer``: ``run-experiment`` with the pointer segmenter and all
  three granularities, the paper's experiment and the roadmap's unit of
  account.  Training dominates: in a traced pass at these sizes the GRU
  kernels (forward and backward) took 61% of the wall, embed-bag forward
  and backward 7%, the Adam step 3%, and ROUGE, LCS and tokenization 9%.
- ``label-score``: oracle labels for every granularity with the rule
  splitter, rule-segment boundary quality, and ROUGE of a lead baseline
  on long summaries.  No model runs: in a traced pass the LCS kernel
  took 37% of the wall, tokenization 26%, ``rouge_n`` 15% and
  ``rouge_l`` 5%, so a GRU change must show no effect here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

KINDS = ("SENTENCE", "SEGMENT", "CLAUSE")


class SetupError(RuntimeError):
    """A set-up command failed; the workload cannot be measured."""


def run_command(argv: list[str]) -> tuple[int, str]:
    """One operation: ``gransum <argv>`` in-process; returns (code, stderr).

    The entry point is looked up at every call, so a traced pass runs the
    wrapped ``cli.main``.
    """
    from gransum import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue().strip()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate_corpus(root: str, seed: int, spec: dict) -> tuple[dict[str, str], float]:
    """gen-synthetic with a SyntheticSpec; returns the written paths and
    the command's wall time."""
    paths = {
        "corpus": os.path.join(root, "corpus.jsonl"),
        "gold": os.path.join(root, "corpus_gold.jsonl"),
        "hooks": os.path.join(root, "hooks.json"),
        "patterns": os.path.join(root, "patterns.json"),
    }
    spec_path = os.path.join(root, "corpus_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(dict(spec, seed=seed), fh, sort_keys=True)
    t0 = time.perf_counter()
    code, err = run_command(
        [
            "gen-synthetic", "--spec", spec_path,
            "--corpus-out", paths["corpus"], "--gold-out", paths["gold"],
            "--hooks-out", paths["hooks"], "--patterns-out", paths["patterns"],
        ]
    )
    if code != 0:
        raise SetupError(f"gransum gen-synthetic exited {code}: {err}")
    return paths, time.perf_counter() - t0


def summary_budget(corpus_path: str) -> str:
    """Mean non-space characters of the reference summaries (the 'auto' budget)."""
    lengths = []
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            text = json.loads(line)["summary"]
            lengths.append(sum(1 for c in text if not c.isspace()))
    return repr(sum(lengths) / len(lengths))


def _rouge_means(path: str) -> dict[str, float]:
    """eval-rouge mean F1 as percentages."""
    with open(path, encoding="utf-8") as fh:
        means = json.load(fh)["means"]
    return {
        "rouge2_f1": 100.0 * means["rouge2"]["f1"],
        "rougeL_f1": 100.0 * means["rougeL"]["f1"],
    }


def _micro_f1(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        return float(json.load(fh)["micro"]["f1"])


def _valid_percent(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 100.0


def _holds(check) -> bool:
    """check() on output files; unreadable or malformed output fails."""
    try:
        return bool(check())
    except (OSError, ValueError, KeyError, TypeError):
        return False


@dataclass(frozen=True)
class Operation:
    """One command of a pass and the files it writes."""

    label: str
    argv: list[str]
    outputs: list[str]


class Workload:
    """Base class: subclasses define set-up, the pass and its checks."""

    name = ""
    pinned_digests = False  # outputs on the pinned seed must match digests.json
    generate_s = 0.0  # gen-synthetic time of the last set-up

    def setup(self, root: str, seed: int) -> dict[str, str]:
        """Write the inputs; returns digests of everything written, to
        compare across set-ups."""
        raise NotImplementedError

    def operations(self, out: str) -> list[Operation]:
        raise NotImplementedError

    def validate(self, out: str) -> list[str]:
        """Labels of operations whose outputs are malformed."""
        raise NotImplementedError

    def quality(self, out: str) -> dict[str, float]:
        """rouge2_f1, rougeL_f1 (percent) and boundary_f1 (ratio)."""
        raise NotImplementedError

    def details(self, out: str) -> list[str]:
        """Extra human-readable result lines."""
        return []


class TrainPointer(Workload):
    name = "train-pointer"
    SPEC = {"case_count": 10, "sentences_per_record": 10, "copy_rate": 0.25, "chunks_per_summary": 12}
    CONFIG = {
        "segment_method": "pointer",
        "kinds": list(KINDS),
        "oracle_budget": "auto",
        "dev_fraction": 0.1,
        "test_fraction": 0.4,
        "seed": 1234,
        "segmenter": {"epochs": 1, "seed": 11},
        "summarizer": {"epochs": 1, "seed": 23},
    }

    def setup(self, root, seed):
        self.paths, self.generate_s = generate_corpus(root, seed, self.SPEC)
        self.config_path = os.path.join(root, "config.json")
        config = dict(
            self.CONFIG,
            synthetic=None,
            corpus_path=self.paths["corpus"],
            gold_boundaries_path=self.paths["gold"],
            hooks_path=self.paths["hooks"],
            patterns_path=self.paths["patterns"],
        )
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True)
        return {k: file_digest(p) for k, p in self.paths.items()}

    def operations(self, out):
        outputs = ["report.json", "report.tsv", "segmenter.ckpt"]
        for kind in KINDS:
            outputs += [f"summaries_{kind.lower()}.jsonl", f"summarizer_{kind.lower()}.ckpt"]
        return [
            Operation(
                "run-experiment",
                ["run-experiment", "--config", self.config_path, "--out", out],
                [os.path.join(out, name) for name in outputs],
            )
        ]

    def _report(self, out):
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def validate(self, out):
        def report_ok():
            report = self._report(out)
            return (
                sorted(report["summarization"]) == sorted(KINDS)
                and all(
                    _valid_percent(report["summarization"][k]["rouge"][m]["f1"])
                    for k in KINDS
                    for m in ("rouge1", "rouge2", "rougeL")
                )
                and 0.0 <= report["segmentation"]["pointer"]["micro"]["f1"] <= 1.0
            )

        return [] if _holds(report_ok) else ["run-experiment"]

    def quality(self, out):
        report = self._report(out)
        rouge = {k: report["summarization"][k]["rouge"] for k in KINDS}
        return {
            "rouge2_f1": sum(r["rouge2"]["f1"] for r in rouge.values()) / len(KINDS),
            "rougeL_f1": sum(r["rougeL"]["f1"] for r in rouge.values()) / len(KINDS),
            "boundary_f1": float(report["segmentation"]["pointer"]["micro"]["f1"]),
        }

    def details(self, out):
        report = self._report(out)
        lines = [
            f"rouge2_f1.{k} {report['summarization'][k]['rouge']['rouge2']['f1']:.4f} %"
            for k in KINDS
        ]
        lines.append(f"pointer_f1 {report['segmentation']['pointer']['micro']['f1']:.4f} ratio")
        c = report["corpus"]
        lines.append(f"corpus: {c['cases']} cases, train {c['train']}, dev {c['dev']}, test {c['test']}")
        return lines


class LabelScore(Workload):
    name = "label-score"
    pinned_digests = True
    SPEC = {"case_count": 20, "sentences_per_record": 10, "copy_rate": 0.25, "chunks_per_summary": 40}

    def setup(self, root, seed):
        self.paths, self.generate_s = generate_corpus(root, seed, self.SPEC)
        self.budget = summary_budget(self.paths["corpus"])
        self.lead_path = os.path.join(root, "lead.jsonl")
        self._write_lead_baseline(self.paths["corpus"], float(self.budget), self.lead_path)
        digests = {k: file_digest(p) for k, p in self.paths.items()}
        digests["lead"] = file_digest(self.lead_path)
        return digests

    @staticmethod
    def _write_lead_baseline(corpus_path, budget, out_path):
        """Leading record lines until the running length passes the budget."""
        with open(corpus_path, encoding="utf-8") as src, open(out_path, "w", encoding="utf-8") as dst:
            for line in src:
                case = json.loads(line)
                chosen, used = [], 0
                for record in case["records"]:
                    chosen.append(record)
                    used += sum(1 for c in record if not c.isspace())
                    if used > budget:
                        break
                row = {"case_id": case["id"], "selected_units": [], "summary_text": "\n".join(chosen)}
                dst.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")

    def operations(self, out):
        p = self.paths
        split = ["--hooks", p["hooks"], "--patterns", p["patterns"], "--method", "rules"]
        ops = [
            Operation(
                f"make-oracle {kind}",
                ["make-oracle", "--corpus", p["corpus"], *split, "--kind", kind,
                 "--budget", self.budget, "--output", os.path.join(out, f"labels_{kind.lower()}.jsonl")],
                [os.path.join(out, f"labels_{kind.lower()}.jsonl")],
            )
            for kind in KINDS
        ]
        ops.append(
            Operation(
                "eval-segmenter",
                ["eval-segmenter", "--corpus", p["corpus"], *split, "--gold", p["gold"],
                 "--output", os.path.join(out, "segmenter_eval.json")],
                [os.path.join(out, "segmenter_eval.json")],
            )
        )
        ops.append(
            Operation(
                "eval-rouge",
                ["eval-rouge", "--candidates", self.lead_path, "--corpus", p["corpus"],
                 "--output", os.path.join(out, "rouge.json")],
                [os.path.join(out, "rouge.json")],
            )
        )
        return ops

    def validate(self, out):
        def labels_ok(kind):
            with open(os.path.join(out, f"labels_{kind.lower()}.jsonl"), encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            return rows and all(r["kind"] == kind for r in rows) and any(r["gold"] for r in rows)

        bad = [f"make-oracle {kind}" for kind in KINDS if not _holds(lambda: labels_ok(kind))]
        if not _holds(lambda: all(_valid_percent(v) for v in _rouge_means(os.path.join(out, "rouge.json")).values())):
            bad.append("eval-rouge")
        if not _holds(lambda: 0.0 <= _micro_f1(os.path.join(out, "segmenter_eval.json")) <= 1.0):
            bad.append("eval-segmenter")
        return bad

    def quality(self, out):
        q = _rouge_means(os.path.join(out, "rouge.json"))
        q["boundary_f1"] = _micro_f1(os.path.join(out, "segmenter_eval.json"))
        return q


WORKLOADS = {w.name: w for w in (TrainPointer, LabelScore)}
