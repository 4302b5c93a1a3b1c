"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The training-heavy criteria are marked slow.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest

from gransum import nn
from gransum.analysis import (
    classify_relation,
    corpus_boundary_prf,
    granularity_stats,
    relation_census,
)
from gransum.corpus import SyntheticSpec, generate_synthetic
from gransum.oracle import make_oracle_labels
from gransum.pipeline import PipelineConfig, build_views, run_experiment
from gransum.rouge import rouge_n, union_lcs
from gransum.segmenter import (
    PointerSegmenter,
    SegmenterConfig,
    SentenceExample,
    segmenter_train,
)
from gransum.spans import TextSpan, Unit, UnitKind, budget_select
from gransum.splitters import (
    BoundarySet,
    RuleConfig,
    split_clauses,
    split_clinical_rules,
    split_fullstop,
    split_fullstop_verb,
    split_sentences,
    token_ranges,
    units_from_boundaries,
)
from gransum.summarizer import DocumentExample, Summarizer, SummarizerConfig, prepare_documents
from gransum.tokenization import LexiconHooks, tokenize

from unit_checks import check_tiling, finite_difference_check


def report_line(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ----------------------------------------------------------------------
# Criterion 1: ROUGE worked example, exact
# ----------------------------------------------------------------------

def test_c1_union_lcs_worked_example():
    count, ratio = union_lcs(
        ["w1", "w2", "w3", "w4"],
        [["w1", "w2", "w6", "w7"], ["w1", "w8", "w4", "w9"]],
    )
    assert count == 3
    assert ratio == 3 / 4
    report_line("C1", "union LCS ratio exactly 3/4")


# ----------------------------------------------------------------------
# Criterion 2: metric oracle equivalence
# ----------------------------------------------------------------------

def _brute_force_rouge_n(cand, ref, n):
    def grams(seq):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i:i + n])
            out[g] = out.get(g, 0) + 1
        return out

    cg, rg = grams(cand), grams(ref)
    match = sum(min(c, rg.get(g, 0)) for g, c in cg.items())
    precision = match / sum(cg.values()) if cg else 0.0
    recall = match / sum(rg.values()) if rg else 0.0
    return precision, recall


def _exhaustive_lcs_len(a, b):
    if len(a) > len(b):
        a, b = b, a

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(x in it for x in sub)

    for k in range(len(a), 0, -1):
        for idx in combinations(range(len(a)), k):
            if is_subseq([a[i] for i in idx], b):
                return k
    return 0


def test_c2_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    vocab = [f"w{i}" for i in range(7)]
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        cand = [vocab[i] for i in rng.integers(0, 7, rng.integers(0, 14))]
        ref = [vocab[i] for i in rng.integers(0, 7, rng.integers(0, 14))]
        score = rouge_n(cand, ref, n)
        p, r = _brute_force_rouge_n(cand, ref, n)
        assert score.precision == p and score.recall == r

    alphabet = ["x", "y", "z"]
    short = []
    for length in range(1, 4):
        seqs = [[]]
        for _ in range(length):
            seqs = [s + [c] for s in seqs for c in alphabet]
        short.extend(seqs)
    pairs = 0
    for a in short:
        for b in short:
            count, _ = union_lcs(a, [b])
            assert count == _exhaustive_lcs_len(a, b)
            pairs += 1
    for _ in range(1500):
        a = [alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 9))]
        b = [alphabet[i] for i in rng.integers(0, 3, rng.integers(4, 9))]
        count, _ = union_lcs(a, [b])
        assert count == _exhaustive_lcs_len(a, b)
        pairs += 1
    report_line("C2", f"1000 rouge_n pairs exact; {pairs} LCS pairs vs exhaustive")


# ----------------------------------------------------------------------
# Criterion 3: oracle labeler equivalence
# ----------------------------------------------------------------------

def _reference_oracle(entries, reference, budget, mode="keep"):
    scores = [rouge_n(list(e.tokens), reference, 2).f1 for e in entries]
    return _reference_selection(scores, entries, budget, mode)


def _reference_selection(scores, entries, budget, mode="keep"):
    scored = [
        (scores[i], e.sentence_index, e.unit_index, i) for i, e in enumerate(entries)
    ]
    ranked = sorted(scored, key=lambda t: (-t[0], t[1], t[2]))
    chosen = set()
    cum = 0
    for _, _, _, i in ranked:
        length = entries[i].char_length
        if mode == "drop" and cum + length > budget:
            break
        chosen.add(i)
        cum += length
        if cum > budget:
            break
    return chosen


def test_c3_oracle_labeler_equivalence():
    rng = np.random.default_rng(77)
    vocab = [f"t{i}" for i in range(10)]

    def random_case():
        reference = [vocab[i] for i in rng.integers(0, 10, rng.integers(4, 24))]
        entries = []
        for si in range(int(rng.integers(1, 6))):
            for ui in range(int(rng.integers(1, 4))):
                toks = tuple(vocab[i] for i in rng.integers(0, 10, rng.integers(1, 8)))
                length = int(rng.integers(1, 16))
                entries.append(
                    Unit(si, ui, UnitKind.SEGMENT, TextSpan(0, max(1, length)),
                         0, len(toks), toks, length)
                )
        return entries, reference

    def budgets_for(entries):
        lengths = [e.char_length for e in entries]
        # random budgets plus the edge cases 0, 1, and exactly-at-budget sums
        return [0, 1, float(rng.integers(0, 50)), float(sum(lengths[:2]))]

    checked = 0
    for _ in range(200):
        entries, reference = random_case()
        for budget in budgets_for(entries):
            for mode in ("keep", "drop"):
                labels = make_oracle_labels(entries, reference, budget, mode)
                got = {i for i, l in enumerate(labels) if l.gold}
                assert got == _reference_oracle(entries, reference, budget, mode)
                checked += 1

    # The selector on its own, as inference calls it: float scores with
    # ties, units out of document order, an ndarray of scores.
    selected = 0
    for _ in range(200):
        entries, _ = random_case()
        entries = [entries[i] for i in rng.permutation(len(entries))]
        scores = rng.choice(rng.random(3), size=len(entries))
        for budget in budgets_for(entries):
            for mode in ("keep", "drop"):
                got = budget_select(scores, entries, budget, mode)
                assert got == sorted(got)
                assert set(got) == _reference_selection(scores, entries, budget, mode)
                selected += 1
    report_line(
        "C3",
        f"{checked} case/budget/mode combinations exact; "
        f"{selected} budget_select calls on tied float scores exact",
    )


# ----------------------------------------------------------------------
# Criterion 4: gradient checks
# ----------------------------------------------------------------------

def test_c4_gradient_checks():
    worst = {}

    store = nn.ParameterStore(0)
    store.add("w", (4, 3))
    store.add("b", (3,), init="zeros")
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def linear_loss():
        store.zero_grads()
        y, cache = nn.linear_forward(x, store, "w", "b")
        nn.linear_backward(2.0 * (y - target) / y.size, cache, store)
        return float(((y - target) ** 2).mean())

    worst["linear"] = finite_difference_check(linear_loss, store)

    store = nn.ParameterStore(2)
    store.add("g", (6,), init="ones")
    store.add("b", (6,), init="zeros")
    x = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 6))

    def ln_loss():
        store.zero_grads()
        y, cache = nn.layer_norm_forward(x, store, "g", "b")
        nn.layer_norm_backward(2.0 * (y - target) / y.size, cache, store)
        return float(((y - target) ** 2).mean())

    worst["layer_norm"] = finite_difference_check(ln_loss, store)

    store = nn.ParameterStore(3)
    nn.add_transformer_params(store, "tf", 6, 10)
    x = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 6))

    def tf_loss():
        store.zero_grads()
        y, cache = nn.transformer_forward(x, store, "tf")
        nn.transformer_backward(2.0 * (y - target) / y.size, cache, store)
        return float(((y - target) ** 2).mean())

    worst["transformer_block"] = finite_difference_check(tf_loss, store)

    store = nn.ParameterStore(4)
    nn.add_bigru_params(store, "g", 3, 4)
    x = rng.normal(size=(6, 1, 3))
    target = rng.normal(size=(6, 1, 8))

    def bigru_loss():
        store.zero_grads()
        [h], cache = nn.bigru_forward([x], [store], "g")
        nn.bigru_backward([2.0 * (h - target) / h.size], cache, [store])
        return float(((h - target) ** 2).mean())

    worst["bigru"] = finite_difference_check(bigru_loss, store)

    store = nn.ParameterStore(5)
    store.add("logits", (8,))
    labels = (rng.random(8) > 0.5).astype(np.float64)

    def bce_loss():
        store.zero_grads()
        loss, dlogits = nn.sigmoid_bce(store.params["logits"], labels)
        store.accumulate("logits", dlogits)
        return loss

    worst["sigmoid_bce"] = finite_difference_check(bce_loss, store)

    seg_config = SegmenterConfig(
        embed_dim=5, hidden=4, dec_hidden=5, attn_dim=5, bucket_count=48,
        epochs=1, seed=3,
    )
    seg_model = PointerSegmenter(seg_config)
    six_tokens = seg_model.prepare([SentenceExample(("wa", "bo", ",", "ke", "lu", "。"), (2,))])

    def pointer_loss():
        seg_model.store.zero_grads()
        return seg_model.loss_and_grads(six_tokens)

    worst["pointer_segmenter"] = finite_difference_check(pointer_loss, seg_model.store)

    sum_config = SummarizerConfig(embed_dim=6, hidden=4, d_ff=8, bucket_count=48, seed=3)
    sum_model = Summarizer(sum_config, UnitKind.SEGMENT)
    doc = DocumentExample(
        case_id="c1",
        kind=UnitKind.SEGMENT,
        sentences=(("wa", "bo", ",", "ke"), ("lu", "mi", "。")),
        units=(
            Unit(0, 0, UnitKind.SEGMENT, TextSpan(0, 6), 0, 3, ("wa", "bo", ","), 5),
            Unit(0, 1, UnitKind.SEGMENT, TextSpan(6, 9), 3, 4, ("ke",), 2),
            Unit(1, 0, UnitKind.SEGMENT, TextSpan(0, 6), 0, 3, ("lu", "mi", "。"), 5),
        ),
        unit_texts=("wa bo,", "ke", "lu mi。"),
        labels=(1, 0, 1),
        reference_sentences=(("wa", "bo"),),
    )

    [prepared] = prepare_documents([sum_model], [[doc]])

    def summarizer_loss():
        sum_model.store.zero_grads()
        [loss] = Summarizer.losses_and_grads([sum_model], [prepared])
        return loss

    worst["summarizer"] = finite_difference_check(summarizer_loss, sum_model.store)

    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err}"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report_line("C4", f"max rel errors: {detail}")


# ----------------------------------------------------------------------
# Criterion 5: segmenter learnability and ordering
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c5_segmenter_learnability_and_ordering():
    spec = SyntheticSpec(
        case_count=625,
        sentences_per_record=8,
        segments_per_sentence={1: 0.3, 2: 0.4, 3: 0.3},
        tokens_per_segment=(2, 4),
        seed=418,
    )
    generated = generate_synthetic(spec)
    gold = generated.gold
    examples = []
    for case in generated.cases:
        for si, sentence in enumerate(split_sentences(case.record_text)):
            tokens = tokenize(sentence.text, generated.hooks)
            examples.append(
                SentenceExample(
                    tuple(t.surface for t in tokens), gold[case.id][si]
                )
            )
    assert len(examples) == 5000
    split = 4000
    train, held = examples[:split], examples[split:]
    model, _ = segmenter_train(train, SegmenterConfig(epochs=3, seed=0))

    learned_pairs = []
    baseline_pairs = []
    predicted = model.predict([ex.surfaces for ex in held])
    for ex, positions in zip(held, predicted):
        tokens = tokenize(" ".join(ex.surfaces))  # surfaces reconstruct losslessly
        gold_set = BoundarySet(ex.gold)
        learned_pairs.append((BoundarySet(positions), gold_set))
        baseline_pairs.append((split_fullstop(tokens), gold_set))
    learned, _ = corpus_boundary_prf(learned_pairs)
    baseline, _ = corpus_boundary_prf(baseline_pairs)
    assert learned.f1 >= 0.95
    assert learned.f1 > baseline.f1
    report_line(
        "C5",
        f"held-out pointer F1 {learned.f1:.3f} >= 0.95 and > Full-stop {baseline.f1:.3f}",
    )


# ----------------------------------------------------------------------
# Criterion 6: granularity ordering under ROUGE
# ----------------------------------------------------------------------

EXPERIMENT_CONFIG = PipelineConfig(
    synthetic=SyntheticSpec(case_count=500, copy_rate=0.25, seed=20250808),
    seed=1234,
    segment_method="pointer",
    segmenter=SegmenterConfig(epochs=4, seed=11),
    summarizer=SummarizerConfig(epochs=10, seed=23),
)


@pytest.fixture(scope="module")
def experiment_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_experiment")
    return run_experiment(EXPERIMENT_CONFIG, str(out))


@pytest.mark.slow
def test_c6_granularity_ordering(experiment_report):
    rouge1 = {
        kind: experiment_report["summarization"][kind]["rouge"]["rouge1"]["f1"]
        for kind in ("SENTENCE", "SEGMENT", "CLAUSE")
    }
    assert rouge1["SEGMENT"] > rouge1["SENTENCE"] + 1.0
    assert rouge1["SEGMENT"] > rouge1["CLAUSE"] + 1.0
    report_line(
        "C6",
        "ROUGE-1 SEGMENT {SEGMENT:.2f} > SENTENCE {SENTENCE:.2f} and "
        "> CLAUSE {CLAUSE:.2f}, margins >= 1.0".format(**rouge1),
    )


# ----------------------------------------------------------------------
# Criterion 7: structural invariants fuzz suite
# ----------------------------------------------------------------------

def test_c7_structural_fuzz():
    rng = np.random.default_rng(999)
    hooks = LexiconHooks(
        verb_list=frozenset({"vrun", "vsee"}),
        noun_list=frozenset({"napple", "ndep"}),
        non_independent_list=frozenset({"ndep"}),
        verbal_noun_list=frozenset({"fasting"}),
        disease_list=frozenset({"pneumonia"}),
        exam_pattern_list=("ctscan",),
        case_particle_list=frozenset({"wo", "de"}),
    )
    rule_config = RuleConfig(hooks=hooks)
    pointer = PointerSegmenter(
        SegmenterConfig(
            embed_dim=6, hidden=5, dec_hidden=6, attn_dim=6, bucket_count=128, seed=5
        )
    )
    pieces = [
        "wa", "bo", ",", "。", "vrun", "napple", "ndep", "fasting",
        "pneumonia", "ctscan", "wo", "de", "(", ")", "412",
    ]
    splitters = [
        lambda t: split_fullstop(t),
        lambda t: split_fullstop_verb(t, hooks),
        lambda t: split_clauses(t, hooks),
        lambda t: split_clinical_rules(t, rule_config),
    ]
    n_sentences = 10_000
    boundary_counts = []
    census_sentences = []
    stats_rows = []
    for k in range(n_sentences):
        n = int(rng.integers(1, 16))
        text = " ".join(pieces[i] for i in rng.integers(0, len(pieces), n))
        tokens = tokenize(text, hooks)
        for split in splitters:
            bset = split(tokens)
            assert all(a < b for a, b in zip(bset.positions, bset.positions[1:]))
            bset.validate(len(tokens))
            units = units_from_boundaries(text, tokens, bset, UnitKind.SEGMENT)
            check_tiling(units, len(text))
        if k % 10 == 0:
            [positions] = pointer.predict([[t.surface for t in tokens]])
            pred = BoundarySet(positions)
            assert all(a < b for a, b in zip(pred.positions, pred.positions[1:]))
            pred.validate(len(tokens))
        if k < 400:
            census_sentences.append(tokens)
        clause_set = split_clauses(tokens, hooks)
        boundary_counts.append(len(clause_set.positions))
        stats_rows.append((text, tokens))

    census = relation_census(
        census_sentences,
        [split_clinical_rules(t, rule_config) for t in census_sentences],
        [split_clauses(t, hooks) for t in census_sentences],
    )
    total_pairs = 0
    disjoint = 0
    for tokens in census_sentences:
        seg = split_clinical_rules(tokens, rule_config)
        cl = split_clauses(tokens, hooks)
        total_pairs += (len(seg.positions) + 1) * (len(cl.positions) + 1)
        disjoint += sum(
            classify_relation(s, c) is None
            for s in token_ranges(seg.positions, len(tokens))
            for c in token_ranges(cl.positions, len(tokens))
        )
    assert census["total_intersecting"] + disjoint == total_pairs

    stats = granularity_stats(stats_rows, [split_clauses(t, hooks) for _, t in stats_rows])
    expected = float(np.mean(boundary_counts)) + 1.0
    assert abs(stats["units_per_sentence"] - expected) <= 1e-12
    report_line(
        "C7",
        f"{n_sentences} sentences fuzzed; census partition exact; "
        f"units/sentence identity |err| <= 1e-12",
    )


# ----------------------------------------------------------------------
# Criterion 8: determinism of run-experiment
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_c8_run_experiment_determinism(tmp_path):
    config = PipelineConfig(
        synthetic=SyntheticSpec(case_count=60, copy_rate=0.25, seed=88),
        seed=55,
        segment_method="pointer",
        segmenter=SegmenterConfig(epochs=2, seed=1),
        summarizer=SummarizerConfig(epochs=3, seed=2),
    )
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_experiment(config, str(out1))
    run_experiment(config, str(out2))
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    report_line("C8", f"{len(names)} artifacts byte-identical across two runs")


# ----------------------------------------------------------------------
# Criterion 9: granularity statistics self-consistency
# ----------------------------------------------------------------------

def test_c9_table6_self_consistency():
    generated = generate_synthetic(SyntheticSpec(case_count=40, seed=31))
    views = build_views(generated.cases, generated.hooks)
    gold = generated.gold
    sentences = []
    planted = []
    for view in views:
        for si, (s, toks) in enumerate(zip(view.sentences, view.tokens)):
            sentences.append((s.text, toks))
            planted.append(gold[view.case.id].get(si, ()))

    sentence_stats = granularity_stats(sentences, [BoundarySet(()) for _ in sentences])
    segment_stats = granularity_stats(
        sentences, [BoundarySet(positions) for positions in planted]
    )
    clause_stats = granularity_stats(
        sentences, [split_clauses(t, generated.hooks) for _, t in sentences]
    )
    assert sentence_stats["units_per_sentence"] == 1.0
    assert segment_stats["chars_per_unit"] < sentence_stats["chars_per_unit"]
    assert clause_stats["chars_per_unit"] < sentence_stats["chars_per_unit"]
    assert segment_stats["tokens_per_unit"] < sentence_stats["tokens_per_unit"]
    assert clause_stats["tokens_per_unit"] < sentence_stats["tokens_per_unit"]
    report_line(
        "C9",
        f"units/sentence SENTENCE=1 exactly; chars/unit "
        f"segment {segment_stats['chars_per_unit']:.1f} and clause "
        f"{clause_stats['chars_per_unit']:.1f} < sentence {sentence_stats['chars_per_unit']:.1f}",
    )
