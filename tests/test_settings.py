import json
import os
import subprocess
import sys

import pytest

import gransum
from gransum.pipeline import PipelineConfig
from gransum.settings import load_settings, save_settings
from gransum.spans import UnitKind
from gransum.splitters import RulePatterns


def _write(tmp_path, raw) -> str:
    path = tmp_path / "settings.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return str(path)


def test_config_values_take_their_field_types(tmp_path):
    config = load_settings(PipelineConfig, _write(tmp_path, {
        "kinds": ["CLAUSE", "SENTENCE"],
        "oracle_budget": 300,
        "synthetic": {"segments_per_sentence": {"3": 2}, "tokens_per_segment": [1, 5]},
        "segmenter": {"lr": 1},
    }))
    assert config.kinds == (UnitKind.CLAUSE, UnitKind.SENTENCE)
    assert config.synthetic.segments_per_sentence == {3: 2.0}
    assert config.synthetic.tokens_per_segment == (1, 5)
    # integers given for float fields stay integers, as the report prints them
    assert type(config.segmenter.lr) is int and type(config.oracle_budget) is int
    assert config.to_dict()["kinds"] == ["CLAUSE", "SENTENCE"]


def test_null_takes_the_none_branch(tmp_path):
    config = load_settings(PipelineConfig, _write(tmp_path, {"synthetic": None, "corpus_path": "c"}))
    assert config.synthetic is None and config.corpus_path == "c"


def test_save_then_load_round_trips(tmp_path):
    patterns = RulePatterns(version=1, plan_surfaces=frozenset({"zu", "ab"}), max_enum_chunk_tokens=5)
    path = tmp_path / "patterns.json"
    save_settings(patterns, str(path))
    assert load_settings(RulePatterns, str(path)) == patterns
    # sets are written sorted
    assert json.loads(path.read_text())["plan_surfaces"] == ["ab", "zu"]


@pytest.mark.parametrize("raw, message", [
    ('{"kinds": ', "malformed JSON"),
    ({"segmenter": {"bogus": 1}}, "'segmenter': unknown key 'bogus'"),
    ({"synthetic": {"tokens_per_segment": [1, 2, 3]}},
     "'tokens_per_segment' must be tuple[int, int], got list"),
    ({"oracle_budget": True}, "'oracle_budget' must be float | str, got bool"),
    ({"corpus_path": 5}, "'corpus_path' must be str | None, got int"),
    ({"kinds": ["SENTENCE", 1]}, "'kinds'[1] must be UnitKind, got int"),
])
def test_bad_values_are_named(tmp_path, raw, message):
    path = _write(tmp_path, raw)
    with pytest.raises(ValueError) as info:
        load_settings(PipelineConfig, path)
    assert str(info.value).startswith(path) and message in str(info.value)


@pytest.mark.parametrize("modules, gransum_loaded, numpy_loaded", [
    # the package root imports nothing, so the leaf modules load neither
    # numpy nor another gransum module
    ("gransum.settings, gransum.spans", {"gransum", "gransum.settings", "gransum.spans"}, False),
    # gransum.nn re-exports nothing, so the checkpoint container loads
    # neither the network kernel nor the kernels under it
    ("gransum.nn.checkpoint", {"gransum", "gransum.nn", "gransum.nn.checkpoint"}, True),
], ids=["settings-spans", "nn-checkpoint"])
def test_leaf_modules_import_alone(modules, gransum_loaded, numpy_loaded):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gransum.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", f"import sys, {modules}; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(probe.stdout.split())
    assert ("numpy" in loaded) == numpy_loaded
    assert {m for m in loaded if m.split(".")[0] == "gransum"} == gransum_loaded
