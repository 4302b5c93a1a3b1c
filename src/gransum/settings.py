"""Settings files: one JSON object that sets the fields of a dataclass.

The pipeline config, the synthetic spec, the lexicon hooks and the rule
patterns are each one such file.  load_settings checks every key and
value against the dataclass's field annotations and converts what JSON
cannot spell: a list to a tuple or frozenset, an object to a nested
dataclass or to a dict with int keys, and a string to a str enum.  An
integer given for a float field stays an integer.  A key left out takes
the field's default, and a field without a default must be given.  An
unknown or missing key, a value of the wrong type and malformed JSON
are ValueErrors naming the file.  save_settings writes every field back
in the form load_settings reads, with sets sorted.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import get_args, get_origin, get_type_hints


def load_settings(cls, path: str):
    """The cls that the JSON object in path sets."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    return _decode_object(cls, raw, f"{path}: ")


def save_settings(obj, path: str) -> None:
    """Write obj, a settings dataclass, as the file load_settings reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_encode(obj), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    return sorted(value) if isinstance(value, frozenset) else value


def _decode_object(cls, raw, where: str):
    """cls built from raw, a JSON object; where prefixes every error."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}expected a JSON object")
    declared = {f.name: f for f in fields(cls)}
    hints = get_type_hints(cls)
    for key in raw:
        if key not in declared:
            raise ValueError(f"{where}unknown key {key!r}")
    for f in declared.values():
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where}missing key {f.name!r}")
    return cls(**{
        key: _decode(value, hints[key], f"{where}{key!r}", declared[key].type)
        for key, value in raw.items()
    })


def _fits(value, hint) -> bool:
    """Whether value is of the JSON type that stands for hint."""
    origin = get_origin(hint) or hint
    if origin in (tuple, frozenset):
        return isinstance(value, list)
    if origin is dict or is_dataclass(origin):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return origin is bool
    if origin is float:
        return isinstance(value, (int, float))
    return isinstance(value, str if issubclass(origin, str) else origin)


def _decode(value, hint, where: str, name: str):
    """value, a JSON value, as the field annotated hint (spelled name)
    takes it."""
    if get_origin(hint) is UnionType:
        hint = next((h for h in get_args(hint) if _fits(value, h)), hint)
    origin, args = get_origin(hint), get_args(hint)
    mismatch = ValueError(f"{where} must be {name}, got {type(value).__name__}")
    if origin is UnionType or not _fits(value, hint):
        raise mismatch
    if origin in (tuple, frozenset):
        items = args[:1] * len(value) if origin is frozenset or args[-1:] == (Ellipsis,) else args
        if len(items) != len(value):
            raise mismatch
        return origin(
            _decode(v, h, f"{where}[{i}]", h.__name__)
            for i, (v, h) in enumerate(zip(value, items))
        )
    if origin is dict:
        return {
            _decode_key(k, args[0], where): _decode(v, args[1], f"{where}[{k!r}]", args[1].__name__)
            for k, v in value.items()
        }
    if is_dataclass(hint):
        return _decode_object(hint, value, f"{where}: ")
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ValueError(
                f"{where} must be one of {[m.value for m in hint]}, got {value!r}"
            ) from None
    return value


def _decode_key(key: str, hint, where: str):
    """An object key as the dict key type hint (str or int)."""
    try:
        return hint(key)
    except ValueError:
        raise ValueError(f"{where}: key {key!r} must be {hint.__name__}") from None
