"""Deterministic binary checkpoint container.

Layout: magic, 8-byte little-endian header length, a canonical JSON
header (sorted keys), then the raw tensor payloads concatenated in name
order.  No timestamps or environment data are recorded, so identical
models serialize to identical bytes, and round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

Model = TypeVar("Model")

MAGIC = b"GRANSUMCKPT\n"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint."""


@dataclass
class Checkpoint:
    kind: str
    hyper: dict
    tensors: dict[str, np.ndarray]
    seed: int
    step: int
    version: int = field(default=FORMAT_VERSION)


def model_checkpoint(kind: str, hyper: dict, store) -> Checkpoint:
    """A checkpoint of a model's parameters and step, with the
    hyperparameters that rebuild the model."""
    return Checkpoint(
        kind=kind,
        hyper=hyper,
        tensors=dict(store.params),
        seed=store.seed,
        step=store.step,
    )


def restore_model(
    ckpt: Checkpoint, kind: str, build: Callable[[dict], Model]
) -> Model:
    """The model build makes from ckpt's hyperparameters, holding ckpt's
    parameters and step.

    build returns a fresh model whose store names every parameter.  A
    wrong kind, hyperparameters build rejects, and a missing, mis-shaped
    or not all finite tensor are CheckpointError.
    """
    if ckpt.kind != kind:
        raise CheckpointError(f"checkpoint kind {ckpt.kind!r}, expected {kind!r}")
    try:
        model = build(dict(ckpt.hyper))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint hyperparameters rejected: {exc}") from exc
    for name, param in model.store.params.items():
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        if ckpt.tensors[name].shape != param.shape:
            raise CheckpointError(
                f"tensor {name!r} shape {ckpt.tensors[name].shape}, "
                f"expected {param.shape}"
            )
        if not np.isfinite(ckpt.tensors[name]).all():
            raise CheckpointError(f"tensor {name!r} is not all finite")
        param[...] = ckpt.tensors[name]
    model.store.step = ckpt.step
    return model


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        data = arr.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(data),
            }
        )
        payload.extend(data)
    header = json.dumps(
        {
            "version": ckpt.version,
            "kind": ckpt.kind,
            "hyper": ckpt.hyper,
            "seed": ckpt.seed,
            "step": ckpt.step,
            "tensors": entries,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def _check_header_fields(path: str, header: dict) -> None:
    """A CheckpointError naming path and the field unless the header has
    a string kind, an object of hyperparameters and integer seed and step
    >= 0."""
    for name in ("kind", "hyper", "seed", "step"):
        if name not in header:
            raise CheckpointError(f"{path}: header has no {name!r}")
    if not isinstance(header["kind"], str):
        raise CheckpointError(f"{path}: header 'kind' must be a string, got {header['kind']!r}")
    if not isinstance(header["hyper"], dict):
        raise CheckpointError(f"{path}: header 'hyper' must be an object, got {header['hyper']!r}")
    for name in ("seed", "step"):
        value = header[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CheckpointError(
                f"{path}: header {name!r} must be an integer >= 0, got {value!r}"
            )


def load_checkpoint(path: str, expect_kind: str | None = None) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        length_field = fh.read(8)
        if len(length_field) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<Q", length_field)
        rest = fh.read()
    if header_len > len(rest):
        raise CheckpointError(
            f"{path}: header length {header_len} runs past the end of the file"
        )
    try:
        header = json.loads(rest[:header_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    payload = rest[header_len:]
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}"
        )
    _check_header_fields(path, header)
    if expect_kind is not None and header["kind"] != expect_kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {header['kind']!r}, expected {expect_kind!r}"
        )
    tensors = {}
    try:
        for e in header["tensors"]:
            dtype = np.dtype(e["dtype"])
            offset, nbytes = e["offset"], e["nbytes"]
            if nbytes != math.prod(e["shape"]) * dtype.itemsize or not (
                0 <= offset <= len(payload) - nbytes
            ):
                raise CheckpointError(
                    f"{path}: tensor {e['name']!r} does not fit the payload"
                )
            raw = payload[offset:offset + nbytes]
            tensors[e["name"]] = np.frombuffer(raw, dtype=dtype).reshape(
                e["shape"]
            ).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor table: {exc}") from exc
    return Checkpoint(
        kind=header["kind"],
        hyper=header["hyper"],
        tensors=tensors,
        seed=header["seed"],
        step=header["step"],
        version=header["version"],
    )
