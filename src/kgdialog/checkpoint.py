"""Checkpoint format: length-prefixed JSON header + raw float32 tensors.

Header fields: format version, model config, vocabulary hash, run config
echo, and a named tensor manifest with shapes. Tensor bytes follow in
manifest order, little-endian float32. Loading refuses, with
``CheckpointError``, a header that is not a JSON object, lacks an entry,
holds a model config ``ModelConfig`` refuses, or lists tensors other than
``param_shapes`` of that config.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .model import ModelConfig, ModelState, param_shapes

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


class VocabMismatchError(CheckpointError):
    pass


def save_checkpoint(path: str | Path, state: ModelState, vocab_sha: str, run_config: dict | None = None) -> None:
    manifest = [[name, list(arr.shape)] for name, arr in state.params.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": dataclasses.asdict(state.cfg),
        "vocab_sha256": vocab_sha,
        "tensors": manifest,
        "run_config": run_config or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as f:
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, arr in state.params.items():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_header(f: BinaryIO, path: str | Path) -> dict:
    """Parse the length-prefixed header; leaves ``f`` at the first tensor byte."""
    raw = f.read(4)
    if len(raw) != 4:
        raise CheckpointError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<I", raw)
    blob = f.read(hlen)
    if len(blob) != hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")
    return header


def load_checkpoint(path: str | Path, expect_vocab_sha: str | None = None) -> tuple[ModelState, dict]:
    with Path(path).open("rb") as f:
        header = _read_header(f, path)
        try:
            vocab_sha = str(header["vocab_sha256"])
            cfg = ModelConfig(**header["model_config"])
            manifest = [(name, tuple(shape)) for name, shape in header["tensors"]]
        except KeyError as e:
            raise CheckpointError(f"{path}: malformed header: no {e.args[0]!r} entry") from None
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: malformed header: {e}") from None
        if expect_vocab_sha is not None and vocab_sha != expect_vocab_sha:
            raise VocabMismatchError(
                f"{path}: checkpoint was trained with a different vocabulary "
                f"({vocab_sha[:12]}... vs {expect_vocab_sha[:12]}...)"
            )
        shapes = param_shapes(cfg)
        if manifest != shapes:
            raise CheckpointError(f"{path}: tensor manifest does not match the header's model_config")
        params: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(4 * count)
            if len(buf) != 4 * count:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            params[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).copy()
    return ModelState(cfg, params), header
