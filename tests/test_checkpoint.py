import json
import struct

import numpy as np
import pytest

from kgdialog.checkpoint import (
    CheckpointError,
    VocabMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from kgdialog.model import ModelConfig, init_model


@pytest.fixture()
def state():
    cfg = ModelConfig(vocab_size=30, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                      max_entity_ids=4, max_triple_ids=8, max_positions=64)
    return init_model(cfg, seed=1)


def test_round_trip_bit_exact(state, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "deadbeef" * 8, {"k_entity": 7})
    loaded, header = load_checkpoint(path)
    assert header["vocab_sha256"] == "deadbeef" * 8
    assert header["run_config"]["k_entity"] == 7
    assert loaded.cfg == state.cfg
    assert list(loaded.params) == list(state.params)
    for k in state.params:
        assert np.array_equal(loaded.params[k], state.params[k])


def test_save_is_deterministic(state, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, state, "ab" * 32)
    save_checkpoint(p2, state, "ab" * 32)
    assert p1.read_bytes() == p2.read_bytes()


def test_vocab_hash_mismatch(state, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "11" * 32)
    with pytest.raises(VocabMismatchError):
        load_checkpoint(path, expect_vocab_sha="22" * 32)
    loaded, _ = load_checkpoint(path, expect_vocab_sha="11" * 32)
    assert loaded.cfg == state.cfg


def test_truncated_file_rejected(state, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "ab" * 32)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_header_readable_without_tensors(state, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "cd" * 32, {"use_kg_mask": False})
    header = load_checkpoint(path)[1]
    assert header["format_version"] == 1
    assert header["model_config"]["d_model"] == 16
    assert header["run_config"]["use_kg_mask"] is False
    names = [n for n, _ in header["tensors"]]
    assert names[0] == "tok_emb" and names[-1] == "ln_f.b"


def test_tensors_located_by_length_prefix(state, tmp_path):
    # a header in any JSON whitespace is valid when its length prefix is right
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "ef" * 32)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[:4])
    blob = json.dumps(json.loads(data[4 : 4 + hlen]), indent=1).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob + data[4 + hlen :])
    loaded, _ = load_checkpoint(path)
    for k in state.params:
        assert np.array_equal(loaded.params[k], state.params[k])


def _replace_header(path, edit):
    """Rewrite the header of the checkpoint at ``path`` to the bytes ``edit`` makes of it."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[:4])
    blob = edit(json.loads(data[4 : 4 + hlen]))
    path.write_bytes(struct.pack("<I", len(blob)) + blob + data[4 + hlen :])


def _edited(change):
    def edit(header):
        change(header)
        return json.dumps(header).encode("utf-8")
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edited(lambda h: h["model_config"].update(n_heads=0)), "n_heads must be >= 1"),
    (_edited(lambda h: h["model_config"].update(colour="red")), "colour"),
    (_edited(lambda h: h.pop("tensors")), "no 'tensors' entry"),
    (_edited(lambda h: h["model_config"].update(d_model=32)), "manifest does not match"),
    (_edited(lambda h: h["tensors"][0].__setitem__(1, [-1, 16])), "manifest does not match"),
    (_edited(lambda h: h["model_config"].update(n_types=2)), "n_types must be >= 3"),
    (_edited(lambda h: h["model_config"].update(n_types=1)), "n_types must be >= 3"),
    (_edited(lambda h: h["model_config"].update(max_entity_ids=0)), "max_entity_ids must be >= 1"),
    (_edited(lambda h: h["model_config"].update(max_triple_ids=0)), "max_triple_ids must be >= 1"),
    (lambda h: b"[1]", "not a JSON object"),
    (lambda h: b"\xff{}", "not JSON"),
], ids=["zero_heads", "unknown_key", "no_tensors", "wrong_width", "negative_dim", "two_types", "one_type",
        "no_entity_ids", "no_triple_ids", "json_list", "not_utf8"])
def test_malformed_header_rejected(state, tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state, "ef" * 32)
    _replace_header(path, edit)
    with pytest.raises(CheckpointError, match=message) as e:
        load_checkpoint(path, expect_vocab_sha="ef" * 32)
    assert str(path) in str(e.value)
