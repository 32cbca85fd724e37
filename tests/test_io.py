"""Binary container round-trips and parse failures."""

import json

import numpy as np
import pytest

from fdht.io import (BadMagicError, FormatError, ShapeInconsistencyError,
                     TruncatedError, VersionError, deserialize,
                     deserialize_checkpoint, load_checkpoint, load_weight,
                     save_checkpoint, save_weight, serialize,
                     serialize_checkpoint)
from fdht.ht import init_ht_weight
from fdht.lstm import make_cell, make_head
from oracles import random_small_weight


def weights_equal(a, b):
    if a.m_shape != b.m_shape or a.n_shape != b.n_shape:
        return False
    if [n.rank for n in a.tree.nodes] != [n.rank for n in b.tree.nodes]:
        return False
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.factors, b.factors))


def test_round_trip_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = random_small_weight(rng)
        assert weights_equal(deserialize(serialize(w)), w)


def test_truncated_stream():
    w = random_small_weight(np.random.default_rng(1))
    data = serialize(w)
    for cut in (3, 5, len(data) // 2, len(data) - 1):
        with pytest.raises(TruncatedError):
            deserialize(data[:cut])


def test_bad_magic():
    w = random_small_weight(np.random.default_rng(2))
    data = bytearray(serialize(w))
    data[0:4] = b"XYZW"
    with pytest.raises(BadMagicError):
        deserialize(bytes(data))


def test_version_mismatch():
    w = random_small_weight(np.random.default_rng(3))
    data = bytearray(serialize(w))
    data[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(VersionError, match="99"):
        deserialize(bytes(data))


def test_root_rank_contradicts_gate_count():
    w = random_small_weight(np.random.default_rng(4))
    data = bytearray(serialize(w))
    # header gate count field sits after magic+version+d
    g_off = 4 + 2 + 4
    bad_g = w.root_rank + 1
    data[g_off:g_off + 4] = bad_g.to_bytes(4, "little")
    with pytest.raises(ShapeInconsistencyError, match="contradicts"):
        deserialize(bytes(data))


def test_oversized_ranks_are_truncation():
    # d=2: the ranks of the two leaves sit after the root rank at offset 34.
    # (2^32-1)^2 entries per factor overflow a fixed-width integer size.
    data = bytearray(serialize(init_ht_weight((2, 2), (3, 3), 2, 2, 4, seed=0)))
    data[38:46] = (2**32 - 1).to_bytes(4, "little") * 2
    with pytest.raises(TruncatedError):
        deserialize(bytes(data))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_payload_rejected(value):
    w = init_ht_weight((2, 2), (3, 3), 2, 2, 4, seed=0)
    w.factors[-1][0, 0, 0] = value
    with pytest.raises(FormatError, match="non-finite"):
        deserialize(serialize(w))


def test_trailing_garbage():
    w = random_small_weight(np.random.default_rng(5))
    with pytest.raises(FormatError, match="trailing"):
        deserialize(serialize(w) + b"\x00" * 8)


def test_save_load_with_sidecar(tmp_path):
    w = random_small_weight(np.random.default_rng(6))
    path = tmp_path / "model.fdht"
    save_weight(w, path)
    assert weights_equal(load_weight(path), w)
    sidecar = json.loads((tmp_path / "model.fdht.json").read_text())
    assert sidecar["format"] == "FDHT"
    assert sidecar["m_shape"] == list(w.m_shape)
    assert sidecar["nodes"][0]["rank"] == w.root_rank
    assert sidecar["nodes"][0]["dims"] == [1, w.tree.d]  # 1-based inclusive


@pytest.mark.parametrize("mode", ["full", "input-only"])
def test_checkpoint_round_trip(mode, tmp_path):
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, mode=mode, seed=8)
    head = make_head(4, cell.hidden_size, seed=9)
    path = tmp_path / "ckpt.fdht"
    save_checkpoint(cell, head, path)
    cell2, head2 = load_checkpoint(path)
    assert cell2.mode == mode
    assert cell2.n_x == cell.n_x
    assert weights_equal(cell2.weight, cell.weight)
    for g in cell.biases:
        assert cell2.biases[g].tobytes() == cell.biases[g].tobytes()
    if mode == "input-only":
        assert cell2.recurrent.tobytes() == cell.recurrent.tobytes()
    assert head2.w.tobytes() == head.w.tobytes()
    assert head2.b.tobytes() == head.b.tobytes()


def test_checkpoint_missing_sections():
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=8)
    head = make_head(4, cell.hidden_size, seed=9)
    data = serialize_checkpoint(cell, head)
    weight_len = len(serialize(cell.weight))
    with pytest.raises(FormatError, match="CELL"):
        deserialize_checkpoint(data[:weight_len] + b"XXXX" + data[weight_len + 4:])
    with pytest.raises(TruncatedError):
        deserialize_checkpoint(data[:-4])
