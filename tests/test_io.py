"""Checkpoint container round-trips and parse failures."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdht.io import (MAGIC, VERSION, BadMagicError, FormatError,
                     ShapeInconsistencyError, TruncatedError, VersionError,
                     deserialize_checkpoint, load_checkpoint, save_checkpoint,
                     serialize, serialize_checkpoint)
from fdht.ht import init_ht_weight
from fdht.lstm import MODES, FdhtLstmCell, make_cell, make_head


def weights_equal(a, b):
    if a.m_shape != b.m_shape or a.n_shape != b.n_shape:
        return False
    if [n.rank for n in a.tree.nodes] != [n.rank for n in b.tree.nodes]:
        return False
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.factors, b.factors))


def random_checkpoint(rng):
    """A small random cell (d in 2..4, either mode) and head."""
    d = int(rng.integers(2, 5))
    m = tuple(int(v) for v in rng.integers(1, 3, size=d))
    n = tuple(int(v) for v in rng.integers(3, 5, size=d))
    n_x = int(rng.integers(1, math.prod(n) - math.prod(m) + 1))
    mode = ("full", "input-only")[int(rng.integers(2))]
    cell = make_cell(n_x, n, m, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                     mode=mode, seed=int(rng.integers(2**31)))
    head = make_head(int(rng.integers(1, 5)), cell.hidden_size,
                     seed=int(rng.integers(2**31)))
    return cell, head


def random_checkpoint_bytes(seed):
    return serialize_checkpoint(*random_checkpoint(np.random.default_rng(seed)))


def test_round_trip_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cell, head = random_checkpoint(rng)
        data = serialize_checkpoint(cell, head)
        cell2, head2 = deserialize_checkpoint(data)
        assert weights_equal(cell2.weight, cell.weight)
        assert serialize_checkpoint(cell2, head2) == data


def test_truncated_stream():
    cell, head = random_checkpoint(np.random.default_rng(1))
    data = serialize_checkpoint(cell, head)
    weight_len = len(serialize(cell.weight))
    for cut in (3, 5, weight_len // 2, weight_len - 1, weight_len + 2,
                len(data) // 2, len(data) - 1):
        with pytest.raises(TruncatedError):
            deserialize_checkpoint(data[:cut])


def test_bad_magic():
    data = bytearray(random_checkpoint_bytes(2))
    data[0:4] = b"XYZW"
    with pytest.raises(BadMagicError):
        deserialize_checkpoint(bytes(data))


def test_version_mismatch():
    data = bytearray(random_checkpoint_bytes(3))
    data[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(VersionError, match="99"):
        deserialize_checkpoint(bytes(data))


def test_root_rank_contradicts_gate_count():
    data = bytearray(random_checkpoint_bytes(4))
    # header gate count field sits after magic+version+d
    g_off = 4 + 2 + 4
    data[g_off:g_off + 4] = (5).to_bytes(4, "little")
    with pytest.raises(ShapeInconsistencyError, match="contradicts"):
        deserialize_checkpoint(bytes(data))


def test_root_rank_other_than_four_rejected():
    # a well-formed container whose weight has g = 3 in front of valid
    # CELL and HEAD sections
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=8)
    data = serialize_checkpoint(cell, make_head(4, cell.hidden_size, seed=9))
    sections = data[len(serialize(cell.weight)):]
    w3 = init_ht_weight((2, 2), (3, 3), 2, 2, 3, seed=8)
    with pytest.raises(ShapeInconsistencyError, match="root rank 4, got 3"):
        deserialize_checkpoint(serialize(w3) + sections)


@pytest.mark.parametrize("offset", [14, 26, 34, 42], ids=["m", "n", "root-rank", "leaf-rank"])
def test_zero_mode_length_or_rank_is_the_weights_error(offset):
    # d=2 header: m_shape at 14, n_shape at 22, node count at 30, ranks
    # at 34 (root, also g at 10), 38 and 42
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=0)
    data = bytearray(serialize_checkpoint(cell, make_head(3, cell.hidden_size, seed=1)))
    data[offset:offset + 4] = bytes(4)
    if offset == 34:
        data[10:14] = bytes(4)
    with pytest.raises(ShapeInconsistencyError, match="mode lengths and ranks must be >= 1"):
        deserialize_checkpoint(bytes(data))


@pytest.mark.parametrize("d", [0, 1])
def test_tree_below_two_modes_is_the_trees_error(d):
    fields = [d, 4, *[4] * d, *[8] * d, 1, 4]
    header = MAGIC + struct.pack(f"<H{len(fields)}I", VERSION, *fields)
    with pytest.raises(ShapeInconsistencyError, match=f"tree needs d >= 2, got {d}"):
        deserialize_checkpoint(header + bytes(8 * 32))


def test_huge_mode_count_is_truncation_before_any_tree(monkeypatch):
    # d = 1,000,000 and both shapes, then nothing: the bytes left cannot
    # hold a 2M-node tree, so the reader raises before building one.
    d = 1_000_000
    header = MAGIC + struct.pack("<H2I", VERSION, d, 4) + bytes(8 * d)
    assert len(header) == 8_000_014
    monkeypatch.setattr("fdht.io.build_dim_tree", lambda *args: pytest.fail("tree built"))
    with pytest.raises(TruncatedError, match="needed 23999992 bytes at offset 8000014, have 0"):
        deserialize_checkpoint(header)


def test_oversized_ranks_are_truncation():
    # d=2: the ranks of the two leaves sit after the root rank at offset 34.
    # (2^32-1)^2 entries per factor overflow a fixed-width integer size.
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=0)
    data = bytearray(serialize_checkpoint(cell, make_head(3, cell.hidden_size, seed=1)))
    data[38:46] = (2**32 - 1).to_bytes(4, "little") * 2
    with pytest.raises(TruncatedError):
        deserialize_checkpoint(bytes(data))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_payload_rejected(value):
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=0)
    cell.weight.factors[-1][0, 0, 0] = value
    data = serialize_checkpoint(cell, make_head(3, cell.hidden_size, seed=1))
    with pytest.raises(FormatError, match="non-finite"):
        deserialize_checkpoint(data)


def test_trailing_garbage():
    with pytest.raises(FormatError, match="trailing"):
        deserialize_checkpoint(random_checkpoint_bytes(5) + b"\x00" * 8)


def test_save_load_with_sidecar(tmp_path):
    cell, head = random_checkpoint(np.random.default_rng(6))
    path = tmp_path / "model.fdht"
    save_checkpoint(cell, head, path)
    assert path.read_bytes() == serialize_checkpoint(*load_checkpoint(path))
    w = cell.weight
    sidecar = json.loads((tmp_path / "model.fdht.json").read_text())
    assert sidecar["format"] == "FDHT"
    assert sidecar["m_shape"] == list(w.m_shape)
    assert sidecar["nodes"][0]["rank"] == w.root_rank == 4
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
    assert cell2.biases.tobytes() == cell.biases.tobytes()
    if mode == "input-only":
        assert cell2.recurrent.tobytes() == cell.recurrent.tobytes()
    assert head2.w.tobytes() == head.w.tobytes()
    assert head2.b.tobytes() == head.b.tobytes()


def test_cell_given_only_a_recurrent_block_round_trips(tmp_path):
    # the mode written to the CELL section is the one the block implies
    w = init_ht_weight((2, 2), (3, 3), 2, 2, 4, seed=3)
    recurrent = np.random.default_rng(4).normal(size=(16, 4))
    cell = FdhtLstmCell(w, 5, recurrent=recurrent)
    assert cell.mode == "input-only"
    path = tmp_path / "ckpt.fdht"
    save_checkpoint(cell, make_head(2, cell.hidden_size, seed=5), path)
    cell2, _ = load_checkpoint(path)
    assert cell2.mode == "input-only"
    assert cell2.recurrent.tobytes() == recurrent.tobytes()
    sidecar = json.loads((tmp_path / "ckpt.fdht.json").read_text())
    assert sidecar["cell"]["mode"] == "input-only"


@pytest.mark.parametrize("mode", MODES)
def test_mode_byte_is_the_index_in_modes(mode):
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, mode=mode, seed=8)
    data = bytearray(serialize_checkpoint(cell, make_head(4, cell.hidden_size, seed=9)))
    at = len(serialize(cell.weight)) + 4  # after the CELL tag
    assert data[at] == MODES.index(mode)
    data[at] = len(MODES)
    with pytest.raises(ShapeInconsistencyError, match=f"unknown cell mode code {len(MODES)}$"):
        deserialize_checkpoint(bytes(data))


def test_cell_n_x_of_zero_is_the_cells_error():
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=8)
    data = bytearray(serialize_checkpoint(cell, make_head(4, cell.hidden_size, seed=9)))
    at = len(serialize(cell.weight)) + 5  # after the CELL tag and mode byte
    assert struct.unpack_from("<I", data, at)[0] == 5
    struct.pack_into("<I", data, at, 0)
    with pytest.raises(ShapeInconsistencyError, match="n_x must be >= 1, got 0$"):
        deserialize_checkpoint(bytes(data))


def test_checkpoint_missing_sections():
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=8)
    head = make_head(4, cell.hidden_size, seed=9)
    data = serialize_checkpoint(cell, head)
    weight_len = len(serialize(cell.weight))
    with pytest.raises(FormatError, match="CELL"):
        deserialize_checkpoint(data[:weight_len] + b"XXXX" + data[weight_len + 4:])
    head_at = u32_field_offsets(cell)[-1] - 4
    with pytest.raises(FormatError, match="^missing HEAD section in checkpoint$"):
        deserialize_checkpoint(data[:head_at] + b"XXXX" + data[head_at + 4:])
    with pytest.raises(TruncatedError):
        deserialize_checkpoint(data[:-4])


def test_head_of_zero_classes_rejected():
    cell = make_cell(5, (3, 3), (2, 2), 2, 2, seed=8)
    data = bytearray(serialize_checkpoint(cell, make_head(4, cell.hidden_size, seed=9)))
    at = u32_field_offsets(cell)[-1]
    assert struct.unpack_from("<I", data, at)[0] == 4
    struct.pack_into("<I", data, at, 0)
    with pytest.raises(ShapeInconsistencyError, match="^head must have at least one class$"):
        deserialize_checkpoint(bytes(data))


def u32_field_offsets(cell):
    """Byte offsets of every u32 field in a checkpoint: the header's d, g,
    mode lengths, node count and ranks, the cell's n_x and the head's
    class count."""
    d = cell.weight.tree.d
    header = [6 + 4 * k for k in range(2 + 2 * d + 1 + (2 * d - 1))]
    n_x = len(serialize(cell.weight)) + 5
    floats = cell.biases.size
    if cell.recurrent is not None:
        floats += cell.recurrent.size
    classes = n_x + 4 + 8 * floats + 4
    return header + [n_x, classes]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoints_raise_only_format_errors(mode, data):
    # a byte flip, a truncation or an overwritten u32 field either parses
    # to a finite model that re-serializes to the same bytes, or raises a
    # FormatError; never a bare numpy error or a silent NaN
    cell = make_cell(10, (3, 3, 3), (2, 2, 2), 2, 2, mode=mode, seed=3)
    head = make_head(3, cell.hidden_size, seed=4)
    blob = bytearray(serialize_checkpoint(cell, head))
    kind = data.draw(st.sampled_from(["flip", "truncate", "u32"]))
    if kind == "flip":
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        pos = data.draw(st.sampled_from(u32_field_offsets(cell)))
        value = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 2**16, 2**31, 2**32 - 1])
                          | st.integers(0, 2**32 - 1))
        blob[pos:pos + 4] = value.to_bytes(4, "little")
    try:
        cell2, head2 = deserialize_checkpoint(bytes(blob))
    except FormatError:
        return
    for arr in [*cell2.params().values(), head2.w, head2.b]:
        assert np.all(np.isfinite(arr))
    assert serialize_checkpoint(cell2, head2) == bytes(blob)
