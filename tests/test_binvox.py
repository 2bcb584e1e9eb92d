"""binvox encode/decode and OBJ surface export."""
import numpy as np
import pytest

from voxscript.binvox import export_obj, read_binvox, write_binvox
from voxscript.errors import BinvoxError


def rand_grid(rng, dims=(32, 32, 32), p=0.2):
    return rng.random(dims) < p


def test_roundtrip_random_grids():
    rng = np.random.default_rng(21)
    for i in range(25):
        dims = tuple(int(v) for v in rng.integers(1, 20, 3)) if i % 3 else (32, 32, 32)
        g = rand_grid(rng, dims, p=float(rng.random()))
        out, translate, scale = read_binvox(write_binvox(g))
        assert out.shape == g.shape
        assert (out == g).all()
        assert translate == (0.0, 0.0, 0.0) and scale == 1.0


def test_header_contents():
    g = np.zeros((32, 32, 32), dtype=bool)
    data = write_binvox(g, translate=(1.5, 0.0, -2.0), scale=0.5)
    head = data.split(b"data\n")[0].decode()
    assert head.startswith("#binvox 1\n")
    assert "dim 32 32 32" in head
    assert "translate 1.5 0 -2" in head
    assert "scale 0.5" in head
    _, translate, scale = read_binvox(data)
    assert translate == (1.5, 0.0, -2.0) and scale == 0.5


def test_full_2cube_single_run():
    g = np.ones((2, 2, 2), dtype=bool)
    payload = write_binvox(g).split(b"data\n", 1)[1]
    assert payload == bytes([1, 8])


def test_empty_grid_zero_runs():
    g = np.zeros((32, 32, 32), dtype=bool)
    payload = write_binvox(g).split(b"data\n", 1)[1]
    pairs = [(payload[i], payload[i + 1]) for i in range(0, len(payload), 2)]
    assert all(v == 0 for v, _ in pairs)
    assert sum(c for _, c in pairs) == 32 ** 3
    assert all(c == 255 for _, c in pairs[:-1])  # maximal runs


def test_run_lengths_capped_and_maximal():
    g = np.ones((8, 8, 8), dtype=bool)
    payload = write_binvox(g).split(b"data\n", 1)[1]
    counts = payload[1::2]
    assert max(counts) <= 255
    assert sum(counts) == 512
    values = payload[0::2]
    # maximal runs never repeat the same value back to back below the cap
    for i in range(len(values) - 1):
        if values[i] == values[i + 1]:
            assert counts[i] == 255


def test_axis_nesting_order():
    # one voxel at (x=1, y=0, z=0) in a 2x2x2 grid: flat index under
    # x-slowest, then z, then y-fastest nesting is 1*4 + 0*2 + 0 = 4
    g = np.zeros((2, 2, 2), dtype=bool)
    g[1, 0, 0] = True
    payload = write_binvox(g).split(b"data\n", 1)[1]
    flat = np.repeat(np.frombuffer(payload[0::2], dtype=np.uint8),
                     np.frombuffer(payload[1::2], dtype=np.uint8))
    assert list(np.flatnonzero(flat)) == [4]


def test_deterministic_bytes():
    rng = np.random.default_rng(22)
    g = rand_grid(rng)
    assert write_binvox(g) == write_binvox(g.copy())


def test_bad_magic():
    with pytest.raises(BinvoxError) as exc:
        read_binvox(b"#voxbin 1\ndim 2 2 2\ndata\n" + bytes([0, 8]))
    assert exc.value.offset == 0


def test_truncated_payload():
    g = np.ones((4, 4, 4), dtype=bool)
    data = write_binvox(g)
    with pytest.raises(BinvoxError):
        read_binvox(data[:-1])


def test_odd_payload_length():
    data = b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([1, 4, 0])
    with pytest.raises(BinvoxError):
        read_binvox(data)


def test_count_overflow():
    data = b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([1, 9])
    with pytest.raises(BinvoxError):
        read_binvox(data)


def test_bad_value_byte():
    data = b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([2, 8])
    with pytest.raises(BinvoxError):
        read_binvox(data)


def test_zero_count():
    data = b"#binvox 1\ndim 2 2 2\ndata\n" + bytes([1, 0, 1, 8])
    with pytest.raises(BinvoxError):
        read_binvox(data)


def test_dim_overflow_guard():
    data = b"#binvox 1\ndim 4096 4096 4096\ndata\n"
    with pytest.raises(BinvoxError):
        read_binvox(data)


@pytest.mark.parametrize("line", [b"translate a b c", b"translate 1 2", b"scale", b"scale x"])
def test_bad_translate_or_scale_line(line):
    head = b"#binvox 1\ndim 2 2 2\n"
    with pytest.raises(BinvoxError) as exc:
        read_binvox(head + line + b"\ndata\n" + bytes([0, 8]))
    assert exc.value.offset == len(head)


# ------------------------------------------------------------------- obj

def test_obj_empty():
    text = export_obj(np.zeros((4, 4, 4), dtype=bool))
    assert "0 cubes" in text
    assert "\nv " not in text and "\nf " not in text


def test_obj_single_voxel():
    g = np.zeros((4, 4, 4), dtype=bool)
    g[1, 2, 3] = True
    text = export_obj(g)
    v = [l for l in text.splitlines() if l.startswith("v ")]
    f = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(v) == 8 and len(f) == 12


def test_obj_two_voxel_bar_dedups_vertices():
    g = np.zeros((4, 4, 4), dtype=bool)
    g[1, 1, 1] = True
    g[1, 1, 2] = True
    text = export_obj(g)
    v = [l for l in text.splitlines() if l.startswith("v ")]
    f = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(v) == 12
    assert len(f) == 24


def test_obj_interior_voxels_skipped():
    g = np.zeros((8, 8, 8), dtype=bool)
    g[1:6, 1:6, 1:6] = True
    text = export_obj(g)
    assert f"{5 ** 3 - 3 ** 3} cubes" in text


def test_obj_deterministic():
    rng = np.random.default_rng(23)
    g = rand_grid(rng, (8, 8, 8), 0.4)
    assert export_obj(g) == export_obj(g.copy())
