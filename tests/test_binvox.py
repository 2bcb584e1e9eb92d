"""binvox encode/decode and OBJ surface export."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voxscript.binvox import export_obj, read_binvox, write_binvox
from voxscript.errors import BinvoxError
from voxscript.executor import MAX_GRID_VOXELS


def rand_grid(rng, dims=(32, 32, 32), p=0.2):
    return rng.random(dims) < p


def reference_write_binvox(g) -> bytes:
    """One Python step per run: the encoder write_binvox must match byte for byte."""
    header = (f"#binvox 1\ndim {g.shape[0]} {g.shape[1]} {g.shape[2]}\n"
              f"translate 0 0 0\nscale 1\ndata\n").encode("ascii")
    flat = g.transpose(0, 2, 1).ravel().astype(np.uint8)
    out = bytearray(header)
    edges = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [flat.size]))
    for s, e in zip(starts, ends):
        value = flat[s]
        run = int(e - s)
        while run > 255:
            out += bytes((value, 255))
            run -= 255
        out += bytes((value, run))
    return bytes(out)


def grid_from_runs(dims, first, runs):
    """A grid whose (x, z, y) payload order holds alternating runs, starting
    with value ``first``; what the runs leave over is one more run."""
    flat = np.zeros(dims[0] * dims[1] * dims[2], dtype=bool)
    value, at = first, 0
    for run in runs:
        flat[at:at + run] = value
        value, at = not value, at + run
    flat[at:] = value
    return flat.reshape(dims[0], dims[2], dims[1]).transpose(0, 2, 1)


axis_sizes = st.one_of(st.just(1), st.integers(1, 40))


@settings(max_examples=300)
@given(dims=st.tuples(axis_sizes, axis_sizes, axis_sizes),
       density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dims=(40, 40, 40), density=0.0, seed=0)
@example(dims=(40, 40, 40), density=1.0, seed=0)
@example(dims=(1, 1, 1), density=1.0, seed=0)
def test_encoder_matches_reference_on_random_grids(dims, density, seed):
    g = np.random.default_rng(seed).random(dims) < density
    assert write_binvox(g) == reference_write_binvox(g)


@settings(max_examples=300)
@given(dims=st.sampled_from([(40, 40, 40), (16, 64, 16), (7, 5, 9), (1, 40, 40), (40, 1, 1)]),
       first=st.booleans(),
       runs=st.lists(st.sampled_from([1, 2, 254, 255, 256, 510, 511, 765, 1000]), max_size=12))
def test_encoder_matches_reference_on_exact_run_lengths(dims, first, runs):
    g = grid_from_runs(dims, first, runs)
    assert write_binvox(g) == reference_write_binvox(g)


@pytest.mark.parametrize("run", [254, 255, 256, 510, 511, 765])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_run_split_into_chunks_of_255(run, where):
    dims = (4, 16, 32)  # 2048 voxels
    total = dims[0] * dims[1] * dims[2]
    before = {"first": 0, "middle": 100, "last": total - run}[where]
    g = grid_from_runs(dims, False, [before, run])
    data = write_binvox(g)
    assert data == reference_write_binvox(g)
    payload = data.split(b"data\n", 1)[1]
    pairs = list(zip(payload[0::2], payload[1::2]))
    ones = [c for v, c in pairs if v == 1]
    assert ones == [255] * ((run - 1) // 255) + [run - 255 * ((run - 1) // 255)]
    out, _, _ = read_binvox(data)
    assert (out == g).all()


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


def test_header_values_roundtrip_where_g_truncates():
    g = np.zeros((3, 4, 5), dtype=bool)
    for translate, scale in [((0.123456789, 0.0, 0.0), 1 / 3),
                             ((1e-300, -2.5e10, 123456.7), 1e-7),
                             ((-0.1, 0.2, 0.30000000000000004), 2.0 ** 0.5)]:
        data = write_binvox(g, translate=translate, scale=scale)
        _, t, s = read_binvox(data)
        assert t == translate and s == scale


@pytest.mark.parametrize("dims", [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)])
def test_write_refuses_zero_dims(dims):
    with pytest.raises(BinvoxError):
        write_binvox(np.zeros(dims, dtype=bool))


def test_write_refuses_grids_too_large_to_read():
    # a broadcast view: the 2^24 + 1 voxels are never allocated
    g = np.broadcast_to(np.zeros((1, 1, 1), dtype=bool), (MAX_GRID_VOXELS + 1, 1, 1))
    with pytest.raises(BinvoxError):
        write_binvox(g)
    edge = np.zeros((4096, 4096, 1), dtype=bool)  # exactly MAX_GRID_VOXELS still writes
    out, _, _ = read_binvox(write_binvox(edge))
    assert out.shape == edge.shape


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


@pytest.mark.parametrize("dims", [(0, 3, 3), (3, 3, 0)])
def test_obj_zero_size_grid(dims):
    assert export_obj(np.zeros(dims, dtype=bool)) == "# voxel surface mesh: 0 cubes\n"


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
