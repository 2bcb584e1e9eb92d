"""Binvox voxel files and OBJ surface meshes.

Binvox layout: text header (magic, dim, translate, scale, data) then a
run-length payload of (value, count) byte pairs. Runs nest x slowest,
then z, then y fastest; grids here are indexed (x, y, z), so the payload
is the grid transposed to (x, z, y) and flattened.

The writer encodes canonically, with maximal runs split into chunks of 255,
in one numpy pass: run starts are where a value differs from the one before
it, and the pairs of all runs' chunks are written with one ``tobytes()``.
Headers carry ``translate`` and ``scale`` as ``:g`` text when that reads
back equal, and as ``repr`` otherwise, so every written file decodes to the
grid and the header values it was given.
"""
from __future__ import annotations

import numpy as np

from .dsl.ast import _show, check_dims as _grid_dims
from .errors import BinvoxError, InputError
from .metrics import surface_mask

_MAGIC = b"#binvox 1"


def check_dims(dims, offset=None) -> None:
    """Raise BinvoxError, at byte ``offset``, unless ``dims`` pass
    ``dsl.ast.check_dims`` with no zero axis: the grids a binvox file holds."""
    try:
        x, y, z = _grid_dims(dims)
    except InputError as exc:
        raise BinvoxError(str(exc), offset=offset) from None
    if min(x, y, z) < 1:
        raise BinvoxError(f"binvox dims {(x, y, z)} must be >= 1", offset=offset)


def _header_number(v) -> str:
    """``v`` as ``:g`` text if that parses back to ``v``, else its repr."""
    v = float(v)
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def write_binvox(g, translate=(0.0, 0.0, 0.0), scale=1.0) -> bytes:
    """Canonical encoding: maximal runs, counts split at 255.

    A grid that ``read_binvox`` would refuse, with a zero dimension or more
    than ``MAX_GRID_VOXELS`` voxels, raises BinvoxError before encoding, as
    does a ``translate`` that is not three numbers or a ``scale`` that is
    not one."""
    g = np.asarray(g, dtype=bool)
    if g.ndim != 3:
        raise BinvoxError(f"grid must be 3-d, got shape {g.shape}")
    check_dims(g.shape)
    try:
        tx, ty, tz = (_header_number(v) for v in translate)
        s = _header_number(scale)
    except (OverflowError, TypeError, ValueError):
        raise BinvoxError(f"translate must be three numbers and scale one, got"
                          f" {_show(translate)} and {_show(scale)}") from None
    header = (
        f"#binvox 1\n"
        f"dim {g.shape[0]} {g.shape[1]} {g.shape[2]}\n"
        f"translate {tx} {ty} {tz}\n"
        f"scale {s}\n"
        f"data\n"
    ).encode("ascii")
    flat = g.transpose(0, 2, 1).ravel()
    # run boundaries: 0, every index whose value differs from the one before, the end
    bounds = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1, [flat.size]))
    lengths = np.diff(bounds)
    chunks = (lengths + 254) // 255
    ends = np.cumsum(chunks)
    pairs = np.empty((int(ends[-1]), 2), dtype=np.uint8)
    pairs[:, 0] = np.repeat(flat[bounds[:-1]], chunks)
    pairs[:, 1] = 255
    # each run's last chunk holds the remainder, 1..255 voxels
    pairs[ends - 1, 1] = lengths - 255 * (chunks - 1)
    return header + pairs.tobytes()


def read_binvox(data: bytes):
    """Decode to a bool grid indexed (x, y, z); errors carry byte offsets.
    ``data`` that is not bytes raises BinvoxError."""
    if not isinstance(data, (bytes, bytearray)):
        raise BinvoxError(f"binvox data must be bytes, got {type(data).__name__}")
    if not data.startswith(_MAGIC):
        raise BinvoxError("bad magic, expected '#binvox 1'", offset=0)
    offset = 0
    dims = None
    translate = (0.0, 0.0, 0.0)
    scale = 1.0
    while True:
        nl = data.find(b"\n", offset)
        if nl < 0:
            raise BinvoxError("header ended before 'data' line", offset=len(data))
        line = data[offset:nl].decode("ascii", errors="replace").strip()
        line_start = offset
        offset = nl + 1
        if line == "data":
            break
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "dim":
            try:
                dims = tuple(int(v) for v in fields[1:4])
            except ValueError:
                raise BinvoxError(f"bad dim line {line!r}", offset=line_start) from None
            check_dims(dims, offset=line_start)
        elif fields[0] in ("translate", "scale"):
            want = 3 if fields[0] == "translate" else 1
            try:
                values = tuple(float(v) for v in fields[1:1 + want])
            except ValueError:
                values = ()
            if len(values) != want:
                raise BinvoxError(f"bad {fields[0]} line {line!r}", offset=line_start)
            if want == 3:
                translate = values
            else:
                scale = values[0]
    if dims is None:
        raise BinvoxError("missing dim line", offset=offset)
    total = dims[0] * dims[1] * dims[2]
    payload = np.frombuffer(data, dtype=np.uint8, offset=offset)
    if payload.size % 2 != 0:
        raise BinvoxError("odd payload length", offset=len(data))
    values = payload[0::2]
    counts = payload[1::2].astype(np.int64)
    if np.any((values != 0) & (values != 1)):
        bad = int(np.argmax((values != 0) & (values != 1)))
        raise BinvoxError(f"run value {values[bad]} not 0/1", offset=offset + 2 * bad)
    if np.any(counts == 0):
        bad = int(np.argmax(counts == 0))
        raise BinvoxError("zero run count", offset=offset + 2 * bad + 1)
    cum = np.cumsum(counts)
    written = int(cum[-1]) if len(cum) else 0
    if written != total:
        if written > total:
            bad = int(np.argmax(cum > total))
            raise BinvoxError(
                f"runs overflow grid ({written} > {total} voxels)",
                offset=offset + 2 * bad + 1,
            )
        raise BinvoxError(
            f"payload too short ({written} of {total} voxels)", offset=len(data)
        )
    flat = np.repeat(values.astype(bool), counts)
    grid = flat.reshape(dims[0], dims[2], dims[1]).transpose(0, 2, 1)
    return grid, translate, scale


# Unit-cube corner offsets and the 12 triangles (2 per face) over them.
_CORNERS = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
_QUADS = (
    (0, 1, 3, 2),  # -x
    (4, 6, 7, 5),  # +x
    (0, 4, 5, 1),  # -y
    (2, 3, 7, 6),  # +y
    (0, 2, 6, 4),  # -z
    (1, 5, 7, 3),  # +z
)


def export_obj(g) -> str:
    """Triangle mesh of the surface voxels, vertices deduplicated."""
    g = np.asarray(g, dtype=bool)
    surf = np.argwhere(surface_mask(g))
    lines = [f"# voxel surface mesh: {len(surf)} cubes"]
    vertex_id: dict = {}
    vertex_lines: list = []
    face_lines: list = []
    for x, y, z in surf:
        ids = []
        for ox, oy, oz in _CORNERS:
            corner = (int(x) + ox, int(y) + oy, int(z) + oz)
            vid = vertex_id.get(corner)
            if vid is None:
                vid = len(vertex_id) + 1
                vertex_id[corner] = vid
                vertex_lines.append(f"v {corner[0]} {corner[1]} {corner[2]}")
            ids.append(vid)
        for a, b, c, d in _QUADS:
            face_lines.append(f"f {ids[a]} {ids[b]} {ids[c]}")
            face_lines.append(f"f {ids[a]} {ids[c]} {ids[d]}")
    return "\n".join(lines + vertex_lines + face_lines) + "\n"
