"""Binvox voxel files and OBJ surface meshes.

Binvox layout: text header (magic, dim, translate, scale, data) then a
run-length payload of (value, count) byte pairs. Runs nest x slowest,
then z, then y fastest; grids here are indexed (x, y, z), so the payload
is the grid transposed to (x, z, y) and flattened.
"""
from __future__ import annotations

import numpy as np

from .errors import BinvoxError
from .executor import MAX_GRID_VOXELS
from .metrics import surface_mask

_MAGIC = b"#binvox 1"


def write_binvox(g, translate=(0.0, 0.0, 0.0), scale=1.0) -> bytes:
    """Canonical encoding: maximal runs, counts split at 255."""
    g = np.asarray(g, dtype=bool)
    if g.ndim != 3:
        raise BinvoxError(f"grid must be 3-d, got shape {g.shape}")
    header = (
        f"#binvox 1\n"
        f"dim {g.shape[0]} {g.shape[1]} {g.shape[2]}\n"
        f"translate {translate[0]:g} {translate[1]:g} {translate[2]:g}\n"
        f"scale {scale:g}\n"
        f"data\n"
    ).encode("ascii")
    flat = g.transpose(0, 2, 1).ravel().astype(np.uint8)
    out = bytearray(header)
    if flat.size:
        # boundaries of equal-value runs
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


def read_binvox(data: bytes):
    """Decode to a bool grid indexed (x, y, z); errors carry byte offsets."""
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
            if len(dims) != 3 or any(d < 1 for d in dims):
                raise BinvoxError(f"bad dims {dims}", offset=line_start)
            if dims[0] * dims[1] * dims[2] > MAX_GRID_VOXELS:
                raise BinvoxError(f"dims {dims} too large", offset=line_start)
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
