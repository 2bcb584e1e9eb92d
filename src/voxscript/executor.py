"""Rasterize programs into dense boolean voxel grids.

Grids are numpy bool arrays indexed (x, y, z) with y up; voxel i is the
unit cube centered at integer coordinate i. Everything clips silently at
the grid bounds and composes by union, so statement order never matters.
Draw geometry is defined here once: the fit search counts box draws from
``draw_boxes``, which also draws a tilted Cub, and bounds draws with
``draw_extents``.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .dsl.ast import (
    Axis,
    DEFAULT_LIMITS,
    DrawStmt,
    ForStmt,
    LoopMode,
    Program,
    ShapeKind,
    expanded_size,
    validate_program,
)
from .errors import BudgetError, InputError, InvalidProgramError, ShapeMismatchError

DEFAULT_DIMS = (32, 32, 32)
# Largest grid built from outside input (binvox dims, --dims): 16 MiB of bools.
MAX_GRID_VOXELS = 2 ** 24
# Discs up to this radius are cut from a cached stencil; a larger one, which
# only an unvalidated program draws, is computed over its clipped window.
_STENCIL_MAX_RADIUS = 64


def empty_grid(dims=DEFAULT_DIMS) -> np.ndarray:
    """An all-empty grid; ``dims`` must be three non-negative ints holding
    at most ``MAX_GRID_VOXELS`` voxels, checked before anything is allocated."""
    try:
        x, y, z = (operator.index(d) for d in dims)
    except (TypeError, ValueError):
        raise InputError(f"grid dims must be three ints, got {dims!r}") from None
    if min(x, y, z) < 0 or x * y * z > MAX_GRID_VOXELS:
        raise InputError(f"grid dims {(x, y, z)} must be >= 0 and hold at most"
                         f" {MAX_GRID_VOXELS} voxels")
    return np.zeros((x, y, z), dtype=bool)


def as_grid(g) -> np.ndarray:
    """``g`` as a bool array; anything but a 3-D grid raises ShapeMismatchError."""
    g = np.asarray(g, dtype=bool)
    if g.ndim != 3:
        raise ShapeMismatchError(f"expected a 3-D grid, got shape {g.shape}")
    return g


def _fill_box(grid, x0, y0, z0, x1, y1, z1):
    dx, dy, dz = grid.shape
    if x0 < 0:
        x0 = 0
    if y0 < 0:
        y0 = 0
    if z0 < 0:
        z0 = 0
    if x1 > dx:
        x1 = dx
    if y1 > dy:
        y1 = dy
    if z1 > dz:
        z1 = dz
    if x0 < x1 and y0 < y1 and z0 < z1:
        grid[x0:x1, y0:y1, z0:z1] = True


@functools.lru_cache(maxsize=None)
def _disc_stencil(r) -> np.ndarray:
    """The read-only (2r+1, 1, 2r+1) mask of the disc of radius r."""
    d = np.arange(-r, r + 1)
    mask = (d[:, None] ** 2 + d[None, :] ** 2 <= r * r)[:, None, :]
    mask.flags.writeable = False
    return mask


def _fill_disk_column(grid, px, py, pz, t, r):
    dx, dy, dz = grid.shape
    y0, y1 = max(py, 0), min(py + t, dy)
    if y0 >= y1:
        return
    x0, x1 = max(px - r, 0), min(px + r + 1, dx)
    z0, z1 = max(pz - r, 0), min(pz + r + 1, dz)
    if x0 >= x1 or z0 >= z1:
        return
    if r <= _STENCIL_MAX_RADIUS:
        mask = _disc_stencil(r)[x0 - px + r:x1 - px + r, :, z0 - pz + r:z1 - pz + r]
    else:
        xs = np.arange(x0, x1)
        zs = np.arange(z0, z1)
        mask = ((xs[:, None] - px) ** 2 + (zs[None, :] - pz) ** 2 <= r * r)[:, None, :]
    grid[x0:x1, y0:y1, z0:z1] |= mask


def _line_points(p0, p1, dims):
    """Integer points from p0 to p1 inclusive, one per longest-axis step.

    A line much longer than the grid evaluates only the steps that can
    land inside ``dims``, widened by one step each way, so the work stays
    bounded by the grid; the caller still drops out-of-grid points. Step k
    is ``k / steps`` either way, so the points are the same.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    steps = int(np.max(np.abs(p1 - p0)))
    if steps == 0:
        return np.rint(p0).astype(int)[None, :]
    k0, k1 = 0, steps
    if steps > sum(dims):
        for a, d, n in zip(p0, p1 - p0, dims):
            if d:
                # the steps whose coordinate rounds into [0, n - 1]
                lo, hi = sorted(((-0.5 - a) * steps / d, (n - 0.5 - a) * steps / d))
                k0, k1 = max(k0, math.floor(lo) - 1), min(k1, math.ceil(hi) + 1)
    ts = np.arange(k0, k1 + 1)[:, None] / steps
    return np.rint(p0[None, :] + ts * (p1 - p0)[None, :]).astype(int)


def _render(grid: np.ndarray, shape, position, geometry) -> None:
    px, py, pz = position
    if shape is ShapeKind.CUBOID or shape is ShapeKind.RECTANGLE:
        if len(geometry) == 3:
            t, r1, r2 = geometry
            _fill_box(grid, px, py, pz, px + r1, py + t, pz + r2)
        else:
            for box in draw_boxes(shape, position, geometry, grid.shape[1]):
                _fill_box(grid, *box)
    elif shape is ShapeKind.CYLINDER or shape is ShapeKind.CIRCLE:
        t, r = geometry
        _fill_disk_column(grid, px, py, pz, t, r)
    elif shape is ShapeKind.SQUARE:
        t, r = geometry
        _fill_box(grid, px - r, py, pz - r, px + r + 1, py + t, pz + r + 1)
    else:  # line
        dx, dy, dz = grid.shape
        pts = _line_points(position, geometry, grid.shape)
        keep = ((pts >= 0) & (pts < np.array([dx, dy, dz]))).all(axis=1)
        pts = pts[keep]
        grid[pts[:, 0], pts[:, 1], pts[:, 2]] = True


def _tilt_runs(ang, k0, k1) -> list:
    """Rows k0..k1-1 of a Cuboid tilted by ``ang`` degrees as [first row,
    end row, x shift] runs of equal shift; row k shifts by round(k * tan(ang))."""
    slope = math.tan(math.radians(ang))
    runs: list = []
    for k in range(k0, k1):
        # round() halves to even on a float, as np.rint does
        shift = round(k * slope)
        if runs and runs[-1][2] == shift:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1, shift])
    return runs


def draw_boxes(shape, pos, geom, dy):
    """The disjoint boxes (x0, y0, z0, x1, y1, z1) whose union a draw sets,
    or None for a line or a cylinder: one box for an untilted Cub or Rect or
    a Sqr, one per run of equal shift for a tilted Cub. Given the grid's
    height ``dy``, tilted rows are clipped to the grid, so the work stays
    bounded by it; given None they are not, and a tilt of several runs
    gives None. Boxes are not clipped otherwise."""
    x, y, z = pos
    if shape is ShapeKind.SQUARE:
        t, r = geom[:2]
        return ((x - r, y, z - r, x + r + 1, y + t, z + r + 1),)
    if shape is not ShapeKind.CUBOID and shape is not ShapeKind.RECTANGLE:
        return None
    t, r1, r2 = geom[:3]
    tilt = geom[3] if len(geom) > 3 else 0
    if tilt and dy is not None:
        return tuple((x + s, y + k0, z, x + r1 + s, y + k1, z + r2)
                     for k0, k1, s in _tilt_runs(tilt, max(0, -y), min(t, dy - y)))
    if tilt and t > 0 and _tilt_runs(tilt, t - 1, t)[0][2]:
        return None  # shifts are monotone from 0 at row 0, so the last row's decides
    return ((x, y, z, x + r1, y + t, z + r2),)


# A draw's shape code, where shapes are handled as arrays, is its index here.
SHAPES = tuple(ShapeKind)
_LINE_CODE = SHAPES.index(ShapeKind.LINE)
# Per shape code: drawn as a column of half-width r about its position, geometry (t, r)?
_IS_COLUMN = np.array([s in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE)
                       for s in SHAPES])
# Per shape code: are an untilted draw's voxels one box?
_IS_BOX = np.array([s in (ShapeKind.CUBOID, ShapeKind.RECTANGLE, ShapeKind.SQUARE)
                    for s in SHAPES])


def draw_extents(shape, pos, geom) -> tuple:
    """Unclipped bounding boxes of draws given as columns: shape codes (a
    draw's index in ``SHAPES``), (n, 3) positions and (n, 4) geometry,
    zero-padded after its last entry.

    Returns ``lo`` and ``hi`` (hi exclusive) as (n, 3) arrays and, per
    draw, an upper bound on the voxels it sets; degenerate geometry gives 0.
    A tilted Cuboid's box is widened by its last row's shift, computed as
    ``draw_boxes`` computes it; shifts are monotone in the row.
    """
    line = shape == _LINE_CODE
    column = _IS_COLUMN[shape]
    end = geom[:, :3]
    t, r1, r2, ang = geom.T
    shift = np.zeros(len(geom), dtype=np.int64)
    tilted = ~line & ~column & (ang != 0) & (t > 0)
    if tilted.any():
        slope = np.array([math.tan(math.radians(v)) for v in ang[tilted].tolist()])
        shift[tilted] = np.rint((t[tilted] - 1) * slope)
    # x and z spans from the position: [0, r1) and [0, r2) for a box, [-r, r] for a column
    off = np.where(column, -r1, 0)
    wx = np.where(column, 2 * r1 + 1, r1)
    wz = np.where(column, 2 * r1 + 1, r2)
    lo = pos + np.stack((off + np.minimum(shift, 0), np.zeros_like(t), off), axis=1)
    hi = pos + np.stack((off + wx + np.maximum(shift, 0), t, off + wz), axis=1)
    volume = np.maximum(t, 0) * np.maximum(wx, 0) * np.maximum(wz, 0)
    lo = np.where(line[:, None], np.minimum(pos, end), lo)
    hi = np.where(line[:, None], np.maximum(pos, end) + 1, hi)
    volume = np.where(line, np.abs(pos - end).max(axis=1) + 1, volume)
    return lo, hi, volume


def _rotate_pair(a, b, ca, cb, cos_t, sin_t):
    da, db = a - ca, b - cb
    return (ca + cos_t * da - sin_t * db, cb + sin_t * da + cos_t * db)


def _rotate_point(pt, angle_deg, axis, dims):
    x, y, z = pt
    cx = (dims[0] - 1) / 2
    cy = (dims[1] - 1) / 2
    cz = (dims[2] - 1) / 2
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    if axis is Axis.Y:
        x, z = _rotate_pair(x, z, cx, cz, c, s)
    elif axis is Axis.X:
        y, z = _rotate_pair(y, z, cy, cz, c, s)
    else:
        x, y = _rotate_pair(x, y, cx, cy, c, s)
    # round() halves to even on a float, as np.rint does
    return round(x), round(y), round(z)


def _unroll(f: ForStmt, dims, limits) -> list:
    """A loop's copies as (draw, position, geometry) records.

    ``draw`` is the body statement a copy came from; position and geometry
    are where the copy lands, so no statement is built per copy. A loop
    that cannot be unrolled, whose times somewhere is not an int or whose
    body holds a non-statement, raises InvalidProgramError with the loop's
    report, its paths starting at the loop as ``stmt[0]``.
    """
    size = expanded_size(f)
    if not isinstance(size, int):
        raise InvalidProgramError(validate_program(Program((f,)), limits))
    if size > limits.max_expanded:
        raise BudgetError(f"loop expands to {size} draws, over the limit of {limits.max_expanded}")
    body: list = []
    for s in f.body:
        if isinstance(s, DrawStmt):
            body.append((s, s.position, s.geometry))
        else:
            body.extend(_unroll(s, dims, limits))
    out: list = []
    for k in range(f.times):
        if k == 0 or (f.mode is LoopMode.ROTATION and f.angle == 0):
            out.extend(body)
        elif f.mode is LoopMode.TRANSLATION:
            ux, uy, uz = f.step
            ox, oy, oz = k * ux, k * uy, k * uz
            for d, (x, y, z), geom in body:
                if d.shape is ShapeKind.LINE:
                    gx, gy, gz = geom
                    geom = (gx + ox, gy + oy, gz + oz)
                out.append((d, (x + ox, y + oy, z + oz), geom))
        else:
            ang = k * f.angle
            for d, pos, geom in body:
                if d.shape is ShapeKind.LINE:
                    geom = _rotate_point(geom, ang, f.axis, dims)
                out.append((d, _rotate_point(pos, ang, f.axis, dims), geom))
    return out


def unroll_for(f: ForStmt, dims=DEFAULT_DIMS, limits=DEFAULT_LIMITS) -> list:
    """Expand a loop into plain draws, innermost loops first.

    Iteration k translates by k*u, or rotates the original coordinates by
    k*angle about the grid-center axis (so orbits never accumulate snap
    error). Line endpoints move with their start points.
    """
    return [DrawStmt(d.semantics, d.shape, pos, geom)
            for d, pos, geom in _unroll(f, dims, limits)]


def _draw(grid, block, dims) -> None:
    """Draw one top-level statement into ``grid`` (loops union their copies)."""
    if isinstance(block, DrawStmt):
        _render(grid, block.shape, block.position, block.geometry)
    else:
        for d, pos, geom in _unroll(block, dims, DEFAULT_LIMITS):
            _render(grid, d.shape, pos, geom)


def execute_block(b, dims=DEFAULT_DIMS) -> np.ndarray:
    """Run one top-level statement to a grid."""
    grid = empty_grid(dims)
    _draw(grid, b, dims)
    return grid


def execute_program(p: Program, dims=DEFAULT_DIMS) -> np.ndarray:
    """Union of all blocks, drawn into one grid; the empty program gives the empty grid."""
    grid = empty_grid(dims)
    for b in p.statements:
        _draw(grid, b, dims)
    return grid
