"""Rasterize programs into dense boolean voxel grids.

Grids are numpy bool arrays indexed (x, y, z) with y up; voxel i is the
unit cube centered at integer coordinate i. Everything clips silently at
the grid bounds and composes by union, so statement order never matters.
"""
from __future__ import annotations

import math

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
)
from .errors import BudgetError

DEFAULT_DIMS = (32, 32, 32)
# Largest grid built from outside input (binvox dims, --dims): 16 MiB of bools.
MAX_GRID_VOXELS = 2 ** 24


def empty_grid(dims=DEFAULT_DIMS) -> np.ndarray:
    return np.zeros(tuple(int(d) for d in dims), dtype=bool)


def _clip(lo, hi, dim):
    return max(lo, 0), min(hi, dim)


def _fill_box(grid, x0, x1, y0, y1, z0, z1):
    dx, dy, dz = grid.shape
    x0, x1 = _clip(x0, x1, dx)
    y0, y1 = _clip(y0, y1, dy)
    z0, z1 = _clip(z0, z1, dz)
    if x0 < x1 and y0 < y1 and z0 < z1:
        grid[x0:x1, y0:y1, z0:z1] = True


def _fill_disk_column(grid, px, py, pz, t, r):
    dx, dy, dz = grid.shape
    y0, y1 = _clip(py, py + t, dy)
    if y0 >= y1:
        return
    x0, x1 = _clip(px - r, px + r + 1, dx)
    z0, z1 = _clip(pz - r, pz + r + 1, dz)
    if x0 >= x1 or z0 >= z1:
        return
    xs = np.arange(x0, x1)
    zs = np.arange(z0, z1)
    mask = (xs[:, None] - px) ** 2 + (zs[None, :] - pz) ** 2 <= r * r
    grid[x0:x1, y0:y1, z0:z1] |= mask[:, None, :]


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
    if shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE):
        t, r = geometry
        _fill_disk_column(grid, px, py, pz, t, r)
    elif shape is ShapeKind.SQUARE:
        t, r = geometry
        _fill_box(grid, px - r, px + r + 1, py, py + t, pz - r, pz + r + 1)
    elif shape is ShapeKind.RECTANGLE:
        t, r1, r2 = geometry
        _fill_box(grid, px, px + r1, py, py + t, pz, pz + r2)
    elif shape is ShapeKind.CUBOID:
        t, r1, r2 = geometry[:3]
        ang = geometry[3] if len(geometry) == 4 else 0
        if ang == 0:
            _fill_box(grid, px, px + r1, py, py + t, pz, pz + r2)
        else:
            slope = math.tan(math.radians(ang))
            # only the rows inside the grid: the cost stays bounded by dims
            for k in range(max(0, -py), min(t, grid.shape[1] - py)):
                shift = int(np.rint(k * slope))
                _fill_box(grid, px + shift, px + r1 + shift,
                          py + k, py + k + 1, pz, pz + r2)
    else:  # line
        dx, dy, dz = grid.shape
        pts = _line_points(position, geometry, grid.shape)
        keep = ((pts >= 0) & (pts < np.array([dx, dy, dz]))).all(axis=1)
        pts = pts[keep]
        grid[pts[:, 0], pts[:, 1], pts[:, 2]] = True


def draw_extent(shape, position, geometry) -> tuple:
    """Unclipped bounding box ``(lo, hi)`` (hi exclusive) of one primitive,
    and an upper bound on the voxels it sets; degenerate geometry gives 0."""
    px, py, pz = position
    if shape is ShapeKind.LINE:
        lo = tuple(min(a, b) for a, b in zip(position, geometry))
        hi = tuple(max(a, b) + 1 for a, b in zip(position, geometry))
        return lo, hi, max(abs(a - b) for a, b in zip(position, geometry)) + 1
    t = geometry[0]
    if shape in (ShapeKind.CUBOID, ShapeKind.RECTANGLE):
        r1, r2 = geometry[1:3]
        x0, x1 = px, px + r1
        if len(geometry) == 4 and t > 0:
            # the last row's shift, as _render computes it; shifts are monotone in the row
            shift = int(np.rint((t - 1) * math.tan(math.radians(geometry[3]))))
            x0, x1 = x0 + min(shift, 0), x1 + max(shift, 0)
        return (x0, py, pz), (x1, py + t, pz + r2), max(t, 0) * max(r1, 0) * max(r2, 0)
    r = geometry[1]
    w = max(2 * r + 1, 0)
    return (px - r, py, pz - r), (px + r + 1, py + t, pz + r + 1), max(t, 0) * w * w


def render_draw(d: DrawStmt, dims=DEFAULT_DIMS) -> np.ndarray:
    """Rasterize one primitive; out-of-bounds voxels are dropped."""
    grid = empty_grid(dims)
    _render(grid, d.shape, d.position, d.geometry)
    return grid


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
    return tuple(int(np.rint(v)) for v in (x, y, z))


def _unroll(f: ForStmt, dims, limits) -> list:
    """A loop's copies as (draw, position, geometry) records.

    ``draw`` is the body statement a copy came from; position and geometry
    are where the copy lands, so no statement is built per copy.
    """
    if expanded_size(f) > limits.max_expanded:
        raise BudgetError(
            f"loop expands to {expanded_size(f)} draws,"
            f" over the limit of {limits.max_expanded}"
        )
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
            off = tuple(k * u for u in f.step)
            for d, pos, geom in body:
                if d.shape is ShapeKind.LINE:
                    geom = tuple(g + o for g, o in zip(geom, off))
                out.append((d, tuple(p + o for p, o in zip(pos, off)), geom))
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


def execute_block(b, dims=DEFAULT_DIMS) -> np.ndarray:
    """Run one top-level statement to a grid (loops union their draws)."""
    grid = empty_grid(dims)
    if isinstance(b, DrawStmt):
        _render(grid, b.shape, b.position, b.geometry)
    else:
        for d, pos, geom in _unroll(b, dims, DEFAULT_LIMITS):
            _render(grid, d.shape, pos, geom)
    return grid


def execute_program(p: Program, dims=DEFAULT_DIMS) -> np.ndarray:
    """Union of all block grids; the empty program gives the empty grid."""
    grid = empty_grid(dims)
    for b in p.statements:
        grid |= execute_block(b, dims)
    return grid
