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
    Limits,
    LoopMode,
    Program,
    ShapeKind,
    ValidationReport,
    Violation,
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
    y0 = py if py > 0 else 0
    y1 = py + t if py + t < dy else dy
    x0 = px - r if px > r else 0
    x1 = px + r + 1 if px + r < dx else dx
    z0 = pz - r if pz > r else 0
    z1 = pz + r + 1 if pz + r < dz else dz
    if y0 >= y1 or x0 >= x1 or z0 >= z1:
        return
    if r > _STENCIL_MAX_RADIUS:
        xs = np.arange(x0, x1)
        zs = np.arange(z0, z1)
        mask = ((xs[:, None] - px) ** 2 + (zs[None, :] - pz) ** 2 <= r * r)[:, None, :]
    else:
        mask = _disc_stencil(r)[x0 - px + r:x1 - px + r, :, z0 - pz + r:z1 - pz + r]
    view = grid[x0:x1, y0:y1, z0:z1]
    view |= mask


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


def _render(grid: np.ndarray, shape, position, geometry, origin=(0, 0, 0)) -> None:
    """Draw one draw into ``grid``, a window whose voxel 0 sits at ``origin``
    of the whole grid (the whole grid by default). The window must hold every
    voxel the draw sets inside the whole grid, since it clips only to its own
    bounds. A line is rasterised in grid coordinates and then moved, since
    rint's halves-to-even rounding does not commute with an odd shift."""
    (x, y, z), (ox, oy, oz) = position, origin
    px, py, pz = x - ox, y - oy, z - oz
    if shape is ShapeKind.CUBOID or shape is ShapeKind.RECTANGLE:
        if len(geometry) == 3:
            t, r1, r2 = geometry
            _fill_box(grid, px, py, pz, px + r1, py + t, pz + r2)
        else:
            for box in draw_boxes(shape, (px, py, pz), geometry, grid.shape[1]):
                _fill_box(grid, *box)
    elif shape is ShapeKind.CYLINDER or shape is ShapeKind.CIRCLE:
        t, r = geometry
        _fill_disk_column(grid, px, py, pz, t, r)
    elif shape is ShapeKind.SQUARE:
        t, r = geometry
        _fill_box(grid, px - r, py, pz - r, px + r + 1, py + t, pz + r + 1)
    else:  # line
        far = (ox + grid.shape[0], oy + grid.shape[1], oz + grid.shape[2])
        pts = _line_points(position, geometry, far) - origin
        keep = ((pts >= 0) & (pts < grid.shape)).all(axis=1)
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


def _last_shift(ang, t) -> int:
    """The x shift of the last of ``t`` rows of a Cuboid tilted by ``ang``
    degrees, 0 when it has none; shifts are monotone from 0 at row 0, so it
    is the extreme one."""
    return _tilt_runs(ang, t - 1, t)[0][2] if ang and t > 0 else 0


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
    if _last_shift(tilt, t):
        return None
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
    A tilted Cuboid's box is widened by its last row's shift, ``_last_shift``.
    """
    line = shape == _LINE_CODE
    column = _IS_COLUMN[shape]
    end = geom[:, :3]
    t, r1, r2, ang = geom.T
    shift = np.zeros(len(geom), dtype=np.int64)
    tilted = ~line & ~column & (ang != 0) & (t > 0)
    if tilted.any():
        shift[tilted] = [_last_shift(a, n) for a, n in zip(ang[tilted].tolist(), t[tilted].tolist())]
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


def _copies(body, times, mode, step, angle, axis, dims) -> list:
    """``times`` copies of ``body``'s (shape, position, geometry, semantics)
    records, copy 0 first.

    Copy k translates by k * step, or rotates the original coordinates by
    k * angle about the grid-centre ``axis`` (so orbits never accumulate
    snap error). A line's end point moves as its start point does.
    """
    out = list(body) if times > 0 else []
    if mode is LoopMode.TRANSLATION:
        ux, uy, uz = step
        for k in range(1, times):
            ox, oy, oz = k * ux, k * uy, k * uz
            for shape, (x, y, z), geom, sem in body:
                if shape is ShapeKind.LINE:
                    gx, gy, gz = geom
                    geom = (gx + ox, gy + oy, gz + oz)
                out.append((shape, (x + ox, y + oy, z + oz), geom, sem))
    elif angle == 0:
        out *= times
    else:
        for k in range(1, times):
            ang = k * angle
            for shape, pos, geom, sem in body:
                if shape is ShapeKind.LINE:
                    geom = _rotate_point(geom, ang, axis, dims)
                out.append((shape, _rotate_point(pos, ang, axis, dims), geom, sem))
    return out


def _unroll(f: ForStmt, dims, limits) -> list:
    """A loop's copies as (shape, position, geometry, semantics) records, so
    no statement is built per copy. A loop that cannot be unrolled, whose
    times somewhere is not an int or whose body holds a non-statement,
    raises InvalidProgramError with the loop's report, its paths starting
    at the loop as ``stmt[0]``.
    """
    size = expanded_size(f)
    if not isinstance(size, int):
        raise InvalidProgramError(validate_program(Program((f,)), limits))
    if size > limits.max_expanded:
        raise BudgetError(f"loop expands to {size} draws, over the limit of {limits.max_expanded}")
    body: list = []
    for s in f.body:
        if isinstance(s, DrawStmt):
            body.append((s.shape, s.position, s.geometry, s.semantics))
        else:
            body.extend(_unroll(s, dims, limits))
    return _copies(body, f.times, f.mode, f.step, f.angle, f.axis, dims)


def _extent(shape, geom) -> tuple:
    """The box (x0, y0, z0, x1, y1, z1) holding every voxel a draw that is
    not a line sets, relative to its position: the scalar form of
    ``draw_extents``."""
    t, r1 = geom[0], geom[1]
    if shape is not ShapeKind.CUBOID and shape is not ShapeKind.RECTANGLE:
        return -r1, 0, -r1, r1 + 1, t, r1 + 1
    shift = _last_shift(geom[3], t) if len(geom) > 3 else 0
    return min(shift, 0), 0, 0, r1 + max(shift, 0), t, geom[2]


def _window(copies, dims):
    """Stamp ``copies`` of one draw, (shape, position, geometry, semantics)
    records as ``_copies`` gives them, into one zeroed window: the box that
    holds them all, clipped to the grid of ``dims``. Returns the box as
    slices and the window, or None when the box is empty."""
    if not copies:
        return None
    shape, _, geom, _ = copies[0]
    if shape is ShapeKind.LINE:  # the box of every end point
        xs, ys, zs = zip(*[p for _, pos, end, _ in copies for p in (pos, end)])
        ex0, ey0, ez0, ex1, ey1, ez1 = 0, 0, 0, 1, 1, 1
    else:  # the draw's box, moved to each copy's position
        xs, ys, zs = zip(*[pos for _, pos, _, _ in copies])
        ex0, ey0, ez0, ex1, ey1, ez1 = _extent(shape, geom)
    x0, y0, z0 = max(min(xs) + ex0, 0), max(min(ys) + ey0, 0), max(min(zs) + ez0, 0)
    x1, y1, z1 = (min(max(xs) + ex1, dims[0]), min(max(ys) + ey1, dims[1]),
                  min(max(zs) + ez1, dims[2]))
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return None
    window = np.zeros((x1 - x0, y1 - y0, z1 - z0), dtype=bool)
    origin = (x0, y0, z0)
    for shape, pos, geom, _ in copies:
        _render(window, shape, pos, geom, origin)
    return (slice(x0, x1), slice(y0, y1), slice(z0, z1)), window


def _invalid(program, limits, exc) -> InvalidProgramError:
    """The error for ``program`` after drawing it raised ``exc``: its
    validation report, or ``exc`` itself, re-raised, if it validates."""
    report = validate_program(program, limits)
    if report.ok:
        raise exc
    return InvalidProgramError(report)


_DRAW_ERRORS = (AttributeError, IndexError, TypeError, ValueError)


def unroll_for(f: ForStmt, dims=DEFAULT_DIMS, limits=DEFAULT_LIMITS) -> list:
    """Expand a loop into plain draws, innermost loops first.

    Iteration k translates by k*u, or rotates the original coordinates by
    k*angle about the grid-center axis; line endpoints move with their start
    points (see ``_copies``). A draw, or a loop that fails to unroll, raises
    InvalidProgramError.
    """
    try:
        return [DrawStmt(sem, shape, pos, geom)
                for shape, pos, geom, sem in _unroll(f, dims, limits)]
    except _DRAW_ERRORS as exc:
        if isinstance(f, ForStmt):
            raise _invalid(Program((f,)), limits, exc) from exc
        report = ValidationReport(False, (Violation("stmt[0]", f"not a loop: {f!r}"),))
        raise InvalidProgramError(report) from exc


def _draw(grid, block, dims) -> None:
    """Draw one top-level statement into ``grid`` (loops union their copies)."""
    if isinstance(block, DrawStmt):
        _render(grid, block.shape, block.position, block.geometry)
    else:
        for shape, pos, geom, _ in _unroll(block, dims, DEFAULT_LIMITS):
            _render(grid, shape, pos, geom)


def execute_block(b, dims=DEFAULT_DIMS) -> np.ndarray:
    """Run one top-level statement to a grid. A statement that fails to draw
    raises InvalidProgramError with its report under ``Limits.for_dims``."""
    grid = empty_grid(dims)
    try:
        _draw(grid, b, dims)
    except _DRAW_ERRORS as exc:
        raise _invalid(Program((b,)), Limits.for_dims(dims), exc) from exc
    return grid


def execute_program(p: Program, dims=DEFAULT_DIMS) -> np.ndarray:
    """Union of all blocks, drawn into one grid; the empty program gives the
    empty grid. A program that fails to draw raises InvalidProgramError
    with its report under ``Limits.for_dims``."""
    grid = empty_grid(dims)
    try:
        for b in p.statements:
            _draw(grid, b, dims)
    except _DRAW_ERRORS as exc:
        raise _invalid(p, Limits.for_dims(dims), exc) from exc
    return grid
