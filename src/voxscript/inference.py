"""Fit a program to a target grid by greedy discrete search.

One block is accepted per round: candidates are seeded from the residual
(target voxels not yet reconstructed), the best few are polished by
integer coordinate descent, and the single best survivor is kept if it
clears a minimum gain. A candidate is scored from two voxel counts alone:
the residual voxels it covers and the empty voxels it fills; nothing is
updated incrementally.

Ranking is branch and bound. Each round builds one summed-volume table
of the residual and the empty voxels, so a box sum reads both counts. It
gives every candidate an upper bound on the residual voxels it can cover;
candidates run in descending bound order, and ranking stops once no
remaining bound can reach the beam. The bound only decides which
candidates are scored, and while the budget lasts the beam is exactly the
one that scoring every candidate would give.

A candidate whose voxels are a union of boxes is counted from the table,
not executed, from the executor's own ``draw_boxes``: an untilted
``Cub`` or ``Rect``, or a ``Sqr``, is one box; a tilted ``Cub`` is one
box per run of rows with equal shift. Copies i < j < k of a box meet
only inside copy j, so a translation loop over one covers each copy's
count minus each consecutive pair's overlap, exactly, for any step; over
a tilted ``Cub`` this holds run by run while the step keeps y. A
rotation about Y counts its copies, each the draw moved to its rotated
anchor, when their clipped bounding boxes are disjoint. Every other
candidate (lines, cylinders, rotations whose copies overlap, and
translations moving a multi-run tilt in y) is counted in its own window:
the executor expands the row's copies by the rule that unrolls loops,
stamps them into one zeroed window the size of their union box clipped to
the grid, and the window is summed against the round's packed grid there.
The beam's single-box rows are counted all at once, in the pass that
bounds them.

No statement is built to count a candidate. A round's candidates are the
rows of one int64 array (see ``propose_candidates``) and are bounded and
ordered as columns; a row becomes a labelled statement only when it is
accepted.

Refinement is coordinate descent over a block's candidate row: a
neighbour is the row with one column moved, each column bounded by the
grid dims and ``Limits.for_dims``. Neighbours are scored through one cache
per round, keyed by the row, which holds no part label: the residual and
counts are fixed within a round, so a neighbour that two beam entries
reach is scored once.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .dsl.ast import (GEOMETRY_ARITY, Axis, DrawStmt, ForStmt, Limits, LoopMode, Program,
                      Semantics, ShapeKind, validate_program)
from .errors import InputError, InvalidProgramError, ShapeMismatchError
from .executor import (_IS_BOX, SHAPES, _copies, _window, as_grid, draw_boxes, draw_extents,
                       execute_block)
from .metrics import iou

_WRAP_TIMES = (2, 3, 4, 5)
# A pattern repeated twice overlaps itself by exactly half its mass when
# shifted one period, so the detector threshold must sit below 0.5.
_PERIOD_MIN_OVERLAP = 0.45
_WRAP_MAX_COMPONENTS = 6
_WRAP_BODIES_PER_COMPONENT = 3
# Translation-wrapper bodies may be anchored anywhere inside the first
# period along the detected axis, not just at a component's first seed.
_WRAP_MAX_SLAB_BODIES = 32
_SEED_STRIDE = 2  # edge of the lattice cells that each give one seed
_REFINE_SWEEPS = 3  # coordinate-descent sweeps per refinement, at most
_SCORE_EPS = 1e-12

# Candidate row layout (see propose_candidates)
_MODE, _TIMES, _STEP, _SHAPE, _POS, _GEOM, _ROW_LEN = 0, 1, slice(2, 5), 5, slice(6, 9), 9, 13
_DRAW, _TRANS, _ROT = 0, 1, 2
_LOOP_MODES = (None, LoopMode.TRANSLATION, LoopMode.ROTATION)  # per row mode
_CUBOID, _CYLINDER, _LINE = (SHAPES.index(k) for k in
                             (ShapeKind.CUBOID, ShapeKind.CYLINDER, ShapeKind.LINE))


@dataclass(frozen=True)
class SearchConfig:
    """The search's settings: blocks accepted at most, beam entries refined
    per round, the least IoU gain a block must add, and the candidates
    scored per fit before it stops. A count that is not an int >= 1, or a
    ``min_gain`` that is not a finite number > 0, raises InputError."""
    max_blocks: int = 10
    beam_width: int = 8
    min_gain: float = 0.002
    budget: int = 200_000

    def __post_init__(self):
        for name in ("max_blocks", "beam_width", "budget"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InputError(f"{name} must be an int >= 1, got {v!r}")
        v = self.min_gain
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v < math.inf:
            raise InputError(f"min_gain must be a finite number > 0, got {v!r}")


@dataclass(frozen=True)
class FitResult:
    program: Program
    score_trace: tuple  # (accepted block, iou after accepting it)
    final_iou: float
    # candidates scored, from the round's table or a window; bound-skipped
    # candidates and cache hits are not counted
    executor_calls: int
    budget_exhausted: bool
    # why the search stopped: "max_blocks", "min_gain", "budget" or "residual_empty"
    stop_reason: str


class _Budget:
    def __init__(self, limit: int):
        self.limit = int(limit)
        self.calls = 0
        self.exhausted = False

    def spend(self) -> bool:
        if self.calls >= self.limit:
            self.exhausted = True
            return False
        self.calls += 1
        return True


# Walk directions for line seeds: all sign patterns with >= 2 moving axes,
# one of each opposite pair.
_LINE_DIRS = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0) and (dx != 0) + (dy != 0) + (dz != 0) >= 2
)
# Run directions per seed: +y, +x, +z, -x, -z, then each line direction
# followed by its opposite. A disc center needs the first five only.
_SEED_DIRS = np.array(((0, 1, 0), (1, 0, 0), (0, 0, 1), (-1, 0, 0), (0, 0, -1))
                      + tuple(tuple(sign * v for v in d) for d in _LINE_DIRS for sign in (1, -1)))


def _runs(res, points, dirs) -> np.ndarray:
    """Consecutive occupied voxels from each point (inclusive) along each
    direction, as an (n_points, n_dirs) array.

    All walks advance together over a copy of the grid with a one-voxel
    empty border, so a walk stops at the border without a bounds check.
    """
    pad = np.zeros(tuple(n + 2 for n in res.shape), dtype=bool)
    pad[1:-1, 1:-1, 1:-1] = res
    flat = pad.ravel()
    strides = np.array((pad.shape[1] * pad.shape[2], pad.shape[2], 1))
    cur = np.repeat(((np.asarray(points) + 1) @ strides)[:, None], len(dirs), axis=1)
    step = np.asarray(dirs) @ strides
    n = np.zeros(cur.shape, dtype=np.int64)
    alive = flat[cur]
    while alive.any():
        n += alive
        cur += alive * step
        alive &= flat[cur]
    return n


def _lattice_seeds(res, lo, hi, s) -> np.ndarray:
    """One seed per stride cell of the box lo..hi: the cell's first occupied
    voxel in (x, y, z) order, cells in the same order."""
    cells = tuple(int(v) for v in (hi - lo) // s + 1)
    box = np.zeros(tuple(c * s for c in cells), dtype=bool)
    sub = res[lo[0]:lo[0] + box.shape[0], lo[1]:lo[1] + box.shape[1], lo[2]:lo[2] + box.shape[2]]
    box[:sub.shape[0], :sub.shape[1], :sub.shape[2]] = sub
    per_cell = box.reshape(cells[0], s, cells[1], s, cells[2], s).transpose(0, 2, 4, 1, 3, 5)
    per_cell = per_cell.reshape(cells + (s ** 3,))
    hit = per_cell.any(axis=-1)
    first = np.stack(np.unravel_index(per_cell.argmax(axis=-1)[hit], (s, s, s)), axis=1)
    return lo + np.argwhere(hit) * s + first


def _label_semantics(shape, pos, geom, dims) -> Semantics:
    """Deterministic part label from geometry alone; never affects voxels."""
    cx, cz = dims[0] // 2, dims[2] // 2
    if shape is ShapeKind.LINE:
        return Semantics.BASE
    grounded = pos[1] == 0
    if shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE):
        t, r = geom[0], geom[1]
        if t <= 3:
            return Semantics.TOP
        if abs(pos[0] - cx) <= 2 and abs(pos[2] - cz) <= 2:
            return Semantics.SUPPORT
        return Semantics.LEG if grounded else Semantics.BACKSUP
    if shape is ShapeKind.SQUARE:
        return Semantics.BASE if grounded else Semantics.LAYER
    h = geom[0]
    ex, ez = geom[1], geom[2]
    if ex <= 4 and ez <= 4:
        if h <= 2:
            return Semantics.BEAM
        return Semantics.LEG if grounded else Semantics.BACKSUP
    if h <= 3:
        if grounded:
            return Semantics.BASE
        return Semantics.TOP if pos[1] >= dims[1] // 4 else Semantics.LAYER
    if min(ex, ez) <= 3:
        if grounded:
            return Semantics.SIDEBOARD
        return Semantics.BACK if ex <= ez else Semantics.VBOARD
    return Semantics.LOCKER if grounded else Semantics.BACK


def _make_block(row, dims, semantics=None):
    """The statement a candidate row (a sequence of numbers) stands for, its
    draw labelled ``semantics``, or from its geometry when that is None."""
    mode, times, ux, uy, uz, code, x, y, z, *geom = row
    shape = SHAPES[code]
    geom = tuple(geom[:GEOMETRY_ARITY[shape][1]])  # DrawStmt drops a zero Cub tilt
    if semantics is None:
        semantics = _label_semantics(shape, (x, y, z), geom, dims)
    draw = DrawStmt(semantics, shape, (x, y, z), geom)
    if mode == _TRANS:
        return ForStmt.translation(times, (ux, uy, uz), (draw,))
    return draw if mode == _DRAW else ForStmt.rotation(times, ux, Axis.Y, (draw,))


def _row_of(block) -> tuple:
    """The candidate row of a draw, or of a translation or rotation about Y
    over one draw: the inverse of ``_make_block`` but for part labels. Any
    other block raises InputError."""
    head, draw = (_DRAW, 1, 0, 0, 0), block
    if isinstance(block, ForStmt):
        if len(block.body) != 1 or not isinstance(block.body[0], DrawStmt):
            raise InputError("only a loop over one draw has a candidate row")
        if block.mode is LoopMode.TRANSLATION:
            head = (_TRANS, block.times, *block.step)
        elif block.axis is Axis.Y:
            head = (_ROT, block.times, block.angle, 0, 0)
        else:
            raise InputError(f"a rotation about {block.axis.value} has no candidate row")
        draw = block.body[0]
    return head + (SHAPES.index(draw.shape), *draw.position, *(draw.geometry + (0,) * 4)[:4])


def _periodic_steps(res, occ) -> list:
    """Per axis, the smallest shift under which the grid best overlaps
    itself, given its occupied voxels ``occ`` as ``np.argwhere`` lists them.

    Entry (i, j) of the Gram matrix of the slices along an axis counts the
    voxels slices i and j share, so the overlap under shift k is the sum of
    its k-th upper diagonal (exact in float64 below 2^53 voxels). Slices
    are cropped to the occupied box, which changes no overlap; past the
    box's extent every overlap is 0.
    """
    found = []
    counts = [np.bincount(occ[:, axis], minlength=n) for axis, n in enumerate(res.shape)]
    occupied = [np.flatnonzero(c) for c in counts]
    if not len(occupied[0]):
        return found
    box = res[tuple(slice(o[0], o[-1] + 1) for o in occupied)].astype(np.float64)
    for axis, c in enumerate(counts):
        ext = box.shape[axis]
        slices = np.moveaxis(box, axis, 0).reshape(ext, -1)
        i = np.arange(ext)
        overlap = np.bincount(abs(i[:, None] - i).ravel(), np.triu(slices @ slices.T).ravel())
        # voxels from slice k on and before slice n - k: both nonzero for
        # every shift inside the box
        cum, overlap = np.cumsum(c).tolist(), overlap.tolist()
        best = None  # (fraction, k)
        for k in range(2, ext):
            frac = overlap[k] / min(cum[-1] - cum[k - 1], cum[len(cum) - k - 1])
            if frac >= _PERIOD_MIN_OVERLAP and (best is None or frac > best[0] + 1e-9):
                best = (frac, k)
        if best is not None:
            found.append((axis, best[1]))
    return found


def _loop_rows(headers, bodies) -> np.ndarray:
    """Every header (mode, times, step or angle) over every body row, body-major."""
    out = np.empty((len(bodies), len(headers), _ROW_LEN), dtype=np.int64)
    out[:, :, :_SHAPE] = headers
    out[:, :, _SHAPE:] = bodies[:, None, _SHAPE:]
    return out.reshape(-1, _ROW_LEN)


def _seed_draws(res, seeds) -> tuple:
    """Draws grown from each seed, where big enough, as candidate columns
    ``_SHAPE`` on: a cuboid, cylinders at the seed and at its snapped disc
    center, and a line per line direction. Also returns each draw's seed."""
    runs = _runs(res, seeds, _SEED_DIRS)
    # disc seed snapped to the midpoint of the opposing runs, so rim points
    # still yield a usable cylinder; radius is taken from fresh runs at the
    # snapped center
    centers = seeds.copy()
    centers[:, 0] += (runs[:, 1] - runs[:, 3]) // 2
    centers[:, 2] += (runs[:, 2] - runs[:, 4]) // 2
    moved = (centers != seeds).any(axis=1) & res[tuple(centers.T)]
    center_runs = np.zeros((len(seeds), 5), dtype=np.int64)
    center_runs[moved] = _runs(res, centers[moved], _SEED_DIRS[:5])
    slots = np.zeros((len(seeds), 3 + 2 * len(_LINE_DIRS), _ROW_LEN - _SHAPE), dtype=np.int64)
    slots[:, :, 0] = (_CUBOID, _CYLINDER, _CYLINDER) + (_LINE,) * 2 * len(_LINE_DIRS)
    slots[:, :, 1:4] = seeds[:, None]
    slots[:, 2, 1:4] = centers
    geom = slots[:, :, 4:]
    geom[:, 0, :3] = runs[:, :3]
    for slot, r in ((1, runs), (2, center_runs)):
        geom[:, slot, 0], geom[:, slot, 1] = r[:, 0], r[:, 1:5].min(axis=1) - 1
    geom[:, 3:, :3] = seeds[:, None] + (runs[:, 5:, None] - 1) * _SEED_DIRS[None, 5:]
    valid = np.concatenate((np.ones((len(seeds), 1), dtype=bool), geom[:, 1:3, 1] >= 1,
                            runs[:, 5:] >= 4), axis=1)
    return slots[valid], np.nonzero(valid)[0]


def propose_candidates(residual, config: SearchConfig = SearchConfig()) -> np.ndarray:
    """Candidate blocks seeded from the residual's occupied structure.

    Draws: the bounding-box cuboid, two end-to-end lines, and per point of
    a stride lattice a cuboid, two cylinders and up to 20 lines grown from
    it. Loops wrap the draws anchored within one period, and the first
    draws at each of the first components' first lattice point, with
    self-overlap-detected translation steps and 360/times rotations.

    Each candidate is one row of the (n, 13) int64 array returned: mode (0
    draw, 1 translation, 2 rotation about Y), times, step x/y/z (a
    rotation's angle in x), shape code (see ``executor.SHAPES``), position
    x/y/z, and geometry padded with zeros to the tilt slot. A draw has times
    1 and a zero step. ``_make_block`` turns a row into its statement.
    """
    res = as_grid(residual)
    occ = np.argwhere(res)
    if len(occ) == 0:
        return np.zeros((0, _ROW_LEN), dtype=np.int64)
    lo, hi = occ.min(axis=0), occ.max(axis=0)
    # labelled inside the occupied box, which keeps the raster order of components
    labels, _ = ndimage.label(res[tuple(slice(a, b + 1) for a, b in zip(lo, hi))],
                              structure=np.ones((3, 3, 3), dtype=bool))
    steps = _periodic_steps(res, occ)

    # One seed point per stride cell: the cell's first occupied voxel.
    # Snapping (rather than testing the lattice corner itself) keeps thin
    # structures at off-lattice coordinates reachable.
    seeds = _lattice_seeds(res, lo, hi, _SEED_STRIDE)
    seeded, seed_of = _seed_draws(res, seeds)
    # the bounding-box cuboid and the end-to-end lines, exact for any single
    # rendered segment. Two scan orders, x-major as ``occ`` lists voxels and
    # z-major, since the extreme voxel under one order can be off by one when
    # several voxels tie on the leading axis.
    z_major = (occ[:, 2] * res.shape[1] + occ[:, 1]) * res.shape[0] + occ[:, 0]
    head = np.array([(_CUBOID, *lo, *(hi - lo + 1)[[1, 0, 2]], 0), (_LINE, *occ[0], *occ[-1], 0),
                     (_LINE, *occ[z_major.argmin()], *occ[z_major.argmax()], 0)])
    found = np.concatenate((head, seeded))
    # each draw's first copy: the stable sort keeps equal rows in index order
    order = np.lexsort(found.T)
    ranked = found[order]
    keep = np.sort(order[np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]])
    draws = np.zeros((len(keep), _ROW_LEN), dtype=np.int64)
    draws[:, _TIMES], draws[:, _SHAPE:] = 1, found[keep]
    source = np.concatenate(((-1,) * len(head), seed_of))[keep]

    # Translations over the first non-line draws anchored within the first
    # period of each detected (axis, k); then, per wrapper body, every
    # step's translations that pass did not make, and the rotations.
    wraps = np.zeros((len(steps) + 1, len(_WRAP_TIMES), _SHAPE), dtype=np.int64)
    wraps[..., _MODE], wraps[..., _TIMES] = _TRANS, _WRAP_TIMES
    wraps[-1, :, _MODE], wraps[-1, :, _STEP.start] = _ROT, [360 // t for t in _WRAP_TIMES]
    in_slab = np.zeros((len(steps) + 1, len(draws)), dtype=bool)
    loops = []
    for s, (axis, k) in enumerate(steps):
        wraps[s, :, _STEP.start + axis] = k
        near = (draws[:, _SHAPE] != _LINE) & (draws[:, _POS.start + axis] - lo[axis] < k)
        in_slab[s, np.flatnonzero(near)[:_WRAP_MAX_SLAB_BODIES]] = True
        loops.append(_loop_rows(wraps[s], draws[in_slab[s]]))
    # wrapper bodies: the first draws from each of the first components'
    # first seed, components in label order
    seed_labels = labels[tuple((seeds - lo).T)]
    firsts = np.sort(np.unique(seed_labels, return_index=True)[1])[:_WRAP_MAX_COMPONENTS]
    rank = np.arange(len(source)) - np.searchsorted(source, source)  # among its seed's draws
    bodies = np.flatnonzero(np.isin(source, firsts) & (rank < _WRAP_BODIES_PER_COMPONENT))
    bodies = bodies[np.argsort(seed_labels[source[bodies]], kind="stable")]
    fresh = np.repeat(~in_slab[:, bodies].T, len(_WRAP_TIMES), axis=1)
    loops.append(_loop_rows(wraps.reshape(-1, _SHAPE), draws[bodies])[fresh.ravel()])

    cap = max(1, config.budget // (2 * config.max_blocks))
    return np.concatenate([draws] + loops)[:cap]


def _counts(block_grid, truth_res, false_free):
    a = int(np.count_nonzero(block_grid & truth_res))
    b = int(np.count_nonzero(block_grid & false_free))
    return a, b


# A summed-volume table entry packs two counts: residual voxels in the low
# 32 bits and empty voxels above them. Box sums add and subtract whole
# entries, so one sum carries both counts while grids hold under 2^31 voxels.
_LOW_BITS = (1 << 32) - 1


class _Round(NamedTuple):
    """What a round scores against: the target voxels still missing, the
    empty voxels a block would wrongly fill, the intersection and union
    counts so far, both grids packed into one int64 grid (``packed``), and
    its summed-volume table (``table``, with ``sums`` a memoryview of it for
    scalar lookups)."""
    residual: np.ndarray
    false_free: np.ndarray
    i0: int
    u0: int
    packed: np.ndarray
    table: np.ndarray
    sums: memoryview


def _round_state(target, current) -> _Round:
    """The round state for adding blocks to ``current``."""
    target, current = as_grid(target), as_grid(current)
    if target.shape != current.shape:
        raise ShapeMismatchError(f"grid dims differ: {target.shape} vs {current.shape}")
    residual, false_free = target & ~current, ~target & ~current
    packed = false_free.astype(np.int64)
    packed <<= 32
    packed += residual
    table = np.zeros(tuple(n + 1 for n in residual.shape), dtype=np.int64)
    table[1:, 1:, 1:] = packed
    for axis in range(3):
        np.cumsum(table, axis, out=table)
    return _Round(residual, false_free, int(np.count_nonzero(current & target)),
                  int(np.count_nonzero(current | target)), packed, table, memoryview(table))


def _box_sum(sums, dims, x0, y0, z0, x1, y1, z1) -> int:
    """The packed counts of the box [x0, x1) x [y0, y1) x [z0, z1), clipped
    to the grid of ``dims``."""
    dx, dy, dz = dims
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
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return 0
    return (sums[x1, y1, z1] - sums[x0, y1, z1] - sums[x1, y0, z1] - sums[x1, y1, z0]
            + sums[x0, y0, z1] + sums[x0, y1, z0] + sums[x1, y0, z0] - sums[x0, y0, z0])


def _chain_sum(sums, dims, box, times, step) -> int:
    """The packed counts of ``times`` copies of ``box``, copy k moved by k * step.

    A voxel lies in a run of consecutive copies, since copies i < j < k of
    a box meet only inside copy j. Summing every copy and subtracting every
    consecutive pair's overlap therefore counts each covered voxel once.
    """
    x0, y0, z0, x1, y1, z1 = box
    ux, uy, uz = step
    # copies k and k + 1 overlap in copy k cut short by the step on each axis
    ox0, oy0, oz0 = x0 + max(ux, 0), y0 + max(uy, 0), z0 + max(uz, 0)
    ox1, oy1, oz1 = x1 + min(ux, 0), y1 + min(uy, 0), z1 + min(uz, 0)
    total = 0
    for k in range(times):
        dx, dy, dz = k * ux, k * uy, k * uz
        total += _box_sum(sums, dims, x0 + dx, y0 + dy, z0 + dz, x1 + dx, y1 + dy, z1 + dz)
        if k + 1 < times:
            total -= _box_sum(sums, dims, ox0 + dx, oy0 + dy, oz0 + dz,
                              ox1 + dx, oy1 + dy, oz1 + dz)
    return total


def _row_copies(row, dims) -> list:
    """The copies of a candidate row's draw as the executor's ``_copies``
    records, built from the row's numbers alone."""
    shape = SHAPES[row[_SHAPE]]
    body = ((shape, row[_POS], row[_GEOM:_GEOM + GEOMETRY_ARITY[shape][1]], None),)
    return _copies(body, row[_TIMES], _LOOP_MODES[row[_MODE]], row[_STEP], row[_STEP.start],
                   Axis.Y, dims)


def _block_counts(rnd: _Round, row):
    """(a, b) of a candidate row, counted from the round's table; None when
    its voxels are not a union of boxes there (see the module docstring)."""
    mode, times, ux, uy, uz, code, x, y, z, *geom = row
    sums, dims = rnd.sums, rnd.residual.shape
    boxes = draw_boxes(SHAPES[code], (x, y, z), geom, None if mode == _TRANS and uy else dims[1])
    if boxes is None:
        return None
    total = 0
    if mode != _ROT:
        for box in boxes:
            total += _chain_sum(sums, dims, box, times, (ux, uy, uz))
        return total & _LOW_BITS, total >> 32
    if not boxes:
        return 0, 0
    x0s, _, z0s, x1s, _, z1s = zip(*boxes)
    bx0, bz0, bx1, bz1 = min(x0s), min(z0s), max(x1s), max(z1s)
    kept: list = []  # clipped (x0, z0, x1, z1) of the copies so far, which share their rows
    for ax, _, az in {pos for _, pos, _, _ in _row_copies(row, dims)}:
        dx, dz = ax - x, az - z
        cx0, cz0 = max(bx0 + dx, 0), max(bz0 + dz, 0)
        cx1, cz1 = min(bx1 + dx, dims[0]), min(bz1 + dz, dims[2])
        if cx0 >= cx1 or cz0 >= cz1:
            continue
        if any(cx0 < kx1 and kx0 < cx1 and cz0 < kz1 and kz0 < cz1 for kx0, kz0, kx1, kz1 in kept):
            return None
        kept.append((cx0, cz0, cx1, cz1))
        for x0, y0, z0, x1, y1, z1 in boxes:
            total += _box_sum(sums, dims, x0 + dx, y0, z0 + dz, x1 + dx, y1, z1 + dz)
    return total & _LOW_BITS, total >> 32


def _window_counts(rnd: _Round, copies) -> tuple:
    """(a, b) of a candidate row's copies, stamped into one window the size
    of their clipped union box and summed against the round's packed grid."""
    drawn = _window(copies, rnd.residual.shape)
    if drawn is None:
        return 0, 0
    box, window = drawn
    total = int(np.add.reduce(rnd.packed[box], axis=None, where=window))
    return total & _LOW_BITS, total >> 32


def _row_counts(rnd: _Round, row) -> tuple:
    """(a, b) of a candidate row: from the round's table where its voxels
    are a union of boxes, else from its copies' window."""
    return _block_counts(rnd, row) or _window_counts(rnd, _row_copies(row, rnd.residual.shape))


def _table_sums(table, dims, lo, hi) -> np.ndarray:
    """The packed counts of the boxes from rows of ``lo`` to rows of ``hi``
    (exclusive), each clipped to the grid of ``dims``."""
    lo = np.clip(lo, 0, dims)
    (x0, y0, z0), (x1, y1, z1) = lo.T, np.clip(hi, lo, dims).T
    return (table[x1, y1, z1] - table[x0, y1, z1] - table[x1, y0, z1] - table[x1, y1, z0]
            + table[x0, y0, z1] + table[x0, y1, z0] + table[x1, y0, z0] - table[x0, y0, z0])


def _cover_bounds(rows, table) -> tuple:
    """Per candidate row, an upper bound on the residual voxels it covers,
    and the row's exact packed counts where it is one untilted box or a
    translation of one, else -1.

    A draw covers at most min(its voxel bound, the residual inside its
    clipped box), a translation loop at most the sum of that over its
    copies, and a rotation loop at most the whole residual. Box sums come
    from the round's summed-volume table, and every box from one
    ``draw_extents`` pass over the rows' columns; exact counts subtract the
    consecutive copies' overlaps as ``_chain_sum`` does.
    """
    dims = np.array(table.shape) - 1
    bounds = np.full(len(rows), table[-1, -1, -1] & _LOW_BITS, dtype=np.int64)
    counts = np.full(len(rows), -1, dtype=np.int64)
    boxed = np.flatnonzero(rows[:, _MODE] != _ROT)
    sub = rows[boxed]
    lo, hi, volume = draw_extents(sub[:, _SHAPE], sub[:, _POS], sub[:, _GEOM:])
    times = sub[:, _TIMES]
    # copy k of a row is its box moved by k * step
    k = np.arange(times.sum()) - np.repeat(np.cumsum(times) - times, times)
    step = np.repeat(sub[:, _STEP], times, axis=0)
    lo = np.repeat(lo, times, axis=0) + k[:, None] * step
    hi = np.repeat(hi, times, axis=0) + k[:, None] * step
    inside = _table_sums(table, dims, lo, hi)
    bounds[boxed] = np.bincount(np.repeat(np.arange(len(sub)), times),
                                np.minimum(np.repeat(volume, times), inside & _LOW_BITS),
                                minlength=len(sub))
    # rows whose every copy is one box: an untilted Cub or Rect, or a Sqr
    box = _IS_BOX[sub[:, _SHAPE]] & (sub[:, _GEOM + 3] == 0)
    pair = np.repeat(box, times) & (k + 1 < np.repeat(times, times))
    inside[pair] -= _table_sums(table, dims, lo[pair] + np.maximum(step[pair], 0),
                                hi[pair] + np.minimum(step[pair], 0))
    # per row, the sum of its copies' entries (int64 wraps, so differences stay exact)
    ends = np.cumsum(times)
    net = np.concatenate(((0,), np.cumsum(inside)))
    counts[boxed[box]] = (net[ends] - net[ends - times])[box]
    return bounds, counts


def _score_from_counts(a, b, i0, u0) -> float:
    """The IoU gain of covering ``a`` residual voxels and ``b`` empty ones,
    from ``i0`` voxels of intersection and ``u0`` of union."""
    before = i0 / u0 if u0 else 1.0
    after = (i0 + a) / (u0 + b) if (u0 + b) else 1.0
    return after - before


def score_block(b, target, current) -> float:
    """Improvement from adding block b to the reconstruction: the change in
    IoU against the target, positive when it helps."""
    rnd = _round_state(target, current)
    a, bad = _counts(execute_block(b, rnd.residual.shape), rnd.residual, rnd.false_free)
    return _score_from_counts(a, bad, rnd.i0, rnd.u0)


# ------------------------------------------------------------- refinement

def _slots(row, dims, limits) -> list:
    """(column, step, low, high) for every adjustable number in a candidate
    row: a loop's times, then its step or angle; the draw's position, then
    its geometry, then a Cub's coarse and fine tilt."""
    out = []
    if row[_MODE] == _TRANS:
        out.append((_TIMES, 1, 2, 16))
        out.extend((_STEP.start + i, 1, 1 - n, n - 1) for i, n in enumerate(dims))
    elif row[_MODE] == _ROT:
        out += [(_TIMES, 1, 2, 16), (_STEP.start, 5, -355, 355)]
    out.extend((_POS.start + i, 1, 0, n - 1) for i, n in enumerate(dims))
    shape = SHAPES[row[_SHAPE]]
    if shape is ShapeKind.LINE:
        out.extend((_GEOM + i, 1, 0, n - 1) for i, n in enumerate(dims))
        return out
    lo, hi = GEOMETRY_ARITY[shape]
    out.extend((_GEOM + i, 1, 1, limits.max_extent) for i in range(lo))
    if hi > lo:
        # coarse steps jump plateaus where one degree moves no voxel,
        # fine steps land on the exact tilt
        tilt = limits.max_tilt
        out += [(_GEOM + hi - 1, 5, -tilt, tilt), (_GEOM + hi - 1, 1, -tilt, tilt)]
    return out


def _refine(row, score, rnd: _Round, budget, cache) -> tuple:
    """Coordinate descent over a candidate row (a tuple); returns (row,
    score). Never scores worse.

    ``cache`` maps rows to their scores in this round; a hit neither
    scores nor spends budget.
    """
    dims = rnd.residual.shape

    def rescore(nb):
        s = cache.get(nb)
        if s is None:
            if not budget.spend():
                return None
            a, bad = _row_counts(rnd, nb)
            s = cache[nb] = _score_from_counts(a, bad, rnd.i0, rnd.u0)
        return s

    slots = _slots(row, dims, Limits.for_dims(dims))
    for _ in range(_REFINE_SWEEPS):
        improved = False
        for c, delta, lo, hi in slots:
            for direction in (delta, -delta):
                while True:
                    v = row[c] + direction
                    if not lo <= v <= hi:
                        break
                    nb = row[:c] + (v,) + row[c + 1:]
                    s = rescore(nb)
                    if s is None:
                        return row, score
                    if s > score + _SCORE_EPS:
                        row, score = nb, s
                        improved = True
                    else:
                        break
        if not improved:
            break
    return row, score


def refine_block(b, target, current, config: SearchConfig = SearchConfig()):
    """Polish one block against the target; the result never scores worse
    and keeps ``b``'s part label.

    ``b`` must be a block a candidate row can hold: a draw, or a
    translation or a rotation about Y over one draw. A block that does not
    validate under ``Limits.for_dims(target.shape)`` raises
    InvalidProgramError; a loop with several bodies or a nested loop, or a
    rotation about X or Z, raises InputError.
    """
    rnd = _round_state(target, current)
    report = validate_program(Program((b,)), Limits.for_dims(rnd.residual.shape))
    if not report.ok:
        raise InvalidProgramError(report)
    row = _row_of(b)
    a, bad = _row_counts(rnd, row)
    s0 = _score_from_counts(a, bad, rnd.i0, rnd.u0)
    row, _ = _refine(row, s0, rnd, _Budget(config.budget), {})
    draw = b if isinstance(b, DrawStmt) else b.body[0]
    return _make_block(row, rnd.residual.shape, draw.semantics)


def _ranked_beam(rows, rnd: _Round, config, budget) -> list:
    """The best ``beam_width`` candidate rows as (score, index, row tuple),
    ordered by (-score, index), scoring as few as that allows.

    Candidates are visited by descending cover bound, ties in index order.
    A score can never exceed the score of its bound (the IoU gain rises
    with covered voxels and falls with false ones), so the visit stops at the
    first bound whose score is strictly below the beam's last score. A tie
    is still scored, since the index breaks it.
    """
    i0, u0 = rnd.i0, rnd.u0
    bounds, counts = _cover_bounds(rows, rnd.table)
    order = np.argsort(-bounds, kind="stable")
    beam: list = []  # (-score, index)
    for idx, bound, packed in zip(order.tolist(), bounds[order].tolist(), counts[order].tolist()):
        if (len(beam) == config.beam_width
                and _score_from_counts(bound, 0, i0, u0) < -beam[-1][0]):
            break
        if not budget.spend():
            break
        if packed >= 0:
            a, b = packed & _LOW_BITS, packed >> 32
        else:
            a, b = _row_counts(rnd, tuple(rows[idx].tolist()))
        bisect.insort(beam, (-_score_from_counts(a, b, i0, u0), idx))
        del beam[config.beam_width:]
    return [(-neg, idx, tuple(rows[idx].tolist())) for neg, idx in beam]


def fit_program(target, config: SearchConfig = SearchConfig()) -> FitResult:
    """Greedy block-by-block reconstruction of the target grid.

    The program validates under ``Limits.for_dims(target.shape)``: it has
    at most that many top-level statements, and refinement keeps every
    coordinate and extent inside the grid. The fit checks this before it
    returns and raises InvalidProgramError should it ever fail.
    """
    target = as_grid(target)
    dims = target.shape
    limits = Limits.for_dims(dims)
    max_blocks = min(config.max_blocks, limits.max_top_level)
    budget = _Budget(config.budget)
    current = np.zeros(dims, dtype=bool)
    accepted: list = []
    trace: list = []
    if not target.any():
        return FitResult(Program(()), (), 1.0, 0, False, "residual_empty")
    stop = "max_blocks"
    while len(accepted) < max_blocks:
        if budget.exhausted or not (target & ~current).any():
            stop = "budget" if budget.exhausted else "residual_empty"
            break
        rnd = _round_state(target, current)
        candidates = propose_candidates(rnd.residual, config)
        beam = _ranked_beam(candidates, rnd, config, budget)
        if not beam:  # the budget ran out before one candidate was scored
            stop = "budget"
            break
        refined = []
        cache: dict = {}  # candidate row -> score, shared by this round's refinements
        for s0, idx, row in beam:
            row, rs = _refine(row, s0, rnd, budget, cache)
            refined.append((rs, idx, row))
        refined.sort(key=lambda t: (-t[0], t[1]))
        best_score, _, best_row = refined[0]
        if best_score < config.min_gain:
            stop = "min_gain"
            break
        best_block = _make_block(best_row, dims)
        current |= execute_block(best_block, dims)
        accepted.append(best_block)
        trace.append((best_block, iou(current, target)))
    program = Program(tuple(accepted))
    report = validate_program(program, limits)
    if not report.ok:
        raise InvalidProgramError(report)
    return FitResult(
        program=program,
        score_trace=tuple(trace),
        final_iou=iou(current, target),
        executor_calls=budget.calls,
        budget_exhausted=budget.exhausted,
        stop_reason=stop,
    )
