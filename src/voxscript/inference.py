"""Fit a program to a target grid by greedy discrete search.

One block is accepted per round: candidates are seeded from the residual
(target voxels not yet reconstructed), the best few are polished by
integer coordinate descent, and the single best survivor is kept if it
clears a minimum gain. A candidate is scored from two voxel counts alone:
the residual voxels it covers and the empty voxels it fills.

Ranking is branch and bound on the IoU gain itself. Each round reads
one summed-volume table of the residual and the empty voxels, so a box
sum reads both counts. From it every candidate gets an upper bound on the
residual voxels it can cover and a lower bound on the empty voxels it must
fill, each copy of a loop bounded where the executor puts it; single-box
rows get their exact counts instead. Candidates run in descending order of
the score of those counts, and ranking stops once no remaining score can
reach the beam. The bounds only decide which candidates are scored, and
while the budget lasts the beam is exactly the one that scoring every
candidate would give.

Lines grown from lattice seeds matter as the bodies of loops over
repeated parts, so only the wrapper seeds, the first seed of each of the
first components, grow them. Each round walks the five axis directions
from every seed and the line directions from the wrapper seeds alone, in
one walk over (seed, direction) pairs.

The round state is built once per fit and carried forward: when a block
is accepted, its copies are stamped into one window as a window count
stamps them, the voxels it newly draws leave the residual and the empty
voxels, and their packed counts, summed over the window's box, come off
the summed-volume table in place (see ``_carry``). The IoU after each
block is read from the carried intersection and union counts.

Every copy is placed by the executor's rules: rows counted one at a time
take theirs from ``executor._copies``, which unrolls loops, and the
round's bounds turn all rotated copies at once with its array form,
``executor._rotate_points``.

A candidate whose voxels are a union of boxes is counted from the table,
not executed, from the executor's own ``draw_boxes``: an untilted
``Cub`` or ``Rect``, or a ``Sqr``, is one box; a tilted ``Cub`` is one
box per run of rows with equal shift. Copies i < j < k of a box meet
only inside copy j, so a translation loop over one covers each copy's
count minus each consecutive pair's overlap, exactly, for any step; over
a tilted ``Cub`` this holds run by run while the step keeps y. Every other
candidate (lines, cylinders, rotations, and translations moving a
multi-run tilt in y) is counted in its own window:
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

Refinement is branch and bound too. No row scores above the round's
ceiling, the score of covering every residual voxel and no empty one. A
walk ends at the ceiling, and once a beam entry reaches it, no entry of
larger index is refined, since at best it ties and the index breaks ties.
From an untilted ``Cub``, a tilt neighbour whose rows all shift by 0
draws the row's own voxels, so it ends the walk unscored. Neither prune
changes a fit while the budget lasts; each only scores fewer candidates.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dsl.ast import (GEOMETRY_ARITY, Axis, DrawStmt, ForStmt, Limits, LoopMode, Program,
                      Semantics, ShapeKind, _show, validate_program)
from .errors import InputError, InvalidProgramError, ShapeMismatchError
from .executor import (_IS_BOX, SHAPES, _copies, _last_shift, _rotate_points, _window, as_grid,
                       draw_boxes, draw_extents)

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

# Candidate row layout (see propose_candidates)
_MODE, _TIMES, _STEP, _SHAPE, _POS, _GEOM, _ROW_LEN = 0, 1, slice(2, 5), 5, slice(6, 9), 9, 13
_DRAW, _TRANS, _ROT = 0, 1, 2
_LOOP_MODES = (None, LoopMode.TRANSLATION, LoopMode.ROTATION)  # per row mode
_CUBOID, _CYLINDER, _LINE = (SHAPES.index(k) for k in
                             (ShapeKind.CUBOID, ShapeKind.CYLINDER, ShapeKind.LINE))
_TILT = _GEOM + 3  # a Cub's tilt column


@dataclass(frozen=True)
class SearchConfig:
    """The search's settings: blocks accepted at most, beam entries refined
    per round, the least IoU gain a block must add, and the candidates
    scored per fit before it stops. A count that is not an int >= 1, or a
    ``min_gain`` that is not a finite number > 0, raises InputError."""
    max_blocks: int = 10
    beam_width: int = 4
    min_gain: float = 0.002
    budget: int = 200_000

    def __post_init__(self):
        for name in ("max_blocks", "beam_width", "budget"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InputError(f"{name} must be an int >= 1, got {_show(v)}")
        v = self.min_gain
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v < math.inf:
            raise InputError(f"min_gain must be a finite number > 0, got {_show(v)}")


@dataclass(frozen=True)
class FitResult:
    program: Program
    score_trace: tuple  # (accepted block, iou after accepting it)
    final_iou: float
    # candidates scored while ranking or refining; not counted: candidates
    # whose bounds cannot reach the beam, cache hits, the walks of rows at
    # the round's gain ceiling and of beam entries that can no longer win,
    # and tilt neighbours that draw the row's own voxels
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
    """Consecutive occupied voxels from each point (inclusive) along its
    direction: one walk per row of ``points`` and of ``dirs``.

    All walks advance together over a copy of the grid with a one-voxel
    empty border, so a walk stops at the border without a bounds check.
    """
    pad = np.zeros(tuple(n + 2 for n in res.shape), dtype=bool)
    pad[1:-1, 1:-1, 1:-1] = res
    flat = pad.ravel()
    strides = np.array((pad.shape[1] * pad.shape[2], pad.shape[2], 1))
    cur = (points + 1) @ strides
    step = dirs @ strides
    n = np.zeros(len(cur), dtype=np.int64)
    alive = flat[cur]
    while alive.any():
        n += alive
        cur += alive * step
        alive &= flat[cur]
    return n


def _argwhere(a) -> np.ndarray:
    """``np.argwhere(a)``, from flat indices, which is faster on a 3-D array."""
    return np.stack(np.unravel_index(np.flatnonzero(a), a.shape), axis=1)


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
    return lo + _argwhere(hit) * s + first


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


def _make_block(row, dims):
    """The statement a candidate row (a sequence of numbers) stands for, its
    draw labelled from its geometry."""
    mode, times, ux, uy, uz, code, x, y, z, *geom = row
    shape = SHAPES[code]
    geom = tuple(geom[:GEOMETRY_ARITY[shape][1]])  # DrawStmt drops a zero Cub tilt
    draw = DrawStmt(_label_semantics(shape, (x, y, z), geom, dims), shape, (x, y, z), geom)
    if mode == _TRANS:
        return ForStmt.translation(times, (ux, uy, uz), (draw,))
    return draw if mode == _DRAW else ForStmt.rotation(times, ux, Axis.Y, (draw,))


def _periodic_steps(res, occ) -> list:
    """Per axis, the smallest shift under which the grid best overlaps
    itself, given its occupied voxels ``occ`` as ``_argwhere`` lists them.

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
        # the Gram matrix's rows, each padded by ext zeros, read with one
        # more entry per row: row i of the skew starts at diagonal entry i
        skew = np.zeros(ext * (2 * ext + 1))
        skew[:2 * ext * ext].reshape(ext, 2 * ext)[:, :ext] = slices @ slices.T
        overlap = skew.reshape(ext, 2 * ext + 1)[:, 2:ext].sum(axis=0)
        # voxels from slice k on and before slice n - k: both nonzero for
        # every shift inside the box
        cum, k = np.cumsum(c), np.arange(2, ext)
        frac = overlap / np.minimum(cum[-1] - cum[k - 1], cum[len(cum) - k - 1])
        clear = frac >= _PERIOD_MIN_OVERLAP
        best = None  # (fraction, k)
        for shift, f in zip(k[clear].tolist(), frac[clear].tolist()):
            if best is None or f > best[0] + 1e-9:
                best = (f, shift)
        if best is not None:
            found.append((axis, best[1]))
    return found


def _loop_rows(headers, bodies) -> np.ndarray:
    """Every header (mode, times, step or angle) over every body row, body-major."""
    out = np.empty((len(bodies), len(headers), _ROW_LEN), dtype=np.int64)
    out[:, :, :_SHAPE] = headers
    out[:, :, _SHAPE:] = bodies[:, None, _SHAPE:]
    return out.reshape(-1, _ROW_LEN)


def _seed_draws(res, seeds, lined) -> tuple:
    """Draws grown from each seed, where big enough, as candidate columns
    ``_SHAPE`` on: a cuboid, cylinders at the seed and at its snapped disc
    center, and, from the seeds of the sorted indices ``lined``, a line per
    line direction. Also returns each draw's seed.

    One walk takes the five axis directions from every seed and the line
    directions from the ``lined`` seeds alone."""
    n, axes, lines = len(seeds), _SEED_DIRS[:5], _SEED_DIRS[5:]
    walked = _runs(res, np.concatenate((seeds.repeat(5, axis=0),
                                        seeds[lined].repeat(len(lines), axis=0))),
                   np.concatenate((np.tile(axes, (n, 1)), np.tile(lines, (len(lined), 1)))))
    runs = walked[:5 * n].reshape(n, 5)
    # disc seed snapped to the midpoint of the opposing runs, so rim points
    # still yield a usable cylinder; radius is taken from fresh runs at the
    # snapped center
    centers = seeds.copy()
    centers[:, 0] += (runs[:, 1] - runs[:, 3]) // 2
    centers[:, 2] += (runs[:, 2] - runs[:, 4]) // 2
    moved = np.flatnonzero((centers != seeds).any(axis=1) & res[tuple(centers.T)])
    center_runs = np.zeros((n, 5), dtype=np.int64)
    center_runs[moved] = _runs(res, centers[moved].repeat(5, axis=0),
                               np.tile(axes, (len(moved), 1))).reshape(-1, 5)
    slots = np.zeros((n, 3, _ROW_LEN - _SHAPE), dtype=np.int64)
    slots[:, :, 0] = _CUBOID, _CYLINDER, _CYLINDER
    slots[:, :, 1:4] = seeds[:, None]
    slots[:, 2, 1:4] = centers
    geom = slots[:, :, 4:]
    geom[:, 0, :3] = runs[:, :3]
    for slot, r in ((1, runs), (2, center_runs)):
        geom[:, slot, 0], geom[:, slot, 1] = r[:, 0], r[:, 1:5].min(axis=1) - 1
    valid = np.ones((n, 3), dtype=bool)
    valid[:, 1:] = geom[:, 1:, 1] >= 1
    # each seed's lines follow its other draws
    line_runs = walked[5 * n:].reshape(-1, len(lines))
    which, slot = np.nonzero(line_runs >= 4)
    seed = lined[which]
    drawn = np.zeros((len(seed), _ROW_LEN - _SHAPE), dtype=np.int64)
    drawn[:, 0], drawn[:, 1:4] = _LINE, seeds[seed]
    drawn[:, 4:7] = seeds[seed] + (line_runs[which, slot, None] - 1) * lines[slot]
    at = np.cumsum(valid.sum(axis=1))[seed]
    return np.insert(slots[valid], at, drawn, axis=0), np.insert(np.nonzero(valid)[0], at, seed)


def _check_config(config):
    if not isinstance(config, SearchConfig):
        raise InputError(f"config must be a SearchConfig, got {type(config).__name__}")


def propose_candidates(residual, config: SearchConfig = SearchConfig()) -> np.ndarray:
    """Candidate blocks seeded from the residual's occupied structure.

    Draws: the bounding-box cuboid, two end-to-end lines, per point of a
    stride lattice a cuboid and two cylinders, and, from each of the first
    components' first lattice point (a wrapper seed), up to 20 lines. Loops
    wrap the draws anchored within one period, and the first draws at each
    wrapper seed, with self-overlap-detected translation steps and
    360/times rotations.

    Each candidate is one row of the (n, 13) int64 array returned: mode (0
    draw, 1 translation, 2 rotation about Y), times, step x/y/z (a
    rotation's angle in x), shape code (see ``executor.SHAPES``), position
    x/y/z, and geometry padded with zeros to the tilt slot. A draw has times
    1 and a zero step. ``_make_block`` turns a row into its statement. A
    ``config`` that is not a SearchConfig raises InputError.
    """
    _check_config(config)
    from scipy import ndimage

    res = as_grid(residual)
    occ = _argwhere(res)
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
    # wrapper bodies are the first draws from each of the first components'
    # first seed, components in label order. Only these wrapper seeds grow
    # lines, since a line matters as the body of a loop.
    seed_labels = labels[tuple((seeds - lo).T)]
    firsts = np.sort(np.unique(seed_labels, return_index=True)[1])[:_WRAP_MAX_COMPONENTS]
    seeded, seed_of = _seed_draws(res, seeds, firsts)
    wrapper = np.zeros(len(seeds) + 1, dtype=bool)  # per seed; the head draws' -1 reads False
    wrapper[firsts] = True
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
    rank = np.arange(len(source)) - np.searchsorted(source, source)  # among its seed's draws
    bodies = np.flatnonzero(wrapper[source] & (rank < _WRAP_BODIES_PER_COMPONENT))
    bodies = bodies[np.argsort(seed_labels[source[bodies]], kind="stable")]

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
    fresh = np.repeat(~in_slab[:, bodies].T, len(_WRAP_TIMES), axis=1)
    loops.append(_loop_rows(wraps.reshape(-1, _SHAPE), draws[bodies])[fresh.ravel()])
    # a round proposes at most this many candidates
    return np.concatenate([draws] + loops)[:max(1, config.budget // (2 * config.max_blocks))]


# A summed-volume table entry packs two counts: residual voxels in the low
# 32 bits and empty voxels above them. Box sums add and subtract whole
# entries, so one sum carries both counts while grids hold under 2^31 voxels.
_LOW_BITS = (1 << 32) - 1


class _Round(NamedTuple):
    """What a round scores against: the target voxels still missing
    (``residual``), the intersection and union counts so far, the residual
    and the empty voxels packed into one int64 grid (``packed``), its
    summed-volume table (``table``, with ``sums`` a memoryview of it for
    scalar lookups), and the target's voxel count (``size``). Every count
    of a candidate row is read from these."""
    residual: np.ndarray
    i0: int
    u0: int
    packed: np.ndarray
    table: np.ndarray
    sums: memoryview
    size: int

    @property
    def top(self) -> float:
        """The score of covering every residual voxel, ``size - i0`` of
        them, and no empty one, which no candidate row passes (see
        ``_refine``)."""
        return _score_from_counts(self.size - self.i0, 0, self.i0, self.u0)


def _round_state(target, current) -> _Round:
    """The round state for adding blocks to ``current``."""
    target, current = as_grid(target), as_grid(current)
    if target.shape != current.shape:
        raise ShapeMismatchError(f"grid dims differ: {target.shape} vs {current.shape}")
    residual = target & ~current
    packed = (~target & ~current).astype(np.int64)
    packed <<= 32
    packed += residual
    table = np.zeros(tuple(n + 1 for n in residual.shape), dtype=np.int64)
    table[1:, 1:, 1:] = packed
    for axis in range(3):
        np.cumsum(table, axis, out=table)
    return _Round(residual, int(np.count_nonzero(current & target)),
                  int(np.count_nonzero(current | target)), packed, table, memoryview(table),
                  int(np.count_nonzero(target)))


def _carry(rnd: _Round, box, window) -> _Round:
    """The round state once the voxels ``window`` sets in the grid's ``box``
    (slices) are drawn. Voxels drawn before pack to 0, so only the new ones
    leave the residual and the empty voxels: their packed counts come off
    ``packed`` and, summed over the box, off the table in place. Inside the
    box each entry loses the sum up to it; past the box on some axes, the
    sum's last slice on those axes, which past it on all three is the total."""
    sums = np.where(window, rnd.packed[box], 0)
    rnd.packed[box][window] = 0
    rnd.residual[box] &= ~window
    for axis in range(3):
        np.cumsum(sums, axis, out=sums)
    total = int(sums[-1, -1, -1])
    table = rnd.table[box[0].start + 1:, box[1].start + 1:, box[2].start + 1:]
    # per axis, (table, sums) slices inside the box and past it
    parts = [((slice(None, n), slice(None)), (slice(n, None), slice(-1, None)))
             for n in sums.shape]
    for (tx, sx), (ty, sy), (tz, sz) in itertools.product(*parts):
        table[tx, ty, tz] -= sums[sx, sy, sz]
    return rnd._replace(i0=rnd.i0 + (total & _LOW_BITS), u0=rnd.u0 + (total >> 32))


def _chain_sum(sums, dims, box, times, step) -> int:
    """The packed counts of ``times`` copies of ``box``, copy k moved by k *
    step, each clipped to the grid of ``dims``.

    A voxel lies in a run of consecutive copies, since copies i < j < k of
    a box meet only inside copy j. Summing every copy and subtracting every
    consecutive pair's overlap therefore counts each covered voxel once.
    Each box is clipped and read inline: a call per box costs more.
    """
    nx, ny, nz = dims
    x0, y0, z0, x1, y1, z1 = box
    ux, uy, uz = step
    total = 0
    for k in range(times):
        a0, b0, c0 = x0 + k * ux, y0 + k * uy, z0 + k * uz
        a1, b1, c1 = x1 + k * ux, y1 + k * uy, z1 + k * uz
        if a0 < 0:
            a0 = 0
        if b0 < 0:
            b0 = 0
        if c0 < 0:
            c0 = 0
        if a1 > nx:
            a1 = nx
        if b1 > ny:
            b1 = ny
        if c1 > nz:
            c1 = nz
        if a0 < a1 and b0 < b1 and c0 < c1:
            total += (sums[a1, b1, c1] - sums[a0, b1, c1] - sums[a1, b0, c1] - sums[a1, b1, c0]
                      + sums[a0, b0, c1] + sums[a0, b1, c0] + sums[a1, b0, c0] - sums[a0, b0, c0])
    # copies k and k + 1 overlap in copy k cut short by the step on each
    # axis; if that box is empty before clipping, every overlap is
    x0, x1 = (x0 + ux, x1) if ux > 0 else (x0, x1 + ux)
    y0, y1 = (y0 + uy, y1) if uy > 0 else (y0, y1 + uy)
    z0, z1 = (z0 + uz, z1) if uz > 0 else (z0, z1 + uz)
    if times < 2 or x0 >= x1 or y0 >= y1 or z0 >= z1:
        return total
    for k in range(times - 1):
        a0, b0, c0 = x0 + k * ux, y0 + k * uy, z0 + k * uz
        a1, b1, c1 = x1 + k * ux, y1 + k * uy, z1 + k * uz
        if a0 < 0:
            a0 = 0
        if b0 < 0:
            b0 = 0
        if c0 < 0:
            c0 = 0
        if a1 > nx:
            a1 = nx
        if b1 > ny:
            b1 = ny
        if c1 > nz:
            c1 = nz
        if a0 < a1 and b0 < b1 and c0 < c1:
            total -= (sums[a1, b1, c1] - sums[a0, b1, c1] - sums[a1, b0, c1] - sums[a1, b1, c0]
                      + sums[a0, b0, c1] + sums[a0, b1, c0] + sums[a1, b0, c0] - sums[a0, b0, c0])
    return total


def _row_copies(row, dims) -> list:
    """The copies of a candidate row's draw as the executor's ``_copies``
    records, built from the row's numbers alone."""
    shape = SHAPES[row[_SHAPE]]
    body = ((shape, row[_POS], row[_GEOM:_GEOM + GEOMETRY_ARITY[shape][1]], None),)
    return _copies(body, row[_TIMES], _LOOP_MODES[row[_MODE]], row[_STEP], row[_STEP.start],
                   Axis.Y, dims)


def _block_counts(rnd: _Round, row):
    """(a, b) of a candidate row, counted from the round's table; None for a
    rotation, or when its voxels are not a union of boxes there (see the
    module docstring)."""
    mode, times, ux, uy, uz, code, x, y, z, t, r1, r2, tilt = row
    if mode == _ROT:
        return None
    sums, dims = rnd.sums, rnd.residual.shape
    boxes = draw_boxes(SHAPES[code], (x, y, z), (t, r1, r2, tilt),
                       None if mode == _TRANS and uy else dims[1])
    if boxes is None:
        return None
    total = 0
    for box in boxes:
        total += _chain_sum(sums, dims, box, times, (ux, uy, uz))
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
    # corners as flat indices into the table: one index array per lookup
    sx, sy = table.shape[1] * table.shape[2], table.shape[2]
    x0, x1, y0, y1 = x0 * sx, x1 * sx, y0 * sy, y1 * sy
    a0, a1, b0, b1 = x0 + y0, x1 + y0, x0 + y1, x1 + y1
    f = table.ravel()
    return (f[b1 + z1] - f[b0 + z1] - f[a1 + z1] - f[b1 + z0]
            + f[a0 + z1] + f[b0 + z0] + f[a1 + z0] - f[a0 + z0])


def _cover_bounds(rows, table) -> tuple:
    """Per candidate row, an upper bound on the residual voxels it covers, a
    lower bound on the empty voxels it fills, and the row's exact packed
    counts where it is one untilted box or a translation of one, else -1.

    One pass takes every copy of every row: its box and the voxels it sets
    on an unbounded grid, exactly, from ``draw_extents``, the box moved by
    k * step or to the anchor that ``executor._rotate_points``, the array
    form of ``executor._copies``' rule, turns it to (a rotated line spans
    its turned end points). A row covers at most the sum over its copies
    of min(voxels, residual in the clipped box). All of a copy's voxels lie
    in its box, and at most (box volume - empty voxels in the box) of them
    can fall outside the grid or on a non-empty voxel, so it fills at least
    the rest with empty ones. A row fills at least the sum of that over its
    copies where they are disjoint (a draw, or a translation stepping at
    least the box's size on some axis), else its largest. Box sums come
    from the round's summed-volume table; exact counts subtract the
    consecutive copies' overlaps as ``_chain_sum`` does.
    """
    dims = tuple(n - 1 for n in table.shape)
    mode, times, shape = rows[:, _MODE], rows[:, _TIMES], rows[:, _SHAPE]
    lo, hi, voxels = draw_extents(shape, rows[:, _POS], rows[:, _GEOM:])
    step = rows[:, _STEP] * (mode == _TRANS)[:, None]
    disjoint = (times == 1) | ((mode == _TRANS) & (abs(step) >= hi - lo).any(axis=1))
    # entry j is copy k[j] of row of[j], its box moved by move[j]
    first = np.cumsum(times) - times
    of = np.repeat(np.arange(len(rows)), times)
    k = np.arange(len(of)) - first[of]
    step = step[of]
    move = k[:, None] * step
    rot = np.flatnonzero(mode[of] == _ROT)
    on_line = shape[of[rot]] == _LINE
    line, turn = rot[on_line], k[rot] * rows[of[rot], _STEP.start]
    # every rotated copy's anchor, then every rotated line's end point
    turned = _rotate_points(np.concatenate((rows[of[rot], _POS], rows[of[line], _GEOM:_GEOM + 3])),
                            np.concatenate((turn, turn[on_line])), Axis.Y, dims)
    anchors, ends = turned[:len(rot)], turned[len(rot):]
    move[rot] = anchors - rows[of[rot], _POS]
    lo, hi, voxels = lo[of] + move, hi[of] + move, voxels[of]
    # a rotated line spans its turned end points, not its box moved
    starts = anchors[on_line]
    lo[line], hi[line] = np.minimum(starts, ends), np.maximum(starts, ends) + 1
    voxels[line] = abs(starts - ends).max(axis=1, initial=0) + 1
    # rows whose every copy is one box, an untilted Cub or Rect or a Sqr, are
    # counted exactly: copies k and k + 1 overlap in copy k cut short by the step
    box = _IS_BOX[shape] & (rows[:, _TILT] == 0) & (mode != _ROT)
    pair = np.flatnonzero(box[of] & (k + 1 < times[of]))
    sums = _table_sums(table, dims, np.concatenate((lo, lo[pair] + np.maximum(step[pair], 0))),
                       np.concatenate((hi, hi[pair] + np.minimum(step[pair], 0))))
    inside = sums[:len(lo)]
    a_ub = np.add.reduceat(np.minimum(voxels, inside & _LOW_BITS), first)
    size = np.maximum(hi - lo, 0)
    fills = np.maximum(voxels - size[:, 0] * size[:, 1] * size[:, 2] + (inside >> 32), 0)
    b_lb = np.where(disjoint, np.add.reduceat(fills, first), np.maximum.reduceat(fills, first))
    inside[pair] -= sums[len(lo):]
    counts = np.where(box, np.add.reduceat(inside, first), -1)
    return a_ub, b_lb, counts


def _score_from_counts(a, b, i0, u0):
    """The IoU gain of covering ``a`` residual voxels and ``b`` empty ones,
    from ``i0`` voxels of intersection and ``u0`` > 0 of union: a float, or
    an array of them for arrays ``a`` and ``b``, equal value for value."""
    return (i0 + a) / (u0 + b) - i0 / u0


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
        out += [(_TILT, 5, -tilt, tilt), (_TILT, 1, -tilt, tilt)]
    return out


def _refine(row, score, rnd: _Round, budget, cache) -> tuple:
    """Coordinate descent over a candidate row (a tuple); returns (row,
    score). Never scores worse.

    A neighbour replaces the row only when it scores higher, so the walk
    ends at the round's ceiling ``rnd.top``: no row covers more than the
    residual's voxels or fills fewer than no empty ones, and, as in
    ``_ranked_beam``, IEEE division and subtraction keep the score monotone
    in both counts, so no neighbour beats a row that scores ``top``. A row
    there spends no budget.

    From an untilted Cub, a tilt neighbour whose last row shifts by 0
    (``executor._last_shift``) shifts every row by 0, since shifts are
    monotone from 0 at row 0. It draws the row's own voxels and scores the
    same, so it ends the walk unscored and is not cached.

    ``cache`` maps rows to their scores in this round; a hit neither
    scores nor spends budget.
    """
    dims, i0, u0, top = rnd.residual.shape, rnd.i0, rnd.u0, rnd.top
    slots = _slots(row, dims, Limits.for_dims(dims))
    for _ in range(_REFINE_SWEEPS):
        improved = False
        for c, delta, lo, hi in slots:
            tilts = c == _TILT
            for direction in (delta, -delta):
                while score < top:
                    v = row[c] + direction
                    if not lo <= v <= hi:
                        break
                    if tilts and not row[c] and not _last_shift(v, row[_GEOM]):
                        break  # the row's own voxels
                    nb = row[:c] + (v,) + row[c + 1:]
                    s = cache.get(nb)
                    if s is None:
                        if not budget.spend():
                            return row, score
                        s = cache[nb] = _score_from_counts(*_row_counts(rnd, nb), i0, u0)
                    if s > score:
                        row, score = nb, s
                        improved = True
                    else:
                        break
        if not improved:
            break
    return row, score


def _best_refined(beam, rnd: _Round, budget) -> tuple:
    """The (score, row) that wins once each entry of the beam, (score,
    index, row) in (-score, index) order, is refined: the highest score,
    ties to the least index.

    Entries share one score cache. An entry is refined only while it can
    still win: once an entry of index i scores the ceiling ``rnd.top``, an
    entry of larger index can at best tie it and lose on the index, so it
    is left as it is; entries of smaller index can still tie and win.
    """
    top, cache, refined = rnd.top, {}, []
    win = math.inf  # the least index of an entry at the ceiling
    for s, idx, row in beam:
        if idx < win:
            row, s = _refine(row, s, rnd, budget, cache)
            if s == top:
                win = idx
        refined.append((-s, idx, row))
    s, _, row = min(refined)
    return -s, row


def _ranked_beam(rows, rnd: _Round, config, budget) -> list:
    """The best ``beam_width`` candidate rows as (score, index, row tuple),
    ordered by (-score, index), scoring as few as that allows.

    Each row is keyed by the score of its exact counts where
    ``_cover_bounds`` has them, else of its bounds: the covered residual
    bound and the filled empty voxels floor. The IoU gain rises with covered
    voxels and falls with false ones, and IEEE division and subtraction are
    monotone, so no row scores above its key. Rows are visited by descending
    key, ties in index order, and the visit stops at the first key strictly
    below the beam's last score. A tie is still scored, since the index
    breaks it.
    """
    i0, u0 = rnd.i0, rnd.u0
    a_ub, b_lb, counts = _cover_bounds(rows, rnd.table)
    exact = counts >= 0
    keys = _score_from_counts(np.where(exact, counts & _LOW_BITS, a_ub),
                              np.where(exact, counts >> 32, b_lb), i0, u0)
    order = np.argsort(-keys, kind="stable")
    beam: list = []  # (-score, index)
    for idx, key, known in zip(order.tolist(), keys[order].tolist(), exact[order].tolist()):
        if len(beam) == config.beam_width and key < -beam[-1][0]:
            break
        if not budget.spend():
            break
        if not known:
            key = _score_from_counts(*_row_counts(rnd, tuple(rows[idx].tolist())), i0, u0)
        bisect.insort(beam, (-key, idx))
        del beam[config.beam_width:]
    return [(-neg, idx, tuple(rows[idx].tolist())) for neg, idx in beam]


def fit_program(target, config: SearchConfig = SearchConfig()) -> FitResult:
    """Greedy block-by-block reconstruction of the target grid.

    The program validates under ``Limits.for_dims(target.shape)``: it has
    at most that many top-level statements, and refinement keeps every
    coordinate and extent inside the grid. The fit checks this before it
    returns and raises InvalidProgramError should it ever fail. A
    ``config`` that is not a SearchConfig raises InputError.
    """
    _check_config(config)
    target = as_grid(target)
    dims = target.shape
    limits = Limits.for_dims(dims)
    max_blocks = min(config.max_blocks, limits.max_top_level)
    budget = _Budget(config.budget)
    accepted: list = []
    trace: list = []
    stop = "max_blocks"
    rnd = _round_state(target, np.zeros(dims, dtype=bool))
    while len(accepted) < max_blocks:
        if budget.exhausted or not rnd.residual.any():
            stop = "budget" if budget.exhausted else "residual_empty"
            break
        beam = _ranked_beam(propose_candidates(rnd.residual, config), rnd, config, budget)
        if not beam:  # the budget ran out before one candidate was scored
            stop = "budget"
            break
        best_score, best_row = _best_refined(beam, rnd, budget)
        if best_score < config.min_gain:
            stop = "min_gain"
            break
        best_block = _make_block(best_row, dims)
        # a block that gains draws inside the grid, so its window is not None
        rnd = _carry(rnd, *_window(_row_copies(best_row, dims), dims))
        accepted.append(best_block)
        trace.append((best_block, rnd.i0 / rnd.u0))
    program = Program(tuple(accepted))
    report = validate_program(program, limits)
    if not report.ok:
        raise InvalidProgramError(report)
    return FitResult(
        program=program,
        score_trace=tuple(trace),
        final_iou=rnd.i0 / rnd.u0 if rnd.u0 else 1.0,  # an empty target is fit exactly
        executor_calls=budget.calls,
        budget_exhausted=budget.exhausted,
        stop_reason=stop,
    )
