"""Candidate proposal, candidate row scoring, refinement, and greedy fitting."""
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxscript.dsl import (Axis, DrawStmt, ForStmt, Limits, LoopMode, Program, Semantics,
                           ShapeKind, validate_program)
from voxscript.errors import InputError, InvalidProgramError, ShapeMismatchError
from voxscript.executor import SHAPES, execute_block, execute_program, unroll_for
from voxscript import inference
from voxscript.dsl.text import print_text
from voxscript.inference import (_PERIOD_MIN_OVERLAP, _SEED_DIRS, _SEED_STRIDE,
                                 _WRAP_MAX_COMPONENTS, FitResult, SearchConfig, _best_refined,
                                 _Budget, _block_counts, _cover_bounds, _lattice_seeds, _make_block,
                                 _periodic_steps, _ranked_beam,
                                 _refine, _round_state, _row_copies, _row_counts, _runs,
                                 _score_from_counts, _window_counts, fit_program,
                                 propose_candidates)
from voxscript.metrics import iou
from voxscript.templates import builtin_templates, sample

from randprog import random_program


def cuboid(pos=(8, 4, 8), geom=(5, 6, 7)):
    return DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID, pos, geom)


def render(b, dims=(32, 32, 32)):
    return execute_block(b, dims)


def executed_counts(block, target, current):
    """The oracle for the search's counters, by executing ``block`` into a
    full grid: the target voxels not in ``current`` it covers, and the
    voxels in neither that it fills."""
    grid = execute_block(block, target.shape)
    return (int(np.count_nonzero(grid & target & ~current)),
            int(np.count_nonzero(grid & ~target & ~current)))


def _row_of(block) -> tuple:
    """The candidate row of a draw, or of a translation or rotation about Y
    over one draw: the inverse of ``_make_block`` but for part labels."""
    head, draw = (0, 1, 0, 0, 0), block
    if isinstance(block, ForStmt):
        assert len(block.body) == 1 and isinstance(block.body[0], DrawStmt), block
        if block.mode is LoopMode.TRANSLATION:
            head = (1, block.times, *block.step)
        else:
            assert block.axis is Axis.Y, block
            head = (2, block.times, block.angle, 0, 0)
        draw = block.body[0]
    return head + (SHAPES.index(draw.shape), *draw.position, *(draw.geometry + (0,) * 4)[:4])


def row_score(rnd, row):
    """The search's score of a candidate row in round ``rnd``."""
    return _score_from_counts(*_row_counts(rnd, row), rnd.i0, rnd.u0)


def assert_score_is_executed_gain(block, target, current):
    """The search's score of ``block``'s row is exactly the IoU gain of
    executing ``block``."""
    gain = iou(current | execute_block(block, target.shape), target) - iou(current, target)
    assert row_score(_round_state(target, current), _row_of(block)) == gain, block


def refine_row(block, target, current):
    """``block``'s row and score, then the row ``_refine`` makes of it and
    its score; ``_refine`` must never score worse, and must report the
    refined row's own score."""
    rnd = _round_state(target, current)
    row = _row_of(block)
    s0 = row_score(rnd, row)
    refined, s = _refine(row, s0, rnd, _Budget(SearchConfig().budget), {})
    assert s >= s0 and s == row_score(rnd, refined), block
    return row, s0, refined, s


def test_config_validation():
    for field in ("max_blocks", "beam_width", "budget"):
        for bad in (0, -3, 2.5, 3.0, "3", True, None):
            with pytest.raises(InputError, match=field):
                SearchConfig(**{field: bad})
    for bad in (0, 0.0, -0.5, float("nan"), float("inf"), "0.1", True, None):
        with pytest.raises(InputError, match="min_gain"):
            SearchConfig(min_gain=bad)
    assert SearchConfig(max_blocks=1, beam_width=1, min_gain=1, budget=1).min_gain == 1


def test_propose_empty_residual():
    assert len(propose_candidates(np.zeros((32, 32, 32), dtype=bool))) == 0


def table_of(residual):
    """The summed-volume table of a round whose residual is ``residual``."""
    return _round_state(residual, np.zeros_like(residual)).table


def test_propose_contains_exact_cuboid():
    target = render(cuboid())
    cands = propose_candidates(target)
    assert any((render(_make_block(c, target.shape)) == target).all() for c in cands.tolist())


def test_make_block_inverts_candidate_tuples():
    res = render(cuboid()) | render(cuboid((20, 0, 2), (3, 2, 9)))
    for c in propose_candidates(res).tolist():
        assert _row_of(_make_block(c, (32, 32, 32))) == tuple(c)


# a draw of each shape kind, a tilted Cub, and each as the body of a
# translation, a rotation and a rotation by a non-integral angle
ROW_BODIES = [(SHAPES.index(ShapeKind.CUBOID), 3, 0, 4, 9, 2, 3, 0),
              (SHAPES.index(ShapeKind.CUBOID), 3, 0, 4, 9, 2, 3, -15),
              (SHAPES.index(ShapeKind.RECTANGLE), 3, 20, 4, 2, 8, 5, 0),
              (SHAPES.index(ShapeKind.SQUARE), 16, 0, 16, 2, 6, 0, 0),
              (SHAPES.index(ShapeKind.CYLINDER), 6, 0, 6, 12, 2, 0, 0),
              (SHAPES.index(ShapeKind.CIRCLE), 16, 20, 16, 1, 9, 0, 0),
              (SHAPES.index(ShapeKind.LINE), 2, 3, 4, 20, 9, 4, 0)]
ROW_HEADS = [(0, 1, 0, 0, 0), (1, 4, 7, 0, -3), (2, 4, 90, 0, 0), (2, 7, 51.42857142857143, 0, 0)]


@pytest.mark.parametrize("row", [head + body for head in ROW_HEADS for body in ROW_BODIES])
def test_row_of_inverts_make_block(row):
    block = _make_block(row, (32, 32, 32))
    assert _row_of(block) == row
    assert validate_program(Program((block,))).ok


def test_propose_count_within_cap():
    config = SearchConfig()
    full = np.ones((32, 32, 32), dtype=bool)
    cands = propose_candidates(full, config)
    assert 1 <= len(cands) <= config.budget // (2 * config.max_blocks)


def test_propose_deterministic_order():
    rng = np.random.default_rng(31)
    res = rng.random((32, 32, 32)) < 0.1
    assert np.array_equal(propose_candidates(res), propose_candidates(res))


def walk_run(res, p, d):
    """Scalar oracle: consecutive occupied voxels from p (inclusive) along d."""
    n = 0
    x, y, z = p
    while 0 <= x < res.shape[0] and 0 <= y < res.shape[1] and 0 <= z < res.shape[2] \
            and res[x, y, z]:
        n += 1
        x, y, z = x + d[0], y + d[1], z + d[2]
    return n


@pytest.mark.parametrize("dims", [(32, 32, 32), (5, 9, 7), (1, 12, 3), (40, 33, 17)])
def test_runs_match_scalar_walk(dims):
    rng = np.random.default_rng(sum(dims))
    dirs = _SEED_DIRS.tolist()
    assert len(dirs) == 25 and len({tuple(d) for d in dirs}) == 25
    for density in (0.5, 0.9, 1.0):
        res = rng.random(dims) < density
        points = [(x, y, z) for x in (0, dims[0] - 1) for y in (0, dims[1] - 1)
                  for z in (0, dims[2] - 1)]
        for axis in range(3):
            for side in (0, dims[axis] - 1):
                for _ in range(3):
                    pt = [int(v) for v in rng.integers(0, dims)]
                    pt[axis] = side
                    points.append(tuple(pt))
        points += [tuple(int(v) for v in rng.integers(0, dims)) for _ in range(12)]
        # every (point, direction) pair, in a shuffled order, so a walk's
        # neighbours in the arrays start elsewhere and head elsewhere
        pairs = [(p, d) for p in points for d in dirs]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        got = _runs(res, np.array([p for p, _ in pairs]), np.array([d for _, d in pairs]))
        want = [walk_run(res, p, d) for p, d in pairs]
        assert got.tolist() == want
        # on a full grid every walk runs to the grid border
        assert density < 1.0 or all(
            n == min((dims[a] - p[a] if d[a] > 0 else p[a] + 1) if d[a] else math.inf
                     for a in range(3))
            for n, (p, d) in zip(got.tolist(), pairs))


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_lattice_seeds_match_cell_scan(stride):
    rng = np.random.default_rng(stride)
    for dims in ((32, 32, 32), (7, 11, 30)):
        res = rng.random(dims) < 0.03
        occ = np.argwhere(res)
        lo, hi = occ.min(axis=0), occ.max(axis=0)
        want = []
        for x0 in range(lo[0], hi[0] + 1, stride):
            for y0 in range(lo[1], hi[1] + 1, stride):
                for z0 in range(lo[2], hi[2] + 1, stride):
                    cell = np.argwhere(res[x0:x0 + stride, y0:y0 + stride, z0:z0 + stride])
                    if len(cell):
                        want.append([x0 + cell[0][0], y0 + cell[0][1], z0 + cell[0][2]])
        assert _lattice_seeds(res, lo, hi, stride).tolist() == want


def _pinned_residuals():
    templates = {t.id: t for t in builtin_templates()}
    for tid in ("table_four_leg", "table_round_rotleg", "chair_armchair", "chair_swivel"):
        program, _ = sample(templates[tid], np.random.default_rng(7))
        target = execute_program(program)
        yield tid, target
        low = target.copy()
        low[:, 8:, :] = False
        yield tid + "/low", low
    yield "random-20x24x28", np.random.default_rng(8).random((20, 24, 28)) < 0.3


# (case, candidate count, sha256 prefix of the printed candidate list),
# first recorded from the per-voxel walk implementation the vectorised
# seeding replaced; the candidate order decides which block a fit accepts.
# Re-recorded when only the wrapper seeds grew lines: the two low cases
# whose other seeds walk no line of 4 voxels kept their values.
PINNED_CANDIDATES = {
    "table_four_leg": (1409, "08f910cb555c774a"),
    "table_four_leg/low": (630, "9f4229e767dfc50d"),
    "table_round_rotleg": (548, "4505ac9653c022be"),
    "table_round_rotleg/low": (127, "d3ce76bdc5859fed"),
    "chair_armchair": (734, "7ab8fd7a26bb4c9f"),
    "chair_armchair/low": (142, "3516bc58e0a0ca08"),
    "chair_swivel": (576, "d8238e560cfcacbb"),
    "chair_swivel/low": (183, "0791822b281fe04d"),
    "random-20x24x28": (1648, "e77d1079faae5f16"),
}


def test_propose_candidates_pinned():
    for case, res in _pinned_residuals():
        cands = propose_candidates(res)
        blocks = tuple(_make_block(c, res.shape) for c in cands.tolist())
        digest = hashlib.sha256(print_text(Program(blocks)).encode()).hexdigest()[:16]
        assert (len(cands), digest) == PINNED_CANDIDATES[case], case


def periodic_steps_scan(res):
    """Reference for ``_periodic_steps``: counts each shift's overlap directly."""
    found = []
    for axis in range(3):
        n = res.shape[axis]
        best = None  # (fraction, k)
        for k in range(2, n):
            front = res[(slice(None),) * axis + (slice(k, None),)]
            back = res[(slice(None),) * axis + (slice(0, n - k),)]
            m = min(int(np.count_nonzero(front)), int(np.count_nonzero(back)))
            if m == 0:
                break
            frac = int(np.count_nonzero(front & back)) / m
            if frac >= _PERIOD_MIN_OVERLAP and (best is None or frac > best[0] + 1e-9):
                best = (frac, k)
        if best is not None:
            found.append((axis, best[1]))
    return found


@pytest.mark.parametrize("dims", [(32, 32, 32), (20, 24, 28), (1, 12, 9), (7, 1, 5),
                                  (6, 9, 1), (2, 11, 8), (10, 2, 2), (1, 2, 30)])
def test_periodic_steps_match_per_shift_scan(dims):
    rng = np.random.default_rng(sum(dims))
    grids = [rng.random(dims) < density
             for density in (0.0, 0.002, 0.02, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0) for _ in range(3)]
    # motifs repeated along one axis, with voxels dropped, hit the detector
    for axis in range(3):
        for period in (2, 3, 5, 7):
            reps = [1, 1, 1]
            reps[axis] = -(-dims[axis] // period)
            motif = rng.random(dims[:axis] + (period,) + dims[axis + 1:]) < 0.4
            tiled = np.tile(motif, reps)[:dims[0], :dims[1], :dims[2]]
            grids += [tiled, tiled & (rng.random(dims) < 0.9)]
    hits = 0
    for res in grids:
        want = periodic_steps_scan(res)
        assert _periodic_steps(res, np.argwhere(res)) == want
        hits += len(want)
    assert hits > 0


@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 2, 2, 2)])
def test_propose_candidates_rejects_non_3d_grids(shape):
    with pytest.raises(ShapeMismatchError):
        propose_candidates(np.ones(shape, dtype=bool))


@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 2, 2, 2)])
def test_fit_program_rejects_non_3d_grids(shape):
    with pytest.raises(ShapeMismatchError):
        fit_program(np.ones(shape, dtype=bool))


coord = st.integers(-12, 44)
size = st.integers(-3, 14)


@st.composite
def draws(draw):
    shape = draw(st.sampled_from(list(ShapeKind)))
    pos = draw(st.tuples(coord, coord, coord))
    if shape is ShapeKind.LINE:
        geom = draw(st.tuples(coord, coord, coord))
    elif shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
        geom = draw(st.tuples(size, st.integers(-3, 10)))
    else:
        geom = draw(st.tuples(size, size, size))
        if shape is ShapeKind.CUBOID and draw(st.booleans()):
            geom += (draw(st.integers(-45, 45)),)
    return DrawStmt(Semantics.LEG, shape, pos, geom)


# every candidate row kind: any draw, a translation loop over one draw with
# any step, and a rotation loop about Y over one draw with any angle
step = st.tuples(*(st.integers(-40, 40),) * 3)
translations = st.builds(lambda times, u, body: ForStmt.translation(times, u, (body,)),
                         st.integers(1, 16), step, draws())
rotations = st.builds(lambda n, ang, body: ForStmt.rotation(n, ang, Axis.Y, (body,)),
                      st.integers(1, 8), st.sampled_from([0, 45, 90, -72, 355])
                      | st.integers(-120, 120), draws())


@settings(max_examples=400)
@given(blocks=st.lists(st.one_of(draws(), translations, rotations), min_size=1, max_size=6),
       dims=st.sampled_from([(32, 32, 32), (12, 20, 9)]),
       density=st.sampled_from([0.05, 0.4, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_cover_bounds_never_below_exact_cover(blocks, dims, density, seed):
    """The cover bound is never below the residual voxels a block covers and
    the floor never above the empty voxels it fills, with ``current``
    holding both reconstructed voxels and false ones."""
    rng = np.random.default_rng(seed)
    target = rng.random(dims) < density
    current = rng.random(dims) < 0.3
    bounds, floors, _ = _cover_bounds(np.array([_row_of(b) for b in blocks]),
                                      _round_state(target, current).table)
    assert bounds.shape == floors.shape == (len(blocks),)
    for b, bound, floor in zip(blocks, bounds.tolist(), floors.tolist()):
        a, bad = executed_counts(b, target, current)
        assert bound >= a and floor <= bad, b


def test_cover_bounds_exact_for_boxes_and_lines_on_full_residual():
    full = np.ones((32, 32, 32), dtype=bool)
    blocks = [
        cuboid(),
        DrawStmt(Semantics.TOP, ShapeKind.RECTANGLE, (2, 3, 4), (5, 6, 7)),
        DrawStmt(Semantics.BASE, ShapeKind.SQUARE, (16, 0, 16), (3, 4)),
        DrawStmt(Semantics.BASE, ShapeKind.LINE, (3, 30, 2), (20, 4, 9)),
        ForStmt.translation(3, (9, 0, -7), (cuboid((1, 1, 20), (4, 5, 6)),)),
    ]
    exact = [int(np.count_nonzero(execute_block(b))) for b in blocks]
    bounds, _, _ = _cover_bounds(np.array([_row_of(b) for b in blocks]), table_of(full))
    assert bounds.tolist() == exact


def test_cover_bounds_exact_for_disjoint_copies_inside_the_grid():
    """Copies that are disjoint and inside the grid are bounded exactly: the
    cover bound on a full residual is the voxels the block sets, for discs,
    tilts, lines and rotated copies. The floor on an empty grid is too, but
    for a rotation, whose copies' floors are not summed: there it is the
    largest copy's voxels."""
    line = DrawStmt(Semantics.BASE, ShapeKind.LINE, (6, 5, 9), (11, 8, 9))
    leg = DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (5, 0, 5), (6, 2))
    blocks = [
        DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (16, 0, 16), (5, 4)),
        DrawStmt(Semantics.TOP, ShapeKind.CIRCLE, (16, 20, 16), (1, 9)),
        cuboid(geom=(10, 3, 3, 30)),
        line,
        ForStmt.rotation(4, 90, Axis.Y, (leg,)),
        ForStmt.rotation(3, 45, Axis.Y, (line,)),
        ForStmt.rotation(5, 72, Axis.Y, (cuboid((3, 2, 13), (4, 3, 3, 20)),)),
        ForStmt.translation(3, (0, 0, 9), (leg,)),
        ForStmt.translation(4, (0, 7, 0), (cuboid((1, 1, 20), (4, 5, 6)),)),
    ]
    rows = np.array([_row_of(b) for b in blocks])
    exact = [int(np.count_nonzero(execute_block(b))) for b in blocks]
    full, empty = np.ones((32, 32, 32), dtype=bool), np.zeros((32, 32, 32), dtype=bool)
    assert _cover_bounds(rows, _round_state(full, empty).table)[0].tolist() == exact
    floors = [max(int(np.count_nonzero(execute_block(d))) for d in unroll_for(b))
              if isinstance(b, ForStmt) and b.mode is LoopMode.ROTATION else n
              for b, n in zip(blocks, exact)]
    assert _cover_bounds(rows, _round_state(empty, empty).table)[1].tolist() == floors


@st.composite
def box_chains(draw, dims=None):
    """(dims, block): an untilted Cub or Rect, or a Sqr, alone or in a
    translation loop of 2 to 16 copies, placed anywhere from inside the grid
    to fully outside it."""
    dims = dims or draw(st.sampled_from([(32, 32, 32), (16, 64, 16), (7, 5, 9)]))
    pos = tuple(draw(st.integers(-n // 2 - 6, n + 6)) for n in dims)
    extent = st.integers(-2, 20)
    shape = draw(st.sampled_from([ShapeKind.CUBOID, ShapeKind.RECTANGLE, ShapeKind.SQUARE]))
    if shape is ShapeKind.SQUARE:
        geom = (draw(extent), draw(st.integers(-2, 10)))
    else:
        geom = (draw(extent), draw(extent), draw(extent)) + draw(st.sampled_from([(), (0,)]))
    block = DrawStmt(Semantics.BASE, shape, pos, geom)
    if draw(st.booleans()):
        # small steps overlap consecutive copies; zero steps stack them
        u = draw(st.tuples(*(st.integers(-12, 12),) * 3))
        block = ForStmt.translation(draw(st.integers(2, 16)), u, (block,))
    return dims, block


@settings(max_examples=400)
@given(case=box_chains(), density=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 16))
def test_table_counts_equal_execution(case, density, seed):
    dims, block = case
    rng = np.random.default_rng(seed)
    target = rng.random(dims) < density
    current = target & (rng.random(dims) < 0.3)
    rnd = _round_state(target, current)
    exact = executed_counts(block, target, current)
    assert _block_counts(rnd, _row_of(block)) == exact
    assert_score_is_executed_gain(block, target, current)


@st.composite
def tilts_and_rotations(draw):
    """(dims, block): a tilted Cub, a translation over one, or a rotation
    about Y over a Cub, Rect, Sqr or tilted Cub, from inside the grid to
    outside it, heights past the grid included."""
    dims = draw(st.sampled_from([(32, 32, 32), (16, 64, 16), (7, 5, 9)]))
    pos = tuple(draw(st.integers(-n // 2 - 6, n + 6)) for n in dims)
    extent = st.integers(-2, 20)
    tilted = (draw(st.integers(-2, dims[1] + 8)), draw(extent), draw(extent),
              draw(st.integers(-45, 45)))
    kind = draw(st.sampled_from(["draw", "translation", "rotation"]))
    if kind == "rotation":
        shape = draw(st.sampled_from(["tilt", ShapeKind.CUBOID, ShapeKind.RECTANGLE,
                                      ShapeKind.SQUARE]))
        geom = (tilted if shape == "tilt" else (draw(extent), draw(st.integers(-2, 10)))
                if shape is ShapeKind.SQUARE else (draw(extent), draw(extent), draw(extent)))
        body = DrawStmt(Semantics.BASE, ShapeKind.CUBOID if shape == "tilt" else shape, pos, geom)
        times = draw(st.integers(1, 16))
        angle = draw(st.sampled_from([0, 360 // times, -90, 355]) | st.integers(-355, 355))
        return dims, ForStmt.rotation(times, angle, Axis.Y, (body,))
    body = DrawStmt(Semantics.BASE, ShapeKind.CUBOID, pos, tilted)
    if kind == "draw":
        return dims, body
    uy = draw(st.sampled_from([0, 0]) | st.integers(-12, 12))
    u = (draw(st.integers(-12, 12)), uy, draw(st.integers(-12, 12)))
    return dims, ForStmt.translation(draw(st.integers(2, 16)), u, (body,))


@settings(max_examples=400)
@given(case=tilts_and_rotations(), density=st.sampled_from([0.1, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_tilt_and_rotation_counts_equal_execution(case, density, seed):
    dims, block = case
    rng = np.random.default_rng(seed)
    target = rng.random(dims) < density
    current = target & (rng.random(dims) < 0.3)
    rnd = _round_state(target, current)
    exact = executed_counts(block, target, current)
    from_row = _block_counts(rnd, _row_of(block))
    assert from_row in (exact, None)
    # every rotation and every multi-run tilt moving in y is executed
    if isinstance(block, DrawStmt) or (block.mode is LoopMode.TRANSLATION and not block.step[1]):
        assert from_row == exact
    elif block.mode is LoopMode.ROTATION:
        assert from_row is None
    assert_score_is_executed_gain(block, target, current)


@st.composite
def window_rows(draw):
    """(dims, block): every kind of row the round's table cannot count, and
    box rotations whose copies may overlap. A Cyl or Cir, a Cub, Rect or Sqr
    rotation, a translation moving a multi-run tilt in y, or a line, alone,
    translated (disjoint, overlapping and stacked copies, y steps) or rotated
    about Y, from inside the grid to outside it."""
    dims = draw(st.sampled_from([(32, 32, 32), (16, 64, 16), (7, 5, 9)]))
    far = st.tuples(*(st.integers(-n - 8, 2 * n + 8) for n in dims))
    pos = draw(st.tuples(*(st.integers(-n // 2 - 6, n + 6) for n in dims)))
    extent = st.integers(-2, 20)
    kind = draw(st.sampled_from(["disc", "box", "tilt", "line"]))
    if kind == "disc":
        shape = draw(st.sampled_from([ShapeKind.CYLINDER, ShapeKind.CIRCLE]))
        geom = (draw(st.integers(-2, dims[1] + 8)), draw(st.integers(-2, 12)))
    elif kind == "box":
        shape = draw(st.sampled_from([ShapeKind.CUBOID, ShapeKind.RECTANGLE, ShapeKind.SQUARE]))
        geom = ((draw(extent), draw(st.integers(-2, 10))) if shape is ShapeKind.SQUARE
                else (draw(extent), draw(extent), draw(extent)))
    elif kind == "tilt":
        shape = ShapeKind.CUBOID
        geom = (draw(st.integers(2, dims[1] + 8)), draw(extent), draw(extent),
                draw(st.integers(-45, 45).filter(lambda a: abs(a) >= 8)))
    else:
        shape = ShapeKind.LINE
        # endpoints out to past the grid: lines partly outside it and
        # longer than it; small odd deltas over even steps round at halves
        pos, geom = draw(st.one_of(st.tuples(far, far), st.tuples(st.just(pos), far),
                                   st.tuples(st.just(pos), st.tuples(*(st.integers(
                                       p - 3, p + 3) for p in pos)))))
    body = DrawStmt(Semantics.BASE, shape, pos, geom)
    mode = draw(st.sampled_from(["rotation"] if kind == "box" else ["translation"] if kind == "tilt"
                                else ["draw", "translation", "rotation"]))
    times = draw(st.integers(2, 16))
    if mode == "draw":
        return dims, body
    if mode == "rotation":
        angle = draw(st.sampled_from([0, 360 // times, 90, -90, 355]) | st.integers(-355, 355))
        return dims, ForStmt.rotation(times, angle, Axis.Y, (body,))
    # small steps overlap consecutive copies, zero steps stack them, large ones part them
    step = st.sampled_from([0, 0, 1, -1]) | st.integers(-12, 12) | st.integers(-40, 40)
    u = (draw(step), draw(step.filter(bool)) if kind == "tilt" else draw(step), draw(step))
    return dims, ForStmt.translation(times, u, (body,))


@settings(max_examples=600)
@given(case=window_rows(), density=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 16))
def test_window_counts_equal_execution(case, density, seed):
    dims, block = case
    rng = np.random.default_rng(seed)
    target = rng.random(dims) < density
    current = target & (rng.random(dims) < 0.3)
    rnd = _round_state(target, current)
    row = _row_of(block)
    exact = executed_counts(_make_block(row, dims), target, current)
    assert _window_counts(rnd, _row_copies(row, dims)) == exact
    assert _row_counts(rnd, row) == exact
    assert_score_is_executed_gain(block, target, current)


@pytest.mark.parametrize("dims", [(32, 32, 32), (16, 64, 16), (7, 5, 9)])
def test_window_counts_lines_rounding_at_halves(dims):
    """These lines' midpoints lie at halves on their short axes, where rint
    rounds to even: moving a line before rasterising it would move them."""
    target = np.random.default_rng(3).random(dims) < 0.5
    empty = np.zeros(dims, dtype=bool)
    rnd = _round_state(target, empty)
    for start in ((1, 1, 1), (2, 3, 1), (3, 0, 4), (0, 1, 3)):
        end = tuple(p + d for p, d in zip(start, (4, 1, 3)))
        for block in (DrawStmt(Semantics.BASE, ShapeKind.LINE, start, end),
                      ForStmt.translation(3, (1, 1, 1), (DrawStmt(Semantics.BASE, ShapeKind.LINE,
                                                                  start, end),)),
                      ForStmt.rotation(4, 90, Axis.Y, (DrawStmt(Semantics.BASE, ShapeKind.LINE,
                                                                start, end),))):
            row = _row_of(block)
            exact = executed_counts(block, target, empty)
            assert _window_counts(rnd, _row_copies(row, dims)) == exact, block


def test_table_counts_only_boxes():
    cyl = DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (4, 0, 4), (5, 2))
    line = DrawStmt(Semantics.BASE, ShapeKind.LINE, (1, 2, 3), (9, 2, 3))
    box = cuboid()
    # rows 0..9 of a 30 degree tilt shift by 0, 1, 1, 2, 2, 3, 3, 4, 5, 5
    steep = cuboid(geom=(10, 3, 3, 30))
    counted = [
        box, steep, cuboid(geom=(5, 6, 7, 5)),
        DrawStmt(Semantics.TOP, ShapeKind.RECTANGLE, (2, 3, 4), (5, 6, 7)),
        DrawStmt(Semantics.BASE, ShapeKind.SQUARE, (16, 0, 16), (3, 4)),
        ForStmt.translation(3, (9, 0, 0), (steep,)),
        ForStmt.translation(3, (9, 4, 0), (cuboid(geom=(5, 6, 7, 5)),)),
    ]
    executed = [
        cyl, line,
        ForStmt.translation(3, (9, 0, 0), (cyl,)),
        # every rotation, its copies disjoint or not, is counted in its window
        ForStmt.rotation(4, 90, Axis.Y, (cyl,)),
        ForStmt.rotation(4, 90, Axis.Y, (cuboid((12, 0, 12), (5, 8, 8)),)),
        ForStmt.rotation(4, 90, Axis.Y, (cuboid((2, 0, 2), (5, 4, 4)),)),
        ForStmt.rotation(4, 90, Axis.Y, (cuboid((2, 0, 2), (5, 4, 4, 20)),)),
        ForStmt.rotation(3, 0, Axis.Y, (box,)),
        ForStmt.translation(3, (9, 4, 0), (steep,)),
    ]
    target = np.random.default_rng(5).random((32, 32, 32)) < 0.5
    empty = np.zeros_like(target)
    rnd = _round_state(target, empty)
    for b in counted:
        assert _block_counts(rnd, _row_of(b)) == executed_counts(b, target, empty), b
    for b in executed:
        assert _block_counts(rnd, _row_of(b)) is None, b


@settings(max_examples=200)
@given(dims=st.sampled_from([(32, 32, 32), (16, 64, 16), (7, 5, 9)]),
       density=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 16), data=st.data())
def test_cover_bounds_counts_single_box_rows_exactly(dims, density, seed, data):
    blocks = data.draw(st.lists(box_chains(dims).map(lambda case: case[1])
                                | draws() | translations | rotations, min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    target = rng.random(dims) < density
    current = target & (rng.random(dims) < 0.3)
    rnd = _round_state(target, current)
    rows = np.array([_row_of(b) for b in blocks])
    bounds, floors, counts = _cover_bounds(rows, rnd.table)
    for b, row, bound, floor, packed in zip(blocks, rows.tolist(), bounds.tolist(),
                                            floors.tolist(), counts.tolist()):
        body = b if isinstance(b, DrawStmt) else b.body[0]
        if (row[0] == 2 or row[12] != 0 or body.shape not in
                (ShapeKind.CUBOID, ShapeKind.RECTANGLE, ShapeKind.SQUARE)):
            assert packed == -1, b
            continue
        a, bad = executed_counts(b, target, current)
        assert packed == a + (bad << 32) and floor <= bad, b
        # the bound is unchanged: per copy, min(volume, residual in its clipped box)
        times, u = (1, (0, 0, 0)) if b is body else (b.times, b.step)
        lo, hi, volume = box_of(body)
        expect = 0
        for k in range(times):
            sl = tuple(slice(max(l + k * s, 0), max(h + k * s, 0)) for l, h, s in zip(lo, hi, u))
            expect += min(volume, int(np.count_nonzero(rnd.residual[sl])))
        assert bound == expect, b


def box_of(d):
    """(lo, hi, volume) of an untilted Cub or Rect, or of a Sqr."""
    x, y, z = d.position
    if d.shape is ShapeKind.SQUARE:
        t, r = d.geometry
        w = 2 * r + 1
        return (x - r, y, z - r), (x + r + 1, y + t, z + r + 1), max(t, 0) * max(w, 0) ** 2
    t, r1, r2 = d.geometry[:3]
    return (x, y, z), (x + r1, y + t, z + r2), max(t, 0) * max(r1, 0) * max(r2, 0)


def _template_targets():
    templates = {t.id: t for t in builtin_templates()}
    for tid in ("table_four_leg", "table_round_rotleg", "chair_armchair", "chair_swivel"):
        yield tid, execute_program(sample(templates[tid], np.random.default_rng(7))[0])


def _template_rounds():
    """Residuals and current grids after 0, 1 and 2 accepted fit blocks."""
    for tid, target in _template_targets():
        program = fit_program(target, SearchConfig(max_blocks=2)).program
        current = np.zeros_like(target)
        for block in (None,) + program.statements:
            if block is not None:
                current |= execute_block(block)
            yield tid, target, current


def test_ranked_beam_equals_exhaustive_ranking(monkeypatch):
    config = SearchConfig()
    counted = set()  # rows counted one by one
    monkeypatch.setattr(inference, "_row_counts",
                        lambda rnd, row: counted.add(row) or _row_counts(rnd, row))
    skipped = skipped_rotations = 0
    for tid, target, current in _template_rounds():
        counted.clear()
        i0 = int(np.count_nonzero(current & target))
        u0 = int(np.count_nonzero(current | target))
        candidates = propose_candidates(target & ~current, config)
        scored = [
            (_score_from_counts(*executed_counts(_make_block(c, target.shape), target, current),
                                i0, u0),
             idx, tuple(c)) for idx, c in enumerate(candidates.tolist())]
        scored.sort(key=lambda t: (-t[0], t[1]))
        budget = _Budget(config.budget)
        beam = _ranked_beam(candidates, _round_state(target, current), config, budget)
        assert beam == scored[:config.beam_width], tid
        skipped += len(candidates) - budget.calls
        skipped_rotations += len({tuple(c) for c in candidates.tolist() if c[0] == 2} - counted)
    assert skipped > 0 and skipped_rotations > 0


def wrapper_seeds(res) -> list:
    """The first lattice seed of each of the first components, components
    in the order of their first seed: a scan over the seeds in order, with
    components labelled on the whole grid."""
    from scipy import ndimage

    occ = np.argwhere(res)
    labels, _ = ndimage.label(res, structure=np.ones((3, 3, 3), dtype=bool))
    seen, firsts = set(), []
    for p in _lattice_seeds(res, occ.min(axis=0), occ.max(axis=0), _SEED_STRIDE).tolist():
        if labels[tuple(p)] not in seen and len(firsts) < _WRAP_MAX_COMPONENTS:
            seen.add(labels[tuple(p)])
            firsts.append(p)
    return firsts


def test_seed_lines_grow_from_wrapper_seeds_only():
    """Every line a round proposes, drawn or as a loop's body, is one of
    the two end-to-end head lines or the walked run of a wrapper seed along
    a line direction, and every such run of at least 4 voxels is proposed.
    Checked on the pinned residuals and on later fit rounds."""
    line, rounds = SHAPES.index(ShapeKind.LINE), 0
    cases = [(tid, res, np.zeros_like(res)) for tid, res in _pinned_residuals()]
    for tid, target, current in cases + list(_template_rounds()):
        res = target & ~current
        rows = propose_candidates(res).tolist()
        rounds += 1
        if not res.any():
            assert rows == [], tid
            continue
        occ = np.argwhere(res)  # x-major
        z_major = occ[np.lexsort(occ.T)]
        want = {(*occ[0], *occ[-1]), (*z_major[0], *z_major[-1])}
        for p in wrapper_seeds(res):
            for d in _SEED_DIRS[5:].tolist():
                n = walk_run(res, p, d)
                if n >= 4:
                    want.add((*p, *(v + (n - 1) * u for v, u in zip(p, d))))
        got = {tuple(r[6:12]) for r in rows if r[5] == line}
        assert got == want and all(r[12] == 0 for r in rows if r[5] == line), tid
    assert rounds == 21


LINE = DrawStmt(Semantics.BASE, ShapeKind.LINE, (3, 2, 4), (20, 19, 21))
TABLE = Program((DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (4, 20, 4), (2, 24, 24)),
                 DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (5, 0, 5), (20, 2, 2))))
LINE_LEGS = Program((ForStmt.rotation(
    4, 90, Axis.Y, (DrawStmt(Semantics.LEG, ShapeKind.LINE, (16, 0, 16), (24, 8, 16)),)),))
LINE_AND_BOX = Program((LINE, DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (6, 2, 10), (3, 3, 3))))


FIT_SINGLE_LINE = "draw(Base, Line, P=(3,2,4), G=(20,19,21))\n"
FIT_CAP_BINDS = "draw(Locker, Cub, P=(4,0,4), G=(22,24,24))\n"
CAP_BINDS_IOU = 0.09722222222222222
FIT_LINE_BODY = ("for(Rot, i=4, theta=90, axis=Y) {\n"
                 "  draw(Base, Line, P=(8,7,15), G=(15,0,15))\n"
                 "}\n"
                 "for(Rot, i=4, theta=90, axis=Y) {\n"
                 "  draw(Beam, Cub, P=(7,8,15), G=(1,1,1))\n"
                 "}\n")
FIT_LINE_AND_BOX = ("draw(BackSup, Cub, P=(6,2,10), G=(3,3,3))\n"
                    "draw(Base, Line, P=(3,2,4), G=(20,19,21))\n")


# Targets where lines or the round's cap decide the fit: a lone line, a
# table whose tiny budget caps the first round's candidates, four lines
# turned about Y (the fit's loop body is a wrapper seed's line), and a line
# that is also a head line beside a box. Each fit is the one the search
# made when every lattice seed grew lines.
@pytest.mark.parametrize("program, config, fit, final_iou, stop", [
    pytest.param(Program((LINE,)), SearchConfig(), FIT_SINGLE_LINE, 1.0, "residual_empty",
                 id="single-line"),
    pytest.param(TABLE, SearchConfig(budget=100), FIT_CAP_BINDS, CAP_BINDS_IOU, "budget",
                 id="cap-binds"),
    pytest.param(LINE_LEGS, SearchConfig(), FIT_LINE_BODY, 1.0, "residual_empty",
                 id="line-body"),
    pytest.param(LINE_AND_BOX, SearchConfig(), FIT_LINE_AND_BOX, 1.0, "residual_empty",
                 id="line-and-box"),
])
def test_line_and_cap_targets_fit_as_pinned(program, config, fit, final_iou, stop):
    r = fit_program(execute_program(program), config)
    assert (print_text(r.program), r.final_iou, r.stop_reason) == (fit, final_iou, stop)


def test_carried_round_state_equals_a_fresh_one(monkeypatch):
    """After every accepted block, the table, packed grid, residual and
    counts the fit carries forward are exactly those ``_round_state``
    builds from scratch for the grid so far: on the fits of
    ``_template_rounds``' targets, and on one fit each on a 48^3 and a
    31x40x35 grid."""
    carry, fit = inference._carry, {}

    def checked(rnd, box, window):
        fit["current"][box] |= window
        out = carry(rnd, box, window)
        fresh = _round_state(fit["target"], fit["current"])
        for field in ("residual", "packed", "table"):
            got, want = getattr(out, field), getattr(fresh, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert (out.i0, out.u0) == (fresh.i0, fresh.u0)
        fit["carried"] += 1
        return out

    monkeypatch.setattr(inference, "_carry", checked)
    templates = {t.id: t for t in builtin_templates()}
    targets = [target for _, target in _template_targets()]
    targets += [execute_program(sample(templates[tid], np.random.default_rng(7))[0], dims)
                for tid, dims in (("chair_swivel", (48, 48, 48)),
                                  ("table_four_leg", (31, 40, 35)))]
    fit["carried"] = 0
    for target in targets:
        fit["target"], fit["current"] = target, np.zeros_like(target)
        r = fit_program(target)
        assert r.final_iou == iou(fit["current"], target)
    assert fit["carried"] >= 3 * len(targets)


def test_carry_equals_a_fresh_round_state_on_a_non_cubic_grid():
    """``_carry`` alone, on a 31x40x35 grid, with boxes that start at 0, stop
    at the grid's end, or both, on each axis, so that some of the table
    regions past the box are empty: after every carry, the table, packed
    grid, residual and counts are those ``_round_state`` builds afresh."""
    dims = (31, 40, 35)
    rng = np.random.default_rng(27)
    target = rng.random(dims) < 0.4
    current = target & (rng.random(dims) < 0.2)
    rnd = _round_state(target, current)
    spans = [[(0, n // 3), (n // 2, n), (0, n), (3, n - 4)] for n in dims]
    for sx, sy, sz in itertools.product(*spans):
        box = tuple(slice(a, b) for a, b in (sx, sy, sz))
        window = rng.random(tuple(b - a for a, b in (sx, sy, sz))) < 0.5
        rnd = inference._carry(rnd, box, window)
        current[box] |= window
        fresh = _round_state(target, current)
        for field in ("residual", "packed", "table"):
            got, want = getattr(rnd, field), getattr(fresh, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (field, box)
        assert (rnd.i0, rnd.u0) == (fresh.i0, fresh.u0), box


class NoCache(dict):
    """A score cache that stores nothing, so every neighbour is executed."""

    def __setitem__(self, key, value):
        pass


def test_refine_shared_round_cache_matches_uncached():
    config = SearchConfig()
    calls = {"shared": 0, "fresh": 0, "none": 0}
    for tid, target, current in _template_rounds():
        rnd = _round_state(target, current)
        beam = _ranked_beam(propose_candidates(rnd.residual, config), rnd, config,
                            _Budget(config.budget))
        shared = {}
        for s0, _, row in beam:
            results = {}
            for kind in calls:
                budget = _Budget(config.budget)
                cache = shared if kind == "shared" else {} if kind == "fresh" else NoCache()
                results[kind] = _refine(row, s0, rnd, budget, cache)
                calls[kind] += budget.calls
            assert results["shared"] == results["fresh"] == results["none"], tid
    assert calls["shared"] < calls["fresh"] < calls["none"]


def full_refine(row, score, rnd, budget, cache):
    """Coordinate descent with no prune: every neighbour is scored, through
    the round's cache, until none improves."""
    dims = rnd.residual.shape
    slots = inference._slots(row, dims, Limits.for_dims(dims))
    for _ in range(inference._REFINE_SWEEPS):
        improved = False
        for c, delta, lo, hi in slots:
            for direction in (delta, -delta):
                while lo <= row[c] + direction <= hi:
                    nb = row[:c] + (row[c] + direction,) + row[c + 1:]
                    s = cache.get(nb)
                    if s is None:
                        if not budget.spend():
                            return row, score
                        s = cache[nb] = row_score(rnd, nb)
                    if s <= score:
                        break
                    row, score = nb, s
                    improved = True
        if not improved:
            break
    return row, score


def full_best_refined(beam, rnd, budget):
    """The oracle for ``_best_refined``: every beam entry refined in full,
    then the best by (-score, index)."""
    cache, refined = {}, []
    for s0, idx, row in beam:
        row, s = full_refine(row, s0, rnd, budget, cache)
        refined.append((-s, idx, row))
    s, _, row = min(refined)
    return -s, row


def test_pruned_refinement_fits_as_refining_every_entry_in_full(monkeypatch):
    """Refinement that stops at the round's gain ceiling, refines no entry
    that can no longer win, and scores no tilt neighbour drawing the row's
    own voxels fits exactly as refining every entry in full does: the
    program, IoUs and stop reason agree, on the template targets and on 20
    random programs, while no fit scores more candidates and all together
    score fewer."""
    targets = [target for _, target in _template_targets()]
    targets += [execute_program(random_program(seed)) for seed in range(9000, 9020)]
    pruned = [fit_program(target) for target in targets]
    monkeypatch.setattr(inference, "_best_refined", full_best_refined)
    full = [fit_program(target) for target in targets]
    for k, (p, f) in enumerate(zip(pruned, full)):
        assert (p.program, p.score_trace, p.final_iou, p.stop_reason, p.budget_exhausted) == (
            f.program, f.score_trace, f.final_iou, f.stop_reason, f.budget_exhausted), k
        assert p.executor_calls <= f.executor_calls, k
    assert sum(p.executor_calls for p in pruned) < sum(f.executor_calls for f in full)


BOX = cuboid(pos=(8, 4, 8), geom=(3, 5, 5))


def test_refine_spends_no_budget_at_the_ceiling():
    """A row that covers the whole residual and no empty voxel scores the
    ceiling, so refining it, alone or as a beam entry, scores nothing."""
    target = render(BOX)
    rnd = _round_state(target, np.zeros_like(target))
    row = _row_of(BOX)
    assert row_score(rnd, row) == rnd.top
    budget, cache = _Budget(SearchConfig().budget), {}
    assert _refine(row, rnd.top, rnd, budget, cache) == (row, rnd.top)
    assert _best_refined([(rnd.top, 0, row)], rnd, budget) == (rnd.top, row)
    assert budget.calls == 0 and cache == {}
    # with no prune the same refinement scores every neighbour once
    assert full_refine(row, rnd.top, rnd, budget, {}) == (row, rnd.top) and budget.calls > 0


def test_refine_reaches_the_ceiling_from_one_voxel_short():
    """A row one residual voxel short of the ceiling, filling no empty
    voxel, is still refined: the ceiling counts every residual voxel."""
    target = render(cuboid(pos=(8, 4, 8), geom=(1, 1, 2)))
    rnd = _round_state(target, np.zeros_like(target))
    short = _row_of(cuboid(pos=(8, 4, 8), geom=(1, 1, 1)))
    assert row_score(rnd, short) == _score_from_counts(1, 0, 0, 2) < rnd.top
    _, score = _refine(short, row_score(rnd, short), rnd, _Budget(100), {})
    assert score == rnd.top


def test_refine_scores_no_tilt_neighbour_that_draws_its_own_voxels(monkeypatch):
    """Every row of a one-row Cub shifts by 0 at any tilt, so refining an
    untilted one counts and caches no tilted row, while refinement with no
    prune scores the tilted rows that draw its own voxels. A stray voxel
    keeps the walk below the ceiling, so it reaches the tilt columns."""
    slab = cuboid(pos=(9, 4, 8), geom=(1, 6, 7))
    target = render(slab) | render(cuboid(pos=(25, 25, 25), geom=(1, 1, 1)))
    rnd = _round_state(target, np.zeros_like(target))
    start = _row_of(cuboid(pos=(8, 4, 8), geom=(1, 6, 7)))
    counted = []
    monkeypatch.setattr(inference, "_row_counts",
                        lambda rnd, row: counted.append(row) or _row_counts(rnd, row))
    cache = {}
    row, score = _refine(start, row_score(rnd, start), rnd, _Budget(1000), cache)
    assert row == _row_of(slab) and score < rnd.top
    assert counted and all(r[12] == 0 for r in counted + list(cache))
    full = {}
    full_refine(start, row_score(rnd, start), rnd, _Budget(1000), full)
    assert any(r[12] != 0 and s == row_score(rnd, r[:12] + (0,)) for r, s in full.items())


def test_refine_takes_a_tilt_neighbour_that_straightens_a_tilted_row():
    """From a tilted Cub, a tilt neighbour whose rows all shift by 0 draws
    other voxels than the row, so it is scored: on an untilted box target
    the walk from 10 degrees reaches the box through 5 degrees."""
    target = render(cuboid(pos=(8, 4, 8), geom=(6, 5, 5)))
    rnd = _round_state(target, np.zeros_like(target))
    tilted = _row_of(cuboid(pos=(8, 4, 8), geom=(6, 5, 5, 10)))
    assert row_score(rnd, tilted) < rnd.top
    _, score = _refine(tilted, row_score(rnd, tilted), rnd, _Budget(1000), {})
    assert score == rnd.top


def test_best_refined_refines_no_entry_of_larger_index_than_one_at_the_ceiling():
    """Once an entry scores the ceiling, an entry of larger index could at
    best tie it and lose on the index, so it is not refined and spends
    nothing."""
    target = render(BOX)
    rnd = _round_state(target, np.zeros_like(target))
    exact, off = _row_of(BOX), _row_of(cuboid(pos=(9, 4, 8), geom=(3, 5, 5)))
    beam = [(rnd.top, 3, exact), (row_score(rnd, off), 5, off)]
    budget = _Budget(1000)
    assert _best_refined(beam, rnd, budget) == (rnd.top, exact) and budget.calls == 0
    assert full_best_refined(beam, rnd, budget) == (rnd.top, exact) and budget.calls > 0


def test_best_refined_refines_entries_of_smaller_index_than_one_at_the_ceiling():
    """An entry of smaller index than one at the ceiling can still reach it
    and win on the index: a Cub one voxel off (index 2) refines to the box
    that a Sqr (index 5) already draws, and wins."""
    target = render(BOX)
    rnd = _round_state(target, np.zeros_like(target))
    square = _row_of(DrawStmt(Semantics.BASE, ShapeKind.SQUARE, (10, 4, 10), (3, 2)))
    off = _row_of(cuboid(pos=(9, 4, 8), geom=(3, 5, 5)))
    assert row_score(rnd, square) == rnd.top > row_score(rnd, off)
    beam = [(rnd.top, 5, square), (row_score(rnd, off), 2, off)]
    assert _best_refined(beam, rnd, _Budget(1000)) == (rnd.top, _row_of(BOX))
    assert full_best_refined(beam, rnd, _Budget(1000)) == (rnd.top, _row_of(BOX))


# sha256 prefix of (program text, final IoU, score trace), the final IoU,
# the candidates scored and the stop reason, per built-in template. The first
# five digests were recorded from the fit that executed every candidate, the
# rest from the fit that made candidates as tuples, before they became array
# rows; the stop reasons from the fit that executed every candidate the
# round's table could not count. The counts were recorded once ranking keyed
# each candidate by the score of its cover bound and empty-voxel floor, which
# left every digest, IoU and stop reason as it was and lowered every count.
# Every count, and the digests and IoUs of chair_swivel and chair_basic, were
# re-recorded when the default beam went from 8 entries to 4. When only
# the wrapper seeds grew lines, table_slab's count went from 161 to 167.
# Every count but table_round_corner's fell, and was re-recorded, when
# refinement stopped at the round's gain ceiling and skipped tilt neighbours
# that draw the row's own voxels; every digest, IoU and stop reason held.
PINNED_FITS = {
    "table_four_leg": ("3ccc15ff483da354", 1.0, 182, "residual_empty"),
    "table_round_rotleg": ("7195dfc175fc5d81", 1.0, 122, "residual_empty"),
    "table_locker": ("947f9e3ccdd72b8b", 0.7368421052631579, 91, "residual_empty"),
    "chair_armchair": ("938cf240ab8887d1", 0.6571428571428571, 241, "residual_empty"),
    "chair_swivel": ("dc4141c1a42bb158", 0.9907692307692307, 523, "min_gain"),
    "table_pedestal": ("d9c1ab83511bef02", 1.0, 148, "residual_empty"),
    "table_sideboard": ("4f0c397d5bace2c1", 1.0, 98, "residual_empty"),
    "table_layer": ("70f9042c661a048e", 1.0, 379, "residual_empty"),
    "table_multi_layer": ("bb2cb98c2da33fe8", 1.0, 184, "residual_empty"),
    "table_hbar": ("345ee988d9483227", 1.0, 271, "residual_empty"),
    "table_slab": ("ec3a327caccd4fdd", 1.0, 81, "residual_empty"),
    "table_round_corner": ("62321e9f06fbb484", 0.8710900473933649, 178, "residual_empty"),
    "chair_basic": ("34e01d746cc971ff", 0.9078706528370958, 515, "residual_empty"),
    "chair_bar_back": ("84ef370bb4c81315", 0.9250936329588015, 423, "residual_empty"),
    "chair_sofa": ("23285c90e6ce6c9c", 0.76, 145, "residual_empty"),
    "chair_bench": ("da5c499f2be86d14", 1.0, 173, "residual_empty"),
    "chair_post_back": ("fcefdb3e3ea2fee8", 1.0, 385, "residual_empty"),
}


def test_fit_program_pinned():
    templates = {t.id: t for t in builtin_templates()}
    assert set(PINNED_FITS) == set(templates)
    for tid, pinned in PINNED_FITS.items():
        r = fit_program(execute_program(sample(templates[tid], np.random.default_rng(7))[0]))
        blob = repr((print_text(r.program), repr(r.final_iou),
                     [(print_text(Program((b,))), repr(v)) for b, v in r.score_trace]))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert (digest, r.final_iou, r.executor_calls, r.stop_reason) == pinned, tid
        assert not r.budget_exhausted


# The least mean IoU of the default fit over six seeded shapes (rng seeds 0-5)
# of each template the search fits worst: each floor is the mean measured at a
# beam of 4, rounded down to two places, so a search change that loses one of
# these templates fails here, while PINNED_FITS only says that fits changed.
WEAK_TEMPLATE_FLOORS = {
    "chair_armchair": 0.60,
    "table_locker": 0.80,
    "chair_basic": 0.95,
    "table_round_corner": 0.90,
}


@pytest.mark.parametrize("tid", list(WEAK_TEMPLATE_FLOORS))
def test_weak_templates_fit_above_their_floor(tid):
    template = next(t for t in builtin_templates() if t.id == tid)
    ious = [fit_program(execute_program(sample(template, np.random.default_rng(s))[0])).final_iou
            for s in range(6)]
    assert np.mean(ious) >= WEAK_TEMPLATE_FLOORS[tid], ious


def test_candidates_are_valid_blocks():
    rng = np.random.default_rng(32)
    res = rng.random((32, 32, 32)) < 0.05
    for c in propose_candidates(res).tolist():
        assert not validate_program(Program((_make_block(c, res.shape),))).violations


def test_score_signs():
    target = render(cuboid())
    rnd = _round_state(target, np.zeros_like(target))
    inside = DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID, (9, 5, 9), (2, 2, 2))
    outside = DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID, (20, 20, 20), (3, 3, 3))
    assert row_score(rnd, _row_of(inside)) > 0
    assert row_score(rnd, _row_of(outside)) <= 0


def test_score_matches_recompute_oracle():
    rng = np.random.default_rng(33)
    target = render(cuboid())
    current = render(cuboid(pos=(10, 6, 10)))
    for _ in range(30):
        pos = tuple(int(v) for v in rng.integers(0, 28, 3))
        geom = tuple(int(v) for v in rng.integers(1, 8, 3))
        assert_score_is_executed_gain(DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID, pos, geom),
                                      target, current)


def test_score_dims_mismatch():
    with pytest.raises(ShapeMismatchError):
        _round_state(np.zeros((32, 32, 32), dtype=bool), np.zeros((16, 16, 16), dtype=bool))


def test_refine_off_by_one():
    target = render(cuboid(pos=(9, 4, 8)))
    _, s0, refined, s = refine_row(cuboid(pos=(8, 4, 8)), target, np.zeros_like(target))
    assert refined == _row_of(cuboid(pos=(9, 4, 8)))
    assert s > s0


def test_refine_never_worse():
    rng = np.random.default_rng(34)
    target = render(cuboid()) | render(cuboid(pos=(18, 10, 4), geom=(3, 8, 2)))
    empty = np.zeros_like(target)
    for _ in range(25):
        pos = tuple(int(v) for v in rng.integers(0, 28, 3))
        geom = tuple(int(v) for v in rng.integers(1, 9, 3))
        refine_row(DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID, pos, geom), target, empty)


def test_refine_optimal_unchanged():
    target = render(cuboid())
    row, _, refined, _ = refine_row(cuboid(), target, np.zeros_like(target))
    assert refined == row


def test_refine_loop_parameters():
    leg = DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (9, 0, 9), (12, 2, 2))
    target = render(ForStmt.translation(2, (12, 0, 0), (leg,)))
    seed = ForStmt.translation(2, (11, 0, 0), (leg,))
    _, _, refined, _ = refine_row(seed, target, np.zeros_like(target))
    assert (render(_make_block(refined, target.shape)) == target).all()


def row_holds(s):
    """Whether a candidate row can hold ``s``: a draw, or a translation or
    rotation about Y over one draw."""
    return isinstance(s, DrawStmt) or (len(s.body) == 1 and isinstance(s.body[0], DrawStmt)
                                       and s.axis in (None, Axis.Y))


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_refine_random_statements_never_worse_and_keep_structure(seed):
    """Refinement keeps a row's mode (draw, translation or rotation) and
    shape, and, through ``refine_row``, never scores worse."""
    program = random_program(seed)
    target = execute_program(program)
    empty = np.zeros_like(target)
    for s in filter(row_holds, program.statements):
        row, _, refined, _ = refine_row(s, target, empty)
        assert (refined[0], refined[5]) == (row[0], row[5]), s


@pytest.mark.parametrize("seed", range(6))
def test_score_block_is_executed_gain_on_random_statements(seed):
    target = execute_program(random_program(seed))
    current = target & (np.random.default_rng(seed).random(target.shape) < 0.3)
    for s in random_program(seed).statements + random_program(seed + 100).statements:
        if row_holds(s):
            assert_score_is_executed_gain(s, target, current)


def test_fit_empty_target():
    r = fit_program(np.zeros((32, 32, 32), dtype=bool))
    assert r.program == Program(())
    assert r.final_iou == 1.0
    assert r.score_trace == ()
    assert r.executor_calls == 0
    assert r.stop_reason == "residual_empty"


TWO_BOXES = render(cuboid()) | render(cuboid(pos=(20, 20, 20), geom=(4, 4, 4)))


@pytest.mark.parametrize("reason, target, config", [
    ("residual_empty", render(cuboid()), SearchConfig()),
    ("max_blocks", TWO_BOXES, SearchConfig(max_blocks=1)),
    ("min_gain", TWO_BOXES, SearchConfig(min_gain=2.0)),  # an IoU gain never exceeds 1
    ("budget", TWO_BOXES, SearchConfig(budget=40)),
])
def test_fit_stop_reason(reason, target, config):
    r = fit_program(target, config)
    assert r.stop_reason == reason
    assert r.budget_exhausted == (reason == "budget")
    blocks = len(r.program.statements)
    if reason == "residual_empty":
        assert r.final_iou == 1.0
    elif reason == "max_blocks":
        assert blocks == config.max_blocks and r.final_iou < 1.0
    elif reason == "min_gain":
        assert blocks == 0


def test_fit_refuses_to_return_a_program_that_fails_validation(monkeypatch):
    """Part labels never change voxels, so a fit whose labels are bad still
    finds its blocks, and its own validation refuses the program."""
    monkeypatch.setattr(inference, "_label_semantics", lambda *args: "NoSuchLabel")
    with pytest.raises(InvalidProgramError, match="unknown semantics"):
        fit_program(TWO_BOXES)


def test_fit_single_cuboid_exact():
    target = render(cuboid())
    r = fit_program(target)
    assert r.final_iou >= 0.99
    assert len(r.program.statements) >= 1


def test_fit_trace_monotone_and_consistent():
    """The trace's IoUs, read from the fit's carried counts, are exactly
    those of executing the program so far, and ``final_iou`` that of the
    whole program."""
    p = Program((
        DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8, 20, 8), (2, 16, 16)),
        DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (9, 0, 9), (20, 2, 2)),
        DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (21, 0, 21), (20, 2, 2)),
    ))
    targets = [execute_program(p)] + [target for _, target in _template_targets()]
    for target in targets:
        r = fit_program(target)
        statements = r.program.statements
        vals = [v for _, v in r.score_trace]
        assert vals == sorted(vals) and len(vals) == len(statements) >= 1
        for k, v in enumerate(vals):
            assert v == iou(execute_program(Program(statements[:k + 1])), target), k
        assert r.final_iou == vals[-1] == iou(execute_program(r.program), target)


def test_fit_deterministic():
    p = Program((DrawStmt(Semantics.TOP, ShapeKind.CYLINDER, (16, 10, 16), (3, 8)),))
    target = execute_program(p)
    a = fit_program(target)
    b = fit_program(target)
    assert a.program == b.program
    assert a.score_trace == b.score_trace
    assert a.executor_calls == b.executor_calls


def test_fit_emits_valid_program():
    rng = np.random.default_rng(35)
    for _ in range(3):
        g = render(DrawStmt(Semantics.LOCKER, ShapeKind.CUBOID,
                            tuple(int(v) for v in rng.integers(2, 20, 3)),
                            tuple(int(v) for v in rng.integers(2, 10, 3))))
        r = fit_program(g)
        assert not validate_program(r.program).violations


@pytest.mark.parametrize("dims, lo, hi", [
    ((48, 48, 48), (36, 36, 36), (44, 44, 44)),  # a cube past coordinate 31
    ((48, 48, 48), (4, 0, 4), (44, 3, 44)),  # a 40x3x40 slab
    ((16, 64, 16), (7, 0, 7), (9, 60, 9)),  # a 60-tall post
])
def test_fit_off_default_grid_is_one_valid_box(dims, lo, hi):
    target = np.zeros(dims, dtype=bool)
    target[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    r = fit_program(target)
    assert r.final_iou == 1.0
    (block,) = r.program.statements
    assert isinstance(block, DrawStmt)
    assert validate_program(r.program, Limits.for_dims(dims)).ok


def test_fit_stops_at_top_level_limit():
    # 45 scattered voxels want about one block each; a program holds at most 32
    target = np.zeros((32, 32, 32), dtype=bool)
    target[tuple(np.random.default_rng(0).integers(0, 32, (3, 45)))] = True
    r = fit_program(target, SearchConfig(max_blocks=45, min_gain=1e-6))
    assert len(r.program.statements) == Limits().max_top_level
    assert r.stop_reason == "max_blocks"
    assert validate_program(r.program).ok


def test_fit_respects_budget():
    config = SearchConfig(budget=40)
    r = fit_program(TWO_BOXES, config)
    assert r.executor_calls <= 40
    assert r.budget_exhausted


@pytest.mark.parametrize("budget, cut_beam", [(27, False), (41, True)])
def test_fit_stops_on_budget_inside_a_round(monkeypatch, budget, cut_beam):
    """The budget runs out while a round ranks its candidates: at 27 before
    the second round scores one, so its beam is empty and the fit stops
    there; at 41 part way through, so the round accepts the best of its cut
    beam. Either way the fit stops for the budget with a valid program."""
    ranked, beams = inference._ranked_beam, []

    def recording(rows, rnd, config, spent):
        beam = ranked(rows, rnd, config, spent)
        beams.append((len(beam), spent.exhausted))
        return beam

    monkeypatch.setattr(inference, "_ranked_beam", recording)
    target = execute_program(sample(builtin_templates()[0], 0)[0])  # table_four_leg
    r = fit_program(target, SearchConfig(budget=budget))
    assert r.stop_reason == "budget" and r.budget_exhausted and r.executor_calls <= budget
    assert validate_program(r.program, Limits.for_dims(target.shape)).ok
    size, exhausted = beams[-1]
    assert exhausted and (size > 0) == cut_beam
    assert len(r.program.statements) == len(beams) - (not cut_beam)


def test_fit_idempotent_refit():
    p = Program((
        DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8, 20, 8), (2, 16, 16)),
        DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (9, 0, 9), (20, 2, 2)),
    ))
    first = fit_program(execute_program(p))
    new_target = execute_program(first.program)
    second = fit_program(new_target)
    assert second.final_iou >= first.final_iou - 1e-12


def test_fit_discovers_translation_loop():
    leg = DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (4, 0, 15), (14, 2, 2))
    truth = ForStmt.translation(4, (7, 0, 0), (leg,))
    target = render(truth)
    r = fit_program(target)
    assert r.final_iou >= 0.99
    assert any(isinstance(s, ForStmt) for s in r.program.statements)
