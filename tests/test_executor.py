"""Executor: primitive rasterization against brute-force oracles, loop
unrolling, and composition identities."""
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxscript.dsl import (Axis, DrawStmt, ForStmt, Limits, Program, Semantics,
                           ShapeKind, validate_program)
from voxscript import executor
from voxscript.errors import BudgetError, InputError, InvalidProgramError
from voxscript.executor import (_STENCIL_MAX_RADIUS, DEFAULT_DIMS, MAX_GRID_VOXELS, SHAPES,
                                _extent, _fill_disk_column, _rotate_point, draw_boxes,
                                draw_extents, empty_grid, execute_block, execute_program,
                                unroll_for)

from randprog import random_program

SEM = Semantics.LEG


def brute_fill(d: DrawStmt, dims=DEFAULT_DIMS):
    """Scalar per-voxel membership oracle, independent of the vectorized path."""
    g = np.zeros(dims, dtype=bool)
    px, py, pz = d.position

    def put(x, y, z):
        if 0 <= x < dims[0] and 0 <= y < dims[1] and 0 <= z < dims[2]:
            g[x, y, z] = True

    if d.shape is ShapeKind.LINE:
        qx, qy, qz = d.geometry
        steps = max(abs(qx - px), abs(qy - py), abs(qz - pz))
        for t in range(steps + 1):
            f = t / steps if steps else 0.0
            put(int(np.rint(px + f * (qx - px))),
                int(np.rint(py + f * (qy - py))),
                int(np.rint(pz + f * (qz - pz))))
        return g
    if d.shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE):
        t, r = d.geometry
        for x in range(dims[0]):
            for y in range(py, py + t):
                for z in range(dims[2]):
                    if (x - px) ** 2 + (z - pz) ** 2 <= r * r:
                        put(x, y, z)
        return g
    if d.shape is ShapeKind.SQUARE:
        t, r = d.geometry
        for x in range(px - r, px + r + 1):
            for y in range(py, py + t):
                for z in range(pz - r, pz + r + 1):
                    put(x, y, z)
        return g
    t, r1, r2 = d.geometry[:3]
    ang = d.geometry[3] if len(d.geometry) == 4 else 0
    for k in range(t):
        shear = int(np.rint(k * math.tan(math.radians(ang))))
        for x in range(px + shear, px + shear + r1):
            for z in range(pz, pz + r2):
                put(x, py + k, z)
    return g


def test_cuboid_288_voxels():
    d = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8, 20, 8), (2, 12, 12))
    assert int(execute_block(d).sum()) == 2 * 12 * 12


def test_cylinder_r0_single_voxel():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (16, 0, 16), (1, 0))
    g = execute_block(d)
    assert int(g.sum()) == 1 and bool(g[16, 0, 16])


def test_axis_aligned_line_six_voxels():
    d = DrawStmt(SEM, ShapeKind.LINE, (0, 0, 0), (0, 0, 5))
    g = execute_block(d)
    assert int(g.sum()) == 6
    assert g[0, 0, :6].all()


def test_square_footprint():
    d = DrawStmt(SEM, ShapeKind.SQUARE, (16, 3, 16), (2, 4))
    g = execute_block(d)
    assert int(g.sum()) == 2 * 9 * 9
    assert bool(g[12, 3, 12]) and bool(g[20, 4, 20]) and not bool(g[11, 3, 16])


def test_primitives_match_brute_force_oracle():
    rng = np.random.default_rng(11)
    shapes = list(ShapeKind)
    for i in range(120):
        shape = shapes[i % len(shapes)]
        pos = tuple(int(v) for v in rng.integers(-4, 36, 3))
        if shape is ShapeKind.LINE:
            geom = tuple(int(v) for v in rng.integers(0, 32, 3))
        elif shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
            geom = (int(rng.integers(1, 12)), int(rng.integers(0, 10)))
        else:
            geom = (int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                    int(rng.integers(1, 12)))
            if shape is ShapeKind.CUBOID and rng.random() < 0.5:
                geom = geom + (int(rng.integers(-45, 46)),)
        d = DrawStmt(SEM, shape, pos, geom)
        assert (execute_block(d) == brute_fill(d)).all(), d


@pytest.mark.parametrize("dims", [(32, 32, 32), (20, 12, 40)])
def test_long_lines_and_tall_tilts_match_brute_force_oracle(dims):
    """Lines longer than the grid (whose steps are narrowed to the grid)
    and tilted cuboids taller than it, mostly partly out of bounds."""
    rng = np.random.default_rng(sum(dims))
    for _ in range(150):
        p0 = tuple(int(v) for v in rng.integers(-150, 190, 3))
        p1 = tuple(int(v) for v in rng.integers(-150, 190, 3))
        d = DrawStmt(SEM, ShapeKind.LINE, p0, p1)
        assert (execute_block(d, dims) == brute_fill(d, dims)).all(), d
    hits = 0
    for _ in range(150):
        pos = tuple(int(v) for v in rng.integers((-20, -100, -4), (30, 30, 30)))
        geom = (int(rng.integers(1, 120)), int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                int(rng.choice([-1, 1])) * int(rng.integers(1, 46)))
        d = DrawStmt(SEM, ShapeKind.CUBOID, pos, geom)
        g = execute_block(d, dims)
        hits += bool(g.any())
        assert (g == brute_fill(d, dims)).all(), d
    assert hits > 20


@pytest.mark.parametrize("pos", [(12, 0, 3), (20, -6, 28)])
def test_every_integer_tilt_matches_brute_force_oracle(pos):
    """Row shifts are rounded with round(); the oracle uses np.rint."""
    for ang in range(-45, 46):
        d = DrawStmt(SEM, ShapeKind.CUBOID, pos, (36, 3, 5, ang))
        assert (execute_block(d) == brute_fill(d)).all(), ang


def test_huge_line_renders_in_bounded_time():
    far = 10 ** 12
    start = time.perf_counter()
    g = execute_block(DrawStmt(SEM, ShapeKind.LINE, (0, 0, 0), (far, 0, 0)))
    # a diagonal crossing the grid from far outside on both ends
    h = execute_block(DrawStmt(SEM, ShapeKind.LINE, (-far, -far + 16, 5), (far, far + 16, 5)))
    assert time.perf_counter() - start < 1.0
    assert g[:, 0, 0].all() and int(g.sum()) == 32
    expect = empty_grid()
    expect[np.arange(16), np.arange(16) + 16, 5] = True
    assert (h == expect).all()


def test_tall_tilted_cuboid_renders_in_bounded_time():
    tall, slope = 10 ** 8, math.tan(math.radians(10))
    # the rows that land at y = 0..5 sit near x = 4
    px = 4 - int(np.rint(tall * slope))
    start = time.perf_counter()
    g = execute_block(DrawStmt(SEM, ShapeKind.CUBOID, (4, 0, 4), (tall, 3, 5, 10)))
    below = execute_block(DrawStmt(SEM, ShapeKind.CUBOID, (px, -tall, 4), (tall + 6, 3, 5, 10)))
    assert time.perf_counter() - start < 1.0
    assert (g == execute_block(DrawStmt(SEM, ShapeKind.CUBOID, (4, 0, 4), (32, 3, 5, 10)))).all()
    expect = empty_grid()
    for y in range(6):
        x = px + int(np.rint((tall + y) * slope))
        expect[max(x, 0):x + 3, y, 4:9] = True
    assert expect.any() and (below == expect).all()


def random_box_draw(rng, dims):
    """A Cub (tilted half the time), Rect or Sqr, from below the grid to above
    it in y and partly outside it in x and z."""
    shape = (ShapeKind.CUBOID, ShapeKind.RECTANGLE, ShapeKind.SQUARE)[int(rng.integers(3))]
    pos = tuple(int(v) for v in rng.integers((-8, -60, -8), np.add(dims, 8)))
    if shape is ShapeKind.SQUARE:
        geom = (int(rng.integers(1, 70)), int(rng.integers(0, 8)))
    else:
        geom = (int(rng.integers(1, 70)), int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        if shape is ShapeKind.CUBOID and rng.random() < 0.5:
            geom += (int(rng.choice([-1, 1])) * int(rng.integers(1, 46)),)
    return DrawStmt(SEM, shape, pos, geom)


def overlap(a, b):
    return all(a[i] < b[i + 3] and b[i] < a[i + 3] for i in range(3))


@pytest.mark.parametrize("dims", [(32, 32, 32), (20, 12, 40), (9, 50, 7)])
def test_draw_boxes_are_disjoint_and_fill_the_draw(dims):
    """Given the grid height, a box draw's boxes are pairwise disjoint and
    their union, clipped to the grid, is the draw's voxels."""
    rng = np.random.default_rng(sum(dims))
    runs = 0
    for _ in range(300):
        d = random_box_draw(rng, dims)
        boxes = draw_boxes(d.shape, d.position, d.geometry, dims[1])
        assert not any(overlap(a, b) for a, b in itertools.combinations(boxes, 2)), d
        got = np.zeros(dims, dtype=bool)
        for x0, y0, z0, x1, y1, z1 in boxes:
            got[max(x0, 0):max(x1, 0), max(y0, 0):max(y1, 0), max(z0, 0):max(z1, 0)] = True
        assert (got == brute_fill(d, dims)).all(), d
        runs += len(boxes) > 1
    assert runs > 20


def test_draw_boxes_without_the_grid_height():
    """With no height, a draw of one run gives its unclipped box and a tilt
    of several runs gives None, as do lines and cylinders."""
    for pos in ((4, 0, 4), (4, -40, 4), (4, 50, 4)):
        x, y, z = pos
        assert draw_boxes(ShapeKind.CUBOID, pos, (6, 3, 5), None) == ((x, y, z, x + 3, y + 6, z + 5),)
        # rows 0..2 of a 10 degree tilt all shift by 0; row 3 shifts by 1
        assert draw_boxes(ShapeKind.CUBOID, pos, (3, 3, 5, 10), None) == (
            (x, y, z, x + 3, y + 3, z + 5),)
        assert draw_boxes(ShapeKind.CUBOID, pos, (4, 3, 5, 10), None) is None
        assert draw_boxes(ShapeKind.CUBOID, pos, (4, 3, 5, -10), None) is None
        assert draw_boxes(ShapeKind.SQUARE, pos, (6, 2), None) == (
            (x - 2, y, z - 2, x + 3, y + 6, z + 3),)
        assert draw_boxes(ShapeKind.CYLINDER, pos, (6, 2), None) is None
        assert draw_boxes(ShapeKind.LINE, pos, (9, 9, 9), None) is None
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = random_box_draw(rng, DEFAULT_DIMS)
        if d.shape is not ShapeKind.CUBOID:
            continue
        (x, y, z), (t, r1, r2, *tilt) = d.position, d.geometry
        slope = math.tan(math.radians(tilt[0])) if tilt else 0
        shifted = any(np.rint(k * slope) for k in range(t))
        expect = None if shifted else ((x, y, z, x + r1, y + t, z + r2),)
        assert draw_boxes(d.shape, d.position, d.geometry, None) == expect, d


def disk_column_formula(grid, px, py, pz, t, r):
    """The disc column computed over its clipped window, with no stencil."""
    dx, dy, dz = grid.shape
    y0, y1 = max(py, 0), min(py + t, dy)
    x0, x1 = max(px - r, 0), min(px + r + 1, dx)
    z0, z1 = max(pz - r, 0), min(pz + r + 1, dz)
    if y0 >= y1 or x0 >= x1 or z0 >= z1:
        return
    xs = np.arange(x0, x1)
    zs = np.arange(z0, z1)
    mask = (xs[:, None] - px) ** 2 + (zs[None, :] - pz) ** 2 <= r * r
    grid[x0:x1, y0:y1, z0:z1] |= mask[:, None, :]


@pytest.mark.parametrize("dims", [(32, 32, 32), (16, 64, 16)])
def test_disk_column_stencils_match_formula(dims):
    """Every center from fully outside one side to fully outside the other,
    per radius, with the column clipped in y at both ends; then columns
    above the grid, and a radius past the cached stencils."""
    dx, dy, dz = dims
    cases = [(r, px, -2, pz, dy + 4) for r in range(17)
             for px in range(-r - 2, dx + r + 2) for pz in range(-r - 2, dz + r + 2)]
    cases += [(r, dx // 2, dy, dz // 2, 3) for r in range(17)]
    r = _STENCIL_MAX_RADIUS + 1
    cases += [(r, px, 0, pz, 5) for px in (-r - 1, -r + 3, dx // 2, dx + r - 3, dx + r)
              for pz in (-r - 1, -r + 3, dz // 2, dz + r - 3, dz + r)]
    filled = 0
    for r, px, py, pz, t in cases:
        got, want = empty_grid(dims), empty_grid(dims)
        _fill_disk_column(got, px, py, pz, t, r)
        disk_column_formula(want, px, py, pz, t, r)
        assert (got == want).all(), (r, px, py, pz)
        filled += bool(want.any())
    assert filled > 1000


def test_clipping_fully_outside_is_empty():
    d = DrawStmt(SEM, ShapeKind.CUBOID, (40, 40, 40), (3, 3, 3))
    assert not execute_block(d).any()


def test_unroll_single_iteration_identity():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (4, 0, 4), (18, 2))
    f = ForStmt.translation(1, (5, 5, 5), (d,))
    assert unroll_for(f) == [d]


def test_unroll_translation_offsets():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (4, 0, 4), (18, 2))
    f = ForStmt.translation(4, (0, 0, 6), (d,))
    out = unroll_for(f)
    assert [s.position for s in out] == [(4, 0, 4), (4, 0, 10), (4, 0, 16), (4, 0, 22)]
    assert all(s.geometry == (18, 2) for s in out)


def test_unroll_translation_moves_line_endpoint():
    d = DrawStmt(SEM, ShapeKind.LINE, (1, 2, 3), (4, 5, 6))
    f = ForStmt.translation(2, (10, 0, -1), (d,))
    out = unroll_for(f)
    assert out[1].position == (11, 2, 2)
    assert out[1].geometry == (14, 5, 5)


def rotate_oracle(p, k_theta_deg, axis, dims=DEFAULT_DIMS):
    """Rotate a point about the grid-center axis with a plain 2x2 matrix.

    Pair order matches the executor's convention: (x,z) for axis Y,
    (y,z) for X, (x,y) for Z, counterclockwise in each plane.
    """
    rad = math.radians(k_theta_deg)
    c, s = math.cos(rad), math.sin(rad)

    def rot(a, b, ca, cb):
        da, db = a - ca, b - cb
        return (int(np.rint(ca + c * da - s * db)),
                int(np.rint(cb + s * da + c * db)))

    x, y, z = p
    cx, cy, cz = ((dims[0] - 1) / 2, (dims[1] - 1) / 2, (dims[2] - 1) / 2)
    if axis is Axis.Y:
        nx, nz = rot(x, z, cx, cz)
        return (nx, y, nz)
    if axis is Axis.X:
        ny, nz = rot(y, z, cy, cz)
        return (x, ny, nz)
    nx, ny = rot(x, y, cx, cy)
    return (nx, ny, z)


# Every rotation the fit search executes: copy k of a loop of ``times``
# copies, turned by 360 // times degrees or by refinement's 5-degree steps
# from there (``times`` in 2..16, the angle in [-355, 355]).
SEARCH_ANGLES = sorted({k * a for base in (180, 120, 90, 72)
                        for a in range(base % 5 - 355, 356, 5) for k in range(16)})


@pytest.mark.parametrize("dims", [(32, 32, 32), (31, 33, 29)])
def test_rotate_point_matches_rint_reference(dims):
    """Snapping uses round(); the reference uses np.rint. Even dims put the
    centre on a half-integer, odd dims on an integer."""
    xs = sorted({0, 1, (dims[0] - 1) // 2, dims[0] // 2, dims[0] - 1})
    zs = sorted({0, 2, (dims[2] - 1) // 2, dims[2] // 2, dims[2] - 1})
    for ang in SEARCH_ANGLES:
        for x in xs:
            for z in zs:
                p = (x, 5, z)
                assert _rotate_point(p, ang, Axis.Y, dims) == rotate_oracle(p, ang, Axis.Y, dims)


def test_unroll_rotation_orbit():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (4, 0, 16), (18, 2))
    f = ForStmt.rotation(4, 90, Axis.Y, (d,))
    out = unroll_for(f)
    assert out[0].position == (4, 0, 16)
    expected = {rotate_oracle((4, 0, 16), 90 * k, Axis.Y) for k in range(4)}
    assert {s.position for s in out} == expected


def test_unroll_rotation_cumulative_from_original():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (4, 0, 16), (18, 2))
    out = unroll_for(ForStmt.rotation(5, 72, Axis.Y, (d,)))
    for k, s in enumerate(out):
        assert s.position == rotate_oracle((4, 0, 16), 72 * k, Axis.Y), k


def test_rotation_orbit_closure():
    d = DrawStmt(SEM, ShapeKind.CYLINDER, (4, 0, 16), (18, 2))
    out = unroll_for(ForStmt.rotation(4, 90, Axis.Y, (d,)))
    orbit = sorted(s.position for s in out)
    stepped = sorted(rotate_oracle(p, 90, Axis.Y) for p in orbit)
    assert stepped == orbit


def test_unroll_rotation_moves_line_endpoint():
    d = DrawStmt(SEM, ShapeKind.LINE, (4, 0, 16), (8, 0, 16))
    out = unroll_for(ForStmt.rotation(2, 180, Axis.Y, (d,)))
    assert out[1].position == rotate_oracle((4, 0, 16), 180, Axis.Y)
    assert out[1].geometry == rotate_oracle((8, 0, 16), 180, Axis.Y)


def test_unroll_nested_inner_first():
    d = DrawStmt(SEM, ShapeKind.CUBOID, (9, 0, 9), (20, 2, 2))
    inner = ForStmt.translation(2, (0, 0, 12), (d,))
    outer = ForStmt.translation(2, (12, 0, 0), (inner,))
    out = unroll_for(outer)
    assert [s.position for s in out] == [
        (9, 0, 9), (9, 0, 21), (21, 0, 9), (21, 0, 21)]


def test_unroll_budget_error():
    d = DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1))
    f = ForStmt.translation(16, (1, 0, 0),
                            (ForStmt.translation(16, (0, 1, 0), (d,)),))
    with pytest.raises(BudgetError):
        unroll_for(f, limits=Limits(max_expanded=100))


def test_execute_block_union_of_unroll():
    for seed in range(60):
        p = random_program(seed)
        for stmt in p.statements:
            if isinstance(stmt, ForStmt):
                expect = empty_grid()
                for d in unroll_for(stmt):
                    expect |= execute_block(d)
                assert (execute_block(stmt) == expect).all()


@pytest.mark.parametrize("loop", [
    ForStmt.rotation(6, 60, Axis.Y, (DrawStmt(SEM, ShapeKind.LINE, (3, 2, 16), (12, 9, 20)),)),
    ForStmt.rotation(3, 45, Axis.Z, (DrawStmt(SEM, ShapeKind.LINE, (5, 30, 1), (5, 1, 30)),)),
    ForStmt.translation(3, (6, 0, 2), (DrawStmt(SEM, ShapeKind.CUBOID, (1, 0, 3),
                                                (9, 3, 4, 30)),)),
    ForStmt.rotation(4, 90, Axis.X, (DrawStmt(SEM, ShapeKind.CUBOID, (10, 4, 6),
                                              (7, 2, 5, -20)),)),
    ForStmt.translation(2, (0, 9, 0), (ForStmt.translation(2, (0, 0, 11), (
        ForStmt.rotation(3, 120, Axis.Y, (
            DrawStmt(SEM, ShapeKind.CYLINDER, (6, 0, 8), (4, 2)),
            DrawStmt(SEM, ShapeKind.LINE, (6, 4, 8), (9, 7, 8)))),)),)),
    ForStmt.translation(4, (12, 0, -9), (
        DrawStmt(SEM, ShapeKind.SQUARE, (20, 5, 20), (3, 4)),
        DrawStmt(SEM, ShapeKind.LINE, (25, 0, 25), (31, 6, 31)),
        DrawStmt(SEM, ShapeKind.RECTANGLE, (28, 28, 2), (6, 8, 8)))),
], ids=["rot-line-y", "rot-line-z", "trans-tilted-cuboid", "rot-tilted-cuboid",
        "nested-3-deep", "trans-partly-out-of-bounds"])
def test_execute_block_union_of_render_draw(loop):
    """A loop draws the union of its unrolled draws, each executed alone."""
    expect = empty_grid()
    for d in unroll_for(loop):
        expect |= execute_block(d)
    assert expect.any()
    assert (execute_block(loop) == expect).all()


def test_execute_block_budget_error():
    d = DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1))
    f = ForStmt.translation(40, (1, 0, 0), (ForStmt.translation(40, (0, 1, 0), (d,)),))
    with pytest.raises(BudgetError):
        execute_block(f)


MALFORMED_LOOPS = [
    ForStmt.translation(2, (0, 0, 0), ("x",)),
    ForStmt.translation("3", (1, 0, 0), (DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),)),
    ForStmt.translation(2.5, (1, 0, 0), (DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),)),
    ForStmt.translation(2, (0, 5, 0), (ForStmt.rotation(2.5, 90, Axis.Y, (
        DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),)),)),
]


@pytest.mark.parametrize("loop", MALFORMED_LOOPS, ids=["non-statement", "str-times",
                                                        "float-times", "nested-float-times"])
@pytest.mark.parametrize("run", [execute_block, lambda f: execute_program(Program((f,))),
                                 unroll_for], ids=["execute_block", "execute_program",
                                                   "unroll_for"])
def test_malformed_loops_raise_invalid_program_error(loop, run):
    with pytest.raises(InvalidProgramError) as exc:
        run(loop)
    assert not exc.value.report.ok


CUB = DrawStmt(SEM, ShapeKind.CUBOID, (2, 0, 2), (3, 4, 5))
# statements that only fail once drawn: a two-entry step, a Cub with two
# geometry entries, a rotation by a string angle and a loop of no known mode
UNDRAWABLE = [
    ForStmt.translation(2, (0, 0), (CUB,)),
    DrawStmt(SEM, ShapeKind.CUBOID, (2, 0, 2), (3, 4)),
    ForStmt.rotation(2, "9", Axis.Y, (CUB,)),
    ForStmt("spin", 2, (CUB,)),
]


@pytest.mark.parametrize("stmt", UNDRAWABLE,
                         ids=["two-entry-step", "two-entry-cub", "str-angle", "unknown-mode"])
@pytest.mark.parametrize("run", [execute_block, lambda s: execute_program(Program((s,)))],
                         ids=["execute_block", "execute_program"])
def test_undrawable_statements_raise_invalid_program_error(stmt, run):
    with pytest.raises(InvalidProgramError) as exc:
        run(stmt)
    assert exc.value.report == validate_program(Program((stmt,)), Limits.for_dims(DEFAULT_DIMS))


def test_unroll_for_refuses_a_draw():
    with pytest.raises(InvalidProgramError) as exc:
        unroll_for(CUB)
    assert [v.path for v in exc.value.report.violations] == ["stmt[0]"]


def test_valid_program_failing_to_draw_keeps_its_error(monkeypatch):
    """A program that validates but still fails inside the draw is a bug in
    the executor, not bad input, so its error is not relabelled."""
    def fail(*args):
        raise ValueError("drawing failed")

    monkeypatch.setattr(executor, "_copies", fail)
    loop = ForStmt.translation(2, (1, 0, 0), (CUB,))
    for run in (execute_block, lambda s: execute_program(Program((s,))), unroll_for):
        with pytest.raises(ValueError, match="drawing failed"):
            run(loop)


def test_execute_program_block_composition():
    for seed in range(150):
        p = random_program(seed)
        for dims in (DEFAULT_DIMS, (20, 40, 12)):
            expect = empty_grid(dims)
            for stmt in p.statements:
                expect |= execute_block(stmt, dims)
            assert (execute_program(p, dims) == expect).all()


def test_execute_empty_program():
    assert not execute_program(Program(())).any()


def test_block_order_irrelevant():
    p = random_program(17)
    q = Program(tuple(reversed(p.statements)))
    assert (execute_program(p) == execute_program(q)).all()


def test_determinism_bit_exact():
    for seed in (0, 9, 23):
        p = random_program(seed)
        a = execute_program(p)
        b = execute_program(p)
        assert a.dtype == np.bool_ and (a == b).all()


def test_custom_dims():
    d = DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (2, 2, 2))
    g = execute_program(Program((d,)), (8, 10, 12))
    assert g.shape == (8, 10, 12)
    assert int(g.sum()) == 8


def extent_reference(shape, position, geometry):
    """Box and voxel bound of one draw, computed per draw with np.rint."""
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
            shift = int(np.rint((t - 1) * math.tan(math.radians(geometry[3]))))
            x0, x1 = x0 + min(shift, 0), x1 + max(shift, 0)
        return (x0, py, pz), (x1, py + t, pz + r2), max(t, 0) * max(r1, 0) * max(r2, 0)
    r = geometry[1]
    w = max(2 * r + 1, 0)
    return (px - r, py, pz - r), (px + r + 1, py + t, pz + r + 1), max(t, 0) * w * w


coord = st.integers(-60, 90)
size = st.integers(-4, 60)


@st.composite
def draw_tuples(draw):
    shape = draw(st.sampled_from(list(ShapeKind)))
    pos = draw(st.tuples(coord, coord, coord))
    if shape is ShapeKind.LINE:
        geom = draw(st.tuples(coord, coord, coord))
    elif shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
        geom = draw(st.tuples(size, st.integers(-4, 20)))
    else:
        geom = draw(st.tuples(size, size, size))
        if shape is ShapeKind.CUBOID and draw(st.booleans()):
            geom += (draw(st.integers(-45, 45)),)
    return shape, pos, geom


@settings(max_examples=300)
@given(st.lists(draw_tuples(), min_size=1, max_size=8))
def test_draw_extents_match_scalar_reference(draws):
    lo, hi, volume = draw_extents(np.array([SHAPES.index(s) for s, _, _ in draws]),
                                  np.array([p for _, p, _ in draws]),
                                  np.array([(g + (0,) * 4)[:4] for _, _, g in draws]))
    expect = [extent_reference(*d) for d in draws]
    assert lo.tolist() == [list(e[0]) for e in expect]
    assert hi.tolist() == [list(e[1]) for e in expect]
    assert volume.tolist() == [e[2] for e in expect]
    for (shape, pos, geom), (elo, ehi, _) in zip(draws, expect):
        if shape is not ShapeKind.LINE:
            assert tuple(p + v for p, v in zip(pos * 2, _extent(shape, geom))) == elo + ehi


@pytest.mark.parametrize("dims", [
    (4, 4), (4, 4, 4, 4), (-4, 4, 4), (4, 0, -1), (4.0, 4, 4), ("4", 4, 4), None, 4,
    (4096,) * 3,  # 64 GiB: refused before anything is allocated
    (MAX_GRID_VOXELS + 1, 1, 1),
])
def test_bad_dims_raise_input_error(dims):
    draw = DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1))
    for make in (empty_grid, lambda d: execute_program(Program((draw,)), d),
                 lambda d: execute_block(draw, d)):
        with pytest.raises(InputError):
            make(dims)


def test_grid_dims_accept_zero_and_the_voxel_limit():
    assert empty_grid((0, 5, 0)).shape == (0, 5, 0)
    assert empty_grid(np.array([2, 3, 4])).shape == (2, 3, 4)
    assert execute_block(DrawStmt(SEM, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),
                         (MAX_GRID_VOXELS, 1, 1)).sum() == 1
