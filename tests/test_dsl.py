"""AST construction, canonicalization, and program validation."""
import numpy as np
import pytest

from voxscript.dsl import (Axis, DEFAULT_LIMITS, DrawStmt, ForStmt, GEOMETRY_ARITY,
                           Limits, LoopMode, Program, Semantics, ShapeKind, validate_program)
from voxscript.dsl.ast import canon_number
from voxscript.errors import InputError

from randprog import random_program


def leg(pos=(4, 0, 4), geom=(18, 2)):
    return DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, pos, geom)


def test_enum_sizes():
    assert len(Semantics) == 12
    assert len(ShapeKind) == 6
    assert [s.value for s in Semantics] == [
        "Leg", "Top", "Layer", "Support", "Base", "Sideboard",
        "HBar", "VBoard", "Locker", "Back", "BackSup", "Beam"]
    assert [s.value for s in ShapeKind] == ["Cub", "Cyl", "Cir", "Sqr", "Rect", "Line"]


def test_geometry_arity_table():
    assert GEOMETRY_ARITY[ShapeKind.CUBOID] == (3, 4)
    assert GEOMETRY_ARITY[ShapeKind.RECTANGLE] == (3, 3)
    for k in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
        assert GEOMETRY_ARITY[k] == (2, 2)
    assert GEOMETRY_ARITY[ShapeKind.LINE] == (3, 3)


def test_draw_canonicalizes_numbers():
    d = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8.0, 20.0, 8.0), (2.0, 16.0, 16.0))
    assert d.position == (8, 20, 8)
    assert all(isinstance(v, int) for v in d.position)
    assert d.geometry == (2, 16, 16)


@pytest.mark.parametrize("values", [
    (8, 20, 8), (8, 20, 8.0), [8, 20, 8], [8.0, 20, 8.5], (True, 2, 3),
    (np.int64(4), 2, 3), (4, 2, np.float64(3.0)), (), (1e300, -0.0, 2.5),
])
def test_draw_canonicalizes_each_number_alone(values):
    d = DrawStmt(Semantics.LEG, ShapeKind.LINE, values, values)
    want = tuple(canon_number(v) for v in values)
    for got in (d.position, d.geometry):
        assert type(got) is tuple
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def test_cuboid_zero_tilt_dropped():
    d = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (0, 0, 0), (2, 3, 4, 0))
    assert d.geometry == (2, 3, 4)
    d = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (0, 0, 0), (2, 3, 4, -10))
    assert d.geometry == (2, 3, 4, -10)


def test_for_constructors():
    f = ForStmt.translation(4, (0, 0, 6), (leg(),))
    assert f.mode is LoopMode.TRANSLATION and f.times == 4 and f.step == (0, 0, 6)
    g = ForStmt.rotation(4, 90, Axis.Y, (leg(),))
    assert g.mode is LoopMode.ROTATION and g.angle == 90 and g.axis is Axis.Y


def test_validate_ok_program():
    p = Program((leg(), ForStmt.rotation(4, 90, Axis.Y, (leg(),))))
    assert validate_program(p).violations == ()


def test_validate_position_out_of_range():
    p = Program((leg(pos=(32, 0, 4)),))
    report = validate_program(p)
    assert report.violations
    assert report.violations[0].path == "stmt[0]"


def test_validate_extent_bounds():
    assert validate_program(Program((leg(geom=(0, 2)),))).violations
    assert validate_program(Program((leg(geom=(33, 2)),))).violations
    assert not validate_program(Program((leg(geom=(32, 2)),))).violations


def test_validate_tilt_range():
    bad = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (0, 0, 0), (2, 3, 4, 46))
    assert validate_program(Program((bad,))).violations
    ok = DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (0, 0, 0), (2, 3, 4, 45))
    assert not validate_program(Program((ok,))).violations


def test_validate_times_minimum():
    f = ForStmt.translation(1, (0, 0, 6), (leg(),))
    report = validate_program(Program((f,)))
    assert any("times" in v.message for v in report.violations)


def test_validate_nesting_depth():
    f = leg()
    for _ in range(4):
        f = ForStmt.translation(2, (0, 0, 1), (f,))
    assert validate_program(Program((f,))).violations
    f = leg()
    for _ in range(3):
        f = ForStmt.translation(2, (0, 0, 1), (f,))
    assert not validate_program(Program((f,))).violations


def test_validate_top_level_count():
    p = Program(tuple(leg() for _ in range(33)))
    assert validate_program(p).violations
    p = Program(tuple(leg() for _ in range(32)))
    assert not validate_program(p).violations


def test_validate_expansion_budget():
    # 16 * 16 * 16 = 4096 expanded draws > 1024
    inner = ForStmt.translation(16, (0, 0, 1), (leg(),))
    mid = ForStmt.translation(16, (0, 1, 0), (inner,))
    outer = ForStmt.translation(16, (1, 0, 0), (mid,))
    report = validate_program(Program((outer,)))
    assert any("expan" in v.message.lower() for v in report.violations)


ANGLE_FAULT = "rotation angle k * angle must be a finite float for every copy k < times"


@pytest.mark.parametrize("times, angle", [
    (2, float("nan")), (2, float("inf")), (2, -float("inf")), (1, float("nan")),
    ("3", float("inf")),
    (3, 9 * 10 ** 307),  # copy 2 turns by 1.8e308 degrees, past the largest float
    (3, 1e308), (10 ** 400, 1), (2, 10 ** 400),
])
def test_validate_refuses_rotation_angles_no_copy_can_turn_by(times, angle):
    """A rotation whose angle, or some copy's k * angle, is not a finite float
    is refused, and checking never raises, even on an int of 401 digits."""
    f = ForStmt.rotation(times, angle, Axis.Y, (leg(),))
    assert ANGLE_FAULT in [v.message for v in validate_program(Program((f,))).violations]


@pytest.mark.parametrize("times, angle", [(2, 9 * 10 ** 307), (3, 8 * 10 ** 307), (16, -355),
                                          (5, 72.5), (2, 1e308)])
def test_validate_takes_rotation_angles_every_copy_can_turn_by(times, angle):
    f = ForStmt.rotation(times, angle, Axis.Y, (leg(),))
    assert validate_program(Program((f,))).ok


@pytest.mark.parametrize("inner, message", [
    ("x", "not a statement: 'x'"),
    (ForStmt.translation("7", (1, 0, 0), (leg(),)), "times must be an integer >= 2, got '7'"),
    (ForStmt.translation(None, (1, 0, 0), (leg(),)), "times must be an integer >= 2, got None"),
])
def test_validate_reports_malformed_loop_bodies(inner, message):
    """A loop whose expanded size is undefined below it is reported, not raised on."""
    for outer in (ForStmt.translation(2, (0, 0, 0), (inner,)),
                  ForStmt.rotation(3, 30, Axis.Y, (leg(), ForStmt.translation(2, (1, 0, 0),
                                                                              (inner,))))):
        report = validate_program(Program((outer,)))
        assert not report.ok
        assert [v.message for v in report.violations] == [message]


def test_violation_paths_nested():
    bad = leg(pos=(0, -1, 0))
    f = ForStmt.translation(2, (0, 0, 1), (leg(), bad))
    report = validate_program(Program((leg(), f)))
    assert any(v.path == "stmt[1].body[1]" for v in report.violations)


def test_limits_defaults():
    assert DEFAULT_LIMITS == Limits(max_top_level=32, max_expanded=1024,
                                    max_for_depth=3, max_coord=31,
                                    max_extent=32, max_tilt=45.0)


def test_limits_for_dims():
    assert Limits.for_dims((32, 32, 32)) == DEFAULT_LIMITS
    assert Limits.for_dims((16, 64, 16)) == Limits(max_coord=63, max_extent=64)


def test_limits_for_empty_dims_raise_input_error():
    with pytest.raises(InputError, match="three ints"):
        Limits.for_dims(())


@pytest.mark.parametrize("dims", ["abc", (32, 32.0, 32), (32, None, 32), 32])
def test_limits_for_dims_that_are_not_ints_raise_input_error(dims):
    with pytest.raises(InputError, match="ints"):
        Limits.for_dims(dims)


@pytest.mark.parametrize("mode", ["translation", "rotation"])
def test_validate_reports_loops_too_large_to_print(mode):
    """An expanded size past the digits ``str`` prints is reported, not raised."""
    times = 10 ** 5000
    loop = (ForStmt.translation(times, (1, 0, 0), (leg(),)) if mode == "translation"
            else ForStmt.rotation(times, 90, Axis.Y, (leg(),)))
    report = validate_program(Program((loop,)))
    assert not report.ok
    assert any("loop expands to over 10^4999 primitives" in v.message for v in report.violations)


def test_custom_limits():
    p = Program(tuple(leg() for _ in range(5)))
    assert validate_program(p, Limits(max_top_level=4)).violations


def test_random_programs_validate():
    for seed in range(50):
        random_program(seed)  # asserts internally


def test_statements_hashable_and_equal():
    assert leg() == leg()
    assert len({leg(), leg()}) == 1
    f1 = ForStmt.rotation(4, 90, Axis.Y, (leg(),))
    f2 = ForStmt.rotation(4, 90, Axis.Y, (leg(),))
    assert f1 == f2 and hash(f1) == hash(f2)
