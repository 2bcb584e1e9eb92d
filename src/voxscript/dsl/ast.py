"""Statement types for the voxel drawing language.

A program is an ordered list of statements. A ``draw`` statement places one
labeled primitive; a ``for`` statement repeats a sub-program under a
per-iteration translation or rotation. Values are immutable; every operation
over them is a pure function.
"""
from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from ..errors import InputError


# The enums below hash by identity: their members are singletons, and the
# search hashes tuples holding them often enough that the Python-level
# ``Enum.__hash__`` (a hash of the member's name) shows in fit time.
class Semantics(enum.Enum):
    """Part label attached to a drawn primitive.

    TOP covers seat and table tops, HBAR horizontal bars, VBOARD vertical
    boards such as arm panels, BACKSUP back-support posts, BEAM armrest
    beams. The label never changes the geometry a statement produces.
    """

    LEG = "Leg"
    TOP = "Top"
    LAYER = "Layer"
    SUPPORT = "Support"
    BASE = "Base"
    SIDEBOARD = "Sideboard"
    HBAR = "HBar"
    VBOARD = "VBoard"
    LOCKER = "Locker"
    BACK = "Back"
    BACKSUP = "BackSup"
    BEAM = "Beam"

    __hash__ = object.__hash__


class ShapeKind(enum.Enum):
    CUBOID = "Cub"
    CYLINDER = "Cyl"
    CIRCLE = "Cir"
    SQUARE = "Sqr"
    RECTANGLE = "Rect"
    LINE = "Line"

    __hash__ = object.__hash__


class LoopMode(enum.Enum):
    TRANSLATION = "Trans"
    ROTATION = "Rot"

    __hash__ = object.__hash__


class Axis(enum.Enum):
    X = "X"
    Y = "Y"
    Z = "Z"

    __hash__ = object.__hash__


# (min arity, max arity) of the geometry tuple per shape kind.
GEOMETRY_ARITY = {
    ShapeKind.CUBOID: (3, 4),
    ShapeKind.CYLINDER: (2, 2),
    ShapeKind.CIRCLE: (2, 2),
    ShapeKind.SQUARE: (2, 2),
    ShapeKind.RECTANGLE: (3, 3),
    ShapeKind.LINE: (3, 3),
}


def canon_number(v):
    """Collapse integral floats to int so equal programs compare equal."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


_INT_TYPE = frozenset((int,))


def canon_numbers(values) -> tuple:
    """canon_number over ``values`` as a tuple; a tuple of plain ints, the
    common case, is returned as it is."""
    if values.__class__ is tuple and _INT_TYPE.issuperset(map(type, values)):
        return values
    return tuple(canon_number(v) for v in values)


def format_number(v) -> str:
    """Render a numeric argument: integers bare, other floats positionally
    with the digits of their shortest repr (1e-05 prints as 0.00001)."""
    v = canon_number(v)
    if isinstance(v, int):
        return str(v)
    text = repr(float(v))
    return format(Decimal(text), "f") if "e" in text else text


# What format_number writes for a finite number: ASCII digits after an
# optional minus, and for a non-integral float a point and more digits.
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def parse_number(text: str):
    """Inverse of format_number: an int, or a float for text with a point.

    Anything else raises ValueError: other digits, underscores, exponents,
    ``inf``/``nan``, and decimals too large to be a finite float."""
    if text.isascii() and text.isdigit():  # the common case, without the regex
        return int(text)
    m = _DECIMAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a decimal number: {text!r}")
    if m.group(1) is None:
        return int(text)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


@dataclass(frozen=True)
class DrawStmt:
    """One primitive: a part label, a shape kind, a position, and geometry.

    Geometry layout by kind: Cub (t, r1, r2[, ang]), Rect (t, r1, r2),
    Cyl/Cir/Sqr (t, r), Line (x2, y2, z2). A Cub tilt angle of exactly 0 is
    stored by omission so structurally equal programs have one spelling.
    """

    semantics: Semantics
    shape: ShapeKind
    position: tuple
    geometry: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", canon_numbers(self.position))
        geom = canon_numbers(self.geometry)
        if self.shape is ShapeKind.CUBOID and len(geom) == 4 and geom[3] == 0:
            geom = geom[:3]
        object.__setattr__(self, "geometry", geom)


@dataclass(frozen=True)
class ForStmt:
    """Repeat ``body`` ``times`` times, translating or rotating per iteration.

    Translation carries an integer step triple; rotation carries a per-step
    angle in degrees and an axis through the grid center. Only the fields of
    the active mode are populated.
    """

    mode: LoopMode
    times: int
    body: tuple
    step: tuple | None = None
    angle: float | None = None
    axis: Axis | None = None

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if self.step is not None:
            object.__setattr__(self, "step", canon_numbers(self.step))
        if self.angle is not None:
            object.__setattr__(self, "angle", canon_number(self.angle))

    @classmethod
    def translation(cls, times, step, body):
        return cls(mode=LoopMode.TRANSLATION, times=times, step=tuple(step), body=tuple(body))

    @classmethod
    def rotation(cls, times, angle, axis, body):
        return cls(mode=LoopMode.ROTATION, times=times, angle=angle, axis=axis, body=tuple(body))


Statement = Union[DrawStmt, ForStmt]


@dataclass(frozen=True)
class Program:
    statements: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "statements", tuple(self.statements))


# Largest grid any entry point accepts, 16 MiB of bools; the fit search packs
# two voxel counts into the 32-bit halves of an int64, which needs < 2^31.
MAX_GRID_VOXELS = 2 ** 24


def check_dims(dims) -> tuple:
    """``dims`` as a tuple (x, y, z) of ints: the one rule for grid dims.
    Anything but three ints >= 0 holding at most ``MAX_GRID_VOXELS`` voxels
    raises InputError, before anything is allocated."""
    try:
        x, y, z = map(operator.index, dims)
    except (TypeError, ValueError):
        raise InputError(f"grid dims must be three ints, got {_show(dims)}") from None
    if min(x, y, z) < 0 or x * y * z > MAX_GRID_VOXELS:
        raise InputError(f"grid dims {_show((x, y, z))} must be >= 0 and hold at most"
                         f" {MAX_GRID_VOXELS} voxels")
    return x, y, z


@dataclass(frozen=True)
class Limits:
    """Validation budgets, overridable per call. The overrides bind
    validation only: the executor refuses a loop of more than the class's
    ``max_expanded`` copies (1024) whatever limits a program validated
    under."""

    max_top_level: int = 32
    max_expanded: int = 1024
    max_for_depth: int = 3
    max_coord: int = 31
    max_extent: int = 32
    max_tilt: float = 45.0

    @classmethod
    def for_dims(cls, dims) -> "Limits":
        """Default limits with coordinates and extents spanning a grid of
        ``dims``; equal to ``DEFAULT_LIMITS`` at 32^3. ``dims`` that
        ``check_dims`` refuses raise InputError; a grid with a zero axis
        gives limits under which only the empty program validates."""
        top = max(check_dims(dims))
        return cls(max_coord=top - 1, max_extent=top)


DEFAULT_LIMITS = Limits()

# Loop nesting the decoders accept at all, with or without validation, so
# the recursive printer, validator and executor cannot exhaust the stack.
MAX_NESTING = 64


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


_VALID = ValidationReport(ok=True, violations=())


def expanded_size(stmt: Statement):
    """Number of primitives the statement produces once loops are unrolled,
    or None where that is undefined: a loop's times is not an int or a
    float, or a body holds something that is not a statement."""
    if isinstance(stmt, DrawStmt):
        return 1
    if not isinstance(stmt, ForStmt) or not isinstance(stmt.times, (int, float)):
        return None
    total = 0
    for s in stmt.body:
        n = expanded_size(s)
        if n is None:
            return None
        total += n
    return stmt.times * total


def for_depth(stmt: Statement) -> int:
    """Loop nesting depth: 0 for a draw, 1 + deepest body loop for a for."""
    if isinstance(stmt, DrawStmt):
        return 0
    inner = max((for_depth(s) for s in stmt.body), default=0)
    return 1 + inner


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_faults(values, names, lo, hi, bad):
    for v, name in zip(values, names):
        if not (v.__class__ is int or _is_int(v)):  # a plain int skips the call
            bad.append(f"{name} must be an integer, got {_show(v)}")
        elif not lo <= v <= hi:
            bad.append(f"{name} = {_show(v)} outside [{lo}, {hi}]")


_TRIPLE_NAMES = {what: tuple(f"{what}[{i}]" for i in range(3)) for what in ("position", "endpoint")}


def _triple_faults(values, what, hi, bad):
    if len(values) != 3:
        bad.append(f"{what} must have 3 components, got {len(values)}")
    else:
        _int_faults(values, _TRIPLE_NAMES[what], 0, hi, bad)


def _draw_faults(d: DrawStmt, limits, bad):
    if not isinstance(d.semantics, Semantics):
        bad.append(f"unknown semantics {_show(d.semantics)}")
    if not isinstance(d.shape, ShapeKind):
        bad.append(f"unknown shape kind {_show(d.shape)}")
        return
    _triple_faults(d.position, "position", limits.max_coord, bad)
    lo, hi = GEOMETRY_ARITY[d.shape]
    g = d.geometry
    if not lo <= len(g) <= hi:
        want = str(lo) if lo == hi else f"{lo} or {hi}"
        bad.append(f"{d.shape.value} takes {want} geometry entries, got {len(g)}")
    elif d.shape is ShapeKind.LINE:
        _triple_faults(g, "endpoint", limits.max_coord, bad)
    else:  # (t, r) for a Cyl, Cir or Sqr; (t, r1, r2[, ang]) for a Cub or Rect
        _int_faults(g, ("t", "r") if hi == 2 else ("t", "r1", "r2"), 1, limits.max_extent, bad)
        if len(g) == 4:
            ang = g[3]
            if not isinstance(ang, (int, float)) or isinstance(ang, bool):
                bad.append(f"ang must be a number, got {_show(ang)}")
            elif not -limits.max_tilt <= ang <= limits.max_tilt:
                bad.append(f"ang = {_show(ang)} outside [-{limits.max_tilt}, {limits.max_tilt}]")


def _copy_angles_finite(angle, times) -> bool:
    """Whether each copy k < ``times`` of a rotation turns by a finite float k * ``angle``."""
    try:
        return math.isfinite((times - 1) * angle)  # the last copy turns furthest
    except OverflowError:  # an int past the largest float
        return False


def _loop_faults(f: ForStmt, depth, limits, bad):
    counted = _is_int(f.times) and f.times >= 2
    if not counted:
        bad.append(f"times must be an integer >= 2, got {_show(f.times)}")
    if f.mode is LoopMode.TRANSLATION:
        if f.step is None:
            bad.append("translation loop missing step u")
        elif len(f.step) != 3 or not all(map(_is_int, f.step)):
            bad.append(f"step u must be an integer triple, got {_show(f.step)}")
        if f.angle is not None or f.axis is not None:
            bad.append("translation loop must not carry angle/axis")
    elif f.mode is LoopMode.ROTATION:
        if f.angle is None or not isinstance(f.angle, (int, float)) or isinstance(f.angle, bool):
            bad.append(f"rotation loop needs a numeric angle, got {_show(f.angle)}")
        elif not _copy_angles_finite(f.angle, f.times if counted else 2):
            bad.append("rotation angle k * angle must be a finite float for every copy k < times")
        if not isinstance(f.axis, Axis):
            bad.append(f"rotation loop needs an axis, got {_show(f.axis)}")
        if f.step is not None:
            bad.append("rotation loop must not carry step u")
    else:
        bad.append(f"unknown loop mode {_show(f.mode)}")
    if depth > limits.max_for_depth:
        bad.append(f"loop nesting deeper than {limits.max_for_depth}")
    if not f.body:
        bad.append("loop body is empty")
    elif counted:
        size = expanded_size(f)
        if size is not None and size > limits.max_expanded:
            bad.append(f"loop expands to {_show(size)} primitives"
                       f" (budget {limits.max_expanded})")


def _not_a(kind, value) -> str:
    """The message for an argument that is not a ``kind``."""
    return f"expected a {kind}, got {type(value).__name__}"


def _show(v) -> str:
    """``repr(v)`` for a message; an int too long for ``repr``, alone or in a
    tuple, by its size."""
    try:
        return repr(v)
    except ValueError:  # repr writes an int of at most sys.get_int_max_str_digits() digits
        if isinstance(v, tuple):
            return f"({', '.join(map(_show, v))})"
        if not isinstance(v, int):
            return f"a {type(v).__name__} holding an int too long to write"
        power = math.floor((v.bit_length() - 1) * math.log10(2))
        return f"over 10^{power}" if v > 0 else f"under -10^{power}"


def _check_body(statements, where, out, limits):
    """Record the faults of each statement, at its index trail, then of its body's."""
    for j, s in enumerate(statements):
        at = (*where, j)
        bad: list = []
        if isinstance(s, DrawStmt):
            _draw_faults(s, limits, bad)
        elif isinstance(s, ForStmt):
            _loop_faults(s, len(at), limits, bad)
        else:
            bad.append(f"not a statement: {_show(s)}")
        if bad:  # only a statement with a fault formats its path
            path = f"stmt[{at[0]}]" + "".join(f".body[{k}]" for k in at[1:])
            out.extend(Violation(path, message) for message in bad)
        if isinstance(s, ForStmt):
            _check_body(s.body, at, out, limits)


def validate_program(p: Program, limits: Limits = DEFAULT_LIMITS) -> ValidationReport:
    """Check every type invariant; report violations instead of raising,
    also for a ``p`` that is not a ``Program`` or ``limits`` that are not
    ``Limits``."""
    if not isinstance(p, Program):
        return ValidationReport(False, (Violation("program", _not_a("Program", p)),))
    if not isinstance(limits, Limits):
        return ValidationReport(False, (Violation("limits", _not_a("Limits", limits)),))
    out: list[Violation] = []
    if len(p.statements) > limits.max_top_level:
        out.append(Violation(
            "stmt", f"{len(p.statements)} top-level statements (limit {limits.max_top_level})"
        ))
    _check_body(p.statements, (), out, limits)
    return ValidationReport(ok=False, violations=tuple(out)) if out else _VALID
