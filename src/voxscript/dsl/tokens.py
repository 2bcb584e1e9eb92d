"""Flat token encoding of programs.

Each statement becomes one step: an integer id plus a fixed row of
``N_ARG_SLOTS`` numbers, zero-padded. Draw ids encode the (semantics, shape)
pair; loops contribute a header step, their body steps, and an end marker.
Id 0 is the vacant token, which carries no content and is dropped on decode.

Row layouts (unused trailing slots are zero):

    draw        x  y  z  g1 g2 g3 g4
    loop trans  i  ux uy uz 0  0  0
    loop rot    i  theta axis(0/1/2) 0 0 0 0
    end / vacant  all zeros
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import InvalidProgramError, TokenError
from .ast import (
    Axis,
    DEFAULT_LIMITS,
    DrawStmt,
    ForStmt,
    GEOMETRY_ARITY,
    Limits,
    LoopMode,
    MAX_NESTING,
    Program,
    Semantics,
    ShapeKind,
    _INT_TYPE,
    _not_a,
    _show,
    canon_number,
    canon_numbers,
    format_number,
    parse_number,
    validate_program,
)

N_ARG_SLOTS = 7
_INT_ROW = " ".join(["%d"] * (1 + N_ARG_SLOTS)) + "\n"  # %d writes an int as format_number does

_SEMANTICS = tuple(Semantics)
_SHAPES = tuple(ShapeKind)
_AXES = tuple(Axis)

VACANT_ID = 0
_FIRST_DRAW_ID = 1
_N_DRAW_IDS = len(_SEMANTICS) * len(_SHAPES)
FOR_TRANSLATION_ID = _FIRST_DRAW_ID + _N_DRAW_IDS
FOR_ROTATION_ID = FOR_TRANSLATION_ID + 1
END_FOR_ID = FOR_ROTATION_ID + 1
VOCAB_SIZE = END_FOR_ID + 1

_DRAW_ID = {
    (sem, shp): _FIRST_DRAW_ID + i * len(_SHAPES) + j
    for i, sem in enumerate(_SEMANTICS)
    for j, shp in enumerate(_SHAPES)
}
# draw token id -> (semantics, shape kind)
_DRAW_BY_ID = {v: k for k, v in _DRAW_ID.items()}


def draw_token_id(semantics: Semantics, shape: ShapeKind) -> int:
    """The token id of a (semantics, shape) draw; any other pair raises
    TokenError at step 0."""
    try:
        return _DRAW_ID[(semantics, shape)]
    except (KeyError, TypeError):
        raise TokenError(0, f"no draw token for ({_show(semantics)}, {_show(shape)})") from None


def vocabulary() -> dict:
    """Stable id -> name table, identical across runs and platforms."""
    table = {VACANT_ID: "Vacant"}
    for (sem, shp), i in _DRAW_ID.items():
        table[i] = f"Draw:{sem.value}:{shp.value}"
    table[FOR_TRANSLATION_ID] = "ForTrans"
    table[FOR_ROTATION_ID] = "ForRot"
    table[END_FOR_ID] = "EndFor"
    return table


class TokenStep(NamedTuple):
    id: int
    args: tuple


@dataclass(frozen=True)
class TokenProgram:
    """Steps of ``(id, args)``. An id is a non-negative integer and each arg
    a finite number, never a bool or an int too long for ``str()``; anything
    else raises TokenError. Args are stored canonical (integral floats as
    ints). A ``TokenStep`` of plain ints, as the codec builds, is taken as is."""

    steps: tuple = ()

    def __post_init__(self):
        steps = tuple(_step(idx, step) for idx, step in enumerate(self.steps))
        object.__setattr__(self, "steps", steps)

    def __len__(self):
        return len(self.steps)


def _is_number(v) -> bool:
    """An int of any size or a finite float, but not a bool."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _step(idx, step) -> TokenStep:
    if (step.__class__ is TokenStep and step.id.__class__ is int and step.id >= 0
            and step.args.__class__ is tuple and _INT_TYPE.issuperset(map(type, step.args))):
        return step  # already a valid step with canonical args: the codec's own rows
    try:
        sid, args = step
        args = tuple(args)
    except (TypeError, ValueError):
        raise TokenError(idx, "a step must be an (id, args) pair") from None
    try:
        repr(args), repr(sid)  # as the messages below do
    except ValueError:  # str() writes an int of at most sys.get_int_max_str_digits() digits
        raise TokenError(idx, "an int has more digits than str() writes") from None
    if not (isinstance(sid, int) and not isinstance(sid, bool) and sid >= 0):
        raise TokenError(idx, f"id must be a non-negative integer, got {sid!r}")
    if not all(map(_is_number, args)):
        raise TokenError(idx, f"args must be finite numbers, got {args!r}")
    return TokenStep(int(sid), canon_numbers(args))


def _row(*values) -> tuple:
    return canon_numbers(values) + (0,) * (N_ARG_SLOTS - len(values))


def tokenize(p: Program, limits: Limits = DEFAULT_LIMITS) -> TokenProgram:
    """Encode a program that validates under ``limits`` as a pre-order step
    sequence; anything else, a non-Program included, raises InvalidProgramError."""
    report = validate_program(p, limits)
    if not report.ok:
        raise InvalidProgramError(report)
    return TokenProgram(tuple(encode_steps(p.statements)))


def encode_steps(statements):
    """Yield the pre-order steps of ``statements`` without validating them."""
    for stmt in statements:
        if isinstance(stmt, DrawStmt):
            yield TokenStep(_DRAW_ID[stmt.semantics, stmt.shape],
                            _row(*stmt.position, *stmt.geometry))
            continue
        if stmt.mode is LoopMode.TRANSLATION:
            yield TokenStep(FOR_TRANSLATION_ID, _row(stmt.times, *stmt.step))
        else:
            yield TokenStep(FOR_ROTATION_ID, _row(stmt.times, stmt.angle, _AXES.index(stmt.axis)))
        yield from encode_steps(stmt.body)
        yield TokenStep(END_FOR_ID, _row())


def _int_arg(v, step_index, what):
    if not isinstance(v, int):  # args are canonical: an integral number is an int
        raise TokenError(step_index, f"{what} must be an integer, got {_show(v)}")
    return v


def _require_unused_zero(args, used, step_index, what):
    if any(args[used:]):
        raise TokenError(step_index, f"{what} uses {used} argument slots;"
                                     " the slots after them must be 0")


# Argument slots each row that is not a draw uses; the slots after them must be 0.
_CONTROL_SLOTS = {VACANT_ID: 0, FOR_TRANSLATION_ID: 4, FOR_ROTATION_ID: 3, END_FOR_ID: 0}
_NAMES = vocabulary()


def detokenize(t: TokenProgram) -> Program:
    """Exact inverse of :func:`tokenize` on its image; vacant steps vanish.

    A row whose unused slots are not all 0 is rejected, so a decoded
    program that validates re-encodes to its input, vacant steps aside.
    A loop header's arguments are checked when its end marker closes it.
    A ``t`` that is not a TokenProgram raises TokenError at step 0.
    """
    if not isinstance(t, TokenProgram):
        raise TokenError(0, _not_a("TokenProgram", t))
    root: list = []
    open_loops: list[tuple] = []  # (header step index, header id, header args, body list)
    for idx, (sid, args) in enumerate(t.steps):
        if len(args) != N_ARG_SLOTS:
            raise TokenError(idx, f"expected {N_ARG_SLOTS} argument slots, got {len(args)}")
        if sid in _CONTROL_SLOTS:
            _require_unused_zero(args, _CONTROL_SLOTS[sid], idx, _NAMES[sid])
        if sid in _DRAW_BY_ID:
            sem, shape = _DRAW_BY_ID[sid]
            if not _INT_TYPE.issuperset(map(type, args[:3])):
                for a in args[:3]:
                    _int_arg(a, idx, "position")
            hi = GEOMETRY_ARITY[shape][1]
            _require_unused_zero(args, 3 + hi, idx, shape.value)
            stmt = DrawStmt(sem, shape, args[:3], args[3:3 + hi])  # which drops a zero Cub tilt
        elif sid == FOR_TRANSLATION_ID or sid == FOR_ROTATION_ID:
            if len(open_loops) == MAX_NESTING:
                raise TokenError(idx, f"loops nested deeper than {MAX_NESTING}")
            open_loops.append((idx, sid, args, []))
            continue
        elif sid == END_FOR_ID:
            if not open_loops:
                raise TokenError(idx, "end-of-loop marker without an open loop")
            hidx, hid, hargs, body = open_loops.pop()
            times = _int_arg(hargs[0], hidx, "times")
            if hid == FOR_TRANSLATION_ID:
                stmt = ForStmt.translation(times, [_int_arg(a, hidx, "step u") for a in hargs[1:4]],
                                           body)
            else:
                code = _int_arg(hargs[2], hidx, "axis code")
                if not 0 <= code < len(_AXES):
                    raise TokenError(hidx, f"axis code {code} outside 0..{len(_AXES) - 1}")
                stmt = ForStmt.rotation(times, hargs[1], _AXES[code], body)
        elif sid == VACANT_ID:
            continue
        else:
            raise TokenError(idx, f"unknown token id {sid}")
        (open_loops[-1][3] if open_loops else root).append(stmt)
    if open_loops:
        raise TokenError(open_loops[-1][0], "loop header never closed")
    return Program(tuple(root))


def format_token_lines(t: TokenProgram) -> str:
    """One step per line: ``id a1 .. a7``, each number as format_number writes it.
    An int too long for ``str()`` raises TokenError at its step, and a ``t``
    that is not a TokenProgram at step 0."""
    if not isinstance(t, TokenProgram):
        raise TokenError(0, _not_a("TokenProgram", t))
    try:
        return "".join(_INT_ROW % (sid, *args)
                       if len(args) == N_ARG_SLOTS and _INT_TYPE.issuperset(map(type, args))
                       else " ".join(map(format_number, (sid, *args))) + "\n"
                       for sid, args in t.steps)
    except ValueError:  # str() writes an int of at most sys.get_int_max_str_digits() digits
        for idx, (sid, args) in enumerate(t.steps):
            try:
                " ".join(map(format_number, (sid, *args)))
            except ValueError:
                raise TokenError(idx, "an int has more digits than str() writes") from None
        raise


# Token rows hold only ASCII digits, minus signs, points and whitespace.
_NON_TOKEN_CHAR = re.compile(r"[^0-9.\-\s]")
# Canonical text -> value of the small ints rows mostly hold (ids, coordinates,
# extents, steps, tilts, angles): a row of them needs no other check.
_SMALL_INTS = {str(i): i for i in range(-64, 129)}


def _parse_number(text, lineno):
    try:
        return canon_number(parse_number(text))
    except ValueError:
        raise TokenError(lineno, f"not a number: {text!r}") from None


def parse_token_lines(src: str) -> TokenProgram:
    """Rows of ``id a1 .. a7``, each number written as format_token_lines writes it:
    ``01``, ``-0`` or ``1.0`` raise TokenError (step = line index). Whitespace is free.
    A ``src`` that is not a str raises TokenError at step 0."""
    if not isinstance(src, str):
        raise TokenError(0, _not_a("str", src))
    steps = []
    for lineno, line in enumerate(src.splitlines()):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 1 + N_ARG_SLOTS:
            raise TokenError(lineno, f"expected {1 + N_ARG_SLOTS} fields, got {len(fields)}")
        try:
            sid, *args = map(_SMALL_INTS.__getitem__, fields)
        except KeyError:  # a larger int, a float or a fault: parse field by field
            bad = _NON_TOKEN_CHAR.search(line)
            if bad:
                raise TokenError(lineno, f"unexpected character {bad.group()!r}")
            sid, args = _parse_number(fields[0], lineno), None
        if not (isinstance(sid, int) and sid >= 0):
            raise TokenError(lineno, f"id must be a non-negative integer, got {fields[0]!r}")
        if args is None:
            args = [_parse_number(f, lineno) for f in fields[1:]]
            for field, text in zip(fields, map(format_number, (sid, *args))):
                if field != text:
                    raise TokenError(lineno, f"{field!r} must be written {text!r}")
        steps.append(TokenStep(sid, tuple(args)))
    return TokenProgram(tuple(steps))


def token_program_to_json(t: TokenProgram) -> dict:
    """Self-describing container: vocabulary table plus step rows. A ``t``
    that is not a TokenProgram raises TokenError at step 0."""
    if not isinstance(t, TokenProgram):
        raise TokenError(0, _not_a("TokenProgram", t))
    return {
        "n_ids": VOCAB_SIZE,
        "n_args": N_ARG_SLOTS,
        "vocabulary": {str(k): v for k, v in vocabulary().items()},
        "steps": [[s.id, list(s.args)] for s in t.steps],
    }


def token_program_from_json(obj: dict) -> TokenProgram:
    """Inverse of :func:`token_program_to_json`. Anything but an object
    whose steps are ``[id, [7 args]]``, with a non-negative integer id and
    finite numbers as args, raises TokenError; an id is never coerced."""
    steps = obj.get("steps", []) if isinstance(obj, dict) else None
    if not isinstance(steps, list):
        raise TokenError(0, "expected an object whose 'steps' is a list")
    for idx, entry in enumerate(steps):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
                and len(entry[1]) == N_ARG_SLOTS):
            raise TokenError(idx, f"each step must be [id, [{N_ARG_SLOTS} args]]")
    return TokenProgram(tuple(steps))
