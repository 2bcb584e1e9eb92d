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
    canon_number,
    format_number,
    parse_number,
    validate_program,
)

N_ARG_SLOTS = 7

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
DRAW_BY_ID = {v: k for k, v in _DRAW_ID.items()}


def draw_token_id(semantics: Semantics, shape: ShapeKind) -> int:
    return _DRAW_ID[(semantics, shape)]


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
    steps: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "steps",
            tuple(TokenStep(int(i), tuple(canon_number(a) for a in args)) for i, args in self.steps),
        )

    def __len__(self):
        return len(self.steps)


def _row(*values) -> tuple:
    vals = tuple(canon_number(v) for v in values)
    return vals + (0,) * (N_ARG_SLOTS - len(vals))


def tokenize(p: Program, limits: Limits = DEFAULT_LIMITS) -> TokenProgram:
    """Encode a program that validates under ``limits`` as a pre-order step
    sequence."""
    report = validate_program(p, limits)
    if not report.ok:
        raise InvalidProgramError(report)
    return TokenProgram(tuple(encode_steps(p.statements)))


def encode_steps(statements):
    """Yield the pre-order steps of ``statements`` without validating them."""
    for stmt in statements:
        if isinstance(stmt, DrawStmt):
            yield TokenStep(draw_token_id(stmt.semantics, stmt.shape),
                            _row(*stmt.position, *stmt.geometry))
            continue
        if stmt.mode is LoopMode.TRANSLATION:
            yield TokenStep(FOR_TRANSLATION_ID, _row(stmt.times, *stmt.step))
        else:
            yield TokenStep(FOR_ROTATION_ID, _row(stmt.times, stmt.angle, _AXES.index(stmt.axis)))
        yield from encode_steps(stmt.body)
        yield TokenStep(END_FOR_ID, _row())


def _int_arg(v, step_index, what):
    v = canon_number(v)
    if not isinstance(v, int):
        raise TokenError(step_index, f"{what} must be an integer, got {v!r}")
    return v


def _require_unused_zero(args, used, step_index, what):
    if any(a != 0 for a in args[used:]):
        raise TokenError(step_index, f"{what} uses {used} argument slots;"
                                     " the slots after them must be 0")


# Argument slots each row that is not a draw uses; the slots after them must be 0.
_CONTROL_SLOTS = {VACANT_ID: 0, FOR_TRANSLATION_ID: 4, FOR_ROTATION_ID: 3, END_FOR_ID: 0}
_NAMES = vocabulary()


def detokenize(t: TokenProgram) -> Program:
    """Exact inverse of :func:`tokenize` on its image; vacant steps vanish.

    A row whose unused slots are not all 0 is rejected, so a decoded
    program that validates re-encodes to its input, vacant steps aside.
    """
    open_loops: list[tuple] = []  # (header step index, header id, header args)
    for idx, (sid, args) in enumerate(t.steps):
        if sid in _CONTROL_SLOTS:
            _require_unused_zero(args, _CONTROL_SLOTS[sid], idx, _NAMES[sid])
        if sid == END_FOR_ID:
            if not open_loops:
                raise TokenError(idx, "end-of-loop marker without an open loop")
            hidx, hid, hargs = open_loops.pop()
            _int_arg(hargs[0], hidx, "times")
            if hid == FOR_TRANSLATION_ID:
                for a in hargs[1:4]:
                    _int_arg(a, hidx, "step u")
            else:
                code = _int_arg(hargs[2], hidx, "axis code")
                if not 0 <= code < len(_AXES):
                    raise TokenError(hidx, f"axis code {code} outside 0..{len(_AXES) - 1}")
        elif sid in (FOR_TRANSLATION_ID, FOR_ROTATION_ID):
            if len(open_loops) == MAX_NESTING:
                raise TokenError(idx, f"loops nested deeper than {MAX_NESTING}")
            open_loops.append((idx, sid, args))
        elif sid in DRAW_BY_ID:
            shape = DRAW_BY_ID[sid][1]
            for a in args[:3]:
                _int_arg(a, idx, "position")
            _require_unused_zero(args, 3 + GEOMETRY_ARITY[shape][1], idx, shape.value)
        elif sid != VACANT_ID:
            raise TokenError(idx, f"unknown token id {sid}")
    if open_loops:
        raise TokenError(open_loops[-1][0], "loop header never closed")
    return Program(build_statements(t.steps))


def build_statements(steps) -> tuple:
    """The statements of ``(id, args)`` steps that :func:`detokenize` would
    accept, built without checking them; vacant steps vanish."""
    root: list = []
    stack: list[tuple] = []  # (header id, header args, body list)
    for sid, args in steps:
        if sid in DRAW_BY_ID:
            sem, shape = DRAW_BY_ID[sid]
            lo, hi = GEOMETRY_ARITY[shape]
            # the optional last geometry entry (a Cub tilt) is absent when 0
            n = hi if args[2 + hi] != 0 else lo
            stmt = DrawStmt(sem, shape, args[:3], args[3:3 + n])
        elif sid == FOR_TRANSLATION_ID or sid == FOR_ROTATION_ID:
            stack.append((sid, args, []))
            continue
        elif sid == END_FOR_ID:
            hid, hargs, body = stack.pop()
            if hid == FOR_TRANSLATION_ID:
                stmt = ForStmt.translation(hargs[0], hargs[1:4], body)
            else:
                stmt = ForStmt.rotation(hargs[0], hargs[1], _AXES[hargs[2]], body)
        else:
            continue
        (stack[-1][2] if stack else root).append(stmt)
    return tuple(root)


def format_token_lines(t: TokenProgram) -> str:
    """One step per line: ``id a1 .. a7`` in decimal."""
    lines = [" ".join([str(s.id)] + [format_number(a) for a in s.args]) for s in t.steps]
    return "".join(line + "\n" for line in lines)


# Token rows hold only ASCII digits, minus signs, points and whitespace.
_NON_TOKEN_CHAR = re.compile(r"[^0-9.\-\s]")


def _parse_number(text, lineno):
    # int() also takes "_", "+" and non-ASCII digits, which the row's
    # character check has refused; what it refuses here gets the strict parse
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return canon_number(parse_number(text))
    except ValueError:
        raise TokenError(lineno, f"not a number: {text!r}") from None


def parse_token_lines(src: str) -> TokenProgram:
    """Rows of ``id a1 .. a7`` as format_token_lines writes them; a field that
    is not an ASCII decimal raises TokenError."""
    steps = []
    for lineno, line in enumerate(src.splitlines()):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 1 + N_ARG_SLOTS:
            raise TokenError(lineno, f"expected {1 + N_ARG_SLOTS} fields, got {len(fields)}")
        bad = _NON_TOKEN_CHAR.search(line)
        if bad:
            raise TokenError(lineno, f"unexpected character {bad.group()!r}")
        sid = _parse_number(fields[0], lineno)
        if not isinstance(sid, int) or sid < 0:
            raise TokenError(lineno, f"id must be a non-negative integer, got {fields[0]!r}")
        steps.append(TokenStep(sid, tuple(_parse_number(f, lineno) for f in fields[1:])))
    return TokenProgram(tuple(steps))


def token_program_to_json(t: TokenProgram) -> dict:
    """Self-describing container: vocabulary table plus step rows."""
    return {
        "n_ids": VOCAB_SIZE,
        "n_args": N_ARG_SLOTS,
        "vocabulary": {str(k): v for k, v in vocabulary().items()},
        "steps": [[s.id, list(s.args)] for s in t.steps],
    }


def token_program_from_json(obj: dict) -> TokenProgram:
    steps = []
    for idx, entry in enumerate(obj.get("steps", [])):
        if len(entry) != 2 or len(entry[1]) != N_ARG_SLOTS:
            raise TokenError(idx, "each step must be [id, [7 args]]")
        steps.append(TokenStep(int(entry[0]), tuple(canon_number(a) for a in entry[1])))
    return TokenProgram(tuple(steps))
