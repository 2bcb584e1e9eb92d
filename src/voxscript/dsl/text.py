"""Text form of programs: a small recursive-descent parser and a printer.

The surface syntax is one statement per line:

    draw(Top, Cub, P=(8,20,8), G=(2,16,16))
    for(Trans, i=4, u=(0,0,6)) {
      draw(Leg, Cyl, P=(4,0,4), G=(18,2))
    }
    for(Rot, i=4, theta=90, axis=Y) { ... }

Whitespace and newlines are insignificant to the parser; the printer emits
the canonical layout (2-space indent per nesting level). The printer writes
exactly what ``parse_text(..., validate=False)`` reads back as the same
program, and raises DslSemanticError at a statement's path for anything
else, in the words of ``validate_program``'s checks.

The lexer is one regex ``findall`` that yields the tokens as plain strings,
and the parser walks that list by index, checking each fixed run of tokens
at once. Tokens keep no position: an error finds its token's character
offset again and computes the line and column from it (every character but
a newline is one column). The parser reads names only from its keyword
tables and numbers only through ``parse_number``, so a parse that succeeds
has read no malformed token. A parse that fails reports the first lexical
error in the source, if there is one, before its own error, as if the
whole source had been lexed first.
"""
from __future__ import annotations

import re
from operator import itemgetter

from ..errors import DslSemanticError, DslSyntaxError
from .ast import (
    Axis,
    DEFAULT_LIMITS,
    DrawStmt,
    ForStmt,
    GEOMETRY_ARITY,
    Limits,
    LoopMode,
    MAX_GRID_VOXELS,
    MAX_NESTING,
    Program,
    Semantics,
    ShapeKind,
    _INT_TYPE,
    _is_int,
    _not_a,
    _path,
    _show,
    _statement_faults,
    format_number,
    parse_number,
    validate_program,
)

# A token is a number (ASCII digits with at most one point, after a digit or
# a minus that a digit or point follows), a name (a word character that is
# not a decimal digit, then word characters), or any other character but
# " \t\r\n", which findall skips. \w is exactly isalnum() or "_". A name that
# starts with a character isalpha() refuses, such as "²", and a number that
# parse_number refuses, such as "-." or "5.", are lexical errors.
_TOKEN = re.compile(r"(?:[0-9]|-(?=[0-9.]))[0-9]*(?:\.[0-9]*)?|[^\W\d]\w*|[^ \t\r\n]")
_VALUE_NAMES = {int: "integer", float: "number"}
# The limits of the widest grid any entry point accepts: a fault the printer
# reports under them holds on every grid.
_WIDEST_LIMITS = Limits.for_dims((MAX_GRID_VOXELS, 1, 1))


def _value(text, kind):
    """What token ``text`` holds in a slot of ``kind`` (a name table, int or
    float), or None if it does not fit there."""
    if kind.__class__ is dict:
        return kind.get(text)
    try:
        v = parse_number(text)
    except ValueError:
        return None
    return v if kind is float or v.__class__ is int else None


def _line_col(src, offset):
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


class _Run:
    """A fixed run of tokens: a str slot is that token, any other slot a
    value (see ``_value``)."""

    def __init__(self, *slots):
        self.slots = slots
        self.texts = tuple(s for s in slots if s.__class__ is str)
        self.text_at = itemgetter(*(i for i, s in enumerate(slots) if s.__class__ is str))
        self.kinds = tuple(s for s in slots if s.__class__ is not str)
        self.value_at = itemgetter(*(i for i, s in enumerate(slots) if s.__class__ is not str))


def _names(enum):
    return {m.value: m for m in enum}


_DRAW = _Run("draw", "(", _names(Semantics), ",", _names(ShapeKind), ",", "P", "=",
             "(", int, ",", int, ",", int, ")", ",", "G", "=", "(", float)
_FOR = _Run("for", "(", _names(LoopMode), ",", "i", "=", int, ",")
_TRANS = _Run("u", "=", "(", int, ",", int, ",", int, ")", ")", "{")
_ROT = _Run("theta", "=", float, ",", "axis", "=", _names(Axis), ")", "{")


class _Parser:
    def __init__(self, src):
        self.src = src
        self.toks = _TOKEN.findall(src)
        self.toks.append("")  # the end of input, equal to no token

    def fail(self, k, expected=(), message=None):
        """Raise the source's first lexical error, or else the error of a
        parse that failed at token ``k``."""
        src, offset = self.src, len(self.src)
        for n, m in enumerate(_TOKEN.finditer(src)):
            text = m.group()
            if text[0] in "-0123456789" and text != "-":
                if _value(text, float) is None:
                    raise DslSyntaxError(f"malformed number {text!r}", *_line_col(src, m.start()))
            elif not (text[0].isalpha() or text[0] in "_(){},="):
                raise DslSyntaxError(f"unexpected character {text[0]!r}",
                                     *_line_col(src, m.start()))
            if n == k:
                offset = m.start()
        if message is None:
            what = "end of input" if k == len(self.toks) - 1 else repr(self.toks[k])
            message = f"unexpected {what}"
        raise DslSyntaxError(message, *_line_col(src, offset), expected)

    def read(self, k, run) -> list:
        """The values of ``run`` read from token ``k`` on."""
        toks = self.toks
        seg = toks[k:k + len(run.slots)]
        if len(seg) == len(run.slots) and run.text_at(seg) == run.texts:
            values = [_value(t, kind) for t, kind in zip(run.value_at(seg), run.kinds)]
            if None not in values:
                return values
        for i, slot in enumerate(run.slots, k):  # the first token that does not fit
            if slot.__class__ is str:
                if toks[i] != slot:
                    self.fail(i, (slot,))
            elif _value(toks[i], slot) is None:
                self.fail(i, tuple(slot) if slot.__class__ is dict else (_VALUE_NAMES[slot],))

    def statements(self, k, depth) -> tuple:
        """The statements from token ``k`` to the end of input, or at
        ``depth`` > 0 to the "}" closing a loop body; returns them and the
        index of that end."""
        toks, stmts, stop = self.toks, [], "}" if depth else ""
        while True:
            t = toks[k]
            if t == "draw":
                stmt, k = self.draw(k)
            elif t == "for":
                stmt, k = self.loop(k, depth)
            elif t == stop:
                return tuple(stmts), k
            else:
                self.fail(k, ("draw", "for", "}") if depth else ("draw", "for"))
            stmts.append(stmt)

    def draw(self, k) -> tuple:
        sem, shape, x, y, z, g = self.read(k, _DRAW)
        toks, geom, sem_at = self.toks, [g], k + 2
        k += len(_DRAW.slots)
        while toks[k] == ",":
            g = _value(toks[k + 1], float)
            if g is None:
                self.fail(k + 1, ("number",))
            geom.append(g)
            k += 2
        for close in (k, k + 1):
            if toks[close] != ")":
                self.fail(close, (")",))
        lo, hi = GEOMETRY_ARITY[shape]
        if not lo <= len(geom) <= hi:
            want = str(lo) if lo == hi else f"{lo} or {hi}"
            self.fail(sem_at, message=f"{shape.value} takes {want} geometry arguments,"
                                      f" got {len(geom)}")
        return DrawStmt(sem, shape, (x, y, z), tuple(geom)), k + 2

    def loop(self, k, depth) -> tuple:
        mode, times = self.read(k, _FOR)
        k += len(_FOR.slots)
        if mode is LoopMode.TRANSLATION:
            step = self.read(k, _TRANS)
            k += len(_TRANS.slots)
        else:
            angle, axis = self.read(k, _ROT)
            k += len(_ROT.slots)
        if depth == MAX_NESTING:  # token k - 1 is the "{" that opens the body
            self.fail(k - 1, message=f"loops nested deeper than {MAX_NESTING}")
        body, k = self.statements(k, depth + 1)
        if mode is LoopMode.TRANSLATION:
            return ForStmt.translation(times, step, body), k + 1
        return ForStmt.rotation(times, angle, axis, body), k + 1


def parse_text(src: str, *, validate: bool = True, limits: Limits = DEFAULT_LIMITS) -> Program:
    """Parse source text; optionally reject programs that break the value
    rules of ``limits``. A ``src`` that is not a str raises DslSyntaxError."""
    if not isinstance(src, str):
        raise DslSyntaxError(_not_a("str", src), 1, 1)
    program = Program(_Parser(src).statements(0, 0)[0])
    if validate:
        report = validate_program(program, limits)
        if not report.ok:
            v = report.violations[0]
            raise DslSemanticError(v.path, v.message)
    return program


def _triple(values) -> str:
    """``values`` as the parser reads three ints back; anything else, None
    too, raises ValueError."""
    if values is None or len(values) != 3 or not (
            _INT_TYPE.issuperset(map(type, values)) or all(map(_is_int, values))):
        raise ValueError
    return ",".join(map(format_number, values))


def _print_stmt(s, at, out):
    """Append the lines of statement ``s``, at index trail ``at``, to ``out``;
    one the parser would not read back as ``s`` raises DslSemanticError (see
    ``print_text``)."""
    pad = "  " * (len(at) - 1)
    try:
        if isinstance(s, DrawStmt):
            lo, hi = GEOMETRY_ARITY[s.shape] if isinstance(s.shape, ShapeKind) else (1, 0)
            if not isinstance(s.semantics, Semantics) or not lo <= len(s.geometry) <= hi:
                raise ValueError
            geom = ",".join(map(format_number, s.geometry))
            out.append(f"{pad}draw({s.semantics.value}, {s.shape.value},"
                       f" P=({_triple(s.position)}), G=({geom}))")
            return
        if not isinstance(s, ForStmt) or not _is_int(s.times) or len(at) > MAX_NESTING:
            raise ValueError
        times = format_number(s.times)
        if s.mode is LoopMode.TRANSLATION and s.angle is None and s.axis is None:
            out.append(f"{pad}for(Trans, i={times}, u=({_triple(s.step)})) {{")
        elif s.mode is LoopMode.ROTATION and s.step is None and isinstance(s.axis, Axis):
            out.append(f"{pad}for(Rot, i={times}, theta={format_number(s.angle)},"
                       f" axis={s.axis.value}) {{")
        else:
            raise ValueError
    except ValueError:
        faults = _statement_faults(s, len(at), _WIDEST_LIMITS)
        message = "; ".join(faults) or "an int has more digits than str() writes"  # a step's
        raise DslSemanticError(_path(at), message) from None
    for j, child in enumerate(s.body):
        _print_stmt(child, (*at, j), out)
    out.append(f"{pad}}}")


def print_text(p: Program) -> str:
    """Canonical text form; an empty program prints as empty text.

    The text is exactly what ``parse_text(..., validate=False)`` reads back
    as ``p``. A statement it could not write so raises DslSemanticError at
    its path, with the faults ``validate_program`` reports there under the
    limits of the widest grid, so that each holds on every grid; a step int
    too long for ``str()``, which no limit bounds, is named as such. A ``p``
    that is not a Program raises it at ``program``."""
    if not isinstance(p, Program):
        raise DslSemanticError("program", _not_a("Program", p))
    out: list[str] = []
    for j, s in enumerate(p.statements):
        _print_stmt(s, (j,), out)
    return "".join(line + "\n" for line in out)
