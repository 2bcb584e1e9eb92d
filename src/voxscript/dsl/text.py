"""Text form of programs: a small recursive-descent parser and a printer.

The surface syntax is one statement per line:

    draw(Top, Cub, P=(8,20,8), G=(2,16,16))
    for(Trans, i=4, u=(0,0,6)) {
      draw(Leg, Cyl, P=(4,0,4), G=(18,2))
    }
    for(Rot, i=4, theta=90, axis=Y) { ... }

Whitespace and newlines are insignificant to the parser; the printer emits
the canonical layout (2-space indent per nesting level).

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
    MAX_NESTING,
    Program,
    Semantics,
    ShapeKind,
    _not_a,
    _show,
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


def _print_stmt(s, depth, out):
    pad = "  " * depth
    if isinstance(s, DrawStmt):
        pos = ",".join(map(format_number, s.position))
        geom = ",".join(map(format_number, s.geometry))
        out.append(f"{pad}draw({s.semantics.value}, {s.shape.value}, P=({pos}), G=({geom}))")
        return
    if s.step is not None:
        u = ",".join(map(format_number, s.step))
        head = f"{pad}for(Trans, i={s.times}, u=({u})) {{"
    else:
        head = f"{pad}for(Rot, i={s.times}, theta={format_number(s.angle)}, axis={s.axis.value}) {{"
    out.append(head)
    for child in s.body:
        _print_stmt(child, depth + 1, out)
    out.append(f"{pad}}}")


def _writes(v) -> bool:
    """Whether ``format_number`` writes ``v``."""
    try:
        format_number(v)
    except (TypeError, ValueError):
        return False
    return True


def _draw_fault(d):
    """The fault of the first number of draw ``d``, position then geometry,
    that ``format_number`` refuses, or None."""
    p, g = d.position, d.geometry
    for i, v in enumerate(p):
        if not _writes(v):
            if len(p) != 3:
                return f"position must have 3 components, got {len(p)}"
            return f"position[{i}] must be an integer, got {_show(v)}"
    lo, hi = GEOMETRY_ARITY[d.shape]
    for i, v in enumerate(g):
        if not _writes(v):
            if not lo <= len(g) <= hi:
                want = str(lo) if lo == hi else f"{lo} or {hi}"
                return f"{d.shape.value} takes {want} geometry entries, got {len(g)}"
            names = (("endpoint[0]", "endpoint[1]", "endpoint[2]") if d.shape is ShapeKind.LINE
                     else ("t", "r") if hi == 2 else ("t", "r1", "r2", "ang"))
            kind = "a number" if names[i] == "ang" else "an integer"
            return f"{names[i]} must be {kind}, got {_show(v)}"
    return None


def _unprintable(statements, where=()):
    """The path and fault of the first statement, in print order, that is
    not a statement, names a semantics, shape or rotation axis that is not
    one, holds an int too long for ``str()``, is a translation loop without
    a step, or holds a number ``format_number`` refuses; or None. Faults
    read as ``validate_program`` words them."""
    for j, s in enumerate(statements):
        at = (*where, j)
        path = f"stmt[{at[0]}]" + "".join(f".body[{k}]" for k in at[1:])
        if isinstance(s, DrawStmt):
            if not isinstance(s.semantics, Semantics):
                return path, f"unknown semantics {_show(s.semantics)}"
            if not isinstance(s.shape, ShapeKind):
                return path, f"unknown shape kind {_show(s.shape)}"
            values = (*s.position, *s.geometry)
        elif isinstance(s, ForStmt):
            if s.step is None and s.mode is LoopMode.TRANSLATION:
                return path, "translation loop missing step u"
            if s.step is None and not isinstance(s.axis, Axis):
                return path, f"rotation loop needs an axis, got {_show(s.axis)}"
            values = (s.times, *(s.step or ()), s.angle)
        else:
            return path, f"not a statement: {_show(s)}"
        for v in values:
            try:
                str(v)
            except ValueError:
                return path, "an int has more digits than str() writes"
        if isinstance(s, DrawStmt):
            fault = _draw_fault(s)
            if fault is not None:
                return path, fault
        elif s.step is None and not _writes(s.angle):
            return path, f"rotation loop needs a numeric angle, got {_show(s.angle)}"
        elif s.step is not None and not all(map(_writes, s.step)):
            return path, f"step u must be an integer triple, got {_show(s.step)}"
        else:
            fault = _unprintable(s.body, at)
            if fault is not None:
                return fault
    return None


def print_text(p: Program) -> str:
    """Canonical text form; empty program prints as empty text. A non-statement,
    a semantics, shape or rotation axis that is not one, an int too long for
    ``str()``, a translation loop without a step, or a value where a number
    belongs raises DslSemanticError at its statement's path, and a ``p``
    that is not a Program at ``program``."""
    if not isinstance(p, Program):
        raise DslSemanticError("program", _not_a("Program", p))
    out: list[str] = []
    try:
        for s in p.statements:
            _print_stmt(s, 0, out)
    except (AttributeError, TypeError, ValueError):  # a non-statement, non-enum or non-number
        fault = _unprintable(p.statements)
        if fault is None:
            raise
        raise DslSemanticError(*fault) from None
    return "".join(line + "\n" for line in out)
