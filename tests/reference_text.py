"""The character-walk lexer and token-object parser that dsl.text replaced.

Tests compare dsl.text.parse_text against reference_parse_text: the same
Program for every input that parses, and the same error type, message,
line, column and expected tokens for every input that does not.
"""
from __future__ import annotations

from typing import NamedTuple

from voxscript.dsl.ast import (Axis, DEFAULT_LIMITS, DrawStmt, ForStmt, GEOMETRY_ARITY, Limits,
                               MAX_NESTING, Program, Semantics, ShapeKind, parse_number,
                               validate_program)
from voxscript.errors import DslSemanticError, DslSyntaxError

_PUNCT = "(){},="
# Number tokens are ASCII only: other Unicode digits are unexpected characters.
_DIGITS = "0123456789"


class _Token(NamedTuple):
    kind: str   # "name", "number", one of _PUNCT, or "eof"
    text: str
    value: object
    line: int
    col: int


def _lex(src: str) -> list[_Token]:
    toks = []
    line, col, i, n = 1, 1, 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in _PUNCT:
            toks.append(_Token(c, c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("name", src[i:j], src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and (src[i + 1] in _DIGITS or src[i + 1] == ".")):
            j = i + 1
            seen_dot = False
            while j < n and (src[j] in _DIGITS or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            text = src[i:j]
            try:
                value = parse_number(text)
            except ValueError:  # "-.", "5.", or an integer too long to convert
                raise DslSyntaxError(f"malformed number {text!r}", line, col) from None
            toks.append(_Token("number", text, value, line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("eof", "", None, line, col))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def fail(self, expected):
        t = self.cur
        what = "end of input" if t.kind == "eof" else repr(t.text)
        raise DslSyntaxError(f"unexpected {what}", t.line, t.col, expected)

    def eat(self, kind, text=None) -> _Token:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            self.fail((text or kind,))
        self.pos += 1
        return t

    def eat_name(self, *options) -> _Token:
        t = self.cur
        if t.kind != "name" or (options and t.text not in options):
            self.fail(options or ("name",))
        self.pos += 1
        return t

    def eat_int(self) -> int:
        t = self.cur
        if t.kind != "number" or not isinstance(t.value, int):
            self.fail(("integer",))
        self.pos += 1
        return t.value

    def eat_number(self):
        t = self.cur
        if t.kind != "number":
            self.fail(("number",))
        self.pos += 1
        return t.value

    def int_triple(self) -> tuple:
        self.eat("(")
        a = self.eat_int()
        self.eat(",")
        b = self.eat_int()
        self.eat(",")
        c = self.eat_int()
        self.eat(")")
        return (a, b, c)

    def program(self, *, top=False) -> list:
        stmts = []
        stop = "eof" if top else "}"
        while True:
            t = self.cur
            if t.kind == stop:
                return stmts
            if t.kind == "name" and t.text == "draw":
                stmts.append(self.draw())
            elif t.kind == "name" and t.text == "for":
                stmts.append(self.for_stmt())
            else:
                self.fail(("draw", "for") if top else ("draw", "for", "}"))

    def draw(self) -> DrawStmt:
        self.eat_name("draw")
        self.eat("(")
        sem_tok = self.eat_name(*(s.value for s in Semantics))
        self.eat(",")
        shp_tok = self.eat_name(*(s.value for s in ShapeKind))
        shape = ShapeKind(shp_tok.text)
        self.eat(",")
        self.eat_name("P")
        self.eat("=")
        pos = self.int_triple()
        self.eat(",")
        self.eat_name("G")
        self.eat("=")
        self.eat("(")
        geom = [self.eat_number()]
        while self.cur.kind == ",":
            self.eat(",")
            geom.append(self.eat_number())
        self.eat(")")
        self.eat(")")
        lo, hi = GEOMETRY_ARITY[shape]
        if not lo <= len(geom) <= hi:
            want = str(lo) if lo == hi else f"{lo} or {hi}"
            raise DslSyntaxError(
                f"{shape.value} takes {want} geometry arguments, got {len(geom)}",
                sem_tok.line, sem_tok.col,
            )
        return DrawStmt(Semantics(sem_tok.text), shape, pos, tuple(geom))

    def for_stmt(self) -> ForStmt:
        self.eat_name("for")
        self.eat("(")
        mode = self.eat_name("Trans", "Rot")
        self.eat(",")
        self.eat_name("i")
        self.eat("=")
        times = self.eat_int()
        self.eat(",")
        if mode.text == "Trans":
            self.eat_name("u")
            self.eat("=")
            step = self.int_triple()
            self.eat(")")
            body = self.block_body()
            return ForStmt.translation(times, step, body)
        self.eat_name("theta")
        self.eat("=")
        angle = self.eat_number()
        self.eat(",")
        self.eat_name("axis")
        self.eat("=")
        axis = Axis(self.eat_name("X", "Y", "Z").text)
        self.eat(")")
        body = self.block_body()
        return ForStmt.rotation(times, angle, axis, body)

    def block_body(self) -> tuple:
        t = self.eat("{")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"loops nested deeper than {MAX_NESTING}", t.line, t.col)
        body = self.program()
        self.eat("}")
        self.depth -= 1
        return tuple(body)


def reference_parse_text(src: str, *, validate: bool = True,
                         limits: Limits = DEFAULT_LIMITS) -> Program:
    """dsl.text.parse_text as it was: lex the whole source, then parse."""
    p = _Parser(_lex(src))
    program = Program(tuple(p.program(top=True)))
    if validate:
        report = validate_program(program, limits)
        if not report.ok:
            v = report.violations[0]
            raise DslSemanticError(v.path, v.message)
    return program
