"""The validator and token-line codec that dsl.ast and dsl.tokens replaced.

Tests compare validate_program, parse_token_lines and format_token_lines
against the reference_ versions here: the same report for every program,
the same rows for every token text the new parser accepts, and the same
error for every text it refuses, except that the new parser also refuses a
row whose numbers are not written as format_number writes them.
"""
from __future__ import annotations

import re

from voxscript.dsl.ast import (Axis, DEFAULT_LIMITS, DrawStmt, ForStmt, GEOMETRY_ARITY, Limits,
                               LoopMode, Program, Semantics, ShapeKind, ValidationReport,
                               Violation, canon_number, expanded_size, format_number,
                               parse_number)
from voxscript.dsl.tokens import N_ARG_SLOTS, TokenProgram, TokenStep
from voxscript.errors import TokenError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_coord_triple(values, lo, hi, what, path, out):
    if len(values) != 3:
        out.append(Violation(path, f"{what} must have 3 components, got {len(values)}"))
        return
    for i, v in enumerate(values):
        if not _is_int(v):
            out.append(Violation(path, f"{what}[{i}] must be an integer, got {v!r}"))
        elif not lo <= v <= hi:
            out.append(Violation(path, f"{what}[{i}] = {v} outside [{lo}, {hi}]"))


def _check_extent(v, name, path, out, limits):
    if not _is_int(v):
        out.append(Violation(path, f"{name} must be an integer, got {v!r}"))
    elif not 1 <= v <= limits.max_extent:
        out.append(Violation(path, f"{name} = {v} outside [1, {limits.max_extent}]"))


def _check_draw(d: DrawStmt, path, out, limits):
    if not isinstance(d.semantics, Semantics):
        out.append(Violation(path, f"unknown semantics {d.semantics!r}"))
    if not isinstance(d.shape, ShapeKind):
        out.append(Violation(path, f"unknown shape kind {d.shape!r}"))
        return
    _check_coord_triple(d.position, 0, limits.max_coord, "position", path, out)
    lo, hi = GEOMETRY_ARITY[d.shape]
    n = len(d.geometry)
    if not lo <= n <= hi:
        want = str(lo) if lo == hi else f"{lo} or {hi}"
        out.append(Violation(path, f"{d.shape.value} takes {want} geometry entries, got {n}"))
        return
    g = d.geometry
    if d.shape is ShapeKind.LINE:
        _check_coord_triple(g, 0, limits.max_coord, "endpoint", path, out)
    elif d.shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
        _check_extent(g[0], "t", path, out, limits)
        _check_extent(g[1], "r", path, out, limits)
    else:  # CUBOID, RECTANGLE
        for v, name in zip(g[:3], ("t", "r1", "r2")):
            _check_extent(v, name, path, out, limits)
        if n == 4:
            ang = g[3]
            if not isinstance(ang, (int, float)) or isinstance(ang, bool):
                out.append(Violation(path, f"ang must be a number, got {ang!r}"))
            elif not -limits.max_tilt <= ang <= limits.max_tilt:
                out.append(Violation(path, f"ang = {ang} outside [-{limits.max_tilt}, {limits.max_tilt}]"))


def _check_for(f: ForStmt, path, depth, out, limits):
    if not _is_int(f.times) or f.times < 2:
        out.append(Violation(path, f"times must be an integer >= 2, got {f.times!r}"))
    if f.mode is LoopMode.TRANSLATION:
        if f.step is None:
            out.append(Violation(path, "translation loop missing step u"))
        else:
            if len(f.step) != 3 or not all(_is_int(c) for c in f.step):
                out.append(Violation(path, f"step u must be an integer triple, got {f.step!r}"))
        if f.angle is not None or f.axis is not None:
            out.append(Violation(path, "translation loop must not carry angle/axis"))
    elif f.mode is LoopMode.ROTATION:
        if f.angle is None or not isinstance(f.angle, (int, float)) or isinstance(f.angle, bool):
            out.append(Violation(path, f"rotation loop needs a numeric angle, got {f.angle!r}"))
        if not isinstance(f.axis, Axis):
            out.append(Violation(path, f"rotation loop needs an axis, got {f.axis!r}"))
        if f.step is not None:
            out.append(Violation(path, "rotation loop must not carry step u"))
    else:
        out.append(Violation(path, f"unknown loop mode {f.mode!r}"))
    if depth + 1 > limits.max_for_depth:
        out.append(Violation(path, f"loop nesting deeper than {limits.max_for_depth}"))
    if not f.body:
        out.append(Violation(path, "loop body is empty"))
        return
    if _is_int(f.times) and f.times >= 2 and expanded_size(f) > limits.max_expanded:
        out.append(Violation(
            path, f"loop expands to {expanded_size(f)} primitives (budget {limits.max_expanded})"
        ))
    for j, s in enumerate(f.body):
        _check_stmt(s, f"{path}.body[{j}]", depth + 1, out, limits)


def _check_stmt(s, path, depth, out, limits):
    if isinstance(s, DrawStmt):
        _check_draw(s, path, out, limits)
    elif isinstance(s, ForStmt):
        _check_for(s, path, depth, out, limits)
    else:
        out.append(Violation(path, f"not a statement: {s!r}"))


def reference_validate_program(p: Program, limits: Limits = DEFAULT_LIMITS) -> ValidationReport:
    """Check every type invariant; report violations instead of raising."""
    out: list[Violation] = []
    if len(p.statements) > limits.max_top_level:
        out.append(Violation(
            "stmt", f"{len(p.statements)} top-level statements (limit {limits.max_top_level})"
        ))
    for i, s in enumerate(p.statements):
        _check_stmt(s, f"stmt[{i}]", 0, out, limits)
    return ValidationReport(ok=not out, violations=tuple(out))


def reference_format_token_lines(t: TokenProgram) -> str:
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


def reference_parse_token_lines(src: str) -> TokenProgram:
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
