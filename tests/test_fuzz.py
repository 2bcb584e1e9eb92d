"""Decoders on malformed input: each returns a value or raises an InputError.

Inputs are arbitrary text or bytes, and valid encodings with a few edits
applied, so both the lexers and the checks past them are reached.
"""
import dataclasses

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st

from voxscript.binvox import read_binvox, write_binvox
from voxscript.dsl import (VACANT_ID, Axis, DrawStmt, ForStmt, Limits, LoopMode, Program,
                           Semantics, ShapeKind, TokenProgram, detokenize, format_token_lines,
                           parse_text, parse_token_lines, print_text, tokenize, validate_program)
from voxscript.errors import DslSemanticError, InputError, TokenError

from randprog import random_program
from reference_text import reference_parse_text
from reference_tokens import (reference_format_token_lines, reference_parse_token_lines,
                              reference_validate_program)

DSL_CHARS = "drawforTansRotCubCylLineLegTopPGiuthetaxisYXZ=(){},-.0123456789 \n"
DSL_PIECES = ("-.", "-", ".", "(", ")", "{", "}", ",", "=", "draw", "for", "9" * 5000)
TOKEN_FIELDS = ("0", "1", "2", "-1", "5", "6", "73", "74", "75", "76", "90", "2.5", "-.",
                "1e400", "nan", "inf", "9" * 40, "x")


def decodes_or_raises_input_error(decode, data):
    try:
        decode(data)
    except InputError:
        pass


@st.composite
def edited(draw, valid, alphabet):
    """A valid encoding with up to four characters replaced, inserted or deleted."""
    out = draw(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        piece = draw(alphabet)
        keep = draw(st.sampled_from((0, 1)))  # 0 replaces or deletes, 1 inserts
        out = out[:i] + piece + out[i + 1 - keep:]
    return out


programs = st.integers(0, 10 ** 6).map(random_program)
texts = st.one_of(st.text(alphabet=DSL_CHARS, max_size=120), st.text(max_size=60),
                  edited(programs.map(print_text),
                         st.sampled_from(DSL_PIECES) | st.text(alphabet=DSL_CHARS, max_size=3)))
token_lines = st.one_of(
    st.lists(st.lists(st.sampled_from(TOKEN_FIELDS), min_size=7, max_size=9).map(" ".join),
             max_size=10).map("\n".join),
    edited(programs.map(lambda p: format_token_lines(tokenize(p))),
           st.sampled_from(TOKEN_FIELDS + (" ", "\n", ""))))
grids = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
                  st.integers(0, 2 ** 32 - 1)).map(
    lambda a: np.random.default_rng(a[3]).random(a[:3]) < 0.4)
binvox_headers = st.sampled_from((b"", b"#binvox 1\n", b"#binvox 1\ndim 2 2 2\ndata\n",
                                  b"#binvox 1\ndim 2 1 1\ntranslate 0 0 0\nscale 1\ndata\n",
                                  b"#binvox 1\ndim 99999 99999 99999\ndata\n"))
binvox_files = st.one_of(
    st.builds(bytes.__add__, binvox_headers, st.binary(max_size=40)),
    edited(grids.map(write_binvox), st.binary(max_size=3)))


@settings(max_examples=400)
@given(texts)
def test_parse_text_raises_only_input_errors(src):
    decodes_or_raises_input_error(parse_text, src)
    decodes_or_raises_input_error(lambda s: parse_text(s, validate=False), src)


@settings(max_examples=400)
@given(token_lines)
def test_token_lines_raise_only_input_errors(src):
    decodes_or_raises_input_error(lambda s: detokenize(parse_token_lines(s)), src)


@settings(max_examples=400)
@given(token_lines)
def test_decoded_tokens_reencode_to_input(src):
    try:
        steps = parse_token_lines(src).steps
        program = detokenize(parse_token_lines(src))
    except InputError:
        return
    if validate_program(program).ok:
        assert tokenize(program).steps == tuple(s for s in steps if s.id != VACANT_ID)


@settings(max_examples=400)
@given(token_lines)
@example("1 0 0 0 1.0 1 1 0")
@example("01 0 0 0 1 1 1 0\n\t1 0 0 0  1 1 1 -0 ")
def test_parsed_token_lines_print_back_to_their_text(src):
    """Each program has one token text: rows that parse print back as they
    were written, up to whitespace."""
    try:
        t = parse_token_lines(src)
    except InputError:
        return
    rows = [" ".join(line.split()) + "\n" for line in src.splitlines() if line.split()]
    assert format_token_lines(t) == "".join(rows)


@settings(max_examples=400)
@given(binvox_files)
def test_read_binvox_raises_only_input_errors(data):
    decodes_or_raises_input_error(read_binvox, data)


def parse_outcome(parse, src, **kwargs):
    """The program ``parse`` returns, or what identifies the error it raises."""
    try:
        return parse(src, **kwargs)
    except InputError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None),
                getattr(exc, "expected", None))


def nested(n, inner="draw(Top, Cub, P=(0,0,0), G=(1,1,1))"):
    return "for(Trans, i=2, u=(0,0,0)) {" * n + inner + "}" * n


# characters where Python's notions of letters, digits and whitespace part:
# "²" and "½" are word characters but no letter or decimal digit, "٣" is a
# decimal digit but not an ASCII one, and neither space below is " \t\r\n"
UNICODE_EDGES = ("²", "½", "٣", "Ⅻ", "\xa0", "　", "_", "\t", "\r", "\n")
TEXT_PIECES = DSL_PIECES + UNICODE_EDGES + ("5.", "1.2.3", "-5", "}", "{" * 3, "draw(", ";")
reference_texts = st.one_of(
    texts,
    st.text(max_size=80),
    st.text(alphabet=DSL_CHARS + "".join(UNICODE_EDGES), max_size=120),
    edited(programs.map(print_text),
           st.sampled_from(TEXT_PIECES) | st.text(alphabet=DSL_CHARS, max_size=3)),
    st.builds(nested, st.sampled_from((1, 3, 63, 64, 65, 2000)),
              st.sampled_from(("draw(Top, Cub, P=(0,0,0), G=(1,1,1))", "", "²", "draw(Top,",
                               "draw(Top, Cub, P=(0,0,0), G=(1,1," + "9" * 5000 + "))"))),
)


@settings(max_examples=1000)
@given(reference_texts)
@example(nested(65) + "²")
@example(nested(2000, ""))
@example("draw(Top, Cub, P=(0,0,0), G=(1,1,1)) 5. draw(")
def test_parse_text_matches_reference_parser(src):
    for kwargs in ({}, {"validate": False}):
        assert (parse_outcome(parse_text, src, **kwargs)
                == parse_outcome(reference_parse_text, src, **kwargs))


# Values a statement field must refuse, next to ones it may take.
ODD_VALUES = (True, False, 2.5, float("nan"), -1, 0, 1, 31, 32, 40, 10 ** 6, -45.5, 45, "7",
              None)
ODD_STEPS = (None, (1, 2), (0, 0, 0, 0), (1.5, 0, 0), (True, 0, 0), ("a", 0, 0), (3, -2, 0))


def mutated_draw(d, rng):
    pick = lambda options: options[int(rng.integers(len(options)))]
    sem, shape, pos, geom = d.semantics, d.shape, list(d.position), list(d.geometry)
    kind = int(rng.integers(6))
    if kind == 0:
        pos[int(rng.integers(3))] = pick(ODD_VALUES)
    elif kind == 1:
        geom[int(rng.integers(len(geom)))] = pick(ODD_VALUES)
    elif kind == 2:
        geom.append(pick(ODD_VALUES))
    elif kind == 3:
        (pos if rng.random() < 0.5 else geom).pop()
    elif kind == 4:
        sem = pick((Semantics.TOP, "Leg", None))
    else:
        shape = pick(tuple(ShapeKind) + ("Cub",))
    return DrawStmt(sem, shape, tuple(pos), tuple(geom))


def mutated_statement(s, rng):
    """``s`` with some fields, at any depth, set to odd values."""
    if isinstance(s, DrawStmt):
        return mutated_draw(s, rng) if rng.random() < 0.3 else s
    body = tuple(mutated_statement(b, rng) for b in s.body)
    s = dataclasses.replace(s, body=body)
    if rng.random() < 0.3:
        field, options = [
            ("times", ODD_VALUES + (300,)),
            ("step", ODD_STEPS),
            ("angle", (None, True, "x", 2.5, float("nan"), 90)),
            ("axis", (None, "Y", Axis.X)),
            ("body", ((), body * 20, body + ("not a statement",))),
            ("mode", ("Trans", LoopMode.ROTATION, LoopMode.TRANSLATION)),
        ][int(rng.integers(6))]
        s = dataclasses.replace(s, **{field: options[int(rng.integers(len(options)))]})
    return s


def mutated_program(seed, mutation_seed):
    """A random program with odd values, arities and kinds at any depth, and
    maybe too deep, too large or too long."""
    rng = np.random.default_rng(mutation_seed)
    statements = [mutated_statement(s, rng) for s in random_program(seed).statements]
    kind = int(rng.integers(4))
    if kind == 0:  # nest the first statement in 1-5 more loops
        for _ in range(int(rng.integers(1, 6))):
            statements[0] = ForStmt.translation(2, (0, 0, 0), (statements[0],))
    elif kind == 1:  # repeat the first statement up to 3,000 times
        statements[0] = ForStmt.rotation(int(rng.integers(2, 3000)), 30, Axis.Y, (statements[0],))
    elif kind == 2:  # more top-level statements than the limit
        statements = statements * int(rng.integers(1, 12))
    return Program(tuple(statements))


ANGLE_FAULT = "rotation angle k * angle must be a finite float for every copy k < times"
LIMITS = (Limits(), Limits.for_dims((48, 48, 48)),
          Limits(max_top_level=2, max_expanded=6, max_for_depth=1, max_coord=9, max_extent=4,
                 max_tilt=10.0))


@settings(max_examples=600)
@given(st.one_of(programs, st.builds(mutated_program, st.integers(0, 10 ** 6),
                                     st.integers(0, 2 ** 32 - 1))))
def test_validate_program_matches_reference(p):
    """The same report, except where the reference raises: it sizes a loop
    before checking its body, so a non-statement or a times that is not a
    number below it escapes as an AttributeError or a TypeError. The one
    refusal the reference lacks is a rotation angle that some copy cannot
    turn by, a nan or an infinity among them."""
    for limits in LIMITS:
        report = validate_program(p, limits)
        try:
            expect = reference_validate_program(p, limits)
        except (AttributeError, TypeError):
            assert not report.ok
        else:
            shared = tuple(v for v in report.violations if v.message != ANGLE_FAULT)
            assert shared == expect.violations


BIG = 10 ** 5000  # more digits than str() writes by default
NAN, INF = float("nan"), float("inf")
# Values for one field of a statement: malformed ones, and well-formed ones
# that are malformed next to some other field (a step in a rotation loop).
MALFORMED = {
    DrawStmt: {
        "semantics": (LoopMode.TRANSLATION, ShapeKind.CUBOID, "Leg", None),
        "shape": (Semantics.LEG, LoopMode.ROTATION, "Cub", None, ShapeKind.LINE),
        "position": ((1.5, 0, 0), (2.0, 0, 0), (1, 0), (0, 0, 0, 0), (True, 0, 0), ("a", 0, 0),
                     (NAN, 0, 0), (-1, 0, 0), (BIG, 0, 0)),
        "geometry": ((), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, INF, 1), (1, 1, 1, NAN),
                     (1, 1, 1, -INF), (1.5, 1, 1), (1, 1, 1, 2.5), (1, 1, 1, True), (1, None, 1),
                     (1, 1, 1, "x"), (1, 1, 1, BIG)),
    },
    ForStmt: {
        "mode": ("Trans", "Rot", None, LoopMode.TRANSLATION, LoopMode.ROTATION, Axis.X),
        "times": (2.5, 2.0, True, 0, -3, None, "2", NAN, 10 ** 6, BIG),
        "step": (None, (1, 0), (1.5, 0, 0), (2.0, 0, 0), (True, 0, 0), ("a", 0, 0),
                 (0, 0, 0, 0), (1, 0, 0), (BIG, 0, 0)),
        "angle": (None, 90, 2.5, NAN, INF, True, "x", 1e300, BIG),
        "axis": (None, Axis.X, "Y", LoopMode.ROTATION),
        "body": ((), ("x",), (None,)),
    },
}


def statements_at(statements, where=()):
    """(index trail, statement) of each of ``statements`` and of their
    bodies', in print order."""
    for j, s in enumerate(statements):
        yield (*where, j), s
        if isinstance(s, ForStmt):
            yield from statements_at(s.body, (*where, j))


def replaced(statements, at, stmt) -> tuple:
    """``statements`` with the one at index trail ``at`` replaced by ``stmt``."""
    j = at[0]
    if len(at) > 1:
        stmt = dataclasses.replace(statements[j], body=replaced(statements[j].body, at[1:], stmt))
    return (*statements[:j], stmt, *statements[j + 1:])


@st.composite
def one_field_malformed(draw):
    """A random program with one field of one statement, at any depth, set to
    a value from MALFORMED; a value the statement's constructor refuses is
    skipped."""
    p = draw(programs)
    at, s = draw(st.sampled_from(list(statements_at(p.statements))))
    field, values = draw(st.sampled_from(list(MALFORMED[type(s)].items())))
    try:
        s = dataclasses.replace(s, **{field: draw(st.sampled_from(values))})
    except (TypeError, ValueError):
        reject()
    return Program(replaced(p.statements, at, s))


@settings(max_examples=500)
@given(one_field_malformed())
def test_print_text_writes_what_parse_text_reads_back(p):
    """print_text raises DslSemanticError, or writes text that parses,
    unvalidated, back to the same program."""
    try:
        text = print_text(p)
    except DslSemanticError:
        return
    assert parse_text(text, validate=False) == p


def token_outcome(parse, src):
    try:
        return parse(src)
    except InputError as exc:
        return type(exc), str(exc), exc.step


NON_CANONICAL = ("00", "-0", "01", "-05", "1.0", "2.50", "-0.0", "007.5", "0400")
reference_token_lines = st.one_of(
    token_lines,
    edited(programs.map(lambda p: format_token_lines(tokenize(p))),
           st.sampled_from(NON_CANONICAL + TOKEN_FIELDS + ("0", "-", ".", " ", "\t", "\n"))))


@settings(max_examples=1000)
@given(reference_token_lines)
@example("1.0 0 0 0 1 1 1 0")
@example("1 0 0 0 1 1 1 0\n1 00 0 0 1 1 1 x")
def test_parse_token_lines_matches_reference(src):
    new = token_outcome(parse_token_lines, src)
    old = token_outcome(reference_parse_token_lines, src)
    if new != old:
        # the one difference allowed: a row the reference took is refused
        # because a number in it is not written as format_number writes it
        kind, message, step = new
        assert kind is TokenError and "must be written" in message
        assert isinstance(old, TokenProgram) or old[2] > step


numbers = st.one_of(st.integers(-400, 400), st.integers(-10 ** 30, 10 ** 30),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400)
@given(st.one_of(
    programs.map(tokenize),
    st.lists(st.tuples(st.integers(0, 80), st.lists(numbers, min_size=6, max_size=8)),
             max_size=6).map(TokenProgram)))
def test_format_token_lines_matches_reference(t):
    assert format_token_lines(t) == reference_format_token_lines(t)
