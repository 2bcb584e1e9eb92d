"""Decoders on malformed input: each returns a value or raises an InputError.

Inputs are arbitrary text or bytes, and valid encodings with a few edits
applied, so both the lexers and the checks past them are reached.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from voxscript.binvox import read_binvox, write_binvox
from voxscript.dsl import (VACANT_ID, detokenize, format_token_lines, parse_text,
                           parse_token_lines, print_text, tokenize, validate_program)
from voxscript.errors import InputError

from randprog import random_program
from reference_text import reference_parse_text

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
