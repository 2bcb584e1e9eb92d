"""Text grammar: canonical printing, parsing, and error reporting."""
import re
import sys

import pytest

from voxscript.dsl import (Axis, DrawStmt, ForStmt, Program, Semantics, ShapeKind,
                           parse_text, print_text)
from voxscript.errors import DslSemanticError, DslSyntaxError

from randprog import random_program

CANONICAL = """\
draw(Top, Cub, P=(8,20,8), G=(2,16,16))
for(Trans, i=4, u=(0,0,6)) {
  draw(Leg, Cyl, P=(4,0,4), G=(18,2))
}
for(Rot, i=4, theta=90, axis=Y) {
  draw(Leg, Cub, P=(4,0,15), G=(18,2,2))
}
"""


def test_print_canonical_form():
    p = Program((
        DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8, 20, 8), (2, 16, 16)),
        ForStmt.translation(4, (0, 0, 6),
                            (DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (4, 0, 4), (18, 2)),)),
        ForStmt.rotation(4, 90, Axis.Y,
                         (DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (4, 0, 15), (18, 2, 2)),)),
    ))
    assert print_text(p) == CANONICAL


def test_parse_canonical_form():
    p = parse_text(CANONICAL)
    assert len(p.statements) == 3
    assert print_text(p) == CANONICAL


def test_nested_loop_indentation():
    src = ("for(Trans, i=2, u=(12,0,0)) {\n"
           "  for(Trans, i=2, u=(0,0,12)) {\n"
           "    draw(Leg, Cub, P=(9,0,9), G=(20,2,2))\n"
           "  }\n"
           "}\n")
    assert print_text(parse_text(src)) == src


def test_whitespace_insensitive_parse():
    a = parse_text("draw(Top,Cub,P=(8,20,8),G=(2,16,16))")
    b = parse_text("  draw( Top , Cub , P=( 8 , 20 , 8 ) , G=( 2 , 16 , 16 ) )  \n")
    assert a == b


def test_tilted_cuboid_roundtrip():
    src = "draw(Back, Cub, P=(10,11,7), G=(12,3,18,-15))\n"
    assert print_text(parse_text(src)) == src


def test_roundtrip_random_programs():
    for seed in range(100):
        p = random_program(seed)
        assert parse_text(print_text(p)) == p


# (value, the text print_text writes for it): angles that repr writes with an
# exponent are written positionally with the same digits
FLOAT_ANGLES = [(1e-05, "0.00001"), (2.5e-07, "0.00000025"),
                (51.42857142857143, "51.42857142857143"), (-0.0001, "-0.0001")]


def float_angle_program(angle):
    """A valid program that rotates by ``angle`` and tilts a Cub by it (or,
    past the 45-degree tilt limit, by ``angle - 45``)."""
    tilt = angle if abs(angle) <= 45 else angle - 45
    leg = DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (4, 0, 15), (18, 2, 2, tilt))
    return Program((leg, ForStmt.rotation(4, angle, Axis.Y, (leg,))))


@pytest.mark.parametrize("angle,text", FLOAT_ANGLES)
def test_roundtrip_float_angles_and_tilts(angle, text):
    p = float_angle_program(angle)
    src = print_text(p)
    assert f"theta={text}," in src
    assert parse_text(src) == p


@pytest.mark.parametrize("number", ["２", "８", "٣", "1_2", "inf", "nan", "1e400", "1e-05", "5.", "-.5"])
def test_numbers_other_than_ascii_decimals_are_syntax_errors(number):
    with pytest.raises(DslSyntaxError):
        parse_text(f"draw(Top, Cub, P=({number},0,0), G=(2,16,16))", validate=False)
    with pytest.raises(DslSyntaxError):
        parse_text(f"for(Rot, i=2, theta={number}, axis=Y) {{\n"
                   f"  draw(Top, Cub, P=(0,0,0), G=(2,16,16))\n}}\n", validate=False)


def test_syntax_error_position():
    with pytest.raises(DslSyntaxError) as exc:
        parse_text("draw(Top, Cub, P=(8,20,8) G=(2,16,16))")
    assert exc.value.line == 1
    assert exc.value.col > 1
    assert exc.value.expected


def test_syntax_error_unknown_name():
    with pytest.raises(DslSyntaxError):
        parse_text("draw(Shelf, Cub, P=(0,0,0), G=(1,1,1))")
    with pytest.raises(DslSyntaxError):
        parse_text("draw(Top, Sphere, P=(0,0,0), G=(1,1))")


def test_syntax_error_bad_character():
    with pytest.raises(DslSyntaxError) as exc:
        parse_text("draw(Top, Cub, P=(0,0,0), G=(1,1,1));")
    assert exc.value.line == 1


@pytest.mark.parametrize("src", [
    "-.",
    "Leg Cub(1,2,-.,4,5,6)",
    "draw(Top, Cub, P=(0,0,0), G=(1,1,-.))",
    "draw(Top, Cub, P=(0,0,0), G=(1,1," + "9" * 5000 + "))",
], ids=["dash-dot", "dash-dot-in-garbage", "dash-dot-geometry", "5000-digit-integer"])
def test_malformed_number_is_syntax_error(src):
    with pytest.raises(DslSyntaxError) as exc:
        parse_text(src)
    assert "malformed number" in str(exc.value)


def test_nesting_past_parser_cap_is_syntax_error():
    def nested(n):
        return "for(Trans, i=2, u=(0,0,0)) {" * n + "draw(Top, Cub, P=(0,0,0), G=(1,1,1))" + "}" * n

    assert len(parse_text(nested(64), validate=False).statements) == 1
    for n in (65, 2000):
        with pytest.raises(DslSyntaxError):
            parse_text(nested(n), validate=False)


def test_syntax_error_unclosed_block():
    with pytest.raises(DslSyntaxError):
        parse_text("for(Trans, i=2, u=(0,0,1)) {\n  draw(Top, Cub, P=(0,0,0), G=(1,1,1))\n")


def test_geometry_arity_checked_at_parse():
    with pytest.raises(DslSyntaxError):
        parse_text("draw(Leg, Cyl, P=(0,0,0), G=(1,1,1))")
    with pytest.raises(DslSyntaxError):
        parse_text("draw(Top, Cub, P=(0,0,0), G=(1,1))")


def test_semantic_error_on_invalid_program():
    with pytest.raises(DslSemanticError) as exc:
        parse_text("draw(Top, Cub, P=(99,0,0), G=(2,2,2))")
    assert exc.value.path == "stmt[0]"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="str() writes ints of any length")
def test_print_refuses_an_int_too_long_to_write():
    """str() writes an int of at most sys.get_int_max_str_digits() digits, so
    print_text refuses a longer one at its statement's path."""
    huge = 10 ** sys.get_int_max_str_digits()
    ok = DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (1, 0, 0), (1, 1, 1))
    cases = [
        (DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (huge, 0, 0), (1, 1, 1)), "stmt[1]"),
        (DrawStmt(Semantics.LEG, ShapeKind.LINE, (0, 0, 0), (0, -huge, 0)), "stmt[1]"),
        (ForStmt.translation(huge, (1, 0, 0), (ok,)), "stmt[1]"),
        (ForStmt.translation(2, (0, 0, -huge), (ok,)), "stmt[1]"),
        (ForStmt.rotation(2, huge, Axis.Y, (ok,)), "stmt[1]"),
        (ForStmt.translation(2, (1, 0, 0), (ok, ForStmt.rotation(2, 90, Axis.X, (
            DrawStmt(Semantics.TOP, ShapeKind.CYLINDER, (0, 0, 0), (1, huge)),)))),
         "stmt[1].body[1].body[0]"),
    ]
    for stmt, path in cases:
        with pytest.raises(DslSemanticError) as exc:
            print_text(Program((ok, stmt, ok)))
        assert exc.value.path == path


def test_validate_flag_skips_semantics():
    p = parse_text("draw(Top, Cub, P=(99,0,0), G=(2,2,2))", validate=False)
    assert p.statements[0].position == (99, 0, 0)


def test_rotation_axis_names():
    for ax in "XYZ":
        p = parse_text(f"for(Rot, i=2, theta=45, axis={ax}) {{\n"
                       "  draw(Leg, Cyl, P=(4,0,4), G=(18,2))\n}\n")
        assert p.statements[0].axis is Axis[ax]


def test_negative_numbers():
    p = parse_text("for(Trans, i=2, u=(-3,0,4)) {\n"
                   "  draw(Back, Cub, P=(10,11,7), G=(12,3,18,-15))\n}\n")
    f = p.statements[0]
    assert f.step == (-3, 0, 4)
    assert f.body[0].geometry[3] == -15


def test_empty_source_is_empty_program():
    assert parse_text("") == Program(())
    assert print_text(Program(())) == ""


SEMANTIC_NAMES = ("Leg", "Top", "Layer", "Support", "Base", "Sideboard", "HBar", "VBoard",
                  "Locker", "Back", "BackSup", "Beam")
NEST = "for(Trans, i=2, u=(0,0,0)) {"
DRAW = "draw(Top, Cub, P=(0,0,0), G=(1,1,1))"

# (source, message, line, col, expected), as the character-walk lexer
# reported them; positions count tabs and "\r" as one column each
SYNTAX_ERRORS = [
    ("draw(Top, Cub, P=(8,20,8) G=(2,16,16))", "unexpected 'G'", 1, 27, (",",)),
    (DRAW + ";", "unexpected character ';'", 1, 37, ()),
    ("draw(Shelf, Cub, P=(0,0,0), G=(1,1,1))", "unexpected 'Shelf'", 1, 6, SEMANTIC_NAMES),
    ("draw(Top, Sphere, P=(0,0,0), G=(1,1))", "unexpected 'Sphere'", 1, 11,
     ("Cub", "Cyl", "Cir", "Sqr", "Rect", "Line")),
    ("draw(Leg, Cyl, P=(0,0,0), G=(1,1,1))", "Cyl takes 2 geometry arguments, got 3", 1, 6, ()),
    ("draw(Top, Cub, P=(0,0,2.5), G=(1,1,1))", "unexpected '2.5'", 1, 23, ("integer",)),
    ("draw(Top, Cub, P=(0,0,0), G=(1,1,-.))", "malformed number '-.'", 1, 34, ()),
    ("draw(Top, Cub, P=(0,0,0), G=(1,1,5.))", "malformed number '5.'", 1, 34, ()),
    ("draw(Top, Cub, P=(0,0,0), G=(1.2.3,1,1))", "unexpected character '.'", 1, 33, ()),
    (DRAW + "\n}\n", "unexpected '}'", 2, 1, ("draw", "for")),
    ("for(Trans, i=2, u=(0,0,1)) {\n  " + DRAW + "\n", "unexpected end of input", 3, 1,
     ("draw", "for", "}")),
    ("for(Rot, i=2, theta=90, axis=W) {\n}\n", "unexpected 'W'", 1, 30, ("X", "Y", "Z")),
    ("for(Spin, i=2) {}", "unexpected 'Spin'", 1, 5, ("Trans", "Rot")),
    ("draw(Top, Cub,\tP=(0,0,0),\r\n\tG=(1,1,1))\r\n\tdraw(Top, Cub, P=(0,0,²), G=(1,1,1))\n",
     "unexpected character '²'", 3, 24, ()),
    ("\tfor(Trans, i=2, u=(0,0,1)) {\r\n\t\t" + DRAW + " )\n}\n", "unexpected ')'", 2, 40,
     ("draw", "for", "}")),
    (DRAW + "\n\r\t  draw(Top, Cub, P=(0,0,0), G=(1,1,1)\xa0)", "unexpected character '\\xa0'",
     2, 40, ()),
    (DRAW + "\n  draw(Top, Cub, P=(0,0,0), G=(1,1,-5 ٣))", "unexpected character '٣'", 2, 39, ()),
    (NEST * 65 + DRAW + "}" * 65, "loops nested deeper than 64", 1, 1820, ()),
    # a lexical error anywhere wins over a parse error before it
    ((NEST + "\n") * 65 + DRAW + "}" * 65 + "\n½", "unexpected character '½'", 67, 1, ()),
]


@pytest.mark.parametrize("src,message,line,col,expected", SYNTAX_ERRORS)
def test_syntax_errors_pinned(src, message, line, col, expected):
    with pytest.raises(DslSyntaxError) as exc:
        parse_text(src, validate=False)
    hint = f"; expected one of: {', '.join(expected)}" if expected else ""
    assert str(exc.value) == f"line {line}, col {col}: {message}{hint}"
    assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected)


def test_regex_word_classes_match_the_grammar():
    """The lexer's name pattern relies on \\w matching exactly what
    str.isalnum() or "_" accepts, and on no letter being a decimal digit."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", chars)) == {c for c in chars if c.isalnum() or c == "_"}
    assert {c for c in chars if c.isalpha()} <= set(re.findall(r"[^\W\d]", chars))
