"""Token codec: id layout, encode/decode, line and JSON containers."""
import json
import sys

import pytest

from voxscript.dsl import (Axis, DrawStmt, ForStmt, Limits, N_ARG_SLOTS, Program, Semantics,
                           ShapeKind, TokenProgram, TokenStep, VOCAB_SIZE, detokenize,
                           draw_token_id, format_token_lines, parse_token_lines,
                           token_program_from_json, token_program_to_json, tokenize,
                           vocabulary)
from voxscript.errors import TokenError

from randprog import random_program
from test_text import FLOAT_ANGLES, float_angle_program


def test_id_layout():
    assert N_ARG_SLOTS == 7
    assert VOCAB_SIZE == 76
    assert draw_token_id(Semantics.LEG, ShapeKind.CUBOID) == 1
    assert draw_token_id(Semantics.LEG, ShapeKind.LINE) == 6
    assert draw_token_id(Semantics.TOP, ShapeKind.CUBOID) == 7
    assert draw_token_id(Semantics.BEAM, ShapeKind.LINE) == 72


def test_vocabulary_table():
    vocab = vocabulary()
    assert len(vocab) == VOCAB_SIZE
    assert vocab[0] == "Vacant"
    assert vocab[73] == "ForTrans"
    assert vocab[74] == "ForRot"
    assert vocab[75] == "EndFor"
    assert "Leg" in vocab[1] and "Cub" in vocab[1]


def test_tokenize_known_program():
    p = Program((
        DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (8, 20, 8), (2, 16, 16)),
        ForStmt.translation(4, (0, 0, 6),
                            (DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (4, 0, 4), (18, 2)),)),
        ForStmt.rotation(4, 90, Axis.Y,
                         (DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (4, 0, 15), (18, 2, 2)),)),
    ))
    t = tokenize(p)
    rows = [(s.id,) + tuple(s.args) for s in t.steps]
    assert rows == [
        (7, 8, 20, 8, 2, 16, 16, 0),
        (73, 4, 0, 0, 6, 0, 0, 0),
        (2, 4, 0, 4, 18, 2, 0, 0),
        (75, 0, 0, 0, 0, 0, 0, 0),
        (74, 4, 90, 1, 0, 0, 0, 0),
        (1, 4, 0, 15, 18, 2, 2, 0),
        (75, 0, 0, 0, 0, 0, 0, 0),
    ]


def test_roundtrip_random_programs():
    for seed in range(100):
        p = random_program(seed)
        assert detokenize(tokenize(p)) == p


def test_vacant_steps_dropped():
    p = random_program(3)
    t = tokenize(p)
    padded = TokenProgram(t.steps[:1] + (TokenStep(0, (0,) * 7),) + t.steps[1:])
    assert detokenize(padded) == p


def test_cuboid_tilt_uses_seventh_slot():
    d = DrawStmt(Semantics.BACK, ShapeKind.CUBOID, (10, 11, 7), (12, 3, 18, -15))
    t = tokenize(Program((d,)))
    assert tuple(t.steps[0].args) == (10, 11, 7, 12, 3, 18, -15)
    assert detokenize(t).statements[0].geometry == (12, 3, 18, -15)


@pytest.mark.parametrize("row", [
    (2, (3, 0, 3, 5, 2, 9, 9)),   # Cyl uses 5 slots
    (2, (3, 0, 3, 5, 2, 0, 1)),
    (4, (3, 0, 3, 5, 2, 7, 0)),   # Sqr
    (3, (3, 0, 3, 5, 2, 2, 4)),   # Cir
    (5, (3, 0, 3, 5, 2, 2, 4)),   # Rect uses 6 slots
    (6, (1, 2, 3, 4, 5, 6, 7)),   # Line
])
def test_garbage_in_unused_slots_rejected(row):
    with pytest.raises(TokenError) as exc:
        detokenize(TokenProgram((TokenStep(1, (0, 0, 0, 1, 1, 1, 0)), TokenStep(*row))))
    assert exc.value.step == 1


DRAW = TokenStep(1, (0, 0, 0, 1, 1, 1, 0))
END = TokenStep(75, (0,) * 7)


@pytest.mark.parametrize("steps, bad", [
    ((TokenStep(73, (2, 1, 0, 0, 9, 9, 9)), DRAW, END), 0),   # ForTrans uses 4 slots
    ((TokenStep(73, (2, 1, 0, 0, 0, 0, 1)), DRAW, END), 0),
    ((TokenStep(74, (2, 90, 1, 5, 0, 0, 0)), DRAW, END), 0),  # ForRot uses 3 slots
    ((TokenStep(74, (2, 90, 1, 0, 0, 0, 2)), DRAW, END), 0),
    ((TokenStep(73, (2, 1, 0, 0, 0, 0, 0)), DRAW, TokenStep(75, (5,) * 7)), 2),
    ((DRAW, TokenStep(0, (0, 0, 0, 0, 0, 0, 3))), 1),         # vacant rows are all 0
])
def test_garbage_in_unused_loop_slots_rejected(steps, bad):
    with pytest.raises(TokenError) as exc:
        detokenize(TokenProgram(steps))
    assert exc.value.step == bad


def test_nesting_past_decoder_cap_rejected():
    def nested(n):
        return TokenProgram((TokenStep(73, (2, 0, 0, 0, 0, 0, 0)),) * n + (DRAW,) + (END,) * n)

    assert len(detokenize(nested(64)).statements) == 1
    with pytest.raises(TokenError) as exc:
        detokenize(nested(3000))
    assert exc.value.step == 64


def test_end_without_open():
    with pytest.raises(TokenError) as exc:
        detokenize(TokenProgram((TokenStep(75, (0,) * 7),)))
    assert exc.value.step == 0


def test_unclosed_loop():
    with pytest.raises(TokenError):
        detokenize(TokenProgram((TokenStep(73, (2, 1, 0, 0, 0, 0, 0)),)))


def test_unknown_id():
    with pytest.raises(TokenError):
        detokenize(TokenProgram((TokenStep(76, (0,) * 7),)))
    with pytest.raises(TokenError):
        detokenize(TokenProgram((TokenStep(-1, (0,) * 7),)))


def test_bad_axis_code():
    with pytest.raises(TokenError):
        detokenize(TokenProgram((
            TokenStep(74, (2, 90, 3, 0, 0, 0, 0)),
            TokenStep(1, (0, 0, 0, 1, 1, 1, 0)),
            TokenStep(75, (0,) * 7),
        )))


def test_line_format_roundtrip():
    for seed in range(30):
        t = tokenize(random_program(seed))
        assert parse_token_lines(format_token_lines(t)) == t


@pytest.mark.parametrize("angle,text", FLOAT_ANGLES)
def test_line_format_roundtrip_float_angles_and_tilts(angle, text):
    p = float_angle_program(angle)
    lines = format_token_lines(tokenize(p))
    assert f"74 4 {text} 1 " in lines
    assert detokenize(parse_token_lines(lines)) == p


@pytest.mark.parametrize("row", ["1_2 0 0 0 1 1 1 0", "２ 0 0 0 1 1 1 0", "1 ８ 0 0 1 1 1 0",
                                 "74 2 inf 1 0 0 0 0", "74 2 nan 1 0 0 0 0", "74 2 1e400 1 0 0 0 0",
                                 "74 2 1e-05 1 0 0 0 0", "74 2 5. 1 0 0 0 0", "74 2 .5 1 0 0 0 0",
                                 "74 2 +5 1 0 0 0 0", "74 2 " + "9" * 400 + ".5 1 0 0 0 0"])
def test_line_format_refuses_numbers_other_than_ascii_decimals(row):
    with pytest.raises(TokenError):
        parse_token_lines(row + "\n")


@pytest.mark.parametrize("row", ["1.0 0 0 0 1 1 1 0", "1 0 0 0 1.0 1 1 0", "1 -0 0 0 1 1 1 0",
                                 "1 00 0 0 1 1 1 0", "01 0 0 0 1 1 1 0", "1 0 0 0 1 1 1 -00",
                                 "1 0 0 0 1 1 1 0400", "1 0 0 0 1 1 1 0" + "9" * 30,
                                 "74 2 90.0 1 0 0 0 0", "74 2 51.50 1 0 0 0 0",
                                 "74 2 051.5 1 0 0 0 0", "74 2 -0.0 1 0 0 0 0"])
def test_line_format_refuses_numbers_not_written_canonically(row):
    with pytest.raises(TokenError) as exc:
        parse_token_lines("1 0 0 0 1 1 1 0\n" + row + "\n")
    assert exc.value.step == 1 and "must be written" in str(exc.value)


def test_line_format_takes_any_whitespace_and_large_numbers():
    text = "74 2 51.5 1 0 0 0 0\n1 0 0 0 1 1 1 400\n1 0 0 0 1 1 1 -361\n75 0 0 0 0 0 0 0\n"
    loose = "\n \t\n" + "".join(" \t" + "  ".join(line.split()) + " \r\n\n"
                                 for line in text.splitlines())
    t = parse_token_lines(loose)
    assert t == parse_token_lines(text) and format_token_lines(t) == text
    assert t.steps[1].args[6] == 400 and t.steps[2].args[6] == -361
    big = "1 0 0 0 1 1 1 " + "9" * 40
    assert parse_token_lines(big).steps[0].args[6] == int("9" * 40)


def test_line_format_shape():
    t = tokenize(random_program(1))
    for line in format_token_lines(t).strip().splitlines():
        assert len(line.split()) == 1 + N_ARG_SLOTS


def test_line_format_errors():
    with pytest.raises(TokenError):
        parse_token_lines("1 2 3\n")
    with pytest.raises(TokenError):
        parse_token_lines("x 0 0 0 0 0 0 0\n")


def test_json_container_roundtrip():
    t = tokenize(random_program(5))
    blob = token_program_to_json(t)
    assert blob["n_ids"] == VOCAB_SIZE
    assert blob["n_args"] == N_ARG_SLOTS
    assert blob["vocabulary"]["75"] == "EndFor" or blob["vocabulary"][75] == "EndFor"
    json.dumps(blob)  # must be serializable as-is
    assert token_program_from_json(blob) == t


def test_tokenize_rejects_invalid_program():
    from voxscript.errors import InvalidProgramError
    bad = Program((DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (99, 0, 0), (18, 2)),))
    with pytest.raises(InvalidProgramError):
        tokenize(bad)


def test_tokenize_under_grid_limits():
    p = Program((DrawStmt(Semantics.LEG, ShapeKind.CYLINDER, (99, 0, 0), (18, 2)),))
    assert detokenize(tokenize(p, Limits.for_dims((100, 8, 8)))) == p


GOOD_STEP = [1, [0, 0, 0, 1, 1, 1, 0]]


@pytest.mark.parametrize("bad", [
    TokenStep(True, (0,) * 7), TokenStep("2", (0,) * 7), TokenStep(1.7, (0,) * 7),
    TokenStep(1.0, (0,) * 7), TokenStep(-1, (0,) * 7), TokenStep(None, (0,) * 7),
    TokenStep(1, (0, 0, 0, "a", 1, 1, 0)), TokenStep(1, (0, 0, 0, 1, 1, True, 0)),
    TokenStep(1, (0, 0, 0, 1, 1, float("nan"), 0)), TokenStep(1, (0, 0, 0, 1, 1, None, 0)),
    TokenStep(1, None), (1,), 5,
])
def test_token_program_refuses_malformed_steps(bad):
    with pytest.raises(TokenError) as exc:
        TokenProgram((TokenStep(*GOOD_STEP), bad))
    assert exc.value.step == 1


def test_token_program_keeps_args_canonical():
    t = TokenProgram(([74, [4, 90.0, 1, 0, 0, 0, 0]], (1, [0, 0, 0, 1, 1, 1, 2.5])))
    assert t.steps == (TokenStep(74, (4, 90, 1, 0, 0, 0, 0)),
                       TokenStep(1, (0, 0, 0, 1, 1, 1, 2.5)))
    assert type(t.steps[0].args[1]) is int


@pytest.mark.parametrize("bad", [
    5, [1], [[1], [0] * 7], [1, 5], [1, [0] * 6], [1, [0] * 8], [1, [0] * 7, 0],
    [1.7, [0] * 7], [1.0, [0] * 7], [True, [0] * 7], ["2", [0] * 7], [None, [0] * 7],
    [-1, [0] * 7], [1, [0, 0, 0, 1, 1, 1, "0"]], [1, [0, 0, 0, 1, 1, True, 0]],
    [1, [0, 0, 0, 1, 1, None, 0]], [1, [0, 0, 0, 1, 1, [1], 0]],
    [1, [0, 0, 0, 1, 1, float("inf"), 0]], [1, [0, 0, 0, 1, 1, float("nan"), 0]],
])
def test_json_refuses_malformed_steps(bad):
    with pytest.raises(TokenError) as exc:
        token_program_from_json({"steps": [GOOD_STEP, bad]})
    assert exc.value.step == 1


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="str() writes ints of any length")
def test_readers_refuse_an_int_too_long_to_write():
    """str() writes an int of at most sys.get_int_max_str_digits() digits, so
    every reader refuses a longer one with a TokenError at its step, and
    format_token_lines writes whatever a reader took."""
    limit = sys.get_int_max_str_digits()
    for huge in (10 ** 5000, -10 ** limit, 10 ** limit):
        for bad in ([huge, [0] * 7], [1, [0, 0, 0, 1, 1, huge, 0]]):
            for read in (lambda step: TokenProgram((GOOD_STEP, step)),
                         lambda step: token_program_from_json({"steps": [GOOD_STEP, step]})):
                with pytest.raises(TokenError) as exc:
                    read(bad)
                assert exc.value.step == 1
    with pytest.raises(TokenError) as exc:
        parse_token_lines("1 0 0 0 1 1 1 0\n1 0 0 0 1 1 1" + "0" * limit + " 0\n")
    assert exc.value.step == 1
    longest = 10 ** limit - 1
    t = token_program_from_json({"steps": [GOOD_STEP, [longest, [0, 0, 0, 1, 1, -longest, 0]]]})
    assert parse_token_lines(format_token_lines(t)) == t


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="str() writes ints of any length")
def test_format_refuses_an_int_too_long_to_write():
    """A TokenStep of plain ints is taken unchecked, so format_token_lines
    refuses an int too long for str() itself, with a TokenError at its step."""
    huge = 10 ** sys.get_int_max_str_digits()
    for bad in (TokenStep(1, (0, 0, 0, 1, 1, huge, 0)), TokenStep(huge, (0,) * 7),
                TokenStep(1, (0, 0, 0, 1, 1, -huge))):
        t = TokenProgram((TokenStep(1, (0, 0, 0, 1, 1, 1, 0)), bad))
        with pytest.raises(TokenError) as exc:
            format_token_lines(t)
        assert exc.value.step == 1


@pytest.mark.parametrize("obj", [[GOOD_STEP], "steps", None, {"steps": 5}, {"steps": "ab"},
                                 {"steps": {"0": GOOD_STEP}}])
def test_json_refuses_malformed_containers(obj):
    with pytest.raises(TokenError):
        token_program_from_json(obj)


def test_json_reads_text_with_float_args():
    blob = json.loads('{"steps": [[74, [4, 51.5, 1, 0, 0, 0, 0]], [1, [0, 0, 0, 1, 1, 1, 2.0]],'
                      ' [75, [0, 0, 0, 0, 0, 0, 0]]]}')
    t = token_program_from_json(blob)
    assert t.steps[0].args[1] == 51.5 and t.steps[1].args[6] == 2
    assert detokenize(t).statements[0].angle == 51.5
    # an int too large for a float is still a number
    big = token_program_from_json({"steps": [[1, [0, 0, 0, 1, 1, 10 ** 400, 0]]]})
    assert big.steps[0].args[5] == 10 ** 400


@pytest.mark.parametrize("steps", [
    (DRAW, TokenStep(1, (0, 0, 0, 1, 1, 1))),
    (DRAW, TokenStep(1, (0, 0, 0))),
    (DRAW, TokenStep(1, ())),
    (DRAW, TokenStep(74, (2, 90)), DRAW, END),
    (DRAW, TokenStep(73, (2, 1, 0, 0, 0, 0, 0, 0)), DRAW, END),
    (DRAW, TokenStep(75, ())),
    (DRAW, TokenStep(0, ())),
])
def test_detokenize_refuses_rows_of_other_lengths(steps):
    with pytest.raises(TokenError) as exc:
        detokenize(TokenProgram(steps))
    assert exc.value.step == 1
