"""Public entry points refuse malformed arguments with a typed VoxScriptError."""
import numpy as np
import pytest

from voxscript.analysis import (analyze_dataset, connected_components, convex_hull_2d,
                                format_analysis_json, format_analysis_table, point_in_hull,
                                stability_report)
from voxscript.binvox import read_binvox, write_binvox
from voxscript.dsl import (Program, detokenize, draw_token_id, format_token_lines, parse_text,
                           parse_token_lines, print_text, token_program_to_json, tokenize,
                           validate_program)
from voxscript.dsl.tokens import VOCAB_SIZE, TokenProgram, TokenStep
from voxscript.errors import InputError, VoxScriptError
from voxscript.executor import execute_program
from voxscript.inference import fit_program, propose_candidates
from voxscript.metrics import chamfer, emd, generator_loss, surface_points, weighted_bce
from voxscript.templates import builtin_templates, generate_dataset, sample

GRID = np.ones((4, 4, 4), dtype=bool)
HULL = convex_hull_2d([(0, 0), (4, 0), (0, 4)])
END = TokenProgram((TokenStep(VOCAB_SIZE - 1, (0,) * 7),))  # the end token alone


@pytest.mark.parametrize("call", [
    lambda: chamfer("ab", "cd"),
    lambda: surface_points(GRID, n=-1),
    lambda: surface_points(GRID, n=2.5),
    lambda: convex_hull_2d([(1,)]),
    lambda: point_in_hull((1,), HULL),
    lambda: write_binvox(GRID, translate=(1,)),
    lambda: write_binvox(GRID, scale="a"),
    lambda: read_binvox("abc"),
    lambda: sample(builtin_templates()[0], "abc"),
    lambda: execute_program(None),
    lambda: print_text(None),
    lambda: detokenize([1, 2]),
    lambda: tokenize(None),
    lambda: tokenize("x"),
    lambda: format_token_lines(Program(())),
    lambda: token_program_to_json(None),
    lambda: parse_text(None),
    lambda: parse_text(b"draw"),
    lambda: parse_token_lines(5),
    lambda: analyze_dataset(None),
    lambda: draw_token_id(None, None),
    lambda: format_analysis_json([1, 2]),
    lambda: format_analysis_table(None),
    lambda: generate_dataset(None),
    lambda: generator_loss(None, None, None),
    lambda: point_in_hull([1, 2], [1, 2]),
    lambda: sample(None, None),
    lambda: weighted_bce("x", "x"),
    lambda: weighted_bce(GRID, GRID, None),
    lambda: generator_loss(np.eye(VOCAB_SIZE)[[VOCAB_SIZE - 1]], np.zeros((1, 7)), END, None),
    lambda: analyze_dataset([GRID], None),
    lambda: stability_report(GRID, "six"),
    lambda: connected_components(GRID, "six"),
    lambda: fit_program(GRID, "x"),
    lambda: fit_program(GRID, None),
    lambda: propose_candidates(GRID, None),
    lambda: emd([[np.nan, 0, 0]], [[0, 0, 0]]),
    lambda: chamfer([[np.inf, 0, 0]], [[0, 0, 0]]),
    lambda: surface_points(GRID, 512, "x"),
    lambda: parse_text("draw(Base, Sqr, P=(1,2,3), G=(1,2))", limits=None),
    lambda: tokenize(Program(()), None),
    lambda: tokenize(Program(()), (32, 32, 32)),
    lambda: format_analysis_table(np.zeros((4, 4))),
], ids=["chamfer-strings", "surface-points-negative-n", "surface-points-float-n",
        "hull-of-1-tuples", "point-in-hull-1-tuple", "binvox-short-translate",
        "binvox-string-scale", "read-binvox-str", "sample-string-rng",
        "execute-program-none", "print-text-none", "detokenize-list", "tokenize-none",
        "tokenize-str", "format-token-lines-program", "token-json-none", "parse-text-none",
        "parse-text-bytes", "parse-token-lines-int", "analyze-dataset-none",
        "draw-token-id-none", "analysis-json-list", "analysis-table-none", "generate-dataset-none",
        "generator-loss-none", "point-in-hull-int-vertices", "sample-none-template",
        "weighted-bce-strings", "weighted-bce-none-weights", "generator-loss-none-weights",
        "analyze-dataset-none-connectivity", "stability-report-str-connectivity",
        "components-str-connectivity", "fit-str-config", "fit-none-config",
        "propose-none-config", "emd-nan-point", "chamfer-inf-point", "surface-points-str-rng",
        "parse-text-none-limits", "tokenize-none-limits", "tokenize-dims-as-limits",
        "analysis-table-array"])
def test_malformed_arguments_raise_typed_errors(call):
    with pytest.raises(VoxScriptError):
        call()


def test_analyze_dataset_refuses_a_bad_connectivity_before_any_grid():
    seen = []

    def grids():
        seen.append(GRID)
        yield GRID

    with pytest.raises(InputError):
        analyze_dataset(grids(), 6)
    assert not seen


@pytest.mark.parametrize("arg", ["x", None, (), [1, 2]], ids=["str", "none", "tuple", "list"])
def test_validate_program_reports_a_non_program(arg):
    report = validate_program(arg)
    assert not report.ok and len(report.violations) == 1


@pytest.mark.parametrize("limits", [None, (32, 32, 32)], ids=["none", "dims"])
def test_validate_program_reports_limits_that_are_not_limits(limits):
    report = validate_program(Program(()), limits)
    assert not report.ok and [v.path for v in report.violations] == ["limits"]
