"""Public entry points refuse malformed arguments with a typed VoxScriptError."""
import sys

import numpy as np
import pytest

import voxscript.cli as cli
from voxscript.analysis import (analyze_dataset, connected_components, convex_hull_2d,
                                format_analysis_json, format_analysis_table, point_in_hull,
                                stability_report)
from voxscript.binvox import check_dims, read_binvox, write_binvox
from voxscript.dsl import (Axis, DrawStmt, ForStmt, Limits, Program, Semantics, ShapeKind,
                           detokenize, draw_token_id, format_token_lines, parse_text,
                           parse_token_lines, print_text, token_program_to_json, tokenize,
                           validate_program)
from voxscript.dsl.tokens import VOCAB_SIZE, TokenProgram, TokenStep
from voxscript.errors import BinvoxError, InputError, VoxScriptError
from voxscript.executor import (MAX_GRID_VOXELS, empty_grid, execute_block, execute_program,
                                unroll_for)
from voxscript.inference import SearchConfig, fit_program, propose_candidates
from voxscript.metrics import (LossWeights, chamfer, emd, generator_loss, surface_points,
                               weighted_bce)
from voxscript.templates import builtin_templates, generate_dataset, sample

GRID = np.ones((4, 4, 4), dtype=bool)
HULL = convex_hull_2d([(0, 0), (4, 0), (0, 4)])
END = TokenProgram((TokenStep(VOCAB_SIZE - 1, (0,) * 7),))  # the end token alone
BIG = 10 ** 5000  # more digits than str() writes by default
DRAW = DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1))
TURN = ForStmt.rotation(4, 90, Axis.Y, (DRAW,))


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
    lambda: tokenize(Program((BIG,))),
    lambda: execute_program(Program((BIG,))),
    lambda: print_text(Program(("x",))),
    lambda: unroll_for(DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (BIG, 0, 0), (1, 1, 1))),
    # an int too long for str() in the value a message shows
    lambda: SearchConfig(max_blocks=-BIG),
    lambda: SearchConfig(min_gain=-BIG),
    lambda: LossWeights(w0=-BIG),
    lambda: surface_points(GRID, -BIG),
    lambda: surface_points(GRID, 512, -BIG),
    lambda: generate_dataset("never-written", tables=-BIG),
    lambda: sample(builtin_templates()[0], -BIG),
    lambda: stability_report(GRID, -BIG),
    lambda: analyze_dataset(BIG),
    lambda: format_analysis_json(BIG),
    lambda: format_analysis_table(BIG),
    lambda: point_in_hull((BIG, 0), HULL),
    lambda: convex_hull_2d([(0, BIG)]),
    lambda: write_binvox(GRID, translate=(BIG, 0, 0)),
    lambda: write_binvox(GRID, scale=-BIG),
    lambda: draw_token_id(-BIG, -BIG),
    # a semantics, shape or rotation axis that is not an enum member
    lambda: print_text(Program((DrawStmt("x", ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),))),
    lambda: print_text(Program((DrawStmt(Semantics.LEG, "Cub", (0, 0, 0), (1, 1, 1)),))),
    lambda: print_text(Program((ForStmt.rotation(2, 90, "Y", (DRAW,)),))),
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
        "analysis-table-array", "tokenize-long-int-statement",
        "execute-program-long-int-statement", "print-text-non-statement",
        "unroll-for-long-int-draw", "config-long-int-count", "config-long-int-gain",
        "loss-weights-long-int", "surface-points-long-int-n", "surface-points-long-int-rng",
        "generate-dataset-long-int-count", "sample-long-int-rng",
        "stability-report-long-int-connectivity", "analyze-dataset-long-int",
        "analysis-json-long-int", "analysis-table-long-int", "point-in-hull-long-int",
        "hull-of-long-int", "binvox-long-int-translate", "binvox-long-int-scale",
        "draw-token-id-long-ints", "print-text-str-semantics", "print-text-str-shape",
        "print-text-str-axis"])
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


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="str() writes ints of any length")
@pytest.mark.parametrize("stmt", [
    DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (BIG, 0, 0), (1, 1, 1)),
    DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (0, 0, 0), (BIG, 1, 1)),
    DrawStmt(Semantics.LEG, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1, BIG)),
    DrawStmt(Semantics.LEG, ShapeKind.LINE, (0, 0, 0), (BIG, 0, 0)),
    DrawStmt(BIG, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),
    ForStmt.translation(-BIG, (1, 0, 0), (DRAW,)),
    ForStmt.translation(2, (BIG, 0.5, 0), (DRAW,)),
    BIG,
], ids=["position", "extent", "tilt", "line-end", "semantics", "loop-count", "step",
        "statement"])
def test_validate_program_reports_ints_too_long_to_write(stmt):
    """An int past the digits str() writes is reported by its size, not raised."""
    report = validate_program(Program((stmt,)))
    assert [v.path for v in report.violations] == ["stmt[0]"]
    assert "10^4999" in report.violations[0].message


def _dims_text(dims) -> str:
    """``dims`` as the CLI's ``--dims`` text."""
    return ",".join(map(str, dims)) if isinstance(dims, tuple) else str(dims)


# Every entry point that takes grid dims, called with dims and a scratch
# directory, and the error it raises for dims the grid rule refuses. Grids
# may have a zero axis; a binvox file, and so a dataset or --dims, may not.
DIMS_ENTRY_POINTS = {
    "empty-grid": (lambda d, tmp: empty_grid(d), InputError),
    "execute-program": (lambda d, tmp: execute_program(Program(()), d), InputError),
    "execute-block": (lambda d, tmp: execute_block(DRAW, d), InputError),
    "unroll-for": (lambda d, tmp: unroll_for(TURN, d), InputError),
    "limits-for-dims": (lambda d, tmp: Limits.for_dims(d), InputError),
    "binvox-check-dims": (lambda d, tmp: check_dims(d), BinvoxError),
    "generate-dataset": (lambda d, tmp: generate_dataset(tmp / "ds", 1, 1, 1, dims=d),
                         BinvoxError),
    "cli": (lambda d, tmp: cli.main(["--dims", _dims_text(d), "exec", str(tmp / "none.sp")]),
            SystemExit),
}


@pytest.mark.parametrize("dims", [
    (32,), (2, 2, 2, 2), (-5, 3), (-1, 4, 4), (4.0, 4, 4), "abc", None, 4,
    (MAX_GRID_VOXELS + 1, 1, 1),
    (4096,) * 3,  # 64 GiB: refused before anything is allocated
], ids=["1-axis", "4-axes", "2-axes-negative", "negative", "float", "str", "none", "int",
        "over-cap", "4096-cubed"])
@pytest.mark.parametrize("entry", list(DIMS_ENTRY_POINTS))
def test_every_dims_entry_point_refuses_bad_dims(entry, dims, tmp_path):
    call, error = DIMS_ENTRY_POINTS[entry]
    with pytest.raises(error) as exc:
        call(dims, tmp_path)
    if error is SystemExit:
        assert exc.value.code == 1  # a usage error
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("dims", [(0, 4, 4), (0, 0, 0)])
@pytest.mark.parametrize("entry", list(DIMS_ENTRY_POINTS))
def test_zero_axis_dims_make_grids_but_no_files(entry, dims, tmp_path):
    call, error = DIMS_ENTRY_POINTS[entry]
    if error is InputError:
        call(dims, tmp_path)
    else:
        with pytest.raises(error):
            call(dims, tmp_path)


def test_limits_of_an_empty_grid_validate_only_the_empty_program():
    limits = Limits.for_dims((0, 0, 0))
    assert validate_program(Program(()), limits).ok
    assert not validate_program(Program((DRAW,)), limits).ok


def test_fit_refuses_a_target_over_the_voxel_cap():
    # a broadcast view: the 2^24 + 1 voxels are never allocated
    target = np.broadcast_to(np.zeros((1, 1, 1), dtype=bool), (MAX_GRID_VOXELS + 1, 1, 1))
    with pytest.raises(InputError, match="voxels"):
        fit_program(target)
