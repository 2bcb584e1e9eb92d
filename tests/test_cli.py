"""End-to-end command-line behaviour: files written, exit codes, outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxscript.cli as cli
from voxscript.binvox import read_binvox, write_binvox
from voxscript.dsl import (Limits, detokenize, parse_text, parse_token_lines,
                           validate_program)
from voxscript.errors import BinvoxError, BudgetError
from voxscript.executor import execute_program

PROG = "draw(Top, Cub, P=(8,20,8), G=(2,16,16))\n"

MESSY = "draw( Top ,Cub,P=( 8, 20 ,8),   G=(2,16,16) )"


def write_prog(tmp_path, text=PROG, name="p.sp"):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_parse_prints_canonical_text(tmp_path, capsys):
    f = write_prog(tmp_path, MESSY)
    assert cli.main(["parse", str(f)]) == 0
    assert capsys.readouterr().out == PROG


def test_exec_writes_grid_and_mesh(tmp_path):
    f = write_prog(tmp_path)
    out = tmp_path / "g.binvox"
    obj = tmp_path / "g.obj"
    assert cli.main(["exec", str(f), "-o", str(out), "--obj", str(obj)]) == 0
    grid, _, _ = read_binvox(out.read_bytes())
    assert grid.shape == (32, 32, 32)
    assert (grid == execute_program(parse_text(PROG))).all()
    assert obj.read_text().startswith("# ")


def test_exec_custom_dims(tmp_path):
    f = write_prog(tmp_path, "draw(Leg, Cub, P=(1,1,1), G=(2,2,2))\n")
    out = tmp_path / "g.binvox"
    assert cli.main(["--dims", "8,10,12", "exec", str(f), "-o", str(out)]) == 0
    grid, _, _ = read_binvox(out.read_bytes())
    assert grid.shape == (8, 10, 12)


def test_dims_over_voxel_cap_is_usage_error(tmp_path, capsys):
    f = write_prog(tmp_path)
    out = tmp_path / "g.binvox"
    for dims in ("100000,100000,100000", "257,256,256"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--dims", dims, "--json-errors", "exec", str(f), "-o", str(out)])
        assert exc.value.code == 1
        assert "voxels" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["--dims", "256,256,256", "exec", str(f), "-o", str(out)]) == 0


def test_tokenize_detokenize_roundtrip(tmp_path):
    f = write_prog(tmp_path)
    tok = tmp_path / "p.tok"
    back = tmp_path / "back.sp"
    assert cli.main(["tokenize", str(f), "-o", str(tok)]) == 0
    assert cli.main(["detokenize", str(tok), "-o", str(back)]) == 0
    assert back.read_text() == PROG


def test_tokenize_json_container(tmp_path, capsys):
    f = write_prog(tmp_path)
    assert cli.main(["tokenize", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_args"] == 7
    assert len(doc["steps"]) == 1


def test_sample_layout_and_determinism(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        code = cli.main(["sample", "--tables", "2", "--chairs", "1",
                         "--seed", str(seed), "-o", str(d)])
        assert code == 0
    assert "wrote 3 records" in capsys.readouterr().out
    for sub, pattern in (("programs", "*.sp"), ("tokens", "*.tok"),
                         ("voxels", "*.binvox")):
        assert len(list((a / sub).glob(pattern))) == 3
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "voxels/000000.binvox").read_bytes() == (b / "voxels/000000.binvox").read_bytes()
    assert (a / "manifest.json").read_bytes() != (c / "manifest.json").read_bytes()


def test_fit_writes_program_tokens_grid_trace(tmp_path, capsys):
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(execute_program(parse_text(PROG))))
    out = tmp_path / "fit.sp"
    assert cli.main(["fit", str(target), "-o", str(out)]) == 0
    assert "final_iou=1.0000" in capsys.readouterr().out
    fitted = parse_text(out.read_text())
    assert (execute_program(fitted) == execute_program(parse_text(PROG))).all()
    assert (tmp_path / "fit.tok").exists()
    recon, _, _ = read_binvox((tmp_path / "fit.binvox").read_bytes())
    assert (recon == execute_program(fitted)).all()
    trace = json.loads((tmp_path / "fit.json").read_text())
    assert trace["final_iou"] == 1.0
    assert not trace["budget_exhausted"]
    assert trace["stop_reason"] == "residual_empty"
    assert all("block" in s and "iou" in s for s in trace["score_trace"])


TWO_BOXES = PROG + "draw(Leg, Cub, P=(2,0,2), G=(10,3,3))\n"


@pytest.mark.parametrize("flags, blocks, stop_reason", [
    (["--max-blocks", "1"], 1, "max_blocks"),
    (["--min-gain", "2"], 0, "min_gain"),  # an IoU gain never exceeds 1
    (["--beam", "1"], 2, "residual_empty"),
])
def test_fit_search_flags_reach_the_search(tmp_path, capsys, flags, blocks, stop_reason):
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(execute_program(parse_text(TWO_BOXES))))
    out = tmp_path / "fit.sp"
    assert cli.main(["fit", str(target), "-o", str(out)] + flags) == 0
    trace = json.loads((tmp_path / "fit.json").read_text())
    assert trace["stop_reason"] == stop_reason
    assert len(trace["score_trace"]) == blocks
    fitted = parse_text(out.read_text())
    assert len(fitted.statements) == blocks and validate_program(fitted).ok
    assert cli.main(["exec", str(out), "-o", str(tmp_path / "again.binvox")]) == 0
    assert (tmp_path / "again.binvox").read_bytes() == (tmp_path / "fit.binvox").read_bytes()


def test_fit_off_default_grid_writes_decodable_outputs(tmp_path, capsys):
    grid = np.zeros((48, 48, 48), dtype=bool)
    grid[36:44, 36:44, 36:44] = True
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(grid))
    out = tmp_path / "o.sp"
    assert cli.main(["fit", str(target), "-o", str(out)]) == 0
    assert "final_iou=1.0000" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "o.binvox", "o.json", "o.sp", "o.tok", "t.binvox"]
    program = parse_text(out.read_text(), limits=Limits.for_dims(grid.shape))
    assert validate_program(program, Limits.for_dims(grid.shape)).ok
    assert detokenize(parse_token_lines((tmp_path / "o.tok").read_text())) == program
    recon, _, _ = read_binvox((tmp_path / "o.binvox").read_bytes())
    assert (recon == grid).all()


def test_program_commands_validate_for_dims(tmp_path, capsys):
    """parse, exec, tokenize and detokenize accept a program fitted off the
    default grid when given its dims, and reject it without them."""
    grid = np.zeros((48, 48, 48), dtype=bool)
    grid[36:44, 36:44, 36:44] = True
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(grid))
    sp = tmp_path / "o.sp"
    assert cli.main(["fit", str(target), "-o", str(sp)]) == 0
    capsys.readouterr()
    dims = ["--dims", "48,48,48"]
    assert cli.main(dims + ["parse", str(sp)]) == 0
    assert capsys.readouterr().out == sp.read_text()
    assert cli.main(dims + ["exec", str(sp), "-o", str(tmp_path / "r.binvox")]) == 0
    recon, _, _ = read_binvox((tmp_path / "r.binvox").read_bytes())
    assert (recon == grid).all()
    assert cli.main(dims + ["tokenize", str(sp), "-o", str(tmp_path / "r.tok")]) == 0
    assert (tmp_path / "r.tok").read_text() == (tmp_path / "o.tok").read_text()
    assert cli.main(dims + ["detokenize", str(tmp_path / "o.tok")]) == 0
    assert capsys.readouterr().out == sp.read_text()
    for command in (["parse"], ["tokenize"], ["exec", "-o", str(tmp_path / "d.binvox")]):
        assert cli.main(command[:1] + [str(sp)] + command[1:]) == 1
    assert "outside [0, 31]" in capsys.readouterr().err
    assert cli.main(["detokenize", str(tmp_path / "o.tok")]) == 1
    assert "outside [0, 31]" in capsys.readouterr().err


def test_fit_failure_writes_no_output(tmp_path, capsys, monkeypatch):
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(execute_program(parse_text(PROG))))

    def failing(*a, **k):
        raise BinvoxError("cannot encode the reconstruction")

    # the .binvox output is built after the .sp text and the .tok rows
    monkeypatch.setattr(cli, "write_binvox", failing)
    assert cli.main(["--json-errors", "fit", str(target), "-o", str(tmp_path / "o2.sp")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "BinvoxError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.binvox"]


@pytest.mark.parametrize("args", [
    ["fit", "t.binvox", "-o", "o.sp", "--max-blocks", "0"],
    ["fit", "t.binvox", "-o", "o.sp", "--beam", "0"],
    ["fit", "t.binvox", "-o", "o.sp", "--beam", "-3"],
    ["fit", "t.binvox", "-o", "o.sp", "--min-gain", "0"],
    ["fit", "t.binvox", "-o", "o.sp", "--min-gain", "-0.5"],
    ["fit", "t.binvox", "-o", "o.sp", "--min-gain", "nan"],
    ["sample", "-o", "d", "--tables", "-2"],
    ["sample", "-o", "d", "--chairs", "-1"],
])
def test_out_of_range_numeric_flags_are_usage_errors(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.binvox").write_bytes(write_binvox(execute_program(parse_text(PROG))))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--json-errors"] + args)
    assert exc.value.code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "UsageError"
    assert args[-2] in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.binvox"]


def test_eval_rows_and_aggregate(tmp_path):
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    grid = execute_program(parse_text(PROG))
    shifted = np.roll(grid, 1, axis=0)
    for d, g in ((pred, grid), (gt, grid)):
        (d / "a.binvox").write_bytes(write_binvox(g))
    (pred / "b.binvox").write_bytes(write_binvox(shifted))
    (gt / "b.binvox").write_bytes(write_binvox(grid))
    out = tmp_path / "report.jsonl"
    assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == ["a.binvox", "b.binvox", "aggregate"]
    assert rows[0]["iou"] == 1.0
    assert rows[0]["cd"] == 0.0
    assert 0.0 < rows[1]["iou"] < 1.0
    agg = rows[-1]
    assert agg["count"] == 2
    assert agg["mean_iou"] == pytest.approx((rows[0]["iou"] + rows[1]["iou"]) / 2)


def test_analyze_table_and_json(tmp_path, capsys):
    d = tmp_path / "grids"
    d.mkdir()
    grid = execute_program(parse_text("draw(Base, Cub, P=(4,0,4), G=(3,10,10))\n"))
    for name in ("x.binvox", "y.binvox"):
        (d / name).write_bytes(write_binvox(grid))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", str(d), "-o", str(out)]) == 0
    table = capsys.readouterr().out
    assert "Stable" in table and "Conn." in table
    doc = json.loads(out.read_text())
    assert doc["count"] == 2
    assert doc["stable_pct"] == 100.0


@pytest.mark.parametrize("command", ["eval-pred", "eval-gt", "analyze"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_input_directory_that_is_not_one_is_usage_error(tmp_path, capsys, command, kind):
    """``eval --pred``, ``eval --gt`` and ``analyze``'s directory must name an
    existing directory: anything else is refused while parsing arguments,
    exit 1 with the path in the message, and nothing is written."""
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    if kind == "file":
        bad.write_bytes(write_binvox(execute_program(parse_text(PROG))))
    out = tmp_path / "report"
    argv = {"eval-pred": ["eval", "--pred", str(bad), "--gt", str(good), "-o", str(out)],
            "eval-gt": ["eval", "--pred", str(good), "--gt", str(bad), "-o", str(out)],
            "analyze": ["analyze", str(bad), "-o", str(out)]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and f"not a directory: {bad}" in err
    assert not out.exists()


def test_empty_input_directories_report_no_pairs(tmp_path, capsys):
    """An existing directory with no ``.binvox`` files is not an error."""
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "report.jsonl"
    assert cli.main(["eval", "--pred", str(empty), "--gt", str(empty), "-o", str(out)]) == 0
    assert capsys.readouterr().out == "evaluated 0 pairs\n"
    assert json.loads(out.read_text())["count"] == 0
    assert cli.main(["analyze", str(empty)]) == 0
    assert "0.0" in capsys.readouterr().out


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert cli.main(["parse", str(tmp_path / "absent.sp")]) == 1
    assert "error" in capsys.readouterr().err


def test_semantic_error_exits_1(tmp_path):
    f = write_prog(tmp_path, "draw(Top, Cub, P=(8,20,8), G=(2,16,99))\n")
    assert cli.main(["parse", str(f)]) == 1


def test_rotation_angle_no_copy_can_turn_by_exits_1(tmp_path, capsys):
    """Copy 2 of this loop turns by 1.8e308 degrees, past the largest float."""
    f = write_prog(tmp_path, "for(Rot, i=3, theta=9" + "0" * 307 + ", axis=Y) {\n"
                             "  draw(Leg, Cub, P=(1,0,1), G=(2,2,2))\n}\n")
    out = tmp_path / "g.binvox"
    for command in (["parse", str(f)], ["exec", str(f), "-o", str(out)]):
        assert cli.main(command) == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "rotation angle" in err
    assert not out.exists()


def test_json_errors_payload(tmp_path, capsys):
    f = write_prog(tmp_path, "draw(Top, Qub, P=(8,20,8), G=(2,16,16))\n")
    assert cli.main(["--json-errors", "parse", str(f)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "DslSyntaxError"
    assert payload["line"] == 1
    assert payload["col"] >= 1


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["frobnicate"], ["exec"], ["--dims", "4x4x4", "parse", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    capsys.readouterr()


def test_usage_errors_with_json_errors_are_json(tmp_path, capsys):
    f = write_prog(tmp_path)
    out = tmp_path / "g.binvox"
    for argv in (["--dims", "100000,100000,100000", "--json-errors", "exec", str(f),
                  "-o", str(out)],
                 ["--json-errors", "exec", str(f)],
                 ["--json", "frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "UsageError"
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    assert capsys.readouterr().err.startswith("usage: ")
    assert not out.exists()


def test_resource_error_exits_2(tmp_path, capsys, monkeypatch):
    target = tmp_path / "t.binvox"
    target.write_bytes(write_binvox(execute_program(parse_text(PROG))))

    def blown(*a, **k):
        raise BudgetError("search budget exceeded")

    monkeypatch.setattr(cli, "fit_program", blown)
    assert cli.main(["--json-errors", "fit", str(target),
                     "-o", str(tmp_path / "o.sp")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "BudgetError"


def test_bad_token_file_exits_1(tmp_path):
    tok = tmp_path / "bad.tok"
    tok.write_text("99 0 0 0 0 0 0 0\n")
    assert cli.main(["detokenize", str(tok)]) == 1


def test_detokenize_refuses_rows_of_an_invalid_program(tmp_path, capsys):
    """Rows that decode to a program parse would reject exit 1 with its first
    violation and print nothing."""
    tok = tmp_path / "loop.tok"
    tok.write_text("73 1 0 0 0 0 0 0\n1 40 0 1 2 2 2 0\n75 0 0 0 0 0 0 0\n")
    assert cli.main(["detokenize", str(tok)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "stmt[0]: times must be an integer >= 2, got 1" in err
    assert cli.main(["--json-errors", "detokenize", str(tok)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidProgramError"


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported by the functions that use it, so commands that only
    # parse, encode or execute programs start without it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, voxscript.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
