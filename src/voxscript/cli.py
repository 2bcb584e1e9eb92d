"""Command-line interface: parse, exec, tokenize, sample, fit, eval, analyze.

Exit codes: 0 success, 1 usage or input format error, 2 resource errors
(search budget, infeasible template). With --json-errors, failures are
reported on stderr as one JSON object instead of plain text.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import analyze_dataset, format_analysis_json, format_analysis_table, stability_report
from .binvox import check_dims, export_obj, read_binvox, write_binvox
from .dsl import Limits, Program, parse_text, print_text, validate_program
from .dsl.tokens import (format_token_lines, parse_token_lines, detokenize,
                         token_program_to_json, tokenize)
from .errors import BinvoxError, InputError, InvalidProgramError, ResourceError
from .executor import DEFAULT_DIMS, execute_program
from .inference import SearchConfig, fit_program
from .metrics import chamfer, emd, iou, surface_points
from .templates import generate_dataset


class UsageError(Exception):
    """A command line argparse rejects; ``main`` reports it and exits 1."""

    def __init__(self, parser, message):
        self.parser = parser
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        raise UsageError(self, message)


def _dims(text: str) -> tuple:
    """An argparse type: X,Y,Z as the dims of a grid a binvox file can hold."""
    try:
        dims = tuple(int(p) for p in text.split(","))
        check_dims(dims)
    except (ValueError, BinvoxError) as exc:
        raise argparse.ArgumentTypeError(f"dims must be X,Y,Z: {exc}") from None
    return dims


def _bounded(convert, low, strict=False):
    """An argparse type: ``convert`` the text, then require it >= ``low``
    (> ``low`` if ``strict``), so nan and out-of-range values are usage errors."""
    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        if not (v > low if strict else v >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return v
    return parse


def _directory(text: str) -> Path:
    """An argparse type: a path that names an existing directory."""
    path = Path(text)
    if not path.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {text}")
    return path


def _build_parser() -> _Parser:
    top = _Parser(prog="voxscript", description=__doc__.splitlines()[0])
    top.add_argument("--json-errors", action="store_true",
                     help="report failures as JSON on stderr")
    top.add_argument("--dims", type=_dims, default=DEFAULT_DIMS, metavar="X,Y,Z",
                     help="voxel grid dimensions, which also bound program values"
                          f" (default {','.join(map(str, DEFAULT_DIMS))})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a program and echo canonical text")
    p.add_argument("file", type=Path)

    p = sub.add_parser("exec", help="execute a program to a binvox grid")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--out", type=Path, required=True, metavar="out.binvox")
    p.add_argument("--obj", type=Path, help="also export a surface mesh")

    p = sub.add_parser("tokenize", help="program text to token rows")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--out", type=Path, metavar="out.tok")
    p.add_argument("--json", action="store_true", help="emit the JSON container")

    p = sub.add_parser("detokenize", help="token rows back to program text")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--out", type=Path, metavar="out.sp")

    p = sub.add_parser("sample", help="generate a synthetic (program, shape) dataset")
    p.add_argument("--tables", type=_bounded(int, 0), default=0, metavar="N")
    p.add_argument("--chairs", type=_bounded(int, 0), default=0, metavar="M")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("-o", "--out", type=Path, required=True, metavar="dir")

    p = sub.add_parser("fit", help="fit a program to a binvox target")
    p.add_argument("target", type=Path)
    p.add_argument("-o", "--out", type=Path, required=True, metavar="out.sp")
    p.add_argument("--max-blocks", type=_bounded(int, 1), default=SearchConfig.max_blocks)
    p.add_argument("--beam", type=_bounded(int, 1), default=SearchConfig.beam_width)
    p.add_argument("--min-gain", type=_bounded(float, 0, strict=True),
                   default=SearchConfig.min_gain)

    p = sub.add_parser("eval", help="batch-compare predicted and reference grids")
    p.add_argument("--pred", type=_directory, required=True, metavar="dir")
    p.add_argument("--gt", type=_directory, required=True, metavar="dir")
    p.add_argument("-o", "--out", type=Path, required=True, metavar="report.jsonl")

    p = sub.add_parser("analyze", help="stability/connectivity report over binvox files")
    p.add_argument("dir", type=_directory)
    p.add_argument("-o", "--out", type=Path, metavar="report.json")
    return top


def _read_program(args) -> Program:
    """The program in ``args.file``, validated for a grid of ``args.dims``."""
    return parse_text(args.file.read_text(), limits=Limits.for_dims(args.dims))


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_parse(args) -> int:
    sys.stdout.write(print_text(_read_program(args)))
    return 0


def _cmd_exec(args) -> int:
    grid = execute_program(_read_program(args), args.dims)
    args.out.write_bytes(write_binvox(grid))
    if args.obj is not None:
        args.obj.write_text(export_obj(grid))
    return 0


def _cmd_tokenize(args) -> int:
    t = tokenize(_read_program(args), Limits.for_dims(args.dims))
    if args.json:
        _emit(json.dumps(token_program_to_json(t), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(format_token_lines(t), args.out)
    return 0


def _cmd_detokenize(args) -> int:
    program = detokenize(parse_token_lines(args.file.read_text()))
    report = validate_program(program, Limits.for_dims(args.dims))
    if not report.ok:
        raise InvalidProgramError(report)
    _emit(print_text(program), args.out)
    return 0


def _cmd_sample(args) -> int:
    manifest = generate_dataset(args.out, tables=args.tables, chairs=args.chairs,
                                seed=args.seed, dims=args.dims)
    n = len(manifest["records"])
    sys.stdout.write(f"wrote {n} records to {args.out}\n")
    return 0


def _cmd_fit(args) -> int:
    grid, _, _ = read_binvox(args.target.read_bytes())
    result = fit_program(grid, SearchConfig(max_blocks=args.max_blocks, beam_width=args.beam,
                                            min_gain=args.min_gain))

    # build every output before writing any, so a failure leaves no partial set
    trace = {
        "final_iou": result.final_iou,
        "executor_calls": result.executor_calls,
        "budget_exhausted": result.budget_exhausted,
        "stop_reason": result.stop_reason,
        "score_trace": [
            {"block": print_text(Program((blk,))), "iou": v}
            for blk, v in result.score_trace
        ],
    }
    text = print_text(result.program)
    tokens = format_token_lines(tokenize(result.program, Limits.for_dims(grid.shape)))
    recon = write_binvox(execute_program(result.program, grid.shape))
    trace_text = json.dumps(trace, indent=2, sort_keys=True) + "\n"
    out = args.out
    out.write_text(text)
    out.with_suffix(".tok").write_text(tokens)
    out.with_suffix(".binvox").write_bytes(recon)
    out.with_suffix(".json").write_text(trace_text)
    sys.stdout.write(f"final_iou={result.final_iou:.4f} blocks={len(result.score_trace)}\n")
    return 0


def _pair_record(name: str, pred, gt) -> dict:
    rec = {"id": name, "iou": iou(pred, gt)}
    if pred.any() and gt.any():
        pp = surface_points(pred, rng=np.random.default_rng(0))
        gp = surface_points(gt, rng=np.random.default_rng(0))
        rec["cd"] = chamfer(pp, gp)
        rec["emd"] = emd(pp, gp)
    else:
        rec["cd"] = None
        rec["emd"] = None
    rep = stability_report(pred)
    rec["stable"] = rep.stable
    rec["connected"] = rep.connected
    return rec


def _cmd_eval(args) -> int:
    pred_files = {f.name: f for f in sorted(args.pred.glob("*.binvox"))}
    gt_files = {f.name: f for f in sorted(args.gt.glob("*.binvox"))}
    names = sorted(set(pred_files) & set(gt_files))
    rows = []
    for name in names:
        pred, _, _ = read_binvox(pred_files[name].read_bytes())
        gt, _, _ = read_binvox(gt_files[name].read_bytes())
        rows.append(_pair_record(name, pred, gt))

    def mean_of(key):
        vals = [r[key] for r in rows if r[key] is not None]
        return float(np.mean(vals)) if vals else None

    aggregate = {
        "id": "aggregate",
        "count": len(rows),
        "mean_iou": mean_of("iou"),
        "mean_cd": mean_of("cd"),
        "mean_emd": mean_of("emd"),
        "stable_pct": 100.0 * np.mean([r["stable"] for r in rows]) if rows else None,
        "connected_pct": 100.0 * np.mean([r["connected"] for r in rows]) if rows else None,
    }
    lines = [json.dumps(r, sort_keys=True) for r in rows + [aggregate]]
    args.out.write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"evaluated {len(rows)} pairs\n")
    return 0


def _cmd_analyze(args) -> int:
    files = sorted(args.dir.glob("*.binvox"))
    grids = [read_binvox(f.read_bytes())[0] for f in files]
    summary = analyze_dataset(grids)
    if args.out is not None:
        args.out.write_text(format_analysis_json(summary))
    sys.stdout.write(format_analysis_table(summary) + "\n")
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "exec": _cmd_exec,
    "tokenize": _cmd_tokenize,
    "detokenize": _cmd_detokenize,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
}


def _report_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("line", "col", "path", "offset", "step"):
            v = getattr(exc, attr, None)
            if v is not None:
                payload[attr] = v
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        # argparse accepts any unambiguous prefix of --json-errors
        if any(a.startswith("--j") and "--json-errors".startswith(a) for a in argv):
            _report_error(exc, True)
        else:
            exc.parser.print_usage(sys.stderr)
            _report_error(exc, False)
        raise SystemExit(1) from None
    try:
        return _COMMANDS[args.command](args)
    except ResourceError as exc:
        _report_error(exc, args.json_errors)
        return 2
    except (InputError, OSError, json.JSONDecodeError) as exc:
        _report_error(exc, args.json_errors)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
