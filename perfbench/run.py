"""Benchmark of the voxscript toolchain: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with no
instrumentation; with ``--trace 1`` they are its per-layer metrics, taken
from spans around voxscript's public functions. Lines before it give a
readable summary and the run's provenance; the same record, with every
call's raw and rescaled time, is written to ``.perfbench/results/``.

Times are process CPU times rescaled to a fixed reference speed (see
``_probe``). The program is imported from ``src/`` next to this directory
and nowhere else. Inputs depend only on ``--seed``; the program never sees
the seed.
"""
from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many calls above it
TRANSPARENCY_ITEMS = 2  # traced fits re-run untraced to show the wrappers change nothing
PROBE_LOOPS = 60_000
# CPU seconds the probe loop takes at the reference speed: the fast phase of
# the shared 2-core Xeon VM the first baseline was measured on.
PROBE_REF_S = 0.004

# A claim is made on the default seed and confirmed on the held-out one.
SEEDS = {"fit": (1, 101), "dataset": (2, 102), "eval": (3, 103)}

_SHAPES = ("cuboid", "rectangle", "square", "cylinder", "circle", "line")


@dataclass
class Call:
    item: object
    output: object  # kept for fit only, where quality and transparency need it
    cpu_s: float
    scale: float  # reference speed / host speed around the call
    error: str | None

    @property
    def ref_s(self) -> float:
        return self.cpu_s * self.scale


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SEEDS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=int, default=30, help="wall time to measure for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = SEEDS[args.workload][0]
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _probe() -> float:
    """CPU time of a fixed pure-Python loop: the host's speed right now.

    On a shared host the speed of a core moves by up to 2x over tens of
    seconds as other tenants load it. CPU time of the same work moves with
    it, so each call's CPU time is multiplied by PROBE_REF_S over the mean
    of the probes just before and just after it. On that VM this keeps
    repeated identical work within a few percent, against +-25% raw.
    """
    t0 = time.process_time()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.process_time() - t0


def _import_voxscript():
    for name in [m for m in sys.modules if m == "voxscript" or m.startswith("voxscript.")]:
        del sys.modules[name]
    vs = importlib.import_module("voxscript")
    importlib.import_module("voxscript.cli")
    if Path(vs.__file__).resolve().parent != SRC / "voxscript":
        raise RuntimeError(f"voxscript imported from {vs.__file__}, not from {SRC}")
    return vs


def _git_commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _remove(path):
    """Delete a work tree and wait until the file system has committed it.

    Freed blocks are discarded when the journal commits; left pending, that
    work lands in the next run's timed writes and slows them run after run.
    A workload that wrote no files left no tree, and there is nothing to do.
    """
    if not path.exists():
        return
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _install_tracer(vs):
    from tracing import Tracer

    tracer = Tracer()
    dsl = vs.dsl
    draw_ids = {getattr(dsl.ShapeKind, s.upper()): tracer.name_id(f"executor.execute_block.draw.{s}")
                for s in _SHAPES}
    loop_ids = {(mode, d): tracer.name_id(f"executor.execute_block.loop.{label}.d{d}")
                for mode, label in ((dsl.LoopMode.TRANSLATION, "trans"),
                                    (dsl.LoopMode.ROTATION, "rot"))
                for d in (1, 2, 3)}
    for_depth = dsl.ast.for_depth

    def block_span(b, *_args, **_kwargs):
        if isinstance(b, dsl.DrawStmt):
            return draw_ids[b.shape]
        return loop_ids[(b.mode, for_depth(b))]

    targets = [
        ("voxscript.inference", "fit_program", "inference.fit_program", None),
        ("voxscript.inference", "propose_candidates", "inference.propose_candidates",
         lambda r: ("inference.propose_candidates.candidates", len(r))),
        ("voxscript.executor", "execute_block", block_span, None),
        ("voxscript.executor", "unroll_for", "executor.unroll_for", None),
        ("voxscript.executor", "execute_program", "executor.execute_program", None),
        ("voxscript.templates", "sample", "templates.sample", None),
        ("voxscript.binvox", "write_binvox", "binvox.write_binvox",
         lambda r: ("binvox.write_binvox.bytes", len(r))),
        ("voxscript.binvox", "read_binvox", "binvox.read_binvox", None),
        ("voxscript.analysis", "stability_report", "analysis.stability_report", None),
        ("voxscript.cli", "main", "cli.eval", None),
    ]
    targets += [("voxscript.dsl.text", f, f"dsl.{f}", None) for f in ("print_text", "parse_text")]
    targets += [("voxscript.dsl.tokens", f, f"dsl.{f}", None)
                for f in ("tokenize", "format_token_lines", "parse_token_lines", "detokenize")]
    targets += [("voxscript.dsl.ast", "validate_program", "dsl.validate_program", None)]
    targets += [("voxscript.metrics", f, f"metrics.{f}", None)
                for f in ("emd", "chamfer", "surface_points", "iou")]
    for module, attr, span, measure in targets:
        tracer.wrap(module, attr, span, measure)
    for counter in ("inference.propose_candidates.candidates", "binvox.write_binvox.bytes"):
        tracer.count(counter, 0)
    return tracer


def _setup(workload, seed, work):
    """Import voxscript and build the inputs, SETUP_REPEATS times."""
    times = []
    before = _probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        vs = _import_voxscript()
        pool = workload.setup(vs, seed, work)
        cpu = time.process_time() - t0
        after = _probe()
        times.append(cpu * 2 * PROBE_REF_S / (before + after))
        before = after
    return vs, pool, times


def _measure(workload, vs, pool, seconds, tracer):
    """Run the pool's rounds, cycling, until ``seconds`` of wall time have passed.

    Only ``workload.run`` is timed. The benchmark is single-threaded, so its
    CPU time equals wall time on an idle core and leaves out time the host
    gives other tenants. Each item's check runs right after it, outside the
    timed region.
    """
    calls = []
    start = time.perf_counter()
    before = _probe()
    for items in itertools.cycle(pool):
        if time.perf_counter() - start >= seconds:
            break
        for item in items:
            error = None
            output = None
            t0 = time.process_time()
            try:
                if tracer is None:
                    output = workload.run(vs, item)
                else:
                    with tracer.item(len(calls)):
                        output = workload.run(vs, item)
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc(limit=3)
            cpu = time.process_time() - t0
            if error is None:
                try:
                    error = workload.check(vs, item, output)
                except Exception:  # an output the check cannot read is wrong
                    error = traceback.format_exc(limit=3)
            after = _probe()
            calls.append(Call(item, output if workload.name == "fit" else None, cpu,
                              2 * PROBE_REF_S / (before + after), error))
            before = after
    return calls, time.perf_counter() - start


def _throughput(calls) -> float:
    return sum(c.item.size for c in calls) / sum(c.ref_s for c in calls)


def _end_to_end(calls, setup_times):
    per_item_ms = sorted(1000.0 * c.ref_s / c.item.size for c in calls)
    n = len(per_item_ms)
    # a short run has too few calls for that; its tail is then the median
    tail_rank = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    values = {
        "items_per_s": _throughput(calls),
        "item_p50_ms": statistics.median(per_item_ms),
        "item_tail_ms": per_item_ms[tail_rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    tail = {"percentile": 100.0 * (tail_rank + 1) / n, "calls_beyond": n - tail_rank - 1,
            "calls": n}
    return values, tail


def _fit_quality(calls):
    """Fit quality from the outputs: overall mean and per-template mean IoU."""
    final = {c.item.key: (c.item.template, c.output.final_iou)
             for c in calls if c.error is None}
    by_template: dict = {}
    for template, score in final.values():
        by_template.setdefault(template, []).append(score)
    means = {t: statistics.fmean(v) for t, v in by_template.items()}
    scores = [s for v in by_template.values() for s in v]
    return {
        "mean_iou": statistics.fmean(scores) if scores else 0.0,
        "min_template_iou": min(means.values()) if means else 0.0,
        "template_iou": means,
    }


def _per_layer(workload, calls, tracer, templates):
    """Span totals per item (shape, record or pair) over every traced call."""
    stats, _ = tracer.summarize([c.scale for c in calls])
    units = sum(c.item.size for c in calls)
    values = {"trace.items_per_s": _throughput(calls),
              "trace.spans": tracer.span_count() / units}
    for name, (n, incl, own) in stats.items():
        values[f"{name}.calls"] = n / units
        values[f"{name}.time_s"] = incl / units
        values[f"{name}.self_s"] = own / units
    for name, n in tracer.counters.items():
        values[name] = n / units
    fits = [c.output for c in calls if c.error is None and c.output is not None]
    executed = sum(r.executor_calls for r in fits)
    accepted = sum(len(r.program.statements) for r in fits)
    quality = _fit_quality(calls) if workload.name == "fit" else {"template_iou": {}}
    values.update({
        "inference.executor_calls": executed / units,
        "inference.accepted_blocks": accepted / units,
        "inference.accept_ratio": accepted / executed if executed else 0.0,
        "inference.budget_exhausted": sum(r.budget_exhausted for r in fits) / units,
        "inference.mean_iou": quality.get("mean_iou", 0.0),
        "inference.min_template_iou": quality.get("min_template_iou", 0.0),
    })
    for t in templates:
        values[f"inference.iou.{t}"] = quality["template_iou"].get(t, 0.0)
    return values


def _transparency_check(workload, vs, calls):
    """Traced and untraced fits must return identical programs."""
    if workload.name != "fit":
        return None
    for c in calls[:TRANSPARENCY_ITEMS]:
        if c.error is None and workload.run(vs, c.item).program != c.output.program:
            return f"item {c.item.key}: traced and untraced fits differ"
    return None


def _self_time_check(tracer):
    """For each item, the self times of its spans sum to its traced time."""
    _, items = tracer.summarize()
    for item_id, (total, self_sum) in items.items():
        if abs(total - self_sum) > 1e-9 * max(1.0, total):
            return f"item {item_id}: span self times sum to {self_sum!r}, item took {total!r}"
    return None


def _emit(spec, values):
    """Exactly the metrics named in ``spec``, each with its unit."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "voxscript" / "__init__.py").is_file():
        sys.stderr.write(f"error: voxscript sources not found under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Dependencies load first, so every set-up repetition measures the same work.
    import numpy
    import scipy
    import scipy.ndimage
    import scipy.optimize
    import scipy.spatial
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        vs, pool, setup_times = _setup(workload, args.seed, work)
        templates = [t.id for t in vs.templates.builtin_templates()]
        tracer = _install_tracer(vs) if args.trace else None
        calls, wall = _measure(workload, vs, pool, args.seconds, tracer)
        harness_errors = []
        if tracer is not None:
            tracer.uninstall()
            harness_errors = [e for e in (_self_time_check(tracer),
                                          _transparency_check(workload, vs, calls)) if e]
    finally:
        _remove(work)

    attempted = sum(c.item.size for c in calls)
    failed = sum(c.item.size for c in calls if c.error is not None)
    e2e, tail = _end_to_end(calls, setup_times)
    summary = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "default_seed": SEEDS[workload.name][0],
        "held_out_seed": SEEDS[workload.name][1],
        "seconds": args.seconds,
        "wall_s": wall,
        "cpu_s": sum(c.cpu_s for c in calls),
        "reference_s": sum(c.ref_s for c in calls),
        "probe_ref_s": PROBE_REF_S,
        "item_unit": workload.unit,
        "items": attempted,
        "timed_calls": len(calls),
        "fail_ratio": failed / attempted,
        "item_tail": tail,
        "setup_s_each": setup_times,
        "errors": [f"{c.item.key}: {c.error}" for c in calls if c.error][:5] + harness_errors,
        "provenance": {
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_commit": _git_commit(),
        },
    }
    if workload.name == "fit":
        summary["quality"] = _fit_quality(calls)
    elif workload.name == "eval":
        ious = [v for c in calls for v in c.item.cache.get("ious", ())]
        summary["quality"] = {"mean_reported_iou": statistics.fmean(ious) if ious else 0.0}
    if tracer is None:
        metrics = _emit(spec["end_to_end"], e2e)
    else:
        metrics = _emit(spec["per_layer"], _per_layer(workload, calls, tracer, templates))
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{workload.name}-seed{args.seed}.csv"
        tracer.write_csv(trace_path)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    summary["metrics"] = metrics
    summary["calls_cpu_s_and_scale"] = [(c.cpu_s, c.scale) for c in calls]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':48s} {summary['fail_ratio']:.6g} failed/attempted")
    for name, value in summary.get("quality", {}).items():
        if not isinstance(value, dict):
            print(f"{name:48s} {value:.6g} IoU")
    for line in summary["errors"]:
        print(f"error: {line}", file=sys.stderr)
    brief = {k: v for k, v in summary.items() if k not in ("metrics", "calls_cpu_s_and_scale")}
    print(json.dumps(brief, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not harness_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
