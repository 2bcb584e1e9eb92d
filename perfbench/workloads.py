"""The three workloads: fit, dataset and eval.

A workload's ``setup`` builds a pool of rounds of items from the seed;
run.py cycles through the pool, stopping only between rounds, runs each
item with ``run`` (the only timed call) and checks its output with
``check``. Every round holds one shape, record or pair of each built-in
template, so its cost does not depend on which templates the seed drew.

Voxscript functions are always looked up on their modules at call time, so
the tracer's rebinding of those attributes takes effect.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from oracles import point_metrics, set_iou, surface_samples

IOU_TOL = 1e-12
METRIC_RTOL = 1e-9


@dataclass
class Item:
    key: tuple
    size: int  # shapes, records or pairs the item stands for
    template: str | None = None
    payload: object = None
    cache: dict = field(default_factory=dict)


class Fit:
    name = "fit"
    unit = "shape"
    # One round fits one shape of each built-in template. The pool outlasts
    # a run at today's speed, so each shape is normally fitted once.
    POOL_ROUNDS = 8

    def setup(self, vs, seed, workdir):
        templates = vs.templates.builtin_templates()
        pool = []
        for r in range(self.POOL_ROUNDS):
            items = []
            for ti, t in enumerate(templates):
                program, _ = vs.templates.sample(t, np.random.default_rng([seed, r, ti]))
                target = vs.executor.execute_program(program)
                items.append(Item((r, ti), 1, t.id, target))
            pool.append(items)
        return pool

    def run(self, vs, item):
        return vs.inference.fit_program(item.payload)

    def check(self, vs, item, result):
        program = result.program
        if not vs.dsl.validate_program(program).ok:
            return "fit returned a program that fails validation"
        grid = vs.executor.execute_program(program, item.payload.shape)
        exact = set_iou(grid, item.payload)
        if abs(exact - result.final_iou) > IOU_TOL:
            return f"final_iou {result.final_iou!r} but re-execution gives {exact!r}"
        trace = result.score_trace
        if tuple(b for b, _ in trace) != program.statements:
            return "score trace blocks differ from the program's statements"
        scores = [s for _, s in trace]
        if any(b < a - IOU_TOL for a, b in zip(scores, scores[1:])):
            return f"accepted-score trace decreases: {scores}"
        if scores and abs(scores[-1] - result.final_iou) > IOU_TOL:
            return f"trace ends at {scores[-1]!r}, final_iou is {result.final_iou!r}"
        return None


class Dataset:
    name = "dataset"
    unit = "record"
    # One batch holds one record of each built-in template. Records are kept
    # in memory: written through generate_dataset, the kernel time of file
    # writes on the baseline VM's disk drifted 2x within and across runs, more
    # than the whole codec cost, and no reference loop tracked it.
    POOL_BATCHES = 1000

    def setup(self, vs, seed, workdir):
        templates = vs.templates.builtin_templates()
        return [[Item((b,), len(templates), None, [
            (t, (seed, b, ti)) for ti, t in enumerate(templates)])]
            for b in range(self.POOL_BATCHES)]

    def run(self, vs, item):
        """Per record, what generate_dataset makes, then what a loader does."""
        records = []
        for template, record_seed in item.payload:
            program, _ = vs.templates.sample(template, np.random.default_rng(record_seed))
            grid = vs.executor.execute_program(program)
            text = vs.dsl.print_text(program)
            tokens = vs.dsl.format_token_lines(vs.dsl.tokenize(program))
            voxels = vs.binvox.write_binvox(grid)
            decoded, _, _ = vs.binvox.read_binvox(voxels)
            records.append((program, decoded, vs.dsl.parse_text(text),
                            vs.dsl.detokenize(vs.dsl.parse_token_lines(tokens))))
        return records

    def check(self, vs, item, records):
        if len(records) != len(item.payload):
            return f"{len(records)} records for {len(item.payload)} templates"
        for (template, _), (program, decoded, text, tokens) in zip(item.payload, records):
            if text != program or tokens != program:
                return f"{template.id}: loaded program differs from the generated one"
            if not np.array_equal(decoded, vs.executor.execute_program(text)):
                return f"{template.id}: decoded grid differs from the program's execution"
        return None


class Eval:
    name = "eval"
    unit = "pair"
    PAIRS = 4  # pairs per item, all of one template: one `voxscript eval` call
    POOL_ROUNDS = 2  # cycled several times in a run

    def setup(self, vs, seed, workdir):
        templates = vs.templates.builtin_templates()
        pool = []
        for r in range(self.POOL_ROUNDS):
            items = []
            for ti, t in enumerate(templates):
                chunk = workdir / "eval" / f"r{r}t{ti}"
                grids = {}
                for side in ("pred", "gt"):
                    (chunk / side).mkdir(parents=True, exist_ok=True)
                for j in range(self.PAIRS):
                    name = f"{j:02d}.binvox"
                    # a pred is the same template re-sampled: realistic partial overlap
                    pair = [vs.executor.execute_program(vs.templates.sample(
                        t, np.random.default_rng([seed, r, ti, j, k]))[0]) for k in (0, 1)]
                    for side, grid in zip(("gt", "pred"), pair):
                        (chunk / side / name).write_bytes(vs.binvox.write_binvox(grid))
                    grids[name] = (pair[1], pair[0])
                items.append(Item((r, ti), self.PAIRS, t.id, (chunk, grids)))
            pool.append(items)
        return pool

    def run(self, vs, item):
        chunk, _ = item.payload
        argv = ["eval", "--pred", str(chunk / "pred"), "--gt", str(chunk / "gt"),
                "-o", str(chunk / "report.jsonl")]
        with contextlib.redirect_stdout(io.StringIO()):
            return vs.cli.main(argv)

    def check(self, vs, item, rc):
        chunk, grids = item.payload
        if rc != 0:
            return f"voxscript eval exited with {rc}"
        rows = [json.loads(line) for line in (chunk / "report.jsonl").read_text().splitlines()]
        *pairs, aggregate = rows
        if sorted(r["id"] for r in pairs) != sorted(grids) or aggregate.get("count") != len(grids):
            return "report does not cover exactly the chunk's pairs"
        if "oracle" not in item.cache:
            item.cache["oracle"] = {}
            for name, (pred, gt) in grids.items():
                ref = point_metrics(surface_samples(pred), surface_samples(gt))
                ref["iou"] = set_iou(pred, gt)
                item.cache["oracle"][name] = ref
        for row in pairs:
            ref = item.cache["oracle"][row["id"]]
            if abs(row["iou"] - ref["iou"]) > IOU_TOL:
                return f"{row['id']}: iou {row['iou']!r}, set algebra gives {ref['iou']!r}"
            if abs(row["cd"] - ref["chamfer"]) > METRIC_RTOL * ref["chamfer"]:
                return f"{row['id']}: chamfer {row['cd']!r}, brute force gives {ref['chamfer']!r}"
            if not ref["emd_low"] * (1 - METRIC_RTOL) <= row["emd"] <= ref["emd_high"] * (1 + METRIC_RTOL):
                return (f"{row['id']}: emd {row['emd']!r} outside"
                        f" [{ref['emd_low']!r}, {ref['emd_high']!r}]")
        item.cache["ious"] = [r["iou"] for r in pairs]
        return None


WORKLOADS = {w.name: w for w in (Fit(), Dataset(), Eval())}
