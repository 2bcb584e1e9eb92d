"""Eight release gates over the whole toolchain.

Every test measures first and then emits exactly one PASS or FAIL line
with the numbers it saw, so a verbose run reads as one line per gate.
Expected values come from independent recomputation (set algebra, brute
force enumeration, scalar loops), never from the code under test.
Fitting dominates the runtime; the whole file takes a few minutes.
"""
import functools
import itertools
import math
import time

import numpy as np

from randprog import random_program
from voxscript.analysis import Connectivity, connected_components, stability_report
from voxscript.binvox import read_binvox, write_binvox
from voxscript.dsl import (DrawStmt, ForStmt, Program, Semantics, ShapeKind,
                           parse_text, print_text)
from voxscript.dsl.tokens import VOCAB_SIZE, detokenize, tokenize
from voxscript.executor import execute_block, execute_program, unroll_for
from voxscript.inference import fit_program
from voxscript.metrics import (BCE_EPS, LossWeights, chamfer, emd,
                               generator_loss, iou, weighted_bce)
from voxscript.templates import builtin_templates, sample


def _gate(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _seeded(seed: int, i: int):
    return np.random.default_rng((seed ^ i) & 0xFFFFFFFFFFFFFFFF)


def _err(got: float, expect: float) -> float:
    """Absolute error, relative once the expected magnitude passes 1."""
    return abs(got - expect) / max(1.0, abs(expect))


def _sampled_shape(rng):
    temps = builtin_templates()
    t = temps[int(rng.integers(len(temps)))]
    p, _ = sample(t, rng)
    return p


def _single_draw_program(rng) -> Program:
    """One fully in-bounds primitive, any shape, moderate size."""
    shape = list(ShapeKind)[int(rng.integers(6))]
    sem = list(Semantics)[int(rng.integers(12))]
    if shape is ShapeKind.LINE:
        pos = tuple(int(v) for v in rng.integers(2, 30, 3))
        geom = tuple(int(v) for v in rng.integers(2, 30, 3))
        return Program((DrawStmt(sem, shape, pos, geom),))
    t = int(rng.integers(2, 16))
    if shape in (ShapeKind.CYLINDER, ShapeKind.CIRCLE, ShapeKind.SQUARE):
        r = int(rng.integers(1, 9))
        pos = (int(rng.integers(r, 32 - r)), int(rng.integers(0, 33 - t)),
               int(rng.integers(r, 32 - r)))
        return Program((DrawStmt(sem, shape, pos, (t, r)),))
    r1 = int(rng.integers(2, 14))
    r2 = int(rng.integers(2, 14))
    pos = (int(rng.integers(0, 33 - r1)), int(rng.integers(0, 33 - t)),
           int(rng.integers(0, 33 - r2)))
    geom = (t, r1, r2)
    if shape is ShapeKind.CUBOID and rng.random() < 0.5:
        geom = geom + (int(rng.integers(-15, 1)),)
    return Program((DrawStmt(sem, shape, pos, geom),))


@functools.cache
def _criterion_1_fits() -> tuple:
    """Criterion 1's fits, made once per session for every gate that reads
    them: the 200 sampled programs, their fits, the 40 single-draw fits'
    IoUs, and the seconds all of it took."""
    t0 = time.time()
    programs = [_sampled_shape(_seeded(1234, i)) for i in range(200)]
    fits = [fit_program(execute_program(p)) for p in programs]
    single = [fit_program(execute_program(_single_draw_program(_seeded(555, i)))).final_iou
              for i in range(40)]
    return programs, fits, single, time.time() - t0


def test_criterion_1_fit_quality():
    programs, fits, single, elapsed = _criterion_1_fits()
    mean = float(np.mean([f.final_iou for f in fits]))
    mean1 = float(np.mean(single))
    fit_len = float(np.mean([len(f.program.statements) for f in fits]))
    template_len = float(np.mean([len(p.statements) for p in programs]))
    ok = mean >= 0.90 and mean1 >= 0.99 and elapsed <= 1800
    _gate(1, ok, f"fit of 200 sampled shapes mean IoU {mean:.4f} (need >= 0.90),"
                 f" 40 single-draw shapes {mean1:.4f} (need >= 0.99),"
                 f" {fit_len:.2f} statements per fit against {template_len:.2f} per"
                 f" template program, {elapsed:.0f}s (limit 1800)")


def test_criterion_2_executor_equivalences():
    failures = 0
    for i in range(500):
        p = random_program(20000 + i)
        g = execute_program(p)
        flat = []
        for s in p.statements:
            flat.extend([s] if isinstance(s, DrawStmt) else unroll_for(s))
        unrolled = execute_program(Program(tuple(flat)))
        union = np.zeros_like(g)
        for s in p.statements:
            union |= execute_block(s)
        again = execute_program(p)
        if not ((g == unrolled).all() and (g == union).all()
                and g.tobytes() == again.tobytes()):
            failures += 1
    _gate(2, failures == 0,
          f"500 random programs: unroll equivalence, per-block composition,"
          f" bit-exact determinism; {failures} failures")


def test_criterion_3_roundtrips():
    bad_text = bad_tok = 0
    for i in range(1000):
        p = random_program(30000 + i)
        if parse_text(print_text(p)) != p:
            bad_text += 1
        if detokenize(tokenize(p)) != p:
            bad_tok += 1
    rng = np.random.default_rng(9)
    bad_vox = 0
    for i in range(100):
        dims = (32, 32, 32) if i % 10 else tuple(int(v) for v in rng.integers(1, 40, 3))
        g = rng.random(dims) < rng.uniform(0.0, 0.9)
        back, _, _ = read_binvox(write_binvox(g))
        if back.shape != g.shape or not (back == g).all():
            bad_vox += 1
    ok = bad_text == 0 and bad_tok == 0 and bad_vox == 0
    _gate(3, ok, f"1000 program roundtrips (text, tokens) and 100 grid roundtrips;"
                 f" failures: text={bad_text} tokens={bad_tok} binvox={bad_vox}")


def test_criterion_4_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(40)

    e_iou = 0.0
    for _ in range(100):
        a = rng.random((32, 32, 32)) < rng.uniform(0.02, 0.5)
        b = rng.random((32, 32, 32)) < rng.uniform(0.02, 0.5)
        sa = set(map(tuple, np.argwhere(a)))
        sb = set(map(tuple, np.argwhere(b)))
        expect = 1.0 if not (sa or sb) else len(sa & sb) / len(sa | sb)
        e_iou = max(e_iou, _err(iou(a, b), expect))

    e_cd = 0.0
    for _ in range(100):
        a = rng.random((64, 3))
        b = rng.random((64, 3))
        al = [tuple(p) for p in a]
        bl = [tuple(p) for p in b]
        fwd = sum(min(math.dist(p, q) for q in bl) for p in al) / len(al)
        rev = sum(min(math.dist(p, q) for q in al) for p in bl) / len(bl)
        e_cd = max(e_cd, _err(chamfer(a, b), 0.5 * fwd + 0.5 * rev))

    perms = np.array(list(itertools.permutations(range(8))))
    e_emd = 0.0
    for _ in range(50):
        a = rng.random((8, 3))
        b = rng.random((8, 3))
        dmat = np.array([[math.dist(p, q) for q in b] for p in a])
        best = dmat[np.arange(8)[None, :], perms].sum(axis=1).min()
        e_emd = max(e_emd, _err(emd(a, b), float(best) / 8))

    e_bce = 0.0
    for _ in range(100):
        w = LossWeights(w0=float(rng.uniform(0.1, 3)), w1=float(rng.uniform(0.1, 3)))
        target = rng.random((32, 32, 32)) < 0.5
        pred = rng.random((32, 32, 32))
        pred[rng.random(pred.shape) < 0.03] = 0.0
        pred[rng.random(pred.shape) < 0.03] = 1.0
        total = 0.0
        for p_, y_ in zip(pred.ravel().tolist(), target.ravel().tolist()):
            p_ = min(max(p_, BCE_EPS), 1.0 - BCE_EPS)
            total += -w.w1 * math.log(p_) if y_ else -w.w0 * math.log(1.0 - p_)
        e_bce = max(e_bce, _err(weighted_bce(pred, target, w), total))

    e_gen = 0.0
    for i in range(100):
        t = tokenize(random_program(41000 + i))
        n = len(t.steps)
        w = LossWeights(wp=float(rng.uniform(0.1, 3)), wa=float(rng.uniform(0.1, 3)))
        probs = rng.random((n, VOCAB_SIZE)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        args = rng.normal(0.0, 4.0, (n, 7))
        total = 0.0
        for k, step in enumerate(t.steps):
            total += w.wp * -math.log(probs[k][step.id])
            total += w.wa * sum((args[k][j] - step.args[j]) ** 2 for j in range(7))
        e_gen = max(e_gen, _err(generator_loss(probs, args, t, w), total))

    elapsed = time.time() - t0
    ok = (max(e_iou, e_cd, e_bce, e_gen) <= 1e-9 and e_emd <= 1e-12
          and elapsed <= 120)
    _gate(4, ok, f"worst oracle error iou={e_iou:.1e} cd={e_cd:.1e} bce={e_bce:.1e}"
                 f" gen={e_gen:.1e} (limit 1e-09), emd={e_emd:.1e} (limit 1e-12),"
                 f" {elapsed:.0f}s (limit 120)")


def test_criterion_5_sampled_shape_plausibility():
    n = 1000
    stable = connected = 0
    for i in range(n):
        rep = stability_report(execute_program(_sampled_shape(_seeded(777, i))))
        stable += rep.stable
        connected += rep.connected

    cantilever = np.zeros((32, 32, 32), dtype=bool)
    cantilever[2, 0:6, 2] = True
    cantilever[2:21, 6:8, 1:4] = True
    tipped = stability_report(cantilever)

    corner = np.zeros((32, 32, 32), dtype=bool)
    corner[0:2, 0:2, 0:2] = True
    corner[2:4, 2:4, 2:4] = True
    n26 = connected_components(corner, Connectivity.TWENTY_SIX)[1]
    n6 = connected_components(corner, Connectivity.SIX)[1]

    s_pct, c_pct = 100.0 * stable / n, 100.0 * connected / n
    ok = (s_pct >= 95.0 and c_pct >= 95.0 and not tipped.stable
          and (n26, n6) == (1, 2))
    _gate(5, ok, f"{n} sampled shapes: {s_pct:.1f}% stable, {c_pct:.1f}% connected"
                 f" (need >= 95); cantilever stable={tipped.stable} (need False);"
                 f" corner-touch components 26-adj={n26} 6-adj={n6} (need 1, 2)")


def test_criterion_6_losses_are_pure_functions():
    # Benchmark comparisons against third-party shape collections need
    # external data and trained models that this package deliberately
    # does not ship; behavioural coverage lives in criteria 1-5. What is
    # verifiable here is that both loss surfaces are deterministic pure
    # functions: same inputs, same output, no mutation, no hidden state.
    rng = np.random.default_rng(60)
    pred = rng.random((32, 32, 32))
    target = rng.random((32, 32, 32)) < 0.5
    w = LossWeights(w0=0.3, w1=2.5, wp=0.7, wa=1.3)
    pred_copy = pred.copy()

    v1 = weighted_bce(pred, target, w)
    np.random.seed(123)
    v2 = weighted_bce(pred, target, w)

    half = np.full((32, 32, 32), 0.5)
    n_occ = int(target.sum())
    closed_form = math.log(2.0) * (w.w1 * n_occ + w.w0 * (target.size - n_occ))
    e_half = _err(weighted_bce(half, target, w), closed_form)

    t = tokenize(random_program(61))
    n = len(t.steps)
    probs = rng.random((n, VOCAB_SIZE)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    args = rng.normal(0.0, 4.0, (n, 7))
    probs_copy, args_copy = probs.copy(), args.copy()
    g1 = generator_loss(probs, args, t, w)
    np.random.seed(987)
    g2 = generator_loss(probs, args, t, w)

    ok = (v1 == v2 and g1 == g2 and e_half <= 1e-12
          and (pred == pred_copy).all() and (probs == probs_copy).all()
          and (args == args_copy).all())
    _gate(6, ok, f"voxel and step losses repeat bit-identically (bce {v1:.6f},"
                 f" gen {g1:.6f}), leave inputs unchanged, and match the"
                 f" uniform-prediction closed form (err {e_half:.1e});"
                 f" external benchmark replication is out of scope here")


def test_criterion_7_invariances():
    flag_fail = 0
    for i in range(100):
        rng = _seeded(7000, i)
        g = execute_program(_sampled_shape(rng))
        occ = np.argwhere(g)
        lo, hi = occ.min(axis=0), occ.max(axis=0)
        shift = tuple(int(rng.integers(-lo[a], g.shape[a] - 1 - hi[a] + 1))
                      for a in range(3))
        moved = np.roll(g, shift, axis=(0, 1, 2))
        r0, r1 = stability_report(g), stability_report(moved)
        if (r0.stable, r0.connected) != (r1.stable, r1.connected):
            flag_fail += 1

    mono_fail = 0
    for i in range(50):
        r = fit_program(execute_program(_sampled_shape(_seeded(4321, i))))
        vals = [v for _, v in r.score_trace]
        if vals != sorted(vals) or (vals and abs(vals[-1] - r.final_iou) > 1e-12):
            mono_fail += 1

    ok = flag_fail == 0 and mono_fail == 0
    _gate(7, ok, f"stability and connectivity flags unchanged under 100 in-bounds"
                 f" translations ({flag_fail} failures); accepted-score trace"
                 f" non-decreasing over 50 fits ({mono_fail} failures)")


# Fit statements per template statement over criterion 1's 200 shapes: 1.275
# (4.03 / 3.16) when this gate was added. A search change that lengthens
# programs past the bound has to move it and say why.
MAX_LENGTH_RATIO = 1.30


def test_criterion_8_program_length():
    programs, fits, _, _ = _criterion_1_fits()
    fit_len = sum(len(f.program.statements) for f in fits)
    template_len = sum(len(p.statements) for p in programs)
    ratio = fit_len / template_len
    _gate(8, ratio <= MAX_LENGTH_RATIO,
          f"fits of criterion 1's 200 shapes hold {fit_len / 200:.2f} top-level statements"
          f" per shape against {template_len / 200:.2f} in the template programs, ratio"
          f" {ratio:.3f} (need <= {MAX_LENGTH_RATIO:.2f})")
