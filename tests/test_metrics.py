"""Metrics against closed forms and brute-force loop oracles."""
import itertools
import math

import numpy as np
import pytest

from voxscript.dsl import TokenProgram, TokenStep
from voxscript.errors import (AlignmentError, CardinalityError, DistributionError,
                              EmptyShapeError, InputError, ShapeMismatchError)
from voxscript.metrics import (BCE_EPS, LossWeights, chamfer, emd, generator_loss,
                               iou, surface_mask, surface_points, weighted_bce)


def block(pos, size=(2, 2, 2), dims=(32, 32, 32)):
    g = np.zeros(dims, dtype=bool)
    g[pos[0]:pos[0] + size[0], pos[1]:pos[1] + size[1], pos[2]:pos[2] + size[2]] = True
    return g


# ------------------------------------------------------------------ iou

def test_iou_identity_and_disjoint():
    g = block((4, 4, 4))
    assert iou(g, g) == 1.0
    assert iou(g, block((20, 20, 20))) == 0.0


def test_iou_shifted_block_4_over_12():
    a = block((4, 4, 4))
    b = block((5, 4, 4))
    assert iou(a, b) == pytest.approx(4 / 12, abs=0)


def test_iou_both_empty():
    e = np.zeros((32, 32, 32), dtype=bool)
    assert iou(e, e) == 1.0


def test_iou_symmetric_bounded():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.random((8, 8, 8)) < 0.3
        b = rng.random((8, 8, 8)) < 0.3
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert (v == 1.0) == bool((a == b).all())


def test_iou_dims_mismatch():
    with pytest.raises(ShapeMismatchError):
        iou(np.zeros((4, 4, 4), dtype=bool), np.zeros((5, 4, 4), dtype=bool))


# ------------------------------------------------------ surface sampling

def test_surface_mask_hollow():
    g = np.zeros((8, 8, 8), dtype=bool)
    g[1:6, 1:6, 1:6] = True  # 5^3 solid
    m = surface_mask(g)
    assert int(m.sum()) == 5 ** 3 - 3 ** 3
    assert not m[3, 3, 3]


def test_surface_mask_grid_faces_are_surface():
    g = np.ones((4, 4, 4), dtype=bool)
    m = surface_mask(g)
    assert int(m.sum()) == 4 ** 3 - 2 ** 3


def surface_oracle(g):
    """Per voxel: occupied, with a 6-neighbour that is vacant or off the grid."""
    m = np.zeros(g.shape, dtype=bool)
    for p in itertools.product(*map(range, g.shape)):
        if g[p]:
            for axis, step in itertools.product(range(3), (-1, 1)):
                q = list(p)
                q[axis] += step
                if not 0 <= q[axis] < g.shape[axis] or not g[tuple(q)]:
                    m[p] = True
    return m


@pytest.mark.parametrize("dims", [(6, 6, 6), (1, 5, 7), (9, 2, 4), (3, 1, 1)])
def test_surface_mask_matches_neighbour_oracle(dims):
    rng = np.random.default_rng(sum(dims))
    for density in (0.2, 0.6, 0.9, 1.0):
        g = rng.random(dims) < density
        assert (surface_mask(g) == surface_oracle(g)).all()


@pytest.mark.parametrize("dims", [(0, 3, 3), (3, 0, 3), (3, 3, 0), (0, 0, 0)])
def test_surface_of_a_zero_size_grid_is_empty(dims):
    g = np.zeros(dims, dtype=bool)
    assert surface_mask(g).shape == dims and not surface_mask(g).any()
    with pytest.raises(EmptyShapeError):
        surface_points(g)


@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 2, 2, 2)])
def test_iou_and_bce_refuse_non_3d_grids(shape):
    g = np.zeros(shape, dtype=bool)
    with pytest.raises(ShapeMismatchError):
        iou(g, g)
    with pytest.raises(ShapeMismatchError):
        weighted_bce(g.astype(float), g)


def test_surface_points_single_voxel():
    g = np.zeros((32, 32, 32), dtype=bool)
    g[10, 11, 12] = True
    pts = surface_points(g, n=16, rng=np.random.default_rng(0))
    assert pts.shape == (16, 3)
    assert (pts == np.array([10.5, 11.5, 12.5]) / 32).all()


def test_surface_points_only_shell():
    g = np.ones((32, 32, 32), dtype=bool)
    pts = surface_points(g, n=256, rng=np.random.default_rng(1))
    vox = np.floor(pts * 32).astype(int)
    on_shell = (vox == 0) | (vox == 31)
    assert on_shell.any(axis=1).all()


def test_surface_points_deterministic():
    g = block((4, 4, 4), size=(6, 5, 4))
    a = surface_points(g, rng=np.random.default_rng(7))
    b = surface_points(g, rng=np.random.default_rng(7))
    assert a.shape == (512, 3)
    assert (a == b).all()


def test_surface_points_empty_error():
    with pytest.raises(EmptyShapeError):
        surface_points(np.zeros((4, 4, 4), dtype=bool))


# --------------------------------------------------------------- chamfer

def test_chamfer_identity_and_pair():
    s = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    assert chamfer(s, s) == 0.0
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(1.0, abs=0)


def brute_chamfer(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return 0.5 * d.min(axis=1).mean() + 0.5 * d.min(axis=0).mean()


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.random((64, 3))
        b = rng.random((64, 3))
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), abs=1e-12)
        assert chamfer(a, b) == chamfer(b, a)


# ------------------------------------------------------------------- emd

def test_emd_identity_and_permutation():
    s = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert emd(s, s) == 0.0
    assert emd(s, s[::-1]) == 0.0


def brute_emd(a, b):
    n = len(a)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.linalg.norm(a[i] - b[p])) for i, p in enumerate(perm))
        best = min(best, cost)
    return best / n


def test_emd_matches_factorial_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.random((6, 3))
        b = rng.random((6, 3))
        assert emd(a, b) == pytest.approx(brute_emd(a, b), abs=1e-12)


def test_emd_never_exceeds_greedy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.random((16, 3))
        b = rng.random((16, 3))
        remaining = list(range(16))
        cost = 0.0
        for i in range(16):
            j = min(remaining, key=lambda j: float(np.linalg.norm(a[i] - b[j])))
            cost += float(np.linalg.norm(a[i] - b[j]))
            remaining.remove(j)
        assert emd(a, b) <= cost / 16 + 1e-12


def test_emd_cardinality_error():
    with pytest.raises(CardinalityError):
        emd(np.zeros((3, 3)), np.zeros((4, 3)))


# ---------------------------------------------------------- weighted bce

def test_bce_uniform_half_closed_form():
    rng = np.random.default_rng(6)
    target = rng.random((32, 32, 32)) < 0.5
    pred = np.full((32, 32, 32), 0.5)
    v = weighted_bce(pred, target, LossWeights())
    assert v == pytest.approx(32 ** 3 * math.log(2), rel=1e-12)


def test_bce_perfect_prediction_clamping_floor():
    target = block((4, 4, 4))
    pred = target.astype(float)
    v = weighted_bce(pred, target, LossWeights())
    assert 0.0 <= v <= 32 ** 3 * -math.log1p(-BCE_EPS) + 1e-12
    assert v <= 3.4e-3


def test_bce_matches_loop_oracle():
    rng = np.random.default_rng(7)
    w = LossWeights(w0=2.0, w1=3.0)
    pred = rng.random((6, 5, 4))
    target = rng.random((6, 5, 4)) < 0.5
    expect = 0.0
    for x in range(6):
        for y in range(5):
            for z in range(4):
                p = min(max(pred[x, y, z], BCE_EPS), 1 - BCE_EPS)
                yv = 1.0 if target[x, y, z] else 0.0
                expect += -w.w1 * yv * math.log(p) - w.w0 * (1 - yv) * math.log(1 - p)
    assert weighted_bce(pred, target, w) == pytest.approx(expect, rel=1e-9)


def test_bce_minimized_at_target():
    rng = np.random.default_rng(8)
    target = rng.random((8, 8, 8)) < 0.4
    base = np.clip(target.astype(float), BCE_EPS, 1 - BCE_EPS)
    v0 = weighted_bce(base, target, LossWeights())
    for _ in range(10):
        noise = rng.random((8, 8, 8)) * 0.3
        pred = np.clip(base + np.where(target, -noise, noise), 0, 1)
        assert weighted_bce(pred, target, LossWeights()) >= v0


def test_loss_weights_validation():
    for name in ("w0", "w1", "wp", "wa"):
        for bad in (-1.0, float("nan"), float("inf"), True, "1", None):
            with pytest.raises(InputError, match=name):
                LossWeights(**{name: bad})
    with pytest.raises(InputError):
        LossWeights(w0=0.0, w1=0.0)
    assert LossWeights(w0=0, w1=2, wp=0.0, wa=3).w1 == 2


# -------------------------------------------------------- generator loss

def one_hot(i, n=76):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_generator_loss_one_hot_exact():
    gt = TokenProgram((TokenStep(7, (8, 20, 8, 2, 16, 16, 0)),
                       TokenStep(75, (0,) * 7)))
    probs = np.stack([one_hot(7), one_hot(75)])
    args = np.array([s.args for s in gt.steps], dtype=float)
    assert generator_loss(probs, args, gt, LossWeights()) == 0.0


def test_generator_loss_uniform_closed_form():
    gt = TokenProgram((TokenStep(7, (8, 20, 8, 2, 16, 16, 0)),))
    probs = np.full((1, 76), 1 / 76)
    args = np.array([gt.steps[0].args], dtype=float)
    v = generator_loss(probs, args, gt, LossWeights(wa=0.0))
    assert v == pytest.approx(math.log(76), rel=1e-12)


def test_generator_loss_matches_loop_oracle():
    rng = np.random.default_rng(9)
    w = LossWeights(wp=0.7, wa=1.3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        steps = tuple(TokenStep(int(rng.integers(0, 76)),
                                tuple(int(v) for v in rng.integers(0, 32, 7)))
                      for _ in range(n))
        gt = TokenProgram(steps)
        probs = rng.random((n, 76)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        args = rng.random((n, 7)) * 32
        expect = 0.0
        for i, s in enumerate(steps):
            expect += w.wp * -math.log(probs[i, s.id])
            expect += w.wa * sum((args[i, j] - s.args[j]) ** 2 for j in range(7))
        assert generator_loss(probs, args, gt, w) == pytest.approx(expect, rel=1e-9)


def test_generator_loss_errors():
    gt = TokenProgram((TokenStep(7, (8, 20, 8, 2, 16, 16, 0)),))
    good_args = np.array([gt.steps[0].args], dtype=float)
    with pytest.raises(AlignmentError):
        generator_loss(np.full((2, 76), 1 / 76), np.zeros((2, 7)), gt, LossWeights())
    with pytest.raises(DistributionError):
        generator_loss(np.full((1, 76), 0.5), good_args, gt, LossWeights())
    with pytest.raises(DistributionError):
        bad = np.full((1, 76), 1 / 76)
        bad[0, 0] = -bad[0, 0]
        bad[0, 1] += 2 / 76
        generator_loss(bad, good_args, gt, LossWeights())
