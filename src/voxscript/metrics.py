"""Reconstruction metrics and training-style losses over voxel grids.

Point-cloud metrics (chamfer, emd) operate on surface samples normalized
to the unit cube, so values are comparable across grid resolutions.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dsl.ast import _show
from .dsl.tokens import TokenProgram
from .errors import (
    AlignmentError,
    CardinalityError,
    DistributionError,
    EmptyShapeError,
    InputError,
    ShapeMismatchError,
)
from .executor import as_grid

BCE_EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Balance terms: w0/w1 for vacant/occupied voxels, wp/wa for id/args.
    Each is a finite number >= 0, not a bool, and w0 and w1 are not both
    zero; anything else raises InputError."""

    w0: float = 1.0
    w1: float = 1.0
    wp: float = 1.0
    wa: float = 1.0

    def __post_init__(self):
        for name in ("w0", "w1", "wp", "wa"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v < math.inf:
                raise InputError(f"{name} must be a finite number >= 0, got {_show(v)}")
        if self.w0 == 0 and self.w1 == 0:
            raise InputError("w0 and w1 must not both be zero")


def _check_weights(w):
    if not isinstance(w, LossWeights):
        raise InputError(f"w must be a LossWeights, got {type(w).__name__}")


def _check_same_dims(a, b):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"grid dims differ: {a.shape} vs {b.shape}")


def iou(a, b) -> float:
    """Intersection over union of occupancy; two empty grids count as 1.0."""
    a = as_grid(a)
    b = as_grid(b)
    _check_same_dims(a, b)
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def surface_mask(g) -> np.ndarray:
    """Occupied voxels with at least one vacant 6-neighbor (or a grid face)."""
    g = as_grid(g)
    p = np.pad(g, 1)  # vacant past every face
    interior = (p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
                & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:])
    return g & ~interior


def surface_points(g, n: int = 512, rng=None) -> np.ndarray:
    """Sample n surface-voxel centers with replacement, scaled into [0,1]^3.
    An ``n`` that is not an int >= 0, or an ``rng`` that is neither a
    Generator nor a seed ``default_rng`` takes, raises InputError."""
    try:
        ok = operator.index(n) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"n must be an int >= 0, got {_show(n)}")
    try:
        rng = np.random.default_rng(rng)
    except (TypeError, ValueError):
        raise InputError(f"rng must be a numpy Generator or a seed, got {_show(rng)}") from None
    g = as_grid(g)
    surf = np.argwhere(surface_mask(g))
    if len(surf) == 0:
        raise EmptyShapeError("no occupied voxels to sample surface points from")
    idx = rng.integers(0, len(surf), size=n)
    return (surf[idx] + 0.5) / np.asarray(g.shape, dtype=float)


def _as_floats(a, name) -> np.ndarray:
    """``a`` as a float array; anything that is not numbers raises InputError."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be an array of numbers") from None


def _as_points(p, name) -> np.ndarray:
    pts = _as_floats(p, name)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeMismatchError(f"{name} must be an (n, 3) point array, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputError(f"{name} must hold finite coordinates only")
    return pts


def chamfer(a, b) -> float:
    """Half the sum of mean nearest-neighbor distances in each direction."""
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if len(a) == 0 or len(b) == 0:
        raise EmptyShapeError("chamfer needs non-empty point sets")
    from scipy.spatial import cKDTree

    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return float(0.5 * d_ab.mean() + 0.5 * d_ba.mean())


def emd(a, b) -> float:
    """Mean matched distance under the exact optimal one-to-one assignment."""
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if len(a) != len(b):
        raise CardinalityError(f"point sets must match in size: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise EmptyShapeError("emd needs non-empty point sets")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    costs = cdist(a, b)
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / len(a))


def weighted_bce(pred, target, w: LossWeights = LossWeights()) -> float:
    """Summed binary cross-entropy with separate vacant/occupied weights.

    Predictions are clamped to [eps, 1-eps] before the logs, so exact 0/1
    predictions cost the clamping floor instead of infinity. A ``w`` that
    is not a LossWeights raises InputError.
    """
    _check_weights(w)
    pred = _as_floats(pred, "pred")
    target = as_grid(target)
    _check_same_dims(pred, target)
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    y = target.astype(float)
    total = -w.w1 * y * np.log(p) - w.w0 * (1.0 - y) * np.log1p(-p)
    return float(total.sum())


def generator_loss(pred_probs, pred_args, gt, w: LossWeights = LossWeights()) -> float:
    """Score predicted steps against a token program.

    ``pred_probs`` is one id distribution per step; ``pred_args`` one
    argument row per step. Per step the cost is wp * -log p[true id] plus
    wa * squared L2 distance between the argument rows. A ``w`` that is
    not a LossWeights raises InputError.
    """
    _check_weights(w)
    probs = _as_floats(pred_probs, "pred_probs")
    args = _as_floats(pred_args, "pred_args")
    if not isinstance(gt, TokenProgram):
        raise InputError(f"gt must be a TokenProgram, got {type(gt).__name__}")
    steps = gt.steps
    if probs.ndim != 2 or args.ndim != 2:
        raise AlignmentError("predictions must be 2-d: (steps, ids) and (steps, args)")
    if len(probs) != len(steps) or len(args) != len(steps):
        raise AlignmentError(
            f"step counts differ: {len(probs)} distributions, {len(args)} argument"
            f" rows, {len(steps)} ground-truth steps"
        )
    if steps and args.shape[1] != len(steps[0].args):
        raise AlignmentError(
            f"argument rows are {args.shape[1]} wide, ground truth is {len(steps[0].args)}"
        )
    if np.any(probs < 0):
        raise DistributionError("class distributions must be non-negative")
    sums = probs.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > 1e-6)[0]
    if len(bad):
        raise DistributionError(f"distribution at step {bad[0]} sums to {sums[bad[0]]!r}")
    total = 0.0
    for i, step in enumerate(steps):
        if step.id >= probs.shape[1]:
            raise DistributionError(
                f"step {i}: id {step.id} outside distribution width {probs.shape[1]}"
            )
        with np.errstate(divide="ignore"):
            total += w.wp * float(-np.log(probs[i, step.id]))
        diff = args[i] - np.asarray(step.args, dtype=float)
        total += w.wa * float(diff @ diff)
    return total
