"""Reference computations for output checks, written without voxscript.

Each oracle recomputes a value from first principles (set algebra, brute
force nearest neighbours, bounds on an optimum) so a check never trusts
the code it checks.
"""
from __future__ import annotations

import numpy as np

SURFACE_SAMPLES = 512  # voxscript's documented default for surface_points
SURFACE_RNG_SEED = 0  # the seed `voxscript eval` samples surface points with


def voxel_set(grid) -> set:
    return set(np.flatnonzero(np.asarray(grid, dtype=bool)).tolist())


def set_iou(a, b) -> float:
    """IoU of two occupancy grids as sets of voxel indices; 1.0 when both are empty."""
    sa, sb = voxel_set(a), voxel_set(b)
    union = len(sa | sb)
    return 1.0 if union == 0 else len(sa & sb) / union


def surface_samples(grid) -> np.ndarray:
    """The points `voxscript eval` scores: surface voxel centres in the unit cube.

    A surface voxel is occupied with at least one vacant 6-neighbour, a
    grid face counting as vacant. Points are drawn with replacement in
    row-major voxel order, from a generator seeded as eval seeds it.
    """
    g = np.asarray(grid, dtype=bool)
    p = np.pad(g, 1)
    interior = np.ones_like(g)
    for axis in range(3):
        for shift in (0, 2):
            sl = [slice(1, -1)] * 3
            sl[axis] = slice(shift, shift + g.shape[axis])
            interior &= p[tuple(sl)]
    surf = np.argwhere(g & ~interior)
    idx = np.random.default_rng(SURFACE_RNG_SEED).integers(0, len(surf), size=SURFACE_SAMPLES)
    return (surf[idx] + 0.5) / np.asarray(g.shape, dtype=float)


def point_metrics(a, b) -> dict:
    """Brute-force chamfer, and bounds that any exact EMD must fall between.

    Every point is matched to some point at least as far as its nearest
    neighbour, so the mean matched distance is at least each direction's
    mean nearest-neighbour distance; the identity matching is one feasible
    matching, so the optimum is at most its mean distance.
    """
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
    ab = d.min(axis=1).mean()
    ba = d.min(axis=0).mean()
    return {
        "chamfer": float(0.5 * ab + 0.5 * ba),
        "emd_low": float(max(ab, ba)),
        "emd_high": float(np.sqrt(((a - b) ** 2).sum(axis=1)).mean()),
    }
