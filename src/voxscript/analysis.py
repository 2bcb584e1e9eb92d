"""Structural checks on voxel shapes: connectivity and standing stability.

A shape stands if the (x, z) projection of its center of mass lies within
the convex hull of the voxels on its own lowest occupied layer. Connectivity
counts flood-fill components under 6- or 26-adjacency (26 by default, so
corner contact still connects).
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .dsl.ast import _show
from .errors import EmptyShapeError, InputError
from .executor import as_grid

HULL_EPS = 1e-9
SEGMENT_SLACK = 0.5


class Connectivity(enum.Enum):
    SIX = 6
    TWENTY_SIX = 26


def _check_connectivity(connectivity):
    if not isinstance(connectivity, Connectivity):
        raise InputError(f"connectivity must be a Connectivity, got {_show(connectivity)}")


def _structure(connectivity: Connectivity) -> np.ndarray:
    _check_connectivity(connectivity)
    if connectivity is Connectivity.SIX:
        from scipy import ndimage

        return ndimage.generate_binary_structure(3, 1)
    return np.ones((3, 3, 3), dtype=bool)


def connected_components(g, connectivity: Connectivity = Connectivity.TWENTY_SIX):
    """Label occupied regions; returns (labels array, component count). A
    ``connectivity`` that is not a Connectivity raises InputError."""
    from scipy import ndimage

    structure = _structure(connectivity)
    g = as_grid(g)
    labels, count = ndimage.label(g, structure=structure)
    return labels, int(count)


def center_of_mass(g) -> tuple:
    """Unweighted mean of occupied voxel centers, in voxel units."""
    g = as_grid(g)
    occ = np.argwhere(g)
    if len(occ) == 0:
        raise EmptyShapeError("center of mass of an empty grid")
    c = occ.mean(axis=0) + 0.5
    return (float(c[0]), float(c[1]), float(c[2]))


def ground_contacts(g) -> list:
    """(x, z) centers of the voxels on the lowest occupied y-layer."""
    g = as_grid(g)
    ys = np.nonzero(g.any(axis=(0, 2)))[0]
    if len(ys) == 0:
        raise EmptyShapeError("ground contacts of an empty grid")
    layer = g[:, ys[0], :]
    return [(float(x) + 0.5, float(z) + 0.5) for x, z in np.argwhere(layer)]


def convex_hull_2d(points) -> list:
    """Monotone-chain hull, counterclockwise, without collinear points.

    Degenerate inputs collapse: one distinct point gives a 1-vertex hull,
    collinear points give the 2 extreme vertices. Points that are not
    (x, z) number pairs raise InputError.
    """
    try:
        pts = sorted(set((float(x), float(z)) for x, z in points))
    except (OverflowError, TypeError, ValueError):
        raise InputError("hull points must be (x, z) number pairs") from None
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return [pts[0], pts[-1]]
    return hull


def _point_segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0:
        return float(np.hypot(*(p - a)))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * ab))))


def point_in_hull(point, hull) -> bool:
    """Boundary-inclusive test; 1- or 2-vertex hulls allow half-voxel slack.
    A point or hull vertex that is not an (x, z) number pair raises InputError."""
    try:
        px, pz = (float(v) for v in point)
        hull = [(float(x), float(z)) for x, z in hull]
    except (OverflowError, TypeError, ValueError):
        raise InputError(f"point and hull must be (x, z) pairs,"
                         f" got {_show(point)}, {_show(hull)}") from None
    if len(hull) == 0:
        return False
    if len(hull) == 1:
        return _point_segment_distance(point, hull[0], hull[0]) <= SEGMENT_SLACK
    if len(hull) == 2:
        return _point_segment_distance(point, hull[0], hull[1]) <= SEGMENT_SLACK
    for i in range(len(hull)):
        ax, az = hull[i]
        bx, bz = hull[(i + 1) % len(hull)]
        if (bx - ax) * (pz - az) - (bz - az) * (px - ax) < -HULL_EPS:
            return False
    return True


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    connected: bool
    component_count: int
    center_of_mass: tuple | None
    contact_hull: tuple


def stability_report(g, connectivity: Connectivity = Connectivity.TWENTY_SIX) -> StabilityReport:
    """Full structural report; an empty grid is neither stable nor connected.
    A ``connectivity`` that is not a Connectivity raises InputError."""
    g = as_grid(g)
    _, count = connected_components(g, connectivity)
    if count == 0:
        return StabilityReport(False, False, 0, None, ())
    com = center_of_mass(g)
    hull = convex_hull_2d(ground_contacts(g))
    stable = point_in_hull((com[0], com[2]), hull)
    return StabilityReport(stable, count == 1, count, com, tuple(hull))


def is_stable(g) -> bool:
    g = as_grid(g)
    if not g.any():
        raise EmptyShapeError("stability of an empty grid")
    return stability_report(g).stable


def analyze_dataset(grids, connectivity: Connectivity = Connectivity.TWENTY_SIX) -> dict:
    """Aggregate percentages of stable / connected / both over many shapes.
    ``grids`` that is not an iterable, or a ``connectivity`` that is not a
    Connectivity, raises InputError before any grid is analysed."""
    _check_connectivity(connectivity)
    try:
        grids = iter(grids)
    except TypeError:
        raise InputError(f"grids must be an iterable of 3-D grids, got {_show(grids)}") from None
    reports = [stability_report(g, connectivity) for g in grids]
    n = len(reports)

    def pct(flags):
        return 100.0 * sum(flags) / n if n else 0.0

    return {
        "count": n,
        "adjacency": connectivity.value,
        "stable_pct": pct(r.stable for r in reports),
        "connected_pct": pct(r.connected for r in reports),
        "stable_and_connected_pct": pct(r.stable and r.connected for r in reports),
        "reports": reports,
    }


def format_analysis_json(result: dict) -> str:
    """The result but its reports, as JSON; a malformed result raises InputError."""
    try:
        payload = {k: v for k, v in result.items() if k != "reports"}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except (AttributeError, TypeError, ValueError):
        raise InputError(f"expected analyze_dataset's result, got {_show(result)}") from None


def format_analysis_table(result: dict) -> str:
    """Aligned three-column percentage table; a malformed result raises InputError."""
    header = f"{'Stable (%)':>12}  {'Conn. (%)':>12}  {'Stable & Conn. (%)':>20}"
    try:
        row = (f"{result['stable_pct']:>12.1f}  {result['connected_pct']:>12.1f}"
               f"  {result['stable_and_connected_pct']:>20.1f}")
    except (IndexError, KeyError, TypeError, ValueError):
        raise InputError(f"expected analyze_dataset's result, got {_show(result)}") from None
    return header + "\n" + row + "\n"
