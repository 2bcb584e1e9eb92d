"""Connectivity, center of mass, ground contacts, hulls, stability."""
import json

import numpy as np
import pytest

from voxscript.analysis import (Connectivity, analyze_dataset, center_of_mass,
                                connected_components, convex_hull_2d,
                                format_analysis_json, format_analysis_table,
                                ground_contacts, is_stable, point_in_hull,
                                stability_report)
from voxscript.binvox import export_obj
from voxscript.dsl import parse_text
from voxscript.errors import EmptyShapeError, ShapeMismatchError
from voxscript.executor import execute_program
from voxscript.metrics import surface_mask, surface_points

TABLE = """\
draw(Top, Cub, P=(8,20,8), G=(2,16,16))
for(Trans, i=2, u=(12,0,0)) {
  for(Trans, i=2, u=(0,0,12)) {
    draw(Leg, Cub, P=(9,0,9), G=(20,2,2))
  }
}
"""


def grid(*voxels, dims=(32, 32, 32)):
    g = np.zeros(dims, dtype=bool)
    for v in voxels:
        g[v] = True
    return g


# ---------------------------------------------------------- connectivity

def test_components_empty():
    _, n = connected_components(np.zeros((8, 8, 8), dtype=bool))
    assert n == 0


def test_components_separated():
    g = grid((1, 1, 1), (5, 5, 5))
    assert connected_components(g, Connectivity.SIX)[1] == 2
    assert connected_components(g, Connectivity.TWENTY_SIX)[1] == 2


def test_components_corner_touch():
    g = grid((1, 1, 1), (2, 2, 2))
    assert connected_components(g, Connectivity.TWENTY_SIX)[1] == 1
    assert connected_components(g, Connectivity.SIX)[1] == 2


def test_six_never_fewer_than_twenty_six():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rng.random((10, 10, 10)) < 0.2
        assert (connected_components(g, Connectivity.SIX)[1]
                >= connected_components(g, Connectivity.TWENTY_SIX)[1])


def test_component_count_axis_permutation_invariant():
    rng = np.random.default_rng(13)
    g = rng.random((9, 10, 11)) < 0.25
    n = connected_components(g)[1]
    assert connected_components(np.transpose(g, (2, 0, 1)))[1] == n
    assert connected_components(np.transpose(g, (1, 2, 0)))[1] == n


# -------------------------------------------------------- center of mass

def test_com_single_voxel():
    assert center_of_mass(grid((3, 4, 5))) == pytest.approx((3.5, 4.5, 5.5))


def test_com_two_voxel_column():
    g = grid((3, 4, 5), (3, 5, 5))
    assert center_of_mass(g) == pytest.approx((3.5, 5.0, 5.5))


def test_com_symmetric_table():
    g = execute_program(parse_text(TABLE))
    com = center_of_mass(g)
    assert com[0] == pytest.approx(16.0, abs=1e-9)
    assert com[2] == pytest.approx(16.0, abs=1e-9)


def test_com_empty_error():
    with pytest.raises(EmptyShapeError):
        center_of_mass(np.zeros((4, 4, 4), dtype=bool))


# ------------------------------------------------------- ground contacts

def test_contacts_floating_cube():
    g = np.zeros((32, 32, 32), dtype=bool)
    g[4:6, 5:8, 4:6] = True
    pts = ground_contacts(g)
    assert sorted(pts) == [(4.5, 4.5), (4.5, 5.5), (5.5, 4.5), (5.5, 5.5)]


def test_contacts_four_leg_table():
    g = execute_program(parse_text(TABLE))
    pts = ground_contacts(g)
    assert len(pts) == 4 * 4  # four 2x2 leg footprints
    xs = sorted({p[0] for p in pts})
    assert xs == [9.5, 10.5, 21.5, 22.5]


# ------------------------------------------------------------ hull tests

def test_hull_square_ccw():
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (1.0, 1.0)]
    hull = convex_hull_2d(pts)
    assert set(hull) == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}
    assert len(hull) == 4


def test_hull_collinear_degenerate():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    hull = convex_hull_2d(pts)
    assert len(hull) == 2
    assert set(hull) == {(0.0, 0.0), (2.0, 2.0)}


def test_point_in_hull_boundary_inclusive():
    hull = convex_hull_2d([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
    assert point_in_hull((2.0, 2.0), hull)
    assert point_in_hull((0.0, 2.0), hull)  # on an edge
    assert point_in_hull((4.0, 4.0), hull)  # a vertex
    assert not point_in_hull((4.2, 2.0), hull)


def test_point_near_segment_hull():
    hull = convex_hull_2d([(1.0, 1.0), (5.0, 1.0)])
    assert point_in_hull((3.0, 1.4), hull)   # within the 0.5 slack
    assert not point_in_hull((3.0, 1.6), hull)


# --------------------------------------------------------------- stability

def test_centered_column_stable():
    g = np.zeros((32, 32, 32), dtype=bool)
    g[15:17, 0:10, 15:17] = True
    assert is_stable(g)


def test_cantilever_unstable():
    g = np.zeros((32, 32, 32), dtype=bool)
    g[2, 0:6, 16] = True        # 1x1 support column at x=2
    g[2:21, 6, 16] = True       # long slab reaching x=20
    assert not is_stable(g)


def test_four_leg_table_stable():
    assert is_stable(execute_program(parse_text(TABLE)))


def test_full_base_slab_always_stable():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = np.zeros((32, 32, 32), dtype=bool)
        g[4:20, 0, 4:20] = True
        # arbitrary superstructure above the slab footprint
        pts = rng.integers(4, 20, (30, 2))
        for x, z in pts:
            g[x, 1:int(rng.integers(2, 20)), z] = True
        assert is_stable(g)


def test_stability_translation_invariance():
    g = execute_program(parse_text(TABLE))
    base = stability_report(g)
    for dx, dz in ((3, 0), (0, 4), (5, 5), (-4, 2)):
        shifted = np.roll(np.roll(g, dx, axis=0), dz, axis=2)
        rep = stability_report(shifted)
        assert rep.stable == base.stable
        assert rep.connected == base.connected


def test_report_fields():
    g = execute_program(parse_text(TABLE))
    rep = stability_report(g)
    assert rep.stable and rep.connected
    assert rep.component_count == 1
    assert rep.center_of_mass is not None
    assert len(rep.contact_hull) >= 3


def test_report_empty_grid():
    rep = stability_report(np.zeros((8, 8, 8), dtype=bool))
    assert not rep.stable and not rep.connected
    assert rep.component_count == 0


def test_is_stable_empty_error():
    with pytest.raises(EmptyShapeError):
        is_stable(np.zeros((4, 4, 4), dtype=bool))


# ----------------------------------------------------------- aggregation

def test_analyze_dataset_mixed():
    stable_conn = execute_program(parse_text(TABLE))
    cant = np.zeros((32, 32, 32), dtype=bool)
    cant[2, 0:6, 16] = True
    cant[2:21, 6, 16] = True
    cant[30, 0, 30] = True  # disconnect it too
    summary = analyze_dataset([stable_conn, cant])
    assert summary["count"] == 2
    assert summary["stable_pct"] == pytest.approx(50.0)
    assert summary["connected_pct"] == pytest.approx(50.0)
    assert summary["stable_and_connected_pct"] == pytest.approx(50.0)


def test_analyze_dataset_formats():
    g = execute_program(parse_text(TABLE))
    summary = analyze_dataset([g, g])
    blob = json.loads(format_analysis_json(summary))
    assert blob["stable_pct"] == 100.0
    assert "reports" not in blob
    table = format_analysis_table(summary)
    assert "Stable (%)" in table and "Conn. (%)" in table
    assert "100.0" in table


NOT_3D = [(4, 4), (4,), (2, 2, 2, 2)]


@pytest.mark.parametrize("shape", NOT_3D)
def test_connected_components_rejects_non_3d_grids(shape):
    with pytest.raises(ShapeMismatchError):
        connected_components(np.ones(shape, dtype=bool))


@pytest.mark.parametrize("shape", NOT_3D)
def test_stability_report_rejects_non_3d_grids(shape):
    with pytest.raises(ShapeMismatchError):
        stability_report(np.ones(shape, dtype=bool))


@pytest.mark.parametrize("shape", NOT_3D)
def test_is_stable_rejects_non_3d_grids(shape):
    for g in (np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)):
        with pytest.raises(ShapeMismatchError):
            is_stable(g)


@pytest.mark.parametrize("shape", NOT_3D)
@pytest.mark.parametrize("fn", [center_of_mass, ground_contacts, surface_mask, surface_points,
                                export_obj])
def test_grid_functions_reject_non_3d_grids(fn, shape):
    for g in (np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)):
        with pytest.raises(ShapeMismatchError):
            fn(g)
