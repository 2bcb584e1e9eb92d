"""Public entry points refuse malformed arguments with a typed VoxScriptError."""
import numpy as np
import pytest

from voxscript.analysis import convex_hull_2d, point_in_hull
from voxscript.binvox import read_binvox, write_binvox
from voxscript.errors import VoxScriptError
from voxscript.metrics import chamfer, surface_points
from voxscript.templates import builtin_templates, sample

GRID = np.ones((4, 4, 4), dtype=bool)
HULL = convex_hull_2d([(0, 0), (4, 0), (0, 4)])


@pytest.mark.parametrize("call", [
    lambda: chamfer("ab", "cd"),
    lambda: surface_points(GRID, n=-1),
    lambda: surface_points(GRID, n=2.5),
    lambda: convex_hull_2d([(1,)]),
    lambda: point_in_hull((1,), HULL),
    lambda: write_binvox(GRID, translate=(1,)),
    lambda: write_binvox(GRID, scale="a"),
    lambda: read_binvox("abc"),
    lambda: sample(builtin_templates()[0], "abc"),
], ids=["chamfer-strings", "surface-points-negative-n", "surface-points-float-n",
        "hull-of-1-tuples", "point-in-hull-1-tuple", "binvox-short-translate",
        "binvox-string-scale", "read-binvox-str", "sample-string-rng"])
def test_malformed_arguments_raise_typed_errors(call):
    with pytest.raises(VoxScriptError):
        call()
