"""Parametric table and chair generators.

Each template is a named family: integer parameter ranges, a feasibility
predicate, and a builder that turns one parameter assignment into a
program. Sampling rejects infeasible assignments and never emits a
program that fails validation. All builders target the default grid,
``DEFAULT_DIMS``, a cube of edge ``GRID``, and keep shapes grounded at y = 0.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .binvox import check_dims, write_binvox
from .dsl.ast import (
    Axis,
    DrawStmt,
    ForStmt,
    Program,
    Semantics,
    ShapeKind,
    _show,
    validate_program,
)
from .dsl.text import print_text
from .dsl.tokens import format_token_lines, tokenize
from .errors import InputError, TemplateInfeasibleError
from .executor import DEFAULT_DIMS, execute_program

GRID = DEFAULT_DIMS[0]  # every builder targets a cube of this edge
MAX_SAMPLE_ATTEMPTS = 100


class Category(enum.Enum):
    TABLE = "Table"
    CHAIR = "Chair"


@dataclass(frozen=True)
class Template:
    id: str
    category: Category
    ranges: dict
    build: Callable[[dict], Program]
    constraints: Callable[[dict], bool] = field(default=lambda p: True)
    doc: str = ""


def _centered(extent: int) -> int:
    return (GRID - extent) // 2


def _cub(sem, pos, geom) -> DrawStmt:
    return DrawStmt(sem, ShapeKind.CUBOID, pos, geom)


def _leg_grid(px, pz, height, side, step_x, step_z, sem=Semantics.LEG) -> ForStmt:
    """2x2 grid of square posts as a nested translation loop."""
    leg = _cub(sem, (px, 0, pz), (height, side, side))
    inner = ForStmt.translation(2, (0, 0, step_z), (leg,))
    return ForStmt.translation(2, (step_x, 0, 0), (inner,))


# ---------------------------------------------------------------- tables

def _t_four_leg(p):
    x0 = _centered(p["top_d"])
    z0 = _centered(p["top_w"])
    sx = p["top_d"] - 2 * p["inset"] - p["leg_s"]
    sz = p["top_w"] - 2 * p["inset"] - p["leg_s"]
    return Program((
        _cub(Semantics.TOP, (x0, p["height"], z0), (p["top_t"], p["top_d"], p["top_w"])),
        _leg_grid(x0 + p["inset"], z0 + p["inset"], p["height"], p["leg_s"], sx, sz),
    ))


def _c_four_leg_ok(p):
    return (p["top_d"] - 2 * p["inset"] - p["leg_s"] >= p["leg_s"] + 2
            and p["top_w"] - 2 * p["inset"] - p["leg_s"] >= p["leg_s"] + 2)


def _t_pedestal(p):
    c = GRID // 2
    return Program((
        DrawStmt(Semantics.BASE, ShapeKind.CYLINDER, (c, 0, c), (p["base_t"], p["base_r"])),
        DrawStmt(Semantics.SUPPORT, ShapeKind.CYLINDER, (c, 0, c), (p["height"], p["col_r"])),
        DrawStmt(Semantics.TOP, ShapeKind.CIRCLE, (c, p["height"], c), (p["top_t"], p["top_r"])),
    ))


def _t_sideboard(p):
    x0 = _centered(p["top_d"])
    z0 = _centered(p["top_w"])
    step = p["top_w"] - 2 * p["margin"] - p["board_t"]
    board = _cub(Semantics.SIDEBOARD, (x0, 0, z0 + p["margin"]),
                 (p["height"], p["top_d"], p["board_t"]))
    return Program((
        _cub(Semantics.TOP, (x0, p["height"], z0), (p["top_t"], p["top_d"], p["top_w"])),
        ForStmt.translation(2, (0, 0, step), (board,)),
    ))


def _t_layer(p):
    x0 = _centered(p["top_d"])
    z0 = _centered(p["top_w"])
    base = _t_four_leg(p)
    layer = _cub(Semantics.LAYER, (x0 + p["inset"], p["layer_y"], z0 + p["inset"]),
                 (p["layer_t"], p["top_d"] - 2 * p["inset"], p["top_w"] - 2 * p["inset"]))
    return Program(base.statements + (layer,))


def _t_locker(p):
    x0 = _centered(p["top_d"])
    z0 = _centered(p["top_w"])
    hbox = p["height"] // p["n_lockers"]
    box = _cub(Semantics.LOCKER, (x0, 0, z0), (hbox, p["top_d"], p["locker_w"]))
    board = _cub(Semantics.SIDEBOARD, (x0, 0, z0 + p["top_w"] - p["board_t"]),
                 (p["height"], p["top_d"], p["board_t"]))
    return Program((
        _cub(Semantics.TOP, (x0, p["height"], z0), (p["top_t"], p["top_d"], p["top_w"])),
        ForStmt.translation(p["n_lockers"], (0, hbox, 0), (box,)),
        board,
    ))


def _t_round_rotleg(p):
    c = GRID // 2
    leg = DrawStmt(Semantics.LEG, ShapeKind.CYLINDER,
                   (c + p["orbit"], 0, c), (p["height"], p["leg_r"]))
    return Program((
        DrawStmt(Semantics.TOP, ShapeKind.CIRCLE, (c, p["height"], c),
                 (p["top_t"], p["top_r"])),
        ForStmt.rotation(p["n_legs"], 360 // p["n_legs"], Axis.Y, (leg,)),
    ))


def _t_multi_layer(p):
    c = GRID // 2
    col_h = p["h0"] + (p["n_layers"] - 1) * p["gap"] + p["layer_t"]
    cx = c - p["col_s"] // 2
    layer = DrawStmt(Semantics.LAYER, ShapeKind.SQUARE, (c, p["h0"], c),
                     (p["layer_t"], p["layer_r"]))
    return Program((
        DrawStmt(Semantics.BASE, ShapeKind.SQUARE, (c, 0, c), (p["base_t"], p["base_r"])),
        _cub(Semantics.SUPPORT, (cx, 0, cx), (col_h, p["col_s"], p["col_s"])),
        ForStmt.translation(p["n_layers"], (0, p["gap"], 0), (layer,)),
    ))


def _t_hbar(p):
    x0 = _centered(p["top_d"])
    z0 = _centered(p["top_w"])
    base = _t_four_leg(p)
    sx = p["top_d"] - 2 * p["inset"] - p["leg_s"]
    sz = p["top_w"] - 2 * p["inset"] - p["leg_s"]
    bar = _cub(Semantics.HBAR, (x0 + p["inset"], p["bar_y"], z0 + p["inset"]),
               (p["bar_t"], p["leg_s"], sz + p["leg_s"]))
    return Program(base.statements + (ForStmt.translation(2, (sx, 0, 0), (bar,)),))


def _t_slab(p):
    top_d = p["body_d"] + 2 * p["over_x"]
    top_w = p["body_w"] + 2 * p["over_z"]
    bx = _centered(p["body_d"])
    bz = _centered(p["body_w"])
    return Program((
        _cub(Semantics.SUPPORT, (bx, 0, bz), (p["height"], p["body_d"], p["body_w"])),
        DrawStmt(Semantics.TOP, ShapeKind.RECTANGLE,
                 (bx - p["over_x"], p["height"], bz - p["over_z"]),
                 (p["top_t"], top_d, top_w)),
    ))


def _t_round_corner(p):
    c = GRID // 2
    e = p["e"]
    step = 2 * e - p["leg_s"]
    return Program((
        DrawStmt(Semantics.TOP, ShapeKind.CIRCLE, (c, p["height"], c),
                 (p["top_t"], p["top_r"])),
        _leg_grid(c - e, c - e, p["height"], p["leg_s"], step, step),
    ))


# ---------------------------------------------------------------- chairs

def _seat_and_legs(p):
    x0 = _centered(p["seat_d"])
    z0 = _centered(p["seat_w"])
    sx = p["seat_d"] - 2 * p["inset"] - p["leg_s"]
    sz = p["seat_w"] - 2 * p["inset"] - p["leg_s"]
    return x0, z0, (
        _cub(Semantics.TOP, (x0, p["seat_h"], z0), (p["seat_t"], p["seat_d"], p["seat_w"])),
        _leg_grid(x0 + p["inset"], z0 + p["inset"], p["seat_h"], p["leg_s"], sx, sz),
    )


def _c_seat_ok(p):
    return (p["seat_d"] - 2 * p["inset"] - p["leg_s"] >= p["leg_s"] + 2
            and p["seat_w"] - 2 * p["inset"] - p["leg_s"] >= p["leg_s"] + 2)


def _c_basic(p):
    x0, z0, body = _seat_and_legs(p)
    y = p["seat_h"] + p["seat_t"]
    back = _cub(Semantics.BACK, (x0, y, z0),
                (p["back_h"], p["back_t"], p["seat_w"], p["tilt"]))
    return Program(body + (back,))


def _c_bar_back(p):
    x0, z0, body = _seat_and_legs(p)
    y = p["seat_h"] + p["seat_t"]
    span = p["seat_w"] - 2 * p["inset"]
    post = _cub(Semantics.BACKSUP, (x0, y, z0 + p["inset"]),
                (p["back_h"], p["post_s"], p["post_s"]))
    posts = ForStmt.translation(2, (0, 0, span - p["post_s"]), (post,))
    bar = _cub(Semantics.HBAR, (x0, y + p["first_bar"], z0 + p["inset"]),
               (p["bar_t"], p["post_s"], span))
    bars = ForStmt.translation(p["n_bars"], (0, p["bar_gap"], 0), (bar,))
    return Program(body + (posts, bars))


def _c_bar_back_ok(p):
    span = p["seat_w"] - 2 * p["inset"]
    top_bar = p["first_bar"] + (p["n_bars"] - 1) * p["bar_gap"] + p["bar_t"]
    return (_c_seat_ok(p)
            and span - p["post_s"] >= p["post_s"] + 2
            and top_bar <= p["back_h"])


def _c_armchair(p):
    x0, z0, body = _seat_and_legs(p)
    y = p["seat_h"] + p["seat_t"]
    step = (0, 0, p["seat_w"] - p["arm_t"])
    arm = _cub(Semantics.VBOARD, (x0, y, z0), (p["arm_h"], p["arm_d"], p["arm_t"]))
    beam = _cub(Semantics.BEAM, (x0, y + p["arm_h"], z0),
                (p["beam_t"], p["seat_d"], p["arm_t"]))
    back = _cub(Semantics.BACK, (x0, y, z0), (p["back_h"], p["back_t"], p["seat_w"]))
    return Program(body + (
        ForStmt.translation(2, step, (arm,)),
        ForStmt.translation(2, step, (beam,)),
        back,
    ))


def _c_armchair_ok(p):
    return (_c_seat_ok(p)
            and p["arm_d"] <= p["seat_d"]
            and p["back_h"] >= p["arm_h"] + p["beam_t"] + 1
            and p["seat_w"] - p["arm_t"] >= p["arm_t"] + 2)


def _c_swivel(p):
    c = GRID // 2
    spoke = DrawStmt(Semantics.BASE, ShapeKind.LINE, (c, p["spoke_h"], c),
                     (c + p["spoke_len"], 0, c))
    half = p["back_half"]
    back = _cub(Semantics.BACK,
                (c - p["seat_r"] + 1, p["seat_h"] + p["seat_t"], c - half),
                (p["back_h"], p["back_t"], 2 * half))
    return Program((
        ForStmt.rotation(p["n_spokes"], 360 // p["n_spokes"], Axis.Y, (spoke,)),
        DrawStmt(Semantics.SUPPORT, ShapeKind.CYLINDER, (c, 0, c),
                 (p["seat_h"], p["col_r"])),
        DrawStmt(Semantics.TOP, ShapeKind.CIRCLE, (c, p["seat_h"], c),
                 (p["seat_t"], p["seat_r"])),
        back,
    ))


def _c_swivel_ok(p):
    # back panel corners must rest on the round seat
    return (p["seat_r"] - 1) ** 2 + p["back_half"] ** 2 <= p["seat_r"] ** 2


def _c_sofa(p):
    x0 = _centered(p["seat_d"])
    z0 = _centered(p["seat_w"])
    arm = _cub(Semantics.VBOARD, (x0, p["base_h"], z0),
               (p["arm_h"], p["seat_d"], p["arm_t"]))
    return Program((
        _cub(Semantics.BASE, (x0, 0, z0), (p["base_h"], p["seat_d"], p["seat_w"])),
        _cub(Semantics.TOP, (x0, p["base_h"], z0 + p["arm_t"]),
             (p["seat_t"], p["seat_d"], p["seat_w"] - 2 * p["arm_t"])),
        ForStmt.translation(2, (0, 0, p["seat_w"] - p["arm_t"]), (arm,)),
        _cub(Semantics.BACK, (x0, p["base_h"], z0),
             (p["back_h"], p["back_t"], p["seat_w"])),
    ))


def _c_bench(p):
    x0 = _centered(p["seat_d"])
    z0 = _centered(p["seat_w"])
    span = p["seat_w"] - 2 * p["slab_in"]
    slab = _cub(Semantics.LEG, (x0, 0, z0 + p["slab_in"]),
                (p["seat_h"], p["seat_d"], p["slab_t"]))
    xc = x0 + (p["seat_d"] - p["bar_d"]) // 2
    return Program((
        _cub(Semantics.TOP, (x0, p["seat_h"], z0), (p["seat_t"], p["seat_d"], p["seat_w"])),
        ForStmt.translation(2, (0, 0, span - p["slab_t"]), (slab,)),
        _cub(Semantics.HBAR, (xc, p["bar_y"], z0 + p["slab_in"]),
             (p["bar_t"], p["bar_d"], span)),
    ))


def _c_post_back(p):
    x0, z0, body = _seat_and_legs(p)
    y = p["seat_h"] + p["seat_t"]
    span = p["seat_w"] - 2 * p["inset"]
    post = _cub(Semantics.BACKSUP, (x0, y, z0 + p["inset"]),
                (p["post_h"], p["post_s"], p["post_s"]))
    panel = _cub(Semantics.BACK, (x0, y + p["post_h"], z0 + p["inset"]),
                 (p["panel_h"], p["post_s"], span))
    return Program(body + (
        ForStmt.translation(2, (0, 0, span - p["post_s"]), (post,)),
        panel,
    ))


def builtin_templates() -> list:
    """All built-in families: 10 tables then 7 chairs, order fixed."""
    t = Template
    tables = [
        t("table_four_leg", Category.TABLE,
          {"top_w": (16, 28), "top_d": (16, 28), "top_t": (2, 3),
           "height": (12, 24), "leg_s": (2, 4), "inset": (1, 3)},
          _t_four_leg, _c_four_leg_ok,
          "Rectangular top on a 2x2 grid of square legs (nested loop)."),
        t("table_pedestal", Category.TABLE,
          {"top_r": (8, 14), "top_t": (1, 2), "height": (12, 22),
           "col_r": (1, 3), "base_r": (4, 8), "base_t": (1, 2)},
          _t_pedestal,
          lambda p: p["base_r"] >= p["col_r"] + 2 and p["top_r"] >= p["base_r"],
          "Round top on a central cylindrical column over a disk base."),
        t("table_sideboard", Category.TABLE,
          {"top_w": (18, 28), "top_d": (12, 20), "top_t": (2, 3),
           "height": (12, 22), "board_t": (2, 3), "margin": (0, 2)},
          _t_sideboard,
          lambda p: p["top_w"] - 2 * p["margin"] - p["board_t"] >= p["board_t"] + 4,
          "Top carried by two full-depth side boards."),
        t("table_layer", Category.TABLE,
          {"top_w": (16, 28), "top_d": (16, 28), "top_t": (2, 3),
           "height": (12, 24), "leg_s": (2, 4), "inset": (1, 3),
           "layer_y": (4, 10), "layer_t": (1, 2)},
          _t_layer,
          lambda p: _c_four_leg_ok(p) and p["layer_y"] + p["layer_t"] <= p["height"] - 2,
          "Four-leg table with a storage shelf spanning the legs."),
        t("table_locker", Category.TABLE,
          {"top_w": (20, 28), "top_d": (12, 18), "top_t": (2, 3),
           "height": (12, 18), "locker_w": (6, 10), "board_t": (2, 3),
           "n_lockers": (2, 3)},
          _t_locker,
          lambda p: (p["locker_w"] + p["board_t"] <= p["top_w"] - 4
                     and p["height"] % p["n_lockers"] == 0),
          "Desk: locker stack under one end, side board under the other."),
        t("table_round_rotleg", Category.TABLE,
          {"top_r": (9, 13), "top_t": (1, 2), "height": (12, 20),
           "n_legs": (3, 5), "leg_r": (1, 2), "orbit": (5, 9)},
          _t_round_rotleg,
          lambda p: p["orbit"] + p["leg_r"] + 2 <= p["top_r"],
          "Round top on legs placed by a rotation loop."),
        t("table_multi_layer", Category.TABLE,
          {"n_layers": (2, 3), "layer_r": (6, 10), "layer_t": (1, 2),
           "gap": (6, 10), "col_s": (2, 4), "h0": (6, 10),
           "base_r": (4, 7), "base_t": (1, 2)},
          _t_multi_layer,
          lambda p: (p["h0"] + (p["n_layers"] - 1) * p["gap"] + p["layer_t"] <= GRID - 2
                     and p["base_r"] >= p["col_s"]),
          "Square layers stacked on a central post over a square base."),
        t("table_hbar", Category.TABLE,
          {"top_w": (16, 28), "top_d": (16, 28), "top_t": (2, 3),
           "height": (12, 24), "leg_s": (2, 4), "inset": (1, 3),
           "bar_y": (2, 6), "bar_t": (1, 2)},
          _t_hbar, _c_four_leg_ok,
          "Four-leg table with low stretcher bars joining the leg pairs."),
        t("table_slab", Category.TABLE,
          {"body_w": (10, 18), "body_d": (8, 14), "height": (12, 20),
           "over_x": (2, 5), "over_z": (2, 5), "top_t": (2, 3)},
          _t_slab,
          lambda p: (p["body_d"] + 2 * p["over_x"] <= GRID - 2
                     and p["body_w"] + 2 * p["over_z"] <= GRID - 2),
          "Overhanging top on one solid block pedestal."),
        t("table_round_corner", Category.TABLE,
          {"top_r": (10, 14), "top_t": (1, 2), "height": (12, 20),
           "leg_s": (2, 3), "e": (4, 7)},
          _t_round_corner,
          lambda p: 2 * p["e"] * p["e"] <= (p["top_r"] - 1) ** 2
          and 2 * p["e"] - p["leg_s"] >= p["leg_s"] + 2,
          "Round top on four square legs in a 2x2 loop."),
    ]
    chairs = [
        t("chair_basic", Category.CHAIR,
          {"seat_w": (12, 18), "seat_d": (12, 16), "seat_t": (2, 3),
           "seat_h": (8, 12), "leg_s": (2, 3), "inset": (1, 2),
           "back_h": (8, 14), "back_t": (2, 3), "tilt": (-15, 0)},
          _c_basic,
          lambda p: _c_seat_ok(p) and p["seat_h"] + p["seat_t"] + p["back_h"] <= GRID - 1,
          "Four legs, seat slab, full-width back panel with optional tilt."),
        t("chair_bar_back", Category.CHAIR,
          {"seat_w": (12, 18), "seat_d": (12, 16), "seat_t": (2, 3),
           "seat_h": (8, 12), "leg_s": (2, 3), "inset": (1, 2),
           "back_h": (9, 14), "post_s": (2, 3), "n_bars": (2, 3),
           "bar_gap": (3, 5), "first_bar": (1, 3), "bar_t": (1, 2)},
          _c_bar_back, _c_bar_back_ok,
          "Back made of two posts joined by horizontal rungs."),
        t("chair_armchair", Category.CHAIR,
          {"seat_w": (13, 18), "seat_d": (12, 16), "seat_t": (2, 3),
           "seat_h": (8, 11), "leg_s": (2, 3), "inset": (1, 2),
           "arm_h": (4, 7), "arm_t": (2, 3), "arm_d": (8, 12),
           "beam_t": (1, 2), "back_h": (8, 12), "back_t": (2, 3)},
          _c_armchair, _c_armchair_ok,
          "Arm boards with rest beams on top, back panel between them."),
        t("chair_swivel", Category.CHAIR,
          {"n_spokes": (4, 5), "spoke_h": (2, 4), "spoke_len": (6, 9),
           "col_r": (1, 2), "seat_h": (9, 13), "seat_r": (6, 9),
           "seat_t": (2, 3), "back_half": (3, 4), "back_h": (8, 12),
           "back_t": (2, 3)},
          _c_swivel, _c_swivel_ok,
          "Line spokes by rotation loop, central column, round seat, back."),
        t("chair_sofa", Category.CHAIR,
          {"seat_w": (18, 26), "seat_d": (10, 14), "base_h": (3, 5),
           "seat_t": (2, 3), "arm_h": (6, 9), "arm_t": (2, 3),
           "back_h": (8, 12), "back_t": (2, 3)},
          _c_sofa,
          lambda p: p["seat_w"] - p["arm_t"] >= p["arm_t"] + 2,
          "Solid base, seat between two arm boards, full-width back."),
        t("chair_bench", Category.CHAIR,
          {"seat_w": (18, 26), "seat_d": (8, 12), "seat_t": (2, 3),
           "seat_h": (8, 12), "slab_t": (2, 3), "slab_in": (1, 3),
           "bar_y": (2, 5), "bar_t": (1, 2), "bar_d": (2, 3)},
          _c_bench,
          lambda p: (p["seat_w"] - 2 * p["slab_in"] - p["slab_t"] >= p["slab_t"] + 2
                     and p["bar_y"] + p["bar_t"] <= p["seat_h"]
                     and p["bar_d"] <= p["seat_d"]),
          "Bench: slab legs at both ends and a stretcher bar between."),
        t("chair_post_back", Category.CHAIR,
          {"seat_w": (12, 18), "seat_d": (12, 16), "seat_t": (2, 3),
           "seat_h": (8, 12), "leg_s": (2, 3), "inset": (1, 2),
           "post_s": (2, 3), "post_h": (3, 6), "panel_h": (4, 8)},
          _c_post_back,
          lambda p: (_c_seat_ok(p)
                     and p["seat_w"] - 2 * p["inset"] - p["post_s"] >= p["post_s"] + 2),
          "Two posts on the seat carrying a raised back panel."),
    ]
    return tables + chairs


def sample(t: Template, rng) -> tuple:
    """Draw one feasible parameter assignment and build its program.

    Parameters are drawn uniformly (inclusive ranges) in sorted name
    order so the stream of random draws is reproducible. One generator call
    draws an attempt's parameters, consuming the stream as one per parameter would.
    A ``t`` that is not a Template, or an ``rng`` that is neither a
    Generator nor a seed ``default_rng`` takes, raises InputError.
    """
    if not isinstance(t, Template):
        raise InputError(f"t must be a Template, got {type(t).__name__}")
    if not isinstance(rng, np.random.Generator):
        try:
            rng = np.random.default_rng(rng)
        except (TypeError, ValueError):
            raise InputError(f"rng must be a numpy Generator or a seed,"
                             f" got {_show(rng)}") from None
    names = sorted(t.ranges)
    lows, highs = [t.ranges[name][0] for name in names], [t.ranges[name][1] for name in names]
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        params = dict(zip(names, rng.integers(lows, highs, endpoint=True).tolist()))
        if not t.constraints(params):
            continue
        program = t.build(params)
        if validate_program(program).ok:
            return program, params
    raise TemplateInfeasibleError(t.id, MAX_SAMPLE_ATTEMPTS)


def _record_seed(seed: int, index: int) -> int:
    return (seed ^ index) & 0xFFFFFFFFFFFFFFFF


def generate_dataset(out_dir, tables=0, chairs=0, seed=0, dims=DEFAULT_DIMS) -> dict:
    """Write a reproducible dataset and return its manifest.

    Files land in programs/, tokens/, and voxels/ under ``out_dir``, one
    trio per record, plus manifest.json. Record i draws from its own
    generator seeded with seed XOR i, so records are independent of each
    other and of generation order; each picks a template of its category
    uniformly. An ``out_dir`` that is not a path, counts that are not ints
    >= 0, or a seed that is not an int, raise InputError, and ``dims`` that
    no binvox file can hold BinvoxError, before any directory is created.
    """
    try:
        out = Path(out_dir)
    except TypeError:
        raise InputError(f"out_dir must be a path, got {_show(out_dir)}") from None
    if (not all(isinstance(v, int) and not isinstance(v, bool) for v in (tables, chairs, seed))
            or min(tables, chairs) < 0):
        raise InputError(f"tables and chairs must be ints >= 0 and seed an int, got"
                         f" tables={_show(tables)}, chairs={_show(chairs)}, seed={_show(seed)}")
    check_dims(dims)
    all_templates = builtin_templates()
    families = {c: [t for t in all_templates if t.category is c] for c in Category}
    # a uniform p, since rng.choice draws differently without one
    uniform = {c: np.ones(len(f)) / len(f) for c, f in families.items()}
    plan = [Category.TABLE] * tables + [Category.CHAIR] * chairs
    records = []
    out.mkdir(parents=True, exist_ok=True)
    for sub in ("programs", "tokens", "voxels") if plan else ():
        (out / sub).mkdir(exist_ok=True)
    for index, category in enumerate(plan):
        rng = np.random.default_rng(_record_seed(seed, index))
        family = families[category]
        template = family[int(rng.choice(len(family), p=uniform[category]))]
        program, params = sample(template, rng)
        name = f"{index:06d}"
        grid = execute_program(program, dims)
        (out / "programs" / f"{name}.sp").write_text(print_text(program))
        (out / "tokens" / f"{name}.tok").write_text(format_token_lines(tokenize(program)))
        (out / "voxels" / f"{name}.binvox").write_bytes(write_binvox(grid))
        records.append({
            "index": index,
            "id": name,
            "template": template.id,
            "category": category.value,
            "params": params,
            "program": f"programs/{name}.sp",
            "tokens": f"tokens/{name}.tok",
            "voxels": f"voxels/{name}.binvox",
        })
    manifest = {
        "seed": seed,
        "dims": list(dims),
        "counts": {"Table": tables, "Chair": chairs},
        "weights": dict.fromkeys(sorted(t.id for t in all_templates), 1.0),
        "records": records,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest
