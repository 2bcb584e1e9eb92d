"""Template sampling and dataset generation."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from voxscript.analysis import Connectivity, connected_components, stability_report
from voxscript.dsl import (DrawStmt, ForStmt, Program, Semantics, ShapeKind, parse_text,
                           validate_program)
from voxscript.dsl.tokens import parse_token_lines, detokenize
from voxscript.binvox import read_binvox
from voxscript.errors import BinvoxError, InputError, TemplateInfeasibleError
from voxscript.executor import execute_program
from voxscript.templates import (MAX_SAMPLE_ATTEMPTS, Category, Template, builtin_templates,
                                 generate_dataset, sample)


def test_family_counts():
    temps = builtin_templates()
    tables = [t for t in temps if t.category is Category.TABLE]
    chairs = [t for t in temps if t.category is Category.CHAIR]
    assert len(tables) >= 10
    assert len(chairs) >= 6
    assert len({t.id for t in temps}) == len(temps)


def test_mid_range_instantiations():
    for t in builtin_templates():
        params = {k: (lo + hi) // 2 for k, (lo, hi) in sorted(t.ranges.items())}
        if not t.constraints(params):
            continue  # mid-range may violate a cross-parameter constraint
        p = t.build(params)
        assert not validate_program(p).violations, t.id
        assert execute_program(p).any(), t.id


def test_every_template_samples_and_executes():
    for t in builtin_templates():
        p, params = sample(t, np.random.default_rng(5))
        assert set(params) == set(t.ranges)
        assert not validate_program(p).violations
        assert execute_program(p).any()


def test_four_leg_table_uses_nested_translation():
    t = [x for x in builtin_templates() if x.id == "table_four_leg"][0]
    p, _ = sample(t, np.random.default_rng(0))
    fors = [s for s in p.statements if isinstance(s, ForStmt)]
    assert fors
    nested = [s for f in fors for s in f.body if isinstance(s, ForStmt)]
    assert nested, "expected a nested 2x2 leg loop"


def test_leg_groups_use_loops_not_repeats():
    # repeated parts must come from For loops, so no program may contain
    # two literal Draws that differ only by position
    def draws(stmts):
        for s in stmts:
            if isinstance(s, ForStmt):
                yield from draws(s.body)
            else:
                yield s

    for t in builtin_templates():
        p, _ = sample(t, np.random.default_rng(1))
        keys = [(d.semantics, d.shape, d.geometry) for d in draws(p.statements)]
        assert len(keys) == len(set(keys)), t.id


def test_sample_deterministic():
    for t in builtin_templates():
        a = sample(t, np.random.default_rng(9))
        b = sample(t, np.random.default_rng(9))
        assert a == b


def test_sampling_always_validates():
    # scaled-down version of the 10k property run per template
    for t in builtin_templates():
        rng = np.random.default_rng(10)
        for _ in range(200):
            p, _ = sample(t, rng)
            assert not validate_program(p).violations, t.id


def test_four_leg_components_below_top():
    t = [x for x in builtin_templates() if x.id == "table_four_leg"][0]
    p, params = sample(t, np.random.default_rng(2))
    g = execute_program(p)
    ys = np.argwhere(g)[:, 1]
    top_y = int(ys.max())
    # everything strictly below the top slab: exactly the 4 legs
    below = g.copy()
    below[:, top_y - 2:, :] = False
    _, n = connected_components(below, Connectivity.TWENTY_SIX)
    assert n == 4


def test_infeasible_template_raises():
    t = Template(
        id="impossible",
        category=Category.TABLE,
        ranges={"a": (0, 1)},
        build=lambda p: (_ for _ in ()).throw(AssertionError("unreached")),
        constraints=lambda p: False,
        doc="never satisfiable",
    )
    with pytest.raises(TemplateInfeasibleError) as exc:
        sample(t, np.random.default_rng(0))
    assert "impossible" in str(exc.value)


def test_stability_rate_sample():
    # scaled-down version of the 95% stable-and-connected property
    temps = builtin_templates()
    ok = 0
    total = 0
    for t in temps:
        rng = np.random.default_rng(20)
        for _ in range(6):
            p, _ = sample(t, rng)
            rep = stability_report(execute_program(p))
            ok += rep.stable and rep.connected
            total += 1
    assert ok / total >= 0.95


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(root).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def test_generate_dataset_layout_and_consistency(tmp_path):
    man = generate_dataset(tmp_path / "ds", tables=4, chairs=3, seed=11)
    assert man["counts"] == {"Table": 4, "Chair": 3}
    recs = man["records"]
    assert len(recs) == 7
    on_disk = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert on_disk == man
    for rec in recs:
        prog_file = tmp_path / "ds" / rec["program"]
        tok_file = tmp_path / "ds" / rec["tokens"]
        vox_file = tmp_path / "ds" / rec["voxels"]
        p = parse_text(prog_file.read_text())
        assert detokenize(parse_token_lines(tok_file.read_text())) == p
        g, _, _ = read_binvox(vox_file.read_bytes())
        assert (execute_program(p) == g).all()


def test_generate_dataset_deterministic(tmp_path):
    generate_dataset(tmp_path / "a", tables=3, chairs=3, seed=42)
    generate_dataset(tmp_path / "b", tables=3, chairs=3, seed=42)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    generate_dataset(tmp_path / "c", tables=3, chairs=3, seed=43)
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


# sha256 of the generate_dataset(seed=7, tables=10, chairs=10) tree. Sampling,
# the codecs and the executor keep every byte of it; a change meant to alter
# the dataset pins a new digest.
SEED7_TREE_DIGEST = "f3433d70f97cac1561efa52823268c85040a844ceee338ae1b550797bfd3d709"


def test_generate_dataset_pinned(tmp_path):
    generate_dataset(tmp_path / "ds", tables=10, chairs=10, seed=7)
    assert tree_digest(tmp_path / "ds") == SEED7_TREE_DIGEST


def scalar_sample(t, rng):
    """sample as one rng.integers call per parameter, in sorted name order."""
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        params = {name: int(rng.integers(lo, hi + 1)) for name, (lo, hi) in sorted(t.ranges.items())}
        if t.constraints(params):
            program = t.build(params)
            if validate_program(program).ok:
                return program, params


ONE_BOX = Program((DrawStmt(Semantics.TOP, ShapeKind.CUBOID, (0, 0, 0), (1, 1, 1)),))


@pytest.mark.parametrize("t", builtin_templates() + [
    Template("fixed", Category.TABLE, {}, lambda p: ONE_BOX),
    Template("wide", Category.TABLE, {"b": (0, 10 ** 12), "a": (3, 3), "c": (-5, 5)},
             lambda p: ONE_BOX, lambda p: p["c"] > 0),
], ids=lambda t: t.id)
def test_sample_draws_as_one_call_per_parameter_would(t):
    for seed in range(60):
        a, b = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
        program, params = sample(t, a)
        assert (program, params) == scalar_sample(t, b)
        assert all(type(v) is int for v in params.values())
        assert a.integers(2 ** 62) == b.integers(2 ** 62)  # the generators stay in step


def test_generate_dataset_empty(tmp_path):
    man = generate_dataset(tmp_path / "ds", tables=0, chairs=0, seed=1)
    assert man["records"] == []
    files = [f for f in (tmp_path / "ds").rglob("*") if f.is_file()]
    assert [f.name for f in files] == ["manifest.json"]


@pytest.mark.parametrize("dims", [(0, 4, 4), (4097, 4096, 1)])
def test_generate_dataset_refuses_dims_binvox_cannot_hold(tmp_path, dims):
    with pytest.raises(BinvoxError):
        generate_dataset(tmp_path / "ds", tables=1, chairs=1, seed=1, dims=dims)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("kwargs", [{"tables": -1}, {"tables": 1.5}, {"chairs": True},
                                    {"chairs": "2"}, {"seed": 1.0}, {"seed": False},
                                    {"seed": None}])
def test_generate_dataset_refuses_counts_and_seeds_that_are_not_ints(tmp_path, kwargs):
    with pytest.raises(InputError, match=next(iter(kwargs))):
        generate_dataset(tmp_path / "ds", **kwargs)
    assert not (tmp_path / "ds").exists()


def test_generate_dataset_family_restriction(tmp_path):
    man = generate_dataset(tmp_path / "ds", tables=10, chairs=0, seed=3)
    table_ids = {t.id for t in builtin_templates() if t.category is Category.TABLE}
    assert all(r["template"] in table_ids for r in man["records"])
