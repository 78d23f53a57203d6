"""The package surface: each public name loads its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import towertree

# The public names of `towertree`, by the module that defines each.
PUBLIC = {
    "errors": """DepthExhausted DifferentTowers ElementNotInLevel EmptyCore IndexOutOfRange
        InvalidParameter NotLevelMorphism NotML NotProper ParseError SourceTargetMismatch
        TowerTreeError UnsupportedMode ValidationError VertexNotFound WindowOverflow""",
    "towers": """EQUIV_INCONCLUSIVE EQUIVALENT EXTENSIONAL FAILS GENERATOR HOLDS INCONCLUSIVE
        NOT_EQUIVALENT EquivalenceVerdict Levelization LevelStabilization MLFailure MLReport
        SolenoidOracle Tower TowerMorphism compose_bonding compose_morphisms identity_morphism
        is_extendable is_level_morphism levelize_morphism ml_verdict morphisms_equivalent
        natural_key surjective_core windowed_solenoid_tower""",
    "trees": """ROOT RootedTree TreePoint Vertex ancestor_point_at branches distance dot_of_tree
        geodesic_point max_geodesic_subtree meet_point point_of tower_of_tree tree_of_tower""",
    "maps": """HomotopyReport NonexpansiveVerdict PropernessReport Retraction TreeMap XiSchedule
        check_nonexpansive compose_tree_maps extract_morphism homotopy_properness
        identity_tree_map induce_tree_map properness_witness retraction_map simplicial_of_level
        xi_schedule""",
    "ends": """GRID RATIONAL CorrespondenceRow EndCorrespondence UltrametricSpace
        UltrametricVerdict agreement bilipschitz_bounds certified_ln_sign certified_neg_log_floor
        emit_distance_matrix end_space_of grid_space parse_distance_matrix rational_space
        simplicialize tree_of_ultrametric verify_ultrametric""",
    "groups": """ConditionReport CoreIso GroupLevelMorphism GroupTower IsometryVerdict ScaleHom
        TableGroup TableHom Thread WindowedZ as_tower_morphism check_condition_E
        check_condition_M check_translation_isometry core_iso_construction emit_group_tower
        identity_group_morphism limit_threads ml_projection_check parse_group_tower
        thread_distance""",
    "generate": """BiHolderRow BiHolderTable NonRetractReport gen_biholder gen_example_nonretract
        gen_random_grid_space gen_random_group_tower gen_random_rational_space gen_random_tower
        gen_solenoid random_morphism""",
    "formats": "emit_tower parse_tower",
    "report": "AnalysisReport build_report emit_report parse_report render_text",
}
NAMES = {name for names in PUBLIC.values() for name in names.split()}


def test_the_public_names_are_the_frozen_set():
    assert len(NAMES) == 130
    assert set(towertree.__all__) == set(NAMES) | set(PUBLIC)
    star = {}
    exec("from towertree import *", star)
    assert set(star) - {"__builtins__"} == set(NAMES) | set(PUBLIC)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_the_object_of_its_module(module):
    home = importlib.import_module(f"towertree.{module}")
    assert towertree.__getattr__(module) is home
    assert getattr(towertree, module) is home
    for name in PUBLIC[module].split():
        assert getattr(towertree, name) is getattr(home, name)
        assert name in towertree.__all__ and name in dir(towertree)


def test_an_unknown_name_raises_attribute_error():
    for package in (towertree, towertree.formats):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            package.no_such_name
    with pytest.raises(ImportError):
        exec("from towertree import no_such_name", {})


def test_the_matrix_parser_keeps_its_old_name():
    from towertree import ends, formats

    assert formats.parse_distance_matrix is ends.parse_distance_matrix


def test_a_one_shot_analyze_loads_only_the_modules_it_runs(tmp_path):
    """In a fresh interpreter (this one has loaded every module): importing
    the package loads no module of it, and an analyze loads neither groups,
    generate, ends nor mpmath.  The old name of the matrix parser then loads
    ends and groups, which perfbench's tracer reads from sys.modules."""
    spec = tmp_path / "solenoid.json"
    spec.write_text(json.dumps({"generator": "solenoid", "primes": [2], "window": 64, "depth": 7}))
    code = f"""
import contextlib, io, sys
import towertree
print(sorted(m for m in sys.modules if m.startswith("towertree")))
import towertree.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", {str(spec)!r}, "--format", "machine"]) == 0
print(sorted(m for m in sys.modules if m.startswith(("towertree", "mpmath"))))
towertree.formats.parse_distance_matrix  # what perfbench's tracer reads first
print(sorted(m for m in sys.modules if m.startswith(("towertree", "mpmath"))))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(towertree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    loaded = ["cli", "errors", "formats", "maps", "report", "towers", "trees"]
    traced = sorted(loaded + ["ends", "groups"])
    assert out.splitlines() == [
        str(["towertree"]),
        str(["towertree"] + [f"towertree.{m}" for m in loaded]),
        str(["towertree"] + [f"towertree.{m}" for m in traced]),
    ]
