"""Towers of finite sets and groups, their trees, and the maps between them.

The library makes the tower <-> tree correspondence executable at desk
scale: towers convert to rooted simplicial trees and back, morphisms to
non-expansive metrically proper tree maps and back, end spaces carry
exact ultrametrics, and Mittag-Leffler behavior is decided with witnesses
wherever a truncated instance can decide it.

Importing the package loads none of its modules: each public name below is
read from its module on first use (PEP 562) and then kept here, so a run
loads only the modules it calls into.
"""

import importlib

# module -> the public names the package takes from it
_EXPORTS = {
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
# name -> module; a module is its own entry, as after an eager import
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update((module, None) for module in _EXPORTS)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _HOME[name]
    if module is None:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
