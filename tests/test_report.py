"""Analysis reports: content, horizon handling, serialization, rendering."""

from collections import Counter

import pytest

from oracles import brute_end_exponents

from towertree import (
    InvalidParameter,
    branches,
    build_report,
    emit_report,
    end_space_of,
    gen_random_tower,
    grid_space,
    is_extendable,
    max_geodesic_subtree,
    parse_report,
    render_text,
    retraction_map,
    tower_of_tree,
    tree_of_tower,
    tree_of_ultrametric,
    windowed_solenoid_tower,
)
from conftest import constant_tower, printed
from towertree.report import _truncate


def test_report_two_branch_frozen(two_branch_tower):
    r = build_report(two_branch_tower)
    assert r.tower == {"depth": 3, "level_sizes": [1, 2, 1], "flavor": "extensional"}
    assert r.ml["verdict"] == "inconclusive_at_depth"
    assert r.ml["stabilization"] == [[1, 1, 2], [2, 3, 0]]
    assert r.ml["witness"] is None
    assert r.t_infinity == {"vertex_count": 4, "depth": 3, "branch_count": 1}
    assert r.end_space == {
        "point_count": 1,
        "exponent_histogram": {},
        "diameter_exponent": None,
    }
    assert r.retraction == {
        "witness_total": True,
        "table": [[1, 1], [2, 3], [3, 3]],
        "failure_level": None,
        "oracle_override": False,
    }
    assert r.cross_check == {
        "consistent": True,
        "ml_verdict": "inconclusive_at_depth",
        "retraction_expects": "inconclusive_at_depth",
        "witness_total": True,
    }


def test_report_solenoid_failure_is_consistent(solenoid_p2):
    r = build_report(solenoid_p2)
    assert r.ml["verdict"] == "fails"
    assert len(r.ml["witness"]["chain"]) == 10
    assert r.retraction["witness_total"] is False
    assert r.cross_check["consistent"] is True
    assert r.end_space["point_count"] == 1


def test_report_constant_tower_holds():
    r = build_report(constant_tower(4))
    assert r.ml["verdict"] == "holds"
    assert r.cross_check == {
        "consistent": True,
        "ml_verdict": "holds",
        "retraction_expects": "holds",
        "witness_total": True,
    }
    assert r.t_infinity["branch_count"] == 1


def test_report_horizon_truncates_extensional(two_branch_tower):
    r = build_report(two_branch_tower, depth_horizon=2)
    assert r.tower["depth"] == 2
    assert r.ml["verdict"] == "holds"
    assert r.ml["stabilization"] == [[1, 1, 1]]


def test_report_horizon_extends_generator_tower():
    t = windowed_solenoid_tower([2], 256, 4)
    r = build_report(t, depth_horizon=7)
    assert r.tower["depth"] == 7
    assert r.ml["verdict"] == "fails"
    assert len(r.ml["witness"]["chain"]) == 6


def test_report_horizon_beyond_extensional_depth_rejected(two_branch_tower):
    with pytest.raises(InvalidParameter) as err:
        build_report(two_branch_tower, depth_horizon=5)
    assert "exceeds the stored depth" in str(err.value)


def test_report_roundtrip_exact(two_branch_tower, solenoid_p2):
    for t in (two_branch_tower, solenoid_p2, constant_tower(5, size=2)):
        r = build_report(t)
        assert parse_report(emit_report(r)) == r


def test_render_text_frozen(two_branch_tower):
    lines = render_text(build_report(two_branch_tower)).splitlines()
    assert lines[0] == "tower: depth 3, extensional, level sizes 1 2 1"
    assert lines[1] == "ml: inconclusive_at_depth"
    assert "  level 2: images stabilize at 3 (margin 0)" in lines
    assert "t-infinity: 4 vertices, depth 3, 1 complete branch(es)" in lines
    assert "end space: 1 point(s), diameter n/a" in lines
    assert "retraction: proper, witness m(1)=1 m(2)=3 m(3)=3" in lines
    assert lines[-1] == (
        "cross-check: consistent (ml inconclusive_at_depth, "
        "retraction expects inconclusive_at_depth)"
    )


def test_render_text_failure_mentions_witness(solenoid_p2):
    text = render_text(build_report(solenoid_p2))
    assert "ml: fails" in text
    assert "retraction: not proper" in text


@pytest.mark.parametrize(
    "tower",
    [
        gen_random_tower(7, 5, 4, 0.5),
        windowed_solenoid_tower([2, 3], 300, 6),
        windowed_solenoid_tower([1], 40, 5),
    ],
    ids=["random", "solenoid", "all_ones"],
)
def test_report_builds_the_core_once(monkeypatch, tower):
    """T-infinity, the end figures and the retraction share one core, and
    its positions are pushed down the tower once."""
    import towertree.maps as maps
    import towertree.towers as towers
    import towertree.trees as trees

    calls = []
    real_sub, real_core = towers._sub_tower, towers._core_positions
    monkeypatch.setattr(trees, "_sub_tower", lambda *a: calls.append("_sub_tower") or real_sub(*a))
    for module in (towers, trees, maps):
        if hasattr(module, "_core_positions"):
            monkeypatch.setattr(
                module, "_core_positions", lambda *a: calls.append("_core_positions") or real_core(*a)
            )
    build_report(tower)
    assert sorted(calls) == ["_core_positions", "_sub_tower"]
    tree = tree_of_tower(tower)
    core = max_geodesic_subtree(tree)
    assert max_geodesic_subtree(tree) is core
    assert retraction_map(tree).map.target is core
    assert len(end_space_of(tree).points) == len(core.levels[core.depth])
    assert len(calls) == 4


def test_branch_count_and_end_histogram_match_branches_and_pairs():
    """branch_count is the size of the core's deepest level; the point
    count, histogram and diameter are read off the core's end counts, and
    the oracle compares the root chains of every pair of deepest vertices
    that extend, on the whole tree."""
    towers = [
        gen_random_tower(seed, 1 + seed % 6, 1 + seed % 6, (seed % 11) / 10) for seed in range(300)
    ]
    # exponents 10 and over next to single digits, where string order and
    # numeric order differ
    deep = grid_space(["a", "b", "c"], {("a", "b"): 11, ("a", "c"): 2, ("b", "c"): 2})
    towers.append(tower_of_tree(tree_of_ultrametric(deep)[0]))
    towers += [
        windowed_solenoid_tower(primes, window, depth)
        for primes in ([1], [2], [3], [1, 1], [1, 2], [2, 3], [1, 1, 3], [3, 1, 2])
        for window, depth in ((0, 3), (3, 5), (64, 4), (10, 6))
    ]
    several = proper = 0
    for tower in towers:
        r = build_report(tower)
        tree = tree_of_tower(tower)
        core = max_geodesic_subtree(tree)
        assert r.t_infinity["branch_count"] == len(branches(core))
        several += len(branches(core)) > 1
        proper += len(core.vertices) < len(tree.vertices)
        # read closed-world every deepest vertex is an end; with an oracle,
        # an end is a deepest vertex that still extends 40 levels further
        keep = lambda x: tower.oracle is None or is_extendable(tower, tower.depth, x, tower.depth + 40)
        assert r.end_space["point_count"] == sum(keep(v[1]) for v in tree.levels[tree.depth])
        pairs = Counter(brute_end_exponents(tree, keep).values())
        assert r.end_space["exponent_histogram"] == {str(k): v for k, v in pairs.items()}
        assert list(r.end_space["exponent_histogram"]) == sorted(map(str, pairs))
        assert r.end_space["diameter_exponent"] == min(pairs, default=None)
    assert several >= 150 and proper >= 100
    assert list(build_report(towers[300]).end_space["exponent_histogram"]) == ["11", "2"]


def test_truncating_a_generator_tower_slices_it(monkeypatch):
    """A horizon within the stored depth slices the levels and parent
    positions and keeps the oracle: the slice equals the tower built at
    that depth.  Only a horizon past the stored depth rebuilds it."""
    import towertree.report as report

    rebuilt = []
    real = report.windowed_solenoid_tower
    monkeypatch.setattr(report, "windowed_solenoid_tower", lambda *a: rebuilt.append(a) or real(*a))
    cases = 0
    for primes in ([1], [2], [1, 3], [2, 3], [3, 1, 2]):
        for window in (0, 6, 50):
            tower = windowed_solenoid_tower(primes, window, 6)
            for horizon in range(1, 9):
                rebuilt.clear()
                cut = _truncate(tower, horizon)
                want = windowed_solenoid_tower(primes, window, horizon)
                assert cut == want and hash(cut) == hash(want)
                assert cut.oracle is tower.oracle or horizon > tower.depth
                assert len(rebuilt) == (horizon > tower.depth)
                assert build_report(tower, horizon) == build_report(want)
                cases += horizon <= tower.depth
    assert cases >= 30


def test_build_report_leaves_a_solenoid_unprinted():
    """analyze reads level sizes and parent positions: neither the report
    nor a truncation prints the ids of a window 2^14 solenoid."""
    tower = windowed_solenoid_tower([2], 1 << 14, 15)
    report = build_report(tower)
    assert build_report(tower, 9).tower["level_sizes"] == report.tower["level_sizes"][:9]
    assert not printed(tower)
    assert report.tower["level_sizes"] == [len(ids) for ids in tower.levels]
