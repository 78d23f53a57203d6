"""Acceptance suite.

One test per headline guarantee, each verifiable from `pytest -v` as a single
pass/fail line.  Budgets are wall-clock on a desk machine; the checks
themselves are exact (integers, fractions, certified interval arithmetic).
"""

import json
import math
import time
from fractions import Fraction

from towertree import (
    GRID,
    GroupLevelMorphism,
    GroupTower,
    ScaleHom,
    TableGroup,
    TableHom,
    UltrametricSpace,
    WindowedZ,
    as_tower_morphism,
    bilipschitz_bounds,
    build_report,
    check_condition_E,
    check_condition_M,
    check_nonexpansive,
    check_translation_isometry,
    compose_morphisms,
    core_iso_construction,
    end_space_of,
    gen_biholder,
    gen_example_nonretract,
    gen_random_grid_space,
    gen_random_group_tower,
    gen_random_rational_space,
    gen_random_tower,
    gen_solenoid,
    identity_morphism,
    induce_tree_map,
    limit_threads,
    ml_projection_check,
    morphisms_equivalent,
    parse_tower,
    properness_witness,
    random_morphism,
    simplicialize,
    tree_of_tower,
    tree_of_ultrametric,
    verify_ultrametric,
    windowed_solenoid_tower,
)
from towertree.generate import run_roundtrip_corpus
from towertree.towers import EQUIVALENT

from conftest import constant_tower
from oracles import (
    brute_ultrametric_ok,
    float_least_violation,
    float_min_exponent,
    in_neg_log_band,
)


def test_criterion_1_solenoid_desk_scale_analysis():
    t0 = time.monotonic()
    tower = windowed_solenoid_tower([2], 1024, 11)
    report = build_report(tower)
    group, same = gen_solenoid([2], 1024, 11)
    threads = limit_threads(group)
    elapsed = time.monotonic() - t0

    assert report.tower["level_sizes"] == [2 ** (11 - n) + 1 for n in range(11)]
    assert report.ml["verdict"] == "fails"
    chain = report.ml["witness"]["chain"]
    assert chain == [[n1, 2 ** (n1 - 1), n1 + 1] for n1 in range(2, 12)]
    assert report.t_infinity == {"vertex_count": 12, "depth": 11, "branch_count": 1}
    assert report.end_space["point_count"] == 1
    assert report.retraction["witness_total"] is False
    assert report.cross_check["consistent"] is True
    assert same == tower
    assert len(threads) == 1 and threads[0].entries == ("0",) * 11
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_north_star_solenoid_at_window_2_16():
    """The doubling solenoid at window 2^16, depth 17 (262,159 ids),
    analyzed whole."""
    t0 = time.monotonic()
    report = build_report(windowed_solenoid_tower([2], 2**16, 17))
    elapsed = time.monotonic() - t0

    assert report.tower["level_sizes"] == [2 ** (17 - n) + 1 for n in range(17)]
    assert sum(report.tower["level_sizes"]) == 262_159
    assert report.ml["verdict"] == "fails"
    assert report.ml["witness"]["chain"] == [[n1, 2 ** (n1 - 1), n1 + 1] for n1 in range(2, 18)]
    assert report.t_infinity == {"vertex_count": 18, "depth": 17, "branch_count": 1}
    assert report.end_space["point_count"] == 1
    assert report.retraction["witness_total"] is False
    assert report.cross_check["consistent"] is True
    assert elapsed < 0.1, f"took {elapsed:.2f}s"


def test_all_ones_solenoid_at_window_2_14():
    """Every multiplier 1 at window 2^14, depth 15 (491,535 ids): the core is
    the whole tree, and the retraction is the identity."""
    t0 = time.monotonic()
    report = build_report(windowed_solenoid_tower([1], 2**14, 15))
    elapsed = time.monotonic() - t0

    assert report.tower["level_sizes"] == [2**15 + 1] * 15
    assert report.ml["verdict"] == "holds"
    assert report.t_infinity == {"vertex_count": 491_536, "depth": 15, "branch_count": 2**15 + 1}
    assert report.retraction["table"] == [[n, n] for n in range(1, 16)]
    assert report.cross_check["consistent"] is True
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_north_star_wide_tower_end_figures():
    """50 ids over 4,000, every bond onto (97 KB of JSON), parsed and
    analyzed: the end figures are counted off the core, not read off its
    7,998,000 pairs of ends."""
    top = [f"b{i}" for i in range(50)]
    ids = [f"e{i}" for i in range(4000)]
    bonds = [{x: top[i % 50] for i, x in enumerate(ids)}]
    text = json.dumps({"depth": 2, "levels": [top, ids], "bonds": bonds})
    t0 = time.monotonic()
    report = build_report(parse_tower(text))
    elapsed = time.monotonic() - t0

    assert len(text) == 97_361
    # 50 classes of 80 ends each agree through level 1
    assert report.end_space == {
        "point_count": 4000,
        "exponent_histogram": {"0": 7_998_000 - 50 * 3_160, "1": 50 * 3_160},
        "diameter_exponent": 0,
    }
    assert report.cross_check["consistent"] is True
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_functor_law_corpus():
    t0 = time.monotonic()
    summary = run_roundtrip_corpus(200)
    elapsed = time.monotonic() - t0

    assert summary.ok, summary.failures
    assert summary.counts["tower-roundtrip"] == [203, 0]
    assert summary.counts["nonexpansive"] == [203, 0]
    assert summary.counts["schedule-certified"] == [203, 0]
    assert summary.counts["tree-identity-laws"] == [203, 0]
    # floors at the decided counts, so a rise in skips at depth shows
    for check, floor in (
        ("composition-extracted", 25),
        ("induce-extract-homotopic", 163),
        ("extract-induce-identity", 163),
        ("composition-homotopic", 185),
    ):
        assert summary.counts[check][0] >= floor, (check, summary.counts[check])
        assert summary.counts[check][1] == 0, (check, summary.counts[check])
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_nonexpansive_with_certified_schedule():
    checked = 0
    for seed in range(200):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=4)
        tgt = gen_random_tower(seed + 1000, depth=2 + (seed + 3) % 7, max_level_size=4)
        morphism = random_morphism(seed, src, tgt)
        fmap = induce_tree_map(morphism)
        assert check_nonexpansive(fmap).valid
        witness = properness_witness(fmap)
        sched = fmap.schedule
        for n in range(1, witness.total_upto + 1):
            assert witness.table[n - 1] <= sched.breakpoint_after(n)
        checked += 1
    assert checked == 200


def test_criterion_4_ml_matches_retraction_properness():
    decided = 0
    for seed in range(200):
        tower = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=1 + seed % 5)
        report = build_report(tower)
        assert report.cross_check["consistent"] is True, f"seed {seed}"
        if report.ml["verdict"] in ("holds", "fails"):
            decided += 1

    crafted_ml = [constant_tower(3 + i % 5, size=1 + i % 3) for i in range(5)]
    crafted_ml += [
        gen_random_tower(900 + i, depth=4, max_level_size=4, surjectivity_bias=1.0)
        for i in range(5)
    ]
    for tower in crafted_ml:
        report = build_report(tower)
        assert report.ml["verdict"] == "holds"
        assert report.retraction["witness_total"] is True
        assert report.cross_check["consistent"] is True
    assert len(crafted_ml) == 10

    non_ml = [
        windowed_solenoid_tower([p], w, d)
        for p, w, d in [
            (2, 64, 4), (2, 256, 6), (3, 100, 3), (3, 400, 4), (5, 200, 3),
            (7, 400, 3), (2, 1024, 8), (5, 700, 4), (3, 900, 5), (2, 96, 5),
        ]
    ]
    for tower in non_ml:
        report = build_report(tower)
        assert report.ml["verdict"] == "fails"
        assert report.retraction["witness_total"] is False
        assert report.retraction["failure_level"] is not None
        assert report.cross_check["consistent"] is True
    assert len(non_ml) == 10
    assert decided >= 50


def test_criterion_5_end_space_ultrametric_exact():
    for seed in range(30):
        tower = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=1 + seed % 5)
        space = end_space_of(tree_of_tower(tower))
        verdict = verify_ultrametric(space)
        assert verdict.valid and verdict.violation is None
        assert brute_ultrametric_ok(space)
        # the tree's space is valid by construction; a copy given by rows has every pair checked
        copy = UltrametricSpace(space.points, {(x, y): v for x, y, v in space.pairs()}, GRID)
        assert verify_ultrametric(copy) == verdict and copy == space
        diam = space.diameter_exponent()
        assert diam is None or (diam >= 0 and math.exp(-diam) <= 1.0)

    roundtrips = 0
    for seed in range(50):
        space = gen_random_grid_space(seed, max_points=32)
        assert len(space.points) <= 32
        tree, _ = tree_of_ultrametric(space)
        assert end_space_of(tree) == space
        roundtrips += 1
    assert roundtrips == 50


def test_criterion_6_simplicialization_distortion_band():
    checked_pairs = 0
    for seed in range(50):
        space = gen_random_rational_space(seed, max_points=16)
        assert len(space.points) <= 16
        tree, corr = simplicialize(space)
        for row in corr.rows:
            assert row.certified
            # exact band: e^{-(k+1)} < d <= e^{-k}
            assert in_neg_log_band(row.original, row.new_exponent)
            checked_pairs += 1
        if corr.rows:
            lo, hi = bilipschitz_bounds(corr)
            assert math.exp(-1) < lo <= hi <= 1.0
        assert verify_ultrametric(end_space_of(tree)).valid
    assert checked_pairs >= 100


def test_criterion_7_biholder_certificates():
    t0 = time.monotonic()
    table = gen_biholder(64)
    elapsed = time.monotonic() - t0

    assert len(table.rows) == 63
    for row in table.rows:
        assert row.certified
        assert row.distance == Fraction(1, 2 ** (row.k + 1))
    by_k = {row.k: row.n for row in table.rows}
    assert by_k[2] == 6 and by_k[3] == 12
    for k in (2, 3, 5, 8, 13, 21, 34, 55, 64):
        assert by_k[k] == float_min_exponent(k)

    cells = {(c, l): k for c, l, k in table.violations}
    assert len(cells) == 9
    assert cells[(1, Fraction(1, 2))] == 2
    assert cells[(100, Fraction(9, 10))] == 3
    for (c, l), k in cells.items():
        assert k is not None
        assert k == float_least_violation(c, l, 64)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_8_pro_group_suite():
    z8 = GroupTower(
        [TableGroup.cyclic(2), TableGroup.cyclic(4), TableGroup.cyclic(8)],
        [
            TableHom({str(i): str(i % 2) for i in range(4)}),
            TableHom({str(i): str(i % 4) for i in range(8)}),
        ],
    )
    verdict = check_translation_isometry(z8)
    assert verdict.valid and verdict.checked == 512

    for seed in range(20):
        g = gen_random_group_tower(seed, depth=3)
        assert check_translation_isometry(g).valid

    # crafted level morphisms: each fails exactly one of the two conditions
    z4c = GroupTower([TableGroup.cyclic(4)] * 3,
                     [TableHom({str(i): str(i) for i in range(4)})] * 2)
    z2c = GroupTower([TableGroup.cyclic(2)] * 3,
                     [TableHom({"0": "0", "1": "1"})] * 2)
    red = GroupLevelMorphism(z4c, z2c, [TableHom({str(i): str(i % 2) for i in range(4)})] * 3)
    assert check_condition_M(red).violation == 1
    assert check_condition_E(red).witnesses == ((1, 1), (2, 2), (3, 3))

    zero = GroupTower([WindowedZ(0)] * 3, [ScaleHom(1)] * 2)
    inc = GroupLevelMorphism(zero, z2c, [TableHom({"0": "0"})] * 3)
    assert check_condition_E(inc).violation == 1
    assert check_condition_M(inc).witnesses == ((1, 1), (2, 2), (3, 3))

    sol, _ = gen_solenoid([2], 64, 3)
    zero2 = GroupTower([WindowedZ(0)] * 3, [ScaleHom(2)] * 2)
    inc2 = GroupLevelMorphism(zero2, sol, [ScaleHom(1)] * 3)
    assert check_condition_M(inc2).witnesses == ((1, 1), (2, 2), (3, 3))
    assert check_condition_E(inc2).violation == 1

    # towers with stabilizing images: the core inclusion inverts up to homotopy
    drop = GroupTower(
        [TableGroup.cyclic(2)] * 3,
        [TableHom({"0": "0", "1": "0"}), TableHom({"0": "0", "1": "1"})],
    )
    assert ml_projection_check(drop) == ((1, 2), (2, 2), (3, 3))
    for g in (drop, z8):
        ci = core_iso_construction(g)
        inc_m = as_tower_morphism(ci.inclusion)
        inv_m = ci.inverse
        round_full = compose_morphisms(inc_m, inv_m)
        round_core = compose_morphisms(inv_m, inc_m)
        assert morphisms_equivalent(
            round_full, identity_morphism(inv_m.source)
        ).verdict == EQUIVALENT
        assert morphisms_equivalent(
            round_core, identity_morphism(inc_m.source)
        ).verdict == EQUIVALENT


def test_criterion_9_nonretract_distances():
    report = gen_example_nonretract(count=12)
    assert report.distances == tuple(Fraction(1, 2 ** i) for i in range(1, 13))
    assert report.infimum == 0
    assert report.point_in_core is False
