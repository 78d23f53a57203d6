"""Schedules, induced maps, extraction, properness, and homotopy checks."""

import random
from fractions import Fraction

import pytest

from conftest import constant_tower
from oracles import (
    brute_composite_images,
    brute_distance,
    brute_geodesic_point,
    brute_homotopy,
    brute_induced_images,
    brute_properness,
    brute_violation,
    int_offset_exactly_at_vertex,
    root_chain,
)

from towertree import (
    EQUIVALENT,
    ROOT,
    DepthExhausted,
    EmptyCore,
    NotLevelMorphism,
    NotProper,
    Tower,
    TowerMorphism,
    TreeMap,
    TreePoint,
    XiSchedule,
    check_nonexpansive,
    compose_morphisms,
    compose_tree_maps,
    extract_morphism,
    gen_random_tower,
    homotopy_properness,
    identity_morphism,
    identity_tree_map,
    induce_tree_map,
    levelize_morphism,
    morphisms_equivalent,
    point_of,
    properness_witness,
    random_morphism,
    retraction_map,
    simplicial_of_level,
    surjective_core,
    tree_of_tower,
    xi_schedule,
)


def shift_map(depth, shift):
    """Hand-built map on the one-branch tree: radius r goes to r - shift."""
    tree = tree_of_tower(constant_tower(depth))
    images = {ROOT: point_of(ROOT)}
    for n in range(1, depth + 1):
        r = max(n - shift, 0)
        images[(n, "x0")] = point_of((r, "x0")) if r else point_of(ROOT)
    breakpoints = tuple(range(shift + 1, depth + 1))
    sched = XiSchedule(breakpoints, max(depth, breakpoints[-1] + 1), depth)
    return TreeMap(tree, tree, images, schedule=sched)


def test_xi_schedule_identity_on_constant_tower():
    m = identity_morphism(constant_tower(6))
    sched = xi_schedule(m)
    assert sched.breakpoints == (2, 3, 4, 5, 6)
    assert sched.virtual_top == 7
    assert [sched.breakpoint_after(n) for n in range(1, 5)] == [3, 4, 5, 6]


def test_induced_identity_shifts_by_two():
    """The induced map of an identity morphism sends F(t) to F(t-2)."""
    m = identity_morphism(constant_tower(6))
    f = induce_tree_map(m)
    for n in range(1, 7):
        img = f.image_of_vertex((n, "x0"))
        assert img.radius == max(n - 2, 0)
    assert f.image_of_vertex((1, "x0")) == point_of(ROOT)


def test_schedule_breakpoints_strictly_increase():
    for seed in range(30):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        tgt = gen_random_tower(seed + 500, depth=2 + (seed + 3) % 7, max_level_size=5)
        m = random_morphism(seed, src, tgt)
        sched = xi_schedule(m)
        assert all(a < b for a, b in zip(sched.breakpoints, sched.breakpoints[1:]))
        assert sched.virtual_top > sched.breakpoints[-1]


def test_witness_bounded_by_next_breakpoint():
    # m(n) <= t_{n+1} for every induced map
    for seed in range(30):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        tgt = gen_random_tower(seed + 900, depth=2 + (seed + 2) % 7, max_level_size=5)
        m = random_morphism(seed, src, tgt)
        f = induce_tree_map(m)
        prop = properness_witness(f)
        for n in range(1, prop.total_upto + 1):
            assert prop.table[n - 1] <= f.schedule.breakpoint_after(n)


def test_nonexpansive_all_induced_maps():
    for seed in range(25):
        src = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=5)
        tgt = gen_random_tower(seed + 300, depth=2 + (seed + 1) % 6, max_level_size=5)
        f = induce_tree_map(random_morphism(seed, src, tgt))
        assert check_nonexpansive(f).valid


def test_nonexpansive_violation_on_stretched_edge():
    src = tree_of_tower(Tower([["a"], ["b"]], [{"b": "a"}]))
    tgt = tree_of_tower(constant_tower(3))
    bad = TreeMap(src, tgt, {
        ROOT: point_of(ROOT),
        (1, "a"): point_of((3, "x0")),
        (2, "b"): point_of((3, "x0")),
    })
    verdict = check_nonexpansive(bad)
    assert not verdict.valid
    assert verdict.violation == (ROOT, (1, "a"))


def test_properness_shift_by_two_table():
    m = identity_morphism(constant_tower(6))
    prop = properness_witness(induce_tree_map(m))
    assert prop.table == (3, 4, 5, 6)
    assert prop.total_upto == 4
    # the last level cannot be certified inside the window
    assert prop.failure_level == 5


def test_properness_identity_map():
    tree = tree_of_tower(constant_tower(5, size=2))
    prop = properness_witness(identity_tree_map(tree))
    assert prop.table == (1, 2, 3, 4, 5)
    assert prop.failure_level is None


def test_properness_fails_for_root_constant_map():
    tree = tree_of_tower(constant_tower(5))
    squash = TreeMap(tree, tree, {v: point_of(ROOT) for v in tree.vertices})
    prop = properness_witness(squash)
    assert prop.failure_level == 1
    assert prop.total_upto == 0
    with pytest.raises(NotProper):
        extract_morphism(squash)


def test_homotopy_with_self_matches_own_witness():
    for seed in (1, 4, 9):
        src = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
        tgt = gen_random_tower(seed + 70, depth=3 + (seed + 1) % 5, max_level_size=4)
        f = induce_tree_map(random_morphism(seed, src, tgt))
        prop = properness_witness(f)
        hp = homotopy_properness(f, f)
        assert hp.table == prop.table[: hp.total_upto]
        assert hp.failure_level is None or hp.failure_level > hp.horizon


def test_two_schedules_of_one_morphism_are_homotopic():
    """Minimal greedy schedule vs a hand-delayed one: same class."""
    m = identity_morphism(constant_tower(6))
    minimal = induce_tree_map(m)      # shift by 2
    delayed = shift_map(6, 3)         # valid schedule starting at t_1 = 4
    hp = homotopy_properness(minimal, delayed)
    assert hp.failure_level is None or hp.failure_level > hp.horizon
    assert hp.total_upto >= 1


def test_compose_identity_laws(two_branch_tower):
    tree = tree_of_tower(two_branch_tower)
    f = retraction_map(tree).map
    left = compose_tree_maps(identity_tree_map(f.target), f)
    right = compose_tree_maps(f, identity_tree_map(tree))
    assert left == f
    assert right == f


def test_shift_composed_with_shift_is_shift_by_four():
    s2 = shift_map(10, 2)
    s4 = compose_tree_maps(s2, s2)
    assert s4.image_of_vertex((10, "x0")).radius == 6
    assert s4.image_of_vertex((4, "x0")).radius == 0
    deep = TreePoint((6, "x0"), Fraction(1, 2))     # radius 11/2
    assert s4.image_of_point(deep).radius == Fraction(3, 2)


def test_extract_identity_tree_map(two_branch_tower):
    tree = tree_of_tower(two_branch_tower)
    m = extract_morphism(identity_tree_map(tree))
    assert morphisms_equivalent(m, identity_morphism(two_branch_tower)).verdict == EQUIVALENT


def test_extract_retraction_lands_on_core(two_branch_tower):
    r = retraction_map(tree_of_tower(two_branch_tower))
    m = extract_morphism(r.map)
    assert m.target == surjective_core(two_branch_tower)
    assert m.phi == (1, 3, 3)
    assert m.components == ({"a": "a"}, {"c1": "b1"}, {"c1": "c1"})


def test_extract_induce_roundtrip_on_seeds():
    exercised = 0
    for seed in range(30):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        tgt = gen_random_tower(seed + 1300, depth=2 + (seed + 4) % 7, max_level_size=5)
        m = random_morphism(seed, src, tgt)
        f = induce_tree_map(m)
        try:
            back = extract_morphism(f)
        except NotProper:
            continue        # schedule ate the whole depth, nothing to compare
        assert morphisms_equivalent(back, m).verdict == EQUIVALENT
        exercised += 1
    assert exercised >= 15


def test_simplicial_of_level_identity(two_branch_tower):
    tree = tree_of_tower(two_branch_tower)
    f = simplicial_of_level(identity_morphism(two_branch_tower))
    assert f.vertex_images == identity_tree_map(tree).vertex_images


def test_simplicial_of_level_fold_preserves_radius():
    pair = Tower([["b1", "b2"]] * 4, [{"b1": "b1", "b2": "b2"}] * 3)
    single = constant_tower(4)
    fold = TowerMorphism(
        pair, single, [1, 2, 3, 4],
        [{"b1": "x0", "b2": "x0"}] * 4,
    )
    f = simplicial_of_level(fold)
    for v in f.source.vertices:
        if v == ROOT:
            continue
        assert f.image_of_vertex(v).radius == v[0]
    assert check_nonexpansive(f).valid
    hp = homotopy_properness(f, induce_tree_map(fold))
    assert hp.failure_level is None or hp.failure_level > hp.horizon


def test_simplicial_of_level_rejects_shifted_morphism(two_branch_tower):
    t = two_branch_tower
    shifted = TowerMorphism(t, t, [1, 3], [{"a": "a"}, {"c1": "b1"}])
    with pytest.raises(NotLevelMorphism):
        simplicial_of_level(shifted)


def test_composition_law_up_to_homotopy():
    # xi(g o f) and xi(g) o xi(f) agree up to proper homotopy
    checked = 0
    for seed in range(24):
        x = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
        y = gen_random_tower(seed + 40, depth=3 + (seed + 2) % 5, max_level_size=4)
        z = gen_random_tower(seed + 80, depth=3 + (seed + 4) % 5, max_level_size=4)
        f = random_morphism(seed, x, y)
        h = random_morphism(seed + 1, y, z)
        try:
            comp = compose_morphisms(h, f)
        except DepthExhausted:
            continue
        lhs = induce_tree_map(comp)
        rhs = compose_tree_maps(induce_tree_map(h), induce_tree_map(f))
        hp = homotopy_properness(lhs, rhs)
        assert hp.failure_level is None or hp.failure_level > hp.horizon
        checked += 1
    assert checked >= 10


def test_witness_tables_match_brute_meets():
    """Tables read on radius floors equal the Fraction-radius oracles on
    induced, composed, identity, simplicial, retraction and re-induced
    extracted maps; composed images and nonexpansive verdicts equal the
    brute geodesic and distance oracles."""
    counts = dict.fromkeys(
        ("maps", "interior", "failures", "retractions", "extracted", "homotopies", "not-proper",
         "composed", "interpolated", "violations"),
        0,
    )
    for seed in range(250):
        x = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
        y = gen_random_tower(seed + 40, depth=3 + (seed + 2) % 5, max_level_size=4)
        z = gen_random_tower(seed + 80, depth=3 + (seed + 4) % 5, max_level_size=4)
        mf, mh = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
        f, h = induce_tree_map(mf), induce_tree_map(mh)
        hf = compose_tree_maps(h, f)
        level = levelize_morphism(mf).level
        maps = [f, h, hf, identity_tree_map(f.target), simplicial_of_level(level)]
        rng = random.Random(seed)
        below = f.target.vertices[1:]
        wild = TreeMap(f.source, f.target, {
            v: point_of(v) if v == ROOT else TreePoint(rng.choice(below), Fraction(rng.randint(1, 4), 4))
            for v in f.source.vertices
        })
        for g, after in ((h, f), (wild, identity_tree_map(f.source)), (h, wild)):
            composed = compose_tree_maps(g, after)
            assert composed.vertex_images == brute_composite_images(g, after)
            counts["composed"] += 1
            counts["interpolated"] += sum(not p.is_vertex for p in after.vertex_images.values())
            maps.append(composed)
        for g in (f, hf, wild, compose_tree_maps(h, wild)):
            want = brute_violation(g)
            assert check_nonexpansive(g).violation == want
            counts["violations"] += want is not None
        try:
            maps.append(retraction_map(tree_of_tower(x)).map)
            counts["retractions"] += 1
        except EmptyCore:
            pass
        pairs = [(f, f), (h, h), (f, induce_tree_map(random_morphism(seed + 500, x, y)))]
        for g in (f, hf):
            try:
                back = induce_tree_map(extract_morphism(g))
            except NotProper:
                continue
            maps.append(back)
            pairs.append((g, back))
            counts["extracted"] += 1
        for g in maps:
            rep = properness_witness(g)
            assert (rep.table, rep.failure_level) == brute_properness(g)
            # == alone accepts Fraction(1) == 1
            assert all(map(int_offset_exactly_at_vertex, g.vertex_images.values()))
            counts["maps"] += 1
            counts["interior"] += any(not p.is_vertex for p in g.vertex_images.values())
            counts["failures"] += rep.failure_level is not None
        try:
            pairs.append((induce_tree_map(compose_morphisms(mh, mf)), hf))
        except DepthExhausted:
            pass
        for a, b in pairs:
            hp = homotopy_properness(a, b)
            assert (hp.table, hp.failure_level) == brute_homotopy(a, b)
            counts["homotopies"] += 1
            counts["not-proper"] += not hp.proper
    assert counts["maps"] >= 1200 and counts["homotopies"] >= 1150, counts
    assert counts["interior"] >= 250 and counts["not-proper"] >= 60, counts
    assert 900 <= counts["failures"] <= counts["maps"] - 200, counts
    assert counts["retractions"] >= 200 and counts["extracted"] >= 200, counts
    assert counts["composed"] >= 750 and counts["interpolated"] >= 2000, counts
    assert counts["violations"] >= 200, counts


def test_induced_images_match_per_vertex_oracle():
    inside = closed = 0
    for seed in range(30):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        tgt = gen_random_tower(seed + 1300, depth=2 + (seed + 4) % 7, max_level_size=5)
        m = random_morphism(seed, src, tgt)
        f = induce_tree_map(m)
        sched = xi_schedule(m)
        expected = brute_induced_images(m, f.source, sched.breakpoints, sched.virtual_top)
        assert list(f.vertex_images.items()) == list(expected.items())
        # == alone accepts Fraction(1) == 1
        assert all(map(int_offset_exactly_at_vertex, f.vertex_images.values()))
        inside += sum(not p.is_vertex for p in expected.values())
        # the last segment closes on the deepest level: vertices, offset int 1
        closed += sched.virtual_top == f.source.depth
    assert inside >= 50 and closed >= 5


def test_retraction_skips_the_witness_table_it_overrides(monkeypatch):
    import towertree.maps as maps
    from towertree import windowed_solenoid_tower

    calls = []
    real = maps.properness_witness
    monkeypatch.setattr(maps, "properness_witness", lambda f: calls.append(f) or real(f))
    tree = tree_of_tower(windowed_solenoid_tower([2, 3], 200, 5))
    rep = retraction_map(tree).properness
    assert tree.fringe_unbounded and calls == []
    assert (rep.oracle_override, rep.failure_level, rep.table) == (True, 1, ())
    assert (rep.source_depth, rep.target_depth) == (5, 5)
    retraction_map(tree_of_tower(gen_random_tower(3, 4, 3, 0.5)))
    assert len(calls) == 1


def test_public_constructor_rebuilds_every_produced_map():
    """Each producer's per-level images are what the public constructor
    reads off the same vertex dict, and that dict lists vertices in level order."""
    kinds = dict.fromkeys(("induced", "composite", "identity", "simplicial", "retraction"), 0)
    differ = 0
    for seed in range(24):
        x = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
        y = gen_random_tower(seed + 40, depth=3 + (seed + 2) % 5, max_level_size=4)
        z = gen_random_tower(seed + 80, depth=3 + (seed + 4) % 5, max_level_size=4)
        f = induce_tree_map(random_morphism(seed, x, y))
        h = induce_tree_map(random_morphism(seed + 1, y, z))
        produced = [
            ("induced", f),
            ("induced", h),
            ("composite", compose_tree_maps(h, f)),
            ("identity", identity_tree_map(f.target)),
            ("simplicial", simplicial_of_level(identity_morphism(x))),
        ]
        try:
            produced.append(("retraction", retraction_map(f.source).map))
        except EmptyCore:
            pass
        for kind, g in produced:
            rebuilt = TreeMap(g.source, g.target, g.vertex_images, g.schedule)
            assert rebuilt == g and hash(rebuilt) == hash(g)
            assert rebuilt.rows == g.rows
            assert list(g.vertex_images) == list(g.source.vertices)
            kinds[kind] += 1
        # maps between the same trees are equal exactly when their images are
        other = induce_tree_map(random_morphism(seed + 500, x, y))
        assert (other == f) == (other.vertex_images == f.vertex_images)
        differ += other != f
    assert min(kinds.values()) >= 10 and differ >= 10


def test_analysis_builds_no_by_vertex_views(monkeypatch):
    """build_report leaves every vertex view of the analyzed tree unbuilt:
    its vertex tuples, parent and children, and the retraction's dict; so
    do induce, extract, compose, properness, nonexpansive and homotopy on
    every source and target tree they touch."""
    import towertree.report as report
    from towertree import windowed_solenoid_tower

    seen = {}
    real_tree, real_retraction = report.tree_of_tower, report.retraction_map
    monkeypatch.setattr(report, "tree_of_tower", lambda t: seen.setdefault("tree", real_tree(t)))
    monkeypatch.setattr(
        report, "retraction_map", lambda t: seen.setdefault("retraction", real_retraction(t))
    )
    for tower in (windowed_solenoid_tower([2], 1024, 11), gen_random_tower(5, 6, 6, 0.5)):
        seen.clear()
        report.build_report(tower)
        tree, rmap = seen["tree"], seen["retraction"].map
        assert rmap.source is tree
        assert tree._levels is None and tree._parent is None and tree._children is None
        assert rmap._vertex_images is None
        # asked for, the views are built from the per-level data
        assert list(tree.parent) == list(tree.vertices[1:])
        ids = rmap.target.tower.levels
        eager = [TreePoint((j, ids[j - 1][p]) if j else ROOT, o) for here in rmap.rows for j, p, o in here]
        assert list(rmap.vertex_images.values()) == eager
    counts = dict.fromkeys(("maps", "extracted", "violations"), 0)
    for seed in range(40):
        x, y, z = (gen_random_tower(seed + k, 3 + (seed + k) % 5, 4, 0.5) for k in (0, 40, 80))
        mf, mh = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
        f, h = induce_tree_map(mf), induce_tree_map(mh)
        deep = (f.target.depth, 0, 1)  # every vertex below the root goes to one deepest vertex
        squash = TreeMap._built(f.source, f.target, [f.rows[0], *([deep] * len(row) for row in f.rows[1:])])
        maps = [f, h, compose_tree_maps(h, f), compose_tree_maps(identity_tree_map(f.target), f), squash]
        try:
            maps.append(induce_tree_map(compose_morphisms(mh, mf)))
        except DepthExhausted:
            pass
        for g in list(maps):
            properness_witness(g)
            counts["violations"] += not check_nonexpansive(g)
            homotopy_properness(g, g)
            try:
                back = induce_tree_map(extract_morphism(g))
            except (DepthExhausted, NotProper):
                continue
            homotopy_properness(g, back)
            maps.append(back)
            counts["extracted"] += 1
        for g in maps:
            for tree in (g.source, g.target):
                assert tree._levels is None and tree._parent is None and tree._children is None
            assert g._vertex_images is None
            counts["maps"] += 1
    assert counts["maps"] >= 300 and counts["extracted"] >= 80 and counts["violations"] >= 20, counts


def test_tree_point_views_match_an_eager_build():
    """vertex_images, image_of_vertex and image_of_point, built from rows on
    first use, equal TreePoints built one by one through the validating
    constructor from the target's ids and the brute geodesic oracle, and
    the public constructor reads those points back to the same rows."""
    kinds = dict.fromkeys(
        ("induced", "composite", "identity", "simplicial", "retraction", "extracted"), 0
    )
    for seed in range(60):
        x, y, z = (gen_random_tower(seed + k, 3 + (seed + k) % 5, 4, 0.5) for k in (0, 40, 80))
        mf = random_morphism(seed, x, y)
        f, h = induce_tree_map(mf), induce_tree_map(random_morphism(seed + 1, y, z))
        produced = [
            ("induced", f),
            ("composite", compose_tree_maps(h, f)),
            ("identity", identity_tree_map(f.target)),
            ("simplicial", simplicial_of_level(levelize_morphism(mf).level)),
        ]
        try:
            produced.append(("retraction", retraction_map(f.source).map))
        except EmptyCore:
            pass
        try:
            produced.append(("extracted", induce_tree_map(extract_morphism(f))))
        except (DepthExhausted, NotProper):
            pass
        for kind, g in produced:
            assert g._vertex_images is None
            src_ids, tgt_ids = (None, *g.source.tower.levels), g.target.tower.levels
            eager = {ROOT: TreePoint(ROOT, 1)}
            for n in range(1, g.source.depth + 1):
                for x_id, (j, p, offset) in zip(src_ids[n], g.rows[n], strict=True):
                    eager[(n, x_id)] = TreePoint((j, tgt_ids[j - 1][p]) if j else ROOT, offset)
            assert list(g.vertex_images.items()) == list(eager.items())
            assert all(int_offset_exactly_at_vertex(p) for p in g.vertex_images.values())
            assert all(g.image_of_vertex(v) == p for v, p in eager.items())
            for v in list(eager)[1:]:
                a, b = eager[root_chain(g.source, v)[-2]], eager[v]
                span = brute_distance(g.target, a, b)
                for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    assert g.image_of_point(TreePoint(v, t)) == brute_geodesic_point(g.target, a, b, t * span)
            assert TreeMap(g.source, g.target, eager, g.schedule).rows == g.rows
            kinds[kind] += 1
    assert min(kinds.values()) >= 25, kinds


def test_maps_reach_no_by_vertex_tree_lookup(monkeypatch):
    """The maps layer runs on positions: with the trees' by-vertex lookups
    (parent, parent_of, has_vertex, ancestor, chain) made to fail, every
    producer, measure, composition, extraction, the public constructor and
    the TreePoint views and geometry give the same results as before."""
    from towertree import RootedTree, distance, geodesic_point, meet_point

    def run(seed):
        x, y, z = (gen_random_tower(seed + k, 3 + (seed + k) % 5, 4, 0.5) for k in (0, 40, 80))
        mf, mh = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
        f, h = induce_tree_map(mf), induce_tree_map(mh)
        hf = compose_tree_maps(h, f)
        maps = [f, hf, identity_tree_map(f.source), simplicial_of_level(levelize_morphism(mf).level)]
        try:
            maps.append(retraction_map(f.source).map)
        except EmptyCore:
            pass
        maps.append(TreeMap(f.source, f.target, dict(f.vertex_images)))
        out = []
        for g in maps:
            rep = properness_witness(g)
            out += [g.rows, rep, check_nonexpansive(g), homotopy_properness(g, g)]
            out += [g.image_of_point(TreePoint(v, Fraction(1, 3))) for v in g.source.vertices[1:]]
            try:
                e = extract_morphism(g)
                out += [e.phi, e.rows]
            except NotProper:
                out.append(None)
        a, b = hf.vertex_images[hf.source.vertices[-1]], hf.vertex_images[hf.source.vertices[1]]
        d = distance(hf.target, a, b)
        out += [meet_point(hf.target, a, b), d, geodesic_point(hf.target, a, b, d / 2)]
        return out

    want = [run(seed) for seed in range(30)]

    def refuse(*args):
        raise AssertionError("a by-vertex tree lookup was reached")

    monkeypatch.setattr(RootedTree, "parent", property(refuse))
    for name in ("parent_of", "has_vertex", "ancestor", "chain"):
        monkeypatch.setattr(RootedTree, name, refuse)
    assert [run(seed) for seed in range(30)] == want


def test_each_map_measures_its_properness_once(monkeypatch):
    """properness_witness keeps its report on the map; extraction, homotopy
    horizons and repeated calls reuse it, and no other map shares it."""
    import towertree.maps as maps

    calls = []
    real = maps._witness_table
    monkeypatch.setattr(maps, "_witness_table", lambda lows, d: calls.append(d) or real(lows, d))
    extracted = differ = 0
    for seed in range(30):
        x = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
        y = gen_random_tower(seed + 40, depth=3 + (seed + 2) % 5, max_level_size=4)
        f = induce_tree_map(random_morphism(seed, x, y))
        other = induce_tree_map(random_morphism(seed + 500, x, y)).vertex_images
        g = TreeMap(f.source, f.target, other)  # the same source and target objects
        rep, rep_g = properness_witness(f), properness_witness(g)
        calls.clear()
        assert properness_witness(f) is rep
        try:
            extract_morphism(f)
            extracted += 1
        except NotProper:
            pass
        assert calls == []
        homotopy_properness(f, g)
        assert len(calls) == 1  # the homotopy table; both horizons are kept reports
        assert properness_witness(f) is rep and properness_witness(g) is rep_g
        if g != f:
            assert rep_g is not rep
            assert (rep_g.table, rep_g.failure_level) == brute_properness(g)
            differ += rep_g != rep
    assert extracted >= 10 and differ >= 5
