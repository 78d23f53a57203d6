"""Schedules, induced maps, extraction, properness, and homotopy checks."""

import random
import time
from fractions import Fraction
from operator import ne

import pytest

from conftest import constant_tower
from oracles import (
    brute_composite_images,
    brute_distance,
    brute_geodesic_point,
    brute_homotopy,
    brute_induced_images,
    brute_meet,
    brute_properness,
    brute_radius,
    brute_violation,
    brute_witness_table,
    int_offset_exactly_at_vertex,
    root_chain,
)

from towertree import maps
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
    ValidationError,
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
    windowed_solenoid_tower,
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
        img = f.vertex_images[(n, "x0")]
        assert img.radius == max(n - 2, 0)
    assert f.vertex_images[(1, "x0")] == point_of(ROOT)


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


def _count_meets(monkeypatch) -> list:
    calls, meet = [], maps._meet
    monkeypatch.setattr(maps, "_meet", lambda up, a, b: calls.append((a, b)) or meet(up, a, b))
    return calls


def test_edges_onto_one_target_edge_need_no_meet(monkeypatch):
    """The core of an all-multipliers-1 solenoid is the whole tree, so its
    retraction sends every edge onto one target edge: the witness is read
    with one `up` lookup per edge and no meet."""
    tree = tree_of_tower(windowed_solenoid_tower([1], 6, 5))
    calls = _count_meets(monkeypatch)
    r = retraction_map(tree)
    assert calls == []
    assert r.properness.table == (1, 2, 3, 4, 5) and r.properness.failure_level is None
    assert (r.properness.table, r.properness.failure_level) == brute_properness(r.map)


def test_composing_with_an_identity_keeps_offsets_without_a_meet(monkeypatch):
    """An edge that the identity sends onto one target edge keeps its offset,
    so a composite with an identity is the map itself and needs no meet,
    also where images lie inside edges."""
    calls = _count_meets(monkeypatch)
    for seed in range(6):
        src = tree_of_tower(gen_random_tower(seed, depth=3 + seed % 4, max_level_size=4))
        tgt = tree_of_tower(gen_random_tower(seed + 70, depth=3 + (seed + 1) % 4, max_level_size=4))
        rng, below = random.Random(seed), tgt.vertices[1:]
        f = TreeMap(src, tgt, {
            v: point_of(ROOT) if v == ROOT else TreePoint(rng.choice(below), Fraction(rng.randint(1, 4), 4))
            for v in src.vertices
        })
        assert compose_tree_maps(identity_tree_map(f.target), f) == f
        assert compose_tree_maps(f, identity_tree_map(f.source)) == f
    assert calls == []


def test_shift_composed_with_shift_is_shift_by_four():
    s2 = shift_map(10, 2)
    s4 = compose_tree_maps(s2, s2)
    assert s4.vertex_images[(10, "x0")].radius == 6
    assert s4.vertex_images[(4, "x0")].radius == 0
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
        assert f.vertex_images[v].radius == v[0]
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


def _seed_maps(seed):
    """One seed of the brute-oracle corpus: towers x and y, morphisms
    mf: x -> y and mh: y -> z, their induced maps f and h, and hf = h after f."""
    x = gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4)
    y = gen_random_tower(seed + 40, depth=3 + (seed + 2) % 5, max_level_size=4)
    z = gen_random_tower(seed + 80, depth=3 + (seed + 4) % 5, max_level_size=4)
    mf, mh = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
    f, h = induce_tree_map(mf), induce_tree_map(mh)
    return x, y, mf, mh, f, h, compose_tree_maps(h, f)


def _homotopy_pairs(seed, x, y, mf, mh, f, h, hf):
    """The pairs of one corpus seed that homotopy_properness is checked on
    (f and h with themselves, f with the map of another morphism, f and hf
    with their re-induced extractions, xi(h after f) with hf), and the
    re-induced extractions."""
    pairs = [(f, f), (h, h), (f, induce_tree_map(random_morphism(seed + 500, x, y)))]
    backs = []
    for g in (f, hf):
        try:
            backs.append(induce_tree_map(extract_morphism(g)))
        except NotProper:
            continue
        pairs.append((g, backs[-1]))
    try:
        pairs.append((induce_tree_map(compose_morphisms(mh, mf)), hf))
    except DepthExhausted:
        pass
    return pairs, backs


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
        x, y, mf, mh, f, h, hf = _seed_maps(seed)
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
        pairs, backs = _homotopy_pairs(seed, x, y, mf, mh, f, h, hf)
        maps += backs
        counts["extracted"] += len(backs)
        for g in maps:
            rep = properness_witness(g)
            assert (rep.table, rep.failure_level) == brute_properness(g)
            # == alone accepts Fraction(1) == 1
            assert all(map(int_offset_exactly_at_vertex, g.vertex_images.values()))
            counts["maps"] += 1
            counts["interior"] += any(not p.is_vertex for p in g.vertex_images.values())
            counts["failures"] += rep.failure_level is not None
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


def _wild_map(rng, source, target, dens):
    """A map with every vertex below the root sent to a random point of
    target, its offset's denominator drawn from dens."""
    below = target.vertices[1:]

    def offset():
        d = rng.choice(dens)
        return Fraction(rng.randint(1, d), d)

    return TreeMap(source, target, {
        v: point_of(ROOT) if v == ROOT else TreePoint(rng.choice(below), offset())
        for v in source.vertices
    })


def test_integer_grid_matches_the_fraction_oracles():
    """Every kind of map, on grids of many sizes, against the Fraction
    oracles: induced maps and their composites, composites of composites,
    identity, retraction and simplicial maps, and maps built from TreePoints
    whose offsets mix denominators up to 7.  Vertex images, the
    nonexpansive violation, the properness and homotopy tables and
    image_of_point inside every source edge all match, and each map's grid
    is the least that holds its images."""
    counts = dict.fromkeys(("maps", "fine", "nested", "wild", "homotopies"), 0)
    dens = set()
    for seed in range(60):
        rng = random.Random(seed)
        x, y, mf, mh, f, h, hf = _seed_maps(seed)
        z = h.target.tower
        w = gen_random_tower(seed + 120, depth=3 + (seed + 1) % 5, max_level_size=4)
        g = induce_tree_map(random_morphism(seed + 2, z, w))
        wild = _wild_map(rng, f.source, f.target, (2, 3, 5, 7))
        fold = _wild_map(rng, f.target, f.target, (2, 3, 4, 6))
        maps = [f, h, g, wild, fold, identity_tree_map(f.target),
                simplicial_of_level(levelize_morphism(mf).level)]
        # all but the first and the fourth have a composite factor
        for outer, inner in ((h, f), (g, hf), (compose_tree_maps(g, h), f), (fold, wild),
                             (h, compose_tree_maps(fold, wild)), (g, compose_tree_maps(h, wild))):
            maps.append(compose_tree_maps(outer, inner))
            assert maps[-1].vertex_images == brute_composite_images(outer, inner)
        counts["nested"] += 4
        try:
            maps.append(retraction_map(tree_of_tower(x)).map)
        except EmptyCore:
            pass
        for m in maps:
            images = m.vertex_images
            assert all(map(int_offset_exactly_at_vertex, images.values()))
            assert TreeMap(m.source, m.target, images).den == m.den
            assert check_nonexpansive(m).violation == brute_violation(m)
            rep = properness_witness(m)
            assert (rep.table, rep.failure_level) == brute_properness(m)
            for v in m.source.vertices[1:]:
                a, b = images[root_chain(m.source, v)[-2]], images[v]
                span = brute_distance(m.target, a, b)
                for t in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
                    assert m.image_of_point(TreePoint(v, t)) == brute_geodesic_point(m.target, a, b, t * span)
            dens.add(m.den)
            counts["maps"] += 1
            counts["fine"] += m.den > 1
            counts["wild"] += m is wild or m is fold
        other = _wild_map(rng, f.source, f.target, (3, 4))
        pairs = [(wild, other), (f, wild), (hf, compose_tree_maps(h, wild))]
        try:
            pairs.append((induce_tree_map(compose_morphisms(mh, mf)), hf))
        except DepthExhausted:
            pass
        for a, b in pairs + [(b, a) for a, b in pairs]:
            hp = homotopy_properness(a, b)
            assert (hp.table, hp.failure_level) == brute_homotopy(a, b)
            counts["homotopies"] += 1
    assert counts["maps"] >= 800 and counts["fine"] >= 300 and counts["nested"] >= 240, counts
    assert counts["wild"] >= 120 and counts["homotopies"] >= 450, counts
    assert len(dens) >= 30, sorted(dens)


def test_a_grid_over_the_budget_is_refused_quickly():
    """TreeMap(...) refuses images whose offsets' denominators, pairwise
    coprime, need a grid of more than MAX_DEN steps, after a few lcm steps
    however many images there are (20,000 here); compose_tree_maps refuses
    a composite whose grid is still over the budget after its reduction,
    and keeps one that reduces within it."""
    ids = [f"e{i}" for i in range(20_000)]
    star = tree_of_tower(Tower([["a"], ids], [dict.fromkeys(ids, "a")]))
    sieve = bytearray([1]) * 250_000
    for i in range(2, 500):
        sieve[i * i :: i] = bytes(len(range(i * i, 250_000, i)))
    primes = [p for p in range(3, 250_000) if sieve[p]]
    images = {ROOT: point_of(ROOT), (1, "a"): point_of((1, "a"))}
    images.update(((2, x), TreePoint((2, x), Fraction(1, p))) for x, p in zip(ids, primes))
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="MAX_DEN"):
        TreeMap(star, star, images)
    # 0.02 s on a 2-vCPU VM, where the lcm of all 20,000 takes 1.5 s
    assert time.perf_counter() - t0 < 0.5
    line = tree_of_tower(constant_tower(3))

    def bend(d1, d2):
        """Level 1 to radius 1 / d1 if d1 else to itself, level 2 to radius 1 + 1 / d2."""
        return TreeMap(line, line, {
            ROOT: point_of(ROOT),
            (1, "x0"): TreePoint((1, "x0"), Fraction(1, d1)) if d1 else point_of((1, "x0")),
            (2, "x0"): TreePoint((2, "x0"), Fraction(1, d2)) if d2 else point_of((2, "x0")),
            (3, "x0"): point_of((3, "x0")),
        })

    # grids 65,521 * 65,519 < 2**32 < 65,537 * 65,539 < 65,537**2
    assert compose_tree_maps(bend(None, 65_519), bend(65_521, None)).den == 65_521 * 65_519
    with pytest.raises(ValidationError, match="MAX_DEN"):
        compose_tree_maps(bend(None, 65_539), bend(65_537, None))
    twice = compose_tree_maps(bend(None, 65_537), bend(65_537, None))
    assert twice.den == 65_537 and maps.MAX_DEN < 65_537**2
    assert twice.vertex_images == brute_composite_images(bend(None, 65_537), bend(65_537, None))


def test_homotopy_meets_once_per_vertex_whose_images_differ(monkeypatch):
    """With both maps' properness tables kept, homotopy_properness climbs
    at most one meet per source vertex whose two images differ, and none
    per edge."""
    calls = _count_meets(monkeypatch)
    pairs = differ = 0
    for seed in range(250):
        for a, b in _homotopy_pairs(seed, *_seed_maps(seed))[0]:
            properness_witness(a), properness_witness(b)  # the kept tables
            calls.clear()
            homotopy_properness(a, b)
            moved = sum(map(ne, a.vertex_images.values(), b.vertex_images.values()))
            assert len(calls) <= moved
            pairs += 1
            differ += moved > 0
    assert pairs >= 1150 and differ >= 500, (pairs, differ)


def test_homotopy_table_is_the_levelwise_max_of_three_tables():
    """The homotopy table is the levelwise max of the table of the vertex
    tracks meet(f v, g v), over the vertices whose images differ, and the
    two maps' own properness tables; it stops where the first of the three
    stops, and it equals brute_homotopy.  Each case is seen on pairs taken
    both ways round: the track table stops strictly first; f's table stops
    first, before the track's; g's does; and all three are total (the
    retraction read back into its tree, against the identity).  f's and
    g's stop together whenever one of them stops before the track: at a
    deepest vertex that both maps send to one image."""
    cases = dict.fromkeys(("track", "f", "g", "total"), 0)
    for seed in range(100):
        pairs = _homotopy_pairs(seed, *_seed_maps(seed))[0]
        tree = pairs[0][0].source
        try:
            r = retraction_map(tree).map
            pairs.append((TreeMap(tree, tree, r.vertex_images), identity_tree_map(tree)))
        except EmptyCore:
            pass
        for a, b in pairs + [(b, a) for a, b in pairs]:
            ai, bi, t = a.vertex_images, b.vertex_images, a.target
            track = {v: brute_radius(brute_meet(t, ai[v], bi[v])) for v in ai if ai[v] != bi[v]}
            tt, t_stop = brute_witness_table(a.source, t.depth, track, {})
            pa, pb = properness_witness(a), properness_witness(b)
            hp = homotopy_properness(a, b)
            assert (hp.table, hp.failure_level) == brute_homotopy(a, b)
            assert hp.table == tuple(map(max, tt, pa.table, pb.table))
            stops = {"track": t_stop, "f": pa.failure_level, "g": pb.failure_level}
            first = min((n for n in stops.values() if n is not None), default=None)
            assert hp.failure_level == first
            if first is None:
                cases["total"] += 1
            elif t_stop == first:
                cases["track"] += pa.failure_level != first and pb.failure_level != first
            else:
                cases["f"] += pa.failure_level == first
                cases["g"] += pb.failure_level == first
    assert min(cases.values()) >= 20, cases


def test_a_morphism_keeps_its_induced_map():
    """xi(m) is built on the first induce_tree_map and kept on m; an equal
    morphism built apart induces an equal map of its own, and the kept map
    changes neither equality nor hash."""
    for seed in range(20):
        x = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=4)
        y = gen_random_tower(seed + 40, depth=2 + (seed + 2) % 6, max_level_size=4)
        m = random_morphism(seed, x, y)
        twin = TowerMorphism(x, y, m.phi, m.components)
        assert twin is not m and twin == m and hash(twin) == hash(m)
        f = induce_tree_map(m)
        assert induce_tree_map(m) is f
        assert m == twin and twin == m and hash(m) == hash(twin)
        g = induce_tree_map(twin)
        assert g is not f and g == f and g.schedule == f.schedule
        assert induce_tree_map(twin) is g and m == twin and hash(m) == hash(twin)


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
        eager = [
            TreePoint((j, ids[j - 1][p]) if j else ROOT, 1 - Fraction(k, rmap.den))
            for here in rmap.rows
            for j, p, k in here
        ]
        assert list(rmap.vertex_images.values()) == eager
    counts = dict.fromkeys(("maps", "extracted", "violations"), 0)
    for seed in range(40):
        x, y, z = (gen_random_tower(seed + k, 3 + (seed + k) % 5, 4, 0.5) for k in (0, 40, 80))
        mf, mh = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
        f, h = induce_tree_map(mf), induce_tree_map(mh)
        deep = (f.target.depth, 0, 0)  # every vertex below the root goes to one deepest vertex
        squash = TreeMap._built(f.source, f.target, [f.rows[0], *([deep] * len(row) for row in f.rows[1:])], 1)
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
    """vertex_images and image_of_point, built from rows on
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
                for x_id, (j, p, k) in zip(src_ids[n], g.rows[n], strict=True):
                    offset = 1 - Fraction(k, g.den)
                    eager[(n, x_id)] = TreePoint((j, tgt_ids[j - 1][p]) if j else ROOT, offset)
            assert list(g.vertex_images.items()) == list(eager.items())
            assert all(int_offset_exactly_at_vertex(p) for p in g.vertex_images.values())
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
