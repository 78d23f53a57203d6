"""Tree construction, roundtrips, metric geometry, core, and retraction."""

import math
import random
from fractions import Fraction

import pytest

from conftest import constant_tower
from oracles import (
    ahu_canon,
    brute_ancestor_point,
    brute_branches,
    brute_distance,
    brute_geodesic_point,
    brute_meet,
    brute_radius,
    brute_vertex_distance,
    eager_tree_views,
    int_offset_exactly_at_vertex,
    is_ancestor,
    root_chain,
)

from towertree import (
    ROOT,
    IndexOutOfRange,
    RootedTree,
    Tower,
    TreePoint,
    ValidationError,
    VertexNotFound,
    ancestor_point_at,
    branches,
    distance,
    dot_of_tree,
    gen_random_tower,
    geodesic_data,
    geodesic_point,
    identity_tree_map,
    is_geodesically_complete,
    max_geodesic_subtree,
    meet_point,
    point_of,
    retraction_map,
    sphere,
    subtree_at,
    surjective_core,
    tower_of_tree,
    tree_of_tower,
    windowed_solenoid_tower,
)
from towertree.trees import _floor, _meet, _up


def test_two_branch_tree_shape(two_branch_tree):
    t = two_branch_tree
    assert len(t.vertices) == 5
    assert t.depth == 3
    assert t.parent_of((1, "a")) == ROOT
    assert t.parent_of((2, "b1")) == (1, "a")
    assert t.parent_of((2, "b2")) == (1, "a")
    assert t.parent_of((3, "c1")) == (2, "b1")
    leaves = {v for v in t.vertices if not t.children_of(v)}
    assert leaves == {(2, "b2"), (3, "c1")}


def test_one_level_tower_is_single_edge():
    t = tree_of_tower(Tower([["a"]], []))
    assert set(t.vertices) == {ROOT, (1, "a")}
    assert t.depth == 1


def test_tree_point_validation(two_branch_tree):
    with pytest.raises(ValidationError):
        TreePoint((1, "a"), Fraction(0))
    with pytest.raises(ValidationError):
        TreePoint((1, "a"), Fraction(3, 2))
    p = TreePoint((2, "b1"), Fraction(1, 2))
    assert p.radius == Fraction(3, 2)
    assert point_of(ROOT).radius == 0


def test_roundtrip_exact(two_branch_tower):
    assert tower_of_tree(tree_of_tower(two_branch_tower)) == two_branch_tower
    for seed in range(40):
        t = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        assert tower_of_tree(tree_of_tower(t)) == t


def test_tree_tower_tree_isomorphic_at_depth_8():
    t = gen_random_tower(271828, depth=8, max_level_size=4)
    tree1 = tree_of_tower(t)
    tree2 = tree_of_tower(tower_of_tree(tree1))
    assert ahu_canon(tree1) == ahu_canon(tree2)
    assert tree1.parent == tree2.parent


def test_sphere_frozen(two_branch_tree):
    assert sphere(two_branch_tree, 0) == (ROOT,)
    assert sphere(two_branch_tree, 2) == ((2, "b1"), (2, "b2"))
    assert sphere(two_branch_tree, 3) == ((3, "c1"),)
    with pytest.raises(IndexOutOfRange):
        sphere(two_branch_tree, 4)


def test_geodesic_data_meets(two_branch_tree):
    t = two_branch_tree
    b1, b2, c1 = point_of((2, "b1")), point_of((2, "b2")), point_of((3, "c1"))
    meet, d = geodesic_data(t, b1, b2)
    assert meet == point_of((1, "a"))
    assert d == 2
    meet, d = geodesic_data(t, c1, b2)
    assert meet == point_of((1, "a"))
    assert d == 3
    meet, d = geodesic_data(t, c1, c1)
    assert meet == c1 and d == 0
    # interior points half way down the sibling edges
    p = TreePoint((2, "b1"), Fraction(1, 2))
    q = TreePoint((2, "b2"), Fraction(1, 2))
    meet, d = geodesic_data(t, p, q)
    assert meet == point_of((1, "a"))
    assert d == 1


def test_vertex_distances_match_chain_walk():
    for seed in (0, 7, 19):
        t = tree_of_tower(gen_random_tower(seed, depth=2 + seed % 6, max_level_size=4))
        vs = sorted(t.vertices)
        for u in vs:
            for w in vs:
                d = distance(t, point_of(u), point_of(w))
                assert d == brute_vertex_distance(t, u, w)
                ru, rw = len(root_chain(t, u)) - 1, len(root_chain(t, w)) - 1
                assert d >= abs(ru - rw)
                ancestral = is_ancestor(t, u, w) or is_ancestor(t, w, u)
                assert (d == abs(ru - rw)) == ancestral


def _metric_pairs(tree, rng, count):
    """Point pairs on a same base, on a strict ancestor in both orders, and
    on two random vertices (mostly forks); about half the points lie inside
    an edge."""

    def point(v):
        if v == ROOT or rng.random() < 0.5:
            return point_of(v)
        return TreePoint(v, Fraction(rng.randint(1, 7), 8))

    below_root = tree.vertices[1:]
    pairs = []
    for _ in range(count):
        x = point(rng.choice(below_root))
        a = point(rng.choice(root_chain(tree, x.base)[:-1]))
        pairs += [(x, point(x.base)), (x, a), (a, x), (x, point(rng.choice(tree.vertices)))]
    return pairs


def test_metric_matches_chain_prefix_oracle():
    rng = random.Random(2024)
    cases = {"same base": 0, "ancestor": 0, "fork": 0}
    vertices = 0
    for seed in range(12):
        tower = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=4)
        t = tree_of_tower(tower)
        for x, y in _metric_pairs(t, rng, 25):
            if x.base == y.base:
                cases["same base"] += 1
            elif is_ancestor(t, x.base, y.base) or is_ancestor(t, y.base, x.base):
                cases["ancestor"] += 1
            else:
                cases["fork"] += 1
            meet = meet_point(t, x, y)
            assert meet == brute_meet(t, x, y)
            assert _floor(_meet(_up(t), t._locate(x), t._locate(y))) == math.floor(brute_radius(meet))
            assert _floor(t._locate(x)) == math.floor(brute_radius(x))
            d = distance(t, x, y)
            assert d == brute_distance(t, x, y)
            r = Fraction(rng.randint(0, int(8 * brute_radius(x))), 8)
            anc = ancestor_point_at(t, x, r)
            assert anc == brute_ancestor_point(t, x, r)
            s = Fraction(rng.randint(0, int(8 * d)), 8)
            geo = geodesic_point(t, x, y, s)
            assert geo == brute_geodesic_point(t, x, y, s)
            # == alone accepts Fraction(1) == 1
            assert all(map(int_offset_exactly_at_vertex, (x, y, meet, anc, geo)))
            vertices += sum(brute_radius(p).denominator == 1 for p in (anc, geo))
    assert min(cases.values()) >= 100, cases
    assert vertices >= 400


def test_vertex_radii_are_ints_and_edge_points_fractions():
    t = tree_of_tower(gen_random_tower(5, depth=5, max_level_size=4))
    for v in t.vertices:
        assert type(point_of(v).radius) is int and point_of(v).radius == v[0]
        if v != ROOT:
            assert type(TreePoint(v, Fraction(1)).offset) is int
            inside = TreePoint(v, Fraction(1, 3))
            assert type(inside.radius) is Fraction and inside.radius == v[0] - Fraction(2, 3)
    u, w = t.levels[t.depth][0], t.levels[1][-1]
    assert type(distance(t, point_of(u), point_of(w))) is int
    assert type(meet_point(t, point_of(u), point_of(w)).radius) is int
    assert type(ancestor_point_at(t, point_of(u), Fraction(2)).offset) is int


def test_subtree_at_frozen(two_branch_tree):
    assert subtree_at(two_branch_tree, (1, "a")) == {
        (1, "a"), (2, "b1"), (2, "b2"), (3, "c1"),
    }
    assert subtree_at(two_branch_tree, ROOT) == set(two_branch_tree.vertices)
    assert subtree_at(two_branch_tree, (3, "c1")) == {(3, "c1")}
    with pytest.raises(VertexNotFound):
        subtree_at(two_branch_tree, (9, "zzz"))


def test_max_geodesic_subtree_prunes_dead_branch(two_branch_tree):
    core = max_geodesic_subtree(two_branch_tree)
    assert set(core.vertices) == {ROOT, (1, "a"), (2, "b1"), (3, "c1")}
    assert is_geodesically_complete(core)
    # maximality: putting the pruned vertex back breaks completeness
    parent = dict(core.parent)
    parent[(2, "b2")] = (1, "a")
    assert not is_geodesically_complete(RootedTree(parent))


def test_solenoid_core_is_single_zero_path():
    t = tree_of_tower(windowed_solenoid_tower([2], 1024, 12))
    core = max_geodesic_subtree(t)
    assert set(core.vertices) == {ROOT} | {(n, "0") for n in range(1, 13)}


def test_geodesic_completeness_flags(two_branch_tree):
    assert not is_geodesically_complete(two_branch_tree)
    assert is_geodesically_complete(tree_of_tower(constant_tower(5, size=2)))
    for seed in range(12):
        t = tree_of_tower(gen_random_tower(seed, depth=2 + seed % 5, max_level_size=4))
        core = max_geodesic_subtree(t)
        assert is_geodesically_complete(core)
        # cross-check against bond surjectivity of the induced tower
        back = tower_of_tree(core)
        for n in range(1, back.depth):
            assert frozenset(back.bond(n).values()) == frozenset(back.level(n))


def test_every_vertex_lies_on_a_branch():
    for seed in (2, 11, 23):
        t = tree_of_tower(gen_random_tower(seed, depth=3 + seed % 5, max_level_size=4))
        covered = set()
        for b in branches(t):
            covered.update(b)
        assert covered == set(t.vertices)


def test_branches_match_brute_chain_oracle(two_branch_tree):
    trees = [RootedTree({}), tree_of_tower(Tower([["a2", "a1"]], [])), two_branch_tree]
    trees += [
        tree_of_tower(gen_random_tower(seed, 1 + seed % 6, 1 + seed % 5, (seed % 5) / 4))
        for seed in range(200)
    ]
    incomplete = 0
    for t in trees:
        bs = branches(t)
        assert bs == brute_branches(t)
        incomplete += sum(b[-1][0] < t.depth for b in bs)
    assert branches(RootedTree({})) == ((ROOT,),)
    assert branches(two_branch_tree) == (
        (ROOT, (1, "a"), (2, "b2")),
        (ROOT, (1, "a"), (2, "b1"), (3, "c1")),
    )
    assert incomplete >= 80


def test_retraction_two_branch(two_branch_tree):
    r = retraction_map(two_branch_tree)
    assert r.map.image_of_vertex((2, "b2")) == point_of((1, "a"))
    for v in ((1, "a"), (2, "b1"), (3, "c1")):
        assert r.map.image_of_vertex(v) == point_of(v)
    assert r.properness.table == (1, 3, 3)
    assert r.properness.total_upto == 3
    assert r.properness.failure_level is None


def test_retraction_identity_on_complete_tree():
    tree = tree_of_tower(constant_tower(5, size=2))
    r = retraction_map(tree)
    ident = identity_tree_map(tree)
    assert r.map.vertex_images == ident.vertex_images
    assert r.properness.table == (1, 2, 3, 4, 5)


def test_retraction_solenoid_fails_properness():
    tree = tree_of_tower(windowed_solenoid_tower([2], 1024, 11))
    r = retraction_map(tree)
    assert r.properness.failure_level == 1
    assert r.properness.oracle_override
    assert r.properness.total_upto == 0


def test_point_helpers(two_branch_tree):
    t = two_branch_tree
    c1 = point_of((3, "c1"))
    half = ancestor_point_at(t, c1, Fraction(1, 2))
    assert half == TreePoint((1, "a"), Fraction(1, 2))
    b2 = point_of((2, "b2"))
    mid = geodesic_point(t, c1, b2, Fraction(3, 2))
    # 3/2 along the path c1 -> a -> b2 sits on the a-b1 edge side
    assert mid.radius == Fraction(3, 2)
    assert meet_point(t, c1, b2) == point_of((1, "a"))


def test_dot_export_two_branch(two_branch_tree):
    core = max_geodesic_subtree(two_branch_tree)
    dot = dot_of_tree(two_branch_tree, core=core.vertices)
    assert dot.count("->") == 4
    assert dot.count("style=bold") == 4
    assert dot.count("style=dashed") == 1
    assert '"2:b2" [style=dashed];' in dot
    assert dot == dot_of_tree(two_branch_tree, core=core.vertices)


def test_dot_export_one_point_tower():
    dot = dot_of_tree(tree_of_tower(Tower([["a"]], [])))
    assert dot.count("->") == 1
    assert '"1:a"' in dot


def test_tree_indexes_its_tower(two_branch_tower, solenoid_p2):
    assert tower_of_tree(tree_of_tower(two_branch_tower)) is two_branch_tower
    for seed in range(20):
        t = gen_random_tower(seed, depth=1 + seed % 6, max_level_size=4)
        assert tower_of_tree(tree_of_tower(t)) is t
    # a generator tower comes back as its plain table, without the oracle
    back = tower_of_tree(tree_of_tower(solenoid_p2))
    assert back.oracle is None
    assert back == Tower(solenoid_p2.levels, solenoid_p2.bonds)


def test_core_is_tree_of_surjective_core():
    for seed in range(40):
        t = gen_random_tower(
            seed, depth=1 + seed % 7, max_level_size=5, surjectivity_bias=(seed % 5) / 4
        )
        assert max_geodesic_subtree(tree_of_tower(t)) == tree_of_tower(surjective_core(t))


@pytest.mark.parametrize(
    "parent",
    [
        {(1, "a"): (0, "x")},  # level-1 vertex whose parent is not the root
        {(1, "a"): ROOT, (2, "b"): (1, "a"), (3, "c"): (1, "a")},  # two levels up
        {(1, "a"): ROOT, (3, "c"): (2, "b")},  # level 2 skipped
        {(1, "a"): ROOT, (2, "b"): (1, "z")},  # parent is not a vertex
    ],
)
def test_parent_map_rejections(parent):
    with pytest.raises(ValidationError):
        RootedTree(parent)


def test_generator_core_is_the_oracles_forever_set():
    # some multiplier > 1: only 0 extends forever; all multipliers 1: everything
    for primes in ([2], [1, 3]):
        tree = tree_of_tower(windowed_solenoid_tower(primes, 64, 4))
        assert set(max_geodesic_subtree(tree).vertices) == {ROOT} | {(n, "0") for n in range(1, 5)}
        assert tree.fringe_unbounded
    tree = tree_of_tower(windowed_solenoid_tower([1], 8, 3))
    assert max_geodesic_subtree(tree).vertices == tree.vertices
    assert not tree.fringe_unbounded


def test_tree_reads_the_oracle_off_its_tower():
    """A tree stores its tower and no copy of the oracle's verdict, only
    lazy caches; equality and hashing are the tower's, so a tower_of_tree
    copy, which drops the oracle, indexes a different tree."""
    assert set(RootedTree.__slots__) == {
        "tower", "depth", "_levels", "_parent", "_children", "_core", "_where"
    }
    towers = [gen_random_tower(seed, depth=1 + seed % 4, max_level_size=3) for seed in range(12)]
    for primes in ([2], [2, 2], [1], [1, 3]):
        towers.append(windowed_solenoid_tower(primes, 16, 3))
    towers += [tower_of_tree(tree_of_tower(t)) for t in towers[-4:]]
    towers.append(gen_random_tower(0, depth=1, max_level_size=3))  # an equal copy
    unequal = 0
    for a in towers:
        ta = tree_of_tower(a)
        oracle = a.oracle
        ones = oracle is not None and all(p == 1 for p in oracle.primes)
        assert ta.fringe_unbounded == (oracle is not None and not ones)
        if oracle is not None:
            assert set(max_geodesic_subtree(ta).vertices) == {ROOT} | {
                (n, x) for n, ids in enumerate(a.levels, start=1) for x in ids
                if ones or x == "0"
            }
        for b in towers:
            tb = tree_of_tower(b)
            assert (ta == tb) == (a == b)
            if a == b:
                assert hash(ta) == hash(tb)
            unequal += a != b and a.levels == b.levels and a.up == b.up
        if a.depth:
            assert RootedTree(ta.parent) == tree_of_tower(tower_of_tree(ta))
    # same shape, unequal towers, each pair counted both ways: [2], [2, 2] and
    # their plain copies (which are equal) make 5 pairs; [1] and [1, 3]
    # against their plain copies make 2
    assert unequal == 2 * (5 + 2)
    assert RootedTree({}) == RootedTree({}) and hash(RootedTree({})) == hash(RootedTree({}))


def test_children_follow_level_order():
    for seed in range(20):
        tree = tree_of_tower(gen_random_tower(seed, depth=2 + seed % 5, max_level_size=5))
        for n in range(tree.depth + 1):
            below = tree.levels.get(n + 1, ())
            for v in tree.levels[n]:
                assert tree.children_of(v) == tuple(w for w in below if tree.parent[w] == v)


def test_lazy_views_match_an_eager_build():
    """levels, vertices, parent and children, each built on first use and
    asked for in any order, equal an eager build from the tower's bond
    dicts; depth, repr and parent positions need no vertex at all."""
    towers = [
        gen_random_tower(seed, 1 + seed % 6, 1 + seed % 6, (seed % 11) / 10) for seed in range(200)
    ]
    towers += [
        windowed_solenoid_tower(primes, window, 1 + window % 5)
        for primes in ([1], [2], [1, 3], [2, 3])
        for window in (0, 3, 9, 20, 33)
    ]
    for k, tower in enumerate(towers):
        tree = tree_of_tower(tower)
        levels, vertices, parent, children, text = eager_tree_views(tower)
        assert tree.depth == tower.depth and repr(tree) == text
        for n in range(1, tree.depth + 1):
            want = [levels[n - 1].index(parent[v]) for v in levels[n]]
            assert list(tree.parent_positions(n)) == want
        assert tree._levels is None and tree._parent is None and tree._children is None
        views = [("levels", levels), ("vertices", vertices)]
        views += [("parent", parent), ("children", children)]
        for name, want in views[k % 4 :] + views[: k % 4]:
            got = getattr(tree, name)
            assert got == want
            if isinstance(want, dict):
                assert list(got.items()) == list(want.items())
        if tower.oracle is None:
            rebuilt = RootedTree(parent)
            assert rebuilt == tree and repr(rebuilt) == text
            assert list(rebuilt.parent.items()) == list(parent.items())
    bare = RootedTree({})
    assert repr(bare) == "RootedTree(depth=0, vertices=1)" and bare._levels is None
    assert bare.levels == {0: (ROOT,)} and bare.vertices == (ROOT,)
    assert bare.parent == {} and bare.children == {ROOT: ()}


def test_retraction_sends_each_vertex_to_its_deepest_core_ancestor():
    """Images read off parent positions equal a per-vertex oracle: the
    deepest ancestor with a descendant at full depth, or, with an oracle,
    the deepest ancestor whose id extends forever."""
    trees = [
        tree_of_tower(gen_random_tower(seed, 1 + seed % 7, 1 + seed % 5, (seed % 11) / 10))
        for seed in range(270)
    ]
    trees += [
        tree_of_tower(windowed_solenoid_tower(primes, window, 2 + window % 5))
        for primes in ([1], [2], [1, 3], [2, 3], [3, 1, 2])
        for window in (0, 2, 5, 11, 24, 40)
    ]
    moved = 0
    for tree in trees:
        oracle = tree.tower.oracle
        if oracle is None:
            core = {u for leaf in tree.levels[tree.depth] for u in root_chain(tree, leaf)}
        else:
            ones = all(p == 1 for p in oracle.primes)
            core = {v for v in tree.vertices if ones or v[1] == "0"} | {ROOT}
        rmap = retraction_map(tree).map
        assert rmap.target is max_geodesic_subtree(tree)
        assert set(rmap.target.vertices) == core
        for n, level in tree.levels.items():
            for v, image in zip(level, rmap.rows[n], strict=True):
                deepest = next(u for u in reversed(root_chain(tree, v)) if u in core)
                at = rmap.target.levels[deepest[0]].index(deepest)
                assert image == (deepest[0], at, 1) and type(image[2]) is int
                assert rmap.vertex_images[v] == point_of(deepest)
                moved += deepest != v
    assert len(trees) >= 300 and moved >= 1000
