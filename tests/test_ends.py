"""End spaces, the dendrogram roundtrip, simplicialization, certified logs."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ahu_canon,
    brute_components,
    brute_end_exponents,
    brute_prefix,
    brute_ultrametric_ok,
    is_violation,
)

from towertree import (
    GRID,
    RATIONAL,
    Tower,
    UltrametricSpace,
    UnsupportedMode,
    ValidationError,
    agreement,
    bilipschitz_bounds,
    branches,
    certified_ln_sign,
    certified_neg_log_floor,
    end_space_of,
    gen_random_grid_space,
    gen_random_rational_space,
    gen_random_tower,
    grid_space,
    is_extendable,
    max_geodesic_subtree,
    parse_distance_matrix,
    rational_space,
    simplicialize,
    sphere,
    tree_of_tower,
    tree_of_ultrametric,
    tu_distance,
    verify_ultrametric,
    windowed_solenoid_tower,
)


def test_agreement_two_branch(two_branch_tree):
    # a branch is its root-to-leaf vertex tuple; t0 compares them below the root
    long, short = {}, {}
    for b in branches(two_branch_tree):
        (long if b[-1][0] == two_branch_tree.depth else short)[0] = b
    t0 = agreement(long[0][1:], short[0][1:])
    assert t0 == 1
    assert abs(math.exp(-t0) - math.exp(-1)) < 1e-12
    assert agreement(long[0][1:], long[0][1:]) is None


def test_agreement_root_only():
    t = tree_of_tower(Tower([["a1", "a2"]], []))
    b1, b2 = branches(t)
    assert agreement(b1[1:], b2[1:]) == 0
    assert math.exp(-agreement(b1[1:], b2[1:])) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abc"), max_size=6),
    st.lists(st.sampled_from("abc"), max_size=6),
)
def test_agreement_matches_brute_prefix_scan(xs, ys):
    assert agreement(xs, ys) == brute_prefix(xs, ys)
    assert agreement(tuple(xs), tuple(ys)) == brute_prefix(xs, ys)
    assert agreement(xs, list(xs)) is None


def test_end_space_two_branch_is_single_point(two_branch_tree):
    sp = end_space_of(two_branch_tree)
    assert sp.points == ("c1",)
    assert sp.mode == GRID
    assert sp.diameter_exponent() is None


def test_end_space_complete_binary_depth_3():
    levels, bonds = [["r0"]], []
    for n in range(1, 3 + 1):
        prev = levels[-1]
        nxt = [f"{p}{i}" for p in prev for i in "ab"]
        bonds.append({c: c[:-1] for c in nxt})
        levels.append(nxt)
    t = Tower(levels[1:], bonds[1:])
    sp = end_space_of(tree_of_tower(t))
    assert len(sp.points) == 8
    hist = {}
    for _, _, k in sp.pairs():
        hist[k] = hist.get(k, 0) + 1
    assert hist == {0: 16, 1: 8, 2: 4}
    assert sp.diameter_exponent() == 0


def test_ultrametric_space_validation():
    with pytest.raises(ValidationError):
        grid_space(["a", "a"], {})
    with pytest.raises(ValidationError):
        grid_space(["a", "b"], {})            # missing pair
    with pytest.raises(ValidationError):
        grid_space(["a", "b"], {("a", "b"): -1})
    with pytest.raises(ValidationError):
        rational_space(["a", "b"], {("a", "b"): Fraction(3, 2)})
    with pytest.raises(ValidationError):
        rational_space(["a", "b"], {("a", "b"): Fraction(0)})


def test_verify_ultrametric_violation_frozen():
    sp = rational_space(
        ["a", "b", "c"],
        {("a", "b"): Fraction(1), ("b", "c"): Fraction(1, 2), ("a", "c"): Fraction(1, 4)},
    )
    verdict = verify_ultrametric(sp)
    assert not verdict.valid
    x, y, z = verdict.violation
    assert sp.rational(x, y) > max(sp.rational(x, z), sp.rational(z, y))
    assert not brute_ultrametric_ok(sp)


def test_verify_matches_brute_force_on_random_spaces():
    for seed in range(20):
        sp = gen_random_grid_space(seed, max_points=16)
        assert verify_ultrametric(sp).valid
        assert brute_ultrametric_ok(sp)
        rp = gen_random_rational_space(seed, max_points=12)
        assert verify_ultrametric(rp).valid
        assert brute_ultrametric_ok(rp)


def perturbed(space, seed):
    """A copy of space with one to three entries moved, often no longer
    ultrametric."""
    rng = random.Random(f"perturb:{seed}")
    entries = {(x, y): v for x, y, v in space.pairs()}
    for _ in range(rng.randint(1, 3)):
        if not entries:
            break
        pair = rng.choice(sorted(entries))
        if space.mode == GRID:
            entries[pair] = max(0, entries[pair] + rng.choice([-2, -1, 1, 2]))
        else:
            entries[pair] = min(Fraction(1), entries[pair] * Fraction(rng.randint(1, 15), 8))
    return UltrametricSpace(space.points, entries, space.mode)


def test_verify_matches_brute_force_on_perturbed_spaces():
    rejected = 0
    for seed in range(60):
        for space in (
            perturbed(gen_random_grid_space(seed, max_points=14), seed),
            perturbed(gen_random_rational_space(seed, max_points=12), seed),
        ):
            verdict = verify_ultrametric(space)
            assert verdict.valid == brute_ultrametric_ok(space)
            if not verdict.valid:
                assert is_violation(space, *verdict.violation)
                rejected += 1
    assert rejected >= 30


def test_verify_large_end_space_and_a_broken_copy():
    t = gen_random_tower(0, 6, 360, surjectivity_bias=1.0)
    space = end_space_of(tree_of_tower(t))
    assert len(space.points) >= 300
    assert verify_ultrametric(space).valid
    # y, z: a closest pair, merged at b; x joins them at a < b.  Moving
    # d(x, y) to a + 1 leaves d(x, z) = a below both other sides.
    y, z, b = max(space.pairs(), key=lambda p: p[2])
    x = next(p for p in space.points if p not in (y, z) and space.exponent(p, y) < b)
    a = space.exponent(x, y)
    entries = {(p, q): v for p, q, v in space.pairs()}
    entries[(x, y) if (x, y) in entries else (y, x)] = a + 1
    broken = grid_space(space.points, entries)
    assert is_violation(broken, x, z, y)
    verdict = verify_ultrametric(broken)
    assert not verdict.valid
    assert is_violation(broken, *verdict.violation)


def test_verify_reports_the_same_triple_in_any_entry_order():
    """Single linkage reads the pairs of one value in position order, so the
    verdict depends only on the space: not on the order of a matrix's header
    and rows, nor on the order in which grid_space receives its entries."""
    broken = 0
    for seed in range(300):
        space = perturbed(gen_random_grid_space(seed, max_points=10), seed)
        verdict = verify_ultrametric(space)
        broken += not verdict.valid
        rng = random.Random(f"order:{seed}")
        order = list(space.points)
        rng.shuffle(order)
        text = "\n".join(
            [" ".join(order)]
            + [" ".join("0" if x == y else f"e-{space.exponent(x, y)}" for y in order) for x in order]
        )
        entries = [((x, y), v) for x, y, v in space.pairs()]
        rng.shuffle(entries)
        for other in (parse_distance_matrix(text), grid_space(order, dict(entries))):
            assert other == space
            assert verify_ultrametric(other) == verdict
    assert broken >= 100


def test_tree_of_ultrametric_on_broken_spaces_is_connected_components():
    broken = 0
    for seed in range(40):
        space = perturbed(gen_random_grid_space(seed, max_points=12), seed)
        broken += not brute_ultrametric_ok(space)
        tree, ends = tree_of_ultrametric(space)
        for h in range(1, tree.depth + 1):
            classes = {}
            for x, branch in ends.items():
                classes.setdefault(branch[h], set()).add(x)
            assert {frozenset(c) for c in classes.values()} == brute_components(space, h)
            # each class is named by its first point in point order
            for (_, name), c in classes.items():
                assert name == min(c, key=space.points.index)
    assert broken >= 10


def _sorting_path(levels, bonds):
    """The public constructor's tower from reversed levels and bond dicts."""
    return Tower([level[::-1] for level in levels], [dict(reversed(b.items())) for b in bonds])


def test_dendrogram_is_built_in_order_like_the_sorting_path():
    """tree_of_ultrametric lists its classes in point order without sorting;
    the constructor that sorts, fed the classes its branches name, builds
    the same tower, on valid and broken grid spaces.  simplicialize's tree
    likewise equals its own sorting-path rebuild."""
    spaces = broken = 0
    for seed in range(120):
        grid = gen_random_grid_space(seed, max_points=12)
        for space in (grid, perturbed(grid, seed)):
            broken += not brute_ultrametric_ok(space)
            tree, ends = tree_of_ultrametric(space)
            chains = list(ends.values())
            levels = [list(dict.fromkeys(c[h][1] for c in chains)) for h in range(1, tree.depth + 1)]
            bonds = [{c[h + 1][1]: c[h][1] for c in chains} for h in range(1, tree.depth)]
            ref = _sorting_path(levels, bonds)
            assert (tree.tower.levels, tree.tower.up) == (ref.levels, ref.up)
            spaces += 1
        t = simplicialize(gen_random_rational_space(seed, max_points=10))[0].tower
        ref = _sorting_path(t.levels, t.bonds)
        assert (t.levels, t.up) == (ref.levels, ref.up)
    assert spaces >= 200 and broken >= 30


def test_point_ids_that_read_the_same_in_either_order():
    # "1" and "01" share a numeric value; neither argument order may matter
    a = grid_space(["1", "01"], {("01", "1"): 2})
    b = grid_space(["01", "1"], {("1", "01"): 2})
    assert a == b and hash(a) == hash(b)
    assert a.points == b.points == ("1", "01")
    assert a.exponent("1", "01") == a.exponent("01", "1") == 2
    r1 = rational_space(["p02", "p2"], {("p2", "p02"): Fraction(1, 3)})
    r2 = rational_space(["p2", "p02"], {("p02", "p2"): Fraction(1, 3)})
    assert r1 == r2 and r1.points == ("p2", "p02")


def test_small_spaces_trivially_valid():
    assert verify_ultrametric(grid_space(["a"], {})).valid
    assert verify_ultrametric(grid_space(["a", "b"], {("a", "b"): 3})).valid


def test_dendrogram_two_points():
    sp = grid_space(["x", "y"], {("x", "y"): 2})
    tree, ends = tree_of_ultrametric(sp)
    # shared path of length 2, then a fork
    assert [len(sphere(tree, n)) for n in range(0, tree.depth + 1)] == [1, 1, 1, 2]
    assert set(ends) == {"x", "y"}
    assert end_space_of(tree) == sp


def test_dendrogram_caterpillar_two_pairs():
    sp = grid_space(
        ["p", "q", "r", "s"],
        {
            ("p", "q"): 3, ("r", "s"): 3,
            ("p", "r"): 1, ("p", "s"): 1, ("q", "r"): 1, ("q", "s"): 1,
        },
    )
    tree, _ = tree_of_ultrametric(sp)
    assert [len(sphere(tree, n)) for n in range(0, tree.depth + 1)] == [1, 1, 2, 2, 4]
    assert end_space_of(tree) == sp


def test_dendrogram_one_point_is_path():
    tree, ends = tree_of_ultrametric(grid_space(["solo"], {}))
    assert all(len(sphere(tree, n)) == 1 for n in range(tree.depth + 1))
    assert set(ends) == {"solo"}


def test_dendrogram_rejects_rational_mode():
    sp = rational_space(["a", "b"], {("a", "b"): Fraction(1, 3)})
    with pytest.raises(UnsupportedMode):
        tree_of_ultrametric(sp)


def test_grid_roundtrip_seeded():
    for seed in range(100):
        sp = gen_random_grid_space(seed, max_points=32)
        tree, _ = tree_of_ultrametric(sp)
        assert end_space_of(tree) == sp


def test_tu_distance_cases():
    sp = grid_space(["a", "b"], {("a", "b"): 2})
    assert tu_distance(sp, "a", Fraction(3), "a", Fraction(1)) == 2
    assert tu_distance(sp, "a", Fraction(5), "b", Fraction(5)) == 6
    assert tu_distance(sp, "a", Fraction(0), "b", Fraction(0)) == 0
    assert tu_distance(sp, "a", Fraction(1), "b", Fraction(1)) == 0
    # rational mode: float with a documented tolerance
    rs = rational_space(["a", "b"], {("a", "b"): Fraction(3, 10)})
    got = tu_distance(rs, "a", Fraction(2), "b", Fraction(2))
    assert abs(got - (4 - 2 * (-math.log(0.3)))) < 1e-12


def test_simplicialize_two_points_at_three_tenths():
    sp = rational_space(["a", "b"], {("a", "b"): Fraction(3, 10)})
    tree, corr = simplicialize(sp)
    row = corr.rows[0]
    # e^-2 < 3/10 <= e^-1, so the fork happens at integer level 2
    assert row.new_exponent == 1
    assert row.certified
    assert [len(sphere(tree, n)) for n in range(0, tree.depth + 1)][:3] == [1, 1, 2]
    lo, hi = bilipschitz_bounds(corr)
    assert abs(lo - 0.3 / math.exp(-1)) < 1e-12
    assert math.exp(-1) < lo <= hi <= 1.0


def test_simplicialize_grid_input_is_isometric():
    sp = gen_random_grid_space(7, max_points=12)
    tree, corr = simplicialize(sp)
    assert bilipschitz_bounds(corr) == (1.0, 1.0)
    dendro, _ = tree_of_ultrametric(sp)
    assert ahu_canon(tree) == ahu_canon(dendro)
    assert end_space_of(tree) == end_space_of(dendro)


def test_simplicialize_single_point():
    tree, corr = simplicialize(rational_space(["a"], {}))
    assert bilipschitz_bounds(corr) == (1.0, 1.0)
    assert all(len(sphere(tree, n)) == 1 for n in range(tree.depth + 1))


def test_certified_neg_log_floor_values():
    assert certified_neg_log_floor(Fraction(1)) == 0
    assert certified_neg_log_floor(Fraction(3, 10)) == 1
    assert certified_neg_log_floor(Fraction(1, 3)) == 1
    assert certified_neg_log_floor(Fraction(1, 20)) == 2
    # agrees with the float computation away from boundaries
    for num, den in [(1, 2), (7, 9), (2, 113), (5, 161)]:
        d = Fraction(num, den)
        assert certified_neg_log_floor(d) == math.floor(-math.log(num / den))


def test_certified_ln_sign():
    assert certified_ln_sign(Fraction(8), Fraction(2)) == 1
    assert certified_ln_sign(Fraction(7), Fraction(2)) == -1
    assert certified_ln_sign(Fraction(1), Fraction(0)) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_agreement_strong_triangle_on_random_trees(seed):
    t = tree_of_tower(gen_random_tower(seed, depth=2 + seed % 5, max_level_size=4))
    bs = branches(t)[:8]
    for f in bs:
        for g in bs:
            for h in bs:
                tfh = agreement(f[1:], h[1:])
                tfg = agreement(f[1:], g[1:])
                tgh = agreement(g[1:], h[1:])
                vals = [v if v is not None else 10**9 for v in (tfh, tfg, tgh)]
                assert vals[0] >= min(vals[1], vals[2])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_end_space_always_valid_ultrametric(seed):
    t = tree_of_tower(gen_random_tower(seed, depth=2 + seed % 6, max_level_size=5))
    sp = end_space_of(t)
    assert sp.mode == GRID
    assert verify_ultrametric(sp).valid
    diam = sp.diameter_exponent()
    if diam is not None:
        assert diam >= 0


def _assert_end_space_matches_root_chains(tree, keep=lambda x: True):
    space = end_space_of(tree)
    assert set(space.points) == {v[1] for v in tree.levels[tree.depth] if keep(v[1])}
    brute = brute_end_exponents(tree, keep)
    for i, x in enumerate(space.points):
        for j, y in enumerate(space.points):
            want = None if i == j else brute.get((x, y), brute.get((y, x)))
            assert space.rows[i][j] == want
    return space


def test_end_space_matches_root_chains_of_the_deepest_vertices():
    """Ends are read off the core tower's parent positions; the oracle walks
    parent_of from each deepest vertex of the full tree instead."""
    proper = 0
    for seed in range(240):
        tower = gen_random_tower(
            seed, depth=1 + seed % 7, max_level_size=2 + seed % 4, surjectivity_bias=(seed % 4) / 4
        )
        tree = tree_of_tower(tower)
        _assert_end_space_matches_root_chains(tree)
        proper += len(max_geodesic_subtree(tree).vertices) < len(tree.vertices)
    assert proper >= 100


def test_end_space_of_solenoids_and_dendrograms_matches_root_chains():
    for primes, window, depth in (([2], 64, 5), ([2, 3], 200, 4), ([1], 6, 4), ([1, 1], 3, 3)):
        tower = windowed_solenoid_tower(primes, window, depth)
        # an end is a deepest vertex that still extends 40 levels further
        space = _assert_end_space_matches_root_chains(
            tree_of_tower(tower), lambda x: is_extendable(tower, depth, x, depth + 40)
        )
        assert len(space.points) == (1 if max(primes) > 1 else 2 * window + 1)
    for seed in range(40):
        original = gen_random_grid_space(seed, max_points=2 + seed % 9)
        tree, _ = tree_of_ultrametric(original)
        assert _assert_end_space_matches_root_chains(tree) == original
