"""End spaces, the dendrogram roundtrip, simplicialization, certified logs."""

import math
import random
import sys
import tracemalloc
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
    exp_convergents,
    float_min_exponent,
    is_violation,
    mp_ln_sign,
    mp_neg_log_floor,
)

from towertree import (
    GRID,
    RATIONAL,
    ElementNotInLevel,
    EmptyCore,
    InvalidParameter,
    RootedTree,
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
    tree_of_tower,
    tree_of_ultrametric,
    verify_ultrametric,
    windowed_solenoid_tower,
)
from towertree.ends import _single_linkage
from towertree.generate import DEFAULT_C_GRID, DEFAULT_L_GRID
from towertree.towers import Window


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
    with pytest.raises(EmptyCore):
        end_space_of(RootedTree({}))  # the bare root has no complete branch


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
    with pytest.raises(ValidationError, match="at least one point"):
        grid_space([], {})
    with pytest.raises(UnsupportedMode):
        UltrametricSpace(["a"], {}, "real")
    with pytest.raises(ValidationError, match="unknown point"):
        grid_space(["a", "b"], {("a", "b"): 1, ("a", "c"): 1})
    with pytest.raises(ValidationError, match="self-distance"):
        grid_space(["a", "b"], {("a", "b"): 1, ("b", "b"): 2})
    # a zero diagonal entry is accepted and reads back as the diagonal
    sp = grid_space(["a", "b"], {("a", "b"): 1, ("a", "a"): 0})
    assert sp.rows == [[None, 1], [1, None]]
    # an int entry in rational mode is stored as a Fraction
    rs = rational_space(["a", "b"], {("a", "b"): 1})
    assert type(rs.rational("a", "b")) is Fraction and rs.rational("a", "b") == 1


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


def _fresh(space):
    """An equal space that has not run its single-linkage pass."""
    return UltrametricSpace(space.points, {(x, y): v for x, y, v in space.pairs()}, space.mode)


def _dendrogram(space):
    tree, ends = tree_of_ultrametric(space)
    return tree.tower.levels, tree.tower.up, list(ends.items())


def test_tree_of_ultrametric_is_the_same_with_or_without_verify_first():
    """verify_ultrametric keeps its single-linkage pass and tree_of_ultrametric
    reads it; run cold, tree_of_ultrametric builds the same pass itself.
    Both give one dendrogram, on valid and broken grid spaces and through
    simplicialize, while verdicts match brute force with genuine triples."""
    spaces = broken = 0
    for seed in range(150):
        grid = gen_random_grid_space(seed, max_points=14)
        for space in (grid, perturbed(grid, seed)):
            cold, warm = _fresh(space), _fresh(space)
            assert cold._linkage is None and warm._linkage is None
            verdict = verify_ultrametric(warm)
            assert warm._linkage is not None
            assert verdict.valid == brute_ultrametric_ok(space)
            if not verdict.valid:
                assert is_violation(space, *verdict.violation)
                broken += 1
            assert _dendrogram(cold) == _dendrogram(warm)
            # the kept pass is left out of equality and hash
            assert cold == warm == space and hash(cold) == hash(warm) == hash(space)
            spaces += 1
        rational = gen_random_rational_space(seed, max_points=10)
        tree, corr = simplicialize(rational)
        exponents = {(r.x, r.y): r.new_exponent for r in corr.rows}
        warm = grid_space(corr.points, exponents)
        assert verify_ultrametric(warm).valid
        assert tree_of_ultrametric(warm)[0] == tree
        assert tree_of_ultrametric(grid_space(corr.points, exponents))[0] == tree
    assert spaces == 300 and broken >= 40


def test_verify_the_wide_2000_point_end_space_within_the_bytes_of_its_rows():
    """Verifying the rows of the 2,000 ends of 50 tops (1,999,000 pairs)
    allocates less than the rows themselves take: the pass keeps nothing
    per pair.  The end space itself is valid by construction, so the pass
    runs on a space given its rows (shared, not copied: a copy through
    UltrametricSpace's entry dict would peak at about 300 MB)."""
    top = [f"b{i}" for i in range(50)]
    ids = [f"e{i}" for i in range(2000)]
    of_tree = end_space_of(tree_of_tower(Tower([top, ids], [{x: top[i % 50] for i, x in enumerate(ids)}])))
    space = UltrametricSpace._trusted(of_tree.points, of_tree.rows, GRID)
    rows_bytes = sys.getsizeof(space.rows) + sum(map(sys.getsizeof, space.rows))
    tracemalloc.start()
    try:
        verdict = verify_ultrametric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.valid
    assert peak < rows_bytes, f"peak {peak} bytes against rows of {rows_bytes}"
    assert space._linkage == of_tree._linkage and space == of_tree
    # the kept pass gives the 50 classes of 40 ends below the tops
    tree, ends = tree_of_ultrametric(space)
    assert tree.sizes == (1, 50, 2000)
    assert ends["e51"] == ((0, "root"), (1, "e1"), (2, "e51"))


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
    assert [len(tree.levels[n]) for n in range(0, tree.depth + 1)] == [1, 1, 1, 2]
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
    assert [len(tree.levels[n]) for n in range(0, tree.depth + 1)] == [1, 1, 2, 2, 4]
    assert end_space_of(tree) == sp


def test_dendrogram_one_point_is_path():
    tree, ends = tree_of_ultrametric(grid_space(["solo"], {}))
    assert all(len(tree.levels[n]) == 1 for n in range(tree.depth + 1))
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


def test_display_and_exact_accessors_read_each_mode():
    sp = grid_space(["a", "b"], {("a", "b"): 2})
    rs = rational_space(["a", "b"], {("a", "b"): Fraction(3, 10)})
    # the display accessor reads either mode, and each exact one its own
    assert sp.numeric("a", "b") == math.exp(-2)
    assert rs.numeric("a", "b") == 0.3
    assert sp.numeric("a", "a") == rs.numeric("b", "b") == 0.0
    assert rs.rational("a", "a") == 0
    with pytest.raises(ElementNotInLevel):
        sp.numeric("a", "z")
    with pytest.raises(UnsupportedMode):
        rs.exponent("a", "b")
    with pytest.raises(UnsupportedMode):
        sp.rational("a", "b")
    with pytest.raises(UnsupportedMode):
        rs.diameter_exponent()


def test_simplicialize_two_points_at_three_tenths():
    sp = rational_space(["a", "b"], {("a", "b"): Fraction(3, 10)})
    tree, corr = simplicialize(sp)
    row = corr.rows[0]
    # e^-2 < 3/10 <= e^-1, so the fork happens at integer level 2
    assert row.new_exponent == 1
    assert row.certified
    assert [len(tree.levels[n]) for n in range(0, tree.depth + 1)][:3] == [1, 1, 2]
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
    assert all(len(tree.levels[n]) == 1 for n in range(tree.depth + 1))


def test_simplicialize_is_the_dendrogram_of_the_floored_pairs():
    """simplicialize floors each pair of a rational space and takes a grid
    space's chain as it is; either way the tree is the
    dendrogram of the pairs' floors, on valid and malformed spaces, and on
    grid spaces that hold only a tree's chain."""
    kinds = {}
    for seed in range(200):
        rational = gen_random_rational_space(seed, max_points=12)
        grid = gen_random_grid_space(seed, max_points=12)
        ends = end_space_of(tree_of_tower(gen_random_tower(seed, 2 + seed % 5, 4, 0.5)))
        for space in (rational, perturbed(rational, seed), grid, perturbed(grid, seed), ends):
            tree = simplicialize(space)[0]
            if space.mode == GRID:
                floors = {(x, y): k for x, y, k in space.pairs()}
                assert tree == tree_of_ultrametric(_fresh(space))[0]
            else:
                floors = {(x, y): certified_neg_log_floor(d) for x, y, d in space.pairs()}
            assert tree == tree_of_ultrametric(grid_space(space.points, floors))[0]
            kind = (space.mode, brute_ultrametric_ok(space))
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 40 and len(kinds) == 4


def test_certified_neg_log_floor_values():
    assert certified_neg_log_floor(Fraction(1)) == 0
    assert certified_neg_log_floor(Fraction(3, 10)) == 1
    assert certified_neg_log_floor(Fraction(1, 3)) == 1
    assert certified_neg_log_floor(Fraction(1, 20)) == 2
    # agrees with the float computation away from boundaries
    for num, den in [(1, 2), (7, 9), (2, 113), (5, 161)]:
        d = Fraction(num, den)
        assert certified_neg_log_floor(d) == math.floor(-math.log(num / den))
    for d in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(InvalidParameter):
            certified_neg_log_floor(d)


def test_certified_ln_sign():
    assert certified_ln_sign(Fraction(8), Fraction(2)) == 1
    assert certified_ln_sign(Fraction(7), Fraction(2)) == -1
    assert certified_ln_sign(Fraction(1), Fraction(0)) == 0
    for value in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(InvalidParameter):
            certified_ln_sign(value, Fraction(0))


def test_certified_neg_log_floor_matches_a_60_digit_oracle():
    rng = random.Random("neg-log-floor")
    ds = []
    while len(ds) < 1200:
        q = rng.randint(1, 10 ** rng.randint(1, 40))
        ds.append(Fraction(rng.randint(1, q), q))
    # the convergents of e^-k sit on either side of the band edge e^-k, the
    # later ones closer than 80 bits can tell
    edges = [(k, d) for k in range(1, 13) for d in exp_convergents(k, 10**18)]
    assert len(edges) >= 200
    assert {mp_neg_log_floor(d) - k for k, d in edges} == {-1, 0}
    for d in ds + [d for _, d in edges]:
        assert certified_neg_log_floor(d) == mp_neg_log_floor(d), d


def test_certified_ln_sign_matches_a_60_digit_oracle_on_biholder_thresholds():
    checked = 0
    for k in range(2, 65):
        n, m = float_min_exponent(k), k << (k + 1)
        # the thresholds gen_biholder compares ln(k 2^(k+1)) with: the walk
        # to n on either side of it, and each (C, l) cell of its grid
        cases = [(m, Fraction(n - 1, k)), (m, Fraction(n, k))]
        cases += [(c << (k + 1), l * n) for c in DEFAULT_C_GRID for l in DEFAULT_L_GRID]
        for value, threshold in cases:
            assert certified_ln_sign(Fraction(value), threshold) == mp_ln_sign(value, threshold)
            checked += 1
    assert checked == 63 * 11


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


def _trees_with_ends():
    """Seeded random towers, all-1 solenoids (whose cores keep their
    Windows) and the dendrograms of random grid spaces."""
    for seed in range(120):
        yield tree_of_tower(gen_random_tower(seed, 2 + seed % 6, 1 + seed % 9, 1.0))
    for primes, window, depth in (([1], 6, 4), ([1], 40, 6), ([1, 1], 3, 3), ([1, 1, 1], 17, 5)):
        yield tree_of_tower(windowed_solenoid_tower(primes, window, depth))
    for seed in range(40):
        yield tree_of_ultrametric(gen_random_grid_space(seed, max_points=2 + seed % 30))[0]


def test_end_space_chain_is_the_single_linkage_pass_on_its_rows():
    """end_space_of reads the chain off the core and writes no row; Prim's
    pass over the rows built from it gives the same chain back."""
    windows = 0
    for tree in _trees_with_ends():
        space = end_space_of(tree)
        assert space._rows is None
        prim = _single_linkage(UltrametricSpace._trusted(space.points, space.rows, GRID))
        assert prim == space._linkage
        windows += isinstance(space.points, Window)
    assert windows == 4


def test_rows_view_exponent_and_diameter_match_root_chains():
    """exponent and diameter_exponent read the chain without building rows;
    the rows view, built on first read, agrees with them and the oracle."""
    for tree in _trees_with_ends():
        brute = brute_end_exponents(tree)
        space = end_space_of(tree)
        for (x, y), want in brute.items():
            assert space.exponent(x, y) == space.exponent(y, x) == want
        assert space.exponent(space.points[0], space.points[0]) is None
        assert space.diameter_exponent() == min(brute.values(), default=None)
        assert space._rows is None
        where = {x: i for i, x in enumerate(space.points)}
        for (x, y), want in brute.items():
            assert space.rows[where[x]][where[y]] == space.rows[where[y]][where[x]] == want
        assert all(space.rows[i][i] is None for i in range(len(space.points)))
        assert space.diameter_exponent() == min(brute.values(), default=None)


def test_equality_and_hash_agree_across_chain_rows_and_malformed_spaces():
    """Spaces are equal when their rows are, however each is held: a chain
    read off a tree, rows verified or not, or malformed rows."""
    broken = 0
    for seed in range(80):
        given = gen_random_grid_space(seed, max_points=12)
        tree, _ = tree_of_ultrametric(given)
        of_tree = end_space_of(tree)
        assert of_tree == given and given == of_tree and hash(of_tree) == hash(given)
        cold = _fresh(given)  # rows not yet verified
        assert cold._linkage is None
        assert cold == of_tree and hash(cold) == hash(of_tree)
        viewed = end_space_of(tree)
        assert viewed.rows == given.rows
        assert viewed == of_tree == given and hash(viewed) == hash(of_tree)
        bad = perturbed(given, seed)
        if verify_ultrametric(bad).valid:
            assert (bad == of_tree) == (bad.rows == given.rows)
            continue
        broken += 1
        assert bad != of_tree and of_tree != bad and bad != given
        assert _fresh(bad) == bad and hash(_fresh(bad)) == hash(bad)
    assert broken >= 20


def test_end_space_of_the_wide_4000_ends_builds_no_row():
    """The 4,000 ends of 50 tops (7,998,000 pairs): the chain and its
    verdict take O(n) memory, and the verdict reads no pair."""
    top = [f"b{i}" for i in range(50)]
    ids = [f"e{i}" for i in range(4000)]
    tree = tree_of_tower(Tower([top, ids], [{x: top[i % 50] for i, x in enumerate(ids)}]))
    tracemalloc.start()
    try:
        space = end_space_of(tree)
        verdict = verify_ultrametric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.valid and space._rows is None
    assert peak < 2_000_000, f"peak {peak} bytes"
    assert space.diameter_exponent() == 0
    assert space.exponent("e1", "e51") == 1 and space.exponent("e1", "e2") == 0
    assert space._rows is None


def test_verify_checks_the_chain_of_an_end_space():
    space = end_space_of(tree_of_tower(Tower([["a", "b", "c"]], [])))
    order, link = space._linkage
    assert (order, link) == ([0, 1, 2], [0, 0])
    link.append(0)
    with pytest.raises(ValidationError, match="n - 1 links"):
        verify_ultrametric(space)
    link[:] = [0, -1]
    with pytest.raises(ValidationError, match=">= 0"):
        verify_ultrametric(space)
