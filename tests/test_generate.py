"""Generators: solenoids, the exponent table, the non-retract demo, corpora."""

import hashlib
import sys
from fractions import Fraction

import pytest

from oracles import float_least_violation, float_min_exponent

from towertree import (
    FAILS,
    GroupTower,
    InvalidParameter,
    certified_ln_sign,
    compose_bonding,
    gen_biholder,
    gen_example_nonretract,
    gen_random_grid_space,
    gen_random_group_tower,
    gen_random_rational_space,
    gen_random_tower,
    gen_solenoid,
    is_geodesically_complete,
    limit_threads,
    ml_verdict,
    random_morphism,
    tree_of_tower,
    underlying_tower,
    verify_ultrametric,
)


def test_gen_solenoid_validates_parameters():
    with pytest.raises(InvalidParameter):
        gen_solenoid([], 8, 3)
    with pytest.raises(InvalidParameter):
        gen_solenoid([2], 0, 3)
    with pytest.raises(InvalidParameter):
        gen_solenoid([2], 8, 0)
    with pytest.raises(InvalidParameter):
        gen_solenoid([0], 8, 3)


def test_gen_solenoid_group_matches_set_tower():
    g, tower = gen_solenoid([2, 3], 100, 4)
    assert underlying_tower(g) == tower
    assert ml_verdict(tower).verdict == FAILS


def test_gen_solenoid_hands_its_tower_to_the_group_tower():
    # the group tower keeps the very tower it came with, oracle included,
    # even at depth 1, where no scale factor is observed
    for depth in (1, 2, 5):
        g, tower = gen_solenoid([2], 16, depth)
        assert underlying_tower(g) is tower
        assert [t.entries for t in limit_threads(g)] == [("0",) * depth]
        assert GroupTower(g.levels, g.bonds) == g


def test_gen_solenoid_mixed_primes_eventual_image():
    # product 2*3*5*7*11 = 2310 exceeds the window, so only zero survives
    _, tower = gen_solenoid([2, 3, 5, 7, 11], 1000, 6)
    image = set(compose_bonding(tower, 1, 6).values())
    assert image == {"0"}


def test_biholder_row_two_frozen():
    table = gen_biholder(4)
    row = table.row(2)
    assert row.distance == Fraction(1, 8)
    assert row.n == 6
    assert row.certified
    assert table.row(3).n == 12


def test_biholder_distances_halve():
    table = gen_biholder(10)
    for row in table.rows:
        assert row.distance == Fraction(1, 2 ** (row.k + 1))


def test_biholder_minimal_exponent_matches_float_oracle():
    table = gen_biholder(24)
    for row in table.rows:
        assert row.n == float_min_exponent(row.k)
        assert row.certified
        # minimality: n works, n-1 does not
        m = Fraction(row.k * 2 ** (row.k + 1))
        assert certified_ln_sign(m, Fraction(row.n, row.k)) < 0
        assert certified_ln_sign(m, Fraction(row.n - 1, row.k)) >= 0


def test_biholder_violations_match_float_oracle():
    table = gen_biholder(16)
    for c, l, k in table.violations:
        assert k == float_least_violation(c, l, 16)


def test_biholder_violation_frozen_cells():
    table = gen_biholder(16)
    assert table.violation_at(1, Fraction(1, 2)) == 2
    assert table.violation_at(100, Fraction(9, 10)) == 3


def test_biholder_validates_parameters():
    with pytest.raises(InvalidParameter):
        gen_biholder(1)
    with pytest.raises(InvalidParameter):
        gen_biholder(8, c_grid=(0,))
    with pytest.raises(InvalidParameter):
        gen_biholder(8, l_grid=(Fraction(1),))


def test_nonretract_exact_distances():
    rep = gen_example_nonretract(count=10)
    assert rep.distances == tuple(Fraction(1, 2**i) for i in range(1, 11))
    assert rep.distances[-1] == Fraction(1, 1024)
    assert rep.infimum == 0
    assert not rep.point_in_core
    with pytest.raises(InvalidParameter):
        gen_example_nonretract(count=0)


def test_nonretract_refused_past_the_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    try:
        # 2^2126 < 10^640 <= 2^2127, so 2126 distances print and 2127 do not
        sys.set_int_max_str_digits(640)
        assert str(gen_example_nonretract(2126).distances[-1]) == f"1/{2**2126}"
        with pytest.raises(InvalidParameter, match="at most 2126"):
            gen_example_nonretract(2127)
        # the refusal comes before anything is built
        with pytest.raises(InvalidParameter):
            gen_example_nonretract(10**12)
    finally:
        sys.set_int_max_str_digits(old)
    if old == 4300:
        with pytest.raises(InvalidParameter, match="at most 14284"):
            gen_example_nonretract(14285)


def test_random_tower_refused_past_the_id_budget(monkeypatch):
    import towertree.generate as generate

    for depth, size in ((1025, 1024), (1, (1 << 20) + 1), ((1 << 20) + 1, 1), (10**9, 10**9)):
        with pytest.raises(InvalidParameter, match="at most 1048576 ids"):
            gen_random_tower(0, depth, size)
    monkeypatch.setattr(generate, "MAX_GENERATOR_IDS", 12)
    assert gen_random_tower(0, 3, 4).depth == 3
    assert gen_random_tower(0, 12, 1).depth == 12
    with pytest.raises(InvalidParameter, match="at most 12 ids"):
        gen_random_tower(0, 13, 1)
    with pytest.raises(InvalidParameter):
        gen_random_tower(0, 2, 7)


def test_random_tower_determinism_and_degenerate():
    assert gen_random_tower(5, depth=4, max_level_size=3) == gen_random_tower(
        5, depth=4, max_level_size=3
    )
    one = gen_random_tower(1, depth=1, max_level_size=1)
    assert one.depth == 1
    assert len(one.level(1)) == 1
    with pytest.raises(InvalidParameter):
        gen_random_tower(1, depth=0, max_level_size=1)


def test_random_tower_full_bias_is_complete():
    for seed in range(10):
        t = gen_random_tower(seed, depth=5, max_level_size=4, surjectivity_bias=1.0)
        assert is_geodesically_complete(tree_of_tower(t))


def test_random_morphism_always_coherent():
    for seed in range(30):
        src = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=5)
        tgt = gen_random_tower(seed + 101, depth=2 + (seed + 3) % 7, max_level_size=5)
        m = random_morphism(seed, src, tgt)
        assert m == random_morphism(seed, src, tgt)
        assert all(a <= b for a, b in zip(m.phi, m.phi[1:]))
        assert len(m.witnesses) == m.defined_upto - 1
        assert all(w is not None for w in m.witnesses)
        for n in range(1, m.defined_upto + 1):
            comp = m.component(n)
            assert set(comp) == set(src.level(m.phi_at(n)))
            assert set(comp.values()) <= set(tgt.level(n))


def test_random_group_tower_shapes():
    for seed in range(10):
        g = gen_random_group_tower(seed, depth=4, max_order=16)
        assert g.depth == 4
        for lv in g.levels:
            assert len(lv.elements) <= 16
        # cyclic orders divide upward
        orders = [len(lv.elements) for lv in g.levels]
        for small, big in zip(orders, orders[1:]):
            assert big % small == 0


def test_random_spaces_bounds_and_validity():
    for seed in range(15):
        sp = gen_random_grid_space(seed, max_points=32)
        assert sp == gen_random_grid_space(seed, max_points=32)
        assert 1 <= len(sp.points) <= 32
        assert verify_ultrametric(sp).valid
        rp = gen_random_rational_space(seed, max_points=16)
        assert 1 <= len(rp.points) <= 16
        assert verify_ultrametric(rp).valid
        for x, y, d in rp.pairs():
            assert 0 < d <= 1


def test_random_spaces_are_frozen_data():
    """The seeded spaces feed the benchmark and the corpora, so their draws
    are pinned: any change in the order of random draws changes this digest."""
    digest = hashlib.sha256()
    for seed in range(100):
        for size in ({}, {"max_points": 5}, {"max_points": 40}):
            for sp in (gen_random_grid_space(seed, **size), gen_random_rational_space(seed, **size)):
                digest.update(repr((sp.points, sorted(((x, y), v) for x, y, v in sp.pairs()))).encode())
    assert digest.hexdigest() == "346d998e02a609d6c110ef42690c00a9dc4ea400ddc7336041bd106c9153838a"
