"""Generators: solenoids, the exponent table, the non-retract demo, corpora."""

import hashlib
import sys
from fractions import Fraction

import pytest

from oracles import brute_geodesically_complete, float_least_violation, float_min_exponent

from towertree import (
    FAILS,
    GroupTower,
    InvalidParameter,
    Tower,
    TowerMorphism,
    certified_ln_sign,
    compose_bonding,
    gen_biholder,
    gen_example_nonretract,
    gen_random_grid_space,
    gen_random_group_tower,
    gen_random_rational_space,
    gen_random_tower,
    gen_solenoid,
    limit_threads,
    ml_verdict,
    random_morphism,
    tree_of_tower,
    verify_ultrametric,
)
from towertree.generate import MAX_TABLE_ROWS


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
    assert g.tower == tower
    assert ml_verdict(tower).verdict == FAILS


def test_gen_solenoid_hands_its_tower_to_the_group_tower():
    # the group tower keeps the very tower it came with, oracle included,
    # even at depth 1, where no scale factor is observed
    for depth in (1, 2, 5):
        g, tower = gen_solenoid([2], 16, depth)
        assert g.tower is tower
        assert [t.entries for t in limit_threads(g)] == [("0",) * depth]
        assert GroupTower(g.levels, g.bonds) == g


def test_gen_solenoid_mixed_primes_eventual_image():
    # product 2*3*5*7*11 = 2310 exceeds the window, so only zero survives
    _, tower = gen_solenoid([2, 3, 5, 7, 11], 1000, 6)
    image = set(compose_bonding(tower, 1, 6).values())
    assert image == {"0"}


def test_biholder_row_two_frozen():
    by_k = {r.k: r for r in gen_biholder(4).rows}
    row = by_k[2]
    assert row.distance == Fraction(1, 8)
    assert row.n == 6
    assert row.certified
    assert by_k[3].n == 12


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
    cells = {(c, l): k for c, l, k in gen_biholder(16).violations}
    assert cells[1, Fraction(1, 2)] == 2
    assert cells[100, Fraction(9, 10)] == 3


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
    if old == 4300:  # 14,285 is past the digit limit, but the output budget is lower
        with pytest.raises(InvalidParameter, match="^count must be at most 4096, the output budget$"):
            gen_example_nonretract(14285)


def test_biholder_refused_past_the_digit_limit():
    """k_max stops where the last distance 1/2^(k_max + 1) still prints;
    the boundary is read off the limit, and no table near it is built."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    try:
        for digits in (640, old):
            sys.set_int_max_str_digits(digits)
            most = (10**digits).bit_length() - 2
            str(Fraction(1, 1 << (most + 1)))  # the last distance at the boundary prints
            with pytest.raises(ValueError):
                str(Fraction(1, 1 << (most + 2)))
            allowed = min(most, MAX_TABLE_ROWS)  # the message names the lower bound
            with pytest.raises(InvalidParameter, match=f"k_max must be at most {allowed},"):
                gen_biholder(most + 1)
        # the refusal comes before anything is built
        with pytest.raises(InvalidParameter):
            gen_biholder(10**12)
    finally:
        sys.set_int_max_str_digits(old)
    if old == 4300:  # 14,284 is past the digit limit, but the output budget is lower
        with pytest.raises(InvalidParameter, match="^k_max must be at most 4096, the output budget$"):
            gen_biholder(14284)


def test_tables_stop_at_the_output_budget():
    """count and k_max stop at MAX_TABLE_ROWS: the largest of each is
    built, and the next is refused before any row is."""
    assert MAX_TABLE_ROWS == 4096
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 1234:  # 2^4097 has 1,234 digits
        pytest.skip("the int/str digit limit binds first")
    rep = gen_example_nonretract(4096)
    assert len(rep.distances) == 4096 and rep.distances[-1] == Fraction(1, 2**4096)
    table = gen_biholder(4096)
    assert [r.k for r in table.rows] == list(range(2, 4097))
    assert all(r.certified for r in table.rows)
    for make, name in ((gen_example_nonretract, "count"), (gen_biholder, "k_max")):
        with pytest.raises(InvalidParameter, match=f"^{name} must be at most 4096, the output budget$"):
            make(4097)


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
        assert brute_geodesically_complete(tree_of_tower(t))


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


RANDOM_TOWER_SHAPES = ((1, 1, 0.7), (4, 3, 0.7), (6, 5, 0.0), (6, 5, 0.5), (6, 5, 1.0), (9, 8, 0.3))


def test_random_towers_and_morphisms_are_frozen_data():
    """The seeded towers and morphisms feed the benchmark and the roundtrip
    corpus, so their draws are pinned like the spaces' draws."""
    towers, morphisms = hashlib.sha256(), hashlib.sha256()
    for seed in range(100):
        for depth, size, bias in RANDOM_TOWER_SHAPES:
            x = gen_random_tower(seed, depth, size, bias)
            towers.update(repr(([list(v) for v in x.levels], [list(u) for u in x.up])).encode())
            y = gen_random_tower(seed + 10_000, 2 + seed % 7, 1 + seed % 5, bias)
            for m in (random_morphism(seed, x, y), random_morphism(seed, y, x)):
                morphisms.update(repr((m.phi, m.rows, m.witnesses)).encode())
    assert towers.hexdigest() == "7345a5cd5c4b9d2d6f546f84571f21316bccb0cfab5121f0804e03a05164c08f"
    assert morphisms.hexdigest() == "d371189bf234afdd4a5fc3217b2ed81cbb8dfdeceee098502279b37d65f224e9"


def test_random_group_towers_are_frozen_data():
    digest = hashlib.sha256()
    for seed in range(100):
        for depth, order in ((1, 1), (3, 2), (4, 16), (5, 16), (6, 64)):
            g = gen_random_group_tower(seed, depth, order)
            orders = [len(v.elements) for v in g.levels]
            bonds = [sorted(b.mapping.items()) for b in g.bonds]
            digest.update(repr((orders, bonds, [list(u) for u in g.tower.up])).encode())
    assert digest.hexdigest() == "8cd2537d58a68471d0f3255edec2f0c86fca7a364a57b97bd6e67751abc7a712"


def test_seeded_generators_agree_with_the_validating_constructors():
    """Each generator builds its rows itself; rebuilding its output from the
    public form through the validating constructor gives the same data."""
    for seed in range(500):
        depth, size, bias = 1 + seed % 8, 1 + seed % 6, (seed % 11) / 10.0
        x = gen_random_tower(seed, depth, size, bias)
        y = gen_random_tower(seed + 10_000, 1 + (seed + 3) % 8, size, bias)
        for t in (x, y):
            again = Tower(t.levels, t.bonds)
            assert again == t and again.up == t.up
        m = random_morphism(seed, x, y)
        again = TowerMorphism(x, y, m.phi, m.components)
        assert (again.phi, again.rows, again.witnesses) == (m.phi, m.rows, m.witnesses)
        g = gen_random_group_tower(seed, 1 + seed % 6, (4, 16, 64)[seed % 3])
        again = GroupTower(list(g.levels), list(g.bonds))
        assert again == g and again.tower == g.tower and again.tower.up == g.tower.up
