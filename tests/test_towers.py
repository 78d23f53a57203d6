"""Tower construction, bonding composites, ML verdicts, and morphisms."""

import itertools
import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_tower, printed_ids
from oracles import (
    brute_coherence_witnesses,
    brute_composite,
    brute_equivalence_witnesses,
    brute_forever_values,
    brute_image,
    brute_levelization,
    brute_lift,
    brute_ml_chain,
    brute_solenoid,
    brute_stabilization,
    frozen_natural_key,
    root_chain,
)

from towertree import (
    EQUIV_INCONCLUSIVE,
    EQUIVALENT,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    DepthExhausted,
    ElementNotInLevel,
    SolenoidOracle,
    IndexOutOfRange,
    NotML,
    NotProper,
    TableGroup,
    Tower,
    TowerMorphism,
    ValidationError,
    WindowedZ,
    as_tower_morphism,
    compose_bonding,
    compose_morphisms,
    core_iso_construction,
    extract_morphism,
    gen_random_group_tower,
    gen_random_tower,
    gen_solenoid,
    identity_group_morphism,
    identity_morphism,
    induce_tree_map,
    is_extendable,
    is_level_morphism,
    levelize_morphism,
    ml_verdict,
    morphisms_equivalent,
    max_geodesic_subtree,
    natural_key,
    parse_distance_matrix,
    random_morphism,
    retraction_map,
    surjective_core,
    tower_of_tree,
    tree_of_tower,
    windowed_solenoid_tower,
)
from towertree.groups import _thread_positions
from towertree.report import _truncate
from towertree.towers import MAX_GENERATOR_DEPTH, MAX_GENERATOR_IDS, _core_positions, _reach, _sub_tower


def test_natural_key_orders_numeric_suffixes():
    ids = ["p10", "p2", "p1", "q", "p02"]
    assert sorted(ids, key=natural_key) == ["p1", "p2", "p02", "p10", "q"]


def test_natural_key_matches_the_frozen_key():
    """natural_key calls int() only on ids that int() can read; the keys
    are those of the frozen copy that tried int() on every id."""
    edge = [" 3", "+1", "-0", "01", "1_000", "\u0663", "p\u0663", "", "-", "1 2", "\u00a07", " p", "_1", "\u00b2"]
    rng = random.Random("natural-key")
    alphabet = "0123456789+-_ \tpq.\u0663\u00a0\u00b2"
    drawn = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))) for _ in range(3000)]
    for s in edge + drawn + [str(i) for i in range(-50, 1000)]:
        assert natural_key(s) == frozen_natural_key(s), s
    assert int("\u0663") == 3 and natural_key("\u0663")[0] == (0, 3, "")


def test_ids_that_read_the_same_order_the_same_in_any_input_order():
    assert Tower([["1", "01"]], []) == Tower([["01", "1"]], [])
    a = Tower([["r"], ["p02", "p2"]], [{"p2": "r", "p02": "r"}])
    b = Tower([["r"], ["p2", "p02"]], [{"p02": "r", "p2": "r"}])
    assert a == b and a.levels[1] == ("p2", "p02")


def test_bonds_come_out_in_natural_key_order_from_any_dict_order():
    ids = ["p10", "p2", "01", "1", "q", "p02"]
    want = ["1", "01", "p2", "p02", "p10", "q"]
    assert sorted(ids, key=natural_key) == want
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(ids)
        lower = {x: "r" for x in ids}
        rng.shuffle(ids)
        upper = {x: rng.choice(want) for x in ids}
        t = Tower([["r"], list(reversed(ids)), ids], [lower, upper])
        assert list(t.levels[1]) == list(t.levels[2]) == want
        assert list(t.bond(1)) == list(t.bond(2)) == want
        assert t.bond(2) == upper


def test_rejects_degenerate_towers():
    with pytest.raises(ValidationError):
        Tower([], [])
    with pytest.raises(ValidationError):
        Tower([["a"], []], [{}])
    with pytest.raises(ValidationError):
        Tower([["a", "a"]], [])


def test_rejects_bad_bonds():
    with pytest.raises(ValidationError):
        # bond not total on level 2
        Tower([["a"], ["b1", "b2"]], [{"b1": "a"}])
    with pytest.raises(ValidationError):
        # stray key
        Tower([["a"], ["b"]], [{"b": "a", "zz": "a"}])
    with pytest.raises(ValidationError):
        # value outside level 1
        Tower([["a"], ["b"]], [{"b": "nope"}])
    with pytest.raises(ValidationError):
        # bond count must be depth - 1
        Tower([["a"], ["b"]], [])


def test_level_access_bounds(two_branch_tower):
    assert two_branch_tower.depth == 3
    assert two_branch_tower.level(2) == ("b1", "b2")
    with pytest.raises(IndexOutOfRange):
        two_branch_tower.level(0)
    with pytest.raises(IndexOutOfRange):
        two_branch_tower.level(4)
    with pytest.raises(IndexOutOfRange):
        two_branch_tower.bond(3)


def test_compose_bonding_identity_at_same_level(two_branch_tower):
    assert compose_bonding(two_branch_tower, 2, 2) == {"b1": "b1", "b2": "b2"}


def test_compose_bonding_matches_direct_walk(two_branch_tower):
    towers = [two_branch_tower]
    towers += [gen_random_tower(s, depth=2 + s % 6, max_level_size=4) for s in range(12)]
    for t in towers:
        for m in range(1, t.depth + 1):
            for n in range(1, m + 1):
                assert compose_bonding(t, n, m) == brute_composite(t, n, m)


def test_solenoid_window_level_sizes(solenoid_p2):
    # window 1024, halving: floor(1024 / 2^(n-1)) on each side plus zero
    sizes = [len(solenoid_p2.level(n)) for n in range(1, 12)]
    assert sizes == [2049, 1025, 513, 257, 129, 65, 33, 17, 9, 5, 3]


def test_solenoid_composite_multiplies(solenoid_p2):
    c = compose_bonding(solenoid_p2, 1, 3)
    assert c["1"] == "4"
    assert c["-3"] == "-12"
    assert c["0"] == "0"


def test_is_extendable_two_branch(two_branch_tower):
    assert is_extendable(two_branch_tower, 1, "a", 3)
    assert is_extendable(two_branch_tower, 2, "b1", 3)
    assert not is_extendable(two_branch_tower, 2, "b2", 3)


def test_is_extendable_solenoid_uses_divisibility(solenoid_p2):
    # image of level n1 in level 1 is the multiples of 2^(n1-1)
    assert is_extendable(solenoid_p2, 1, "4", 3)
    assert not is_extendable(solenoid_p2, 1, "4", 4)
    assert is_extendable(solenoid_p2, 1, "8", 4)
    # beyond the stored depth the generator answers
    assert is_extendable(solenoid_p2, 1, "0", 40)
    assert not is_extendable(solenoid_p2, 1, "2", 12)


def test_ml_constant_tower_holds():
    rep = ml_verdict(constant_tower(5, size=3))
    assert rep.verdict == HOLDS
    assert rep.witness is None
    assert [(s.level, s.stabilization, s.margin) for s in rep.per_level] == [
        (1, 1, 4),
        (2, 2, 3),
        (3, 3, 2),
        (4, 4, 1),
    ]


def test_ml_two_branch_inconclusive(two_branch_tower):
    # level 2 stabilizes only at the last level: zero margin
    rep = ml_verdict(two_branch_tower)
    assert rep.verdict == INCONCLUSIVE
    assert rep.witness is None
    assert [(s.level, s.stabilization, s.margin) for s in rep.per_level] == [
        (1, 1, 2),
        (2, 3, 0),
    ]


def test_ml_solenoid_fails_with_divisibility_chain(solenoid_p2):
    rep = ml_verdict(solenoid_p2)
    assert rep.verdict == FAILS
    assert rep.witness is not None
    assert rep.witness.level == 1
    assert rep.witness.chain == tuple(
        (n1, 2 ** (n1 - 1), n1 + 1) for n1 in range(2, 12)
    )
    # each chain entry is a live counterexample wherever the window shows it
    for n1, alpha, fails_at in rep.witness.chain:
        assert is_extendable(solenoid_p2, 1, str(alpha), n1)
        assert not is_extendable(solenoid_p2, 1, str(alpha), fails_at)


def test_ml_failure_chain_matches_brute_step_products():
    rng = random.Random(10)
    lists = [[2], [1, 2], [2, 1], [1, 1, 3], [3, 1, 1, 1, 5], [1] * 9 + [2]]
    lists += [[rng.choice([1, 1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 6))] for _ in range(60)]
    checked = 0
    for primes in lists:
        if max(primes) == 1:
            continue
        for depth in (1, 2, 3, 7, 15, 31):
            rep = ml_verdict(windowed_solenoid_tower(primes, 5, depth))
            assert rep.verdict == FAILS
            assert list(rep.witness.chain) == brute_ml_chain(primes, depth)
            checked += len(rep.witness.chain)
    assert checked >= 2000


def test_ml_failure_chain_is_linear_in_depth():
    primes, depth = [1] * 99 + [2], 8000
    tower = windowed_solenoid_tower(primes, 0, depth)
    start = time.perf_counter()
    chain = ml_verdict(tower).witness.chain
    elapsed = time.perf_counter() - start
    assert elapsed < 0.2
    rows = brute_ml_chain(primes, 260)
    assert chain[:259] == tuple(rows) and chain[-1] == (depth, 2**79, depth + 1)


def test_generator_budget_refuses_before_building():
    # two billion ids if it were built; each caller gets the same refusal
    with pytest.raises(ValidationError, match=f"more than {MAX_GENERATOR_IDS} ids"):
        windowed_solenoid_tower([2], 10**9, 3)
    with pytest.raises(ValidationError, match=f"more than {MAX_GENERATOR_IDS} ids"):
        gen_solenoid([2], 10**9, 3)
    with pytest.raises(ValidationError, match=f"more than {MAX_GENERATOR_IDS} ids"):
        _truncate(windowed_solenoid_tower([2], 10**6, 2), 3)


def test_generator_digit_limit_counts_a_trailing_run_of_ones():
    """The last chain entry's alpha is the product of the multipliers of
    levels 1..depth-1 also where depth falls in the run of 1s that ends the
    prime list: the first depth whose product reaches the limit is refused,
    inside the run and past it, with the same message."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    primes = [10] * 640 + [1] * 5
    try:
        sys.set_int_max_str_digits(640)
        chain = ml_verdict(windowed_solenoid_tower(primes, 0, 640)).witness.chain
        assert chain[-1] == (640, 10**639, 641) and len(str(chain[-1][1])) == 640
        for depth in range(641, 649):  # 641..645 inside the run of 1s
            message = "^its ML failure certificate would hold numbers over 640 digits$"
            with pytest.raises(ValidationError, match=message):
                windowed_solenoid_tower(primes, 0, depth)
    finally:
        sys.set_int_max_str_digits(old)
    # with every multiplier 1 no certificate is issued, at any depth
    assert windowed_solenoid_tower([1] * 7, 0, MAX_GENERATOR_DEPTH).depth == MAX_GENERATOR_DEPTH


def _generator_specs(count=240):
    """(primes, window, depth) of seeded generator towers: multipliers of 1
    mixed in, all-ones lists and window 0 included."""
    rng = random.Random(18)
    specs = [([1], 0, 4), ([1, 1, 1], 9, 5), ([2], 0, 6), ([1, 1, 2], 0, 7), ([3, 1, 1], 40, 8)]
    while len(specs) < count:
        primes = [rng.choice((1, 1, 1, 2, 3, 5)) for _ in range(rng.randint(1, 5))]
        specs.append((primes, rng.choice((0, 0, 1, 2, 7, 13, 40, 64)), rng.randint(1, 9)))
    return specs


def test_oracle_reach_core_and_threads_match_brute_lifts():
    """The oracle's reach, capped at depth, is _reach on the stored levels;
    past depth it is the reach in a deeper materialized truncation (the
    window never bounds it); the core and the threads are the values that
    lift forever, read off a deeper truncation alone; and each ML chain row
    is (n1, P(1, n1), reach(1, P(1, n1)) + 1)."""
    ones = zero = beyond = 0
    for primes, window, depth in _generator_specs():
        t = windowed_solenoid_tower(primes, window, depth)
        oracle, k = t.oracle, 1 + depth % 4
        deeper = _reach(windowed_solenoid_tower(primes, window, depth + k))
        for n, (ids, row) in enumerate(zip(t.levels, _reach(t)), start=1):
            reaches = [oracle.reach(n, int(x)) for x in ids]
            assert [min(r, depth) for r in reaches] == row
            assert [min(r, depth + k) for r in reaches] == deeper[n - 1]
            assert [is_extendable(t, n, x, depth + k) for x in ids[:3]] == [
                r == depth + k for r in deeper[n - 1][:3]
            ]
            beyond += sum(depth < r < depth + k for r in deeper[n - 1])
        forever = brute_forever_values(primes, window, depth)
        assert [
            {int(x) for x in ids if oracle.reach(n, int(x)) == math.inf}
            for n, ids in enumerate(t.levels, start=1)
        ] == forever
        kept = _core_positions(t)
        assert [[int(ids[i]) for i in positions] for ids, positions in zip(t.levels, kept)] == [
            sorted(values) for values in forever
        ]
        core = max_geodesic_subtree(tree_of_tower(t))
        assert core.tower.levels == tuple(tuple(map(str, sorted(values))) for values in forever)
        bounds = [len(ids) // 2 for ids in t.levels]
        threads = sorted(
            tuple(z * math.prod(primes[(m - 1) % len(primes)] for m in range(n, depth)) + b
                  for n, b in enumerate(bounds, start=1))
            for z in forever[-1]
        )
        assert _thread_positions(t) == threads
        if all(p == 1 for p in primes):
            ones += 1
            assert ml_verdict(t).witness is None
        else:
            assert list(ml_verdict(t).witness.chain) == [
                (n1, a, oracle.reach(1, a) + 1)
                for n1 in range(2, depth + 1)
                for a in [math.prod(primes[(n - 1) % len(primes)] for n in range(1, n1))]
            ]
        zero += window == 0
    assert ones >= 30 and zero >= 30 and beyond >= 100


def test_public_tower_refuses_an_oracle():
    """Only the package's builders attach an oracle, so it always describes
    the levels."""
    with pytest.raises(TypeError):
        Tower([["a", "b"], ["c"]], [{"c": "a"}], oracle=SolenoidOracle((2,), 1))
    assert Tower([["a", "b"], ["c"]], [{"c": "a"}]).oracle is None


def test_generator_depth_budget():
    # at window 0 every level holds one id, so depth 2^20 passes the id budget
    deep = MAX_GENERATOR_DEPTH + 1
    assert windowed_solenoid_tower([1], 0, MAX_GENERATOR_DEPTH).depth == MAX_GENERATOR_DEPTH
    start = time.perf_counter()
    for build in (
        lambda: windowed_solenoid_tower([1], 0, 2**20),
        lambda: windowed_solenoid_tower([1, 2], 0, deep),
        lambda: gen_solenoid([1], 1, deep),
        lambda: _truncate(windowed_solenoid_tower([1], 0, 2), deep),
    ):
        with pytest.raises(ValidationError, match=f"more than {MAX_GENERATOR_DEPTH} levels"):
            build()
    assert time.perf_counter() - start < 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_ml_stabilization_matches_brute_images(seed):
    rng = random.Random(seed)
    primes = [rng.choice((1, 2, 3)) for _ in range(1 + seed % 3)]
    generated = windowed_solenoid_tower(primes, seed % 13, 2 + seed % 6)
    for t in (gen_random_tower(seed, depth=2 + seed % 6, max_level_size=5), generated):
        rep = ml_verdict(t)
        for s in rep.per_level:
            assert s.stabilization == brute_stabilization(t, s.level)
            assert s.margin == t.depth - s.stabilization
        decided = all(s.margin >= 1 for s in rep.per_level)
        if t.oracle is not None and not all(p == 1 for p in t.oracle.primes):
            assert rep.verdict == FAILS
        else:
            # only an oracle certifies a failure
            assert rep.verdict in (HOLDS, INCONCLUSIVE)
            assert (rep.verdict == HOLDS) == decided


def test_solenoid_levels_match_a_level_by_level_build():
    """Every level lists the ids printed afresh per level, and the tower
    equals, and hashes like, one built from them."""
    cases = 0
    for primes in ([1], [2], [1, 3], [2, 3], [3, 1, 2], [1, 1, 2]):
        for window in (0, 1, 2, 7, 40):
            for depth in (1, 3, 6):
                t = windowed_solenoid_tower(primes, window, depth)
                levels, up = brute_solenoid(primes, window, depth)
                assert t.levels == tuple(levels) and tuple(map(tuple, t.up)) == tuple(up)
                bonds = [
                    dict(zip(src, map(dst.__getitem__, u)))
                    for dst, src, u in zip(levels, levels[1:], up)
                ]
                plain = Tower(levels, bonds)
                assert plain == tower_of_tree(tree_of_tower(t))
                same = Tower._ordered(levels, up, t.oracle)
                assert t == same and hash(t) == hash(same)
                assert t != plain
                cases += 1
    assert cases >= 40


def _eager_levels(oracle, depth):
    """The levels as printed eagerly: level 1's strings once, every level a
    slice of them."""
    bounds = list(oracle.level_bounds(depth))
    widest, top = tuple(map(str, range(-bounds[0], bounds[0] + 1))), bounds[0]
    return tuple(widest[top - b : top + b + 1] for b in bounds)


def test_solenoid_ids_are_printed_on_first_read():
    """A windowed solenoid and its truncations print no id until one is
    read, and then read as the eager slices of level 1's strings.  A
    sub-tower prints the ids at its positions alone; a level it keeps whole
    is the tower's level itself."""
    cases = 0
    for primes in ([1], [2], [2, 3], [3, 1, 2]):
        for window in (0, 7, 300):
            for depth in range(1, 7):
                with printed_ids() as ids:
                    t = windowed_solenoid_tower(primes, window, depth)
                    cuts = [_truncate(t, h) for h in range(1, depth + 1)]
                    kept = _core_positions(t)
                    core = _sub_tower(t, kept)
                pairs = list(zip(core.levels, t.levels, kept))
                assert ids == [x for sub, level, p in pairs if len(p) < len(level) for x in sub]
                assert all(sub is level for sub, level, p in pairs if len(p) == len(level))
                half = [range(0, t.sizes[-1], 2)]
                for u in reversed(t.up):
                    half.append(sorted({u[i] for i in half[-1]}))
                part = _sub_tower(windowed_solenoid_tower(primes, window, depth), half[::-1])
                eager = _eager_levels(t.oracle, depth)
                assert t.levels == eager
                for h, cut in enumerate(cuts, start=1):
                    assert cut.levels == eager[:h] == _eager_levels(t.oracle, h)
                for sub, positions in ((core, kept), (part, half[::-1])):
                    assert sub.levels == tuple(
                        tuple(ids[i] for i in p) for ids, p in zip(eager, positions)
                    )
                cases += 1
    assert cases == 72


def test_levels_and_windows_index_slice_and_compare_as_their_ids():
    """Every level form, a Level of ids or a Window, finds each id at its
    position in O(1), refuses near misses with ValueError as tuple.index
    does, reads items and slices as the eagerly printed ids, and equals and
    hashes like their tuple."""
    solenoids = [windowed_solenoid_tower([2, 3], w, 4) for w in (0, 7, 300)]
    matrix = "10 1 0 p2\n0 e-1 e-2 e-1\ne-1 0 e-1 e-3\ne-2 e-1 0 e-1\ne-1 e-3 e-1 0\n"
    cases = [(Tower([["1", "x", "0"]], []).levels[0], ("0", "1", "x"))]
    cases += [(level, tuple(map(str, range(-b, b + 1)))) for t in solenoids
              for level, b in zip(t.levels, t.oracle.level_bounds(t.depth))]
    cases += [(TableGroup.cyclic(m).elements, tuple(map(str, range(m)))) for m in (1, 2, 12)]
    cases += [(WindowedZ(b).elements, tuple(map(str, range(-b, b + 1)))) for b in (0, 3)]
    cases.append((parse_distance_matrix(matrix).points, ("0", "1", "10", "p2")))
    assert {type(level).__name__ for level, _ in cases} == {"Level", "Window"}
    for level, eager in cases:
        assert [level.index(x) for x in eager] == list(range(len(eager)))
        for stray in ("01", "+1", " 1", "-0", "00", 1, None, "p02"):
            with pytest.raises(ValueError):
                level.index(stray)
        n = len(eager)
        assert len(level) == n and list(level) == list(eager)
        assert [level[i] for i in range(-n, n)] == [eager[i] for i in range(-n, n)]
        for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(n // 2, n + 5, 3)):
            assert level[cut] == eager[cut]
        with pytest.raises(IndexError):
            level[n]
        assert level == eager and eager == level and hash(level) == hash(eager)
        assert level != eager[1:] and level != list(eager)
    for t in solenoids:
        plain, back = Tower(list(map(list, t.levels)), t.bonds), tower_of_tree(tree_of_tower(t))
        assert back == plain and plain == back and hash(back) == hash(plain)


def test_sizes_are_the_level_lengths():
    towers = []
    for t in _random_towers():
        towers += [t, surjective_core(t), max_geodesic_subtree(tree_of_tower(t)).tower]
    for spec in SMALL_SOLENOIDS + [([2], 0, 3), ([1], 0, 2)]:
        t = windowed_solenoid_tower(*spec)
        towers += [t, _truncate(t, 2), max_geodesic_subtree(tree_of_tower(t)).tower]
        if spec[1] >= 1:
            towers.append(gen_solenoid(*spec)[0].tower)
    towers += [gen_random_group_tower(seed, 4).tower for seed in range(20)]
    for t in towers:
        assert t.sizes == tuple(map(len, t.levels)) and t.depth == len(t.sizes)
    assert sum(t.oracle is not None for t in towers) >= 14


def test_is_extendable_on_a_table_pulls_back_only_its_levels(monkeypatch, two_branch_tower):
    """An extensional answer pulls positions back over levels n0..n1 and
    builds no reach table; the refusals keep their messages."""
    monkeypatch.setattr("towertree.towers._reach", lambda tower: pytest.fail("reach table built"))
    t = two_branch_tower
    assert [is_extendable(t, 2, x, 3) for x in t.level(2)] == [True, False]
    assert is_extendable(t, 2, "b2", 2) and is_extendable(t, 1, "a", 3)
    with pytest.raises(ElementNotInLevel, match=re.escape("'b1' is not in level 1")):
        is_extendable(t, 1, "b1", 2)
    with pytest.raises(IndexOutOfRange, match=re.escape("level 4 not in 1..3")):
        is_extendable(t, 4, "a", 4)
    with pytest.raises(IndexOutOfRange, match=re.escape("target level 1 is below 2")):
        is_extendable(t, 2, "b1", 1)
    with pytest.raises(IndexOutOfRange, match=re.escape("level 4 beyond depth 3")):
        is_extendable(t, 2, "b1", 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_images_are_nested_decreasing(seed):
    t = gen_random_tower(seed, depth=2 + seed % 5, max_level_size=5)
    for n in range(1, t.depth + 1):
        prev = None
        for m in range(n, t.depth + 1):
            img = brute_image(t, n, m)
            assert img == frozenset(compose_bonding(t, n, m).values())
            if prev is not None:
                assert img <= prev
            prev = img


def test_surjective_core_two_branch(two_branch_tower):
    core = surjective_core(two_branch_tower)
    assert core.levels == (("a",), ("b1",), ("c1",))
    assert core.bonds == ({"b1": "a"}, {"c1": "b1"})


def test_surjective_core_bonds_all_onto():
    for seed in range(15):
        t = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=5)
        core = surjective_core(t)
        for n in range(1, core.depth):
            assert frozenset(core.bond(n).values()) == frozenset(core.level(n))


def test_morphism_normalizes_phi():
    c3 = constant_tower(3)
    m = TowerMorphism(c3, c3, [2, 1, 3], [{"x0": "x0"}] * 3)
    assert m.phi == (2, 2, 3)


def test_morphism_rejects_incoherent_components():
    src = constant_tower(3)
    tgt = Tower(
        [["e1", "e2"], ["e1", "e2"], ["m"]],
        [{"e1": "e1", "e2": "e2"}, {"m": "e1"}],
    )
    # q_2 sends m to e1, so the level-2 component e2 can never cohere
    with pytest.raises(ValidationError):
        TowerMorphism(src, tgt, [1, 2, 3], [{"x0": "e2"}, {"x0": "e2"}, {"x0": "m"}])


def test_morphism_rejects_malformed_data(two_branch_tower):
    t = two_branch_tower
    for phi, comps, message in (
        ([1], [{"zzz": "a"}], "component 1 is not total on source level 1"),
        ([1, 3], [{"a": "a"}, {}], "component 2 is not total on source level 3"),
        ([1], [{"a": "b1"}], r"component 1 leaves target level 1: \['b1'\]"),
        ([1, 2], [{"a": "a"}, {"b1": "b1", "b2": "zzz"}], "component 2 leaves target level 2"),
        ([0], [{"a": "a"}], r"phi\(1\) = 0 outside 1..3"),
        ([1, 4], [{"a": "a"}, {"c1": "b1"}], r"phi\(2\) = 4 outside 1..3"),
        ([1, 3], [{"a": "a"}], "phi and components must have equal positive length"),
        ([], [], "phi and components must have equal positive length"),
        ([1] * 4, [{"a": "a"}] * 4, "more components than target levels"),
    ):
        with pytest.raises(ValidationError, match=message):
            TowerMorphism(t, t, phi, comps)


def test_morphism_trim_incoherent_truncates():
    src = constant_tower(3)
    tgt = Tower(
        [["e1", "e2"], ["e1", "e2"], ["m"]],
        [{"e1": "e1", "e2": "e2"}, {"m": "e1"}],
    )
    m = TowerMorphism(
        src, tgt, [1, 2, 3],
        [{"x0": "e2"}, {"x0": "e2"}, {"x0": "m"}],
        trim_incoherent=True,
    )
    assert m.defined_upto == 2
    assert m.phi == (1, 2)


def test_identity_is_neutral_for_composition(two_branch_tower):
    t = two_branch_tower
    m = TowerMorphism(t, t, [1, 3], [{"a": "a"}, {"c1": "b1"}])
    left = compose_morphisms(identity_morphism(t), m)
    right = compose_morphisms(m, identity_morphism(t))
    assert morphisms_equivalent(left, m).verdict == EQUIVALENT
    assert morphisms_equivalent(right, m).verdict == EQUIVALENT


def test_composition_raises_when_no_level_survives():
    src = constant_tower(3)
    f = TowerMorphism(src, src, [2], [{"x0": "x0"}])
    g = TowerMorphism(src, src, [2, 3], [{"x0": "x0"}, {"x0": "x0"}])
    # g needs f at level 2, but f is only defined up to level 1
    with pytest.raises(DepthExhausted):
        compose_morphisms(g, f)
    c = compose_morphisms(f, g)
    assert c.defined_upto == 1
    assert c.phi == (3,)


def test_equivalence_three_values():
    src = constant_tower(3)
    tgt = Tower(
        [["e1", "e2"]] * 3,
        [{"e1": "e1", "e2": "e2"}] * 2,
    )
    f = TowerMorphism(src, tgt, [1, 2, 3], [{"x0": "e1"}] * 3)
    g = TowerMorphism(src, tgt, [1, 2, 3], [{"x0": "e2"}] * 3)
    assert morphisms_equivalent(f, g).verdict == NOT_EQUIVALENT
    same = morphisms_equivalent(f, f)
    assert same.verdict == EQUIVALENT
    assert same.witnesses == (1, 2, 3)
    assert bool(same)

    # disagreement only at the last defined level leaves no witness room
    src2 = constant_tower(2)
    tgt2 = Tower([["y"], ["e1", "e2"]], [{"e1": "y", "e2": "y"}])
    f2 = TowerMorphism(src2, tgt2, [1, 2], [{"x0": "y"}, {"x0": "e1"}])
    g2 = TowerMorphism(src2, tgt2, [1, 2], [{"x0": "y"}, {"x0": "e2"}])
    verdict = morphisms_equivalent(f2, g2)
    assert verdict.verdict == EQUIV_INCONCLUSIVE
    assert verdict.failing_levels == (2,)
    assert not bool(verdict)


def test_levelize_produces_equivalent_level_morphism(two_branch_tower):
    t = two_branch_tower
    m = TowerMorphism(t, t, [1, 3], [{"a": "a"}, {"c1": "b1"}])
    assert not is_level_morphism(m)
    lz = levelize_morphism(m)
    assert is_level_morphism(lz.level)
    whole = compose_morphisms(identity_morphism(t), compose_morphisms(lz.level, lz.iso_in))
    assert morphisms_equivalent(whole, m).verdict == EQUIVALENT


def test_tower_equality_includes_generator(solenoid_p2):
    plain = Tower(solenoid_p2.levels, solenoid_p2.bonds)
    assert plain != solenoid_p2
    assert windowed_solenoid_tower([2], 1024, 11) == solenoid_p2


def test_natural_key_reads_only_decimal_runs_as_numbers():
    # "²" is a digit to str.isdigit but not a decimal, so it stays text
    assert natural_key("²") == ((1, 0, "²"), (-1, 1, "²"))
    assert sorted(["x²", "x2", "²"], key=natural_key) == ["x2", "x²", "²"]


def _split_key(s):
    r"""natural_key as one expression: int() of the whole id, else the
    re.split(r"(\d+)", s) runs with empty runs dropped, then the tie-break."""
    try:
        parts = ((0, int(s), ""),)
    except ValueError:
        parts = tuple(
            (0, int(part), "") if part.isdecimal() else (1, 0, part)
            for part in re.split(r"(\d+)", s)
            if part
        )
    return parts + ((-1, len(s), s),)


def test_natural_key_matches_the_split_expression_on_fuzzed_ids():
    rng = random.Random(17)
    pieces = ["", "a", "p", "x_", "-", "+", " ", ".", "²", "٣", "é"]

    def digits():
        run = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 6)))
        return "0" + run if rng.random() < 0.3 else run

    ids = ["", "0", "-0", "+0", "00", "007", " 7", "-007", "10", "01", "1", "a1b", "1a", "a1"]
    for _ in range(2400):
        kind = rng.randrange(4)
        if kind == 0:  # signed integers, leading zeros included
            ids.append(rng.choice(["", "-", "+"]) + digits())
        elif kind == 1:  # digit runs only
            ids.append("".join(digits() for _ in range(rng.randint(1, 3))))
        else:  # text and digit runs; runs at either end leave empty text runs
            ids.append("".join(rng.choice(pieces) if k % 2 else digits() for k in range(rng.randint(1, 6))))
    kinds = {"int": 0, "runs": 0, "empty run": 0}
    for s in ids:
        assert natural_key(s) == _split_key(s), s
        runs = re.split(r"(\d+)", s)
        kinds["int"] += len(natural_key(s)) == 2 and natural_key(s)[0][2] == ""
        kinds["runs"] += len(runs) > 2
        kinds["empty run"] += "" in runs
    assert len(set(ids)) >= 2000 and min(kinds.values()) >= 400, kinds
    assert sorted(ids, key=natural_key) == sorted(ids, key=_split_key)


# ---------------------------------------------------------------------------
# The stored parent positions and the in-order builders

SMALL_SOLENOIDS = [([2], 64, 6), ([3], 100, 4), ([2, 3], 200, 5), ([1], 4, 4), ([3, 1], 50, 6)]


def _random_towers(count=40):
    return [
        gen_random_tower(
            seed, depth=1 + seed % 7, max_level_size=5, surjectivity_bias=(seed % 5) / 4
        )
        for seed in range(count)
    ]


def _assert_matches_sorting_path(t):
    """t's levels and up equal those of the public constructor's tower built
    from reversed input, which is extensional; an oracle t carries describes
    its levels."""
    ref = Tower(
        [level[::-1] for level in t.levels],
        [dict(reversed(bond.items())) for bond in t.bonds],
    )
    assert (t.levels, tuple(map(tuple, t.up))) == (ref.levels, ref.up)
    assert ref.oracle is None and (t == ref) == (t.oracle is None)
    if t.oracle is not None:
        assert t == windowed_solenoid_tower(t.oracle.primes, t.oracle.window, t.depth)
    assert [list(b.items()) for b in t.bonds] == [list(b.items()) for b in ref.bonds]
    assert all(type(x) is str for level in t.levels for x in level)
    assert all(type(i) is int for u in t.up for i in u)


def test_up_holds_the_parent_positions(two_branch_tower):
    assert two_branch_tower.up == ((0, 0), (0,))
    t = windowed_solenoid_tower([2], 4, 3)  # -4..4 <- -2..2 <- -1..1
    assert tuple(map(tuple, t.up)) == ((0, 2, 4, 6, 8), (0, 2, 4))
    for n in range(1, t.depth):
        lower, upper = t.level(n), t.level(n + 1)
        assert t.bond(n) == {upper[i]: lower[j] for i, j in enumerate(t.up[n - 1])}


def test_in_order_builders_match_the_sorting_path():
    for primes in ([2], [3], [2, 3], [1], [5, 1, 2]):
        for window in (0, 1, 9, 100):
            for depth in (1, 3, 6):
                t = windowed_solenoid_tower(primes, window, depth)
                _assert_matches_sorting_path(t)
                _assert_matches_sorting_path(_truncate(t, 2))
                tree = tree_of_tower(t)
                _assert_matches_sorting_path(tower_of_tree(tree))
                _assert_matches_sorting_path(max_geodesic_subtree(tree).tower)
    for seed, t in enumerate(_random_towers()):
        _assert_matches_sorting_path(surjective_core(t))
        _assert_matches_sorting_path(max_geodesic_subtree(tree_of_tower(t)).tower)
        for h in range(1, t.depth + 1):
            _assert_matches_sorting_path(_truncate(t, h))
        lz = levelize_morphism(random_morphism(seed, t, t))
        _assert_matches_sorting_path(lz.source_reindexed)


def _chain_towers():
    return _random_towers() + [windowed_solenoid_tower(*spec) for spec in SMALL_SOLENOIDS]


def _tuple_rows(t):
    """t rebuilt with every parent row a tuple."""
    return Tower._ordered(t.levels, [tuple(u) for u in t.up], t.oracle)


def test_generator_rows_stay_ranges():
    """A solenoid's rows are ranges, and so are those of its truncations, of
    a deeper rebuild and of the oracle-free tower of its tree."""
    for spec in SMALL_SOLENOIDS:
        t = windowed_solenoid_tower(*spec)
        depth = spec[2]
        for u in (t, _truncate(t, depth - 1), _truncate(t, depth + 2), tower_of_tree(tree_of_tower(t))):
            assert u.up and all(type(row) is range for row in u.up)


def test_image_chains_match_brute_dict_walk():
    """A solenoid rebuilt with tuple rows takes the per-id paths; it equals,
    hashes like and agrees with the tower of range rows."""
    flat = [_tuple_rows(windowed_solenoid_tower(*spec)) for spec in SMALL_SOLENOIDS]
    for t in _chain_towers() + flat:
        rows = [(r.level, r.stabilization, r.margin) for r in ml_verdict(t).per_level]
        brute = [brute_stabilization(t, n) for n in range(1, t.depth)]
        assert rows == [(n, s, t.depth - s) for n, s in enumerate(brute, start=1)]
        for n1 in range(1, t.depth + 1):
            for n0 in range(1, n1 + 1):
                image = brute_image(t, n0, n1)
                for alpha in t.level(n0):
                    assert is_extendable(t, n0, alpha, n1) == (alpha in image)
    for spec, tuples in zip(SMALL_SOLENOIDS, flat):
        t = windowed_solenoid_tower(*spec)
        assert all(type(u) is tuple for u in tuples.up)
        assert tuples == t and hash(tuples) == hash(t)
        assert ml_verdict(tuples) == ml_verdict(t) and _reach(tuples) == _reach(t)
        assert list(map(list, _core_positions(tuples))) == list(map(list, _core_positions(t)))
        retracted = [retraction_map(tree_of_tower(u)).properness for u in (tuples, t)]
        assert retracted[0] == retracted[1]


def _morphism_pairs():
    """(f, g) with a shared source and target: seeded random pairs, and on
    each small solenoid its identity against the shift n -> n + 1."""
    for seed, x in enumerate(_random_towers()):
        y = gen_random_tower(seed + 500, depth=1 + seed % 5, max_level_size=4)
        yield random_morphism(seed, x, y), random_morphism(seed + 1, x, y)
    for spec in SMALL_SOLENOIDS:
        t = windowed_solenoid_tower(*spec)
        shift = TowerMorphism(
            t, t, list(range(2, t.depth + 1)), [t.bond(n) for n in range(1, t.depth)]
        )
        yield identity_morphism(t), shift
        yield shift, random_morphism(7, t, t)


def test_morphism_witnesses_match_brute_dict_walk():
    decided = 0
    for f, g in _morphism_pairs():
        for m in (f, g):
            assert m.witnesses == brute_coherence_witnesses(m)
            lz = levelize_morphism(m)
            indices, bonds, comps = brute_levelization(m)
            assert lz.iso_in.phi == tuple(indices)
            assert lz.source_reindexed.levels == tuple(m.source.level(n) for n in indices)
            assert lz.source_reindexed.bonds == tuple(bonds)
            assert lz.level.components == tuple(comps)
        verdict = morphisms_equivalent(f, g)
        brute = brute_equivalence_witnesses(f, g)
        if verdict.verdict == EQUIVALENT:
            assert verdict.witnesses == brute
            decided += 1
        else:
            assert verdict.failing_levels == tuple(
                n for n, w in enumerate(brute, start=1) if w is None
            )
    assert decided >= 5


def test_phi_normalization_matches_brute_lift():
    for seed, t in enumerate(_random_towers()):
        rng = random.Random(seed)
        # component n is p_{n, phi(n)}, coherent for any phi(n) >= n
        phi = [rng.randint(n, t.depth) for n in range(1, t.depth + 1)]
        comps = [brute_composite(t, n, p) for n, p in enumerate(phi, start=1)]
        f = TowerMorphism(t, t, phi, comps)
        q = 1
        for n, p in enumerate(phi, start=1):
            q = max(q, p)
            assert f.phi_at(n) == q
            assert f.component(n) == brute_lift(t, comps[n - 1], p, q)
            assert list(f.component(n)) == list(t.level(q))


def _fields(m):
    """phi, components with their key order, and coherence witnesses."""
    return m.phi, [list(c.items()) for c in m.components], m.witnesses


def _rows(target, comps):
    """Component dicts, keys in source level order, as rows of target positions."""
    return [[target.level(n).index(v) for v in c.values()] for n, c in enumerate(comps, start=1)]


def _group_morphisms(seed):
    """(label, morphism, brute component dicts) for the tower morphisms a
    group tower derives: the identity and, where ML holds, the core
    inclusion and the core iso's inverse, whose components are composed
    bonds."""
    g = gen_random_group_tower(seed, depth=2 + seed % 4)
    ident = as_tower_morphism(identity_group_morphism(g))
    yield "as_tower_morphism", ident, [{a: a for a in ids} for ids in ident.source.levels]
    try:
        ci = core_iso_construction(g)
    except NotML:
        return
    inc = as_tower_morphism(ci.inclusion)
    yield "as_tower_morphism", inc, [{a: a for a in ids} for ids in inc.source.levels]
    t = ci.inverse.source
    yield "core_iso_inverse", ci.inverse, [
        brute_composite(t, n, m) for n, m in enumerate(ci.inverse.phi, start=1)
    ]


def test_trusted_morphisms_match_the_validating_constructor():
    """Every morphism built on the trusted path equals what the validating
    constructor builds from the same data, trimming included."""
    kinds = ("direct", "identity", "composite", "trimmed", "extracted", "levelized", "group")
    cases = dict.fromkeys(kinds, 0)
    for seed in range(120):
        x = gen_random_tower(seed, depth=2 + seed % 7, max_level_size=1 + seed % 5)
        y = gen_random_tower(seed + 40, depth=2 + (seed + 2) % 7, max_level_size=1 + seed % 5)
        z = gen_random_tower(seed + 80, depth=2 + (seed + 4) % 7, max_level_size=4)
        f, h = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
        # a validated morphism's data is normalized already
        trusted = TowerMorphism._trusted(x, y, list(f.phi), _rows(y, f.components))
        assert _fields(trusted) == _fields(f)
        cases["direct"] += 1
        ident = identity_morphism(x)
        assert _fields(ident) == _fields(TowerMorphism(x, x, list(ident.phi), ident.components))
        cases["identity"] += 1
        # the composite's raw data: (h . f)_n = h_n . f_{Psi(n)} while Psi(n) is defined
        psi = list(itertools.takewhile(lambda p: p <= f.defined_upto, h.phi))
        raw_phi = [f.phi[p - 1] for p in psi]
        raw = [
            {a: h.components[n][f.components[p - 1][a]] for a in x.level(f.phi[p - 1])}
            for n, p in enumerate(psi)
        ]
        try:
            comp = compose_morphisms(h, f)
        except DepthExhausted:
            assert not raw
        else:
            public = TowerMorphism(x, z, raw_phi, raw, trim_incoherent=True)
            assert _fields(comp) == _fields(public)
            cases["composite"] += 1
        # arbitrary total components over a nondecreasing phi: mostly incoherent
        rng = random.Random(seed)
        phi = sorted(rng.randint(1, x.depth) for _ in range(y.depth))
        comps = [{a: rng.choice(y.level(n)) for a in x.level(p)} for n, p in enumerate(phi, 1)]
        rows = _rows(y, comps)
        public = TowerMorphism(x, y, phi, comps, trim_incoherent=True)
        assert _fields(TowerMorphism._trusted(x, y, phi, rows, True)) == _fields(public)
        cases["trimmed"] += public.defined_upto < len(phi)
        try:
            TowerMorphism(x, y, phi, comps)
        except ValidationError as e:
            with pytest.raises(ValidationError, match=re.escape(str(e))):
                TowerMorphism._trusted(x, y, phi, rows)
        else:
            assert _fields(TowerMorphism._trusted(x, y, phi, rows)) == _fields(public)
        # levelization's level morphism and iso_in, from composed bond dicts
        lz = levelize_morphism(f)
        indices, _, level_comps = brute_levelization(f)
        reindexed = lz.source_reindexed
        k = len(indices)
        assert _fields(lz.level) == _fields(TowerMorphism(reindexed, y, range(1, k + 1), level_comps))
        iso_comps = [{a: a for a in x.level(n)} for n in indices]
        assert _fields(lz.iso_in) == _fields(TowerMorphism(x, reindexed, indices, iso_comps))
        cases["levelized"] += 1
        for _, m, brute in _group_morphisms(seed):
            assert _fields(m) == _fields(TowerMorphism(m.source, m.target, list(m.phi), brute))
            cases["group"] += 1
        try:
            ext = extract_morphism(induce_tree_map(f))
        except NotProper:
            continue
        assert _fields(ext) == _fields(
            TowerMorphism(ext.source, ext.target, list(ext.phi), ext.components)
        )
        cases["extracted"] += 1
    assert sum(cases.values()) >= 700 and min(cases.values()) >= 50, cases


def _extracted_components(tree_map, m):
    """extract_morphism's components read off the vertex images: f_n(c) is
    the level-n vertex on the root chain of f(c), c at level m(n)."""
    source = tree_map.source.tower
    return [
        {c: root_chain(tree_map.target, tree_map.vertex_images[(mn, c)].base)[n][1] for c in source.level(mn)}
        for n, mn in enumerate(m.phi, start=1)
    ]


def _morphisms_with_brute_components(seed):
    """(label, morphism, brute component dicts) over every way the package
    builds a tower morphism; the dicts come from the inputs through bond
    dict walks, never from the morphism's rows."""
    x = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=1 + seed % 5)
    y = gen_random_tower(seed + 300, depth=2 + (seed + 3) % 6, max_level_size=1 + seed % 4)
    z = gen_random_tower(seed + 600, depth=2 + (seed + 1) % 6, max_level_size=4)
    rng = random.Random(seed)
    # validated, with phi normalized: component n is p_{n, phi(n)} of x onto itself
    phi = [rng.randint(n, x.depth) for n in range(1, x.depth + 1)]
    comps = [brute_composite(x, n, p) for n, p in enumerate(phi, start=1)]
    f = TowerMorphism(x, x, phi, comps)
    yield "validated", f, [brute_lift(x, c, p, q) for c, p, q in zip(comps, phi, f.phi)]
    # arbitrary components, trimmed at the first incoherent pair
    phi = [rng.randint(1, x.depth) for _ in range(y.depth)]
    comps = [{a: rng.choice(y.level(n)) for a in x.level(p)} for n, p in enumerate(phi, 1)]
    t = TowerMorphism(x, y, phi, comps, trim_incoherent=True)
    label = "trimmed" if t.defined_upto < len(phi) else "validated"
    yield label, t, [brute_lift(x, c, p, q) for c, p, q in zip(comps, phi, t.phi)]
    yield "identity", identity_morphism(y), [{a: a for a in ids} for ids in y.levels]
    g, h = random_morphism(seed, x, y), random_morphism(seed + 1, y, z)
    try:
        hg = compose_morphisms(h, g)
    except DepthExhausted:
        pass
    else:
        gc, hc = g.components, h.components
        yield "composed", hg, [
            {a: hc[n][gc[p - 1][a]] for a in x.level(g.phi[p - 1])}
            for n, p in zip(range(hg.defined_upto), h.phi)
        ]
    lz = levelize_morphism(g)
    indices, _, level_comps = brute_levelization(g)
    yield "levelized", lz.level, level_comps
    yield "levelized", lz.iso_in, [{a: a for a in x.level(n)} for n in indices]
    tree_map = induce_tree_map(g)
    try:
        ext = extract_morphism(tree_map)
    except NotProper:
        pass
    else:
        yield "extracted", ext, _extracted_components(tree_map, ext)
    yield from _group_morphisms(seed)


def test_lazy_components_match_brute_dicts():
    """The id dicts built on first use from a morphism's rows equal the
    dicts walked from its inputs, key order included."""
    kinds = ("validated", "trimmed", "identity", "composed", "levelized", "extracted")
    cases = dict.fromkeys(kinds + ("as_tower_morphism", "core_iso_inverse"), 0)
    for seed in range(90):
        for label, m, brute in _morphisms_with_brute_components(seed):
            assert [list(c.items()) for c in m.components] == [list(c.items()) for c in brute]
            assert [m.component(n) for n in range(1, m.defined_upto + 1)] == brute
            cases[label] += 1
    assert cases["trimmed"] >= 30 and cases["core_iso_inverse"] >= 30, cases
    assert sum(cases.values()) >= 500 and min(cases.values()) >= 30, cases


def _brute_is_level(m):
    """Phi = id and f_n . p_n == q_n . f_{n+1} on every element, from bond
    and component dicts."""
    if list(m.phi) != list(range(1, m.defined_upto + 1)):
        return False
    return all(
        m.component(n)[m.source.bond(n)[a]] == m.target.bond(n)[m.component(n + 1)[a]]
        for n in range(1, m.defined_upto)
        for a in m.source.level(n + 1)
    )


def test_is_level_morphism_matches_brute_squares():
    verdicts = {True: 0, False: 0}
    for seed in range(90):
        candidates = [m for _, m, _ in _morphisms_with_brute_components(seed)]
        # a level morphism with one component value moved: mostly not level
        level = levelize_morphism(candidates[-1] if seed % 2 else candidates[0]).level
        rng = random.Random(seed)
        comps = [dict(c) for c in level.components]
        n = rng.randrange(len(comps))
        a = rng.choice(list(comps[n]))
        comps[n][a] = rng.choice(level.target.level(n + 1))
        candidates.append(TowerMorphism(level.source, level.target, level.phi, comps, True))
        for m in candidates:
            got = is_level_morphism(m)
            assert got == _brute_is_level(m)
            verdicts[got] += 1
    assert sum(verdicts.values()) >= 300 and min(verdicts.values()) >= 100, verdicts


def test_morphism_calculus_leaves_bond_dicts_unbuilt():
    """Coherence search, composition, equivalence, induce and extract work
    on parent positions and rows; no tower builds its id -> id bonds."""
    for seed in range(40):
        x0 = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=4)
        y0 = gen_random_tower(seed + 300, depth=2 + (seed + 3) % 6, max_level_size=4)
        f0, g0 = random_morphism(seed, x0, y0), random_morphism(seed + 1, x0, y0)
        x, y = Tower._ordered(x0.levels, x0.up), Tower._ordered(y0.levels, y0.up)
        f = TowerMorphism(x, y, list(f0.phi), f0.components)
        g = TowerMorphism._trusted(x, y, f0.phi, f0.rows)
        h = compose_morphisms(identity_morphism(y), g)
        morphisms_equivalent(f, h)
        morphisms_equivalent(f, TowerMorphism(x, y, list(g0.phi), g0.components, True))
        levelize_morphism(f)
        is_level_morphism(f)
        try:
            extract_morphism(induce_tree_map(f))
        except NotProper:
            pass
        assert x._bonds is None and y._bonds is None
