"""Group towers, threads, the end isometry, conditions (M)/(E), core iso."""

import itertools
import json
import random

import pytest

from oracles import brute_bond_rejection, brute_isometry, brute_table_rejection, brute_ultrametric_ok
from oracles import brute_condition_E, brute_condition_M, brute_prefix, brute_projection
from oracles import brute_thread_inverse, brute_thread_product
from oracles import cyclic_spec, spec_core_iso, spec_isometry, spec_threads, table_spec, window_spec

from towertree import (
    EQUIVALENT,
    FAILS,
    HOLDS,
    DifferentTowers,
    ElementNotInLevel,
    compose_morphisms,
    grid_space,
    identity_morphism,
    GroupLevelMorphism,
    GroupTower,
    NotLevelMorphism,
    NotML,
    ScaleHom,
    TableGroup,
    TableHom,
    UnsupportedMode,
    ValidationError,
    WindowOverflow,
    WindowedZ,
    as_tower_morphism,
    check_condition_E,
    check_condition_M,
    check_translation_isometry,
    core_iso_construction,
    gen_random_group_tower,
    gen_solenoid,
    identity_group_morphism,
    limit_threads,
    ml_projection_check,
    ml_verdict,
    morphisms_equivalent,
    natural_key,
    parse_group_tower,
    thread_distance,
    windowed_solenoid_tower,
)
from towertree import Tower, TowerMorphism
from towertree.groups import _cyclic_order


def reduction_hom(src_order, dst_order):
    return TableHom({str(i): str(i % dst_order) for i in range(src_order)})


def z8_tower():
    return GroupTower(
        [TableGroup.cyclic(2), TableGroup.cyclic(4), TableGroup.cyclic(8)],
        [reduction_hom(4, 2), reduction_hom(8, 4)],
    )


def test_cyclic_group_ops():
    g = TableGroup.cyclic(4)
    assert g.op("1", "3") == "0"
    assert g.inv("3") == "1"
    assert g.unit == "0"
    assert len(g.elements) == 4


def test_nonassociative_table_rejected():
    # rock-paper-scissors: the winner wins, ties stand
    beats = {("r", "s"): "r", ("s", "r"): "r", ("s", "p"): "s",
             ("p", "s"): "s", ("p", "r"): "p", ("r", "p"): "p",
             ("r", "r"): "r", ("p", "p"): "p", ("s", "s"): "s"}
    with pytest.raises(ValidationError):
        TableGroup(["r", "p", "s"], beats)


def test_windowed_z_ops():
    w = WindowedZ(4)
    assert w.op("2", "-3") == "-1"
    assert w.inv("-3") == "3"
    assert w.unit == "0"
    assert len(w.elements) == 9
    with pytest.raises(WindowOverflow):
        w.op("3", "3")
    # ids that int() reads but the window does not list, and ids int() refuses
    for stray in ("01", "+1", " 1", "-0", "5", "a", 1, None):
        with pytest.raises(ElementNotInLevel):
            w.op(stray, "0")
        with pytest.raises(ElementNotInLevel):
            w.op("0", stray)
        with pytest.raises(ElementNotInLevel):
            w.inv(stray)


def test_scale_hom_window_bound_enforced():
    ok = GroupTower([WindowedZ(1024), WindowedZ(512)], [ScaleHom(2)])
    assert ok.depth == 2
    with pytest.raises(ValidationError):
        GroupTower([WindowedZ(1024), WindowedZ(1024)], [ScaleHom(2)])


def test_table_hom_must_be_homomorphism():
    with pytest.raises(ValidationError):
        GroupTower(
            [TableGroup.cyclic(2), TableGroup.cyclic(4)],
            [TableHom({str(i): str((i + 1) % 2) for i in range(4)})],
        )


def test_z8_threads_frozen():
    threads = limit_threads(z8_tower())
    entries = {t.entries for t in threads}
    assert entries == {(str(g % 2), str(g % 4), str(g)) for g in range(8)}


def test_thread_distances():
    g = z8_tower()
    by_top = {t.entries[2]: t for t in limit_threads(g)}
    assert thread_distance(by_top["0"], by_top["2"]) == 1
    assert thread_distance(by_top["1"], by_top["5"]) == 2
    assert thread_distance(by_top["1"], by_top["1"]) is None
    assert thread_distance(by_top["0"], by_top["1"]) == 0


def test_thread_distance_matches_brute_prefix_scan():
    towers = [gen_random_group_tower(seed, depth=2 + seed % 4) for seed in range(40)]
    towers += [z8_tower(), gen_solenoid([2, 3], 12, 3)[0]]
    for g in towers:
        threads = limit_threads(g)
        for a in threads:
            for b in threads:
                assert thread_distance(a, b) == brute_prefix(a.entries, b.entries)


def test_thread_distance_rejects_different_towers():
    a = limit_threads(z8_tower())[0]
    b = limit_threads(gen_solenoid([2], 16, 3)[0])[0]
    with pytest.raises(DifferentTowers):
        thread_distance(a, b)


def test_translation_isometry_z8_exhaustive():
    verdict = check_translation_isometry(z8_tower())
    assert verdict.valid
    assert verdict.checked == 512


def test_thread_ultrametric_strong_triangle():
    threads = limit_threads(z8_tower())
    for a in threads:
        for b in threads:
            for c in threads:
                big = 10**9
                dab = thread_distance(a, b)
                dac = thread_distance(a, c)
                dcb = thread_distance(c, b)
                vals = [v if v is not None else big for v in (dab, dac, dcb)]
                assert vals[0] >= min(vals[1], vals[2])


def test_solenoid_group_zero_thread():
    g, tower = gen_solenoid([2], 1024, 11)
    threads = limit_threads(g)
    assert len(threads) == 1
    assert threads[0].entries == ("0",) * 11
    assert ml_verdict(tower).verdict == FAILS


def test_identity_bonds_all_threads_survive():
    g, tower = gen_solenoid([1], 8, 3)
    assert len(limit_threads(g)) == 17
    assert ml_verdict(tower).verdict == HOLDS


def test_underlying_tower_recovers_generator():
    g, tower = gen_solenoid([2], 1024, 11)
    assert g.tower == tower
    assert g.tower == windowed_solenoid_tower([2], 1024, 11)
    # a nonstandard window must not get the oracle attached
    odd = GroupTower([WindowedZ(1000), WindowedZ(499)], [ScaleHom(2)])
    assert odd.tower.oracle is None


def test_condition_m_reduction_violation():
    # constant Z/4 tower onto constant Z/2 tower: kernels never shrink
    z4 = GroupTower(
        [TableGroup.cyclic(4)] * 3,
        [reduction_hom(4, 4)] * 2,
    )
    z2 = GroupTower(
        [TableGroup.cyclic(2)] * 3,
        [reduction_hom(2, 2)] * 2,
    )
    red = GroupLevelMorphism(z4, z2, [reduction_hom(4, 2)] * 3)
    m_rep = check_condition_M(red)
    assert m_rep.violation == 1
    e_rep = check_condition_E(red)
    assert e_rep.violation is None
    assert e_rep.witnesses == ((1, 1), (2, 2), (3, 3))


def test_condition_e_zero_inclusion_violation():
    zero = GroupTower([WindowedZ(0)] * 3, [ScaleHom(1)] * 2)
    z2 = GroupTower([TableGroup.cyclic(2)] * 3, [reduction_hom(2, 2)] * 2)
    inc = GroupLevelMorphism(zero, z2, [TableHom({"0": "0"})] * 3)
    e_rep = check_condition_E(inc)
    assert e_rep.violation == 1
    m_rep = check_condition_M(inc)
    assert m_rep.violation is None
    assert m_rep.witnesses == ((1, 1), (2, 2), (3, 3))


def test_condition_m_zero_into_solenoid():
    sol, _ = gen_solenoid([2], 64, 3)
    zero = GroupTower(
        [WindowedZ(0)] * 3,
        [ScaleHom(2)] * 2,
    )
    inc = GroupLevelMorphism(zero, sol, [ScaleHom(1)] * 3)
    m_rep = check_condition_M(inc)
    assert m_rep.witnesses == ((1, 1), (2, 2), (3, 3))
    assert check_condition_E(inc).violation == 1


def test_identity_morphism_is_iso():
    ident = identity_group_morphism(z8_tower())
    for check in (check_condition_M, check_condition_E):
        verdict = check(ident)
        assert verdict.holds
        assert verdict.witnesses == ((1, 1), (2, 2), (3, 3))


def test_level_morphism_rejects_nonsquare():
    z4 = GroupTower([TableGroup.cyclic(4)] * 2, [reduction_hom(4, 4)])
    z2 = GroupTower([TableGroup.cyclic(2)] * 2, [reduction_hom(2, 2)])
    zero_map = TableHom({str(i): "0" for i in range(4)})
    # both components are homomorphisms but the square does not commute
    with pytest.raises(NotLevelMorphism):
        GroupLevelMorphism(z4, z2, [reduction_hom(4, 2), zero_map])


def drop_tower():
    """All levels Z/2; the first bond is the zero map, the rest identities."""
    zero_map = TableHom({"0": "0", "1": "0"})
    ident = TableHom({"0": "0", "1": "1"})
    return GroupTower([TableGroup.cyclic(2)] * 3, [zero_map, ident])


def test_ml_projection_surjective_tower():
    assert ml_projection_check(z8_tower()) == ((1, 1), (2, 2), (3, 3))


def test_ml_projection_drop_tower():
    g = drop_tower()
    assert ml_verdict(g.tower).verdict == HOLDS
    assert ml_projection_check(g) == ((1, 2), (2, 2), (3, 3))


def test_ml_projection_rejects_non_ml():
    g, _ = gen_solenoid([2], 1024, 11)
    with pytest.raises(NotML):
        ml_projection_check(g)


def test_core_iso_drop_tower():
    ci = core_iso_construction(drop_tower())
    assert [len(lv.elements) for lv in ci.core.levels] == [1, 2, 2]
    inc = as_tower_morphism(ci.inclusion)
    round_full = compose_morphisms(inc, ci.inverse)     # full -> core -> full
    round_core = compose_morphisms(ci.inverse, inc)     # core -> full -> core
    core_t = ci.core.tower
    full_t = drop_tower().tower
    assert morphisms_equivalent(round_full, identity_morphism(full_t)).verdict == EQUIVALENT
    assert morphisms_equivalent(round_core, identity_morphism(core_t)).verdict == EQUIVALENT


def test_core_iso_surjective_tower_is_identity():
    g = z8_tower()
    ci = core_iso_construction(g)
    assert [sorted(lv.elements) for lv in ci.core.levels] == [
        sorted(lv.elements) for lv in g.levels
    ]
    inc = as_tower_morphism(ci.inclusion)
    both = compose_morphisms(ci.inverse, inc)
    assert morphisms_equivalent(both, identity_morphism(ci.core.tower)).verdict == EQUIVALENT


def test_random_group_towers_coherent():
    for seed in range(8):
        g = gen_random_group_tower(seed, depth=3)
        assert g == gen_random_group_tower(seed, depth=3)
        threads = limit_threads(g)
        for t in threads:
            for n in range(1, g.depth):
                bond = g.bond(n)
                assert bond.apply(t.entries[n]) == t.entries[n - 1]
        assert check_translation_isometry(g).valid


def test_group_end_space_is_ultrametric():
    # thread distances assemble into a grid-mode ultrametric space
    threads = limit_threads(z8_tower())
    names = {t: f"t{i}" for i, t in enumerate(threads)}
    exps = {}
    for a in threads:
        for b in threads:
            if names[a] < names[b]:
                exps[(names[a], names[b])] = thread_distance(a, b)
    sp = grid_space(sorted(names.values()), exps)
    assert brute_ultrametric_ok(sp)


def test_as_tower_morphism_shape():
    m = as_tower_morphism(identity_group_morphism(z8_tower()))
    assert m.phi == (1, 2, 3)
    assert m.components[2] == {str(i): str(i) for i in range(8)}


def test_table_rejections_match_brute_scan():
    # one entry of a cyclic table moved to another element (non-associative)
    # or to a stranger or away (not closed); the first failure is reported
    rng = random.Random("table-rejections")
    kinds = {"associativity": 0, "closed": 0}
    for _ in range(60):
        order = rng.randint(2, 7)
        elems = [str(i) for i in range(order)]
        rng.shuffle(elems)
        table = dict(TableGroup.cyclic(order).op_table)
        for _ in range(rng.randint(1, 2)):
            key = (rng.choice(elems), rng.choice(elems))
            roll = rng.random()
            if roll < 0.7:
                table[key] = str((int(table[key]) + rng.randint(1, order - 1)) % order)
            elif roll < 0.85:
                table[key] = "x"
            else:
                del table[key]
        expected = brute_table_rejection(elems, table)
        if expected is None:
            # closed and associative: only the unit or inverse check may object
            try:
                TableGroup(elems, table)
            except ValidationError as err:
                assert "unit" in str(err) or "inverse" in str(err)
            continue
        with pytest.raises(ValidationError) as err:
            TableGroup(elems, table)
        assert str(err.value) == expected
        kinds["associativity" if expected.startswith("assoc") else "closed"] += 1
    assert kinds["associativity"] >= 20 and kinds["closed"] >= 10


def test_table_unit_and_inverse_checks():
    left_zero = {(a, b): a for a in "ab" for b in "ab"}
    with pytest.raises(ValidationError, match="no two-sided unit"):
        TableGroup(["a", "b"], left_zero)
    times = {(a, b): str(int(a) * int(b)) for a in "01" for b in "01"}
    with pytest.raises(ValidationError, match="0 has no inverse"):
        TableGroup(["0", "1"], times)
    g = TableGroup.cyclic(12)
    assert g.elements == tuple(str(i) for i in range(12))
    assert g.unit == "0"
    assert list(g.op_table) == sorted(g.op_table)
    assert g.inverse_table == {str(i): str(-i % 12) for i in range(12)}


def test_isometry_skips_products_outside_the_window():
    g = GroupTower([WindowedZ(2), WindowedZ(2)], [ScaleHom(1)])
    verdict = check_translation_isometry(g)
    assert (verdict.valid, verdict.checked) == (True, 75)
    assert brute_isometry(g) == (True, None, 75)
    zero = GroupTower([WindowedZ(0)] * 3, [ScaleHom(1)] * 2)
    assert check_translation_isometry(zero).checked == 1


def test_isometry_matches_brute_oracle_on_altered_tables():
    rng = random.Random("altered-isometry")
    kinds = {"valid": 0, "invalid": 0}
    for seed in range(40):
        g = gen_random_group_tower(seed, depth=3, max_order=12)
        top = g.levels[-1]
        elems = top.elements
        if len(elems) < 2:
            continue
        a, b = elems.index(rng.choice(elems)), elems.index(rng.choice(elems))
        if seed % 3 == 0:
            top.inverses[a] = elems.index(rng.choice(elems))
        else:
            top.rows[a][b] = elems.index(rng.choice(elems))
        verdict = check_translation_isometry(g)
        valid, violation, checked = brute_isometry(g)
        got = None if verdict.violation is None else tuple(t.entries for t in verdict.violation)
        assert (verdict.valid, got, verdict.checked) == (valid, violation, checked)
        kinds["valid" if valid else "invalid"] += 1
    assert kinds["invalid"] >= 12 and kinds["valid"] >= 4


def test_isometry_exhaustive_on_random_towers():
    for seed in range(60):
        g = gen_random_group_tower(seed, depth=4)
        verdict = check_translation_isometry(g)
        assert verdict.valid
        assert verdict.checked == len(limit_threads(g)) ** 3


def test_core_iso_builds_no_limit_threads(monkeypatch):
    # the core is read off the reach of the underlying tower
    import towertree.groups as groups

    calls = []
    real = groups.limit_threads
    monkeypatch.setattr(groups, "limit_threads", lambda g: calls.append(g) or real(g))
    built = 0
    for seed in range(40):
        g = gen_random_group_tower(seed, depth=4)
        calls.clear()
        try:
            projections = ml_projection_check(g)
        except NotML:
            with pytest.raises(NotML):
                core_iso_construction(g)
            continue
        calls.clear()
        ci = core_iso_construction(g)
        assert calls == []
        phi = [m for _, m in projections]
        assert ci.inverse.phi == tuple(max(phi[: n + 1]) for n in range(len(phi)))
        built += 1
    assert built >= 10


def _apply_tower(g):
    """The underlying tower's levels and bonds built through the public
    constructor from the bonds' .apply, as an extensional tower."""
    levels = [grp.elements for grp in g.levels]
    bonds = [{x: b.apply(x) for x in src} for b, src in zip(g.bonds, levels[1:])]
    return Tower(levels, bonds)


def _group_towers():
    towers = [gen_random_group_tower(seed, 2 + seed % 5, 4 + seed % 20) for seed in range(200)]
    towers += [gen_solenoid(*spec)[0] for spec in (([2], 64, 4), ([1], 5, 3), ([2, 3], 100, 4))]
    towers.append(unpatterned_scaling_tower())
    return towers


def unpatterned_scaling_tower():
    """Scalings z -> 2z, z -> z between windows that fit no solenoid."""
    return GroupTower([WindowedZ(9), WindowedZ(2), WindowedZ(2)], [ScaleHom(2), ScaleHom(1)])


def test_scaling_tower_without_oracle_reads_its_truncated_threads():
    g = unpatterned_scaling_tower()
    assert g.tower.oracle is None
    threads = limit_threads(g)
    assert [t.entries for t in threads] == [(str(2 * z), str(z), str(z)) for z in range(-2, 3)]
    assert ml_projection_check(g) == ((1, 2), (2, 2), (3, 3))


def test_underlying_tower_is_built_once_and_matches_the_apply_walk():
    for g in _group_towers():
        t = g.tower
        assert g.tower is t
        ref = _apply_tower(g)
        assert (t.levels, tuple(map(tuple, t.up))) == (ref.levels, ref.up)
        # levels, up and the oracle apart: only a solenoid's oracle is kept
        assert (t == ref) == (t.oracle is None)
        assert t.oracle is None or _is_solenoid(t)


def _is_solenoid(t):
    return t == windowed_solenoid_tower(t.oracle.primes, t.oracle.window, t.depth)


def _scalings(g):
    """x -> c x on every level of a cyclic tower, c = 2, 3: it commutes with
    the scaling bonds and has nontrivial kernels and images."""
    if not all(isinstance(level, TableGroup) for level in g.levels):
        return []
    return [
        GroupLevelMorphism(g, g, [
            TableHom({x: str(c * int(x) % len(level.elements)) for x in level.elements})
            for level in g.levels
        ])
        for c in (2, 3)
    ]


def _crafted_violations():
    """Level morphisms whose conditions fail first at level 2."""
    trivial = TableGroup.cyclic(1)
    z2 = TableGroup.cyclic(2)
    to_unit = TableHom({"0": "0", "1": "0"})
    ident = TableHom({"0": "0", "1": "1"})
    unit_in = TableHom({"0": "0"})
    # (E): Z/2 <- 1 <- 1 into constant Z/2; f_2 misses 1 at every depth
    small = GroupTower([z2, trivial, trivial], [unit_in, unit_in])
    const = GroupTower([z2] * 3, [ident] * 2)
    e_fails = GroupLevelMorphism(small, const, [ident, unit_in, unit_in])
    # (M): 1 <- Z/2 <- Z/2 onto the trivial tower; Ker(f_m) = Z/2 never
    # lies in Ker(p_{2m}) = 0
    wide = GroupTower([trivial, z2, z2], [to_unit, ident])
    point = GroupTower([trivial] * 3, [unit_in] * 2)
    m_fails = GroupLevelMorphism(wide, point, [unit_in, to_unit, to_unit])
    return e_fails, m_fails


def test_conditions_and_projections_match_brute_apply_walks():
    def same(report, brute):
        assert (report.witnesses, report.violation) == brute
        return report

    late_e = late_m = projected = 0
    for g in _group_towers():
        for f in [identity_group_morphism(g), *_scalings(g)]:
            report = same(check_condition_M(f), brute_condition_M(f))
            late_m += any(m > n for n, m in report.witnesses)
            same(check_condition_E(f), brute_condition_E(f))
        try:
            table = ml_projection_check(g)
        except NotML:
            continue
        assert table == brute_projection(g)
        projected += 1
        try:
            inclusion = core_iso_construction(g).inclusion
        except UnsupportedMode:
            # pi_1 of z -> 2z is the even integers of a window, no window itself
            assert g == unpatterned_scaling_tower()
            continue
        same(check_condition_M(inclusion), brute_condition_M(inclusion))
        e = same(check_condition_E(inclusion), brute_condition_E(inclusion))
        late_e += any(m > n for n, m in e.witnesses)
    assert projected >= 80 and late_e >= 20 and late_m >= 20
    e_fails, m_fails = _crafted_violations()
    assert same(check_condition_E(e_fails), brute_condition_E(e_fails)).violation == 2
    assert same(check_condition_M(e_fails), brute_condition_M(e_fails)).holds
    assert same(check_condition_M(m_fails), brute_condition_M(m_fails)).violation == 2
    assert same(check_condition_E(m_fails), brute_condition_E(m_fails)).holds


def test_cyclic_tables_match_the_integer_sums():
    for m in range(1, 65):
        g = TableGroup.cyclic(m)
        ids = [str(i) for i in range(m)]
        ref = TableGroup(ids, {(a, b): str((int(a) + int(b)) % m) for a in ids for b in ids})
        assert (g.elements, g.unit) == (ref.elements, ref.unit)
        assert list(g.op_table.items()) == list(ref.op_table.items())
        assert list(g.inverse_table.items()) == list(ref.inverse_table.items())


def test_table_entries_outside_the_group_rejected():
    table = dict(TableGroup.cyclic(2).op_table)
    table[("0", "x")] = "0"
    with pytest.raises(ValidationError, match="entries outside the group"):
        TableGroup(["0", "1"], table)


def test_bond_rejections_match_brute_scan():
    # x -> c x from a cyclic or windowed level onto Z/d, with one entry
    # dropped, added, sent out of Z/d or moved; the bond sits at position 2
    # and the first failure is reported
    rng = random.Random("bond-rejections")
    kinds = dict.fromkeys(("total", "leaves", "unit", "homomorphism", "valid"), 0)
    for _ in range(200):
        d = rng.randint(2, 6)
        if rng.random() < 0.3:
            src = WindowedZ(rng.randint(0, 4))
        else:
            src = TableGroup.cyclic(d * rng.randint(1, 3))
        dst = TableGroup.cyclic(d)
        c = rng.randrange(d)
        mapping = {x: str(c * int(x) % d) for x in src.elements}
        x = rng.choice(src.elements)
        roll = rng.random()
        if roll < 0.1:
            del mapping[x]
        elif roll < 0.2:
            mapping["stray"] = "0"
        elif roll < 0.3:
            mapping[x] = "out"
        elif roll < 0.45:
            mapping["0"] = str(rng.randrange(1, d))
        elif roll < 0.95:
            mapping[x] = str((int(mapping[x]) + rng.randrange(1, d)) % d)
        expected = brute_bond_rejection(src, dst, mapping, 2)
        to_unit = TableHom({y: "0" for y in dst.elements})
        levels = [TableGroup.cyclic(1), dst, src]
        if expected is None:
            GroupTower(levels, [to_unit, TableHom(mapping)])
            kinds["valid"] += 1
            continue
        with pytest.raises(ValidationError) as err:
            GroupTower(levels, [to_unit, TableHom(mapping)])
        assert str(err.value) == expected
        kinds[next(k for k in kinds if k in expected)] += 1
    floors = {"total": 20, "leaves": 15, "unit": 20, "homomorphism": 40, "valid": 5}
    assert all(kinds[k] >= floor for k, floor in floors.items()), kinds


def test_isometry_matches_brute_oracle_on_altered_lower_tables():
    # one or two op or inverse entries changed at any level, the lower ones
    # included, so that products and inverses leave the limit threads
    rng = random.Random("altered-lower-isometry")
    kinds = {"valid": 0, "invalid": 0, "lower": 0, "strays": 0}
    for seed in range(60):
        g = gen_random_group_tower(seed, depth=3, max_order=12)
        tables = [n for n, level in enumerate(g.levels) if len(level.elements) > 1]
        if not tables:
            continue
        for _ in range(rng.randint(1, 2)):
            n = rng.choice(tables)
            level = g.levels[n]
            pick = lambda: level.elements.index(rng.choice(level.elements))
            # the value is drawn before the entry it replaces
            if rng.random() < 0.3:
                value = pick()
                level.inverses[pick()] = value
            else:
                value = pick()
                level.rows[pick()][pick()] = value
            kinds["lower"] += n < g.depth - 1
        verdict = check_translation_isometry(g)
        valid, violation, checked = brute_isometry(g)
        got = None if verdict.violation is None else tuple(t.entries for t in verdict.violation)
        assert (verdict.valid, got, verdict.checked) == (valid, violation, checked)
        threads = limit_threads(g)
        made = {brute_thread_inverse(g, a) for a in threads}
        made |= {brute_thread_product(g, k, a) for k in threads for a in threads}
        kinds["strays"] += not made <= {t.entries for t in threads}
        kinds["valid" if valid else "invalid"] += 1
    assert kinds["invalid"] >= 20 and kinds["valid"] >= 10
    assert kinds["lower"] >= 20 and kinds["strays"] >= 20


def test_isometry_compares_each_pair_of_threads_once(monkeypatch):
    import towertree.groups as groups

    calls = []
    real = groups.agreement
    monkeypatch.setattr(groups, "agreement", lambda xs, ys: calls.append(1) or real(xs, ys))
    towers = [gen_random_group_tower(seed, depth=4) for seed in range(30)]
    towers += [gen_solenoid([1], 5, 3)[0], unpatterned_scaling_tower()]
    for g in towers:
        calls.clear()
        assert check_translation_isometry(g).valid
        t = len(limit_threads(g))
        assert len(calls) <= t * t + t


def _restricted_by_validation(g, subset):
    """The subgroup on subset through the validating constructor, with the
    stray and closure checks restricted makes first."""
    members = set(subset)
    stray = members - set(g.elements)
    if stray:
        raise ElementNotInLevel(f"not group elements: {sorted(stray)}")
    sub = sorted(members, key=natural_key)
    for a in sub:
        for b in sub:
            if g.op(a, b) not in members:
                raise ValidationError(f"subset not closed: {a}*{b} = {g.op(a, b)}")
    return TableGroup(sub, {(a, b): g.op(a, b) for a in sub for b in sub})


def _outcome(build):
    try:
        h = build()
    except (ElementNotInLevel, ValidationError) as e:
        return type(e), str(e)
    return h.elements, h.unit, list(h.op_table.items()), list(h.inverse_table.items())


def _s3():
    """S3 as an explicit table on permutations of (0, 1, 2), in one-line notation."""
    elements, table, _ = _s3_parts()
    return TableGroup(elements, table)


def test_restricted_matches_the_validating_constructor():
    # every subgroup of Z/m is generated by one element, so the closures of
    # the singletons are all the closed subsets; small groups and S3 also
    # try every subset, and every group tries stray and non-closed ones
    rng = random.Random("restricted")
    groups = [TableGroup.cyclic(m) for m in range(1, 25)] + [_s3()]
    kinds = dict.fromkeys(("closed", "not closed", "stray", "empty"), 0)
    for g in groups:
        elems = g.elements
        subsets = [[]]
        for a in elems:
            closure, x = {a}, a
            while (x := g.op(x, a)) not in closure:
                closure.add(x)
            subsets.append(closure)
        if len(elems) <= 8:
            subsets += [
                [x for i, x in enumerate(elems) if bits >> i & 1] for bits in range(2 ** len(elems))
            ]
        subsets += [rng.sample(elems, rng.randint(1, len(elems))) for _ in range(20)]
        subsets += [[*rng.sample(elems, rng.randint(0, len(elems))), "x"] for _ in range(3)]
        for subset in subsets:
            got = _outcome(lambda: g.restricted(subset))
            assert got == _outcome(lambda: _restricted_by_validation(g, subset))
            if got[0] is ElementNotInLevel:
                kinds["stray"] += 1
            elif got[0] is ValidationError:
                kinds["not closed" if "not closed" in got[1] else "empty"] += 1
            else:
                kinds["closed"] += 1
    assert kinds["closed"] >= 300 and kinds["not closed"] >= 300, kinds
    assert kinds["stray"] >= 75 and kinds["empty"] >= 25, kinds


def test_restricted_refuses_a_subset_not_closed_under_inverse():
    g = TableGroup.cyclic(4)
    g.rows[1][1] = 0  # altered after construction: {0, 1} is closed under op
    with pytest.raises(ValidationError, match=r"not closed under inverse: 1\^-1 = 3"):
        g.restricted(["0", "1"])


def test_core_iso_outputs_pass_the_validating_constructors():
    built = 0
    for seed in range(400):
        g = gen_random_group_tower(seed, depth=2 + seed % 4, max_order=(8, 12, 16, 24)[seed % 4])
        try:
            ci = core_iso_construction(g)
        except NotML:
            continue
        core, inclusion = ci.core, ci.inclusion
        for level in core.levels:
            checked = TableGroup(level.elements, level.op_table)
            assert checked == level
            assert (checked.unit, checked.inverse_table) == (level.unit, level.inverse_table)
        assert GroupTower(core.levels, core.bonds) == core
        public = GroupLevelMorphism(core, g, inclusion.components)
        assert (public.source, public.target) == (inclusion.source, inclusion.target)
        assert public.components == inclusion.components
        ident = identity_group_morphism(g)
        assert GroupLevelMorphism(g, g, ident.components).components == ident.components
        # the tower morphisms, built on the trusted path, with key order and witnesses
        for m in (ci.inverse, as_tower_morphism(inclusion), as_tower_morphism(ident)):
            public = TowerMorphism(m.source, m.target, list(m.phi), m.components)
            assert (public.phi, public.witnesses) == (m.phi, m.witnesses)
            assert [list(c.items()) for c in public.components] == [
                list(c.items()) for c in m.components
            ]
        built += 1
    assert built >= 200


def test_cyclic_groups_share_no_table():
    for m in (1, 2, 5, 12):
        a, b = TableGroup.cyclic(m), TableGroup.cyclic(m)
        assert a == b and a.op_table is not b.op_table and a.inverse_table is not b.inverse_table
        a.op_table[("0", "0")] = "x"
        a.inverse_table["0"] = "x"
        assert b.op_table[("0", "0")] == "0" and b.inverse_table["0"] == "0"
        assert TableGroup.cyclic(m).op_table == b.op_table
        a.rows[0][0] = a.inverses[0] = -1
        assert b.rows[0][0] == b.inverses[0] == 0 and TableGroup.cyclic(m) == b


def test_core_of_a_windowed_level_is_its_projection():
    w = WindowedZ(2)
    zero = TableHom({x: "0" for x in w.elements})
    ident = TableHom({x: x for x in w.elements})
    g = GroupTower([w, w, w], [zero, ident])
    assert {t.entries[0] for t in limit_threads(g)} == {"0"}
    ci = core_iso_construction(g)
    assert ci.core.levels == (WindowedZ(0), w, w)
    assert ci.core.bonds[0] == TableHom({x: "0" for x in w.elements})
    # a window inside a wider one: z -> z from [-1, 1] into [-3, 3]
    narrow = GroupTower([WindowedZ(3), WindowedZ(1), WindowedZ(1)], [ScaleHom(1)] * 2)
    assert core_iso_construction(narrow).core.levels == (WindowedZ(1),) * 3
    with pytest.raises(UnsupportedMode, match=r"level 1: pi_1\(lim G\) is not a window of \[-9, 9\]"):
        core_iso_construction(unpatterned_scaling_tower())


def _s3_parts():
    """S3's elements, table and sign, in one-line notation."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    table = {(name[p], name[q]): name[tuple(p[q[i]] for i in range(3))] for p in perms for q in perms}
    sign = {name[p]: sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms}
    return list(name.values()), table, sign


def _table_json(elements, table):
    return {"elements": elements, "table": {a: {b: table[(a, b)] for b in elements} for a in elements}}


def _parsed_tables(rng):
    """Products Z/a x Z/b as explicit tables (ids "x.y"), componentwise
    scaling bonds, and sometimes S3 on top through its sign; built by
    parse_group_tower.  Returns (tower, spec)."""
    a, b = rng.choice((1, 2, 3)), rng.choice((1, 2))
    levels, specs, bonds = [], [], []
    for n in range(rng.randint(1, 3)):
        if n:
            a2, b2 = a * rng.choice((1, 2)), b * rng.choice((1, 2))
            a2, b2 = (a2, b2) if a2 * b2 <= 12 else (a, b)
            c1, c2 = rng.randrange(a), rng.randrange(b)
            bonds.append({
                f"{x}.{y}": f"{c1 * x % a}.{c2 * y % b}" for x in range(a2) for y in range(b2)
            })
            a, b = a2, b2
        ids = [f"{x}.{y}" for x in range(a) for y in range(b)]
        table = {
            (f"{x}.{y}", f"{u}.{v}"): f"{(x + u) % a}.{(y + v) % b}"
            for x in range(a) for y in range(b) for u in range(a) for v in range(b)
        }
        levels.append(_table_json(ids, table))
        specs.append(table_spec(ids, table))
    if b % 2 == 0 and rng.random() < 0.5:
        perms, table, sign = _s3_parts()
        bonds.append({p: f"0.{sign[p] * b // 2}" for p in perms})
        levels.append(_table_json(perms, table))
        specs.append(table_spec(perms, table))
        if rng.random() < 0.6:
            k = rng.choice(perms)
            k_inv = next(q for q in perms if table[(k, q)] == "012")
            bonds.append(rng.choice([
                {p: table[(table[(k, p)], k_inv)] for p in perms},  # conjugation
                {p: "012" for p in perms},
            ]))
            levels.append(_table_json(perms, table))
            specs.append(table_spec(perms, table))
    g = parse_group_tower(json.dumps({"levels": levels, "bonds": bonds}))
    return g, {"levels": specs, "bonds": bonds, "zero_only": False}


def _windowed(rng):
    """A solenoid, or windows joined by scalings whose bounds fit no
    solenoid, sometimes over a cyclic level reached by x -> c x mod d."""
    roll = rng.random()
    if roll < 0.3:
        primes = rng.choice(([1], [2], [1, 2], [3, 1]))
        g = gen_solenoid(primes, rng.randint(1, 6), rng.randint(1, 3))[0]
        zero_only = any(p > 1 for p in primes)
    else:
        # z -> z between two equal windows on top, so that images can settle;
        # below, each window is wider than any solenoid's
        depth = rng.randint(2, 4)
        factors = [rng.choice((1, 2)) for _ in range(depth - 2)] + [1]
        bounds = [rng.randint(0, 3)] * 2
        for k in reversed(factors[:-1]):
            bounds.insert(0, k * bounds[0] + k + rng.randint(0, 2))
        g = GroupTower([WindowedZ(b) for b in bounds], [ScaleHom(k) for k in factors])
        zero_only = False
    specs = [window_spec(level.bound) for level in g.levels]
    bonds = [{x: bond.apply(x) for x in level.elements} for bond, level in zip(g.bonds, g.levels[1:])]
    if roll > 0.7:
        d, c = rng.randint(2, 4), rng.randint(0, 3)
        below = TableHom({x: str(c * int(x) % d) for x in g.levels[0].elements})
        g = GroupTower([TableGroup.cyclic(d), *g.levels], [below, *g.bonds])
        specs.insert(0, cyclic_spec(d))
        bonds.insert(0, dict(below.mapping))
    return g, {"levels": specs, "bonds": bonds, "zero_only": zero_only}


def _cyclic(seed):
    g = gen_random_group_tower(seed, depth=2 + seed % 3, max_order=(4, 8, 12)[seed % 3])
    specs = [cyclic_spec(len(level.elements)) for level in g.levels]
    return g, {"levels": specs, "bonds": [dict(b.mapping) for b in g.bonds], "zero_only": False}


def _alter(g, spec, rng):
    """Point one or two table entries (or inverses) of the stored rows, and
    of the spec, at another element."""
    tables = [n for n, level in enumerate(g.levels) if isinstance(level, TableGroup)]
    tables = [n for n in tables if len(g.levels[n].elements) > 1]
    for _ in range(rng.randint(1, 2) if tables else 0):
        n = rng.choice(tables)
        level, entry = g.levels[n], spec["levels"][n]
        ids = level.elements
        value, a, b = (rng.choice(ids) for _ in range(3))
        if rng.random() < 0.3:
            level.inverses[ids.index(a)] = ids.index(value)
            entry["inverse"][a] = value
        else:
            level.rows[ids.index(a)][ids.index(b)] = ids.index(value)
            entry["table"][(a, b)] = value


def _spec_corpus():
    rng = random.Random("group-spec-corpus")
    corpus = []
    for i in range(320):
        family = i % 4
        if family == 0:
            g, spec = _cyclic(i)
        elif family == 1:
            g, spec = _windowed(rng)
        else:
            g, spec = _cyclic(i) if rng.random() < 0.4 else _parsed_tables(rng)
            if family == 3:
                _alter(g, spec, rng)
        corpus.append((family, g, spec))
    return corpus


def _core_outcome(g):
    try:
        ci = core_iso_construction(g)
    except NotML:
        return ("NotML",), None
    except (UnsupportedMode, ValidationError) as e:
        return (type(e).__name__, str(e)), None
    core = ci.core
    for bond, level in zip(core.bonds, core.levels[1:]):
        assert isinstance(bond, ScaleHom) or list(bond.mapping) == list(level.elements)
    bonds = [
        [(x, bond.apply(x)) for x in level.elements] for bond, level in zip(core.bonds, core.levels[1:])
    ]
    inverse = [list(c.items()) for c in ci.inverse.components]
    return ([list(level.elements) for level in core.levels], bonds, ci.inverse.phi, inverse), ci


def test_group_towers_match_the_id_level_oracles():
    # cyclic, windowed and mixed towers, explicit product and S3 tables from
    # parse_group_tower, and towers with altered rows, against oracles that
    # read only each level's own description and the bond dicts
    kinds = dict.fromkeys(("invalid", "skipped", "core", "NotML", "refused", "non-cyclic"), 0)
    for family, g, spec in _spec_corpus():
        assert [t.entries for t in limit_threads(g)] == spec_threads(spec)
        verdict = check_translation_isometry(g)
        got = None if verdict.violation is None else tuple(t.entries for t in verdict.violation)
        assert (verdict.valid, got, verdict.checked) == spec_isometry(spec)
        threads = len(spec_threads(spec))
        kinds["invalid"] += not verdict.valid
        kinds["skipped"] += verdict.valid and verdict.checked < threads ** 3
        kinds["non-cyclic"] += any(_cyclic_order(level) is None for level in g.levels if isinstance(level, TableGroup))
        ident = identity_group_morphism(g)
        for check, brute in ((check_condition_M, brute_condition_M), (check_condition_E, brute_condition_E)):
            report = check(ident)
            assert (report.witnesses, report.violation) == brute(ident)
        outcome, ci = _core_outcome(g)
        assert outcome == spec_core_iso(spec)
        if ci is None:
            kinds["NotML" if outcome == ("NotML",) else "refused"] += 1
            continue
        kinds["core"] += 1
        for level, entry, kept in zip(ci.core.levels, spec["levels"], outcome[0]):
            if isinstance(level, TableGroup):
                assert level.op_table == {(a, b): entry["table"][(a, b)] for a in kept for b in kept}
        for check, brute in ((check_condition_M, brute_condition_M), (check_condition_E, brute_condition_E)):
            report = check(ci.inclusion)
            assert (report.witnesses, report.violation) == brute(ci.inclusion)
    floors = {"invalid": 25, "skipped": 30, "core": 120, "NotML": 100, "refused": 10, "non-cyclic": 40}
    assert all(kinds[k] >= floor for k, floor in floors.items()), kinds


def test_isometry_and_core_read_no_id_keyed_table():
    for family, g, spec in _spec_corpus():
        if family == 3:
            continue
        check_translation_isometry(g)
        try:
            levels = g.levels + core_iso_construction(g).core.levels
        except (NotML, UnsupportedMode):
            levels = g.levels
        for level in levels:
            if isinstance(level, TableGroup):
                assert level._op_table is None and level._inverse_table is None
