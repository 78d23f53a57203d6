"""Example generators: the curated constructions plus seeded random corpora,
and the functor-law corpus that `towertree roundtrip` runs over them.

Everything here is deterministic given its parameters; random instances
hash the seed into independent streams so that a tower and the morphisms
on it do not share state.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ends import UltrametricSpace, _floor_log, certified_ln_sign, grid_space, rational_space
from .errors import DepthExhausted, InvalidParameter, NotProper, TowerTreeError
from .groups import GroupTower, ScaleHom, TableGroup, TableHom, WindowedZ, _tower_of
from .maps import (
    check_nonexpansive,
    compose_tree_maps,
    extract_morphism,
    homotopy_properness,
    identity_tree_map,
    induce_tree_map,
    properness_witness,
)
from .towers import (
    EQUIVALENT,
    MAX_GENERATOR_IDS,
    NOT_EQUIVALENT,
    Tower,
    TowerMorphism,
    _pull_back,
    _reach,
    compose_morphisms,
    identity_morphism,
    morphisms_equivalent,
    natural_key,
    windowed_solenoid_tower,
)
from .trees import tower_of_tree, tree_of_tower


def gen_solenoid(primes: Sequence[int], window: int, depth: int) -> tuple[GroupTower, Tower]:
    """The windowed solenoid: scalings z -> p_n z between shrinking windows.

    Returns the group-level tower and the very set-level tower it stores,
    with the divisibility oracle; the scalings fit the windows by construction.
    """
    primes = tuple(int(p) for p in primes)
    if not primes:
        raise InvalidParameter("need at least one multiplier")
    if any(p < 1 for p in primes):
        raise InvalidParameter("multipliers must be >= 1")
    if window < 1:
        raise InvalidParameter("window must be >= 1")
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    tower = windowed_solenoid_tower(primes, window, depth)  # refuses an oversized tower first
    oracle = tower.oracle
    levels = [WindowedZ(b) for b in oracle.level_bounds(depth)]
    bonds = [ScaleHom(oracle.multiplier(n)) for n in range(1, depth)]
    return GroupTower._trusted(levels, bonds, tower), tower


# ---------------------------------------------------------------------------
# The bi-Hoelder table


@dataclass(frozen=True)
class BiHolderRow:
    """One comparison row: exact distance 1/2^{k+1} against e^{-n}.

    n is the least integer with e^{-n} < (d/k)^k, certified by outward-rounded
    arithmetic; the strict inequality is what makes the simplicial metric
    collapse faster than any fixed Hoelder exponent allows.
    """

    k: int
    distance: Fraction
    n: int
    certified: bool


@dataclass(frozen=True)
class BiHolderTable:
    k_max: int
    rows: tuple[BiHolderRow, ...]
    # ((C, l, least violating k or None), ...) in grid order
    violations: tuple[tuple[int, Fraction, int | None], ...]


# gen_biholder and gen_example_nonretract print one row per k or i, holding
# a power of 2 of about k or i bits, so their output grows as the square of
# k_max or count.  Either may be at most this, checked before any row is
# built: at 4,096, `gen nonretract` prints 7.8 MB of text and `gen biholder`
# 2.6 MB, which takes 0.9 s (2-vCPU x86_64 VM, Python 3.11.7).
MAX_TABLE_ROWS = 4096


def _check_table(name: str, value: int, shift: int) -> None:
    """Refuse a value past MAX_TABLE_ROWS, or whose 2^(value + shift) would
    not print within Python's int/str digit limit, before anything is built;
    the message names whichever bound is lower."""
    most, why = MAX_TABLE_ROWS, "the output budget"
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    printable = (10**digits).bit_length() - 1 - shift  # the largest with 2^(it + shift) < 10^digits
    if digits and printable < most:
        most, why = printable, f"so that its powers of 2 print within {digits} digits"
    if value > most:
        raise InvalidParameter(f"{name} must be at most {most}, {why}")


DEFAULT_C_GRID = (1, 10, 100)
DEFAULT_L_GRID = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


def gen_biholder(
    k_max: int,
    c_grid: Sequence[int] = DEFAULT_C_GRID,
    l_grid: Sequence[Fraction] = DEFAULT_L_GRID,
) -> BiHolderTable:
    """Rows k = 2..k_max plus, per (C, l), the least k whose simplicial
    distance e^{-n_k} already beats the candidate Hoelder bound:
    C (e^{-n_k})^l < 1/2^{k+1}.  Refuses a k_max whose last distance
    1/2^(k_max + 1) would not print within Python's int/str digit limit, or
    past MAX_TABLE_ROWS, before building any row."""
    if k_max < 2:
        raise InvalidParameter("k_max must be >= 2")
    _check_table("k_max", k_max, 1)
    c_grid = tuple(int(c) for c in c_grid)
    l_grid = tuple(Fraction(l) for l in l_grid)
    if any(c < 1 for c in c_grid):
        raise InvalidParameter("C values must be >= 1")
    if any(not 0 < l < 1 for l in l_grid):
        raise InvalidParameter("l values must lie in (0, 1)")
    rows = []
    for k in range(2, k_max + 1):
        m = k * (1 << (k + 1))
        # e^{-n} < (d/k)^k  <=>  n > k ln(k/d) = k ln m, and m >= 16 is an
        # integer, so the least such n is one past the certified floor
        n = _floor_log(m, 1, k) + 1
        certified = certified_ln_sign(Fraction(m), Fraction(n, k)) < 0
        rows.append(BiHolderRow(k=k, distance=Fraction(1, 1 << (k + 1)), n=n, certified=certified))
    violations = []
    for c in c_grid:
        for l in l_grid:
            found = None
            for row in rows:
                # C e^{-l n} < 2^{-(k+1)}  <=>  ln(C 2^{k+1}) < l n
                if certified_ln_sign(Fraction(c * (1 << (row.k + 1))), l * row.n) < 0:
                    found = row.k
                    break
            violations.append((c, l, found))
    return BiHolderTable(k_max=k_max, rows=tuple(rows), violations=tuple(violations))


# ---------------------------------------------------------------------------
# The non-retract demonstration


@dataclass(frozen=True)
class NonRetractReport:
    """Distances from the escaping point to the bifurcation points.

    The branch forking at radius (2^i - 1)/2^i sits at distance 1/2^i
    from the point x it peels away from; the infimum over i is 0 yet x
    never joins the geodesically complete part, so nothing continuous can
    pull the tree onto it.
    """

    distances: tuple[Fraction, ...]
    infimum: Fraction
    point_in_core: bool


def gen_example_nonretract(count: int = 10) -> NonRetractReport:
    """The distances 1/2^i, i = 1..count.  Like towers._check_generator,
    refuses a count whose numbers would not print within Python's int/str
    digit limit, or past MAX_TABLE_ROWS, before building any."""
    if count < 1:
        raise InvalidParameter("count must be >= 1")
    _check_table("count", count, 0)
    dists = tuple(Fraction(1, 1 << i) for i in range(1, count + 1))
    return NonRetractReport(distances=dists, infimum=Fraction(0), point_in_core=False)


# ---------------------------------------------------------------------------
# Seeded random corpora


def gen_random_tower(
    seed: int, depth: int, max_level_size: int, surjectivity_bias: float = 0.7
) -> Tower:
    """A deterministic random extensional tower.

    bias is the per-bond probability of forcing surjectivity; at 1.0 every
    bond is onto and the tree of the tower is geodesically complete.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    if max_level_size < 1:
        raise InvalidParameter("max_level_size must be >= 1")
    if not 0.0 <= surjectivity_bias <= 1.0:
        raise InvalidParameter("surjectivity_bias must lie in [0, 1]")
    if depth * max_level_size > MAX_GENERATOR_IDS:
        raise InvalidParameter(f"depth x max_level_size may be at most {MAX_GENERATOR_IDS} ids")
    rng = random.Random(f"tower:{seed}")
    # choice and shuffle draw by length alone, so drawing positions takes the
    # same draws as drawing the ids "0".."size-1" at those positions
    sizes = [rng.randint(1, max_level_size)]
    up = []
    for _ in range(depth - 1):
        onto = rng.random() < surjectivity_bias
        prev = range(sizes[-1])
        size = rng.randint(len(prev) if onto else 1, max_level_size)
        parents = list(prev)
        rng.shuffle(parents)  # drawn even for a bond that need not be onto
        row = parents if onto else []
        up.append(row + [rng.choice(prev) for _ in range(size - len(row))])
        sizes.append(size)
    ids = [str(i) for i in range(max(sizes))]
    return Tower._ordered([ids[:m] for m in sizes], up)


def random_morphism(seed: int, source: Tower, target: Tower) -> TowerMorphism:
    """A deterministic random morphism, coherent by construction.

    Components are built bottom-up by lifting through the target bonds, so
    every consecutive square commutes strictly; when some element has no
    lift the morphism is truncated at the last liftable level.
    """
    rng = random.Random(f"morphism:{seed}")
    # biased toward full length and tight reindexing so that the induced
    # map keeps proper content inside the truncation window
    length = target.depth if rng.random() < 0.5 else rng.randint(1, target.depth)
    if rng.random() < 0.4:
        phi = [min(k, source.depth) for k in range(1, length + 1)]
    else:
        phi = [1 if rng.random() < 0.5 else rng.randint(1, source.depth)]
        for _ in range(1, length):
            step = rng.randint(0, 1) if rng.random() < 0.7 else rng.randint(0, source.depth)
            phi.append(min(phi[-1] + step, source.depth))
    reach = _reach(target)[0]
    deep = [i for i, r in enumerate(reach) if r == target.depth]
    rows = [
        [rng.choice(deep) if rng.random() < 0.8 else rng.choice(range(len(reach)))
         for _ in range(source.sizes[phi[0] - 1])]
    ]
    for n in range(1, length):
        fibers = [[] for _ in range(target.sizes[n - 1])]  # of q_n, in position order
        for j, i in enumerate(target.up[n - 1]):
            fibers[i].append(j)
        candidates = [fibers[i] for i in _pull_back(source, rows[-1], phi[n - 1], phi[n])]
        if not all(candidates):
            break
        rows.append([rng.choice(c) for c in candidates])
    return TowerMorphism._trusted(source, target, phi[: len(rows)], rows)


def gen_random_group_tower(seed: int, depth: int, max_order: int = 16) -> GroupTower:
    """Cyclic levels with divisible orders and scaling bonds.

    Order divisibility makes x -> c x well defined down the tower for any
    multiplier c, so the bond choice is unconstrained.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    if max_order < 1:
        raise InvalidParameter("max_order must be >= 1")
    rng = random.Random(f"grouptower:{seed}")
    orders = [rng.randint(1, min(4, max_order))]
    for _ in range(1, depth):
        growable = [f for f in (1, 2, 3) if orders[-1] * f <= max_order]
        orders.append(orders[-1] * rng.choice(growable or [1]))
    levels = [TableGroup.cyclic(m) for m in orders]
    up = []
    for small, big in zip(orders, orders[1:]):
        c = rng.randint(0, small - 1)
        up.append([c * i % small for i in range(big)])
    bonds = [
        TableHom(dict(zip(src.elements, map(dst.elements.__getitem__, u))))
        for dst, src, u in zip(levels, levels[1:], up)
    ]
    return GroupTower._trusted(levels, bonds, _tower_of(levels, bonds, up))


def _split(rng: random.Random, ids: list[str]) -> list[list[str]]:
    """A random partition of ids into at least two blocks."""
    k = rng.randint(2, len(ids))
    blocks = [[] for _ in range(k)]
    order = list(ids)
    rng.shuffle(order)
    for i, x in enumerate(order):
        blocks[i % k].append(x)
    return [sorted(b, key=natural_key) for b in blocks if b]


def _dendrogram(rng: random.Random, points: list[str], top, below) -> dict:
    """Entries of a random dendrogram over points: each cluster splits into
    at least two blocks, pairs across blocks get the cluster's height, and
    every block recurses at below(height).  top is the root height."""
    entries = {}

    def build(ids: list[str], height) -> None:
        if len(ids) < 2:
            return
        blocks = _split(rng, ids)
        for i, a_block in enumerate(blocks):
            for b_block in blocks[i + 1 :]:
                for a in a_block:
                    for b in b_block:
                        entries[(a, b)] = height
        for block in blocks:
            build(block, below(height))

    build(points, top)
    return entries


def gen_random_grid_space(seed: int, max_points: int = 32) -> UltrametricSpace:
    """A random dendrogram flattened to integer agreement exponents."""
    if max_points < 1:
        raise InvalidParameter("max_points must be >= 1")
    rng = random.Random(f"gridspace:{seed}")
    points = [f"p{i}" for i in range(rng.randint(1, max_points))]
    entries = _dendrogram(rng, points, rng.randint(0, 2), lambda exp: exp + rng.randint(1, 2))
    return grid_space(points, entries)


def gen_random_rational_space(seed: int, max_points: int = 16) -> UltrametricSpace:
    """A random dendrogram with strictly shrinking rational merge heights."""
    if max_points < 1:
        raise InvalidParameter("max_points must be >= 1")
    rng = random.Random(f"rationalspace:{seed}")
    points = [f"p{i}" for i in range(rng.randint(1, max_points))]
    top = Fraction(rng.randint(1, 16), 16)
    entries = _dendrogram(rng, points, top, lambda h: h * Fraction(rng.randint(1, 7), 8))
    return rational_space(points, entries)


# ---------------------------------------------------------------------------
# The functor-law corpus


@dataclass
class CorpusSummary:
    counts: dict
    failures: list
    skips: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, passed: bool, context: str = "") -> None:
        bucket = self.counts.setdefault(name, [0, 0])
        bucket[0 if passed else 1] += 1
        if not passed:
            self.failures.append(f"{name}: {context}")

    def skip(self, name: str) -> None:
        self.skips[name] = self.skips.get(name, 0) + 1


def _check_instance(summary: CorpusSummary, tag: str, x: Tower, f: TowerMorphism,
                    h: TowerMorphism | None) -> None:
    summary.record("tower-roundtrip", tower_of_tree(tree_of_tower(x)) == x, tag)

    induced = induce_tree_map(f)
    summary.record("nonexpansive", check_nonexpansive(induced).valid, tag)

    prop = properness_witness(induced)
    sched = induced.schedule
    certified = all(
        prop.table[n - 1] <= sched.breakpoint_after(n) for n in range(1, prop.total_upto + 1)
    )
    if prop.failure_level is not None:
        # a witness may only be missing past the reach of the truncated
        # schedule: beyond its last segment, or past the source depth
        beyond = prop.failure_level > len(sched.breakpoints) or (
            sched.breakpoint_after(prop.failure_level) > sched.source_depth
        )
        certified = certified and beyond
    summary.record("schedule-certified", certified, tag)

    try:
        extracted = extract_morphism(induced)
    except NotProper:
        # the schedule consumed the whole depth; nothing to extract here
        summary.skip("extract-induce-identity")
        summary.skip("induce-extract-homotopic")
        extracted = None
    if extracted is not None:
        verdict = morphisms_equivalent(extracted, f)
        summary.record("extract-induce-identity", verdict.verdict == EQUIVALENT, tag)
        re_induced = induce_tree_map(extracted)
        summary.record(
            "induce-extract-homotopic", homotopy_properness(induced, re_induced).proper, tag
        )

    ident = identity_tree_map(induced.source)
    summary.record(
        "tree-identity-laws",
        compose_tree_maps(induced, ident) == induced
        and compose_tree_maps(identity_tree_map(induced.target), induced) == induced,
        tag,
    )

    if h is not None:
        try:
            composed = compose_morphisms(h, f)
        except DepthExhausted:
            composed = None
        if composed is not None:
            lhs = induce_tree_map(composed)
            rhs = compose_tree_maps(induce_tree_map(h), induce_tree_map(f))
            summary.record("composition-homotopic", homotopy_properness(lhs, rhs).proper, tag)
            try:
                ext = morphisms_equivalent(extract_morphism(rhs), composed)
                summary.record("composition-extracted", ext.verdict != NOT_EQUIVALENT, tag)
            except NotProper:
                summary.skip("composition-extracted")


# The corpus draws seed s for x, s + 10_000 for y and s + 20_000 for z, so
# up to this count no tower of one role reuses another role's seed.
MAX_ROUNDTRIP_SEEDS = 10_000


def _constant_tower(depth: int, size: int) -> Tower:
    ids = [str(i) for i in range(size)]
    return Tower([ids] * depth, [{x: x for x in ids}] * (depth - 1))


def run_roundtrip_corpus(seed_count: int) -> CorpusSummary:
    """Functor-law checks over fixed instances plus a seeded corpus.
    Refuses a seed count outside 0..MAX_ROUNDTRIP_SEEDS before any check."""
    if not 0 <= seed_count <= MAX_ROUNDTRIP_SEEDS:
        raise InvalidParameter(f"seed count must lie in 0..{MAX_ROUNDTRIP_SEEDS}")
    summary = CorpusSummary(counts={}, failures=[], skips={})
    fixed = [
        ("constant-6", _constant_tower(6, 3)),
        ("constant-8", _constant_tower(8, 2)),
        ("two-branch", Tower([["a"], ["b1", "b2"], ["c1"]], [{"b1": "a", "b2": "a"}, {"c1": "b1"}])),
    ]
    for tag, tower in fixed:
        ident = identity_morphism(tower)
        try:
            _check_instance(summary, tag, tower, ident, ident)
        except TowerTreeError as e:
            summary.record("no-exceptions", False, f"{tag}: {e}")
    for seed in range(seed_count):
        depth = 2 + seed % 7
        size = 1 + seed % 5
        bias = (seed % 11) / 10.0
        x = gen_random_tower(seed, depth, size, bias)
        y = gen_random_tower(seed + 10_000, depth, size, bias)
        z = gen_random_tower(seed + 20_000, depth, size, bias)
        f = random_morphism(seed, x, y)
        h = random_morphism(seed + 10_000, y, z)
        try:
            _check_instance(summary, f"seed-{seed}", x, f, h)
        except TowerTreeError as e:
            summary.record("no-exceptions", False, f"seed-{seed}: {e}")
    return summary
