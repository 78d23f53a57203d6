"""Example generators: the curated constructions plus seeded random corpora.

Everything here is deterministic given its parameters; random instances
hash the seed into independent streams so that a tower and the morphisms
on it do not share state.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ends import UltrametricSpace, certified_ln_sign, grid_space, rational_space
from .errors import InvalidParameter
from .groups import GroupTower, ScaleHom, TableGroup, TableHom, WindowedZ, _decimal_ids
from .towers import (
    MAX_GENERATOR_IDS,
    Tower,
    TowerMorphism,
    _pull_back,
    _reach,
    natural_key,
    windowed_solenoid_tower,
)


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

    n is the least integer with e^{-n} < (d/k)^k, certified by interval
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

    def row(self, k: int) -> BiHolderRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise InvalidParameter(f"no row for k={k}")

    def violation_at(self, c: int, l: Fraction) -> int | None:
        for cc, ll, k in self.violations:
            if cc == c and ll == l:
                return k
        raise InvalidParameter(f"no grid cell ({c}, {l})")


def _minimal_exponent(k: int) -> int:
    """Least integer strictly above k * ln(k * 2^(k+1)).

    The bound is irrational (a log of an integer >= 16), so the walk
    around the float guess terminates with a certified floor.
    """
    m = k * (1 << (k + 1))
    c = int(k * math.log(m))
    while certified_ln_sign(Fraction(m), Fraction(c, k)) <= 0:  # c/k >= ln m: c too big
        c -= 1
    while certified_ln_sign(Fraction(m), Fraction(c + 1, k)) >= 0:  # c+1 still below k ln m
        c += 1
    return c + 1


DEFAULT_C_GRID = (1, 10, 100)
DEFAULT_L_GRID = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


def gen_biholder(
    k_max: int,
    c_grid: Sequence[int] = DEFAULT_C_GRID,
    l_grid: Sequence[Fraction] = DEFAULT_L_GRID,
) -> BiHolderTable:
    """Rows k = 2..k_max plus, per (C, l), the least k whose simplicial
    distance e^{-n_k} already beats the candidate Hoelder bound:
    C (e^{-n_k})^l < 1/2^{k+1}."""
    if k_max < 2:
        raise InvalidParameter("k_max must be >= 2")
    c_grid = tuple(int(c) for c in c_grid)
    l_grid = tuple(Fraction(l) for l in l_grid)
    if any(c < 1 for c in c_grid):
        raise InvalidParameter("C values must be >= 1")
    if any(not 0 < l < 1 for l in l_grid):
        raise InvalidParameter("l values must lie in (0, 1)")
    rows = []
    for k in range(2, k_max + 1):
        n = _minimal_exponent(k)
        # e^{-n} < (d/k)^k  <=>  n > k ln(k/d) = k ln(k 2^{k+1})
        certified = certified_ln_sign(Fraction(k * (1 << (k + 1))), Fraction(n, k)) < 0
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

    @property
    def count(self) -> int:
        return len(self.distances)


def gen_example_nonretract(count: int = 10) -> NonRetractReport:
    """The distances 1/2^i, i = 1..count.  Like towers._check_generator,
    refuses a count whose numbers would not print within Python's int/str
    digit limit, before building any."""
    if count < 1:
        raise InvalidParameter("count must be >= 1")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    most = (10**digits).bit_length() - 1  # the largest count with 2^count < 10^digits
    if digits and count > most:
        raise InvalidParameter(f"count must be at most {most}: 2^count prints within {digits} digits")
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
    sizes = [rng.randint(1, max_level_size)]
    levels = [[str(i) for i in range(sizes[0])]]
    bonds = []
    for n in range(1, depth):
        onto = rng.random() < surjectivity_bias
        prev = levels[-1]
        if onto:
            size = rng.randint(len(prev), max_level_size)
        else:
            size = rng.randint(1, max_level_size)
        ids = [str(i) for i in range(size)]
        parents = list(prev)
        rng.shuffle(parents)
        bond = {}
        for i, x in enumerate(ids):
            if onto and i < len(parents):
                bond[x] = parents[i]
            else:
                bond[x] = rng.choice(prev)
        levels.append(ids)
        bonds.append(bond)
    return Tower(levels, bonds)


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
    level1 = target.level(1)
    deep = [x for x, r in zip(level1, _reach(target)[0]) if r == target.depth]
    f1 = {}
    for x in source.level(phi[0]):
        if rng.random() < 0.8:
            f1[x] = rng.choice(deep)
        else:
            f1[x] = rng.choice(list(target.level(1)))
    components = [f1]
    for n in range(1, length):
        prev = components[-1]
        needs = _pull_back(source, [prev[x] for x in source.level(phi[n - 1])], phi[n - 1], phi[n])
        q = target.bond(n)
        comp = {}
        for y, need in zip(source.level(phi[n]), needs):
            candidates = [z for z in target.level(n + 1) if q[z] == need]
            if not candidates:
                comp = None
                break
            comp[y] = rng.choice(candidates)
        if comp is None:
            phi = phi[:n]
            break
        components.append(comp)
    return TowerMorphism(source, target, phi[: len(components)], components)


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
    bonds = []
    for n in range(1, depth):
        c = rng.randint(0, orders[n - 1] - 1)
        ids = _decimal_ids(orders[n - 1])
        bonds.append(TableHom({x: ids[c * i % len(ids)] for i, x in enumerate(levels[n].elements)}))
    return GroupTower(levels, bonds)


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
