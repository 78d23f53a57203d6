"""Towers of groups at desk scale.

Finite groups are multiplication tables on element positions (orders <= 64
in practice, plus a cyclic constructor); windowed infinite cyclic levels
stay symbolic.  Bonds are table homomorphisms, checked exhaustively, or
scalings z -> k z, checked arithmetically; a group tower keeps them once, as
the parent positions of its underlying tower.  The inverse limit is
enumerated as threads.  Conditions (M) and (E) are closed-world at the
truncation depth, like every other verdict in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import product
from operator import getitem
from typing import Mapping, Sequence

from .ends import agreement
from .errors import (
    DifferentTowers,
    ElementNotInLevel,
    IndexOutOfRange,
    NotLevelMorphism,
    NotML,
    UnsupportedMode,
    ValidationError,
    WindowOverflow,
)
from .towers import (
    HOLDS,
    SolenoidOracle,
    Tower,
    TowerMorphism,
    _core_positions,
    _forever_positions,
    _pull_back,
    _reach,
    ml_verdict,
    natural_key,
)


@lru_cache(maxsize=64)
def _decimal_ids(m: int) -> tuple[str, ...]:
    """The ids "0".."m-1" of Z/m, built once per order and shared."""
    return tuple([str(i) for i in range(m)])


class TableGroup:
    """A finite group on element positions: elements in natural_key order,
    index their positions, rows[i][j] the position of elements[i] *
    elements[j], inverses[i] that of elements[i]^-1, e that of the unit.
    op_table and inverse_table, keyed by ids, are views built on first use."""

    __slots__ = ("elements", "index", "rows", "e", "unit", "inverses", "_op_table", "_inverse_table")

    def __init__(self, elements: Sequence[str], op_table: Mapping[tuple[str, str], str]):
        elems = tuple(sorted(elements, key=natural_key))
        position = {x: i for i, x in enumerate(elems)}
        if not elems or len(position) != len(elems):
            raise ValidationError("group elements must be a nonempty set of distinct ids")
        rows = [[position.get(op_table.get((a, b))) for b in elems] for a in elems]
        for a, row in zip(elems, rows):
            if None in row:
                raise ValidationError(f"table not closed at ({a}, {elems[row.index(None)]})")
        if len(op_table) != len(elems) ** 2:
            raise ValidationError("table has entries outside the group")
        places = range(len(elems))
        for (i, row), j in product(enumerate(rows), places):
            left, right = rows[row[j]], [row[x] for x in rows[j]]
            if left != right:
                k = next(k for k, (u, v) in enumerate(zip(left, right)) if u != v)
                raise ValidationError(f"associativity fails at ({elems[i]}, {elems[j]}, {elems[k]})")
        e = next((e for e in places if all(rows[e][i] == i == rows[i][e] for i in places)), None)
        if e is None:
            raise ValidationError("no two-sided unit")
        inverses = [next((j for j in places if rows[i][j] == e == rows[j][i]), None) for i in places]
        if None in inverses:
            raise ValidationError(f"{elems[inverses.index(None)]} has no inverse")
        self._set(elems, rows, e, inverses)

    @classmethod
    def _trusted(cls, elements: Sequence[str], rows, e: int, inverses) -> TableGroup:
        """A group whose elements are in order and whose law holds by construction."""
        grp = cls.__new__(cls)
        grp._set(tuple(elements), rows, e, inverses)
        return grp

    def _set(self, elements, rows, e, inverses) -> None:
        self.elements = elements
        self.index = {x: i for i, x in enumerate(elements)}
        self.rows = rows
        self.e, self.unit = e, elements[e]
        self.inverses = inverses
        self._op_table = self._inverse_table = None

    @classmethod
    def cyclic(cls, m: int) -> TableGroup:
        """Z/m on the ids "0".."m-1": i * j = (i + j) mod m, unit "0", i^-1 = -i mod m."""
        if m < 1:
            raise ValidationError("cyclic order must be >= 1")
        cycle = list(range(m)) * 2
        rows = [cycle[i : i + m] for i in range(m)]
        return cls._trusted(_decimal_ids(m), rows, 0, cycle[m:0:-1])

    @property
    def op_table(self) -> dict[tuple[str, str], str]:
        """{(a, b): a * b}, keys in sorted order."""
        if self._op_table is None:
            ids, rows = self.elements, self.rows
            order = sorted(range(len(ids)), key=ids.__getitem__)
            self._op_table = {(ids[i], ids[j]): ids[rows[i][j]] for i in order for j in order}
        return self._op_table

    @property
    def inverse_table(self) -> dict[str, str]:
        """{a: a^-1}, keys in element order."""
        if self._inverse_table is None:
            ids = self.elements
            self._inverse_table = dict(zip(ids, map(ids.__getitem__, self.inverses)))
        return self._inverse_table

    row = property(lambda self: self.rows.__getitem__)  # row(i), as on a window

    def restricted(self, subset) -> TableGroup:
        """The subgroup on a nonempty subset closed under op and inverse; only
        closure is validated, associativity and the unit are inherited."""
        members = set(subset)
        stray = members - self.index.keys()
        if stray:
            raise ElementNotInLevel(f"not group elements: {sorted(stray)}")
        if not members:
            raise ValidationError("group elements must be a nonempty set of distinct ids")
        positions = sorted(map(self.index.__getitem__, members))
        ids, rows, inv = self.elements, self.rows, self.inverses
        where = {i: j for j, i in enumerate(positions)}
        for i, j in product(positions, repeat=2):
            if rows[i][j] not in where:
                raise ValidationError(f"subset not closed: {ids[i]}*{ids[j]} = {ids[rows[i][j]]}")
        for i in positions:
            if inv[i] not in where:
                raise ValidationError(f"subset not closed under inverse: {ids[i]}^-1 = {ids[inv[i]]}")
        sub = [[where[rows[i][j]] for j in positions] for i in positions]
        inverses = [where[inv[i]] for i in positions]
        return TableGroup._trusted([ids[i] for i in positions], sub, where[self.e], inverses)

    def op(self, a: str, b: str) -> str:
        try:
            return self.elements[self.rows[self.index[a]][self.index[b]]]
        except KeyError:
            raise ElementNotInLevel(f"({a}, {b}) not in this group") from None

    def inv(self, a: str) -> str:
        try:
            return self.elements[self.inverses[self.index[a]]]
        except KeyError:
            raise ElementNotInLevel(f"{a} not in this group") from None

    def __eq__(self, other) -> bool:
        same = isinstance(other, TableGroup)
        return same and self.elements == other.elements and self.rows == other.rows

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"TableGroup(order={len(self.elements)})"


@dataclass(frozen=True)
class WindowedZ:
    """The integers in [-bound, bound], a symbolic window onto Z: z sits at
    position z + bound, and addition outside the window raises
    WindowOverflow.  This is the honest desk-scale face of an infinite
    level, not a finite group, so a row is built only when asked for."""

    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValidationError("window bound must be >= 0")

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(str(z) for z in range(-self.bound, self.bound + 1))

    index = property(lambda self: {x: i for i, x in enumerate(self.elements)})
    unit = "0"
    e = property(lambda self: self.bound)
    inverses = property(lambda self: range(2 * self.bound, -1, -1))

    def row(self, i: int) -> list[int | None]:
        """Op row i on positions: i + j - bound at j, None where that leaves the window."""
        b = self.bound
        return [None] * (b - i) + [*range(max(i - b, 0), min(i + b, 2 * b) + 1)] + [None] * (i - b)

    def op(self, a: str, b: str) -> str:
        z = self._int(a) + self._int(b)
        if abs(z) > self.bound:
            raise WindowOverflow(f"{a} + {b} leaves the window [-{self.bound}, {self.bound}]")
        return str(z)

    def inv(self, a: str) -> str:
        return str(-self._int(a))

    def _int(self, a: str) -> int:
        z = int(a)
        if abs(z) > self.bound:
            raise ElementNotInLevel(f"{a} outside the window [-{self.bound}, {self.bound}]")
        return z


@dataclass(frozen=True)
class TableHom:
    """A homomorphism given elementwise."""

    mapping: Mapping[str, str] = dataclass_field(hash=False)

    def apply(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise ElementNotInLevel(f"{x} not in the domain of this homomorphism") from None

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __eq__(self, other) -> bool:
        return isinstance(other, TableHom) and self.mapping == other.mapping

    def __hash__(self):
        return hash(tuple(sorted(self.mapping.items())))


@dataclass(frozen=True)
class ScaleHom:
    """z -> k z between windowed levels; the homomorphism law is identical
    in the symbols, so only totality needs an arithmetic check."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("scale factor must be >= 1")

    def apply(self, x: str) -> str:
        return str(self.k * int(x))


GroupBond = TableHom | ScaleHom
Group = TableGroup | WindowedZ


def _bond_row(src: Group, dst: Group, bond: GroupBond, position: int) -> Sequence[int]:
    """The bond as target positions, u[i] for bond(src[i]), once checked.
    The law u(i * j) = u(i) * u(j) is compared one source row at a time, and
    a row is scanned pair by pair only on a mismatch, or on a windowed
    source, where some sums do not exist."""
    if isinstance(bond, ScaleHom):
        if not isinstance(src, WindowedZ) or not isinstance(dst, WindowedZ):
            raise ValidationError(f"bond {position}: scalings need windowed levels on both sides")
        reach = bond.k * src.bound
        if reach > dst.bound:
            raise ValidationError(f"bond {position}: scaling by {bond.k} leaves the target window")
        return range(dst.bound - reach, dst.bound + reach + 1, bond.k)
    elems, mapping, where = src.elements, bond.mapping, dst.index
    if mapping.keys() != set(elems):
        raise ValidationError(f"bond {position} is not total on its source level")
    u = [where.get(mapping[x]) for x in elems]
    if None in u:
        raise ValidationError(f"bond {position} leaves its target level")
    if u[src.e] != dst.e:
        raise ValidationError(f"bond {position} does not preserve the unit")
    ids = dst.elements
    for i, fi in enumerate(u):
        row, image = src.row(i), dst.row(fi)
        if None in row or [u[k] for k in row] != [image[j] for j in u]:
            for j, k in enumerate(row):
                # a sum that leaves the source window does not exist: nothing to check
                if k is not None and ids[u[k]] != dst.op(ids[fi], ids[u[j]]):
                    raise ValidationError(
                        f"bond {position} is not a homomorphism at ({elems[i]}, {elems[j]})"
                    )
    return u


def _tower_of(levels: Sequence[Group], bonds: Sequence[GroupBond], up) -> Tower:
    """The underlying tower.  Windowed levels joined by scalings keep a
    divisibility oracle, so ML verdicts stay exact, when every window bound
    agrees with the scale factors repeated by their shortest period."""
    oracle, windowed = None, all(isinstance(grp, WindowedZ) for grp in levels)
    if windowed and all(isinstance(b, ScaleHom) for b in bonds):
        ks = tuple(b.k for b in bonds) or (1,)
        periods = range(1, len(ks) + 1)
        factors = next(ks[:d] for d in periods if all(k == ks[i % d] for i, k in enumerate(ks)))
        candidate = SolenoidOracle(primes=factors, window=levels[0].bound)
        if [grp.bound for grp in levels] == list(candidate.level_bounds(len(levels))):
            oracle = candidate
    return Tower._ordered([grp.elements for grp in levels], up, oracle)


class GroupTower:
    """An inverse sequence of groups with homomorphism bonds: its underlying
    Tower (ids, and bonds as parent positions) plus each level's law on
    positions.  levels and bonds keep the input forms."""

    __slots__ = ("levels", "bonds", "tower")

    def __init__(self, levels: Sequence[Group], bonds: Sequence[GroupBond]):
        if not levels:
            raise ValidationError("a group tower needs at least one level")
        if len(bonds) != len(levels) - 1:
            raise ValidationError(
                f"need {len(levels) - 1} bonds for {len(levels)} levels, got {len(bonds)}"
            )
        up = [_bond_row(levels[n], levels[n - 1], bond, n) for n, bond in enumerate(bonds, start=1)]
        self._set(levels, bonds, _tower_of(levels, bonds, up))

    @classmethod
    def _trusted(cls, levels: Sequence[Group], bonds: Sequence[GroupBond], tower) -> GroupTower:
        """A tower, with its underlying tower, whose bonds are homomorphisms by construction."""
        g = cls.__new__(cls)
        g._set(levels, bonds, tower)
        return g

    def _set(self, levels, bonds, tower) -> None:
        self.levels = tuple(levels)
        self.bonds = tuple(bonds)
        self.tower = tower

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> Group:
        if not 1 <= n <= self.depth:
            raise IndexOutOfRange(f"level {n} not in 1..{self.depth}")
        return self.levels[n - 1]

    def bond(self, n: int) -> GroupBond:
        if not 1 <= n <= self.depth - 1:
            raise IndexOutOfRange(f"bond {n} not in 1..{self.depth - 1}")
        return self.bonds[n - 1]

    def __eq__(self, other) -> bool:
        same = isinstance(other, GroupTower)
        return same and self.levels == other.levels and self.bonds == other.bonds

    def __hash__(self):
        return hash((self.levels, self.bonds))

    def __repr__(self) -> str:
        sizes = "x".join(map(str, self.tower.sizes))
        return f"GroupTower(depth={self.depth}, orders={sizes})"


def underlying_tower(g: GroupTower) -> Tower:
    """Forget the group structure (a scaling tower keeps its oracle)."""
    return g.tower


# ---------------------------------------------------------------------------
# Threads (the inverse limit)


@dataclass(frozen=True)
class Thread:
    """A coherent sequence through all levels: p_n(g_{n+1}) = g_n."""

    entries: tuple[str, ...]
    tower: GroupTower = dataclass_field(compare=False, repr=False, default=None)

    def at(self, n: int) -> str:
        if not 1 <= n <= len(self.entries):
            raise IndexOutOfRange(f"thread has no entry at level {n}")
        return self.entries[n - 1]


def _thread_positions(tower: Tower) -> list[tuple[int, ...]]:
    """The threads as position tuples, sorted as their ids are: a thread is
    determined by its deepest entry, one of that level's forever positions."""
    down = [_forever_positions(tower)]
    for u in reversed(tower.up):
        down.append([u[i] for i in down[-1]])
    return sorted(zip(*reversed(down)))


def _threads(g: GroupTower, positions) -> tuple[Thread, ...]:
    return tuple(Thread(tuple([ids[i] for ids, i in zip(g.tower.levels, t)]), g) for t in positions)


def limit_threads(g: GroupTower) -> tuple[Thread, ...]:
    """All threads, ordered by their entries."""
    return _threads(g, _thread_positions(g.tower))


def thread_distance(a: Thread, b: Thread) -> int | None:
    """The length of the threads' shared prefix; None when they are equal."""
    if (
        a.tower is not b.tower
        and a.tower is not None
        and b.tower is not None
        and a.tower != b.tower
    ):
        raise DifferentTowers("threads belong to different towers")
    return agreement(a.entries, b.entries)


def thread_product(g: GroupTower, a: Thread, b: Thread) -> Thread:
    entries = tuple(grp.op(x, y) for grp, x, y in zip(g.levels, a.entries, b.entries))
    return _full_thread(g, entries)


def thread_inverse(g: GroupTower, a: Thread) -> Thread:
    entries = tuple(grp.inv(x) for grp, x in zip(g.levels, a.entries))
    return _full_thread(g, entries)


def _full_thread(g: GroupTower, entries: tuple[str, ...]) -> Thread:
    """A thread of g, once every level has an entry (zip stops at a short thread)."""
    if len(entries) < g.depth:
        raise IndexOutOfRange(f"thread has no entry at level {len(entries) + 1}")
    return Thread(entries=entries, tower=g)


@dataclass(frozen=True)
class IsometryVerdict:
    valid: bool
    violation: tuple[Thread, Thread, Thread] | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.valid


def check_translation_isometry(g: GroupTower) -> IsometryVerdict:
    """d(ka, kb) = d(a, b) and d(a^-1, b^-1) = d(a, b), exhaustively.

    Threads are tuples of level positions.  Each inverse and each of the T²
    products k.a is built once through the levels' op rows, as a point
    numbered after the T threads (only a table altered after construction
    makes a new one), or -1 where it leaves a window and so does not exist
    at this truncation.  For each pair (a, b) the depths of its inverses
    and of every (ka, kb) are read off the agreement table in one run of
    row lookups, where an undefined product reads a miss and is skipped; the
    run is walked only when a defined depth differs from d(a, b), to report
    the first violation.  checked counts the triples compared.
    """
    threads = _thread_positions(g.tower)
    count = len(threads)
    columns = list(zip(*threads))  # columns[n][a], the position of thread a at level n
    where = {t: i for i, t in enumerate(threads)}

    def place(points) -> list[int]:
        return [-1 if None in p else where.setdefault(p, len(where)) for p in points]

    inverses = place(zip(*[map(grp.inverses.__getitem__, c) for grp, c in zip(g.levels, columns)]))
    products = []  # products[k][a], the number of k.a
    for k in threads:
        rows = [grp.row(x).__getitem__ for grp, x in zip(g.levels, k)]
        products.append(place(zip(*map(map, rows, columns))))
    points, miss = list(where), object()
    agree = [[agreement(p, q) for q in points] + [miss] for p in points]  # row/column -1: miss
    agree.append([miss] * (len(points) + 1))
    lanes = [[x, *kx] for x, kx in zip(inverses, zip(*products))]  # the inverse of a, then k.a
    checked = 0
    for a, lane_a in enumerate(lanes):
        rows_a = [agree[x] for x in lane_a]
        for b, lane_b in enumerate(lanes):
            base, depths = agree[a][b], list(map(getitem, rows_a, lane_b))
            undefined = depths.count(miss)
            if depths.count(base) + undefined > count:
                checked += count - undefined
                continue
            # k = -1 is the pair of inverses, reported as (a, a, b) and not counted
            for k, (x, y, d) in enumerate(zip(lane_a, lane_b, depths), start=-1):
                if x >= 0 <= y:
                    checked += k >= 0
                    if d != base:
                        found = _threads(g, [threads[a if k < 0 else k], threads[a], threads[b]])
                        return IsometryVerdict(False, found, checked)
    return IsometryVerdict(valid=True, checked=checked)


# ---------------------------------------------------------------------------
# Level morphisms of group towers


class GroupLevelMorphism:
    """A strictly level-preserving morphism: homs f_n with q_n f_{n+1} = f_n p_n.

    Components are stored like bonds: rows[n-1][i] is the position in H_n
    of f_n(G_n[i]), for source levels G_n and target levels H_n;
    components keeps the input forms."""

    __slots__ = ("source", "target", "rows", "components")

    def __init__(self, source: GroupTower, target: GroupTower, components: Sequence[GroupBond]):
        if not components:
            raise ValidationError("a level morphism needs at least one component")
        if len(components) > min(source.depth, target.depth):
            raise ValidationError("more components than levels")
        rows = [
            _bond_row(source.level(n), target.level(n), f, n)
            for n, f in enumerate(components, start=1)
        ]
        for n in range(1, len(rows)):
            p, q = source.tower.up[n - 1], target.tower.up[n - 1]
            down, across = [rows[n - 1][i] for i in p], [q[j] for j in rows[n]]
            if down != across:
                x = next(x for x, y, z in zip(source.tower.levels[n], down, across) if y != z)
                raise NotLevelMorphism(f"square {n} does not commute at {x}")
        self._set(source, target, rows, components)

    @classmethod
    def _trusted(cls, source, target, rows: Sequence[Sequence[int]]) -> GroupLevelMorphism:
        """A level morphism of homomorphism rows whose squares commute by construction."""
        m = cls.__new__(cls)
        levels = zip(source.tower.levels, target.tower.levels, rows)
        m._set(source, target, rows, [TableHom(dict(zip(x, [y[j] for j in r]))) for x, y, r in levels])
        return m

    def _set(self, source, target, rows, components) -> None:
        self.source = source
        self.target = target
        self.rows = tuple(rows)
        self.components = tuple(components)

    @property
    def defined_upto(self) -> int:
        return len(self.rows)

    def component(self, n: int) -> GroupBond:
        if not 1 <= n <= self.defined_upto:
            raise IndexOutOfRange(f"component {n} not in 1..{self.defined_upto}")
        return self.components[n - 1]


def identity_group_morphism(g: GroupTower) -> GroupLevelMorphism:
    return GroupLevelMorphism._trusted(g, g, [range(size) for size in g.tower.sizes])


@dataclass(frozen=True)
class ConditionReport:
    """Per-level witnesses for a kernel/image containment condition.

    witnesses[i] = (n, m): the least m that works for level n; a closed
    world violation stops the table."""

    kind: str  # "M" or "E"
    witnesses: tuple[tuple[int, int], ...]
    violation: int | None = None

    @property
    def holds(self) -> bool:
        return self.violation is None

    def __bool__(self) -> bool:
        return self.holds


def check_condition_M(m: GroupLevelMorphism) -> ConditionReport:
    """(M): for each n some m >= n has Ker(f_m) contained in Ker(p_{nm}).

    Ker(p_{nm}) is read on the source's underlying tower: the unit flags
    of level n, pulled back one level at a time."""
    source = m.source.tower
    kernels = [[y == grp.e for y in row] for row, grp in zip(m.rows, m.target.levels)]
    witnesses = []
    for n in range(1, m.defined_upto + 1):
        unit = m.source.levels[n - 1].e
        ker_p = [i == unit for i in range(len(source.levels[n - 1]))]
        for mm, ker_f in enumerate(kernels[n - 1 :], start=n):
            if all(p or not f for f, p in zip(ker_f, ker_p)):
                witnesses.append((n, mm))
                break
            ker_p = _pull_back(source, ker_p, mm, mm + 1)
        else:
            return ConditionReport(kind="M", witnesses=tuple(witnesses), violation=n)
    return ConditionReport(kind="M", witnesses=tuple(witnesses))


def check_condition_E(m: GroupLevelMorphism) -> ConditionReport:
    """(E): for each n some m >= n has Im(q_{nm}) contained in Im(f_n).

    Im(q_{nm}) is {reach >= m} on the target's underlying tower, so the
    least such m is one past the deepest reach outside Im(f_n)."""
    target = m.target.tower
    witnesses = []
    for n, (row, reach) in enumerate(zip(m.rows, _reach(target)), start=1):
        image = set(row)
        outside = (r for j, r in enumerate(reach) if j not in image)
        found = 1 + max(outside, default=n - 1)
        if found > target.depth:
            return ConditionReport(kind="E", witnesses=tuple(witnesses), violation=n)
        witnesses.append((n, found))
    return ConditionReport(kind="E", witnesses=tuple(witnesses))


@dataclass(frozen=True)
class IsoVerdict:
    is_iso: bool
    condition_m: ConditionReport
    condition_e: ConditionReport

    def __bool__(self) -> bool:
        return self.is_iso


def is_group_tower_iso(m: GroupLevelMorphism) -> IsoVerdict:
    """Mono and epi together: (M) and (E)."""
    cm = check_condition_M(m)
    ce = check_condition_E(m)
    return IsoVerdict(is_iso=cm.holds and ce.holds, condition_m=cm, condition_e=ce)


# ---------------------------------------------------------------------------
# The ML projection lemma and the core isomorphism


def ml_projection_check(g: GroupTower) -> tuple[tuple[int, int], ...]:
    """For each n the least m with p_{nm}(G_m) = pi_n(lim G), requiring an
    ML verdict of Holds first: the threads of a truncated tower project onto
    the eventual images p_{nD}(G_D), so this is the ML stabilization plus (D, D)."""
    report = ml_verdict(g.tower)
    if report.verdict != HOLDS:
        raise NotML(f"ml verdict is {report.verdict}, projection lemma needs holds")
    return tuple((r.level, r.stabilization) for r in report.per_level) + ((g.depth, g.depth),)


@dataclass(frozen=True)
class CoreIso:
    """The surjective-image core with the two morphisms that exhibit the
    isomorphism: a level inclusion and an index-shifting inverse."""

    core: GroupTower
    inclusion: GroupLevelMorphism
    inverse: TowerMorphism  # on underlying towers; phi(n) = projection witness


def core_iso_construction(g: GroupTower) -> CoreIso:
    """G is isomorphic to its core when ML holds (NotML otherwise).

    Core level n is the subgroup pi_n(lim G) of G_n, the core positions of
    the underlying tower: on a windowed level it must be all of it or a
    window [-b, b] (UnsupportedMode otherwise).  Core bonds are restrictions,
    so the core tower and the inclusion are trusted."""
    projections = ml_projection_check(g)
    tower = g.tower
    kept = _core_positions(tower)
    core_levels: list[Group] = []
    for n, (grp, ids, positions) in enumerate(zip(g.levels, tower.levels, kept), start=1):
        half = (len(positions) - 1) // 2
        if len(positions) == len(ids):
            core_levels.append(grp)
        elif isinstance(grp, TableGroup):
            core_levels.append(grp.restricted(map(ids.__getitem__, positions)))
        elif list(positions) == list(range(grp.bound - half, grp.bound + half + 1)):
            core_levels.append(WindowedZ(half))
        else:
            raise UnsupportedMode(
                f"level {n}: pi_{n}(lim G) is not a window of [-{grp.bound}, {grp.bound}]"
            )
    at = [dict(zip(positions, range(len(positions)))) for positions in kept]  # X_n -> core
    core_up = [[at[n - 1][u[i]] for i in kept[n]] for n, u in enumerate(tower.up, start=1)]
    core_bonds = [
        bond if isinstance(bond, ScaleHom)
        else TableHom(dict(zip(src.elements, map(dst.elements.__getitem__, u))))
        for bond, u, src, dst in zip(g.bonds, core_up, core_levels[1:], core_levels)
    ]
    core = GroupTower._trusted(core_levels, core_bonds, _tower_of(core_levels, core_bonds, core_up))
    inclusion = GroupLevelMorphism._trusted(core, g, kept)
    phi = [m for _, m in projections]
    # p_{n phi(n)} lands in the core; the projection witnesses are nondecreasing in n
    rows = [
        _pull_back(tower, list(map(where.get, range(len(ids)))), n, m)
        for n, (where, ids, m) in enumerate(zip(at, tower.levels, phi), start=1)
    ]
    inverse = TowerMorphism._trusted(tower, core.tower, phi, rows)
    return CoreIso(core=core, inclusion=inclusion, inverse=inverse)


def as_tower_morphism(m: GroupLevelMorphism) -> TowerMorphism:
    """Forget the group structure of a level morphism."""
    phi = list(range(1, m.defined_upto + 1))
    return TowerMorphism._trusted(m.source.tower, m.target.tower, phi, m.rows)
