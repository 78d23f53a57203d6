"""Towers of groups at desk scale.

Finite groups are multiplication tables (orders <= 64 in practice, plus a
cyclic constructor); windowed infinite cyclic levels stay symbolic and
never materialize a table.  Bonds are table homomorphisms, checked
exhaustively, or symbolic scalings z -> k z, checked arithmetically.

The inverse limit is enumerated as threads; its ultrametric reuses the
end-space agreement depth.  Conditions (M) and (E) are closed-world at the
truncation depth, like every other verdict in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

from .ends import agreement
from .errors import (
    DifferentTowers,
    ElementNotInLevel,
    IndexOutOfRange,
    NotLevelMorphism,
    NotML,
    ValidationError,
    WindowOverflow,
)
from .towers import (
    HOLDS,
    SolenoidOracle,
    Tower,
    TowerMorphism,
    _pull_back,
    _reach,
    ml_verdict,
    natural_key,
)


class TableGroup:
    """A finite group given by its multiplication table."""

    __slots__ = ("elements", "op_table", "unit", "inverse_table")

    def __init__(self, elements: Sequence[str], op_table: Mapping[tuple[str, str], str]):
        elems = tuple(sorted(elements, key=natural_key))
        position = {x: i for i, x in enumerate(elems)}
        if not elems or len(position) != len(elems):
            raise ValidationError("group elements must be a nonempty set of distinct ids")
        # rows[i][j] is the position of elems[i] * elems[j]
        rows: list[list[int]] = []
        for a in elems:
            row = []
            for b in elems:
                c = position.get(op_table.get((a, b)))
                if c is None:
                    raise ValidationError(f"table not closed at ({a}, {b})")
                row.append(c)
            rows.append(row)
        if len(op_table) != len(elems) ** 2:
            raise ValidationError("table has entries outside the group")
        for i, row in enumerate(rows):
            for j, ij in enumerate(row):
                left, right = rows[ij], [row[x] for x in rows[j]]
                if left != right:
                    k = next(k for k, (u, v) in enumerate(zip(left, right)) if u != v)
                    raise ValidationError(
                        f"associativity fails at ({elems[i]}, {elems[j]}, {elems[k]})"
                    )
        places = range(len(elems))
        e = next((e for e in places if all(rows[e][i] == i == rows[i][e] for i in places)), None)
        if e is None:
            raise ValidationError("no two-sided unit")
        unit = elems[e]
        inverse = {}
        for i, row in enumerate(rows):
            j = next((j for j in places if row[j] == e == rows[j][i]), None)
            if j is None:
                raise ValidationError(f"{elems[i]} has no inverse")
            inverse[elems[i]] = elems[j]
        self._set(elems, op_table, unit, inverse)

    @classmethod
    def _trusted(cls, elements: Sequence[str], op_table, unit: str, inverse) -> TableGroup:
        """A group from elements already in natural_key order, for builders
        whose group law holds by construction; nothing is checked."""
        grp = cls.__new__(cls)
        grp._set(tuple(elements), op_table, unit, inverse)
        return grp

    def _set(self, elements, op_table, unit, inverse) -> None:
        self.elements = elements
        self.op_table = {k: op_table[k] for k in sorted(op_table)}
        self.unit = unit
        self.inverse_table = inverse

    @classmethod
    def cyclic(cls, m: int) -> TableGroup:
        """Z/m on the ids "0".."m-1": i * j = (i + j) mod m, unit "0", i^-1 = -i mod m."""
        if m < 1:
            raise ValidationError("cyclic order must be >= 1")
        elems = [str(i) for i in range(m)]
        table = {(a, elems[j]): elems[(i + j) % m] for i, a in enumerate(elems) for j in range(m)}
        return cls._trusted(elems, table, "0", {a: elems[-i % m] for i, a in enumerate(elems)})

    def restricted(self, subset) -> TableGroup:
        """The subgroup on a nonempty subset closed under op and inverse.

        Closure is validated; associativity and the unit are inherited from
        this group, so the subgroup is built on the trusted path."""
        members = set(subset)
        sub = sorted(members, key=natural_key)
        stray = members - set(self.elements)
        if stray:
            raise ElementNotInLevel(f"not group elements: {sorted(stray)}")
        if not sub:
            raise ValidationError("group elements must be a nonempty set of distinct ids")
        table = {}
        for a in sub:
            for b in sub:
                c = self.op_table[(a, b)]
                if c not in members:
                    raise ValidationError(f"subset not closed: {a}*{b} = {c}")
                table[(a, b)] = c
        inverse = {a: self.inverse_table[a] for a in sub}
        for a, b in inverse.items():
            if b not in members:
                raise ValidationError(f"subset not closed under inverse: {a}^-1 = {b}")
        return TableGroup._trusted(sub, table, self.unit, inverse)

    def op(self, a: str, b: str) -> str:
        try:
            return self.op_table[(a, b)]
        except KeyError:
            raise ElementNotInLevel(f"({a}, {b}) not in this group") from None

    def inv(self, a: str) -> str:
        try:
            return self.inverse_table[a]
        except KeyError:
            raise ElementNotInLevel(f"{a} not in this group") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TableGroup)
            and self.elements == other.elements
            and self.op_table == other.op_table
        )

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"TableGroup(order={len(self.elements)})"


@dataclass(frozen=True)
class WindowedZ:
    """The integers in [-bound, bound], a symbolic window onto Z.

    Addition outside the window raises WindowOverflow; this is the honest
    desk-scale face of an infinite level, not a finite group.
    """

    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValidationError("window bound must be >= 0")

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(str(z) for z in range(-self.bound, self.bound + 1))

    @property
    def unit(self) -> str:
        return "0"

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

    def __repr__(self) -> str:
        return f"WindowedZ(bound={self.bound})"


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


def _check_bond(src: Group, dst: Group, bond: GroupBond, position: int) -> None:
    if isinstance(bond, ScaleHom):
        if not isinstance(src, WindowedZ) or not isinstance(dst, WindowedZ):
            raise ValidationError(f"bond {position}: scalings need windowed levels on both sides")
        if bond.k * src.bound > dst.bound:
            raise ValidationError(
                f"bond {position}: scaling by {bond.k} leaves the target window"
            )
        return
    elems = src.elements
    dst_set = set(dst.elements)
    if set(bond.mapping) != set(elems):
        raise ValidationError(f"bond {position} is not total on its source level")
    if not set(bond.mapping.values()) <= dst_set:
        raise ValidationError(f"bond {position} leaves its target level")
    if bond.apply(src.unit) != dst.unit:
        raise ValidationError(f"bond {position} does not preserve the unit")
    images = [bond.apply(x) for x in elems]
    for a, fa in zip(elems, images):
        for b, fb in zip(elems, images):
            try:
                lhs = bond.apply(src.op(a, b))
            except WindowOverflow:
                continue  # the sum does not exist at this window; nothing to check
            if lhs != dst.op(fa, fb):
                raise ValidationError(f"bond {position} is not a homomorphism at ({a}, {b})")


class GroupTower:
    """An inverse sequence of groups with homomorphism bonds.

    Every set-level question (threads, images, kernels) is answered on
    the underlying tower, built once on first use."""

    __slots__ = ("levels", "bonds", "_tower")

    def __init__(self, levels: Sequence[Group], bonds: Sequence[GroupBond]):
        if not levels:
            raise ValidationError("a group tower needs at least one level")
        if len(bonds) != len(levels) - 1:
            raise ValidationError(
                f"need {len(levels) - 1} bonds for {len(levels)} levels, got {len(bonds)}"
            )
        for n, bond in enumerate(bonds, start=1):
            _check_bond(levels[n], levels[n - 1], bond, n)
        self._set(levels, bonds)

    @classmethod
    def _trusted(cls, levels: Sequence[Group], bonds: Sequence[GroupBond]) -> GroupTower:
        """A tower whose bonds are homomorphisms by construction; nothing is checked."""
        g = cls.__new__(cls)
        g._set(levels, bonds)
        return g

    def _set(self, levels, bonds) -> None:
        self.levels = tuple(levels)
        self.bonds = tuple(bonds)
        self._tower = None

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
        return (
            isinstance(other, GroupTower)
            and self.levels == other.levels
            and self.bonds == other.bonds
        )

    def __hash__(self):
        return hash((self.levels, self.bonds))

    def __repr__(self) -> str:
        sizes = "x".join(str(len(g.elements)) for g in self.levels)
        return f"GroupTower(depth={self.depth}, orders={sizes})"


def _minimal_period(factors: tuple[int, ...]) -> tuple[int, ...]:
    for d in range(1, len(factors) + 1):
        if all(factors[i] == factors[i % d] for i in range(len(factors))):
            return factors[:d]
    return factors


def _is_scaling_tower(g: GroupTower) -> bool:
    """Windowed integer levels joined by scalings z -> k z."""
    return all(isinstance(grp, WindowedZ) for grp in g.levels) and all(
        isinstance(b, ScaleHom) for b in g.bonds
    )


def underlying_tower(g: GroupTower) -> Tower:
    """Forget the group structure; windowed scaling towers keep their
    divisibility oracle so ML verdicts stay exact.  Built on the first
    call and kept on g; group elements are already in natural_key order.

    The oracle extends the observed scale factors cyclically by their
    shortest period, and is attached only when every window bound agrees
    with what that pattern dictates."""
    if g._tower is None:
        oracle = None
        if _is_scaling_tower(g):
            factors = _minimal_period(tuple(b.k for b in g.bonds) or (1,))
            candidate = SolenoidOracle(primes=factors, window=g.level(1).bound)
            if [grp.bound for grp in g.levels] == list(candidate.level_bounds(g.depth)):
                oracle = candidate
        levels = [grp.elements for grp in g.levels]
        up = []
        for bond, src, dst in zip(g.bonds, levels[1:], levels):
            where = {x: i for i, x in enumerate(dst)}
            up.append([where[bond.apply(x)] for x in src])
        g._tower = Tower._ordered(levels, up, oracle)
    return g._tower


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


def limit_threads(g: GroupTower) -> tuple[Thread, ...]:
    """All threads.  A thread is determined by its deepest entry; a tower
    with a divisibility oracle keeps only the deepest entries that extend
    to every level of the untruncated tower."""
    tower = underlying_tower(g)
    positions = range(len(tower.levels[-1]))
    if tower.oracle is not None:
        positions = tower.oracle.forever_extendable(tower.levels[-1])
    down = [positions]
    for u in reversed(tower.up):
        positions = [u[i] for i in positions]
        down.append(positions)
    columns = [map(ids.__getitem__, p) for ids, p in zip(tower.levels, reversed(down))]
    threads = [Thread(entries=entries, tower=g) for entries in zip(*columns)]
    return tuple(sorted(threads, key=lambda t: tuple(natural_key(e) for e in t.entries)))


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

    The agreement depths of the T limit threads are computed once, into a
    T x T table, and each inverse and product k.a is built once and stored
    as a position, so every triple (k, a, b) is two int lookups.  A product
    or inverse that is no limit thread (only a table altered after
    construction makes one) is compared entry by entry.  On a windowed
    tower a product that leaves the window does not exist at this
    truncation (as in _check_bond), so triples whose k.a or k.b is
    undefined are skipped; checked counts the triples compared.
    """
    threads = limit_threads(g)
    entries = [t.entries for t in threads]
    count = len(entries)
    # positions: the threads first, then each product or inverse that is not one
    where = {p: i for i, p in enumerate(entries)}
    inverses = [
        where.setdefault(tuple([grp.inv(x) for grp, x in zip(g.levels, a)]), len(where))
        for a in entries
    ]
    products: list[list[int | None]] = []  # products[k][a], the position of k.a
    for k in entries:
        row = []
        for a in entries:
            try:
                ka = tuple([grp.op(x, y) for grp, x, y in zip(g.levels, k, a)])
            except WindowOverflow:
                ka = None
            row.append(None if ka is None else where.setdefault(ka, len(where)))
        products.append(row)
    points = list(where)
    agree = [[agreement(a, b) for b in entries] for a in entries]
    checked = 0
    columns = list(zip(*products))  # columns[a][k], the position of k.a
    for ia, column_a in enumerate(columns):
        for ib, column_b in enumerate(columns):
            base = agree[ia][ib]
            x, y = inverses[ia], inverses[ib]
            if (agree[x][y] if x < count > y else agreement(points[x], points[y])) != base:
                return IsometryVerdict(False, (threads[ia], threads[ia], threads[ib]), checked)
            for ik, x, y in zip(range(count), column_a, column_b):
                if x is None or y is None:
                    continue
                checked += 1
                if (agree[x][y] if x < count > y else agreement(points[x], points[y])) != base:
                    return IsometryVerdict(False, (threads[ik], threads[ia], threads[ib]), checked)
    return IsometryVerdict(valid=True, checked=checked)


# ---------------------------------------------------------------------------
# Level morphisms of group towers


class GroupLevelMorphism:
    """A strictly level-preserving morphism: homs f_n with q_n f_{n+1} = f_n p_n."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: GroupTower, target: GroupTower, components: Sequence[GroupBond]):
        if not components:
            raise ValidationError("a level morphism needs at least one component")
        if len(components) > min(source.depth, target.depth):
            raise ValidationError("more components than levels")
        for n, f in enumerate(components, start=1):
            _check_bond(source.level(n), target.level(n), f, n)
        for n in range(1, len(components)):
            f_n, f_n1 = components[n - 1], components[n]
            p_n, q_n = source.bond(n), target.bond(n)
            for x in source.level(n + 1).elements:
                if f_n.apply(p_n.apply(x)) != q_n.apply(f_n1.apply(x)):
                    raise NotLevelMorphism(f"square {n} does not commute at {x}")
        self._set(source, target, components)

    @classmethod
    def _trusted(cls, source, target, components: Sequence[GroupBond]) -> GroupLevelMorphism:
        """A level morphism whose components are homomorphisms and whose
        squares commute by construction; nothing is checked."""
        m = cls.__new__(cls)
        m._set(source, target, components)
        return m

    def _set(self, source, target, components) -> None:
        self.source = source
        self.target = target
        self.components = tuple(components)

    @property
    def defined_upto(self) -> int:
        return len(self.components)

    def component(self, n: int) -> GroupBond:
        if not 1 <= n <= self.defined_upto:
            raise IndexOutOfRange(f"component {n} not in 1..{self.defined_upto}")
        return self.components[n - 1]


def identity_group_morphism(g: GroupTower) -> GroupLevelMorphism:
    comps = [TableHom({x: x for x in grp.elements}) for grp in g.levels]
    return GroupLevelMorphism._trusted(g, g, comps)


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
    source = underlying_tower(m.source)
    kernels = [
        [f.apply(x) == m.target.level(k).unit for x in source.levels[k - 1]]
        for k, f in enumerate(m.components, start=1)
    ]
    witnesses = []
    for n in range(1, m.defined_upto + 1):
        unit = m.source.level(n).unit
        ker_p = [x == unit for x in source.levels[n - 1]]
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
    target = underlying_tower(m.target)
    witnesses = []
    for n, (f, reach) in enumerate(zip(m.components, _reach(target)), start=1):
        image = set(map(f.apply, m.source.level(n).elements))
        outside = (r for x, r in zip(target.levels[n - 1], reach) if x not in image)
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
    ML verdict of Holds first.

    The threads of a truncated tower project onto the eventual images
    p_{nD}(G_D), so the table is the ML stabilization plus (D, D)."""
    report = ml_verdict(underlying_tower(g))
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

    Core level n is the subgroup pi_n(lim G) of G_n, and core bond n is bond
    n restricted to it, a homomorphism already: only that it lands in core
    level n is checked.  The core tower and the inclusion (identities, whose
    squares commute because the bonds are restrictions) are trusted."""
    projections = ml_projection_check(g)
    threads = limit_threads(g)
    core_levels: list[Group] = []
    for n, grp in enumerate(g.levels, start=1):
        if isinstance(grp, WindowedZ):
            # ML holds, so all factors are 1 and the projection is everything
            core_levels.append(grp)
        else:
            core_levels.append(grp.restricted({t.at(n) for t in threads}))
    core_bonds: list[GroupBond] = []
    for n, bond in enumerate(g.bonds, start=1):
        if isinstance(bond, ScaleHom):
            core_bonds.append(bond)
            continue
        mapping = {x: bond.apply(x) for x in core_levels[n].elements}
        if not set(mapping.values()) <= set(core_levels[n - 1].elements):
            raise ValidationError(f"core bond {n} leaves core level {n}")
        core_bonds.append(TableHom(mapping))
    core = GroupTower._trusted(core_levels, core_bonds)
    inclusion = GroupLevelMorphism._trusted(
        core, g, [TableHom({x: x for x in grp.elements}) for grp in core_levels]
    )
    source_under = underlying_tower(g)
    core_under = underlying_tower(core)
    phi = [m for _, m in projections]
    rows = []
    levels = zip(source_under.levels, core_under.levels, phi)
    for n, (ids, core_ids, m) in enumerate(levels, start=1):
        where = {x: i for i, x in enumerate(core_ids)}
        rows.append([where[x] for x in _pull_back(source_under, ids, n, m)])
    # the projection witnesses are nondecreasing in n
    inverse = TowerMorphism._trusted(source_under, core_under, phi, rows)
    return CoreIso(core=core, inclusion=inclusion, inverse=inverse)


def as_tower_morphism(m: GroupLevelMorphism) -> TowerMorphism:
    """Forget the group structure of a level morphism."""
    src = underlying_tower(m.source)
    tgt = underlying_tower(m.target)
    rows = []
    for f, xs, ys in zip(m.components, src.levels, tgt.levels):
        where = {y: j for j, y in enumerate(ys)}
        rows.append([where[f.apply(x)] for x in xs])
    return TowerMorphism._trusted(src, tgt, list(range(1, m.defined_upto + 1)), rows)
