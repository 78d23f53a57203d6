"""Inverse sequences of finite sets and the morphism calculus between them.

A tower is a finite chain  X_1 <- X_2 <- ... <- X_D  of nonempty finite
sets joined by total bonding maps p_n : X_{n+1} -> X_n.  Element ids are
opaque strings, unique within their level.

Two flavors exist.  Extensional towers are plain tables.  Generator towers
are windowed-integer towers (bonds z -> p*z) whose oracle answers one
question for any level, beyond the truncation depth too: the reach of an
element in the infinite tower.  The core is the deepest level's forever
positions pushed down `up`, all of that level when read closed-world.
Verdicts that depend on data beyond depth D stay three-valued: Holds needs
an observed repeat with margin, Fails needs an oracle certificate,
everything else is inconclusive at this depth.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DepthExhausted,
    ElementNotInLevel,
    IndexOutOfRange,
    SourceTargetMismatch,
    UnsupportedMode,
    ValidationError,
)

EXTENSIONAL = "extensional"
GENERATOR = "generator"

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive_at_depth"

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent_closed_world"
EQUIV_INCONCLUSIVE = "inconclusive"

_DIGIT_RUNS = re.compile(r"(\d+)")


def natural_key(s: str):
    """Sort key that orders integer-looking ids numerically, others naturally.

    Signed integer ids (windowed levels) sort by value; mixed ids sort by
    alternating text and digit runs, so p2 comes before p10.  Ids that read
    the same ("1" and "01", "p2" and "p02") fall back to length, then to the
    raw string, so the order is total and never depends on input order.  The
    tie-break is one last part that sorts below every run, so an id still
    comes before the ids it is a prefix of.  An id with a decimal run longer
    than int() reads raises ValidationError.
    """
    try:
        parts = ((0, int(s), ""),)
    except ValueError:
        try:
            parts = tuple(
                (0, int(part), "") if part.isdecimal() else (1, 0, part)
                for part in _DIGIT_RUNS.split(s)
                if part
            )
        except ValueError:  # a run past Python's int/str digit limit
            raise ValidationError(f"id {s[:20]}... has a decimal run too long to read") from None
    return parts + ((-1, len(s), s),)


@dataclass(frozen=True)
class SolenoidOracle:
    """Exact oracle for windowed-integer towers with bonds z -> p_n * z.

    The prime list is used cyclically, so the oracle speaks about the full
    infinite tower: answers never depend on the finite window.  P(n, m) is
    the product of the multipliers of levels n..m-1.
    """

    primes: tuple[int, ...]
    window: int

    def __post_init__(self):
        if not self.primes or any(p < 1 for p in self.primes):
            raise ValidationError("multipliers must be integers >= 1")
        if self.window < 0:
            raise ValidationError("window bound must be >= 0")

    def multiplier(self, n: int) -> int:
        """Multiplier of the bond X_{n+1} -> X_n."""
        return self.primes[(n - 1) % len(self.primes)]

    def level_bounds(self, depth: int) -> Iterator[int]:
        """Window bounds of levels n = 1..depth: level n holds the integers z
        with |z| <= window // P(1, n), one multiplication per level."""
        prod = 1
        for n in range(1, depth + 1):
            yield self.window // prod
            if prod <= self.window:  # beyond the window every bound stays 0
                prod *= self.multiplier(n)

    def reach(self, n: int, z: int) -> int | float:
        """The deepest m >= n with z at level n in the image of level m: the
        last m with P(n, m) dividing z, or math.inf (forever) when z == 0 or
        every multiplier is 1.  No window bounds the quotient: with |z| <=
        window // P(1, n) it fits level m's window // P(1, m)."""
        if z == 0 or all(p == 1 for p in self.primes):
            return math.inf
        m = n
        while z % self.multiplier(m) == 0:
            z //= self.multiplier(m)
            m += 1
        return m


@dataclass(frozen=True)
class LevelStabilization:
    """Observed image-chain data for one level: s = min m with
    p_{n m}(X_m) equal to the image from depth, margin = depth - s."""

    level: int
    stabilization: int
    margin: int


@dataclass(frozen=True)
class MLFailure:
    """Oracle certificate: at `level`, each candidate n1 in `chain` is
    defeated by an element extendable to n1 but not to `fails_at`."""

    level: int
    chain: tuple[tuple[int, int, int], ...]  # (n1, alpha, fails_at)


@dataclass(frozen=True)
class MLReport:
    verdict: str
    per_level: tuple[LevelStabilization, ...]
    witness: MLFailure | None = None


class Tower:
    """A truncated inverse sequence of finite sets.

    levels[n-1] is X_n, a tuple of ids in natural_key order, and sizes[n-1]
    its size.  The bonds are stored once, as parent positions: up[n-1][i] is
    the position in X_n of p_n(X_{n+1}[i]).  bonds[n-1] is the same bond as
    an id -> id dict, built on first use.  A generator level of size 2b + 1
    lists -b..b, so a windowed solenoid prints its ids only on the first
    read of levels.  Instances are treated as immutable; equality is
    structural and includes the oracle, which only in-package builders give.
    """

    __slots__ = ("levels", "sizes", "up", "oracle", "_bonds")

    def __init__(
        self,
        levels: Sequence[Iterable[str]],
        bonds: Sequence[Mapping[str, str]],
    ):
        """Sort and validate levels and bonds from outside the package."""
        if not levels:
            raise ValidationError("a tower needs at least one level")
        norm_levels = []
        for n, level in enumerate(levels, start=1):
            ids = tuple(sorted(level, key=natural_key))
            if not ids:
                raise ValidationError(f"level {n} is empty")
            if len(set(ids)) != len(ids):
                raise ValidationError(f"level {n} has duplicate ids")
            norm_levels.append(ids)
        if len(bonds) != max(len(norm_levels) - 1, 0):
            raise ValidationError(
                f"need {max(len(norm_levels) - 1, 0)} bonds for {len(norm_levels)} levels, got {len(bonds)}"
            )
        up = []
        for n, bond in enumerate(bonds, start=1):
            src = norm_levels[n]
            where = {x: i for i, x in enumerate(norm_levels[n - 1])}
            if set(bond) != set(src):
                raise ValidationError(f"bond {n} is not total on level {n + 1}")
            stray = set(bond.values()) - where.keys()
            if stray:
                raise ValidationError(f"bond {n} leaves level {n}: {sorted(stray)}")
            up.append(tuple([where[bond[x]] for x in src]))
        self._set(norm_levels, up, None)

    @classmethod
    def _ordered(
        cls,
        levels: Sequence[Sequence[str]] | None,
        up: Sequence[Sequence[int]],
        oracle: SolenoidOracle | None = None,
        sizes: Sequence[int] = (),
    ) -> Tower:
        """A tower from levels already in natural_key order and their parent
        positions, for builders whose order holds by construction.  A
        generator tower may pass levels None and its level sizes instead."""
        tower = cls.__new__(cls if levels is not None else _Unprinted)
        tower._set(levels, up, oracle, sizes)
        return tower

    def _set(self, levels, up, oracle, sizes=()) -> None:
        if levels is not None:
            self.levels = tuple([tuple(level) for level in levels])
            sizes = map(len, self.levels)
        self.sizes = tuple(sizes)
        self.up = tuple([tuple(u) for u in up])
        self.oracle = oracle
        self._bonds = None

    def _ids_at(self, n: int, positions: Sequence[int]) -> Sequence[str]:
        """The ids at the ascending positions of X_n.  A generator level of
        size 2b + 1 lists -b..b, so a part of it is printed from its
        positions alone; a whole level is the level itself."""
        if len(positions) == self.sizes[n - 1]:
            return self.levels[n - 1]
        if self.oracle is None:
            ids = self.levels[n - 1]
            return [ids[i] for i in positions]
        b = self.sizes[n - 1] // 2
        return [str(i - b) for i in positions]

    @property
    def depth(self) -> int:
        return len(self.sizes)

    @property
    def flavor(self) -> str:
        return GENERATOR if self.oracle is not None else EXTENSIONAL

    @property
    def bonds(self) -> tuple[dict[str, str], ...]:
        """bonds[n-1] maps X_{n+1} into X_n, keys in level order."""
        if self._bonds is None:
            self._bonds = tuple(
                dict(zip(src, [dst[i] for i in u]))
                for dst, src, u in zip(self.levels, self.levels[1:], self.up)
            )
        return self._bonds

    def level(self, n: int) -> tuple[str, ...]:
        if not 1 <= n <= self.depth:
            raise IndexOutOfRange(f"level {n} not in 1..{self.depth}")
        return self.levels[n - 1]

    def bond(self, n: int) -> dict[str, str]:
        """The bond X_{n+1} -> X_n."""
        if not 1 <= n <= self.depth - 1:
            raise IndexOutOfRange(f"bond {n} not in 1..{self.depth - 1}")
        return self.bonds[n - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tower)
            and self.levels == other.levels
            and self.up == other.up
            and self.oracle == other.oracle
        )

    def __hash__(self):
        return hash((self.levels, self.up, self.oracle))

    def __repr__(self) -> str:
        sizes = "x".join(map(str, self.sizes))
        return f"Tower(depth={self.depth}, sizes={sizes}, flavor={self.flavor})"


class _Unprinted(Tower):
    """A generator tower built from its sizes, before its ids are printed.
    The first read of levels prints them into the slot, each level a slice
    of level 1's strings, and makes the tower a plain Tower again, since a
    class with __getattr__ reads every attribute about four times slower
    (CPython 3.11)."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "levels":
            raise AttributeError(f"'Tower' object has no attribute {name!r}")
        top = self.sizes[0] // 2
        widest = tuple(map(str, range(-top, top + 1)))
        self.levels = tuple([widest[top - s // 2 : top + s // 2 + 1] for s in self.sizes])
        self.__class__ = Tower
        return self.levels


# A generator tower may hold at most this many ids over all its levels,
# counted before any level is built.  The doubling solenoid fits up to
# window 2^17 at full depth 18 (524,304 ids).
MAX_GENERATOR_IDS = 1 << 20
# ... and at most this many levels, since every level adds an ML chain row
# to the report.  At depth 8,192, `towertree analyze` takes 0.35-0.5 s and
# prints 0.55 MB for primes [1], window 0, and 0.55-0.65 s and 11 MB for
# primes [2] (whole process, 2-vCPU x86_64 VM, Python 3.11.7).
MAX_GENERATOR_DEPTH = 1 << 13


def _check_generator(oracle: SolenoidOracle, depth: int) -> None:
    """Refuse a generator tower before it is built: it may have at most
    MAX_GENERATOR_DEPTH levels holding at most MAX_GENERATOR_IDS ids, and
    every number of its ML failure certificate must print within Python's
    int/str digit limit.  The largest is the last chain entry's alpha,
    P(1, depth), since every multiplier from depth up to the first one
    above 1 is 1.  Every level holds an id, so the id count stops the level
    walk within MAX_GENERATOR_IDS steps."""
    total = 0
    for b in oracle.level_bounds(depth):
        total += 2 * b + 1
        if total > MAX_GENERATOR_IDS:
            raise ValidationError(f"generator tower holds more than {MAX_GENERATOR_IDS} ids")
    if depth > MAX_GENERATOR_DEPTH:
        raise ValidationError(f"generator tower has more than {MAX_GENERATOR_DEPTH} levels")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits == 0:
        return
    ceiling, alpha = 10**digits, 1
    for n in range(1, depth):
        alpha *= oracle.multiplier(n)
        if alpha >= ceiling:
            raise ValidationError(
                f"its ML failure certificate would hold numbers over {digits} digits"
            )


def windowed_solenoid_tower(primes: Sequence[int], window: int, depth: int) -> Tower:
    """Materialize the windowed-integer tower with bonds z -> p_n * z.

    Level n holds the integers whose composite image at level 1 stays in
    [-window, window]; that shrinking window is exactly what keeps every
    bond total into its target level.  Level n lists -b..b in order, so z
    sits at position z + b and its image p_n * z at p_n * z + b_n.  The tower
    holds the level sizes and parent positions; its ids are printed on the
    first read of levels.  A tower past _check_generator's budget is refused
    before any level is built.
    """
    oracle = SolenoidOracle(tuple(int(p) for p in primes), int(window))
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    _check_generator(oracle, depth)
    bounds = list(oracle.level_bounds(depth))
    up = [
        range(b - p * c, b + p * c + 1, p)
        for b, c, p in zip(bounds, bounds[1:], map(oracle.multiplier, range(1, depth)))
    ]
    return Tower._ordered(None, up, oracle, [2 * b + 1 for b in bounds])


def _pull_back(tower: Tower, values: Sequence, n: int, m: int) -> Sequence:
    """values, indexed by the positions of X_n, read on X_m through p_{n m}:
    entry j is values[position of p_{n m}(X_m[j])].  Needs n <= m."""
    for u in tower.up[n - 1 : m - 1]:
        values = [values[i] for i in u]
    return values


def _reach(tower: Tower) -> list[list[int]]:
    """reach[n-1][i] is the deepest m with X_n[i] in p_{n m}(X_m), so
    p_{n m}(X_m) is {reach >= m}: one pass from the deepest level to level 1."""
    depth = tower.depth
    reach = [[depth] * tower.sizes[-1]]
    for n in range(depth - 1, 0, -1):
        here = [n] * tower.sizes[n - 1]
        for i, r in zip(tower.up[n - 1], reach[-1]):
            if r > here[i]:
                here[i] = r
        reach.append(here)
    return reach[::-1]


def compose_bonding(tower: Tower, n: int, m: int) -> dict[str, str]:
    """p_{n m} : X_m -> X_n as an id -> id dict, the identity when n == m."""
    if not 1 <= n <= m <= tower.depth:
        raise IndexOutOfRange(f"need 1 <= n <= m <= depth, got n={n}, m={m}, depth={tower.depth}")
    images = _pull_back(tower, tower.levels[n - 1], n, m)
    return dict(zip(tower.levels[m - 1], images))


def is_extendable(tower: Tower, n0: int, alpha: str, n1: int) -> bool:
    """Does alpha in X_{n0} lie in the image of X_{n1}?

    Extensional towers pull X_{n0}'s positions back over levels n0..n1 and
    require n1 <= depth.  Generator towers ask the oracle's reach, for any
    n1 >= n0.
    """
    try:
        i = tower.level(n0).index(alpha)
    except ValueError:
        raise ElementNotInLevel(f"{alpha!r} is not in level {n0}") from None
    if n1 < n0:
        raise IndexOutOfRange(f"target level {n1} is below {n0}")
    if tower.oracle is not None:
        return tower.oracle.reach(n0, int(alpha)) >= n1
    if n1 > tower.depth:
        raise IndexOutOfRange(f"level {n1} beyond depth {tower.depth} needs a generator oracle")
    return i in _pull_back(tower, range(tower.sizes[n0 - 1]), n0, n1)


def ml_verdict(tower: Tower) -> MLReport:
    """Mittag-Leffler behavior of the tower, three-valued at truncation.

    Levels n0 = 1..depth-1 are checked.  Holds needs the image chain at
    every checked level to repeat its eventual value at least one step
    before depth (margin >= 1).  Fails is issued only on an oracle
    certificate from a generator tower.
    """
    depth = tower.depth
    per_level = []
    for n0, reach in enumerate(_reach(tower)[:-1], start=1):
        # p_{n0 m}(X_m) = {reach >= m} reaches its eventual value {reach = D}
        # one level past the deepest reach short of D
        s = 1 + max(set(reach) - {depth}, default=n0 - 1)
        per_level.append(LevelStabilization(level=n0, stabilization=s, margin=depth - s))
    per_level = tuple(per_level)

    if _some_reach_finite(tower):
        oracle = tower.oracle
        # n1 is defeated by alpha = P(1, s), with s the first level >= n1
        # whose multiplier exceeds 1: alpha's reach is s, so it extends to n1
        # but not to s + 1.  s only moves forward, carrying the product.
        chain_rows = []
        s, alpha = 1, 1
        for n1 in range(2, depth + 1):
            while s < n1 or oracle.multiplier(s) == 1:
                alpha *= oracle.multiplier(s)
                s += 1
            chain_rows.append((n1, alpha, s + 1))
        witness = MLFailure(level=1, chain=tuple(chain_rows))
        return MLReport(verdict=FAILS, per_level=per_level, witness=witness)
    if all(row.margin >= 1 for row in per_level):
        return MLReport(verdict=HOLDS, per_level=per_level)
    return MLReport(verdict=INCONCLUSIVE, per_level=per_level)


def surjective_core(tower: Tower) -> Tower:
    """Replace each level by the eventual image p_{n D}(X_D), restrict bonds.

    The eventual image is {reach = D}.  All bonds of the result are
    surjective; the operation is idempotent.
    """
    if tower.oracle is not None:
        raise UnsupportedMode("surjective_core works on extensional towers")
    return _sub_tower(tower, _core_positions(tower))


def _forever_positions(tower: Tower) -> Sequence[int]:
    """The positions of the deepest level X_D whose reach is forever: all of
    X_D read closed-world.  A generator level lists -b..b; 0 in the middle
    always extends forever, every other id exactly when 1 does."""
    size = tower.sizes[-1]
    if tower.oracle is None or tower.oracle.reach(tower.depth, 1) == math.inf:
        return range(size)
    return range(size // 2, size // 2 + 1)


def _some_reach_finite(tower: Tower) -> bool:
    """Some reach in the infinite tower is finite, so finite reaches grow
    without bound: exactly when the reach of 1 at level 1 is.  Read
    closed-world, an extensional tower has none."""
    return tower.oracle is not None and tower.oracle.reach(1, 1) != math.inf


def _core_positions(tower: Tower) -> list[Sequence[int]]:
    """The ascending positions of the core in X_1, ..., X_D: the deepest
    level's forever positions pushed down `up`.  On an extensional tower
    these are the eventual images {reach = D}."""
    kept = [_forever_positions(tower)]
    for u in reversed(tower.up):
        kept.append(sorted({u[i] for i in kept[-1]}))
    return kept[::-1]


def _sub_tower(tower: Tower, kept: Sequence[Sequence[int]]) -> Tower:
    """The tower on the ascending positions kept[n-1] of X_n, n = 1..len(kept);
    every kept vertex's parent must be kept as well."""
    levels, up = [], []
    where: dict[int, int] = {}
    for n, positions in enumerate(kept, start=1):
        if not positions:
            raise ValidationError(f"level {n} is empty")
        if n > 1:
            u = tower.up[n - 2]
            parents = [where.get(u[i]) for i in positions]
            if None in parents:
                raise ValidationError(f"bond {n - 1} leaves level {n - 1}")
            up.append(parents)
        levels.append(tower._ids_at(n, positions))
        where = {i: j for j, i in enumerate(positions)}
    return Tower._ordered(levels, up)


# ---------------------------------------------------------------------------
# Morphisms


class TowerMorphism:
    """A morphism of truncated inverse sequences.

    Data: an index function Phi (normalized to be nondecreasing by
    composing components with bonds) and components f_n : X_{Phi(n)} -> Y_n
    for n = 1..defined_upto, with a stored coherence witness for every
    consecutive pair: some m >= Phi(n), Phi(n+1) within depth where
    f_n . p_{Phi(n) m}  ==  q_n . f_{n+1} . p_{Phi(n+1) m}.

    Components are stored like bonds: rows[n-1][i] is the position in Y_n
    of f_n(X_{Phi(n)}[i]).  components[n-1] is the same component as an
    id -> id dict, built on first use.
    """

    __slots__ = ("source", "target", "phi", "rows", "witnesses", "_components")

    def __init__(
        self,
        source: Tower,
        target: Tower,
        phi: Sequence[int],
        components: Sequence[Mapping[str, str]],
        trim_incoherent: bool = False,
    ):
        if len(phi) != len(components) or not components:
            raise ValidationError("phi and components must have equal positive length")
        if len(components) > target.depth:
            raise ValidationError("more components than target levels")
        # normalize Phi to be nondecreasing by precomposing with bonds
        norm_phi: list[int] = []
        rows: list[Sequence[int]] = []
        for i, (p, comp) in enumerate(zip(phi, components)):
            if not 1 <= p <= source.depth:
                raise ValidationError(f"phi({i + 1}) = {p} outside 1..{source.depth}")
            q = max(p, norm_phi[-1]) if norm_phi else p
            if set(comp) != set(source.level(p)):
                raise ValidationError(f"component {i + 1} is not total on source level {p}")
            where = {y: j for j, y in enumerate(target.levels[i])}
            stray = set(comp.values()) - where.keys()
            if stray:
                raise ValidationError(f"component {i + 1} leaves target level {i + 1}: {sorted(stray)}")
            norm_phi.append(q)
            rows.append(_pull_back(source, [where[comp[x]] for x in source.levels[p - 1]], p, q))
        self._set(source, target, norm_phi, rows, trim_incoherent)

    @classmethod
    def _trusted(
        cls,
        source: Tower,
        target: Tower,
        phi: Sequence[int],
        rows: Sequence[Sequence[int]],
        trim_incoherent: bool = False,
    ) -> TowerMorphism:
        """A morphism from data the package derived: phi nondecreasing within
        1..source.depth, at most target.depth rows, rows[n-1] over the
        positions of X_{phi(n)} with values positions in Y_n.  Only the
        coherence witnesses are searched."""
        m = cls.__new__(cls)
        m._set(source, target, phi, rows, trim_incoherent)
        return m

    def _set(self, source, target, phi, rows, trim_incoherent) -> None:
        witnesses = []
        keep = len(rows)
        for n in range(1, len(rows)):
            q = target.up[n - 1]
            w = _agreement_level(source, phi[n - 1], rows[n - 1], phi[n], [q[j] for j in rows[n]])
            if w is None:
                if trim_incoherent:
                    keep = n
                    break
                raise ValidationError(f"no coherence witness within depth for levels {n}, {n + 1}")
            witnesses.append(w)
        self.source = source
        self.target = target
        self.phi = tuple(phi[:keep])
        self.rows = tuple([tuple(row) for row in rows[:keep]])
        self.witnesses = tuple(witnesses[: keep - 1])
        self._components = None

    @property
    def components(self) -> tuple[dict[str, str], ...]:
        """components[n-1] maps X_{Phi(n)} into Y_n, keys in level order."""
        if self._components is None:
            self._components = tuple(
                dict(zip(self.source.levels[p - 1], [ids[j] for j in row]))
                for p, ids, row in zip(self.phi, self.target.levels, self.rows)
            )
        return self._components

    @property
    def defined_upto(self) -> int:
        return len(self.rows)

    def phi_at(self, n: int) -> int:
        if not 1 <= n <= self.defined_upto:
            raise IndexOutOfRange(f"morphism level {n} not in 1..{self.defined_upto}")
        return self.phi[n - 1]

    def component(self, n: int) -> dict[str, str]:
        if not 1 <= n <= self.defined_upto:
            raise IndexOutOfRange(f"morphism level {n} not in 1..{self.defined_upto}")
        return self.components[n - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TowerMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.phi == other.phi
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.source, self.target, self.phi))

    def __repr__(self) -> str:
        return f"TowerMorphism(phi={self.phi}, defined_upto={self.defined_upto})"


def _agreement_level(source: Tower, a: int, va: Sequence, b: int, vb: Sequence) -> int | None:
    """Least m >= max(a, b) within depth with va . p_{a m} == vb . p_{b m} on X_m, or None.

    va and vb are value rows over the positions of X_a and X_b; both are
    carried up one level at a time as lists, so rows of any sequence type
    compare by value."""
    m = max(a, b)
    va = _pull_back(source, list(va), a, m)
    vb = _pull_back(source, list(vb), b, m)
    while va != vb:
        if m == source.depth:
            return None
        u = source.up[m - 1]
        va = [va[i] for i in u]
        vb = [vb[i] for i in u]
        m += 1
    return m


def identity_morphism(tower: Tower) -> TowerMorphism:
    rows = [range(size) for size in tower.sizes]
    return TowerMorphism._trusted(tower, tower, list(range(1, tower.depth + 1)), rows)


def compose_morphisms(g: TowerMorphism, f: TowerMorphism) -> TowerMorphism:
    """g after f: components h_n = g_n . f_{Psi(n)}, index map Phi_f . Phi_g.

    Truncation can cut the composite short; the longest coherent prefix is
    kept and DepthExhausted raised when not even h_1 can be formed.
    """
    if f.target != g.source:
        raise SourceTargetMismatch("middle towers of the composition differ")
    phi = []
    rows = []
    for psi_n, g_n in zip(g.phi, g.rows):
        if psi_n > f.defined_upto:
            break
        phi.append(f.phi[psi_n - 1])
        rows.append([g_n[j] for j in f.rows[psi_n - 1]])
    if not rows:
        raise DepthExhausted("composite has no level within depth")
    # Phi_f . Phi_g is nondecreasing and h_n is total on its level
    return TowerMorphism._trusted(f.source, g.target, phi, rows, trim_incoherent=True)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the witness search for f ~ g.

    Equivalent carries one witness per checked level.  Inconclusive means
    witnesses were missing only at the last checked level (data too thin at
    the horizon).  NotEquivalentClosedWorld means some earlier level fails
    even at m = depth, i.e. reading the truncation as the whole tower.
    """

    verdict: str
    witnesses: tuple[int, ...] = ()
    failing_levels: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.verdict == EQUIVALENT


def morphisms_equivalent(f: TowerMorphism, g: TowerMorphism) -> EquivalenceVerdict:
    """Search, per level, for m with f_n . p_{Phi(n) m} == g_n . p_{Psi(n) m}."""
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("morphisms do not share source and target")
    horizon = min(f.defined_upto, g.defined_upto)
    witnesses = [
        _agreement_level(f.source, a, fa, b, gb)
        for a, fa, b, gb in zip(f.phi, f.rows, g.phi, g.rows)
    ]
    failing = tuple(n for n, w in enumerate(witnesses, start=1) if w is None)
    if not failing:
        return EquivalenceVerdict(EQUIVALENT, witnesses=tuple(witnesses))
    if failing == (horizon,):
        return EquivalenceVerdict(EQUIV_INCONCLUSIVE, failing_levels=failing)
    return EquivalenceVerdict(NOT_EQUIVALENT, failing_levels=failing)


@dataclass(frozen=True)
class Levelization:
    """A morphism rewritten as a strictly level-preserving one on a
    reindexed source, with the comparison isomorphisms."""

    source_reindexed: "Tower"
    target_reindexed: "Tower"
    iso_in: "TowerMorphism"
    iso_out: "TowerMorphism"
    level: "TowerMorphism"


def levelize_morphism(f: TowerMorphism) -> Levelization:
    """Reindex the source along coherence witnesses so f becomes level.

    X'_k = X_{n_k} with n_1 = Phi(1) and n_{k+1} = max(n_k + 1, witness_k);
    f'_k = f_k . p_{Phi(k) n_k} then satisfies strict squares.  A level
    morphism is returned unchanged up to those identities.
    """
    source, target = f.source, f.target
    indices = [f.phi_at(1)]
    for k in range(1, f.defined_upto):
        nxt = max(indices[-1] + 1, f.witnesses[k - 1])
        if nxt > source.depth:
            break
        indices.append(nxt)
    k_max = len(indices)
    new_levels = [source.level(n) for n in indices]
    new_up = [
        _pull_back(source, range(source.sizes[n - 1]), n, n_next)
        for n, n_next in zip(indices, indices[1:])
    ]
    reindexed = Tower._ordered(new_levels, new_up)

    level_rows = [_pull_back(source, row, p, n) for p, row, n in zip(f.phi, f.rows, indices)]
    level = TowerMorphism._trusted(reindexed, target, list(range(1, k_max + 1)), level_rows)
    iso_in = TowerMorphism._trusted(
        source, reindexed, indices, [range(source.sizes[n - 1]) for n in indices]
    )
    iso_out = identity_morphism(target)
    return Levelization(
        source_reindexed=reindexed,
        target_reindexed=target,
        iso_in=iso_in,
        iso_out=iso_out,
        level=level,
    )


def is_level_morphism(f: TowerMorphism) -> bool:
    """Phi == id on its range and all squares commute strictly."""
    if any(p != n for n, p in enumerate(f.phi, start=1)):
        return False
    for n in range(1, f.defined_upto):
        fn, fn1, q = f.rows[n - 1], f.rows[n], f.target.up[n - 1]
        if any(fn[i] != q[j] for i, j in zip(f.source.up[n - 1], fn1)):
            return False
    return True
