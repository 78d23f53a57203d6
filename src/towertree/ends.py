"""End spaces of rooted trees as exact ultrametric spaces, and back.

Distances between ends are stored as agreement depths (integer exponents
of e^{-t0}); the transcendental e^{-k} only appears at presentation time.
Rational-distance spaces are supported alongside, and are discretized onto
the integer-exponent grid by simplicialize, whose exponent choices are
certified with interval arithmetic rather than trusted to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import mpmath

from .errors import (
    DifferentTrees,
    ElementNotInLevel,
    EmptyCore,
    InvalidParameter,
    UnsupportedMode,
    ValidationError,
)
from .towers import Tower, natural_key
from .trees import (
    ROOT,
    Branch,
    RootedTree,
    branches,
    max_geodesic_subtree,
    tree_of_tower,
)

GRID = "grid"
RATIONAL = "rational"


@dataclass(frozen=True)
class AgreementDepth:
    """t0 of two branches: length of the shared prefix; None means equal."""

    value: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def exponent(self) -> int:
        if self.value is None:
            raise ValidationError("equal branches have no finite agreement depth")
        return self.value

    def numeric(self) -> float:
        """e^{-t0} for display; 0.0 at infinite depth."""
        return 0.0 if self.value is None else math.exp(-self.value)

    def __int__(self) -> int:
        return self.exponent()


def agreement(f: Branch, g: Branch) -> AgreementDepth:
    """Largest radius at which the branches still share a vertex."""
    if f.tree is not None and g.tree is not None and f.tree != g.tree:
        raise DifferentTrees("branches belong to different trees")
    return prefix_agreement(f.vertices[1:], g.vertices[1:])


def prefix_agreement(xs: Sequence, ys: Sequence) -> AgreementDepth:
    """Length of the shared prefix of two sequences; None when they are equal."""
    if xs == ys:
        return AgreementDepth(None)
    t0 = 0
    for a, b in zip(xs, ys):
        if a != b:
            break
        t0 += 1
    return AgreementDepth(t0)


def _pair_key(x: str, y: str) -> tuple[str, str]:
    return (x, y) if natural_key(x) <= natural_key(y) else (y, x)


class UltrametricSpace:
    """A finite point set with exact pairwise distances.

    Grid mode stores integer exponents k (distance e^{-k}); rational mode
    stores Fractions in (0, 1].  Construction checks types, symmetry, and
    range; the strong triangle inequality is a separate verdict so that
    deliberately broken inputs can be examined.
    """

    __slots__ = ("points", "mode", "table")

    def __init__(self, points, entries: Mapping[tuple[str, str], int | Fraction], mode: str):
        pts = tuple(sorted(points, key=natural_key))
        if len(set(pts)) != len(pts):
            raise ValidationError("duplicate point ids")
        if not pts:
            raise ValidationError("an ultrametric space needs at least one point")
        if mode not in (GRID, RATIONAL):
            raise UnsupportedMode(f"unknown mode {mode!r}")
        table: dict[tuple[str, str], int | Fraction] = {}
        for (x, y), value in entries.items():
            if x not in pts or y not in pts:
                raise ValidationError(f"entry ({x}, {y}) names an unknown point")
            if x == y:
                if value != 0:
                    raise ValidationError(f"self-distance of {x} must be 0")
                continue
            key = _pair_key(x, y)
            if mode == GRID:
                if not isinstance(value, int) or value < 0:
                    raise ValidationError(f"grid exponent for {key} must be an integer >= 0")
            else:
                value = Fraction(value)
                if not 0 < value <= 1:
                    raise ValidationError(f"rational distance for {key} must lie in (0, 1]")
            if key in table and table[key] != value:
                raise ValidationError(f"asymmetric entries for pair {key}")
            table[key] = value
        need = {(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]}
        missing = need - set(table)
        if missing:
            raise ValidationError(f"missing distances for pairs: {sorted(missing)[:3]}...")
        self.points = pts
        self.mode = mode
        self.table = table

    def _entry(self, x: str, y: str):
        if x not in self.points:
            raise ElementNotInLevel(f"{x!r} is not a point of this space")
        if y not in self.points:
            raise ElementNotInLevel(f"{y!r} is not a point of this space")
        if x == y:
            return None
        return self.table[_pair_key(x, y)]

    def exponent(self, x: str, y: str) -> int | None:
        """Agreement exponent; None on the diagonal.  Grid mode only."""
        if self.mode != GRID:
            raise UnsupportedMode("exponents exist only in grid mode")
        return self._entry(x, y)

    def rational(self, x: str, y: str) -> Fraction:
        if self.mode != RATIONAL:
            raise UnsupportedMode("exact rational distances exist only in rational mode")
        e = self._entry(x, y)
        return Fraction(0) if e is None else e

    def numeric(self, x: str, y: str) -> float:
        """Float distance for display in either mode."""
        e = self._entry(x, y)
        if e is None:
            return 0.0
        return math.exp(-e) if self.mode == GRID else float(e)

    def pairs(self):
        for i, x in enumerate(self.points):
            for y in self.points[i + 1 :]:
                yield x, y, self.table[(x, y)]

    def diameter_exponent(self) -> int | None:
        """Grid mode: the least exponent over pairs (diameter e^{-k})."""
        if self.mode != GRID:
            raise UnsupportedMode("diameter exponent is a grid-mode notion")
        return min((v for _, _, v in self.pairs()), default=None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UltrametricSpace)
            and self.points == other.points
            and self.mode == other.mode
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.points, self.mode, tuple(sorted(self.table.items()))))

    def __repr__(self) -> str:
        return f"UltrametricSpace({len(self.points)} points, mode={self.mode})"


def grid_space(points, exponents: Mapping[tuple[str, str], int]) -> UltrametricSpace:
    return UltrametricSpace(points, exponents, GRID)


def rational_space(points, dists: Mapping[tuple[str, str], Fraction]) -> UltrametricSpace:
    return UltrametricSpace(points, dists, RATIONAL)


@dataclass(frozen=True)
class UltrametricVerdict:
    valid: bool
    violation: tuple[str, str, str] | None = None  # d(x,y) > max(d(x,z), d(z,y))

    def __bool__(self) -> bool:
        return self.valid


def verify_ultrametric(space: UltrametricSpace) -> UltrametricVerdict:
    """Exhaustive strong-triangle check; first violating triple, scanned in
    point order, is reported."""
    pts = space.points
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            for z in pts:
                if z == x or z == y:
                    continue
                if space.mode == GRID:
                    bad = space.table[_pair_key(x, y)] < min(
                        space.table[_pair_key(x, z)], space.table[_pair_key(z, y)]
                    )
                else:
                    bad = space.table[_pair_key(x, y)] > max(
                        space.table[_pair_key(x, z)], space.table[_pair_key(z, y)]
                    )
                if bad:
                    return UltrametricVerdict(valid=False, violation=(x, y, z))
    return UltrametricVerdict(valid=True)


# ---------------------------------------------------------------------------
# Tree -> ultrametric


def end_space_of(tree: RootedTree) -> UltrametricSpace:
    """Ends of the maximal geodesically complete subtree, distances as
    agreement exponents.  Point ids are the leaf ids (unique per level)."""
    core = max_geodesic_subtree(tree)
    if core.depth == 0:
        raise EmptyCore("the tree has no complete branch")
    ends = branches(core)
    points = [b.leaf[1] for b in ends]
    exponents = {}
    for i, f in enumerate(ends):
        for g in ends[i + 1 :]:
            exponents[(points[i], g.leaf[1])] = agreement(f, g).exponent()
    return grid_space(points, exponents)


# ---------------------------------------------------------------------------
# Ultrametric -> tree (the dendrogram)


def _partition(space: UltrametricSpace, h: int) -> dict[str, str]:
    """Map each point to the least id of its class under exponent >= h,
    closed transitively so malformed inputs still give a partition."""
    rep = {x: x for x in space.points}

    def find(x: str) -> str:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for x, y, k in space.pairs():
        if k >= h:
            rx, ry = find(x), find(y)
            if rx != ry:
                lo, hi = (rx, ry) if natural_key(rx) <= natural_key(ry) else (ry, rx)
                rep[hi] = lo
    return {x: find(x) for x in space.points}


def tree_of_ultrametric(space: UltrametricSpace) -> tuple[RootedTree, dict[str, Branch]]:
    """The quotient dendrogram: one vertex per class at each integer height
    up to max exponent + 1, where all classes are singletons.

    Embedded points become complete branches whose pairwise agreement
    depths equal the original exponents exactly.
    """
    if space.mode != GRID:
        raise UnsupportedMode("rational spaces go through simplicialize instead")
    height = max((v for _, _, v in space.pairs()), default=0) + 1
    parts = [_partition(space, h) for h in range(1, height + 1)]
    classes = [dict.fromkeys(part.values()) for part in parts]
    bonds = [{cls: coarse[cls] for cls in fine} for coarse, fine in zip(parts, classes[1:])]
    tree = tree_of_tower(Tower(classes, bonds))
    ends = {}
    for x in space.points:
        chain = (ROOT,) + tuple((h, parts[h - 1][x]) for h in range(1, height + 1))
        ends[x] = Branch(vertices=chain, complete=True, tree=tree)
    return tree, ends


def tu_distance(space: UltrametricSpace, x: str, t, y: str, s):
    """Distance in the quotient tree between [x, t] and [y, s].

    Grid mode is exact (Fractions); rational mode goes through float
    logarithms with tolerance 1e-12, which is what the mode can honestly
    offer.
    """
    t, s = Fraction(t), Fraction(s)
    if t < 0 or s < 0:
        raise InvalidParameter("heights must be >= 0")
    entry = space._entry(x, y)
    if x == y:
        return abs(t - s)
    if space.mode == GRID:
        return t + s - 2 * min(Fraction(entry), t, s)
    return float(t) + float(s) - 2 * min(-math.log(entry), float(t), float(s))


# ---------------------------------------------------------------------------
# Certified integer log brackets


def _certified_sign_ln_minus(p: int, q: int, r: Fraction) -> int:
    """Sign of ln(p/q) - r, certified by widening interval precision.

    Only sound when ln(p/q) != r; callers ensure that (a rational equal to
    a rational power of e forces p = q and r = 0, which they exclude).
    """
    prec = 80
    while prec <= 100000:
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            x = (
                mpmath.iv.log(mpmath.iv.mpf(p))
                - mpmath.iv.log(mpmath.iv.mpf(q))
                - mpmath.iv.mpf(r.numerator) / mpmath.iv.mpf(r.denominator)
            )
            if x.a > 0:
                return 1
            if x.b < 0:
                return -1
        finally:
            mpmath.iv.prec = old
        prec *= 2
    raise ValidationError(f"could not separate ln({p}/{q}) from {r}")


def certified_ln_sign(value: Fraction, threshold: Fraction) -> int:
    """Certified sign of ln(value) - threshold for positive rational value."""
    value = Fraction(value)
    threshold = Fraction(threshold)
    if value <= 0:
        raise InvalidParameter("ln needs a positive value")
    if value == 1:
        return (0 > threshold) - (0 < threshold)
    return _certified_sign_ln_minus(value.numerator, value.denominator, threshold)


def certified_neg_log_floor(d: Fraction) -> int:
    """The unique k with e^{-(k+1)} < d <= e^{-k}, for rational d in (0, 1]."""
    d = Fraction(d)
    if not 0 < d <= 1:
        raise InvalidParameter("need a distance in (0, 1]")
    if d == 1:
        return 0
    k = int(mpmath.floor(-mpmath.log(mpmath.mpf(d.numerator) / mpmath.mpf(d.denominator))))
    k = max(k, 0)
    # certify, walking if the float guess sat on the wrong side
    while certified_ln_sign(d, Fraction(-k)) > 0:  # d > e^{-k}: k too big
        k -= 1
    while certified_ln_sign(d, Fraction(-(k + 1))) < 0:  # d <= e^{-(k+1)}: k too small
        k += 1
    return k


# ---------------------------------------------------------------------------
# Simplicialization of rational spaces


@dataclass(frozen=True)
class CorrespondenceRow:
    x: str
    y: str
    original: Fraction  # exact original distance (e^{-k} is recorded as exponent)
    original_exponent: int | None  # set when the original was already grid
    new_exponent: int
    certified: bool

    def ratio(self) -> float:
        """original / discretized distance; exactly 1.0 for grid originals."""
        if self.original_exponent is not None:
            return 1.0
        return float(mpmath.mpf(self.original.numerator) / mpmath.mpf(self.original.denominator) * mpmath.exp(self.new_exponent))


@dataclass(frozen=True)
class EndCorrespondence:
    """Pairing of original points with ends of the discretized tree."""

    points: tuple[str, ...]
    rows: tuple[CorrespondenceRow, ...]


def simplicialize(space: UltrametricSpace) -> tuple[RootedTree, EndCorrespondence]:
    """Discretize distances onto the integer-exponent grid and build the
    dendrogram.  Each pair's exponent k is certified to satisfy
    e^{-(k+1)} < d <= e^{-k}, which pins the distortion into (1/e, 1]."""
    rows = []
    exponents = {}
    for x, y, v in space.pairs():
        if space.mode == GRID:
            k = v
            rows.append(
                CorrespondenceRow(
                    x=x, y=y, original=Fraction(0), original_exponent=v, new_exponent=k, certified=True
                )
            )
        else:
            k = certified_neg_log_floor(v)
            rows.append(
                CorrespondenceRow(
                    x=x, y=y, original=v, original_exponent=None, new_exponent=k, certified=True
                )
            )
        exponents[(x, y)] = k
    grid = grid_space(space.points, exponents)
    tree, _ = tree_of_ultrametric(grid)
    return tree, EndCorrespondence(points=space.points, rows=tuple(rows))


def bilipschitz_bounds(corr: EndCorrespondence) -> tuple[float, float]:
    """(min, max) of original/discretized distance over all pairs.

    By the certified exponent brackets every ratio lies in (1/e, 1];
    degenerate spaces with no pairs report the isometric (1.0, 1.0).
    """
    ratios = [row.ratio() for row in corr.rows]
    if not ratios:
        return (1.0, 1.0)
    return (min(ratios), max(ratios))
