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

from .errors import ElementNotInLevel, EmptyCore, InvalidParameter, UnsupportedMode, ValidationError
from .towers import Tower, natural_key
from .trees import ROOT, RootedTree, Vertex, max_geodesic_subtree, tree_of_tower

GRID = "grid"
RATIONAL = "rational"


def agreement(xs: Sequence, ys: Sequence) -> int | None:
    """t0 of two ends: the length of the shared prefix of two sequences (id
    chains, thread entries, or branches without their root); None when they
    are equal."""
    if xs == ys:
        return None
    t0 = 0
    for a, b in zip(xs, ys):
        if a != b:
            break
        t0 += 1
    return t0


class UltrametricSpace:
    """A finite point set with exact pairwise distances.

    Grid mode stores integer exponents k (distance e^{-k}); rational mode
    stores Fractions in (0, 1].  Points are sorted once, and index maps each
    to its position; rows[i][j] is the value of (points[i], points[j]), None
    on the diagonal.  Construction checks types, symmetry, and range; the
    strong triangle inequality is a separate verdict so that deliberately
    broken inputs can be examined.
    """

    __slots__ = ("points", "index", "mode", "rows")

    def __init__(self, points, entries: Mapping[tuple[str, str], int | Fraction], mode: str):
        pts = tuple(sorted(points, key=natural_key))
        index = {x: i for i, x in enumerate(pts)}
        if len(index) != len(pts):
            raise ValidationError("duplicate point ids")
        if not pts:
            raise ValidationError("an ultrametric space needs at least one point")
        if mode not in (GRID, RATIONAL):
            raise UnsupportedMode(f"unknown mode {mode!r}")
        rows: list[list] = [[None] * len(pts) for _ in pts]
        filled = 0
        for (x, y), value in entries.items():
            i, j = index.get(x), index.get(y)
            if i is None or j is None:
                raise ValidationError(f"entry ({x}, {y}) names an unknown point")
            if i == j:
                if value != 0:
                    raise ValidationError(f"self-distance of {x} must be 0")
                continue
            key = (x, y) if i < j else (y, x)
            if mode == GRID:
                if not isinstance(value, int) or value < 0:
                    raise ValidationError(f"grid exponent for {key} must be an integer >= 0")
            else:
                value = Fraction(value)
                if not 0 < value <= 1:
                    raise ValidationError(f"rational distance for {key} must lie in (0, 1]")
            if rows[i][j] is None:
                filled += 1
            elif rows[i][j] != value:
                raise ValidationError(f"asymmetric entries for pair {key}")
            rows[i][j] = rows[j][i] = value
        self.points, self.index, self.mode, self.rows = pts, index, mode, rows
        if filled != len(pts) * (len(pts) - 1) // 2:
            missing = sorted((x, y) for x, y, v in self.pairs() if v is None)
            raise ValidationError(f"missing distances for pairs: {missing[:3]}...")

    @classmethod
    def _trusted(cls, points: Sequence[str], rows: list[list], mode: str) -> UltrametricSpace:
        """A space from points already in natural_key order and their full
        rows, for builders whose values hold by construction."""
        space = cls.__new__(cls)
        space.points, space.mode, space.rows = tuple(points), mode, rows
        space.index = {x: i for i, x in enumerate(space.points)}
        return space

    def _entry(self, x: str, y: str):
        i, j = self.index.get(x), self.index.get(y)
        if i is None:
            raise ElementNotInLevel(f"{x!r} is not a point of this space")
        if j is None:
            raise ElementNotInLevel(f"{y!r} is not a point of this space")
        return self.rows[i][j]

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
        for i, (x, row) in enumerate(zip(self.points, self.rows)):
            for y, v in zip(self.points[i + 1 :], row[i + 1 :]):
                yield x, y, v

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
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.points, self.mode, tuple(map(tuple, self.rows))))

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


def _single_linkage(space: UltrametricSpace):
    """The single-linkage merge pass: pairs from closest to farthest
    (descending exponent in grid mode, ascending distance in rational mode)
    join clusters in a union-find over point positions.  Pairs of one value
    come in position order, so the merges depend only on the space.

    Yields (v, a, b, A, B) each time the pair (a, b) at value v first joins
    two clusters, A holding a and B holding b, before they merge.  A cluster
    is a list of positions led by its least one, its representative, and A
    has the lesser representative.  Pairs inside one cluster are skipped, so
    malformed spaces still merge into connected components.
    """
    by_value = {}
    for i, row in enumerate(space.rows):
        for j in range(i + 1, len(row)):
            by_value.setdefault(row[j], []).append((i, j))
    cluster = [[i] for i in range(len(space.points))]
    for v in sorted(by_value, reverse=space.mode == GRID):
        for a, b in by_value[v]:
            A, B = cluster[a], cluster[b]
            if A is B:
                continue
            if B[0] < A[0]:
                a, b, A, B = b, a, B, A
            yield v, a, b, A, B
            A += B
            for y in B:
                cluster[y] = A


def verify_ultrametric(space: UltrametricSpace) -> UltrametricVerdict:
    """Strong-triangle check from the single-linkage dendrogram.

    A finite space is ultrametric iff each pair's distance is the height at
    which single linkage first joins it (Carlsson and Memoli, JMLR 11,
    2010): when clusters A and B merge at v, every pair of A x B must sit
    at exactly v.  Each pair is compared once, so the check is O(n^2 log n).
    The first pair (x, y) that does not yields a genuine violating triple,
    because A and B were consistent before the merge.
    """
    rows = space.rows
    for v, a, b, A, B in _single_linkage(space):
        for x in A:
            row = rows[x]
            for y in B:
                if row[y] != v:
                    triple = (x, b, a) if row[b] != v else (x, y, b)
                    return UltrametricVerdict(
                        valid=False, violation=tuple(space.points[i] for i in triple)
                    )
    return UltrametricVerdict(valid=True)


# ---------------------------------------------------------------------------
# Tree -> ultrametric


def end_space_of(tree: RootedTree) -> UltrametricSpace:
    """Ends of the maximal geodesically complete subtree, distances as
    agreement exponents; point ids are the core's deepest ids.  Ends at
    e^{-k} meet at a core vertex of level k, so the ends below each vertex
    are gathered up the parent positions and each pair is set where it meets."""
    core = max_geodesic_subtree(tree)
    if core.depth == 0:
        raise EmptyCore("the tree has no complete branch")
    sizes = [1, *core.tower.sizes]
    rows: list[list] = [[None] * sizes[-1] for _ in range(sizes[-1])]
    below = [[i] for i in range(sizes[-1])]  # the ends below each vertex of the current level
    for k in range(core.depth - 1, -1, -1):
        above = [[] for _ in range(sizes[k])]
        for ends, p in zip(below, core.parent_positions(k + 1)):
            for x in ends:
                row = rows[x]
                for y in above[p]:
                    row[y] = rows[y][x] = k
            above[p] += ends
        below = above
    return UltrametricSpace._trusted(core.tower.levels[-1], rows, GRID)


# ---------------------------------------------------------------------------
# Ultrametric -> tree (the dendrogram)


def tree_of_ultrametric(
    space: UltrametricSpace,
) -> tuple[RootedTree, dict[str, tuple[Vertex, ...]]]:
    """The quotient dendrogram: one vertex per class at each integer height
    up to max exponent + 1, where all classes are singletons.

    Each point becomes a complete branch, its root-to-leaf vertex tuple,
    whose pairwise agreement depths equal the original exponents exactly.
    The class of a point at height h is its single-linkage cluster once
    every pair >= h has merged, named by its least point; a malformed space
    gets connected components.
    """
    if space.mode != GRID:
        raise UnsupportedMode("rational spaces go through simplicialize instead")
    pts = space.points
    height = max((v for _, _, v in space.pairs()), default=0) + 1
    owner = list(range(len(pts)))  # position -> representative position
    # parts[h - 1] is owner once every pair >= h has merged; heights at or
    # below the last merge keep the final owner itself
    parts = [owner] * height
    h = height
    for v, _, _, A, B in _single_linkage(space):
        while h > v:
            parts[h - 1] = owner[:]
            h -= 1
        for y in B:
            owner[y] = A[0]
    # a representative is the least position of its class, so each height
    # lists its classes in point order, which is natural_key order
    reps = [list(dict.fromkeys(part)) for part in parts]
    up = []
    for coarse, above, here in zip(parts, reps, reps[1:]):
        where = {r: i for i, r in enumerate(above)}
        up.append([where[coarse[r]] for r in here])
    tree = tree_of_tower(Tower._ordered([[pts[r] for r in rs] for rs in reps], up))
    ends = {
        x: (ROOT,) + tuple((h, pts[part[i]]) for h, part in enumerate(parts, start=1))
        for i, x in enumerate(pts)
    }
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
    e^{-(k+1)} < d <= e^{-k}, which pins the distortion into (1/e, 1].
    Each distinct distance is certified once."""
    rows = []
    grid = space.mode == GRID
    floors: dict[Fraction, int] = {}
    for x, y, v in space.pairs():
        if not grid and v not in floors:
            floors[v] = certified_neg_log_floor(v)
        original, exponent, k = (Fraction(0), v, v) if grid else (v, None, floors[v])
        rows.append(CorrespondenceRow(x, y, original, exponent, k, certified=True))
    if not grid:
        exps = [[None if v is None else floors[v] for v in row] for row in space.rows]
        space = UltrametricSpace._trusted(space.points, exps, GRID)
    tree, _ = tree_of_ultrametric(space)
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
