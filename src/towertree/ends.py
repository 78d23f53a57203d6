"""End spaces of rooted trees as exact ultrametric spaces, and back.

Distances between ends are stored as agreement depths (integer exponents
of e^{-t0}); the transcendental e^{-k} only appears at presentation time.
Rational-distance spaces are supported alongside, and are discretized onto
the integer-exponent grid by simplicialize.  Its exponent choices are
certified rather than trusted to floats: a float guess is confirmed by
lower and upper bounds on a logarithm, each from mpmath.libmp calls
rounded outward, at a precision doubled until the bounds decide.  mpmath
is imported by the certified logs, on their first call, so importing the
package does not load it.  Points form a Level or Window.  A space reads
and writes its text form, the distance matrix, here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from operator import neg
from typing import Mapping, Sequence

from .errors import (
    ElementNotInLevel,
    EmptyCore,
    InvalidParameter,
    ParseError,
    TowerTreeError,
    UnsupportedMode,
    ValidationError,
)
from .formats import _decimal, _rational, _require
from .towers import Level, Tower, Window, natural_key
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
    stores Fractions in (0, 1].  points is a Level, sorted once, or the
    Window of a generator tower's end space; rows[i][j] is the value of
    (points[i], points[j]), None on the diagonal.  A space is held one of
    two ways.  grid_space, rational_space and parse_distance_matrix give
    rows, checked for types, symmetry and range; the strong triangle
    inequality is a separate verdict so that deliberately broken inputs can
    be examined, and the single-linkage chain that verify_ultrametric and
    tree_of_ultrametric read is built on first use.  end_space_of gives the
    chain alone, and rows is then a view built from it on first read.

    Spaces are immutable, and equal when their rows are: two spaces with
    rows compare rows, and otherwise both must be valid, with one chain.
    A valid space hashes by its chain, a malformed one by its rows.
    """

    __slots__ = ("points", "mode", "_rows", "_linkage", "_verdict")

    def __init__(self, points, entries: Mapping[tuple[str, str], int | Fraction], mode: str):
        pts = Level(sorted(points, key=natural_key))
        if len(set(pts)) != len(pts):
            raise ValidationError("duplicate point ids")
        if not pts:
            raise ValidationError("an ultrametric space needs at least one point")
        if mode not in (GRID, RATIONAL):
            raise UnsupportedMode(f"unknown mode {mode!r}")
        rows: list[list] = [[None] * len(pts) for _ in pts]
        index = pts.index
        for (x, y), value in entries.items():
            try:
                i, j = index(x), index(y)
            except ValueError:
                raise ValidationError(f"entry ({x}, {y}) names an unknown point") from None
            if i == j:
                if value != 0:
                    raise ValidationError(f"self-distance of {x} must be 0")
                continue
            if mode == RATIONAL and type(value) is not Fraction:
                value = Fraction(value)
            rows[i][j] = value
            if rows[j][i] is None:  # until (y, x) brings its own
                rows[j][i] = value
        _check_rows(pts, rows, mode)
        self.points, self.mode, self._rows = pts, mode, rows
        self._linkage = self._verdict = None

    @classmethod
    def _trusted(
        cls, points: Level | Window, rows: list[list] | None, mode: str, linkage=None, verdict=None
    ) -> UltrametricSpace:
        """A space from points, a level of a tower or of a space, and their
        full rows or their chain, for builders whose values hold by
        construction."""
        space = cls.__new__(cls)
        space.points, space.mode, space._rows = points, mode, rows
        space._linkage, space._verdict = linkage, verdict
        return space

    @property
    def rows(self) -> list[list]:
        """rows[i][j] is the value of (points[i], points[j]), None on the
        diagonal: as given, or built from the chain on first read."""
        if self._rows is None:
            self._rows = _rows_of_chain(*self._linkage, self.mode == GRID)
        return self._rows

    def _entry(self, x: str, y: str):
        try:
            i, j = self.points.index(x), self.points.index(y)
        except ValueError:
            stray = y if x in self.points else x
            raise ElementNotInLevel(f"{stray!r} is not a point of this space") from None
        if self._rows is not None:
            return self._rows[i][j]
        if i == j:
            return None
        # the farthest link between the two places in the chain
        order, link = self._linkage
        p, q = sorted((order.index(i), order.index(j)))
        return (min if self.mode == GRID else max)(link[p:q])

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
        if self._rows is None:
            return min(self._linkage[1], default=None)
        return min((v for _, _, v in self.pairs()), default=None)

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, UltrametricSpace)
            and self.points == other.points
            and self.mode == other.mode
        ):
            return False
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        # a valid space's rows and chain determine each other
        return (
            verify_ultrametric(self).valid
            and verify_ultrametric(other).valid
            and self._linkage == other._linkage
        )

    def __hash__(self):
        if verify_ultrametric(self).valid:
            order, link = self._linkage
            return hash((self.points, self.mode, tuple(order), tuple(link)))
        return hash((self.points, self.mode, tuple(map(tuple, self._rows))))

    def __repr__(self) -> str:
        return f"UltrametricSpace({len(self.points)} points, mode={self.mode})"


# per mode: whether a value is in range, and the message when it is not
_RANGE = {
    GRID: (lambda v: isinstance(v, int) and v >= 0, "grid exponent for {} must be an integer >= 0"),
    RATIONAL: (
        lambda v: 0 < v.numerator <= v.denominator, "rational distance for {} must lie in (0, 1]"
    ),
}


def _check_rows(points: Level, rows: list[list], mode: str) -> None:
    """Check the position rows of a space: rows[i][j] is the value of
    (points[i], points[j]), None on the diagonal and for a pair not given.
    The first pair in position order with a value out of range or two
    different values raises ValidationError, and so does any pair not given.
    UltrametricSpace checks here, and parse_distance_matrix when its own
    checks fail, for the first bad pair."""
    in_range, rule = _RANGE[mode]
    unset = False
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            a, b = row[j], rows[j][i]
            if a is None:
                unset = True
            elif not in_range(a) or (a is not b and not in_range(b)):
                raise ValidationError(rule.format((points[i], points[j])))
            elif a is not b and a != b:
                raise ValidationError(f"asymmetric entries for pair {(points[i], points[j])}")
    if unset:
        n = len(points)
        missing = sorted(
            (points[i], points[j]) for i in range(n) for j in range(i + 1, n) if rows[i][j] is None
        )
        raise ValidationError(f"missing distances for pairs: {missing[:3]}...")


def grid_space(points, exponents: Mapping[tuple[str, str], int]) -> UltrametricSpace:
    return UltrametricSpace(points, exponents, GRID)


def rational_space(points, dists: Mapping[tuple[str, str], Fraction]) -> UltrametricSpace:
    return UltrametricSpace(points, dists, RATIONAL)


# ---------------------------------------------------------------------------
# Distance matrices: a header of point ids, then one row per id, with exact
# entries ("p/q" rationals, "e-k" exponents)


def _emit_entry(value, mode: str) -> str:
    if mode == GRID:
        return f"e-{value}"
    return str(Fraction(value))


def emit_distance_matrix(space: UltrametricSpace) -> str:
    for p in space.points:
        if any(ch.isspace() for ch in p):
            raise ParseError(f"point id {p!r} cannot carry whitespace in matrix form")
    lines = [" ".join(space.points)] + [
        " ".join("0" if v is None else _emit_entry(v, space.mode) for v in row) for row in space.rows
    ]
    return "\n".join(lines) + "\n"


def _parse_entry(token: str, lineno: int) -> tuple[str, int | Fraction]:
    if token.startswith("e-"):
        return GRID, _decimal(token[2:], "bad exponent entry", token, line=lineno)
    return RATIONAL, _rational(token, "bad distance entry", line=lineno)


def parse_distance_matrix(text: str) -> UltrametricSpace:
    """The space of a matrix text.  The header is sorted once, and each
    entry is written into the row of its point's position.  The range is
    checked once per distinct token and the symmetry by one comparison with
    the transposed rows; when either fails, the rows are checked as
    UltrametricSpace checks them, for the first bad pair."""
    rows = [
        (i, line.split()) for i, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    _require(bool(rows), "matrix text is empty")
    header_line, header = rows[0]
    _require(len(set(header)) == len(header), "duplicate ids in matrix header")
    body = rows[1:]
    if len(body) != len(header):
        raise ParseError(
            f"expected {len(header)} rows after the header, found {len(body)}", line=header_line
        )
    try:
        points = Level(sorted(header, key=natural_key))
    except TowerTreeError as e:
        raise ParseError(str(e)) from None
    pos = [points.index(x) for x in header]
    values: list[list] = [[None] * len(points) for _ in points]
    read: dict[str, tuple[str, int | Fraction]] = {}  # each distinct token is parsed once
    for (lineno, tokens), i in zip(body, pos):
        if len(tokens) != len(points):
            raise ParseError(f"row has {len(tokens)} entries, expected {len(points)}", line=lineno)
        row = values[i]
        for token, j in zip(tokens, pos):
            if i == j:
                if token != "0":
                    raise ParseError(f"diagonal entry must be 0, found {token!r}", line=lineno)
                continue
            row[j] = (read.get(token) or read.setdefault(token, _parse_entry(token, lineno)))[1]
    modes = {mode for mode, _ in read.values()}
    if len(modes) > 1:
        raise ParseError("matrix mixes exponent and rational entries")
    # a singleton matrix has no off-diagonal entry to reveal its mode
    mode = modes.pop() if modes else GRID
    in_range = _RANGE[mode][0]
    if not all(in_range(v) for _, v in read.values()) or values != list(map(list, zip(*values))):
        try:
            _check_rows(points, values, mode)
        except TowerTreeError as e:
            raise ParseError(str(e)) from None
    return UltrametricSpace._trusted(points, values, mode)


@dataclass(frozen=True)
class UltrametricVerdict:
    valid: bool
    violation: tuple[str, str, str] | None = None  # d(x,y) > max(d(x,z), d(z,y))

    def __bool__(self) -> bool:
        return self.valid


def _single_linkage(space: UltrametricSpace) -> tuple[list[int], list]:
    """The single-linkage dendrogram in Prim's order: kept in space._linkage,
    where end_space_of puts it and where a space with rows gets it on first
    use.

    order starts at position 0, and each next point is the one closest to
    the points before it (descending exponent in grid mode, ascending
    distance in rational mode; the least position among ties); link[t - 1]
    is the value joining order[t] to them.  The classes at any threshold
    are then the runs of order cut at each link farther than it, so two
    points join at the farthest link between their places, and a malformed
    space gets connected components.  O(n^2) time, and no memory per pair.
    """
    if space._linkage is None:
        rows = space.rows
        rest = list(range(1, len(rows)))
        near = rows[0][1:]  # the value from each point of rest to its closest point of order
        # places in near, made once: enumerate would make an int per place past 256
        places = list(range(len(rows)))
        order, link = [0], []
        grid = space.mode == GRID
        closest = max if grid else min
        while rest:
            w = closest(near)
            t = near.index(w)
            order.append(rest.pop(t))
            link.append(w)
            del near[t]
            row = rows[order[-1]]
            if grid:
                for t, k in zip(places, rest):
                    if row[k] > near[t]:
                        near[t] = row[k]
            else:
                for t, k in zip(places, rest):
                    if row[k] < near[t]:
                        near[t] = row[k]
        space._linkage = order, link
    return space._linkage


def _farthest(link: list, grid: bool):
    """The running farthest links along a chain: for q = 1, 2, ..., the list
    whose p-th entry is the farthest link between places p and q, p < q.
    One list is updated in place and yielded at each step."""
    farthest: list = []
    for w in link:
        # the links closer than w become w: a suffix, as farthest[p] gets no farther with p
        cut = bisect_right(farthest, w) if grid else bisect_right(farthest, -w, key=neg)
        farthest[cut:] = [w] * (len(farthest) - cut)
        farthest.append(w)
        yield farthest


def _rows_of_chain(order: list[int], link: list, grid: bool) -> list[list]:
    """The rows of a valid space from its chain: the running farthest links
    walked forward give each place's values to the places before it, walked
    backward those to the places after it, and each place's row is then
    read in position order.  O(n^2) time, as the rows themselves take."""
    place = sorted(range(len(order)), key=order.__getitem__)  # each position's place in order
    after = [f[::-1] for f in _farthest(link[::-1], grid)][::-1] + [[]]
    rows: list = [None] * len(order)
    for i, before, later in zip(order, chain([[]], _farthest(link, grid)), after):
        row = before + [None] + later
        rows[i] = list(map(row.__getitem__, place))
    return rows


# the verdict of a space built from a tree's chain: meet levels in a rooted
# tree are an ultrametric
_OF_TREE = UltrametricVerdict(valid=True)


def verify_ultrametric(space: UltrametricSpace) -> UltrametricVerdict:
    """Strong-triangle check against the single-linkage dendrogram.

    The end space of a tree is valid by construction, as meet levels in a
    rooted tree are an ultrametric: its verdict reads no pair, and only
    checks, in O(n), that its chain orders every position once with n - 1
    links in range.

    A space with rows is ultrametric iff each pair's value is the one at
    which single linkage first joins it (Carlsson and Memoli, JMLR 11,
    2010): in Prim's order, the farthest link between the two points'
    places.  So each point's row, read at the points before it in that
    order, must equal the running farthest links, one list comparison per
    point: every pair is compared once, in O(n^2) time with O(n) memory
    beyond the rows.  The verdict is kept next to the pass.

    The first point y whose row differs, at the first point x before it,
    yields a genuine violating triple (x, y, z), z being the first point
    before y at y's own link: x and y are farther apart than their links
    allow (a Prim step never passes over a closer point), while z sits at
    least that close to both, by the rows already compared.
    """
    if space._verdict is _OF_TREE:
        order, link = space._linkage
        n = len(space.points)
        if set(order) != set(range(n)) or len(order) != n or len(link) != n - 1:
            raise ValidationError("an end space's chain must order each point once, with n - 1 links")
        if not all(map(_RANGE[GRID][0], link)):
            raise ValidationError("the links of an end space must be exponents >= 0")
    elif space._verdict is None:
        space._verdict = _verdict_of_rows(space)
    return space._verdict


def _verdict_of_rows(space: UltrametricSpace) -> UltrametricVerdict:
    order, link = _single_linkage(space)
    rows, grid = space.rows, space.mode == GRID
    for q, farthest in enumerate(_farthest(link, grid), 1):
        got = list(map(rows[order[q]].__getitem__, order[:q]))
        if got != farthest:
            p = next(p for p, (a, b) in enumerate(zip(got, farthest)) if a != b)
            triple = (order[p], order[q], order[got.index(link[q - 1])])
            return UltrametricVerdict(valid=False, violation=tuple(space.points[i] for i in triple))
    return UltrametricVerdict(valid=True)


# ---------------------------------------------------------------------------
# Tree -> ultrametric


def end_space_of(tree: RootedTree) -> UltrametricSpace:
    """Ends of the maximal geodesically complete subtree, distances as
    agreement exponents; point ids are the core's deepest ids.  Ends at
    e^{-k} meet at a core vertex of level k, so the space is the core's own
    dendrogram, held as its single-linkage chain and read off the core
    bottom-up: the chain below a vertex of level k is its children's chains
    in the order of their least ends, joined by links k.  This is the chain
    _single_linkage reads off the rows, in O(n * depth) whole-list work and
    O(n) memory; no pair is written."""
    core = max_geodesic_subtree(tree)
    if core.depth == 0:
        raise EmptyCore("the tree has no complete branch")
    count = core.sizes[-1]
    chains = [([i], []) for i in range(count)]  # the chain below each vertex of the current level
    ranked: Sequence[int] = range(count)  # the vertices of the current level by least end
    for k in range(core.depth - 1, -1, -1):
        above: list = [None] * core.sizes[k]
        ranked_above = []
        for i, p in zip(ranked, map(core.up[k].__getitem__, ranked)):
            if above[p] is None:  # the child with the least end starts the chain
                above[p] = chains[i]
                ranked_above.append(p)
            else:
                order, link = above[p]
                order += chains[i][0]
                link.append(k)
                link += chains[i][1]
        chains, ranked = above, ranked_above
    return UltrametricSpace._trusted(core.ids[-1], None, GRID, chains[0], _OF_TREE)


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
    gets connected components.  The classes are read off the space's
    single-linkage chain: the one end_space_of builds, or the pass that
    verify_ultrametric keeps, which is run here if it has not been.
    """
    if space.mode != GRID:
        raise UnsupportedMode("rational spaces go through simplicialize instead")
    pts = space.points
    order, link = _single_linkage(space)
    place = sorted(range(len(order)), key=order.__getitem__)  # each position's place in order
    values = set(link)
    parts: list[list[int]] = []  # parts[h - 1][i]: the least position in the class of i at height h
    # levels and rows are copied from lists: tuples grown from map iterators,
    # of no known length, left the heap 3 MB larger after 10,000 calls
    levels, up = [], []
    for h in range(1, max(link, default=0) + 2):
        if h == 1 or h - 1 in values:  # the links at h - 1 cut from here up
            part = _classes(order, link, h, place)
            # each class first appears at its least point, so they come in point order
            finer = list(dict.fromkeys(part))
            if parts:
                where = dict(zip(reps, range(len(reps))))
                up.append(tuple([where[parts[-1][r]] for r in finer]))
            reps, level = finer, Level([pts[r] for r in finer])
        else:
            up.append(tuple(range(len(reps))))
        parts.append(part)
        levels.append(level)
    tree = tree_of_tower(Tower._ordered(levels, up))
    columns = (zip(repeat(h), map(pts.__getitem__, part)) for h, part in enumerate(parts, 1))
    return tree, dict(zip(pts, zip(repeat(ROOT), *columns)))


def _classes(order: list[int], link: list, h: int, place: list[int]) -> list[int]:
    """The least position in each point's class at height h: the runs of
    order cut at every link below h."""
    names, start, low = [], 0, order[0]  # names[t]: the least position in the run of order[t]
    for t, w in enumerate(link, 1):
        if w < h:
            names += [low] * (t - start)
            start, low = t, order[t]
        elif order[t] < low:
            low = order[t]
    names += [low] * (len(order) - start)
    return list(map(names.__getitem__, place))


# ---------------------------------------------------------------------------
# Certified integer log brackets


@cache
def _libmp():
    """The mpmath.libmp calls of the certified logs, imported on the first."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_sign, mpf_sub
    from mpmath.libmp import round_ceiling, round_floor

    return from_int, mpf_div, mpf_log, mpf_sign, mpf_sub, round_ceiling, round_floor


def _certified_sign_ln_minus(p: int, q: int, r: Fraction | int) -> int:
    """Sign of ln(p/q) - r, certified by outward rounding.

    At each precision, a lower bound on ln(p/q) - r comes from mpmath.libmp
    calls that round p/q and its log down and r up, and an upper bound from
    the opposite roundings, so both hold for the exact value, as in mpmath's
    interval log.  A lower bound above 0 or an upper bound below 0 decides
    the sign; otherwise the precision doubles from 80 bits up to 100,000.
    Only sound when ln(p/q) != r; callers ensure that (a rational equal to
    a rational power of e forces p = q and r = 0, which they exclude).
    """
    from_int, mpf_div, mpf_log, mpf_sign, mpf_sub, up, down = _libmp()
    top, bottom = from_int(p), from_int(q)
    a, b = from_int(r.numerator), from_int(r.denominator)
    prec = 80
    while prec <= 100000:
        for rnd, opposite, sign in ((down, up, 1), (up, down, -1)):
            ln = mpf_log(mpf_div(top, bottom, prec, rnd), prec, rnd)
            if mpf_sign(mpf_sub(ln, mpf_div(a, b, prec, opposite), prec, rnd)) == sign:
                return sign
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


def _floor_log(p: int, q: int, scale: int = 1) -> int:
    """The integer c with c < scale * ln(p/q) < c + 1, for integers p > q >= 1
    and scale >= 1.  ln(p/q) is irrational there, so walking the float guess
    with certified signs ends on c.  The thresholds c / scale stay ints when
    scale is 1, so that the common case builds no Fraction per step."""
    c = max(math.floor(scale * (math.log(p) - math.log(q))), 0)
    while _certified_sign_ln_minus(p, q, c if scale == 1 else Fraction(c, scale)) < 0:
        c -= 1  # scale * ln(p/q) < c: c too big
    while _certified_sign_ln_minus(p, q, c + 1 if scale == 1 else Fraction(c + 1, scale)) > 0:
        c += 1  # scale * ln(p/q) > c + 1: c too small
    return c


def certified_neg_log_floor(d: Fraction) -> int:
    """The unique k with e^{-(k+1)} < d <= e^{-k}, for rational d in (0, 1]."""
    d = Fraction(d)
    if not 0 < d <= 1:
        raise InvalidParameter("need a distance in (0, 1]")
    return 0 if d == 1 else _floor_log(d.denominator, d.numerator)


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
        import mpmath

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
    Each distinct distance is certified once, found by its numerator and
    denominator.  A rational space's floors are written into int rows as
    they are certified, and the tree is their dendrogram; a grid space's
    tree is its own.  The floor is monotone, so every threshold keeps its
    classes, on malformed spaces too."""
    pts, grid = space.points, space.mode == GRID
    known: dict[tuple[int, int], int] = {}
    floors: list[list] = [] if grid else [[None] * len(pts) for _ in pts]
    rows = []
    for i, (x, row) in enumerate(zip(pts, space.rows)):
        for j in range(i + 1, len(row)):
            v = row[j]
            if grid:
                rows.append(CorrespondenceRow(x, pts[j], Fraction(0), v, v, certified=True))
                continue
            key = (v.numerator, v.denominator)
            k = known.get(key)
            if k is None:
                k = known[key] = certified_neg_log_floor(v)
            floors[i][j] = floors[j][i] = k
            rows.append(CorrespondenceRow(x, pts[j], v, None, k, certified=True))
    if not grid:
        space = UltrametricSpace._trusted(pts, floors, GRID)
    tree, _ = tree_of_ultrametric(space)
    return tree, EndCorrespondence(points=pts, rows=tuple(rows))


def bilipschitz_bounds(corr: EndCorrespondence) -> tuple[float, float]:
    """(min, max) of original/discretized distance over all pairs.

    By the certified exponent brackets every ratio lies in (1/e, 1];
    degenerate spaces with no pairs report the isometric (1.0, 1.0).
    """
    ratios = [row.ratio() for row in corr.rows]
    if not ratios:
        return (1.0, 1.0)
    return (min(ratios), max(ratios))
