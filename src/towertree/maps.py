"""Rooted tree maps: the two functors between towers and trees.

A TreeMap stores vertex images only, as rows of target points (level,
position, k) on its grid of D steps per edge (trees.py); each edge maps
linearly onto the geodesic between its endpoint images, so evaluation
anywhere is exact in ints.  D is the least grid that holds every image: 1
for identity, simplicial and retraction maps, the lcm of the segment
lengths for an induced map, of the offsets' denominators for TreeMap(...),
and D_g * D_f reduced for g after f, at most MAX_DEN.  Maps are built and
measured level by level, one loop over the source tree's `up` rows with the
root as level 0, and every meet climbs the target's `up`; TreePoints are an
output view.

Properness is witnessed by a table n -> m(n), minimal with the closed
reading: every point at radius >= m(n) has image radius >= n, checked on
vertices and on edge meets.  The tables are computed on floor(radius), an
int read off a point's base level, since a radius is only ever compared
with an integer n and x >= n exactly when floor(x) >= n.  Each map measures
its properness once and keeps the report; the homotopy table of two maps
is the levelwise max of their kept tables and the table of the vertex
tracks, one meet per vertex.  Verdicts at truncation are closed-world and
say so; a tree whose oracle finds some reach finite (fringe_unbounded) gets
that failure instead of the window's optimism.  A retraction's rows are
built on the first read of its map, since that failure reads none of them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter, sub
from typing import Mapping, Sequence

from .errors import (
    DepthExhausted,
    EmptyCore,
    NotLevelMorphism,
    NotProper,
    SourceTargetMismatch,
    ValidationError,
    VertexNotFound,
)
from .towers import TowerMorphism, _pull_back, _through, is_level_morphism
from .trees import (
    ROOT,
    ROOT_AT,
    Point,
    RootedTree,
    TreePoint,
    Vertex,
    _along,
    _climb,
    _floor,
    _meet,
    _radius,
    max_geodesic_subtree,
    point_of,
    tower_of_tree,
    tree_of_tower,
)

_FAR = 1 << 62  # larger than any radius we can meet

# TreeMap(...) and compose_tree_maps refuse a finer grid.  An induced map of
# depth d needs at most Landau's g(d): 15 at d = 8, 232,792,560 at d = 100.
MAX_DEN = 1 << 32


@dataclass(frozen=True)
class XiSchedule:
    """Greedy minimal breakpoints t_1 < t_2 < ... for the induced map.

    t_k is the least radius at which the first k+1 components cohere, so
    each t_k is certified by the stored coherence witness of the morphism.
    virtual_top closes the last segment at truncation.
    """

    breakpoints: tuple[int, ...]
    virtual_top: int
    source_depth: int

    def breakpoint_after(self, n: int) -> int:
        """t_{n+1} with the terminal segment closed by virtual_top."""
        if n < len(self.breakpoints):
            return self.breakpoints[n]
        if n == len(self.breakpoints):
            return self.virtual_top
        raise ValidationError(f"schedule has no segment {n}")


@dataclass(frozen=True)
class PropernessReport:
    """Minimal witness table m(n) for n = 1..total_upto.

    failure_level is the first target radius with no witness within the
    source depth (closed-world), None when the table is total.
    """

    table: tuple[int, ...]
    total_upto: int
    failure_level: int | None
    source_depth: int
    target_depth: int
    oracle_override: bool = False

    @property
    def total(self) -> bool:
        return self.failure_level is None

    def __bool__(self) -> bool:
        return self.total


@dataclass(frozen=True)
class HomotopyReport:
    """Shortest-path homotopy properness between two maps.

    The table bounds the homotopy track: every point at radius >= m(n)
    keeps its whole track at radius >= n.  It is the levelwise max of the
    two maps' own properness tables and the table of the vertex tracks, and
    it stops where the first of the three stops.  The verdict only
    quantifies up to horizon = min of the two maps' own properness horizons.
    """

    table: tuple[int, ...]
    total_upto: int
    failure_level: int | None
    horizon: int

    @property
    def proper(self) -> bool:
        return self.failure_level is None or self.failure_level > self.horizon

    def __bool__(self) -> bool:
        return self.proper


class TreeMap:
    """A rooted map determined by vertex images and linear edges.

    rows[n][i] is the image of the i-th vertex of source level n as a
    target point (level, position, k) on the least grid of den steps per
    edge that holds them all, so equal maps have equal rows; vertex_images,
    the same images as TreePoints keyed by vertex in level order, and the
    map's properness report are built on first use."""

    __slots__ = ("source", "target", "rows", "den", "schedule", "_vertex_images", "_properness")

    def __init__(
        self,
        source: RootedTree,
        target: RootedTree,
        vertex_images: Mapping[Vertex, TreePoint],
        schedule: XiSchedule | None = None,
    ):
        if set(vertex_images) != set(source.vertices):
            raise ValidationError("vertex images must cover the source vertex set exactly")
        if vertex_images[ROOT] != point_of(ROOT):
            raise ValidationError("a rooted map must send root to root")
        den = 1
        for d in {img.offset.denominator for img in vertex_images.values()}:
            den = _budgeted(math.lcm(den, d))
        at = {}
        for v, img in vertex_images.items():
            try:
                at[v] = target._locate(img, den)
            except VertexNotFound:
                msg = f"image of {v} is based at {img.base}, not a target vertex"
                raise ValidationError(msg) from None
        rows = [[at[v] for v in level] for level in source.levels.values()]
        self._set(source, target, rows, den, schedule)

    @classmethod
    def _built(
        cls,
        source: RootedTree,
        target: RootedTree,
        rows: Sequence[Sequence[Point]],
        den: int,
        schedule: XiSchedule | None = None,
    ) -> TreeMap:
        """A map whose rows, on their least grid den, were built root to root
        over the source levels; a row that is already a tuple is kept."""
        f = cls.__new__(cls)
        f._set(source, target, rows, den, schedule)
        return f

    def _set(self, source, target, rows, den, schedule) -> None:
        self.source, self.target, self.den, self.schedule = source, target, den, schedule
        self.rows = tuple([tuple(row) for row in rows])
        self._vertex_images = self._properness = None

    @property
    def vertex_images(self) -> dict[Vertex, TreePoint]:
        """Each source vertex's image, in level order."""
        if self._vertex_images is None:
            point, den = self.target._point, self.den
            images = [point(a, den) for row in self.rows for a in row]
            self._vertex_images = dict(zip(chain.from_iterable(self.source.levels.values()), images))
        return self._vertex_images

    def image_of_point(self, p: TreePoint) -> TreePoint:
        """Evaluate the map at any point; edges map linearly onto geodesics."""
        src, d = self.source, p.offset.denominator
        a = _image(self.rows, self.den, src.up, self.target.up, src._locate(p, d), d)
        return self.target._point(a, self.den * d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreeMap)
            and self.source == other.source
            and self.target == other.target
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.source, self.target, self.rows))

    def __repr__(self) -> str:
        return f"TreeMap({self.source!r} -> {self.target!r})"


def _budgeted(den: int) -> int:
    if den > MAX_DEN:
        raise ValidationError(f"the images need {den} > MAX_DEN = {MAX_DEN} grid steps per edge")
    return den


def _just_above(up, a: Point, b: Point) -> bool:
    """a lies on [root, b] at most one edge above b's edge: on the edge into
    the parent of b's base, or on b's own edge no lower than b.  Then a is
    the meet of a and b, found with at most one `up` lookup and no climb."""
    n, p, k = b
    if a[0] == n - 1:
        return up[n - 1][p] == a[1]
    return a[0] == n and a[1] == p and a[2] >= k


def _image(rows, den: int, source_up, target_up, a: Point, d: int) -> Point:
    """The image of the source point a, on a grid of d steps, under the map
    with these rows on the grid of den steps, as a point on the grid of
    den * d steps: a row lookup at a vertex, else one interpolation on the
    geodesic between the images of the edge's two ends."""
    j, p, k = a
    here = rows[j][p]
    if k != 0:
        above = rows[j - 1][source_up[j - 1][p]]
        if above != here:
            # a sits k/d up from the edge's lower end, so (d - k) / d of the span from above
            m = above if _just_above(target_up, above, here) else _meet(target_up, above, here)
            ra, rm = _radius(above, den), _radius(m, den)
            span = ra + _radius(here, den) - 2 * rm
            return _along(target_up, above, here, ra * d, rm * d, (d - k) * span, den * d)
    return here if d == 1 or here[2] == 0 else (here[0], here[1], here[2] * d)


@dataclass(frozen=True)
class NonexpansiveVerdict:
    valid: bool
    violation: tuple[Vertex, Vertex] | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class Retraction:
    """The nearest-point retraction of source onto its maximal complete
    subtree.  map is built on its first read and kept; properness alone
    reads no row when the oracle decides it (fringe_unbounded).  Equality
    compares source and properness, which determine the map."""

    source: RootedTree
    properness: PropernessReport
    _map: TreeMap | None = field(default=None, compare=False, repr=False)

    @property
    def map(self) -> TreeMap:
        if self._map is None:
            object.__setattr__(self, "_map", _retraction_tree_map(self.source))
        return self._map


def identity_tree_map(tree: RootedTree) -> TreeMap:
    rows = [[(n, i, 0) for i in range(size)] for n, size in enumerate(tree.sizes)]
    return TreeMap._built(tree, tree, rows, 1)


def check_nonexpansive(f: TreeMap) -> NonexpansiveVerdict:
    """Each unit edge must map onto a geodesic of at most den grid steps.  No
    meet is climbed for an edge whose end images are one point or whose
    parent's image lies just above the child's (_just_above)."""
    src, up, den = f.source, f.target.up, f.den
    for n, u in enumerate(src.up):
        above, here = f.rows[n], f.rows[n + 1]
        for i, j in enumerate(u):
            a, b = above[j], here[i]
            if a is b:
                continue
            m = a if _just_above(up, a, b) else _meet(up, a, b)
            # _radius inlined: the edge's image spans more than den steps
            if (a[0] + b[0] - 2 * m[0]) * den - a[2] - b[2] + 2 * m[2] > den:
                return NonexpansiveVerdict(
                    valid=False, violation=(src._vertex(n, j), src._vertex(n + 1, i))
                )
    return NonexpansiveVerdict(valid=True)


def _witness_table(lows: list[int], target_depth: int) -> tuple[tuple[int, ...], int | None]:
    """Minimal m(n) with min(lows[m:]) >= n, where lows[lv] is the floor of
    the least radius at lv: over the vertices at lv and the edges whose
    parent sits at lv.  The table stops at the first n with no such m (None
    when it is total)."""
    depth = len(lows) - 1
    # suffix minima per level; suffix[m] covers everything at radius >= m
    suffix = [_FAR] * (depth + 2)
    for lv in range(depth, -1, -1):
        suffix[lv] = min(suffix[lv + 1], lows[lv])
    table: list[int] = []
    m = 0
    for n in range(1, target_depth + 1):
        while m <= depth and suffix[m] < n:
            m += 1
        if m > depth:
            return tuple(table), n
        table.append(m)
    return tuple(table), None


def properness_witness(f: TreeMap) -> PropernessReport:
    """Minimal metric-properness witness, closed-world at truncation;
    measured on the first call and kept on f.

    One pass per source level: its vertices' image radii and the meet
    radii of the edges that reach it from the level above, both as floors.
    An edge whose endpoints are the same image object, or whose parent's
    image lies just above the child's (_just_above), is skipped: its meet
    is the parent's image, already counted one level up."""
    if f._properness is not None:
        return f._properness
    src, tgt, rows = f.source, f.target, f.rows
    up = tgt.up
    # _floor inlined: a call per vertex is a fifth of this line on a big row
    lows = [min([a[0] - (a[2] != 0) for a in row]) for row in rows]
    for n, u in enumerate(src.up):
        moved = [
            _floor(_meet(up, a, b))
            for a, b in zip(_through(rows[n], u), rows[n + 1])
            if a is not b and not _just_above(up, a, b)
        ]
        if moved:
            lows[n] = min(lows[n], min(moved))
    table, failure = _witness_table(lows, tgt.depth)
    f._properness = PropernessReport(
        table=table,
        total_upto=len(table),
        failure_level=failure,
        source_depth=src.depth,
        target_depth=tgt.depth,
    )
    return f._properness


def homotopy_properness(f: TreeMap, g: TreeMap) -> HomotopyReport:
    """Shortest-path homotopy properness via the meet-radius criterion.

    The track of x stays at radius >= meet(f(x), g(x)).  Inside an edge pc
    that meet is at least the least of the tracks of p and c and the edge
    meets of f and g, which the maps' kept tables already hold, and the
    floor of f(v) or g(v) is at least the track of v.  So the table is the
    levelwise max of the two kept tables and the table of the vertex
    tracks: one meet per vertex whose images lie on different edges, none
    per edge.  Two images on one edge meet at the shallower one, whose floor
    its map's kept table holds, so each map's rows stay on their own grid.
    """
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("homotopy needs maps with shared source and target")
    up = f.target.up
    lows = [
        min(
            [_floor(_meet(up, a, b)) for a, b in zip(fh, gh) if a[1] != b[1] or a[0] != b[0]],
            default=_FAR,
        )
        for fh, gh in zip(f.rows, g.rows)
    ]
    track, failure = _witness_table(lows, f.target.depth)
    pf, pg = properness_witness(f), properness_witness(g)
    table = tuple(map(max, track, pf.table, pg.table))
    stops = [n for n in (failure, pf.failure_level, pg.failure_level) if n is not None]
    return HomotopyReport(
        table=table,
        total_upto=len(table),
        failure_level=min(stops, default=None),
        horizon=min(pf.total_upto, pg.total_upto),
    )


def compose_tree_maps(g: TreeMap, f: TreeMap) -> TreeMap:
    """g after f; edges re-linearized between the composed vertex images.

    Each image of f is a row lookup in g at a vertex and one interpolation
    inside an edge, on the grid of g.den * f.den steps, reduced once by the
    gcd of every image's k."""
    if f.target != g.source:
        raise SourceTargetMismatch("middle trees of the composition differ")
    rows, den, source_up, target_up, d = g.rows, g.den, g.source.up, g.target.up, f.den
    if d == 1:  # every image of f is a vertex
        images = [[rows[j][p] for j, p, _ in here] for here in f.rows]
    else:
        images = [[_image(rows, den, source_up, target_up, a, d) for a in here] for here in f.rows]
    den *= d
    if den > 1:
        step = math.gcd(den, *map(itemgetter(2), chain.from_iterable(images)))
        if step > 1:
            den //= step
            images = [[(j, p, k // step) for j, p, k in here] for here in images]
    return TreeMap._built(f.source, g.target, images, _budgeted(den))


# ---------------------------------------------------------------------------
# The functor xi: tower morphisms to tree maps


def xi_schedule(m: TowerMorphism) -> XiSchedule:
    """Greedy minimal breakpoints; t_k = max(t_{k-1}+1, witness_k)."""
    depth = m.source.depth
    if m.defined_upto == 1:
        breakpoints = [m.phi_at(1)]
    else:
        breakpoints = []
        for w in m.witnesses:
            cand = w if not breakpoints else max(breakpoints[-1] + 1, w)
            if cand > depth:
                break
            breakpoints.append(cand)
    if not breakpoints:
        raise DepthExhausted("no breakpoint fits within the source depth")
    return XiSchedule(
        breakpoints=tuple(breakpoints),
        virtual_top=max(breakpoints[-1] + 1, depth),
        source_depth=depth,
    )


def induce_tree_map(m: TowerMorphism) -> TreeMap:
    """The induced rooted map: radius t_1 and below collapses to the root,
    the segment [t_k, t_{k+1}] stretches linearly onto [k-1, k] along the
    image branch.  Built on the first call and kept on m."""
    if m._induced is not None:
        return m._induced
    src_tree = tree_of_tower(m.source)
    tgt_tree = tree_of_tower(m.target)
    sched = xi_schedule(m)
    t = sched.breakpoints
    ends = (*t, sched.virtual_top)
    # a segment wider than 1 ends within the source depth, so its first level
    # sits at offset 1 / width: the lcm of the widths is the least grid
    den = math.lcm(*map(sub, ends[1:], t))
    rows = [(ROOT_AT,)]
    # the vertices of one level share r, so the segment k, the image level j
    # and the steps up from it are found once per level
    for r in range(1, src_tree.depth + 1):
        if r <= t[0]:
            rows.append((ROOT_AT,) * m.source.sizes[r - 1])
            continue
        k = bisect_right(t, r)
        lo, hi = t[k - 1], ends[k]
        j, steps = (k - 1, 0) if r == lo else (k, (hi - r) * den // (hi - lo))
        at_phi = [(j, i, steps) for i in m.rows[j - 1]]
        rows.append(_pull_back(m.source, at_phi, m.phi[j - 1], r))
    m._induced = TreeMap._built(src_tree, tgt_tree, rows, den, sched)
    return m._induced


# ---------------------------------------------------------------------------
# The functor eta: tree maps to tower morphisms


def extract_morphism(f: TreeMap) -> TowerMorphism:
    """Phi(n) = witness m(n); f_n(c) = the level-n ancestor of f(c).

    Well-defined because f(T_c) is connected and stays at radius >= n for
    every c at radius m(n), so f(c) lies at or below a level-n vertex, whose
    position the row climbs to.  A minimal witness table is nondecreasing,
    so the morphism is built on the trusted path.
    """
    rep = properness_witness(f)
    if rep.total_upto == 0:
        raise NotProper("no properness witness at any level within depth")
    up = f.target.up
    table = list(rep.table)
    rows = [[_climb(up, j, p, n) for j, p, _ in f.rows[mn]] for n, mn in enumerate(table, start=1)]
    return TowerMorphism._trusted(tower_of_tree(f.source), tower_of_tree(f.target), table, rows)


def simplicial_of_level(m: TowerMorphism) -> TreeMap:
    """Level morphisms induce the radius-preserving simplicial map."""
    if not is_level_morphism(m):
        raise NotLevelMorphism("needs Phi = id and strictly commuting squares")
    if m.defined_upto < m.source.depth:
        raise NotLevelMorphism(
            f"components stop at {m.defined_upto} but the source has depth {m.source.depth}"
        )
    src_tree = tree_of_tower(m.source)
    tgt_tree = tree_of_tower(m.target)
    rows = [[(n, i, 0) for i in row] for n, row in enumerate(m.rows, start=1)]
    return TreeMap._built(src_tree, tgt_tree, [(ROOT_AT,), *rows], 1)


# ---------------------------------------------------------------------------
# Retraction onto the maximal geodesically complete subtree


def _retraction_tree_map(tree: RootedTree) -> TreeMap:
    """Each vertex drops to its deepest complete ancestor, found one level
    at a time on parent positions: a level takes its parents' images, then
    the core's own positions (the ones max_geodesic_subtree kept) become
    their own points.  No vertex outside the core is looked at."""
    core = max_geodesic_subtree(tree)
    rows = [(ROOT_AT,)]
    for n, (u, kept) in enumerate(zip(tree.up, tree._core[1]), start=1):
        here = _through(rows[-1], u)
        for k, i in enumerate(kept):
            here[i] = (n, k, 0)
        rows.append(here)
    return TreeMap._built(tree, core, rows, 1)


def retraction_map(tree: RootedTree) -> Retraction:
    """Nearest-point retraction onto the maximal complete subtree.  Trees
    whose oracle finds some reach finite get the failure the window cannot
    exhibit, and their rows wait for the first read of map; on any other
    tree the rows are built now, since properness_witness reads them."""
    core = max_geodesic_subtree(tree)
    if core.depth == 0:
        raise EmptyCore("no complete branch to retract onto")
    if tree.fringe_unbounded:
        rep = PropernessReport(
            table=(),
            total_upto=0,
            failure_level=1,
            source_depth=tree.depth,
            target_depth=core.depth,
            oracle_override=True,
        )
        return Retraction(tree, rep)
    rmap = _retraction_tree_map(tree)
    return Retraction(tree, properness_witness(rmap), rmap)
