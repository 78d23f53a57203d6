"""Rooted tree maps: the two functors between towers and trees.

A TreeMap stores vertex images only, as rows of target points (level,
position, offset); each edge maps linearly onto the geodesic between its
endpoint images, so evaluation anywhere is exact.  That representation
covers every map constructed here (induced maps, simplicial level maps,
retractions) because their breakpoints always land on vertices.  Maps are
built and measured level by level on parent positions; TreePoints are an
output view.

Properness is witnessed by a table n -> m(n), minimal with the closed
reading: every point at radius >= m(n) has image radius >= n, checked on
vertices and on edge meets.  The tables are computed on floor(radius), an
int read off a point's base level, since a radius is only ever compared
with an integer n and x >= n exactly when floor(x) >= n.  Each map measures
its properness once and keeps the report.  Verdicts at truncation are
closed-world and say so; a tree whose oracle finds some reach finite
(fringe_unbounded) gets that failure instead of the window's optimism.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
from .towers import TowerMorphism, _pull_back, is_level_morphism
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
    _up,
    max_geodesic_subtree,
    point_of,
    tower_of_tree,
    tree_of_tower,
)

_FAR = 1 << 62  # larger than any radius we can meet


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
    source depth (closed-world), None when the table is total.  margins
    measure how far below the source depth each witness sits.
    """

    table: tuple[int, ...]
    total_upto: int
    failure_level: int | None
    source_depth: int
    target_depth: int
    oracle_override: bool = False

    @property
    def margins(self) -> tuple[int, ...]:
        return tuple(self.source_depth - m for m in self.table)

    @property
    def total(self) -> bool:
        return self.failure_level is None

    def __bool__(self) -> bool:
        return self.total


@dataclass(frozen=True)
class HomotopyReport:
    """Shortest-path homotopy properness between two maps.

    The table bounds the homotopy track: every point at radius >= m(n)
    keeps its whole track at radius >= n.  The verdict only quantifies up
    to horizon = min of the two maps' own properness horizons.
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

    rows[n][i] is the image of the i-th vertex of source sphere n as a
    target point (level, position, offset); vertex_images, the same images
    as TreePoints keyed by vertex in level order, and the map's properness
    report are built on first use."""

    __slots__ = ("source", "target", "rows", "schedule", "_vertex_images", "_properness")

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
        at = {}
        for v, img in vertex_images.items():
            try:
                at[v] = target._locate(img)
            except VertexNotFound:
                msg = f"image of {v} is based at {img.base}, not a target vertex"
                raise ValidationError(msg) from None
        rows = [[at[v] for v in level] for level in source.levels.values()]
        self._set(source, target, rows, schedule)

    @classmethod
    def _built(
        cls,
        source: RootedTree,
        target: RootedTree,
        rows: Sequence[Sequence[Point]],
        schedule: XiSchedule | None = None,
    ) -> TreeMap:
        """A map whose rows were built root to root over the source spheres by
        construction; a row that is already a tuple is kept, not copied."""
        f = cls.__new__(cls)
        f._set(source, target, rows, schedule)
        return f

    def _set(self, source, target, rows, schedule) -> None:
        self.source, self.target, self.schedule = source, target, schedule
        self.rows = tuple([tuple(row) for row in rows])
        self._vertex_images = self._properness = None

    @property
    def vertex_images(self) -> dict[Vertex, TreePoint]:
        """Each source vertex's image, in level order."""
        if self._vertex_images is None:
            levels = chain.from_iterable(self.source.levels.values())
            point = self.target._point
            self._vertex_images = dict(zip(levels, [point(a) for row in self.rows for a in row]))
        return self._vertex_images

    def image_of_vertex(self, v: Vertex) -> TreePoint:
        return self.vertex_images[v]

    def image_of_point(self, p: TreePoint) -> TreePoint:
        """Evaluate the map at any point; edges map linearly onto geodesics."""
        a = self.source._locate(p)
        return self.target._point(_image(self.rows, _up(self.source), _up(self.target), a))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreeMap)
            and self.source == other.source
            and self.target == other.target
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.source, self.target, self.rows))

    def __repr__(self) -> str:
        return f"TreeMap({self.source!r} -> {self.target!r})"


def _image(rows, source_up, target_up, a: Point) -> Point:
    """The image of the source point a under the map with these rows: a row
    lookup at a vertex, else one interpolation on the geodesic between the
    images of the edge's two ends."""
    j, p, offset = a
    here = rows[j][p]
    if offset == 1:
        return here
    above = rows[j - 1][_climb(source_up, j, p, j - 1)]
    if above == here:
        return here
    m = _meet(target_up, above, here)
    span = _radius(above) + _radius(here) - 2 * _radius(m)
    return _along(target_up, above, here, m, offset * span)


@dataclass(frozen=True)
class NonexpansiveVerdict:
    valid: bool
    violation: tuple[Vertex, Vertex] | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class Retraction:
    """The nearest-point retraction onto the maximal complete subtree."""

    map: TreeMap
    properness: PropernessReport


def identity_tree_map(tree: RootedTree) -> TreeMap:
    sizes = tree.tower.sizes if tree.tower is not None else ()
    rows = [[(n, i, 1) for i in range(size)] for n, size in enumerate(sizes, start=1)]
    return TreeMap._built(tree, tree, [(ROOT_AT,), *rows])


def check_nonexpansive(f: TreeMap) -> NonexpansiveVerdict:
    """Each unit edge must map onto a geodesic of length <= 1."""
    src, up = f.source, _up(f.target)
    for n in range(1, src.depth + 1):
        above, here = f.rows[n - 1], f.rows[n]
        for i, j in enumerate(src.parent_positions(n)):
            a, b = above[j], here[i]
            if a is not b and _radius(a) + _radius(b) - 2 * _radius(_meet(up, a, b)) > 1:
                return NonexpansiveVerdict(
                    valid=False, violation=(src._vertex(n - 1, j), src._vertex(n, i))
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
    Images are often shared (a retraction sends whole subtrees to one
    point), so each distinct image is measured once, and an edge whose
    endpoints are the same image object is skipped: its meet radius is the
    parent's image radius, already counted one level up."""
    if f._properness is not None:
        return f._properness
    src, tgt = f.source, f.target
    up = _up(tgt)
    above = f.rows[0]
    lows = [_floor(above[0])]
    for n in range(1, src.depth + 1):
        here = f.rows[n]
        lows.append(min([_floor(a) for a in set(here)]))
        parents = [above[j] for j in src.parent_positions(n)]
        moved = [_floor(_meet(up, a, b)) for a, b in zip(parents, here) if a is not b]
        if moved:
            lows[n - 1] = min(lows[n - 1], min(moved))
        above = here
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

    The track of x stays at radius >= meet(f(x), g(x)); on edge interiors
    that meet is bounded below by the meets of the four endpoint images.
    Meets are read as floors; the horizon uses the maps' kept reports.
    """
    if f.source != g.source or f.target != g.target:
        raise SourceTargetMismatch("homotopy needs maps with shared source and target")
    src, up = f.source, _up(f.target)
    lows: list[int] = []
    for n in range(src.depth + 1):
        fh, gh = f.rows[n], g.rows[n]
        track = [_floor(_meet(up, a, b)) for a, b in zip(fh, gh)]
        lows.append(min(track))
        if n:
            # the parent's own track is already in lows[n - 1]
            edges = [
                min(track[i], _floor(_meet(up, fa[j], fh[i])), _floor(_meet(up, ga[j], gh[i])))
                for i, j in enumerate(src.parent_positions(n))
            ]
            lows[n - 1] = min(lows[n - 1], *edges)
        fa, ga = fh, gh
    table, failure = _witness_table(lows, f.target.depth)
    horizon = min(properness_witness(f).total_upto, properness_witness(g).total_upto)
    return HomotopyReport(
        table=table,
        total_upto=len(table),
        failure_level=failure,
        horizon=horizon,
    )


def compose_tree_maps(g: TreeMap, f: TreeMap) -> TreeMap:
    """g after f; edges re-linearized between the composed vertex images.

    Each image of f is a row lookup in g at a vertex and one interpolation
    inside an edge."""
    if f.target != g.source:
        raise SourceTargetMismatch("middle trees of the composition differ")
    rows, source_up, target_up = g.rows, _up(g.source), _up(g.target)
    images = [[_image(rows, source_up, target_up, a) for a in here] for here in f.rows]
    return TreeMap._built(f.source, g.target, images)


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
    image branch."""
    src_tree = tree_of_tower(m.source)
    tgt_tree = tree_of_tower(m.target)
    sched = xi_schedule(m)
    t = sched.breakpoints
    seg_count = len(t)
    rows = [(ROOT_AT,)]
    # the vertices of one level share r, so the segment k, the image level j
    # and the offset are found once per level: rho = k - 1 + num / den
    for r in range(1, src_tree.depth + 1):
        k = bisect_right(t, r)
        if k == 0:
            rows.append((ROOT_AT,) * m.source.sizes[r - 1])
            continue
        hi = t[k] if k < seg_count else sched.virtual_top
        num, den = r - t[k - 1], hi - t[k - 1]
        if num == 0:
            j, offset = k - 1, 1
        else:
            # num == den only at r == virtual_top, closing the last segment
            j, offset = k, 1 if num == den else Fraction(num, den)
        if j == 0:
            rows.append((ROOT_AT,) * m.source.sizes[r - 1])
            continue
        at_phi = [(j, i, offset) for i in m.rows[j - 1]]
        rows.append(_pull_back(m.source, at_phi, m.phi[j - 1], r))
    return TreeMap._built(src_tree, tgt_tree, rows, schedule=sched)


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
    up = _up(f.target)
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
    rows = [[(n, i, 1) for i in row] for n, row in enumerate(m.rows, start=1)]
    return TreeMap._built(src_tree, tgt_tree, [(ROOT_AT,), *rows])


# ---------------------------------------------------------------------------
# Retraction onto the maximal geodesically complete subtree


def retraction_map(tree: RootedTree) -> Retraction:
    """Nearest-point retraction: each vertex drops to its deepest complete
    ancestor, found one level at a time on parent positions: a level takes
    its parents' images, then the core's own positions (the ones
    max_geodesic_subtree kept) become their own points.  No vertex outside
    the core is looked at.  Trees whose oracle finds some reach finite get
    the failure the window cannot exhibit."""
    core = max_geodesic_subtree(tree)
    if core.depth == 0:
        raise EmptyCore("no complete branch to retract onto")
    rows = [(ROOT_AT,)]
    for n, kept in enumerate(tree._core[1], start=1):
        above = rows[-1]
        here = [above[j] for j in tree.parent_positions(n)]
        for k, i in enumerate(kept):
            here[i] = (n, k, 1)
        rows.append(here)
    rmap = TreeMap._built(tree, core, rows)
    if not tree.fringe_unbounded:
        return Retraction(map=rmap, properness=properness_witness(rmap))
    rep = PropernessReport(
        table=(),
        total_upto=0,
        failure_level=1,
        source_depth=tree.depth,
        target_depth=core.depth,
        oracle_override=True,
    )
    return Retraction(map=rmap, properness=rep)
