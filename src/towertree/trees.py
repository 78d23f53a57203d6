"""Rooted simplicial trees with unit edges, built from towers and back.

Vertices are (level, id) pairs with the root at level 0.  A vertex sits at
its integer level; points interior to edges carry an exact rational
offset, so every distance, meet, and geodesic computed here is exact: an
int between vertices, a Fraction once a point inside an edge is involved.

The geometry runs on positions: a point is (level, position, offset), the
deeper end of its edge at that position of the level (0 for the root) and
the offset normalized as in TreePoint, and meets climb the tower's parent
positions `up`; TreePoint and the by-vertex views resolve ids through a
per-level {id: position} index built on first use.

A tree is its tower plus lazy caches.  Its core is the deepest level's
forever positions pushed down the parent positions: read closed-world that
is every vertex extendable to the deepest level, over a generator tower the
vertices whose reach is forever.  fringe_unbounded records that some reach
is finite, so the untruncated tree grows arbitrarily long finite branches
(which no finite window can show).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import IndexOutOfRange, ValidationError, VertexNotFound
from .towers import Tower, _core_positions, _some_reach_finite, _sub_tower

Vertex = tuple[int, str]

ROOT: Vertex = (0, "root")


class RootedTree:
    """A finite rooted tree: the levels and bonds of a tower plus a root.

    tower is the tower the tree indexes (None for the bare root), and the
    tree reads everything off it: levels[n] lists the vertices (n, x) for x
    in X_n in the tower's order, parent maps each of them to
    (n - 1, p_{n-1}(x)), or to the implicit root (0, "root") at level 1, and
    a generator tower's oracle gives the core and fringe_unbounded.
    levels, parent, children, the core (max_geodesic_subtree) with its
    positions, and each level's {id: position} index are built on first
    use, so a tree costs nothing per vertex until a caller asks for
    vertices.  Instances are immutable; equality is the tower's.
    """

    __slots__ = ("tower", "depth", "_levels", "_parent", "_children", "_core", "_where")

    def __init__(self, parent: Mapping[Vertex, Vertex]):
        """Read levels and bonds off a parent map; Tower checks and orders them."""
        depth = max((v[0] for v in parent), default=0)
        ids: list[list[str]] = [[] for _ in range(depth)]
        bonds: list[dict[str, str]] = [{} for _ in range(depth - 1)]
        for (lv, x), p in parent.items():
            if lv < 1:
                raise ValidationError(f"vertex {(lv, x)} below level 1 cannot have a parent entry")
            if p[0] != lv - 1 or (lv == 1 and p != ROOT):
                raise ValidationError(f"parent of {(lv, x)} must sit at level {lv - 1}, got {p}")
            ids[lv - 1].append(x)
            if lv > 1:
                bonds[lv - 2][x] = p[1]
        self._index(Tower(ids, bonds) if depth else None)

    def _index(self, tower: Tower | None) -> None:
        """Index the tower; every cache is built on first use."""
        self.tower = tower
        self.depth = tower.depth if tower is not None else 0
        self._levels = self._parent = self._children = self._core = None
        self._where: dict[int, dict[str, int]] = {}

    @property
    def fringe_unbounded(self) -> bool:
        """Some reach is finite: the untruncated tree grows arbitrarily long
        finite branches, which no finite window can show."""
        return self.tower is not None and _some_reach_finite(self.tower)

    @property
    def levels(self) -> dict[int, tuple[Vertex, ...]]:
        """levels[n] lists the vertices (n, x) for x in X_n, root at level 0."""
        if self._levels is None:
            levels: dict[int, tuple[Vertex, ...]] = {0: (ROOT,)}
            for n, ids in enumerate(self.tower.levels if self.tower is not None else (), start=1):
                levels[n] = tuple([(n, x) for x in ids])
            self._levels = levels
        return self._levels

    def parent_positions(self, n: int) -> Sequence[int]:
        """For each vertex of levels[n], n >= 1, the position of its parent in levels[n - 1]."""
        if n == 1:
            return (0,) * self.tower.sizes[0]
        return self.tower.up[n - 2]

    @property
    def parent(self) -> dict[Vertex, Vertex]:
        """Each vertex's parent, in level order."""
        if self._parent is None:
            self._parent, levels = {}, self.levels
            for n in range(1, self.depth + 1):
                above = levels[n - 1]
                self._parent.update(zip(levels[n], [above[j] for j in self.parent_positions(n)]))
        return self._parent

    @property
    def children(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Each vertex's children, in level order."""
        if self._children is None:
            children: dict[Vertex, tuple[Vertex, ...]] = {}
            levels = self.levels
            for n in range(self.depth + 1):
                kids: list[list[Vertex]] = [[] for _ in levels[n]]
                if n < self.depth:
                    for v, j in zip(levels[n + 1], self.parent_positions(n + 1)):
                        kids[j].append(v)
                children.update(zip(levels[n], map(tuple, kids)))
            self._children = children
        return self._children

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(itertools.chain.from_iterable(self.levels.values()))

    def _position(self, v: Vertex) -> int:
        """The position of v in levels[v[0]], off that level's {id: position}
        index, which is built on first use."""
        n = v[0]
        if n not in self._where and n in range(1, self.depth + 1):
            self._where[n] = {x: i for i, x in enumerate(self.tower.levels[n - 1])}
        p = 0 if v == ROOT else self._where.get(n, {}).get(v[1])
        if p is None:
            raise VertexNotFound(f"{v} is not a vertex of this tree")
        return p

    def _vertex(self, n: int, p: int) -> Vertex:
        """The vertex at position p of level n."""
        return (n, self.tower.levels[n - 1][p]) if n else ROOT

    def _locate(self, x: TreePoint) -> Point:
        """x as (level, position, offset)."""
        return (x.base[0], self._position(x.base), x.offset)

    def _point(self, a: Point) -> TreePoint:
        """The TreePoint of (level, position, offset)."""
        return TreePoint._at(self._vertex(a[0], a[1]), a[2])

    def has_vertex(self, v: Vertex) -> bool:
        try:
            self._position(v)
        except VertexNotFound:
            return False
        return True

    def parent_of(self, v: Vertex) -> Vertex:
        if v == ROOT:
            raise VertexNotFound("the root has no parent")
        return self.ancestor(v, v[0] - 1)

    def children_of(self, v: Vertex) -> tuple[Vertex, ...]:
        try:
            return self.children[v]
        except KeyError:
            raise VertexNotFound(f"{v} is not a vertex of this tree") from None

    def ancestor(self, v: Vertex, n: int) -> Vertex:
        """The vertex at level n on the root path of v; needs 0 <= n <= level of v."""
        p = self._position(v)
        if not 0 <= n <= v[0]:
            raise IndexOutOfRange(f"level {n} not in 0..{v[0]}")
        return self._vertex(n, _climb(_up(self), v[0], p, n))

    def chain(self, v: Vertex) -> tuple[Vertex, ...]:
        """Root-to-v vertex path; chain(v)[i] sits at level i."""
        p, up = self._position(v), _up(self)
        out = [v]
        for n in range(v[0] - 1, -1, -1):
            p = _climb(up, n + 1, p, n)
            out.append(self._vertex(n, p))
        return tuple(reversed(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedTree) and self.tower == other.tower

    def __hash__(self):
        return hash(self.tower)

    def __repr__(self) -> str:
        sizes = self.tower.sizes if self.tower is not None else ()
        return f"RootedTree(depth={self.depth}, vertices={1 + sum(sizes)})"


@dataclass(frozen=True)
class TreePoint:
    """A point of the geometric tree: offset in (0,1] down the edge into base.

    Offset 1 is the vertex base itself, stored as the int 1, so a vertex's
    radius is its level as an int; the root is (ROOT, 1).  Points interior
    to an edge keep base = the deeper endpoint and a Fraction offset, so
    every point has exactly one representation.
    """

    base: Vertex
    offset: int | Fraction

    def __post_init__(self):
        offset = self.offset if self.offset == 1 else Fraction(self.offset)
        if not 0 < offset <= 1:
            raise ValidationError(f"offset must lie in (0, 1], got {offset}")
        if offset == 1:
            offset = 1
        elif self.base == ROOT:
            raise ValidationError("the root carries no edge below it")
        object.__setattr__(self, "offset", offset)

    @classmethod
    def _at(cls, base: Vertex, offset: int | Fraction) -> TreePoint:
        """A point whose offset is already normalized: the int 1 at a vertex,
        a Fraction in (0, 1) below a non-root base otherwise."""
        p = cls.__new__(cls)
        p.__dict__.update(base=base, offset=offset)
        return p

    @property
    def radius(self) -> int | Fraction:
        return self.base[0] - 1 + self.offset

    @property
    def is_vertex(self) -> bool:
        return self.offset == 1


def point_of(v: Vertex) -> TreePoint:
    return TreePoint._at(v, 1)


Point = tuple[int, int, "int | Fraction"]  # see the module docstring

ROOT_AT: Point = (0, 0, 1)


def tree_of_tower(tower: Tower) -> RootedTree:
    """Vertices (n, x) for x in X_n; parents follow the bonds; root below X_1."""
    tree = RootedTree.__new__(RootedTree)
    tree._index(tower)
    return tree


def tower_of_tree(tree: RootedTree) -> Tower:
    """The tower the tree indexes; inverse of tree_of_tower.

    A generator tower comes back without its oracle.
    """
    if tree.depth < 1:
        raise ValidationError("a tower needs at least one level of vertices")
    tower = tree.tower
    return tower if tower.oracle is None else Tower._ordered(tower.levels, tower.up)


def sphere(tree: RootedTree, n: int) -> tuple[Vertex, ...]:
    if not 0 <= n <= tree.depth:
        raise IndexOutOfRange(f"sphere index {n} not in 0..{tree.depth}")
    return tree.levels[n]


def subtree_at(tree: RootedTree, c: Vertex) -> frozenset[Vertex]:
    """All descendants of c, including c itself."""
    if not tree.has_vertex(c):
        raise VertexNotFound(f"{c} is not a vertex of this tree")
    out = set()
    stack = [c]
    while stack:
        v = stack.pop()
        out.add(v)
        stack.extend(tree.children_of(v))
    return frozenset(out)


def max_geodesic_subtree(tree: RootedTree) -> RootedTree:
    """The maximal subtree in which every vertex extends forever, built once
    and kept on the tree with its positions: the deepest level's forever
    positions pushed down the parent positions (_core_positions).  Read
    closed-world, every deepest vertex extends forever, so this is the tree
    of the surjective core; with an oracle only the ids whose reach is forever.
    """
    if tree._core is None:
        kept = _core_positions(tree.tower) if tree.tower is not None else []
        tree._core = (tree_of_tower(_sub_tower(tree.tower, kept)) if kept else tree, kept)
    return tree._core[0]


def is_geodesically_complete(tree: RootedTree) -> bool:
    """Every vertex short of full depth has a child."""
    return all(
        tree.children_of(v)
        for lv in range(0, tree.depth)
        for v in tree.levels[lv]
    )


def branches(tree: RootedTree) -> tuple[tuple[Vertex, ...], ...]:
    """All maximal root-based paths as root-to-leaf vertex tuples, ordered by
    leaf in vertex order; a branch is complete iff its leaf sits at full depth."""
    return tuple(tree.chain(leaf) for leaf in tree.vertices if not tree.children_of(leaf))


# ---------------------------------------------------------------------------
# Metric geometry


def _up(tree: RootedTree) -> Sequence[Sequence[int]]:
    """The tower's parent positions, () for the bare root."""
    return tree.tower.up if tree.tower is not None else ()


def _climb(up: Sequence[Sequence[int]], j: int, p: int, n: int) -> int:
    """The position in level n of the ancestor of position p of level j; 0 <= n <= j."""
    while j > n:
        j -= 1
        p = up[j - 1][p] if j else 0
    return p


def _radius(a: Point) -> int | Fraction:
    return a[0] - 1 + a[2]


def _floor(a: Point) -> int:
    """floor(radius): the level of a vertex, one less inside an edge."""
    return a[0] if a[2] == 1 else a[0] - 1


def _meet(up: Sequence[Sequence[int]], a: Point, b: Point) -> Point:
    """The meet of [root, a] and [root, b]: the shallower of a and b when its
    base lies on the other's root path, else the fork vertex.  Climbs from
    the deeper base to the shallower level, then from both at once:
    O(distance) parent steps."""
    j = min(a[0], b[0])
    pa, pb = _climb(up, a[0], a[1], j), _climb(up, b[0], b[1], j)
    if pa == pb:
        return a if (a[0], a[2]) <= (b[0], b[2]) else b
    while pa != pb:
        j -= 1
        pa, pb = (up[j - 1][pa], up[j - 1][pb]) if j else (0, 0)
    return (j, pa, 1)


def _point_at(up: Sequence[Sequence[int]], a: Point, r: int | Fraction) -> Point:
    """The point at radius r on [root, a]; needs 0 <= r <= radius(a)."""
    n = math.ceil(r)
    offset = r - n + 1
    return (n, _climb(up, a[0], a[1], n), 1 if offset == 1 else offset)


def _along(up: Sequence[Sequence[int]], a: Point, b: Point, m: Point, s) -> Point:
    """The point at arc length s from a on the geodesic [a, b], whose meet is m."""
    down = _radius(a) - _radius(m)
    if s <= down:
        return _point_at(up, a, _radius(a) - s)
    return _point_at(up, b, _radius(m) + (s - down))


def meet_point(tree: RootedTree, x: TreePoint, y: TreePoint) -> TreePoint:
    """Deepest common point of the root segments [root, x] and [root, y]."""
    return geodesic_data(tree, x, y)[0]


def geodesic_data(
    tree: RootedTree, x: TreePoint, y: TreePoint
) -> tuple[TreePoint, int | Fraction]:
    """(meet, distance); distance = radius(x) + radius(y) - 2 radius(meet)."""
    a, b = tree._locate(x), tree._locate(y)
    m = _meet(_up(tree), a, b)
    return tree._point(m), _radius(a) + _radius(b) - 2 * _radius(m)


def distance(tree: RootedTree, x: TreePoint, y: TreePoint) -> int | Fraction:
    return geodesic_data(tree, x, y)[1]


def ancestor_point_at(tree: RootedTree, x: TreePoint, r: Fraction) -> TreePoint:
    """The point at radius r on the segment [root, x]; needs 0 <= r <= radius(x)."""
    r = Fraction(r)
    if not 0 <= r <= x.radius:
        raise IndexOutOfRange(f"radius {r} outside [0, {x.radius}]")
    return tree._point(_point_at(_up(tree), tree._locate(x), r))


def geodesic_point(tree: RootedTree, x: TreePoint, y: TreePoint, s: Fraction) -> TreePoint:
    """The point at arc length s from x along the geodesic [x, y]."""
    s = Fraction(s)
    up, a, b = _up(tree), tree._locate(x), tree._locate(y)
    m = _meet(up, a, b)
    dist = _radius(a) + _radius(b) - 2 * _radius(m)
    if not 0 <= s <= dist:
        raise IndexOutOfRange(f"arc length {s} outside [0, {dist}]")
    return tree._point(_along(up, a, b, m, s))


# ---------------------------------------------------------------------------
# DOT export


def dot_of_tree(tree: RootedTree, core: Iterable[Vertex] | None = None) -> str:
    """Graphviz text; vertex labels "level:id", core vertices bold, pruned dashed.

    Vertices of the maximal geodesically complete subtree are the core when
    none is supplied explicitly.
    """
    core_set = set(core if core is not None else max_geodesic_subtree(tree).vertices)
    lines = ["digraph tower_tree {", "  rankdir=TB;", '  node [shape=ellipse];']
    for v in tree.vertices:
        label = f"{v[0]}:{v[1]}"
        style = "bold" if v in core_set or v == ROOT else "dashed"
        lines.append(f'  "{label}" [style={style}];')
    for v, p in tree.parent.items():
        lines.append(f'  "{p[0]}:{p[1]}" -> "{v[0]}:{v[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
