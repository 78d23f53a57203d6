"""Rooted simplicial trees with unit edges, built from towers and back.

Vertices are (level, id) pairs with the root at level 0.  A vertex sits at
its integer level; points interior to edges carry an exact rational
offset, so every distance, meet, and geodesic computed here is exact: an
int between vertices, a Fraction once a point inside an edge is involved.

A tree is its tower with the root as level 0, held as three per-level
arrays: ids[n] and sizes[n] for the vertices of level n, and up[n][i], the
position in level n of the parent of vertex i of level n + 1.  Level 0 is
the one-point Level ("root",) with a row of zeros below it; the rest are
the tower's own levels, sizes and rows.

The geometry runs on positions and ints: a point is (level, position, k)
on a grid of D steps per edge, k in [0, D) counting up from the base vertex
(the deeper end of its edge) to radius level - k/D, so a vertex is k == 0
whatever D is.  A tree map keeps one D for all its points (maps.py); the
TreePoint functions take the least D that holds their arguments.  Meets
climb `up`; TreePoint and the by-vertex views find ids through the level's
index, so finding a generator vertex prints no id.

The core is the deepest level's forever positions pushed down `up`: read
closed-world that is every vertex extendable to the deepest level, over a
generator tower the vertices whose reach is forever.  fringe_unbounded
records that some reach is finite, so the untruncated tree grows
arbitrarily long finite branches (which no finite window can show).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, ValidationError, VertexNotFound
from .towers import Level, Tower, _core_positions, _some_reach_finite, _sub_tower, _through

Vertex = tuple[int, str]

ROOT: Vertex = (0, "root")

_ROOT_LEVEL = Level(ROOT[1:])


class RootedTree:
    """A finite rooted tree: the levels and bonds of a tower plus a root.

    tower is the tower the tree indexes (None for the bare root); ids,
    sizes and up are the root-first arrays of the module docstring, ids and
    sizes holding the tower's own objects.  up, the by-vertex views
    (levels[n] lists the vertices (n, x) for x in ids[n], parent, children)
    and the core (max_geodesic_subtree) with its positions are built on
    first use, so a tree costs nothing per vertex until a caller asks for
    vertices.  Instances are immutable; equality is the tower's.
    """

    __slots__ = ("tower", "depth", "ids", "sizes", "_up", "_levels", "_parent", "_children", "_core")

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
        """Index the tower, None for the bare root; every other cache is built on first use."""
        self.tower = tower
        if tower is None:
            self.ids, self.sizes, self._up = (_ROOT_LEVEL,), (1,), ()
        else:
            self.ids, self.sizes, self._up = (_ROOT_LEVEL, *tower.levels), (1, *tower.sizes), None
        self.depth = len(self.sizes) - 1
        self._levels = self._parent = self._children = self._core = None

    @property
    def fringe_unbounded(self) -> bool:
        """Some reach is finite: the untruncated tree grows arbitrarily long
        finite branches, which no finite window can show."""
        return self.tower is not None and _some_reach_finite(self.tower)

    @property
    def up(self) -> tuple[Sequence[int], ...]:
        """up[n][i] is the position in level n of the parent of vertex i of
        level n + 1: a row of zeros, then the tower's rows as they are."""
        if self._up is None:
            self._up = ((0,) * self.sizes[1], *self.tower.up)
        return self._up

    @property
    def levels(self) -> dict[int, tuple[Vertex, ...]]:
        """levels[n] lists the vertices (n, x) for x in ids[n]."""
        if self._levels is None:
            self._levels = {n: tuple([(n, x) for x in ids]) for n, ids in enumerate(self.ids)}
        return self._levels

    @property
    def parent(self) -> dict[Vertex, Vertex]:
        """Each vertex's parent, in level order."""
        if self._parent is None:
            self._parent, levels = {}, self.levels
            for n, u in enumerate(self.up):
                self._parent.update(zip(levels[n + 1], _through(levels[n], u)))
        return self._parent

    @property
    def children(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Each vertex's children, in level order."""
        if self._children is None:
            self._children, levels = {}, self.levels
            for n, u in enumerate(self.up):
                kids: list[list[Vertex]] = [[] for _ in levels[n]]
                for v, j in zip(levels[n + 1], u):
                    kids[j].append(v)
                self._children.update(zip(levels[n], map(tuple, kids)))
            self._children.update(dict.fromkeys(levels[self.depth], ()))
        return self._children

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(itertools.chain.from_iterable(self.levels.values()))

    def _position(self, v: Vertex) -> int:
        """The position of v in levels[v[0]]; VertexNotFound for any value
        that is not a vertex of this tree."""
        try:
            n, x = v
            return self.ids[range(self.depth + 1).index(n)].index(x)
        except (TypeError, ValueError):
            raise VertexNotFound(f"{v} is not a vertex of this tree") from None

    def _vertex(self, n: int, p: int) -> Vertex:
        """The vertex at position p of level n."""
        return (n, self.ids[n][p])

    def _locate(self, x: TreePoint, den: int) -> Point:
        """x as (level, position, k) on a grid of den steps that holds it."""
        return (x.base[0], self._position(x.base), den - _steps(x.offset, den))

    def _point(self, a: Point, den: int) -> TreePoint:
        """The TreePoint of (level, position, k) on the grid of den steps."""
        k = a[2]
        return TreePoint._at(self._vertex(a[0], a[1]), 1 if k == 0 else Fraction(den - k, den))

    def has_vertex(self, v: Vertex) -> bool:
        try:
            self._position(v)
        except VertexNotFound:
            return False
        return True

    def parent_of(self, v: Vertex) -> Vertex:
        p = self._position(v)
        if v[0] == 0:
            raise VertexNotFound("the root has no parent")
        return self._vertex(v[0] - 1, self.up[v[0] - 1][p])

    def children_of(self, v: Vertex) -> tuple[Vertex, ...]:
        self._position(v)
        return self.children[v]

    def ancestor(self, v: Vertex, n: int) -> Vertex:
        """The vertex at level n on the root path of v; needs 0 <= n <= level of v."""
        p = self._position(v)
        if not 0 <= n <= v[0]:
            raise IndexOutOfRange(f"level {n} not in 0..{v[0]}")
        return self._vertex(n, _climb(self.up, v[0], p, n))

    def chain(self, v: Vertex) -> tuple[Vertex, ...]:
        """Root-to-v vertex path; chain(v)[i] sits at level i."""
        p, up, ids = self._position(v), self.up, self.ids
        out = [v]
        for n in range(v[0] - 1, -1, -1):
            p = up[n][p]
            out.append((n, ids[n][p]))
        return tuple(reversed(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedTree) and self.tower == other.tower

    def __hash__(self):
        return hash(self.tower)

    def __repr__(self) -> str:
        return f"RootedTree(depth={self.depth}, vertices={sum(self.sizes)})"


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


Point = tuple[int, int, int]  # (level, position, k): see the module docstring

ROOT_AT: Point = (0, 0, 0)


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


def branches(tree: RootedTree) -> tuple[tuple[Vertex, ...], ...]:
    """All maximal root-based paths as root-to-leaf vertex tuples, ordered by
    leaf in vertex order; a branch is complete iff its leaf sits at full depth."""
    children = tree.children
    return tuple(tree.chain(leaf) for leaf in tree.vertices if not children[leaf])


# ---------------------------------------------------------------------------
# Metric geometry


def _climb(up: Sequence[Sequence[int]], j: int, p: int, n: int) -> int:
    """The position in level n of the ancestor of position p of level j; 0 <= n <= j."""
    while j > n:
        j -= 1
        p = up[j][p]
    return p


def _radius(a: Point, den: int) -> int:
    """radius(a) in steps of 1/den."""
    return a[0] * den - a[2]


def _floor(a: Point) -> int:
    """floor(radius): the level of a vertex, one less inside an edge."""
    return a[0] if a[2] == 0 else a[0] - 1


def _meet(up: Sequence[Sequence[int]], a: Point, b: Point) -> Point:
    """The meet of [root, a] and [root, b], on one grid: the shallower of a
    and b when its base lies on the other's root path, else the fork vertex.
    Climbs from the deeper base to the shallower level, then from both at
    once: O(distance) parent steps."""
    j = min(a[0], b[0])
    pa, pb = _climb(up, a[0], a[1], j), _climb(up, b[0], b[1], j)
    if pa == pb:
        return a if a[0] < b[0] or a[0] == b[0] and a[2] >= b[2] else b
    while pa != pb:
        j -= 1
        pa, pb = up[j][pa], up[j][pb]
    return (j, pa, 0)


def _point_at(up: Sequence[Sequence[int]], a: Point, r: int, den: int) -> Point:
    """The point at radius r / den on [root, a]; needs 0 <= r <= _radius(a, den)."""
    n = -(-r // den)
    return (n, _climb(up, a[0], a[1], n), n * den - r)


def _along(up, a: Point, b: Point, ra: int, rm: int, s: int, den: int) -> Point:
    """The point at arc length s from a on the geodesic [a, b], where ra and
    rm are the radii of a and of the meet, all in steps of 1/den."""
    if s <= ra - rm:
        return _point_at(up, a, ra - s, den)
    return _point_at(up, b, 2 * rm - ra + s, den)


def _steps(value: int | Fraction, den: int) -> int:
    """value * den, on a grid of den steps that holds value."""
    return value.numerator * (den // value.denominator)


def _on_grid(tree: RootedTree, x: TreePoint, y: TreePoint, *values: Fraction):
    """The least grid that holds x, y and values, with x and y located on it."""
    den = math.lcm(x.offset.denominator, y.offset.denominator, *[v.denominator for v in values])
    return den, tree._locate(x, den), tree._locate(y, den)


def meet_point(tree: RootedTree, x: TreePoint, y: TreePoint) -> TreePoint:
    """Deepest common point of the root segments [root, x] and [root, y]."""
    den, a, b = _on_grid(tree, x, y)
    return tree._point(_meet(tree.up, a, b), den)


def distance(tree: RootedTree, x: TreePoint, y: TreePoint) -> int | Fraction:
    """radius(x) + radius(y) - 2 radius(meet)."""
    den, a, b = _on_grid(tree, x, y)
    d = _radius(a, den) + _radius(b, den) - 2 * _radius(_meet(tree.up, a, b), den)
    return d if den == 1 else Fraction(d, den)


def ancestor_point_at(tree: RootedTree, x: TreePoint, r: Fraction) -> TreePoint:
    """The point at radius r on the segment [root, x]; needs 0 <= r <= radius(x)."""
    r = Fraction(r)
    if not 0 <= r <= x.radius:
        raise IndexOutOfRange(f"radius {r} outside [0, {x.radius}]")
    den = math.lcm(x.offset.denominator, r.denominator)
    return tree._point(_point_at(tree.up, tree._locate(x, den), _steps(r, den), den), den)


def geodesic_point(tree: RootedTree, x: TreePoint, y: TreePoint, s: Fraction) -> TreePoint:
    """The point at arc length s from x along the geodesic [x, y]."""
    s = Fraction(s)
    den, a, b = _on_grid(tree, x, y, s)
    ra, rm, steps = _radius(a, den), _radius(_meet(tree.up, a, b), den), _steps(s, den)
    dist = ra + _radius(b, den) - 2 * rm
    if not 0 <= steps <= dist:
        raise IndexOutOfRange(f"arc length {s} outside [0, {Fraction(dist, den)}]")
    return tree._point(_along(tree.up, a, b, ra, rm, steps, den), den)


# ---------------------------------------------------------------------------
# DOT export


def dot_of_tree(tree: RootedTree) -> str:
    """Graphviz text; vertex labels "level:id", vertices of the maximal
    geodesically complete subtree bold, pruned ones dashed."""
    core_set = set(max_geodesic_subtree(tree).vertices)
    lines = ["digraph tower_tree {", "  rankdir=TB;", '  node [shape=ellipse];']
    for v in tree.vertices:
        label = f"{v[0]}:{v[1]}"
        style = "bold" if v in core_set or v == ROOT else "dashed"
        lines.append(f'  "{label}" [style={style}];')
    for v, p in tree.parent.items():
        lines.append(f'  "{p[0]}:{p[1]}" -> "{v[0]}:{v[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
