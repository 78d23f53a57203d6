"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values by a different route than the
library (direct dict walks, exhaustive scans, AHU canonical forms), so the
roundtrip and verdict tests are not comparing the implementation against
itself.
"""

import re
from fractions import Fraction

from towertree import (
    ROOT,
    GRID,
    TreePoint,
    WindowOverflow,
    limit_threads,
    natural_key,
    point_of,
)

_DIGIT_RUNS = re.compile(r"(\d+)")


def frozen_natural_key(s):
    """towers.natural_key as it read before it tested an id's first
    character: int(s) on every id, then the decimal runs once that raises.
    (The ValidationError of a run too long to read is left out.)"""
    try:
        parts = ((0, int(s), ""),)
    except ValueError:
        parts = tuple(
            (0, int(part), "") if part.isdecimal() else (1, 0, part)
            for part in _DIGIT_RUNS.split(s)
            if part
        )
    return parts + ((-1, len(s), s),)


def brute_composite(tower, n, m):
    """Composite bonding map level m -> level n by walking the bond dicts."""
    maps = {x: x for x in tower.level(m)}
    for k in range(m - 1, n - 1, -1):
        bond = tower.bond(k)
        maps = {x: bond[v] for x, v in maps.items()}
    return maps


def brute_image(tower, n, m):
    return frozenset(brute_composite(tower, n, m).values())


def brute_stabilization(tower, n):
    """First m whose image in level n equals the image of the last level."""
    final = brute_image(tower, n, tower.depth)
    for m in range(n, tower.depth + 1):
        if brute_image(tower, n, m) == final:
            return m
    raise AssertionError("unreachable: the last level is its own image")


def brute_agreement_level(tower, a, fa, b, gb):
    """Least m >= max(a, b) with fa . p_{a m} == gb . p_{b m} on X_m, or
    None: both composites walked afresh from the bond dicts at every m."""
    for m in range(max(a, b), tower.depth + 1):
        down_a, down_b = brute_composite(tower, a, m), brute_composite(tower, b, m)
        if all(fa[down_a[x]] == gb[down_b[x]] for x in tower.level(m)):
            return m
    return None


def brute_coherence_witnesses(f):
    """Least m per consecutive pair with f_n . p_{Phi(n) m} == q_n . f_{n+1} . p_{Phi(n+1) m}."""
    out = []
    for n in range(1, f.defined_upto):
        q = f.target.bond(n)
        after = {x: q[y] for x, y in f.component(n + 1).items()}
        out.append(brute_agreement_level(f.source, f.phi_at(n), f.component(n), f.phi_at(n + 1), after))
    return tuple(out)


def brute_equivalence_witnesses(f, g):
    """Per-level agreement levels of f and g up to the shorter of the two."""
    return tuple(
        brute_agreement_level(f.source, f.phi_at(n), f.component(n), g.phi_at(n), g.component(n))
        for n in range(1, min(f.defined_upto, g.defined_upto) + 1)
    )


def brute_lift(tower, comp, p, q):
    """A component on X_p precomposed with p_{p q}, as a dict on X_q."""
    return {x: comp[y] for x, y in brute_composite(tower, p, q).items()}


def brute_levelization(f):
    """levelize_morphism's data: the reindexing levels, the reindexed
    source's bonds and the level components, all from composed bond dicts."""
    source = f.source
    indices = [f.phi_at(1)]
    for k in range(1, f.defined_upto):
        nxt = max(indices[-1] + 1, f.witnesses[k - 1])
        if nxt > source.depth:
            break
        indices.append(nxt)
    bonds = [brute_composite(source, n, m) for n, m in zip(indices, indices[1:])]
    comps = [
        brute_lift(source, f.component(k), f.phi_at(k), n) for k, n in enumerate(indices, start=1)
    ]
    return indices, bonds, comps


def ahu_canon(tree, v=ROOT):
    """Canonical form of the rooted tree below v; equal iff isomorphic."""
    return tuple(sorted(ahu_canon(tree, c) for c in tree.children_of(v)))


def root_chain(tree, v):
    # built from parent_of alone, not the library's chain helper
    out = [v]
    while out[-1] != ROOT:
        out.append(tree.parent_of(out[-1]))
    out.reverse()
    return out


def brute_end_exponents(tree, keep=lambda x: True):
    """{(x, y): agreement exponent} over the deepest ids x, y that keep
    accepts, from the shared prefix of their root chains (one entry per
    unordered pair, x before y in natural_key order)."""
    ids = sorted((v[1] for v in tree.levels[tree.depth] if keep(v[1])), key=natural_key)
    chains = {x: root_chain(tree, (tree.depth, x))[1:] for x in ids}
    return {
        (x, y): brute_prefix(chains[x], chains[y]) for i, x in enumerate(ids) for y in ids[i + 1 :]
    }


def brute_ml_chain(primes, depth):
    """The ML failure rows (n1, alpha, fails_at) for n1 = 2..depth: s is the
    first level >= n1 whose multiplier exceeds 1, alpha the product of the
    multipliers of levels 1..s-1, each row walked and multiplied afresh."""
    rows = []
    for n1 in range(2, depth + 1):
        s = n1
        while primes[(s - 1) % len(primes)] == 1:
            s += 1
        alpha = 1
        for n in range(1, s):
            alpha *= primes[(n - 1) % len(primes)]
        rows.append((n1, alpha, s + 1))
    return rows


def brute_solenoid(primes, window, depth):
    """(levels, up) of the windowed solenoid built level by level: level n
    holds the z in -window..window with |z| times the product of the first
    n - 1 multipliers within the window, each level's ids printed afresh
    with tuple(map(str, range(-b, b + 1))), and up[n-1][i] is found by a
    search for the id of p_n * z in level n."""
    levels, prod = [], 1
    for n in range(1, depth + 1):
        b = max(z for z in range(window + 1) if z * prod <= window)
        levels.append(tuple(map(str, range(-b, b + 1))))
        prod *= primes[(n - 1) % len(primes)]
    up = [
        tuple(dst.index(str(primes[(n - 1) % len(primes)] * int(x))) for x in src)
        for n, (dst, src) in enumerate(zip(levels, levels[1:]), start=1)
    ]
    return levels, up


def brute_forever_values(primes, window, depth):
    """The values of levels 1..depth that lift to every level, as sets of
    ints, read off a deeper windowed truncation alone: past enough cycles
    of a list with a multiplier above 1 a level holds 0 alone, and with
    every multiplier 1 the bonds are identities, so either way the images
    of the deeper tower's last level are the values that lift forever."""
    deep = depth + len(primes) * (window.bit_length() + 1)
    levels, _ = brute_solenoid(primes, window, deep)
    values = [set(map(int, levels[-1]))]
    for n in range(deep - 1, 0, -1):
        values.append({primes[(n - 1) % len(primes)] * z for z in values[-1]})
    return values[::-1][:depth]


def eager_tree_views(tower):
    """(levels, vertices, parent, children, repr) of tree_of_tower(tower),
    built eagerly from the tower's levels and bond dicts."""
    levels = {0: (ROOT,)}
    for n in range(1, tower.depth + 1):
        levels[n] = tuple((n, x) for x in tower.level(n))
    vertices = tuple(v for n in sorted(levels) for v in levels[n])
    parent = {}
    for v in vertices[1:]:
        parent[v] = ROOT if v[0] == 1 else (v[0] - 1, tower.bond(v[0] - 1)[v[1]])
    children = {v: tuple(w for w in vertices if parent.get(w) == v) for v in vertices}
    text = f"RootedTree(depth={tower.depth}, vertices={len(vertices)})"
    return levels, vertices, parent, children, text


def brute_vertex_distance(tree, u, w):
    cu, cw = root_chain(tree, u), root_chain(tree, w)
    common = 0
    for a, b in zip(cu, cw):
        if a != b:
            break
        common += 1
    return (len(cu) - common) + (len(cw) - common)


def brute_radius(p):
    return Fraction(p.base[0] - 1) + Fraction(p.offset)


def int_offset_exactly_at_vertex(p):
    """The representation invariant: a point stores an int offset exactly
    when its radius is a whole number, i.e. when it is a vertex."""
    return (type(p.offset) is int) == (brute_radius(p).denominator == 1)


def brute_meet(tree, x, y):
    """Meet of [root, x] and [root, y] from the shared prefix of root chains."""
    cx, cy = root_chain(tree, x.base), root_chain(tree, y.base)
    shared = 0
    for a, b in zip(cx, cy):
        if a != b:
            break
        shared += 1
    if shared == len(cx) and shared == len(cy):
        return x if x.offset <= y.offset else y
    if shared == len(cx):
        return x
    if shared == len(cy):
        return y
    return point_of(cx[shared - 1])


def brute_distance(tree, x, y):
    return brute_radius(x) + brute_radius(y) - 2 * brute_radius(brute_meet(tree, x, y))


def brute_ancestor_point(tree, x, r):
    """The point at radius r on [root, x], indexed off the root chain."""
    chain = root_chain(tree, x.base)
    whole, part = divmod(Fraction(r), 1)
    if part == 0:
        return point_of(chain[int(whole)])
    return TreePoint(chain[int(whole) + 1], part)


def brute_geodesic_point(tree, x, y, s):
    """The point at arc length s from x: down to the meet, then up to y."""
    meet_r = brute_radius(brute_meet(tree, x, y))
    down = brute_radius(x) - meet_r
    if s <= down:
        return brute_ancestor_point(tree, x, brute_radius(x) - s)
    return brute_ancestor_point(tree, y, meet_r + (s - down))


def brute_witness_table(source, target_depth, vertex_q, edge_q):
    """Least m(n) for n = 1, 2, ..., trying every m: all vertices at radius
    >= m and all edges whose parent sits at radius >= m have quantity >= n.
    Returns (table, first n without a witness, or None)."""
    table = []
    for n in range(1, target_depth + 1):
        for m in range(source.depth + 1):
            if all(q >= n for v, q in vertex_q.items() if v[0] >= m) and all(
                q >= n for v, q in edge_q.items() if v[0] - 1 >= m
            ):
                table.append(m)
                break
        else:
            return tuple(table), n
    return tuple(table), None


def _edges(tree):
    return [(tree.parent_of(v), v) for v in tree.vertices if v != ROOT]


def brute_properness(f):
    """properness_witness's (table, failure_level) from brute_meet radii."""
    img = f.vertex_images
    vertex_q = {v: brute_radius(img[v]) for v in f.source.vertices}
    edge_q = {v: brute_radius(brute_meet(f.target, img[p], img[v])) for p, v in _edges(f.source)}
    return brute_witness_table(f.source, f.target.depth, vertex_q, edge_q)


def brute_homotopy(f, g):
    """homotopy_properness's (table, failure_level) from brute_meet radii."""
    fi, gi, t = f.vertex_images, g.vertex_images, f.target
    track = {v: brute_radius(brute_meet(t, fi[v], gi[v])) for v in f.source.vertices}
    edge_q = {
        v: min(
            track[p],
            track[v],
            brute_radius(brute_meet(t, fi[p], fi[v])),
            brute_radius(brute_meet(t, gi[p], gi[v])),
        )
        for p, v in _edges(f.source)
    }
    return brute_witness_table(f.source, t.depth, track, edge_q)


def brute_composite_images(g, f):
    """Vertex images of g after f, one vertex at a time: g's image of f(v)
    when f(v) is a vertex, else the point at arc length offset * span from
    g(parent) toward g(base) on their geodesic, by brute_geodesic_point."""
    gi, mid, out = g.vertex_images, g.source, {}
    for v, p in f.vertex_images.items():
        if p.is_vertex:
            out[v] = gi[p.base]
            continue
        a, b = gi[root_chain(mid, p.base)[-2]], gi[p.base]
        out[v] = brute_geodesic_point(g.target, a, b, p.offset * brute_distance(g.target, a, b))
    return out


def brute_violation(f):
    """check_nonexpansive's violation: the first edge, in level order, whose
    end images lie more than 1 apart by brute_distance, or None."""
    img = f.vertex_images
    for p, v in _edges(f.source):
        if brute_distance(f.target, img[p], img[v]) > 1:
            return p, v
    return None


def is_ancestor(tree, u, w):
    """True when u lies on the root chain of w (inclusive)."""
    return u in root_chain(tree, w)


def brute_ultrametric_ok(space):
    pts = space.points
    for x in pts:
        for y in pts:
            for z in pts:
                if len({x, y, z}) < 3:
                    continue
                if space.mode == GRID:
                    if space.exponent(x, y) < min(
                        space.exponent(x, z), space.exponent(z, y)
                    ):
                        return False
                else:
                    if space.rational(x, y) > max(
                        space.rational(x, z), space.rational(z, y)
                    ):
                        return False
    return True


def is_violation(space, x, y, z):
    """True when (x, y, z) breaks the strong triangle inequality at (x, y)."""
    if len({x, y, z}) < 3:
        return False
    if space.mode == GRID:
        return space.exponent(x, y) < min(space.exponent(x, z), space.exponent(z, y))
    return space.rational(x, y) > max(space.rational(x, z), space.rational(z, y))


def brute_components(space, h):
    """Connected components of the graph joining pairs with exponent >= h,
    by a depth-first walk over the exponent lookups."""
    seen, parts = set(), set()
    for start in space.points:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in space.points:
                if y not in comp and space.exponent(x, y) >= h:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        parts.add(frozenset(comp))
    return parts


def exp_minus(m, q):
    """Sign of e^m - q for integer m >= 0 and rational q, exact.

    Brackets e^m between rational Taylor partial sums: the terms from j = N
    on add up to at most m^N/N! * (N+1)/(N+1-m) once N + 1 > m.  For m >= 1
    e^m is irrational, so it never equals q and the loop ends.
    """
    q = Fraction(q)
    if m == 0:
        return (1 > q) - (1 < q)
    terms = 2 * m + 2
    while True:
        lo, term = Fraction(0), Fraction(1)
        for j in range(terms):
            lo += term
            term = term * m / (j + 1)
        hi = lo + term * Fraction(terms + 1, terms + 1 - m)
        if lo > q:
            return 1
        if hi < q:
            return -1
        terms *= 2


def in_neg_log_band(d, k):
    """Exactly e^-(k+1) < d <= e^-k, for rational d > 0 and integer k >= 0."""
    inv = 1 / Fraction(d)
    return exp_minus(k, inv) <= 0 and exp_minus(k + 1, inv) > 0


def float_min_exponent(k):
    """Minimal integer n with e^{-n} < (2^{-(k+1)} / k)^k, via mpmath.

    High-precision floating oracle, independent of the outward-rounded
    certification in the library.
    """
    import mpmath

    with mpmath.workdps(60):
        bound = k * mpmath.log(k * mpmath.mpf(2) ** (k + 1))
        return int(mpmath.floor(bound)) + 1


def mp_ln_sign(value, threshold):
    """Sign of ln(value) - threshold for rationals value > 0 and threshold,
    from 60-digit mpmath.  Asserts that the difference is at least 1e-40
    away from 0, so that 60 digits decide it."""
    import mpmath

    value, threshold = Fraction(value), Fraction(threshold)
    with mpmath.workdps(60):
        x = (
            mpmath.log(value.numerator)
            - mpmath.log(value.denominator)
            - mpmath.mpf(threshold.numerator) / threshold.denominator
        )
        assert abs(x) > mpmath.mpf(10) ** -40, f"ln({value}) is too close to {threshold}"
        return 1 if x > 0 else -1


def mp_neg_log_floor(d):
    """floor(-ln d) for rational d in (0, 1], from 60-digit mpmath.
    Asserts that -ln d is at least 1e-40 away from every integer but 0."""
    import mpmath

    d = Fraction(d)
    if d == 1:
        return 0
    with mpmath.workdps(60):
        x = mpmath.log(d.denominator) - mpmath.log(d.numerator)
        k = int(mpmath.floor(x))
        assert min(x - k, k + 1 - x) > mpmath.mpf(10) ** -40, f"{d} is too close to a power of e"
        return k


def exp_convergents(k, max_denominator):
    """The continued-fraction convergents p/q of e^-k in (0, 1] with
    q <= max_denominator, from 120-digit mpmath.  They alternate around
    e^-k and come within 1/q^2 of it."""
    import mpmath

    out, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    with mpmath.workdps(120):
        x = mpmath.exp(-k)
        while True:
            a = int(mpmath.floor(x))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            if q1 > max_denominator:
                return out
            if p1 > 0:
                out.append(Fraction(p1, q1))
            x = 1 / (x - a)


def float_least_violation(c, l, k_max):
    """Least k <= k_max with C * e^{-l*n_k} < 2^{-(k+1)}, or None."""
    import mpmath

    with mpmath.workdps(60):
        for k in range(2, k_max + 1):
            n = float_min_exponent(k)
            lhs = c * mpmath.e ** (-mpmath.mpf(l.numerator) / l.denominator * n)
            rhs = mpmath.mpf(2) ** (-(k + 1))
            if lhs < rhs:
                return k
    return None


def brute_induced_images(m, src_tree, breakpoints, virtual_top):
    """Vertex images of the induced map, one vertex at a time: a linear
    breakpoint scan, rho = k - 1 + (r - t_k) / (t_{k+1} - t_k), and the
    level-phi(j) entry of the vertex's root chain."""
    t = breakpoints
    images = {ROOT: point_of(ROOT)}
    for v in src_tree.vertices:
        if v == ROOT:
            continue
        r = v[0]
        if r <= t[0]:
            images[v] = point_of(ROOT)
            continue
        k = max(i + 1 for i in range(len(t)) if t[i] <= r)
        hi = t[k] if k < len(t) else virtual_top
        rho = Fraction(k - 1) + Fraction(r - t[k - 1], hi - t[k - 1])
        j = -((-rho.numerator) // rho.denominator)  # ceil
        if j == 0:
            images[v] = point_of(ROOT)
            continue
        anc = root_chain(src_tree, v)[m.phi[j - 1]]
        images[v] = TreePoint((j, m.components[j - 1][anc[1]]), rho - (j - 1))
    return images


def brute_prefix(xs, ys):
    """Length of the shared prefix of two sequences, None when they are
    equal: the first index where they differ or one of them stops."""
    if list(xs) == list(ys):
        return None
    n = 0
    while n < len(xs) and n < len(ys) and xs[n] == ys[n]:
        n += 1
    return n


def brute_geodesically_complete(tree):
    """Every vertex short of full depth has a child, asked of tree.children."""
    children = tree.children
    return all(children[v] for v in tree.vertices if v[0] < tree.depth)


def brute_branches(tree):
    """Root-to-leaf vertex tuples, leaves in vertex order: a leaf is no
    vertex's parent, and its path is walked up parent_of."""
    parents = {tree.parent_of(v) for v in tree.vertices if v != ROOT}
    return tuple(tuple(root_chain(tree, v)) for v in tree.vertices if v not in parents)


def brute_thread_product(g, a, b):
    """The entries of a·b, one level's op per entry."""
    return tuple(grp.op(x, y) for grp, x, y in zip(g.levels, a.entries, b.entries))


def brute_thread_inverse(g, a):
    """The entries of a^-1, one level's inv per entry."""
    return tuple(grp.inv(x) for grp, x in zip(g.levels, a.entries))


def brute_isometry(g):
    """The translation-isometry scan with two fresh products per triple.

    Returns (valid, violation entries or None, checked); a product that
    leaves a window skips its triple.
    """
    threads = limit_threads(g)
    checked = 0
    for a in threads:
        for b in threads:
            base = brute_prefix(a.entries, b.entries)
            if brute_prefix(brute_thread_inverse(g, a), brute_thread_inverse(g, b)) != base:
                return False, (a.entries, a.entries, b.entries), checked
            for k in threads:
                try:
                    ka, kb = brute_thread_product(g, k, a), brute_thread_product(g, k, b)
                except WindowOverflow:
                    continue
                checked += 1
                if brute_prefix(ka, kb) != base:
                    return False, (k.entries, a.entries, b.entries), checked
    return True, None, checked


def brute_table_rejection(elements, table):
    """The first closure or associativity failure of a table over string
    ids, scanning in natural_key order; None when both hold."""
    elems = sorted(elements, key=natural_key)
    for a in elems:
        for b in elems:
            if table.get((a, b)) not in elems:
                return f"table not closed at ({a}, {b})"
    for a in elems:
        for b in elems:
            for c in elems:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return None


def brute_bond_rejection(src, dst, mapping, position):
    """The first failure of a table bond from a cyclic or windowed level to
    a cyclic level, on integer arithmetic rather than the groups' op;
    None for a homomorphism.  A sum that leaves the source window skips its
    pair."""
    if set(mapping) != set(src.elements):
        return f"bond {position} is not total on its source level"
    d = len(dst.elements)
    if any(v not in {str(z) for z in range(d)} for v in mapping.values()):
        return f"bond {position} leaves its target level"
    if mapping["0"] != "0":
        return f"bond {position} does not preserve the unit"
    window = getattr(src, "bound", None)
    for a in src.elements:
        for b in src.elements:
            if window is None:
                c = (int(a) + int(b)) % len(src.elements)
            elif abs(int(a) + int(b)) <= window:
                c = int(a) + int(b)
            else:
                continue
            if int(mapping[str(c)]) != (int(mapping[a]) + int(mapping[b])) % d:
                return f"bond {position} is not a homomorphism at ({a}, {b})"
    return None


def _bond_down(g, n, m, x):
    """x in level m of a group tower, carried down to level n by .apply."""
    for k in range(m - 1, n - 1, -1):
        x = g.bond(k).apply(x)
    return x


def brute_condition_M(m):
    """(M) by kernel sets: (witnesses, violating level or None)."""
    witnesses = []
    for n in range(1, m.defined_upto + 1):
        for mm in range(n, m.defined_upto + 1):
            level, unit = m.source.level(mm), m.target.level(mm).unit
            ker_f = {x for x in level.elements if m.component(mm).apply(x) == unit}
            ker_p = {
                x for x in level.elements
                if _bond_down(m.source, n, mm, x) == m.source.level(n).unit
            }
            if ker_f <= ker_p:
                witnesses.append((n, mm))
                break
        else:
            return tuple(witnesses), n
    return tuple(witnesses), None


def brute_condition_E(m):
    """(E) by image sets: (witnesses, violating level or None)."""
    witnesses = []
    for n in range(1, m.defined_upto + 1):
        im_f = {m.component(n).apply(x) for x in m.source.level(n).elements}
        for mm in range(n, m.target.depth + 1):
            im_q = {_bond_down(m.target, n, mm, x) for x in m.target.level(mm).elements}
            if im_q <= im_f:
                witnesses.append((n, mm))
                break
        else:
            return tuple(witnesses), n
    return tuple(witnesses), None


def brute_projection(g):
    """Per level n the least m whose image p_{nm}(G_m) is the set of thread
    entries at n, or None when some level has none within depth."""
    threads = limit_threads(g)
    table = []
    for n in range(1, g.depth + 1):
        pi_n = {t.entries[n - 1] for t in threads}
        for m in range(n, g.depth + 1):
            if {_bond_down(g, n, m, x) for x in g.level(m).elements} == pi_n:
                table.append((n, m))
                break
        else:
            return None
    return tuple(table)


# ---------------------------------------------------------------------------
# Group towers by id, from an independent description of each level
#
# A spec is a dict: "levels" is a list of {"elements", "table", "inverse",
# "unit"}, with elements in natural_key order and table[(a, b)] the id of
# a * b, or None where a windowed sum leaves its window; "bonds" is a list
# of id -> id dicts, bonds[n-1] from level n+1 to level n; "zero_only" says
# that only the thread through 0 extends to every level of the untruncated
# tower (a solenoid with a multiplier above 1).


def cyclic_spec(m):
    ids = [str(i) for i in range(m)]
    table = {(a, b): str((int(a) + int(b)) % m) for a in ids for b in ids}
    return {"elements": ids, "table": table, "inverse": {a: str(-int(a) % m) for a in ids}, "unit": "0"}


def window_spec(bound):
    ids = [str(z) for z in range(-bound, bound + 1)]
    table = {
        (a, b): str(int(a) + int(b)) if abs(int(a) + int(b)) <= bound else None
        for a in ids for b in ids
    }
    inverse = {a: str(-int(a)) for a in ids}
    return {"elements": ids, "table": table, "inverse": inverse, "unit": "0", "window": bound}


def table_spec(elements, table):
    ids = sorted(elements, key=natural_key)
    unit = next(e for e in ids if all(table[(e, x)] == x for x in ids))
    inverse = {a: next(b for b in ids if table[(a, b)] == unit) for a in ids}
    return {"elements": ids, "table": dict(table), "inverse": inverse, "unit": unit}


def spec_threads(spec):
    """Every deepest entry walked down the bond dicts, sorted by natural_key
    of the entries."""
    top = spec["levels"][-1]["elements"]
    if spec["zero_only"]:
        top = ["0"]
    threads = []
    for x in top:
        entries = [x]
        for bond in reversed(spec["bonds"]):
            entries.append(bond[entries[-1]])
        threads.append(tuple(reversed(entries)))
    return sorted(threads, key=lambda t: [natural_key(x) for x in t])


def spec_isometry(spec):
    """The translation-isometry scan on the spec's tables, two products per
    triple: (valid, violation entries or None, checked)."""
    levels = spec["levels"]
    threads = spec_threads(spec)

    def product(k, a):
        entries = tuple(level["table"][(x, y)] for level, x, y in zip(levels, k, a))
        return None if None in entries else entries

    checked = 0
    for a in threads:
        for b in threads:
            base = brute_prefix(a, b)
            ia = tuple(level["inverse"][x] for level, x in zip(levels, a))
            ib = tuple(level["inverse"][x] for level, x in zip(levels, b))
            if brute_prefix(ia, ib) != base:
                return False, (a, a, b), checked
            for k in threads:
                ka, kb = product(k, a), product(k, b)
                if ka is None or kb is None:
                    continue
                checked += 1
                if brute_prefix(ka, kb) != base:
                    return False, (k, a, b), checked
    return True, None, checked


def _spec_down(spec, n, m, x):
    """x in level m carried down to level n by the bond dicts."""
    for k in range(m - 1, n - 1, -1):
        x = spec["bonds"][k - 1][x]
    return x


def _spec_image(spec, n, m):
    return {_spec_down(spec, n, m, x) for x in spec["levels"][m - 1]["elements"]}


def spec_core_iso(spec):
    """The core of a group tower by image sets: ("NotML",) for a solenoid
    with a multiplier above 1 or when the image chains have not settled one
    level before the depth, (error type name, message) when a core level is
    no window of a windowed level or no subset closed under the table, and
    otherwise (core elements, core bond items, phi, inverse items).  A
    level whose projection is all of it is kept as it is, unchecked."""
    depth = len(spec["levels"])
    settled = all(_spec_image(spec, n, depth - 1) == _spec_image(spec, n, depth) for n in range(1, depth))
    if spec["zero_only"] or not settled:
        return ("NotML",)
    cores, phi = [], []
    for n in range(1, depth + 1):
        level = spec["levels"][n - 1]
        pi = _spec_image(spec, n, depth)
        phi.append(next(m for m in range(n, depth + 1) if _spec_image(spec, n, m) == pi))
        sub = [x for x in level["elements"] if x in pi]
        cores.append(sub)
        if len(sub) == len(level["elements"]):
            continue
        if level.get("window") is not None:
            half = (len(sub) - 1) // 2
            if sub != [str(z) for z in range(-half, half + 1)]:
                bound = level["window"]
                return ("UnsupportedMode", f"level {n}: pi_{n}(lim G) is not a window of [-{bound}, {bound}]")
            continue
        for a in sub:
            for b in sub:
                if level["table"][(a, b)] not in pi:
                    return ("ValidationError", f"subset not closed: {a}*{b} = {level['table'][(a, b)]}")
        for a in sub:
            if level["inverse"][a] not in pi:
                return ("ValidationError", f"subset not closed under inverse: {a}^-1 = {level['inverse'][a]}")
    bonds = [[(x, spec["bonds"][n - 1][x]) for x in cores[n]] for n in range(1, depth)]
    inverse = [
        [(x, _spec_down(spec, n, m, x)) for x in spec["levels"][m - 1]["elements"]]
        for n, m in enumerate(phi, start=1)
    ]
    return cores, bonds, tuple(phi), inverse
