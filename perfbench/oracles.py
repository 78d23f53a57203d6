"""Expected values computed without the code under test.

Everything here works on plain Python data (lists, dicts, ints and
Fractions) and shares no code with `towertree`: the benchmark computes these
values during set-up and compares the program's outputs against them.
"""

from __future__ import annotations

import random
from fractions import Fraction


def first_violation(e: list[list[int]]) -> tuple[int, int, int] | None:
    """Brute-force strong-triangle scan of a grid-exponent matrix.

    e[i][j] is the exponent k of the distance e^-k.  A triple violates the
    strong triangle inequality when e[i][j] < min(e[i][z], e[z][j]).
    """
    n = len(e)
    for i in range(n):
        row_i = e[i]
        for j in range(i + 1, n):
            eij = row_i[j]
            for z in range(n):
                if z != i and z != j and eij < min(row_i[z], e[z][j]):
                    return (i, j, z)
    return None


def is_violation(e: list[list[int]], i: int, j: int, z: int) -> bool:
    """True when (i, j, z) is a genuine violating triple of e."""
    return len({i, j, z}) == 3 and e[i][j] < min(e[i][z], e[z][j])


def grid_dendrogram(seed: int, n: int) -> list[list[int]]:
    """Exponent matrix of a random dendrogram on n points.

    Blocks split into 2..4 parts; parts merge at the block's exponent and
    each part recurses one or two exponents deeper, so the matrix is an
    ultrametric by construction.
    """
    rng = random.Random(f"perfbench-grid:{seed}")
    e = [[0] * n for _ in range(n)]

    def build(block: list[int], exp: int) -> None:
        if len(block) < 2:
            return
        rng.shuffle(block)
        k = rng.randint(2, min(len(block), 4))
        parts = [block[i::k] for i in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                for x in parts[a]:
                    for y in parts[b]:
                        e[x][y] = e[y][x] = exp
        for part in parts:
            build(part, exp + rng.randint(1, 2))

    build(list(range(n)), rng.randint(0, 2))
    return e


def perturb(seed: int, e: list[list[int]]) -> list[list[int]]:
    """Copy of e with one symmetric entry moved by 1 or 2 exponents."""
    rng = random.Random(f"perfbench-perturb:{seed}")
    n = len(e)
    out = [row[:] for row in e]
    i, j = rng.sample(range(n), 2)
    old = e[i][j]
    choices = [old + d for d in (-2, -1, 1, 2) if old + d >= 0]
    out[i][j] = out[j][i] = rng.choice(choices)
    return out


def matrix_text(ids: list[str], e: list[list[int]], order: list[int]) -> str:
    """Distance-matrix text ("e-k" entries) with columns in the given order."""
    lines = [" ".join(ids[i] for i in order)]
    for i in order:
        lines.append(" ".join("0" if i == j else f"e-{e[i][j]}" for j in order))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact brackets for e^k


_EXP_CACHE: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}


def exp_bracket(k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < e^k < hi with hi - lo < 2^-bits, for integer k >= 1.

    lo is the Taylor partial sum up to term n - 1; the tail from term n on
    is below k^n/n! * (n+1)/(n+1-k) once n + 1 > k (a geometric bound).
    """
    key = (k, bits)
    if key not in _EXP_CACHE:
        eps = Fraction(1, 1 << bits)
        total, term, n = Fraction(0), Fraction(1), 0
        while True:
            total += term
            n += 1
            term = term * k / n  # k^n / n!
            if n + 1 > k:
                tail = term * Fraction(n + 1, n + 1 - k)
                if tail < eps:
                    break
        _EXP_CACHE[key] = (total, total + tail)
    return _EXP_CACHE[key]


def below_exp(x: Fraction, k: int) -> bool:
    """Exact test x < e^k for rational x and integer k >= 0."""
    if k == 0:
        return x < 1
    bits = 64
    while True:
        lo, hi = exp_bracket(k, bits)
        if x <= lo:
            return True
        if x >= hi:
            return False
        bits *= 2  # e^k is irrational, so refinement separates it from x


def band_exponent(d: Fraction) -> int:
    """The k with e^-(k+1) < d <= e^-k, for rational d in (0, 1]."""
    inv = 1 / Fraction(d)
    k = 0
    while not below_exp(inv, k + 1):  # d <= e^-(k+1): k is too small
        k += 1
    return k


# ---------------------------------------------------------------------------
# Towers as plain lists and dicts


def ancestors(levels: list[list[str]], bonds: list[dict[str, str]], x: str) -> list[str]:
    """Ids of x's ancestors at levels 1..D (x itself last), by walking bonds."""
    chain = [x]
    for bond in reversed(bonds):
        chain.append(bond[chain[-1]])
    chain.reverse()
    return chain


def agreement_exponent(a: list[str], b: list[str]) -> int:
    """Length of the shared prefix of two distinct ancestor chains."""
    t = 0
    while a[t] == b[t]:
        t += 1
    return t


def image(bonds: list[dict[str, str]], elems: list[str], n0: int, m: int) -> frozenset[str]:
    """Image of level m in level n0 (1-based), by walking bond dicts."""
    xs = list(elems)
    for k in range(m - 1, n0 - 1, -1):
        bond = bonds[k - 1]
        xs = [bond[x] for x in xs]
    return frozenset(xs)


def mittag_leffler_at_depth(levels: list[list[str]], bonds: list[dict[str, str]]) -> bool:
    """Every level's image chain settles at least one level before depth."""
    depth = len(levels)
    for n0 in range(1, depth):
        chain = [image(bonds, levels[m - 1], n0, m) for m in range(n0, depth + 1)]
        settle = n0 + next(i for i, img in enumerate(chain) if img == chain[-1])
        if depth - settle < 1:
            return False
    return True
