"""Text formats for the desk artifacts.

Towers and morphisms travel as JSON; distance matrices as a square text
block with exact entries ("p/q" rationals, "e-k" exponents).  Everything
round-trips: parse(emit(x)) == x.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .ends import GRID, RATIONAL, UltrametricSpace, grid_space, rational_space
from .errors import ParseError, TowerTreeError
from .groups import GroupTower, ScaleHom, TableGroup, TableHom, WindowedZ
from .towers import Tower, TowerMorphism, windowed_solenoid_tower
from .towers import MAX_GENERATOR_IDS  # noqa: F401  (the generator budget lives in towers)

# A group level may hold at most this many elements (a windowZ:N level holds
# 2N + 1), counted before any table is built.  Validating a table is cubic
# in its order: cyclic:256 takes about 0.5 s on a 2-vCPU x86_64 VM.
MAX_GROUP_ORDER = 256

# A group tower may hold at most this many elements over all its levels,
# counted before each level's table is built, so that at most four tables
# of MAX_GROUP_ORDER are validated: four cyclic:256 levels with identity
# bonds take about 2.5 s on the same VM.
MAX_GROUP_ELEMENTS = 1024


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except ValueError as e:  # an integer literal past Python's int/str digit limit
        raise ParseError(f"number too long: {e}") from None
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _decimal(text: str, what: str, whole: str, line: int | None = None) -> int:
    """text as an ASCII decimal numeral within Python's int/str digit limit;
    anything else, other scripts' digits included, is a ParseError "what 'whole'"."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past the int/str digit limit
            pass
    raise ParseError(f"{what} {whole!r}", line=line)


def _rational(text: str, what: str, line: int | None = None) -> Fraction:
    """text as a Fraction whose terms print within Python's int/str digit
    limit, with a scientific exponent of at most four digits; anything else
    is a ParseError "what 'text'"."""
    try:
        # Fraction("1e-999999999") would compute 10**999999999 first
        if len(text.lower().partition("e")[2].lstrip("+-")) > 4:
            raise ValueError
        value = Fraction(text)
        str(value)  # both terms print within the digit limit, as emit needs
        return value
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} {text!r}", line=line) from None


def _is_int(value) -> bool:
    """A JSON integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Towers


def parse_tower(text: str) -> Tower:
    """Accepts the explicit form {depth, levels, bonds} and the generator
    form {generator: "solenoid", primes, window, depth}."""
    data = _load_json(text)
    _require(isinstance(data, dict), "tower file must hold a JSON object")
    if "generator" in data:
        _require(data["generator"] == "solenoid", f"unknown generator {data['generator']!r}")
        for key in ("primes", "window", "depth"):
            _require(key in data, f"solenoid generator needs {key!r}")
        primes, window, depth = data["primes"], data["window"], data["depth"]
        _require(
            isinstance(primes, list) and primes and all(_is_int(p) for p in primes),
            "primes must be a nonempty list of integers",
        )
        _require(_is_int(window), "window must be an integer")
        _require(_is_int(depth), "depth must be an integer")
        try:
            return windowed_solenoid_tower(primes, window, depth)
        except TowerTreeError as e:
            raise ParseError(str(e)) from None
    for key in ("depth", "levels", "bonds"):
        _require(key in data, f"tower object needs {key!r}")
    levels, bonds = data["levels"], data["bonds"]
    _require(isinstance(levels, list), "levels must be a list of lists")
    _require(isinstance(bonds, list), "bonds must be a list of objects")
    _require(_is_int(data["depth"]), "depth must be an integer")
    _require(data["depth"] == len(levels), "depth does not match the level count")
    _require(len(bonds) == max(len(levels) - 1, 0), "bond count must be depth - 1")
    for i, level in enumerate(levels, start=1):
        _require(
            isinstance(level, list) and all(isinstance(x, str) for x in level),
            f"level {i} must be a list of strings",
        )
    for i, bond in enumerate(bonds, start=1):
        _require(
            isinstance(bond, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in bond.items()),
            f"bond {i} must map strings to strings",
        )
    try:
        return Tower(levels, bonds)
    except TowerTreeError as e:
        raise ParseError(str(e)) from None


def emit_tower(t: Tower) -> str:
    if t.oracle is not None:
        data = {
            "generator": "solenoid",
            "primes": list(t.oracle.primes),
            "window": t.oracle.window,
            "depth": t.depth,
        }
    else:
        data = {
            "depth": t.depth,
            "levels": [list(level) for level in t.levels],
            "bonds": [dict(bond) for bond in t.bonds],
        }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Morphisms (towers supplied out of band; the file stores phi + components)


def parse_morphism(text: str, source: Tower, target: Tower) -> TowerMorphism:
    data = _load_json(text)
    _require(isinstance(data, dict), "morphism file must hold a JSON object")
    for key in ("phi", "components"):
        _require(key in data, f"morphism object needs {key!r}")
    phi, comps = data["phi"], data["components"]
    _require(
        isinstance(phi, list) and all(_is_int(n) for n in phi),
        "phi must be a list of integers",
    )
    _require(
        isinstance(comps, list) and all(isinstance(c, dict) for c in comps),
        "components must be a list of objects",
    )
    _require(
        all(isinstance(v, str) for c in comps for v in c.values()),
        "component values must be strings",
    )
    _require(len(phi) == len(comps), "phi and components must have equal length")
    try:
        return TowerMorphism(source, target, phi, comps)
    except TowerTreeError as e:
        raise ParseError(str(e)) from None


def emit_morphism(m: TowerMorphism) -> str:
    data = {
        "phi": [m.phi_at(n) for n in range(1, m.defined_upto + 1)],
        "components": [dict(m.component(n)) for n in range(1, m.defined_upto + 1)],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Distance matrices


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
    rows = [
        (i, line.split()) for i, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    _require(bool(rows), "matrix text is empty")
    header_line, points = rows[0]
    _require(len(set(points)) == len(points), "duplicate ids in matrix header")
    body = rows[1:]
    if len(body) != len(points):
        raise ParseError(
            f"expected {len(points)} rows after the header, found {len(body)}", line=header_line
        )
    entries: dict[tuple[str, str], int | Fraction] = {}
    modes = set()
    read: dict[str, tuple[str, int | Fraction]] = {}  # each distinct token is parsed once
    for (lineno, tokens), x in zip(body, points):
        if len(tokens) != len(points):
            raise ParseError(f"row has {len(tokens)} entries, expected {len(points)}", line=lineno)
        for token, y in zip(tokens, points):
            if x == y:
                if token != "0":
                    raise ParseError(f"diagonal entry must be 0, found {token!r}", line=lineno)
                continue
            mode, value = read.get(token) or read.setdefault(token, _parse_entry(token, lineno))
            modes.add(mode)
            entries[(x, y)] = value
    if len(modes) > 1:
        raise ParseError("matrix mixes exponent and rational entries")
    # a singleton matrix has no off-diagonal entry to reveal its mode
    mode = modes.pop() if modes else GRID
    try:
        if mode == GRID:
            return grid_space(points, entries)
        return rational_space(points, entries)
    except TowerTreeError as e:
        raise ParseError(str(e)) from None


# ---------------------------------------------------------------------------
# Group towers


def _emit_group(g: TableGroup | WindowedZ):
    if isinstance(g, WindowedZ):
        return f"windowZ:{g.bound}"
    cyclic = _cyclic_order(g)
    if cyclic is not None:
        return f"cyclic:{cyclic}"
    ids = g.elements
    return {
        "elements": list(ids),
        "table": {a: dict(zip(ids, [ids[c] for c in row])) for a, row in zip(ids, g.rows)},
    }


def _cyclic_order(g: TableGroup) -> int | None:
    """m when g is Z/m on the ids "0".."m-1", read off its op rows."""
    m = len(g.elements)
    cycle = list(range(m)) * 2
    if g.elements == tuple(map(str, range(m))) and all(
        row == cycle[i : i + m] for i, row in enumerate(g.rows)
    ):
        return m
    return None


def emit_group_tower(g: GroupTower) -> str:
    bonds = []
    for bond in g.bonds:
        if isinstance(bond, ScaleHom):
            bonds.append(f"scale:{bond.k}")
        else:
            bonds.append(dict(bond.mapping))
    data = {"levels": [_emit_group(level) for level in g.levels], "bonds": bonds}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _check_order(order: int, position: int, before: int) -> None:
    """A level of order elements fits after before elements on the lower levels."""
    _require(
        order <= MAX_GROUP_ORDER,
        f"level {position}: group holds more than {MAX_GROUP_ORDER} elements",
    )
    _require(
        before + order <= MAX_GROUP_ELEMENTS,
        f"level {position}: group tower holds more than {MAX_GROUP_ELEMENTS} elements",
    )


def _parse_group(item, position: int, before: int) -> TableGroup | WindowedZ:
    if isinstance(item, str):
        kind, _, arg = item.partition(":")
        size = _decimal(arg, f"level {position}: bad descriptor", item)
        orders = {"cyclic": size, "windowZ": 2 * size + 1}
        _require(kind in orders, f"level {position}: unknown kind {kind!r}")
        _check_order(orders[kind], position, before)
        try:
            return TableGroup.cyclic(size) if kind == "cyclic" else WindowedZ(size)
        except TowerTreeError as e:
            raise ParseError(f"level {position}: {e}") from None
    _require(isinstance(item, dict), f"level {position} must be a descriptor or an object")
    for key in ("elements", "table"):
        _require(key in item, f"level {position} needs {key!r}")
    elements, rows = item["elements"], item["table"]
    _require(
        isinstance(elements, list) and all(isinstance(x, str) for x in elements),
        f"level {position}: elements must be a list of strings",
    )
    _check_order(len(elements), position, before)
    _require(isinstance(rows, dict), f"level {position}: table must be an object")
    table = {}
    for a, row in rows.items():
        _require(isinstance(row, dict), f"level {position}: table rows must be objects")
        for b, c in row.items():
            _require(isinstance(c, str), f"level {position}: table entries must be strings")
            table[(a, b)] = c
    try:
        return TableGroup(elements, table)
    except TowerTreeError as e:
        raise ParseError(f"level {position}: {e}") from None


def parse_group_tower(text: str) -> GroupTower:
    data = _load_json(text)
    _require(isinstance(data, dict), "group tower file must hold a JSON object")
    for key in ("levels", "bonds"):
        _require(key in data, f"group tower object needs {key!r}")
    _require(isinstance(data["levels"], list), "levels must be a list")
    _require(isinstance(data["bonds"], list), "bonds must be a list")
    levels, total = [], 0
    for i, item in enumerate(data["levels"], start=1):
        levels.append(_parse_group(item, i, total))
        total += len(levels[-1].elements)
    bonds = []
    try:
        for i, item in enumerate(data["bonds"], start=1):
            if isinstance(item, str):
                kind, _, arg = item.partition(":")
                _require(kind == "scale", f"bond {i}: bad descriptor {item!r}")
                bonds.append(ScaleHom(_decimal(arg, f"bond {i}: bad descriptor", item)))
            else:
                _require(
                    isinstance(item, dict) and all(isinstance(v, str) for v in item.values()),
                    f"bond {i} must be a descriptor or an object of strings",
                )
                bonds.append(TableHom(item))
        return GroupTower(levels, bonds)
    except TowerTreeError as e:
        raise ParseError(str(e)) from None
