"""The text format for towers, and the token helpers that every format
shares.

Towers travel as JSON.  Distance matrices and group towers have their text
forms beside their types, in ends and groups, so that reading a tower loads
neither.  Everything round-trips: parse(emit(x)) == x.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, TowerTreeError
from .towers import Tower, windowed_solenoid_tower


def __getattr__(name: str):
    # The matrix parser moved to ends.  perfbench traces it under this name,
    # and then reads the ends and groups layers out of sys.modules, which a
    # run that never calls them has not loaded; resolving the name loads
    # both (groups imports ends), so a traced run finds every layer.
    if name == "parse_distance_matrix":
        from . import ends, groups  # noqa: F401

        return ends.parse_distance_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

