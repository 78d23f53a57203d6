"""Text formats: towers, distance matrices, group towers."""

import copy
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towertree import (
    GRID,
    RATIONAL,
    ParseError,
    ScaleHom,
    TableGroup,
    TableHom,
    GroupTower,
    ValidationError,
    WindowedZ,
    emit_distance_matrix,
    emit_group_tower,
    emit_tower,
    gen_random_grid_space,
    gen_random_group_tower,
    gen_random_rational_space,
    gen_random_tower,
    gen_solenoid,
    grid_space,
    parse_distance_matrix,
    parse_group_tower,
    parse_tower,
    rational_space,
    windowed_solenoid_tower,
)
from towertree.groups import MAX_GROUP_ELEMENTS, MAX_GROUP_ORDER
from towertree.towers import MAX_GENERATOR_IDS


def test_tower_roundtrip_extensional(two_branch_tower):
    text = emit_tower(two_branch_tower)
    data = json.loads(text)
    assert data["depth"] == 3
    assert parse_tower(text) == two_branch_tower
    for seed in range(12):
        t = gen_random_tower(seed, depth=2 + seed % 6, max_level_size=5)
        assert parse_tower(emit_tower(t)) == t


def test_tower_roundtrip_generator_form():
    t = windowed_solenoid_tower([2, 3], 50, 4)
    text = emit_tower(t)
    data = json.loads(text)
    assert data["generator"] == "solenoid"
    back = parse_tower(text)
    assert back == t
    assert back.oracle is not None


def test_parse_tower_bad_json_has_position():
    with pytest.raises(ParseError) as err:
        parse_tower("{\n  \"depth\": 2,,\n}")
    assert err.value.line == 2
    assert str(err.value).endswith(f"(line 2, column {err.value.column})")


def test_parse_tower_semantic_errors():
    with pytest.raises(ParseError):
        parse_tower(json.dumps({"depth": 2, "levels": [["a"]], "bonds": []}))
    with pytest.raises(ParseError):
        parse_tower(json.dumps({"levels": [["a"]]}))
    with pytest.raises(ParseError):
        parse_tower(json.dumps({"depth": 1, "levels": [["a", "a"]], "bonds": []}))
    with pytest.raises(ParseError):
        parse_tower(json.dumps({"generator": "unknown", "primes": [2], "window": 4, "depth": 2}))


def test_parsers_reject_booleans_for_integers():
    good = {"generator": "solenoid", "primes": [2], "window": 3, "depth": 2}
    assert parse_tower(json.dumps(good)).depth == 2
    for key, bad in (("primes", [True]), ("primes", [2, False]), ("window", True), ("depth", True)):
        with pytest.raises(ParseError, match="integer"):
            parse_tower(json.dumps({**good, key: bad}))
    with pytest.raises(ParseError, match="integer"):
        parse_tower(json.dumps({**good, "primes": [True], "depth": True}))
    with pytest.raises(ParseError, match="integer"):
        parse_tower(json.dumps({"depth": True, "levels": [["a"]], "bonds": []}))


def test_generator_size_is_bounded_before_building():
    # each of these would materialize at least 10^9 ids if it were built
    for spec in (
        {"primes": [2], "window": 10**9, "depth": 3},
        {"primes": [1], "window": 3, "depth": 10**9},
        {"primes": [1], "window": 2**18, "depth": 2},  # 2 levels of 2^19 + 1 ids
    ):
        with pytest.raises(ParseError, match=f"more than {MAX_GENERATOR_IDS} ids"):
            parse_tower(json.dumps({"generator": "solenoid", **spec}))
    big = {"generator": "solenoid", "primes": [2], "window": 2**16, "depth": 17}
    assert sum(len(level) for level in parse_tower(json.dumps(big)).levels) == 262_159


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)

_FUZZ_BASES = [
    {"depth": 3, "levels": [["a"], ["b1", "b2"], ["c1"]], "bonds": [{"b1": "a", "b2": "a"}, {"c1": "b1"}]},
    json.loads(emit_tower(gen_random_tower(3, depth=4, max_level_size=3))),
    {"generator": "solenoid", "primes": [2, 3], "window": 9, "depth": 3},
]


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(doc, data):
    """Reverse, replace, drop or duplicate one node of doc."""
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return data.draw(_JSON)
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    action = data.draw(st.sampled_from(["reverse", "retype", "replace", "drop", "duplicate"]))
    node = parent[key]
    if action == "reverse":
        # a level or bond in another order is the same tower; leaves stay
        if isinstance(node, (list, dict)):
            parent[key] = node[::-1] if isinstance(node, list) else dict(reversed(node.items()))
    elif action == "retype":  # a new value of the same JSON type keeps most files well-formed
        like = {str: st.text(max_size=3), int: st.integers(min_value=-3, max_value=12)}
        parent[key] = data.draw(like.get(type(node), _JSON))
    elif action == "replace":
        parent[key] = data.draw(_JSON)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[data.draw(st.text(max_size=3))] = copy.deepcopy(parent[key])
    return doc


def _parses_back_or_rejects(doc) -> bool:
    """parse_tower either raises ParseError or returns t with parse(emit(t)) == t."""
    try:
        t = parse_tower(json.dumps(doc))
    except ParseError:
        return False
    assert parse_tower(emit_tower(t)) == t
    return True


@settings(max_examples=100, deadline=None)
@given(_JSON)
def test_parse_tower_fuzz_json_values(doc):
    _parses_back_or_rejects(doc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FUZZ_BASES), st.data())
def test_parse_tower_fuzz_mutated_files(base, data):
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        doc = _mutate(doc, data)
    _parses_back_or_rejects(doc)


def test_matrix_roundtrip_grid():
    sp = grid_space(["p1", "p2", "p10"], {
        ("p1", "p2"): 2, ("p1", "p10"): 0, ("p2", "p10"): 0,
    })
    text = emit_distance_matrix(sp)
    lines = text.strip().split("\n")
    assert lines[0].split() == ["p1", "p2", "p10"]
    assert parse_distance_matrix(text) == sp
    for seed in range(10):
        rnd = gen_random_grid_space(seed, max_points=20)
        assert parse_distance_matrix(emit_distance_matrix(rnd)) == rnd


def test_matrix_roundtrip_rational():
    sp = rational_space(["a", "b"], {("a", "b"): Fraction(3, 10)})
    text = emit_distance_matrix(sp)
    assert "3/10" in text
    assert parse_distance_matrix(text) == sp
    for seed in range(10):
        rnd = gen_random_rational_space(seed, max_points=12)
        if len(rnd.points) < 2:
            continue
        assert parse_distance_matrix(emit_distance_matrix(rnd)) == rnd


def test_matrix_grid_entries_use_exponent_notation():
    sp = grid_space(["a", "b"], {("a", "b"): 3})
    assert "e-3" in emit_distance_matrix(sp)


def test_singleton_matrix_parses_as_grid():
    sp = grid_space(["only"], {})
    text = emit_distance_matrix(sp)
    back = parse_distance_matrix(text)
    assert back == sp
    assert back.mode == GRID


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_distance_matrix("a b\n0 e-1\ne-1 1\n")     # diagonal not zero
    with pytest.raises(ParseError):
        parse_distance_matrix("a b\n0 e-1 e-2\ne-1 0\n") # ragged row
    with pytest.raises(ParseError):
        parse_distance_matrix("a b\n0 e-1\n1/2 0\n")     # asymmetric
    with pytest.raises(ParseError):
        parse_distance_matrix("a b\n0 1/2\ne-1 0\n")     # mixed modes
    with pytest.raises(ParseError):
        parse_distance_matrix("")
    # a fault with no known column prints its line alone
    with pytest.raises(ParseError) as err:
        parse_distance_matrix("a b\n0 x\nx 0\n")
    assert (err.value.line, err.value.column) == (2, None)
    assert str(err.value) == "bad distance entry 'x' (line 2)"


def test_group_tower_roundtrip_descriptors():
    g, _ = gen_solenoid([2], 64, 3)
    text = emit_group_tower(g)
    assert "windowZ:" in text and "scale:" in text
    assert parse_group_tower(text) == g

    z8 = GroupTower(
        [TableGroup.cyclic(2), TableGroup.cyclic(4)],
        [TableHom({str(i): str(i % 2) for i in range(4)})],
    )
    text2 = emit_group_tower(z8)
    assert "cyclic:" in text2
    assert parse_group_tower(text2) == z8


def test_group_tower_roundtrip_explicit_table():
    # the Klein four-group forces the explicit table path
    elems = ["e", "a", "b", "c"]
    table = {}
    for x in elems:
        for y in elems:
            if x == "e":
                table[(x, y)] = y
            elif y == "e":
                table[(x, y)] = x
            elif x == y:
                table[(x, y)] = "e"
            else:
                table[(x, y)] = next(z for z in "abc" if z not in (x, y))
    klein = TableGroup(elems, table)
    g = GroupTower([TableGroup.cyclic(2), klein],
                   [TableHom({"e": "0", "a": "1", "b": "1", "c": "0"})])
    text = emit_group_tower(g)
    assert parse_group_tower(text) == g


def test_group_tower_random_roundtrip():
    for seed in range(8):
        g = gen_random_group_tower(seed, depth=3)
        assert parse_group_tower(emit_group_tower(g)) == g


def test_parse_group_tower_rejects_bad_descriptor():
    with pytest.raises(ParseError):
        parse_group_tower(json.dumps({"levels": ["cyclic:x"], "bonds": []}))
    with pytest.raises(ParseError):
        parse_group_tower(json.dumps({"levels": ["cyclic:2", "cyclic:4"], "bonds": ["scale:2"]}))


_WINDOWS = ["windowZ:4", "windowZ:2"]  # scale:1 and scale:2 fit
_LONG = "1" * 5000  # past Python's 4,300-digit int/str limit


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_distance_matrix, "a b\n0 e-²\ne-² 0\n"),
        (parse_distance_matrix, "a b\n0 e-\u0663\ne-\u0663 0\n"),  # Arabic-Indic three
        (parse_distance_matrix, f"a b\n0 e-{_LONG}\ne-{_LONG} 0\n"),
        (parse_group_tower, json.dumps({"levels": ["cyclic:²"], "bonds": []})),
        (parse_group_tower, json.dumps({"levels": [f"cyclic:{_LONG}"], "bonds": []})),
        (parse_group_tower, json.dumps({"levels": _WINDOWS, "bonds": ["scale:²"]})),
        (parse_group_tower, json.dumps({"levels": _WINDOWS, "bonds": ["scale:0"]})),
        (parse_group_tower, json.dumps({"levels": [{"elements": ["0"], "table": []}], "bonds": []})),
        (parse_group_tower, json.dumps({"levels": [{"elements": 5, "table": {}}], "bonds": []})),
        (parse_group_tower, json.dumps({"levels": [{"elements": [0], "table": {}}], "bonds": []})),
        (
            parse_group_tower,
            json.dumps({"levels": [{"elements": ["0"], "table": {"0": {"0": []}}}], "bonds": []}),
        ),
        (parse_group_tower, json.dumps({"levels": ["cyclic:1", "cyclic:1"], "bonds": [{"0": []}]})),
    ],
    ids=[
        "exponent-superscript", "exponent-arabic-indic", "exponent-digit-limit", "cyclic-superscript",
        "cyclic-digit-limit", "scale-superscript", "scale-zero", "table-list",
        "elements-int", "elements-int-list", "table-entry-list", "bond-entry-list",
    ],
)
def test_malformed_matrix_and_group_input_ends_in_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def _shuffled_matrix(space, rng, faults=()):
    """The matrix text of space with its header shuffled, and its entries
    as a dict in file order; faults maps a (row, column) of the file to the
    token that replaces the entry there."""
    header = list(space.points)
    rng.shuffle(header)
    lines, entries = [" ".join(header)], {}
    for r, x in enumerate(header):
        tokens = []
        for c, y in enumerate(header):
            if x == y:
                tokens.append("0")
                continue
            if space.mode == GRID:
                value = space.exponent(x, y)
                token = f"e-{value}"
            else:
                value = space.rational(x, y)
                token = str(value)
            if (r, c) in faults:
                token = faults[r, c]
                value = Fraction(token)
            tokens.append(token)
            entries[(x, y)] = value
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n", entries


def test_parsed_matrix_is_the_space_of_its_entries():
    for seed in range(60):
        rng = random.Random(f"matrix-order:{seed}")
        space = (gen_random_grid_space if seed % 2 else gen_random_rational_space)(seed, 12)
        if len(space.points) < 2:
            continue  # a singleton matrix parses as grid
        text, entries = _shuffled_matrix(space, rng)
        build = grid_space if space.mode == GRID else rational_space
        assert parse_distance_matrix(text) == build(list(space.points), entries) == space


def test_parser_and_constructor_report_the_same_first_fault():
    """Both check the position rows of a space in one routine, so a matrix
    with faults in several pairs names the same first pair either way, in
    whatever order the entries come."""
    checked = 0
    for seed in range(60):
        rng = random.Random(f"matrix-fault:{seed}")
        space = gen_random_rational_space(seed, 12)
        n = len(space.points)
        if n < 3:
            continue
        # one side of each of three pairs gets a distance out of range or
        # one the generator never draws, so that the pair is asymmetric
        pairs = rng.sample([(r, c) for r in range(n) for c in range(r + 1, n)], 3)
        faults = {
            rng.choice([pair, pair[::-1]]): rng.choice(["3/2", "1/7", "2/9"]) for pair in pairs
        }
        text, entries = _shuffled_matrix(space, rng, faults)
        with pytest.raises(ParseError) as parsed:
            parse_distance_matrix(text)
        for order in (entries, dict(reversed(entries.items()))):
            with pytest.raises(ValidationError) as built:
                rational_space(list(space.points), order)
            assert str(parsed.value) == str(built.value)
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize(
    "text, message",
    [
        ("b a\n0 1/2\n1/3 0\n", "asymmetric entries for pair ('a', 'b')"),
        ("b a\n0 e-1\ne-2 0\n", "asymmetric entries for pair ('a', 'b')"),
        ("p10 p2\n0 3/2\n3/2 0\n", "rational distance for ('p2', 'p10') must lie in (0, 1]"),
        ("a b\n0 0/5\n0/5 0\n", "rational distance for ('a', 'b') must lie in (0, 1]"),
        ("a b\n0 -1/2\n-1/2 0\n", "rational distance for ('a', 'b') must lie in (0, 1]"),
        ("a b\n0 1/2\ne-1 0\n", "matrix mixes exponent and rational entries"),
        (f"a x{_LONG}\n0 e-1\ne-1 0\n", "id x1111111111111111111... has a decimal run too long to read"),
    ],
    ids=["asymmetric", "asymmetric-grid", "above-one", "zero", "negative", "mixed-modes", "id-digit-limit"],
)
def test_matrix_faults_are_parse_errors_with_pinned_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_distance_matrix(text)
    assert not isinstance(err.value, ValidationError)
    assert str(err.value) == message


def test_group_order_is_bounded_before_building():
    # each of these would build a table of at least 25M entries, or a
    # window of over 10^9 ids, if it were built
    half = MAX_GROUP_ORDER // 2
    for level in (
        "cyclic:5000",
        f"cyclic:{MAX_GROUP_ORDER + 1}",
        f"windowZ:{half}",  # 2 * half + 1 elements
        "windowZ:1000000000",
        {"elements": [str(i) for i in range(5000)], "table": {}},
    ):
        with pytest.raises(ParseError, match=f"more than {MAX_GROUP_ORDER} elements"):
            parse_group_tower(json.dumps({"levels": ["cyclic:1", level], "bonds": [{}]}))
    edge = parse_group_tower(json.dumps({"levels": [f"windowZ:{half - 1}"], "bonds": []}))
    assert len(edge.levels[0].elements) == MAX_GROUP_ORDER - 1


def test_group_tower_levels_are_bounded_in_total(monkeypatch):
    import towertree.groups as groups

    built = []
    real = groups.TableGroup.cyclic
    monkeypatch.setattr(groups.TableGroup, "cyclic", lambda m: built.append(m) or real(m))
    identity = {str(i): str(i) for i in range(64)}
    text = json.dumps({"levels": ["cyclic:64"] * 1000, "bonds": [identity] * 999})
    fit = MAX_GROUP_ELEMENTS // 64
    with pytest.raises(ParseError, match=f"level {fit + 1}: group tower holds more than"):
        parse_group_tower(text)
    assert built == [64] * fit
    # an oversized level gets the per-level message, even past the total
    half = (MAX_GROUP_ORDER - 1) // 2
    windows = [f"windowZ:{half}"] * 4  # 4 * 255 elements
    for level, message in (
        (f"cyclic:{MAX_GROUP_ORDER + 1}", f"level 5: group holds more than {MAX_GROUP_ORDER}"),
        ("cyclic:5", f"level 5: group tower holds more than {MAX_GROUP_ELEMENTS}"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_group_tower(json.dumps({"levels": windows + [level], "bonds": []}))
    bonds = [{str(z): str(z) for z in range(-half, half + 1)}] * 3 + [dict.fromkeys("0123", "0")]
    fits = parse_group_tower(json.dumps({"levels": windows + ["cyclic:4"], "bonds": bonds}))
    assert sum(len(g.elements) for g in fits.levels) == MAX_GROUP_ELEMENTS


def _klein_level():
    """The Klein four-group as an explicit table level."""
    names = ["e", "a", "b", "c"]
    return {
        "elements": names,
        "table": {x: {y: names[names.index(x) ^ names.index(y)] for y in names} for x in names},
    }


_GROUP_FUZZ_BASES = [
    json.loads(emit_group_tower(gen_random_group_tower(5, depth=3, max_order=8))),
    json.loads(emit_group_tower(gen_solenoid([2], 12, 3)[0])),
    {"levels": ["cyclic:2", _klein_level()], "bonds": [{"e": "0", "a": "1", "b": "1", "c": "0"}]},
    {"levels": ["windowZ:3", "windowZ:3"], "bonds": [{str(z): str(z) for z in range(-3, 4)}]},
]


def _resize(doc, data):
    """Give one "kind:N" descriptor of doc another number, past the budget too."""
    paths = [p for p in _nodes(doc) if isinstance(_at(doc, p), str) and ":" in _at(doc, p)]
    if not paths:
        return doc
    *head, key = data.draw(st.sampled_from(paths))
    parent = _at(doc, head)
    size = data.draw(st.integers(min_value=0, max_value=20).map(str) | st.sampled_from(
        [str(MAX_GROUP_ORDER // 2), str(MAX_GROUP_ORDER + 1), "5000", _LONG]))
    parent[key] = f"{parent[key].partition(':')[0]}:{size}"
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _group_parses_back_or_rejects(doc) -> bool:
    """parse_group_tower either raises ParseError or returns g with parse(emit(g)) == g."""
    try:
        g = parse_group_tower(json.dumps(doc))
    except ParseError:
        return False
    assert parse_group_tower(emit_group_tower(g)) == g
    return True


@settings(max_examples=100, deadline=None)
@given(_JSON)
def test_parse_group_tower_fuzz_json_values(doc):
    _group_parses_back_or_rejects(doc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_GROUP_FUZZ_BASES), st.data())
def test_parse_group_tower_fuzz_mutated_files(base, data):
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        doc = _resize(doc, data) if data.draw(st.booleans()) else _mutate(doc, data)
    _group_parses_back_or_rejects(doc)


# entries of every kind the reader meets: exponents, rationals, decimals,
# scientific notation, non-ASCII digits and numbers past the digit limit
_MATRIX_TOKENS = st.sampled_from([
    "0", "1", "e-0", "e-1", "e-2", "e-12", "1/2", "3/10", "2/3", "1/3", "0.5", "2", "-1/2",
    "1/0", "0/1", "e-", "e--1", "e-x", "e-²", "nan", "inf", "1e-3", "1e-99999", "2e5", "1_0/3",
    "١/٢", f"e-{_LONG}", f"1/{_LONG}", "a", "b", "p10",
]) | st.text(max_size=3)


def _matrix_text(lines) -> str:
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


_MATRIX_TEXTS = st.text(max_size=40) | st.lists(
    st.lists(_MATRIX_TOKENS, max_size=4), max_size=4
).map(_matrix_text)


_MATRIX_FUZZ_BASES = [
    emit_distance_matrix(gen_random_grid_space(3, max_points=5)),
    emit_distance_matrix(gen_random_rational_space(4, max_points=5)),
    emit_distance_matrix(grid_space(["p1", "p2", "p10"], {
        ("p1", "p2"): 2, ("p1", "p10"): 0, ("p2", "p10"): 0,
    })),
    "a b\n0 1/2\n1/2 0\n",
    "only\n0\n",
]


def _matrix_parses_back_or_rejects(text) -> bool:
    """parse_distance_matrix either raises ParseError or returns sp with parse(emit(sp)) == sp."""
    try:
        sp = parse_distance_matrix(text)
    except ParseError:
        return False
    assert parse_distance_matrix(emit_distance_matrix(sp)) == sp
    return True


@settings(max_examples=100, deadline=None)
@given(_MATRIX_TEXTS)
def test_parse_distance_matrix_fuzz_text(text):
    _matrix_parses_back_or_rejects(text)


def _mutate_matrix(lines, data):
    """Replace one entry or one symmetric pair, drop or duplicate one entry,
    or drop, duplicate or move one line."""
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    actions = ["pair", "replace", "drop", "duplicate", "drop_line", "copy_line", "move_line"]
    action = data.draw(st.sampled_from(actions))
    row = lines[i]
    if action == "pair" and 0 < i < len(lines) and i - 1 < len(row):
        # entry (x, y) sits at lines[1 + x][y], and (y, x) at lines[1 + y][x]
        j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
        token = data.draw(_MATRIX_TOKENS)
        row[j] = token
        if j + 1 < len(lines) and i - 1 < len(lines[j + 1]):
            lines[j + 1][i - 1] = token
    elif action in ("replace", "drop", "duplicate") and row:
        j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
        if action == "replace":
            row[j] = data.draw(_MATRIX_TOKENS)
        elif action == "drop":
            del row[j]
        else:
            row.insert(j, row[j])
    elif action == "drop_line" and len(lines) > 1:
        del lines[i]
    elif action == "copy_line":
        lines.insert(i, list(row))
    elif action == "move_line":
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines) - 1)), lines.pop(i))
    return lines


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_MATRIX_FUZZ_BASES), st.data())
def test_parse_distance_matrix_fuzz_mutated_files(base, data):
    lines = [line.split() for line in base.splitlines()]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        lines = _mutate_matrix(lines, data)
    _matrix_parses_back_or_rejects(_matrix_text(lines))


def test_fuzz_findings_end_in_parse_error():
    with pytest.raises(ParseError, match="too long"):  # a singleton id natural_key cannot read
        parse_distance_matrix(f"a{_LONG}\n0\n")
    # scientific notation: a huge exponent is refused before 10**exp is
    # computed, and a value whose terms would not print is refused too
    for token in ("1e-999999999", "1e-99999", "1e-4300"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="bad distance entry"):
            parse_distance_matrix(f"a b\n0 {token}\n{token} 0\n")
        assert time.perf_counter() - start < 0.5
    for token, value in (("1e-3", Fraction(1, 1000)), ("1e-4299", Fraction(1, 10**4299))):
        sp = parse_distance_matrix(f"a b\n0 {token}\n{token} 0\n")
        assert list(sp.pairs()) == [("a", "b", value)]
        assert parse_distance_matrix(emit_distance_matrix(sp)) == sp
