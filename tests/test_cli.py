"""Command line behavior: exit codes, formats, generator subcommands."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import towertree
from towertree import TreeMap, emit_tower, generate, parse_report, parse_tower
from towertree.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_PROPERTY, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_two_branch(tmp_path, tower):
    path = tmp_path / "tower.json"
    path.write_text(emit_tower(tower), encoding="utf-8")
    return str(path)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_PROPERTY, EXIT_PARSE, EXIT_INVARIANT) == (0, 1, 2, 3)


def test_analyze_text(tmp_path, two_branch_tower):
    code, out, err = run(["analyze", write_two_branch(tmp_path, two_branch_tower)])
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "tower: depth 3, extensional, level sizes 1 2 1"
    assert "cross-check: consistent" in out


def test_analyze_machine_parses(tmp_path, two_branch_tower):
    code, out, _ = run([
        "analyze", write_two_branch(tmp_path, two_branch_tower),
        "--format", "machine",
    ])
    assert code == 0
    report = parse_report(out)
    assert report.cross_check["consistent"] is True
    assert report.tower["depth"] == 3


def test_analyze_leaves_mpmath_unloaded(tmp_path):
    """A one-shot analyze of a solenoid takes no certified log, so it never
    loads mpmath; the first certified log does."""
    spec = tmp_path / "solenoid.json"
    spec.write_text(json.dumps({"generator": "solenoid", "primes": [2], "window": 64, "depth": 7}))
    code = f"""
import contextlib, io, sys
from fractions import Fraction
import towertree.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", {str(spec)!r}, "--format", "machine"]) == 0
assert "mpmath" not in sys.modules
from towertree.ends import certified_neg_log_floor
assert certified_neg_log_floor(Fraction(1, 3)) == 1
assert "mpmath" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(towertree.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_analyze_missing_file():
    code, out, err = run(["analyze", "/nonexistent/tower.json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_analyze_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken,,\n}", encoding="utf-8")
    code, _, err = run(["analyze", str(path)])
    assert code == 2
    assert "line 2" in err


def test_analyze_depth_horizon(tmp_path, two_branch_tower):
    path = write_two_branch(tmp_path, two_branch_tower)
    code, out, _ = run(["analyze", path, "--depth-horizon", "2"])
    assert code == 0
    assert out.splitlines()[0] == "tower: depth 2, extensional, level sizes 1 2"
    code, _, err = run(["analyze", path, "--depth-horizon", "9"])
    assert code == 2
    assert "exceeds the stored depth" in err


def test_export_dot(tmp_path, two_branch_tower):
    code, out, _ = run(["export-dot", write_two_branch(tmp_path, two_branch_tower)])
    assert code == 0
    assert out.startswith("digraph")
    assert '"2:b2" [style=dashed];' in out
    assert out.count("->") == 4


def test_roundtrip_small_corpus_passes():
    code, out, _ = run(["roundtrip", "--seeds", "5"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "all checks passed"


def test_roundtrip_mutant_is_caught(monkeypatch):
    """Every induced map reports its schedule one radius too early; the
    corpus must flag the uncertified schedule."""
    real = generate.induce_tree_map

    def early(morphism):
        fmap = real(morphism)
        sched = fmap.schedule
        if not sched.breakpoints or sched.breakpoints[0] < 2:
            return fmap
        broken = dataclasses.replace(sched, breakpoints=tuple(t - 1 for t in sched.breakpoints))
        return TreeMap._built(fmap.source, fmap.target, fmap.rows, fmap.den, broken)

    monkeypatch.setattr(generate, "induce_tree_map", early)
    code, out, _ = run(["roundtrip", "--seeds", "5"])
    assert code == 1
    assert any(line.startswith("FAIL schedule-certified") for line in out.splitlines())


def test_gen_solenoid_text():
    code, out, _ = run([
        "gen", "solenoid", "--primes", "2", "--window", "64", "--depth", "4",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "solenoid: multipliers [2], window 64, depth 4"
    assert "ml: fails" in out
    assert "t-infinity shape: single zero branch" in out
    assert lines[-1] == "threads: 1"
    # multiplier 1 keeps every id of the window: 7 branches at window 3
    code, out, _ = run(["gen", "solenoid", "--primes", "1", "--window", "3", "--depth", "4"])
    assert code == 0
    assert out.splitlines()[-2:] == ["t-infinity shape: 7 branch(es)", "threads: 7"]


def test_gen_solenoid_machine():
    code, out, _ = run([
        "gen", "solenoid", "--primes", "2", "--window", "64", "--depth", "4",
        "--format", "machine",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["threads"] == 1
    assert data["zero_branch"] is True
    assert data["tower"]["generator"] == "solenoid"
    assert data["report"]["cross_check"]["consistent"] is True


def test_gen_biholder_machine_rows():
    code, out, _ = run(["gen", "biholder", "--k-max", "4", "--format", "machine"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == [2, "1/8", 6, True]
    assert data["rows"][1] == [3, "1/16", 12, True]
    assert [1, "1/2", 2] in data["violations"]
    assert [100, "9/10", 3] in data["violations"]
    assert [1, "1/10", None] in data["violations"]


def test_gen_biholder_text():
    """Rows k = 2, 3: n is the least integer above k ln(k 2^(k+1)), so 6 for
    2 ln 16 = 5.55 and 12 for 3 ln 48 = 11.61; a cell's first violation is the
    least k with C e^(-l n) < 1/2^(k+1)."""
    code, out, _ = run(["gen", "biholder", "--k-max", "3"])
    assert code == 0
    assert out.splitlines() == [
        "k  d=1/2^(k+1)      n  certified e^-n < (d/k)^k",
        "2  1/8             6    yes",
        "3  1/16            12   yes",
        "bound C=1 l=1/10: first violation none up to k=3",
        "bound C=1 l=1/2: first violation k=2",
        "bound C=1 l=9/10: first violation k=2",
        "bound C=10 l=1/10: first violation none up to k=3",
        "bound C=10 l=1/2: first violation k=3",
        "bound C=10 l=9/10: first violation k=2",
        "bound C=100 l=1/10: first violation none up to k=3",
        "bound C=100 l=1/2: first violation none up to k=3",
        "bound C=100 l=9/10: first violation k=3",
    ]


def test_gen_nonretract_text():
    code, out, _ = run(["gen", "nonretract", "--count", "3"])
    assert code == 0
    assert out.splitlines() == [
        "branch point 1 (fork radius 1/2): distance 1/2",
        "branch point 2 (fork radius 3/4): distance 1/4",
        "branch point 3 (fork radius 7/8): distance 1/8",
        "infimum of distances: 0",
        "point lies in t-infinity: no",
    ]


def test_gen_nonretract_machine():
    code, out, _ = run(["gen", "nonretract", "--count", "4", "--format", "machine"])
    assert code == 0
    data = json.loads(out)
    assert data["distances"] == ["1/2", "1/4", "1/8", "1/16"]
    assert data["infimum"] == "0"
    assert data["point_in_core"] is False


def test_gen_random_emits_parsable_tower():
    argv = ["gen", "random", "--seed", "7", "--depth", "4", "--max-level-size", "4"]
    code, out, _ = run(argv)
    assert code == 0
    tower = parse_tower(out)
    assert tower.depth == 4
    assert run(argv)[1] == out


def test_gen_rejects_bad_parameters():
    code, _, err = run([
        "gen", "solenoid", "--primes", "0", "--window", "64", "--depth", "4",
    ])
    assert code == 2
    assert "error:" in err
    code, _, err = run(["gen", "nonretract", "--count", "0"])
    assert code == 2


def test_gen_biholder_refuses_a_k_max_past_the_digit_limit():
    """The first k_max whose distance 1/2^(k_max + 1) would not print is
    refused before any row is built: exit 2, one error line, no output.
    The line names the real maximum: at the default limit that is the
    output budget, which is lower."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    try:
        for digits in (640, old):
            sys.set_int_max_str_digits(digits)
            most = (10**digits).bit_length() - 2  # 2^(most + 1) still prints
            allowed = min(most, generate.MAX_TABLE_ROWS)
            for fmt in ("text", "machine"):
                code, out, err = run(["gen", "biholder", "--k-max", str(most + 1), "--format", fmt])
                assert code == EXIT_PARSE
                assert out == ""
                assert err.startswith(f"error: k_max must be at most {allowed},")
                assert err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(old)


def test_analyze_rejects_booleans_and_oversized_generators(tmp_path):
    specs = [
        {"generator": "solenoid", "primes": [True], "window": 3, "depth": True},
        {"generator": "solenoid", "primes": [2], "window": 10**9, "depth": 3},
        {"generator": "solenoid", "primes": [1], "window": 3, "depth": 10**9},
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / f"gen{i}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run(["analyze", str(path)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:")


LONG_RUN = "1" * 5000  # past Python's default 4,300-digit int/str limit
# The nesting case passes the interpreter's recursion limit in json.loads.


@pytest.mark.parametrize(
    "text, extra",
    [
        ('{"depth": 1, "levels": [["a"]], "bonds": [], "x": ' + LONG_RUN + "}", []),
        (json.dumps({"depth": 1, "levels": [["a" + LONG_RUN]], "bonds": []}), []),
        (json.dumps({"generator": "solenoid", "primes": [10**50], "window": 0, "depth": 100}), []),
        (
            json.dumps({"generator": "solenoid", "primes": [10**50], "window": 0, "depth": 80}),
            ["--depth-horizon", "100"],
        ),
        ("[" * 100_000 + "]" * 100_000, []),
        (json.dumps({"generator": "solenoid", "primes": [1], "window": 0, "depth": 2**20}), []),
    ],
    ids=[
        "json-integer", "id-digit-run", "ml-certificate", "ml-certificate-horizon", "nesting",
        "generator-depth",
    ],
)
def test_analyze_rejects_input_past_interpreter_limits(tmp_path, text, extra):
    path = tmp_path / "tower.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["analyze", str(path), *extra])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "random", "--seed", "1", "--depth", "0", "--max-level-size", "3"],
        ["gen", "biholder", "--c", "0"],
        ["gen", "biholder", "--l", "1/0"],
        ["gen", "biholder", "--l", "x"],
        ["export-dot", "no-such-dir/tower.json"],
        ["gen", "solenoid", "--primes", "2", "--window", "1000000000", "--depth", "3"],
        ["gen", "biholder", "--k-max", "4", "--l", "1/2", "1e-5000"],
        ["gen", "biholder", "--k-max", "4", "--l", "1e-9999999"],
        ["gen", "nonretract", "--count", "15000"],
        ["gen", "nonretract", "--count", "15000", "--format", "machine"],
        ["gen", "nonretract", "--count", "4097"],
        ["gen", "biholder", "--k-max", "4097", "--format", "machine"],
        ["gen", "random", "--seed", "1", "--depth", "1025", "--max-level-size", "1024"],
        ["roundtrip", "--seeds", "-5"],
        ["roundtrip", "--seeds", str(generate.MAX_ROUNDTRIP_SEEDS + 1)],
    ],
    ids=[
        "random-depth",
        "biholder-c",
        "biholder-l-zero-division",
        "biholder-l-text",
        "dot-missing",
        "solenoid-budget",
        "biholder-l-unprintable",
        "biholder-l-long-exponent",
        "nonretract-unprintable",
        "nonretract-unprintable-machine",
        "nonretract-budget",
        "biholder-budget",
        "random-budget",
        "roundtrip-negative-seeds",
        "roundtrip-seed-budget",
    ],
)
def test_every_command_reports_errors_as_one_line(argv):
    code, out, err = run(argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
