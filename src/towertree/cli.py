"""Command line surface.

Exit codes: 0 ok, 1 property failure (roundtrip corpus), 2 parse or usage
error, 3 internal invariant breach (cross-check inconsistency).  Only the
roundtrip and gen handlers import generate, and with it groups and ends, so
that analyze and export-dot load neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import TowerTreeError
from .formats import _rational, emit_tower, parse_tower
from .report import build_report, emit_report, render_text
from .trees import dot_of_tree, tree_of_tower

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_analyze(args) -> int:
    report = build_report(parse_tower(_read(args.file)), depth_horizon=args.depth_horizon)
    if args.format == "machine":
        sys.stdout.write(emit_report(report))
    else:
        sys.stdout.write(render_text(report))
    if not report.cross_check["consistent"]:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_export_dot(args) -> int:
    sys.stdout.write(dot_of_tree(tree_of_tower(parse_tower(_read(args.file)))))
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    from .generate import run_roundtrip_corpus

    summary = run_roundtrip_corpus(args.seeds)
    for name in sorted(set(summary.counts) | set(summary.skips)):
        passed, failed = summary.counts.get(name, (0, 0))
        skipped = summary.skips.get(name, 0)
        extra = f", {skipped} skipped at depth" if skipped else ""
        print(f"{name}: {passed} pass, {failed} fail{extra}")
    if not summary.ok:
        for line in summary.failures[:20]:
            print(f"FAIL {line}")
        return EXIT_PROPERTY
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Generators


def _gen_solenoid(args) -> int:
    from .generate import gen_solenoid

    _, tower = gen_solenoid(args.primes, args.window, args.depth)
    report = build_report(tower)
    # the limit threads are the ends of T-infinity, one per branch; the core
    # keeps only the 0 thread unless every multiplier is 1, and then it keeps
    # whole windows of at least 3 ids: one branch is the 0 branch
    count = report.t_infinity["branch_count"]
    zero_branch = count == 1
    if args.format == "machine":
        data = {
            "tower": json.loads(emit_tower(tower)),
            "report": json.loads(emit_report(report)),
            "threads": count,
            "zero_branch": zero_branch,
        }
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(
            f"solenoid: multipliers {list(args.primes)}, window {args.window}, depth {args.depth}"
        )
        sys.stdout.write(render_text(report))
        shape = "single zero branch" if zero_branch else f"{count} branch(es)"
        print(f"t-infinity shape: {shape}")
        print(f"threads: {count}")
    return EXIT_INVARIANT if not report.cross_check["consistent"] else EXIT_OK


def _gen_biholder(args) -> int:
    from .generate import gen_biholder

    ls = tuple(_rational(s, "bad --l value") for s in args.l)
    table = gen_biholder(args.k_max, tuple(args.c), ls)
    if args.format == "machine":
        data = {
            "k_max": table.k_max,
            "rows": [[r.k, str(r.distance), r.n, r.certified] for r in table.rows],
            "violations": [[c, str(l), k] for c, l, k in table.violations],
        }
        print(json.dumps(data, indent=2))
    else:
        print("k  d=1/2^(k+1)      n  certified e^-n < (d/k)^k")
        for r in table.rows:
            print(f"{r.k:<3}{str(r.distance):<16}{r.n:<5}{'yes' if r.certified else 'NO'}")
        for c, l, k in table.violations:
            where = f"k={k}" if k is not None else f"none up to k={table.k_max}"
            print(f"bound C={c} l={l}: first violation {where}")
    if not all(r.certified for r in table.rows):
        return EXIT_INVARIANT
    return EXIT_OK


def _gen_nonretract(args) -> int:
    from .generate import gen_example_nonretract

    rep = gen_example_nonretract(args.count)
    if args.format == "machine":
        data = {
            "distances": [str(d) for d in rep.distances],
            "infimum": str(rep.infimum),
            "point_in_core": rep.point_in_core,
        }
        print(json.dumps(data, indent=2))
    else:
        for i, d in enumerate(rep.distances, start=1):
            print(f"branch point {i} (fork radius {Fraction(2**i - 1, 2**i)}): distance {d}")
        print(f"infimum of distances: {rep.infimum}")
        print(f"point lies in t-infinity: {'yes' if rep.point_in_core else 'no'}")
    return EXIT_OK


def _gen_random(args) -> int:
    from .generate import gen_random_tower

    tower = gen_random_tower(args.seed, args.depth, args.max_level_size, args.surjectivity_bias)
    sys.stdout.write(emit_tower(tower))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="towertree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for a tower file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--format", choices=("text", "machine"), default="text")
    p_analyze.add_argument("--depth-horizon", type=int, default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_dot = sub.add_parser("export-dot", help="DOT drawing of the tree of a tower file")
    p_dot.add_argument("file")
    p_dot.set_defaults(func=cmd_export_dot)

    p_round = sub.add_parser("roundtrip", help="run the functor-law corpus")
    p_round.add_argument("--seeds", type=int, default=25)
    p_round.set_defaults(func=cmd_roundtrip)

    p_gen = sub.add_parser("gen", help="curated and random example generators")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_sol = gen_sub.add_parser("solenoid")
    g_sol.add_argument("--primes", type=int, nargs="+", required=True)
    g_sol.add_argument("--window", type=int, required=True)
    g_sol.add_argument("--depth", type=int, required=True)
    g_sol.add_argument("--format", choices=("text", "machine"), default="text")
    g_sol.set_defaults(func=_gen_solenoid)

    g_bih = gen_sub.add_parser("biholder")
    g_bih.add_argument("--k-max", type=int, default=64)
    g_bih.add_argument("--c", type=int, nargs="+", default=[1, 10, 100])
    g_bih.add_argument("--l", nargs="+", default=["1/10", "1/2", "9/10"])
    g_bih.add_argument("--format", choices=("text", "machine"), default="text")
    g_bih.set_defaults(func=_gen_biholder)

    g_non = gen_sub.add_parser("nonretract")
    g_non.add_argument("--count", type=int, default=10)
    g_non.add_argument("--format", choices=("text", "machine"), default="text")
    g_non.set_defaults(func=_gen_nonretract)

    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--depth", type=int, required=True)
    g_rand.add_argument("--max-level-size", type=int, required=True)
    g_rand.add_argument("--surjectivity-bias", type=float, default=0.7)
    g_rand.set_defaults(func=_gen_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TowerTreeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
