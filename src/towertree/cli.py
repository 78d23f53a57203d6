"""Command line surface.

Exit codes: 0 ok, 1 property failure (roundtrip corpus), 2 parse or usage
error, 3 internal invariant breach (cross-check inconsistency).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DepthExhausted, NotProper, TowerTreeError
from .formats import _rational, emit_tower, parse_tower
from .generate import (
    gen_biholder,
    gen_example_nonretract,
    gen_random_tower,
    gen_solenoid,
    random_morphism,
)
from .groups import limit_threads
from .maps import (
    TreeMap,
    XiSchedule,
    check_nonexpansive,
    compose_tree_maps,
    extract_morphism,
    homotopy_properness,
    identity_tree_map,
    induce_tree_map,
    properness_witness,
)
from .report import build_report, emit_report, render_text
from .towers import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    Tower,
    TowerMorphism,
    compose_morphisms,
    identity_morphism,
    morphisms_equivalent,
)

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
    from .trees import dot_of_tree, tree_of_tower

    sys.stdout.write(dot_of_tree(tree_of_tower(parse_tower(_read(args.file)))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# The functor-law corpus


@dataclass
class CorpusSummary:
    counts: dict
    failures: list
    skips: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, passed: bool, context: str = "") -> None:
        bucket = self.counts.setdefault(name, [0, 0])
        bucket[0 if passed else 1] += 1
        if not passed:
            self.failures.append(f"{name}: {context}")

    def skip(self, name: str) -> None:
        self.skips[name] = self.skips.get(name, 0) + 1


def _mutated(fmap: TreeMap) -> TreeMap:
    """Same map, schedule reported one radius too early (harness check)."""
    sched = fmap.schedule
    if sched is None or not sched.breakpoints or sched.breakpoints[0] < 2:
        return fmap
    broken = XiSchedule(
        breakpoints=tuple(t - 1 for t in sched.breakpoints),
        virtual_top=sched.virtual_top,
        source_depth=sched.source_depth,
    )
    return TreeMap._built(fmap.source, fmap.target, fmap.rows, schedule=broken)


def _check_instance(summary: CorpusSummary, tag: str, x: Tower, f: TowerMorphism,
                    h: TowerMorphism | None, mutate: bool) -> None:
    from .trees import tower_of_tree, tree_of_tower

    summary.record("tower-roundtrip", tower_of_tree(tree_of_tower(x)) == x, tag)

    induced = induce_tree_map(f)
    if mutate:
        induced = _mutated(induced)
    summary.record("nonexpansive", check_nonexpansive(induced).valid, tag)

    prop = properness_witness(induced)
    sched = induced.schedule
    certified = all(
        prop.table[n - 1] <= sched.breakpoint_after(n) for n in range(1, prop.total_upto + 1)
    )
    if prop.failure_level is not None:
        # a witness may only be missing past the reach of the truncated
        # schedule: beyond its last segment, or past the source depth
        beyond = prop.failure_level > len(sched.breakpoints) or (
            sched.breakpoint_after(prop.failure_level) > sched.source_depth
        )
        certified = certified and beyond
    summary.record("schedule-certified", certified, tag)

    try:
        extracted = extract_morphism(induced)
    except NotProper:
        # the schedule consumed the whole depth; nothing to extract here
        summary.skip("extract-induce-identity")
        summary.skip("induce-extract-homotopic")
        extracted = None
    if extracted is not None:
        verdict = morphisms_equivalent(extracted, f)
        summary.record("extract-induce-identity", verdict.verdict == EQUIVALENT, tag)
        re_induced = induce_tree_map(extracted)
        summary.record(
            "induce-extract-homotopic", homotopy_properness(induced, re_induced).proper, tag
        )

    ident = identity_tree_map(induced.source)
    summary.record(
        "tree-identity-laws",
        compose_tree_maps(induced, ident) == induced
        and compose_tree_maps(identity_tree_map(induced.target), induced) == induced,
        tag,
    )

    if h is not None:
        try:
            composed = compose_morphisms(h, f)
        except DepthExhausted:
            composed = None
        if composed is not None:
            lhs = induce_tree_map(composed)
            rhs = compose_tree_maps(induce_tree_map(h), induce_tree_map(f))
            summary.record("composition-homotopic", homotopy_properness(lhs, rhs).proper, tag)
            try:
                ext = morphisms_equivalent(extract_morphism(rhs), composed)
                summary.record("composition-extracted", ext.verdict != NOT_EQUIVALENT, tag)
            except NotProper:
                summary.skip("composition-extracted")


def _constant_tower(depth: int, size: int) -> Tower:
    ids = [str(i) for i in range(size)]
    return Tower([ids] * depth, [{x: x for x in ids}] * (depth - 1))


def run_roundtrip_corpus(seed_count: int, inject_mutant: bool = False) -> CorpusSummary:
    """Functor-law checks over fixed instances plus a seeded corpus."""
    summary = CorpusSummary(counts={}, failures=[], skips={})
    fixed = [
        ("constant-6", _constant_tower(6, 3)),
        ("constant-8", _constant_tower(8, 2)),
        ("two-branch", Tower([["a"], ["b1", "b2"], ["c1"]], [{"b1": "a", "b2": "a"}, {"c1": "b1"}])),
    ]
    for tag, tower in fixed:
        ident = identity_morphism(tower)
        try:
            _check_instance(summary, tag, tower, ident, ident, inject_mutant)
        except TowerTreeError as e:
            summary.record("no-exceptions", False, f"{tag}: {e}")
    for seed in range(seed_count):
        depth = 2 + seed % 7
        size = 1 + seed % 5
        bias = (seed % 11) / 10.0
        x = gen_random_tower(seed, depth, size, bias)
        y = gen_random_tower(seed + 10_000, depth, size, bias)
        z = gen_random_tower(seed + 20_000, depth, size, bias)
        f = random_morphism(seed, x, y)
        h = random_morphism(seed + 10_000, y, z)
        try:
            _check_instance(summary, f"seed-{seed}", x, f, h, inject_mutant)
        except TowerTreeError as e:
            summary.record("no-exceptions", False, f"seed-{seed}: {e}")
    return summary


def cmd_roundtrip(args) -> int:
    summary = run_roundtrip_corpus(args.seeds, inject_mutant=args.inject_mutant)
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
    group, tower = gen_solenoid(args.primes, args.window, args.depth)
    report = build_report(tower)
    threads = limit_threads(group)
    from .trees import max_geodesic_subtree, tree_of_tower

    # the core is geodesically complete: its branches end at full depth, and
    # a single one holds every vertex of the core
    core = max_geodesic_subtree(tree_of_tower(tower))
    count = len(core.levels[core.depth])
    zero_branch = count == 1 and all(v[1] == "0" for v in core.vertices[1:])
    if args.format == "machine":
        data = {
            "tower": json.loads(emit_tower(tower)),
            "report": json.loads(emit_report(report)),
            "threads": len(threads),
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
        print(f"threads: {len(threads)}")
    return EXIT_INVARIANT if not report.cross_check["consistent"] else EXIT_OK


def _gen_biholder(args) -> int:
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
    p_round.add_argument("--inject-mutant", action="store_true", help=argparse.SUPPRESS)
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
