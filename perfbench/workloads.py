"""The four benchmark workloads.

Each workload has three parts:

- `setup(T, seed, size, out_dir)` builds a pool of inputs as plain lists,
  dicts and text, together with expected values computed by `oracles` (or
  by formula), never by the function whose output they check;
- `run(T, item)` is one op: the timed calls into `towertree` (the package
  `T`), starting from the plain inputs, so that no object survives from one
  op to the next and no per-object cache can carry over between pool cycles;
- `check(item, res)` compares the op's results with the expected values and
  returns a list of problems (empty when the op is correct).

`corrupt(items)` changes one expected value, so that the self-check can
prove that the checks fire.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracles

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent_closed_world"


def _plain_tower(t) -> tuple[list[list[str]], list[dict[str, str]]]:
    return [list(level) for level in t.levels], [dict(bond) for bond in t.bonds]


def _plain_morphism(m) -> tuple[list[int], list[dict[str, str]]]:
    upto = range(1, m.defined_upto + 1)
    return [m.phi_at(n) for n in upto], [dict(m.component(n)) for n in upto]


def _pair_problems(label: str, space, expected: dict, npoints: int) -> list[str]:
    """Compare every pair of an ultrametric space with expected exponents."""
    seen = 0
    for x, y, v in space.pairs():
        seen += 1
        want = expected.get((x, y), expected.get((y, x)))
        if v != want:
            return [f"{label}: d({x},{y}) exponent {v}, expected {want}"]
    if seen != npoints * (npoints - 1) // 2:
        return [f"{label}: {seen} pairs for {npoints} points"]
    return []


class SolenoidAnalyze:
    name = "solenoid_analyze"
    why = (
        "one huge tower with one end: trees and maps do over 90% of the work, ends almost "
        "none; the only workload on the oracle path (core_hint, oracle_override)"
    )
    op = "towertree analyze FILE --format machine, through towertree.cli.main with stdout captured"
    sizes = {
        "full": {"primes": [2], "window": 16384, "depth": 15},
        "tiny": {"primes": [2], "window": 32, "depth": 6},
    }
    # Only 9 to 15 ops fit in a 25 s run, too few to keep ten samples beyond
    # any percentile.  p5 is the fastest op: a best case, not a tail, and a
    # regression confined to slow ops does not show in it.
    tail_pct = 5
    tail_note = "p5 here is the fastest op: a best case, not a tail"
    block = 1

    def setup(self, T, seed, size, out_dir):
        spec = {"generator": "solenoid", **self.sizes[size]}
        depth = spec["depth"]
        if spec["primes"] != [2] or spec["window"] != 2 ** (depth - 1):
            raise ValueError("the expected values below assume primes [2] and window 2^(depth-1)")
        path = Path(out_dir) / f"solenoid-{size}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        expected = {
            # level n holds the integers |z| <= 2^(depth-n)
            "level_sizes": [2 ** (depth + 1 - n) + 1 for n in range(1, depth + 1)],
            # 2^(n1-1) extends to level n1 but not to n1 + 1
            "chain": [[n1, 2 ** (n1 - 1), n1 + 1] for n1 in range(2, depth + 1)],
            # only 0 is divisible by every power of 2: one branch, one end
            "t_infinity": {"vertex_count": depth + 1, "depth": depth, "branch_count": 1},
            "point_count": 1,
        }
        return [{"path": str(path), "expected": expected}]

    def run(self, T, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = T.cli.main(["analyze", item["path"], "--format", "machine"])
        return {"rc": rc, "stdout": out.getvalue()}

    def check(self, item, res):
        if res["rc"] != 0:
            return [f"exit code {res['rc']}"]
        rep = json.loads(res["stdout"])
        want = item["expected"]
        problems = []
        if rep["tower"]["level_sizes"] != want["level_sizes"]:
            problems.append(f"level sizes {rep['tower']['level_sizes']}")
        if rep["ml"]["verdict"] != "fails":
            problems.append(f"ml verdict {rep['ml']['verdict']}")
        if (rep["ml"]["witness"] or {}).get("chain") != want["chain"]:
            problems.append("ml witness chain differs")
        if rep["t_infinity"] != want["t_infinity"]:
            problems.append(f"t_infinity {rep['t_infinity']}")
        if rep["end_space"]["point_count"] != want["point_count"]:
            problems.append(f"end count {rep['end_space']['point_count']}")
        if rep["retraction"]["witness_total"] is not False:
            problems.append("retraction reported total")
        if rep["cross_check"]["consistent"] is not True:
            problems.append("cross-check inconsistent")
        return problems

    def replay_stages(self, T, item):
        """The public calls build_report makes, in its order, then the whole."""
        tower = T.parse_tower(Path(item["path"]).read_text(encoding="utf-8"))
        T.ml_verdict(tower)
        tree = T.tree_of_tower(tower)
        core = T.max_geodesic_subtree(tree)
        T.branches(core)
        T.end_space_of(tree)
        T.retraction_map(tree)
        T.emit_report(T.build_report(tower))

    def corrupt(self, items):
        items[0]["expected"]["level_sizes"][0] += 1


class FunctorCorpus:
    name = "functor_corpus"
    why = (
        "the towers/trees/maps layers of solenoid_analyze on thousands of towers with at most "
        "5 ids per level, where fixed per-object cost dominates"
    )
    op = (
        "one seeded roundtrip instance (towers x, y, z; morphisms f: x->y, h: y->z) checked "
        "against the functor laws of acceptance criterion 2"
    )
    # 770 = 2 * lcm(7, 5, 11): every pool holds each (depth, size, bias) twice
    sizes = {"full": {"instances": 770}, "tiny": {"instances": 6}}
    tail_pct = 99
    tail_note = None
    block = 385

    def setup(self, T, seed, size, out_dir):
        count = self.sizes[size]["instances"]
        items = []
        for i in range(count):
            s = seed * count + i
            depth, width, bias = 2 + s % 7, 1 + s % 5, (s % 11) / 10
            x = T.gen_random_tower(s, depth, width, bias)
            y = T.gen_random_tower(s + 10_000, depth, width, bias)
            z = T.gen_random_tower(s + 20_000, depth, width, bias)
            items.append(
                {
                    "seed": s,
                    "x": _plain_tower(x),
                    "roundtrip": _plain_tower(x),
                    "y": _plain_tower(y),
                    "z": _plain_tower(z),
                    "f": _plain_morphism(T.random_morphism(s, x, y)),
                    "h": _plain_morphism(T.random_morphism(s + 10_000, y, z)),
                }
            )
        return items

    def run(self, T, item):
        x, y, z = (T.Tower(*item[k]) for k in ("x", "y", "z"))
        f = T.TowerMorphism(x, y, *item["f"])
        h = T.TowerMorphism(y, z, *item["h"])
        res = {"roundtrip": T.tower_of_tree(T.tree_of_tower(x))}
        induced = T.induce_tree_map(f)
        res["nonexpansive"] = T.check_nonexpansive(induced).valid
        res["witness"] = T.properness_witness(induced)
        res["schedule"] = induced.schedule
        try:
            extracted = T.extract_morphism(induced)
        except T.NotProper:
            extracted = None  # the schedule used the whole depth
        if extracted is not None:
            res["extract_equiv"] = T.morphisms_equivalent(extracted, f).verdict
            res["extract_homotopic"] = T.homotopy_properness(
                induced, T.induce_tree_map(extracted)
            ).proper
        res["identity_laws"] = (
            T.compose_tree_maps(induced, T.identity_tree_map(induced.source)) == induced
            and T.compose_tree_maps(T.identity_tree_map(induced.target), induced) == induced
        )
        try:
            composed = T.compose_morphisms(h, f)
        except T.DepthExhausted:
            composed = None
        if composed is not None:
            lhs = T.induce_tree_map(composed)
            rhs = T.compose_tree_maps(T.induce_tree_map(h), T.induce_tree_map(f))
            res["composition_homotopic"] = T.homotopy_properness(lhs, rhs).proper
            try:
                res["composition_extracted"] = T.morphisms_equivalent(
                    T.extract_morphism(rhs), composed
                ).verdict
            except T.NotProper:
                pass
        return res

    def check(self, item, res):
        problems = []
        if _plain_tower(res["roundtrip"]) != item["roundtrip"]:
            problems.append("tower_of_tree(tree_of_tower(x)) != x")
        if res["nonexpansive"] is not True:
            problems.append("induced map expands an edge")
        wit, sched = res["witness"], res["schedule"]
        certified = all(
            wit.table[n - 1] <= sched.breakpoint_after(n) for n in range(1, wit.total_upto + 1)
        )
        if wit.failure_level is not None:
            # a witness may be missing only past the reach of the schedule
            certified = certified and (
                wit.failure_level > len(sched.breakpoints)
                or sched.breakpoint_after(wit.failure_level) > sched.source_depth
            )
        if not certified:
            problems.append("properness witness exceeds the schedule")
        if "extract_equiv" in res and res["extract_equiv"] != EQUIVALENT:
            problems.append(f"extract(induce(f)) vs f: {res['extract_equiv']}")
        if res.get("extract_homotopic", True) is not True:
            problems.append("induce(extract(F)) not homotopic to F")
        if res["identity_laws"] is not True:
            problems.append("identity laws fail")
        if res.get("composition_homotopic", True) is not True:
            problems.append("induce(h f) not homotopic to induce(h) induce(f)")
        if res.get("composition_extracted") == NOT_EQUIVALENT:
            problems.append("extract(induce(h) induce(f)) not equivalent to h f")
        return [f"seed {item['seed']}: {p}" for p in problems]

    def corrupt(self, items):
        items[0]["roundtrip"][0][0].append("corrupt")


class EndSpaces:
    name = "end_spaces"
    why = (
        "ends does 85-90% of the work (cubic verify_ultrametric) on integer and text ids, "
        "including rejected matrices; towers and maps do almost none"
    )
    op = (
        "(a) end space of a wide extensional tower, verified; (b) a grid matrix with text ids "
        "parsed, verified, to a tree and back, plus a perturbed copy verified; (c) a rational "
        "space simplicialized"
    )
    sizes = {
        "full": {"instances": 80, "tower_depth": 8, "tower_width": 32, "grid_points": 24,
                 "rational_points": 16},
        "tiny": {"instances": 2, "tower_depth": 3, "tower_width": 5, "grid_points": 6,
                 "rational_points": 5},
    }
    # About 65 to 100 ops fit in a 25 s run, so each run sees most of the
    # pool once; the cost of an op varies by a quarter between instances,
    # and a pool half this size made p50 and p80 depend on the seed.
    tail_pct = 80
    tail_note = None
    block = 8

    def setup(self, T, seed, size, out_dir):
        p = self.sizes[size]
        items = []
        for i in range(p["instances"]):
            s = seed * p["instances"] + i
            items.append(
                {"seed": s, "a": self._tower_part(T, s, p), "b": self._grid_part(s, p),
                 "c": self._rational_part(T, s, p)}
            )
        return items

    @staticmethod
    def _tower_part(T, s, p):
        levels, bonds = _plain_tower(
            T.gen_random_tower(s, p["tower_depth"], p["tower_width"], surjectivity_bias=1.0)
        )
        # every bond is onto, so every vertex of the last level is an end
        leaves = list(levels[-1])
        chains = [oracles.ancestors(levels, bonds, x) for x in leaves]
        n = len(leaves)
        e = [[0] * n for _ in range(n)]
        exps = {}
        for i in range(n):
            for j in range(i + 1, n):
                e[i][j] = e[j][i] = oracles.agreement_exponent(chains[i], chains[j])
                exps[(leaves[i], leaves[j])] = e[i][j]
        return {"levels": levels, "bonds": bonds, "leaves": leaves, "exps": exps,
                "valid": oracles.first_violation(e) is None}

    @staticmethod
    def _grid_part(s, p):
        n = p["grid_points"]
        ids = [f"p{i}" for i in range(n)]
        e = oracles.grid_dendrogram(s, n)
        bad = oracles.perturb(s, e)
        order = list(range(n))
        random.Random(f"perfbench-order:{s}").shuffle(order)
        return {
            "ids": ids,
            "index": {x: i for i, x in enumerate(ids)},
            "text": oracles.matrix_text(ids, e, order),
            "exps": {(ids[i], ids[j]): e[i][j] for i in range(n) for j in range(i + 1, n)},
            "valid": oracles.first_violation(e) is None,
            "bad_text": oracles.matrix_text(ids, bad, order),
            "bad_e": bad,
            "bad_valid": oracles.first_violation(bad) is None,
        }

    @staticmethod
    def _rational_part(T, s, p):
        space = T.gen_random_rational_space(s, max_points=p["rational_points"])
        entries = {(x, y): d for x, y, d in space.pairs()}
        return {
            "points": list(space.points),
            "entries": entries,
            "bands": {pair: oracles.band_exponent(d) for pair, d in entries.items()},
        }

    def run(self, T, item):
        a, b, c = item["a"], item["b"], item["c"]
        space_a = T.end_space_of(T.tree_of_tower(T.Tower(a["levels"], a["bonds"])))
        res = {"a": (space_a, T.verify_ultrametric(space_a).valid)}
        space_b = T.parse_distance_matrix(b["text"])
        valid_b = T.verify_ultrametric(space_b).valid
        tree_b, _ = T.tree_of_ultrametric(space_b)
        back = T.end_space_of(tree_b)
        res["b"] = (back, valid_b, back == space_b)
        res["bad"] = T.verify_ultrametric(T.parse_distance_matrix(b["bad_text"]))
        _, corr = T.simplicialize(T.rational_space(c["points"], c["entries"]))
        res["c"] = corr.rows
        return res

    def check(self, item, res):
        a, b, c = item["a"], item["b"], item["c"]
        problems = []
        space_a, valid_a = res["a"]
        if valid_a != a["valid"]:
            problems.append(f"(a) verify says {valid_a}")
        if sorted(space_a.points) != sorted(a["leaves"]):
            problems.append("(a) end points are not the leaves")
        else:
            problems += _pair_problems("(a)", space_a, a["exps"], len(a["leaves"]))
        back, valid_b, equal = res["b"]
        if valid_b != b["valid"]:
            problems.append(f"(b) verify says {valid_b}")
        if not equal:
            problems.append("(b) end_space_of(tree_of_ultrametric(S)) != S")
        problems += _pair_problems("(b)", back, b["exps"], len(b["ids"]))
        bad = res["bad"]
        if bad.valid != b["bad_valid"]:
            problems.append(f"(b) perturbed matrix: verify says {bad.valid}")
        elif not bad.valid:
            i, j, z = (b["index"][x] for x in bad.violation)
            if not oracles.is_violation(b["bad_e"], i, j, z):
                problems.append(f"(b) reported triple {bad.violation} does not violate")
        rows = res["c"]
        if {(r.x, r.y) for r in rows} != set(c["bands"]) or len(rows) != len(c["bands"]):
            problems.append("(c) rows do not cover each pair once")
        for r in rows:
            if not r.certified or r.new_exponent != c["bands"].get((r.x, r.y)):
                problems.append(f"(c) row {r.x},{r.y}: exponent {r.new_exponent}")
                break
        return [f"seed {item['seed']}: {p}" for p in problems]

    def corrupt(self, items):
        exps = items[0]["b"]["exps"]
        pair = next(iter(exps))
        exps[pair] += 1


class ProGroups:
    name = "pro_groups"
    why = (
        "the only workload that exercises groups: the exhaustive isometry check is cubic in "
        "threads; trees, maps and ends are skipped"
    )
    op = (
        "one seeded cyclic group tower: check_translation_isometry, then core_iso_construction "
        "and both core round trips where ML holds"
    )
    # The pool is the generator's own output for consecutive seeds.  About
    # 45% of these towers have 12 threads, so the median op lies well inside
    # that class for any seed.
    sizes = {
        "full": {"towers": 400, "depth": 5, "max_order": 16},
        "tiny": {"towers": 4, "depth": 3, "max_order": 6},
    }
    tail_pct = 98
    tail_note = None
    block = 20

    def setup(self, T, seed, size, out_dir):
        p = self.sizes[size]
        items = []
        for s in range(seed * p["towers"], (seed + 1) * p["towers"]):
            g = T.gen_random_group_tower(s, p["depth"], max_order=p["max_order"])
            orders = [len(level.elements) for level in g.levels]
            bonds = [dict(bond.mapping) for bond in g.bonds]
            levels = [[str(x) for x in range(m)] for m in orders]
            items.append({
                "seed": s,
                "orders": orders,
                "bonds": bonds,
                # a table thread is determined by its top entry
                "threads": orders[-1],
                "ml": oracles.mittag_leffler_at_depth(levels, bonds),
            })
        return items

    def run(self, T, item):
        g = T.GroupTower(
            [T.TableGroup.cyclic(m) for m in item["orders"]],
            [T.TableHom(bond) for bond in item["bonds"]],
        )
        iso = T.check_translation_isometry(g)
        res = {"valid": iso.valid, "checked": iso.checked}
        try:
            ci = T.core_iso_construction(g)
        except T.NotML:
            res["ml"] = False
            return res
        res["ml"] = True
        inc, inv = T.as_tower_morphism(ci.inclusion), ci.inverse
        res["round_full"] = T.morphisms_equivalent(
            T.compose_morphisms(inc, inv), T.identity_morphism(inv.source)
        ).verdict
        res["round_core"] = T.morphisms_equivalent(
            T.compose_morphisms(inv, inc), T.identity_morphism(inc.source)
        ).verdict
        return res

    def check(self, item, res):
        problems = []
        if res["valid"] is not True:
            problems.append("translation isometry reported a violation")
        if res["checked"] != item["threads"] ** 3:
            problems.append(f"checked {res['checked']}, expected threads^3 = {item['threads'] ** 3}")
        if res["ml"] != item["ml"]:
            problems.append(f"core_iso_construction ML {res['ml']}, expected {item['ml']}")
        elif res["ml"] and (res["round_full"], res["round_core"]) != (EQUIVALENT, EQUIVALENT):
            problems.append(f"core round trips {res['round_full']}, {res['round_core']}")
        return [f"seed {item['seed']}: {p}" for p in problems]

    def corrupt(self, items):
        items[0]["threads"] += 1


WORKLOADS = {w.name: w for w in (SolenoidAnalyze(), FunctorCorpus(), EndSpaces(), ProGroups())}
