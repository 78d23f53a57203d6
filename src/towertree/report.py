"""Whole-tower analysis: one pass that ties the verdicts together.

The report is deliberately JSON-plain (dicts, lists, scalars) so that the
machine emission round-trips bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import InvalidParameter, ParseError
from .maps import retraction_map
from .towers import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    MLReport,
    Tower,
    ml_verdict,
    windowed_solenoid_tower,
)
from .trees import RootedTree, max_geodesic_subtree, tree_of_tower
from .formats import _load_json


@dataclass(frozen=True)
class AnalysisReport:
    tower: dict
    ml: dict
    t_infinity: dict
    end_space: dict
    retraction: dict
    cross_check: dict


def _truncate(tower: Tower, horizon: int) -> Tower:
    """The first horizon levels of the tower.  A generator tower keeps its
    oracle and its windows, and only a horizon past its stored depth
    rebuilds it."""
    if horizon < 1:
        raise InvalidParameter("depth horizon must be >= 1")
    oracle = tower.oracle
    if horizon > tower.depth:
        if oracle is not None:
            return windowed_solenoid_tower(oracle.primes, oracle.window, horizon)
        raise InvalidParameter(
            f"horizon {horizon} exceeds the stored depth {tower.depth} of an extensional tower"
        )
    return Tower._ordered(tower.levels[:horizon], tower.up[: horizon - 1], oracle)


def _ml_dict(report: MLReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "level": report.witness.level,
            "chain": [list(row) for row in report.witness.chain],
        }
    return {
        "verdict": report.verdict,
        "stabilization": [[r.level, r.stabilization, r.margin] for r in report.per_level],
        "witness": witness,
    }


def _end_dict(core: RootedTree) -> dict:
    """The end figures counted up the core: one end per deepest vertex, and
    the pairs of ends that agree through level k number the sum of C(c, 2)
    over that level's vertices, c the ends below each.  A range row moves
    each count to a parent of its own, so it moves the counts in one slice
    and leaves that sum as it is."""
    sizes = core.sizes
    ends = [1] * sizes[-1]
    agree = [0]  # pairs agreeing through level depth, depth - 1, ..., 0
    for n in range(core.depth - 1, -1, -1):
        above = [0] * sizes[n]
        u = core.up[n]
        if type(u) is range:
            above[u.start : u.stop : u.step] = ends
            agree.append(agree[-1])
        else:
            for c, p in zip(ends, u):
                above[p] += c
            agree.append(sum(c * (c - 1) // 2 for c in above))
        ends = above
    agree.reverse()
    histogram = {k: agree[k] - agree[k + 1] for k in range(core.depth) if agree[k] > agree[k + 1]}
    return {
        "point_count": sizes[-1],
        "exponent_histogram": {str(k): histogram[k] for k in sorted(histogram, key=str)},
        "diameter_exponent": min(histogram, default=None),
    }


def build_report(tower: Tower, depth_horizon: int | None = None) -> AnalysisReport:
    if depth_horizon is not None:
        tower = _truncate(tower, depth_horizon)
    ml = ml_verdict(tower)
    tree = tree_of_tower(tower)
    core = max_geodesic_subtree(tree)
    t_inf = {"vertex_count": sum(core.sizes), "depth": core.depth, "branch_count": core.sizes[-1]}
    retr = retraction_map(tree).properness
    retraction = {
        "witness_total": retr.total,
        "table": [[n + 1, m] for n, m in enumerate(retr.table)],
        "failure_level": retr.failure_level,
        "oracle_override": retr.oracle_override,
    }
    margins_positive = retr.total and all(
        tower.depth - m >= 1 for n, m in enumerate(retr.table, start=1) if n <= tower.depth - 1
    )
    if not retr.total:
        expected = FAILS
    elif margins_positive:
        expected = HOLDS
    else:
        expected = INCONCLUSIVE
    cross = {
        "consistent": ml.verdict == expected,
        "ml_verdict": ml.verdict,
        "retraction_expects": expected,
        "witness_total": retr.total,
    }
    return AnalysisReport(
        tower={
            "depth": tower.depth,
            "level_sizes": list(tower.sizes),
            "flavor": tower.flavor,
        },
        ml=_ml_dict(ml),
        t_infinity=t_inf,
        end_space=_end_dict(core),
        retraction=retraction,
        cross_check=cross,
    )


def render_text(r: AnalysisReport) -> str:
    lines = []
    sizes = " ".join(str(s) for s in r.tower["level_sizes"])
    lines.append(f"tower: depth {r.tower['depth']}, {r.tower['flavor']}, level sizes {sizes}")
    verdict = r.ml["verdict"]
    lines.append(f"ml: {verdict}")
    for level, s, margin in r.ml["stabilization"]:
        lines.append(f"  level {level}: images stabilize at {s} (margin {margin})")
    if r.ml["witness"] is not None:
        w = r.ml["witness"]
        lines.append(f"  witness at level {w['level']}:")
        for n1, alpha, fails_at in w["chain"]:
            lines.append(f"    {alpha} extends to level {n1} but not to {fails_at}")
    lines.append(
        "t-infinity: {vertex_count} vertices, depth {depth}, "
        "{branch_count} complete branch(es)".format(**r.t_infinity)
    )
    diam = r.end_space["diameter_exponent"]
    lines.append(
        f"end space: {r.end_space['point_count']} point(s), "
        f"diameter {'e-' + str(diam) if diam is not None else 'n/a'}"
    )
    hist = r.end_space["exponent_histogram"]
    if hist:
        pairs = ", ".join(f"e-{k}: {v}" for k, v in hist.items())
        lines.append(f"  agreement histogram: {pairs}")
    if r.retraction["witness_total"]:
        table = " ".join(f"m({n})={m}" for n, m in r.retraction["table"])
        lines.append(f"retraction: proper, witness {table}")
    else:
        source = " (oracle)" if r.retraction["oracle_override"] else ""
        lines.append(
            f"retraction: not proper, fails at radius {r.retraction['failure_level']}{source}"
        )
    status = "consistent" if r.cross_check["consistent"] else "INCONSISTENT"
    lines.append(
        f"cross-check: {status} (ml {r.cross_check['ml_verdict']}, "
        f"retraction expects {r.cross_check['retraction_expects']})"
    )
    return "\n".join(lines) + "\n"


def emit_report(r: AnalysisReport) -> str:
    # not asdict, which deep-copies every nested list before dumping it
    data = {f.name: getattr(r, f.name) for f in fields(r)}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> AnalysisReport:
    data = _load_json(text)
    keys = {f.name for f in fields(AnalysisReport)}
    if not isinstance(data, dict) or set(data) != keys:
        raise ParseError("report object must carry exactly the analysis fields")
    return AnalysisReport(**data)
