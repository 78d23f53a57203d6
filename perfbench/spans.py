"""Spans and counts around calls into towertree's layers.

A traced run wraps the public functions listed in TRACED, in every
`towertree` module namespace that binds them, with a function defined here;
the program's source is unchanged.  Calls between layers then record spans
as well, which is how `max_geodesic_subtree` shows its three calls per
report.  Each span is [name, start, end, parent index, tag, op], where op
is the index of the op's root span, shared by every span of that op; spans
stay in memory and are written out when the run ends.  Counts are recorded at the
same boundaries, from the wrapped call's arguments, result or exception.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = (
    "cli.main",
    "formats.parse_tower",
    "formats.parse_distance_matrix",
    "report.build_report",
    "report.emit_report",
    "towers.ml_verdict",
    "towers.compose_morphisms",
    "towers.morphisms_equivalent",
    "trees.tree_of_tower",
    "trees.tower_of_tree",
    "trees.max_geodesic_subtree",
    "trees.branches",
    "maps.retraction_map",
    "maps.properness_witness",
    "maps.induce_tree_map",
    "maps.extract_morphism",
    "maps.homotopy_properness",
    "maps.compose_tree_maps",
    "maps.check_nonexpansive",
    "ends.end_space_of",
    "ends.verify_ultrametric",
    "ends.tree_of_ultrametric",
    "ends.simplicialize",
    "groups.check_translation_isometry",
    "groups.limit_threads",
    "groups.core_iso_construction",
)

# Work done, as exact counts: function -> (counter, count from args and result)
COUNTS = {
    "trees.tree_of_tower": ("trees.vertices", lambda args, r: len(r.parent) + 1),
    "ends.end_space_of": ("ends.points", lambda args, r: len(r.points)),
    "ends.verify_ultrametric": (
        "ends.pairs", lambda args, r: len(args[0].points) * (len(args[0].points) - 1) // 2
    ),
    "groups.limit_threads": ("groups.threads", lambda args, r: len(r)),
    "groups.check_translation_isometry": ("groups.isometry_checked", lambda args, r: r.checked),
    "maps.properness_witness": ("maps.witness_levels", lambda args, r: r.total_upto),
}

# Useful-outcome ratios: ratio -> (function, exception that ends the attempt)
OUTCOMES = {
    "maps.extract_not_proper": ("maps.extract_morphism", "NotProper"),
    "towers.compose_depth_exhausted": ("towers.compose_morphisms", "DepthExhausted"),
    "groups.core_iso_not_ml": ("groups.core_iso_construction", "NotML"),
}

_RAISES = {fn: exc for fn, exc in OUTCOMES.values()}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag = "op"
        self.counting = False
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        op = self.stack[0] if self.stack else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.tag, op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        raises = _RAISES.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.close(index)
                if self.counting:
                    self.counts[f"{name}.attempts"] += 1
                    if type(e).__name__ == raises:
                        self.counts[f"{name}.raised"] += 1
                raise
            self.close(index)
            if self.counting:
                self.counts[f"{name}.attempts"] += 1
                if count is not None:
                    self.counts[count[0]] += count[1](args, result)
            return result

        return traced

    def install(self) -> list[tuple]:
        """Wrap every binding of the TRACED functions; returns what to undo."""
        mods = [m for n, m in sys.modules.items() if n == "towertree" or n.startswith("towertree.")]
        wrappers = {}
        for name in TRACED:
            layer, fn_name = name.split(".")
            fn = getattr(sys.modules[f"towertree.{layer}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        undo = []
        for m in mods:
            for attr, obj in list(vars(m).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(m, attr, hit[1])
                    undo.append((m, attr, obj))
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for m, attr, obj in undo:
            setattr(m, attr, obj)


def self_times(spans: list[list], tag: str = "op") -> dict[str, float]:
    """name -> self seconds, summed over the spans carrying the tag.

    Self time is a span's duration minus the durations of its children.
    """
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, t, _) in enumerate(spans):
        if t == tag:
            out[name] += end - start - child[i]
    return out


def stage_gap(spans: list[list]) -> float:
    """build_report's time minus the sum of its replayed stages.

    Covers the spans tagged "stages": top-level stage calls under each
    replay root, then build_report whole.
    """
    gap = 0.0
    roots = {i for i, s in enumerate(spans) if s[4] == "stages" and s[3] < 0}
    for name, start, end, parent, tag, _ in spans:
        if tag != "stages" or parent not in roots:
            continue
        if name == "report.build_report":
            gap += end - start
        elif name not in ("formats.parse_tower", "report.emit_report"):
            gap -= end - start
    return gap
