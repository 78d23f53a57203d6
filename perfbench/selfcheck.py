"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload, at a tiny input size and for a fraction of a second, it
checks that an untraced and a traced run print exactly the metrics named in
BENCHMARK.json, each with its unit, and that no op fails.  It then corrupts
one expected value and checks that the run counts a failure, which proves
that the output checks fire.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import WORKLOADS


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=1, seconds=0.2, trace=trace, size="tiny")["result"]
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(m for m in set(want) & set(got) if want[m] != got[m])
            problems.append(f"{key}: missing {missing}, extra {extra}, wrong unit {wrong}")
        for metric, v in result["metrics"].items():
            value = v["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{metric} = {value!r}")
            elif key == "end_to_end" and value <= 0:
                problems.append(f"{metric} = {value}, expected > 0")
        if result["failed"] or not result["correct"] or result["attempted"] < 1:
            problems.append(f"{key} run: {result['failed']} of {result['attempted']} ops failed")
    corrupted = run.run_workload(name, seed=1, seconds=0.01, trace=False, size="tiny", corrupt=True)
    if corrupted["result"]["failed"] < 1 or corrupted["result"]["correct"]:
        problems.append("a corrupted expected value was not counted as a failure")
    return problems


def main() -> int:
    if not (run.SRC / "towertree" / "__init__.py").is_file():
        print(f"error: no towertree package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        found = check_workload(name, bench)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += [f"{name}: {p}" for p in found]
    for p in problems:
        print(f"FAIL {p}")
    print("self-check passed" if not problems else "self-check FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
