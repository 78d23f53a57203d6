"""Benchmark of towertree: four workloads, end-to-end metrics and a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed fresh

NAME is one of solenoid_analyze, functor_corpus, end_spaces, pro_groups, or
`all`, which runs each workload in a process of its own and prints every
metric.  `--seed fresh` draws a new seed and prints it, so a claim can be
checked on a seed nobody tuned against.

One process runs one workload: a closed loop with one caller and one thread,
where each op starts after the previous one ends.  Set-up (import of
towertree, input generation, file writes) is timed once in this process and
once in each of two fresh child processes, so every round pays the cold
import of towertree and its dependencies; `setup_s` is the median.  The loop
then runs ops for --seconds, checking each op's output against expected
values computed during set-up.  With --trace 0 the last line of output is a
JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run (see spans.py).  Spans are written to
.perfbench-out/ at the root of the repository.

Times are given at reference speed (see SpeedProbe).  This cancels the
host's own speed swings, which on a shared 2-vCPU VM reach 1.7x within
seconds.  The raw wall times are printed in the `detail` line.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import resource
import secrets
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

import spans  # noqa: E402  (the script's directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 3
# The calibration loop: its size, its time at reference speed, and how
# often it samples the host's speed.
CAL_LOOPS = 3000
REF_CAL_S = 0.001
PROBE_PERIOD_S = 0.01
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.TRACED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for counter, _ in spans.COUNTS.values():
        units[counter] = "count"
    for ratio in spans.OUTCOMES:
        units[ratio] = "1"
    units["report.stage_gap_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def import_towertree():
    """Import towertree from the checkout's src/."""
    T = importlib.import_module("towertree")
    importlib.import_module("towertree.cli")
    if Path(T.__file__).resolve().parent != SRC / "towertree":
        raise ImportError(f"towertree imported from {T.__file__}, not from {SRC}")
    return T


def calibrate() -> float:
    """Time a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    d = {}
    for i in range(CAL_LOOPS):
        k = i % 97
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed every PROBE_PERIOD_S while timed code runs.

    A timer signal runs `calibrate` in this thread, between two bytecodes of
    whatever runs at that moment.  `scaled(t0, t1)` turns the wall interval
    [t0, t1] into seconds at reference speed: it takes out the time the
    samples themselves spent inside the interval, and multiplies the rest by
    REF_CAL_S / c, where c is the harmonic mean of the loop times of the
    samples taken within one period of the interval.  The loop is benchmark
    code and the same on every commit, so the ratio moves only with the
    program.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame):
        if len(self.starts) > len(self.ends):
            return  # the previous sample is still running
        # A collection set off by the loop's allocations would be charged to
        # the sample and taken out of the op that owes it, so hold it off.
        collecting = gc.isenabled()
        gc.disable()
        self.starts.append(time.perf_counter())
        calibrate()
        self.ends.append(time.perf_counter())
        if collecting:
            gc.enable()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        a = bisect.bisect_left(self.starts, t0 - PROBE_PERIOD_S)
        b = bisect.bisect_right(self.starts, t1 + PROBE_PERIOD_S)
        if a == b:  # no sample close by: take the nearest on each side
            a, b = max(0, a - 1), min(len(self.starts), b + 1)
        # Samples are evenly spaced in time, so the mean of 1/c weighs each
        # slice of the interval by how fast the host ran in it.
        rate = statistics.fmean(1 / (self.ends[i] - self.starts[i]) for i in range(a, b))
        return (t1 - t0 - busy) * REF_CAL_S * rate


def environment(T) -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "towertree": T.__version__,
        "machine": platform.machine(),
    }


def set_up_once(workload, seed: int, size: str):
    """Cold set-up in this process; returns (package, inputs, raw s, scaled s)."""
    OUT.mkdir(exist_ok=True)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        T = import_towertree()
        items = workload.setup(T, seed, size, OUT)
        t1 = time.perf_counter()
        time.sleep(2 * PROBE_PERIOD_S)  # a sample after the set-up, too
    return T, items, t1 - t0, probe.scaled(t0, t1)


def set_up(workload, seed: int, size: str, rounds: int):
    """Set up here, then time `rounds - 1` more cold set-ups in child processes.

    Returns (package, inputs, [(raw s, scaled s) per round]).
    """
    T, items, raw, scaled = set_up_once(workload, seed, size)
    times = [(raw, scaled)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--size", size, "--setup-only"]
    for _ in range(rounds - 1):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((child["raw_s"], child["scaled_s"]))
    return T, items, times


def one_op(workload, T, item, tracer=None) -> tuple[float, float, list[str]]:
    """Run and time one op, then check it; returns (start, end, problems)."""
    root = tracer.open("op") if tracer else None
    t0 = time.perf_counter()
    try:
        res = workload.run(T, item)
    except Exception as e:  # a failing op is counted, and the loop goes on
        res, problems = None, [f"{type(e).__name__}: {e}"]
    t1 = time.perf_counter()
    if tracer:
        tracer.close(root)
    if res is not None:
        try:
            problems = workload.check(item, res)
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
    return t0, t1, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problems[0])


def measure(workload, T, items, seconds: float) -> tuple[dict, Tally, dict]:
    """Closed loop for --seconds, with the host's speed sampled throughout."""
    tally = Tally()
    intervals = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            t0, t1, problems = one_op(workload, T, items[len(intervals) % len(items)])
            intervals.append((t0, t1))
            tally.add(problems)
            if time.perf_counter() - start >= seconds:
                break
        time.sleep(2 * PROBE_PERIOD_S)  # a sample after the last op, too
    raw = [t1 - t0 for t0, t1 in intervals]
    scaled = [probe.scaled(t0, t1) for t0, t1 in intervals]
    rank = math.ceil(workload.tail_pct / 100 * len(raw)) - 1
    correct = tally.attempted - tally.failed
    metrics = {
        "ops_per_s": correct / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1000,
        "op_tail_ms": sorted(scaled)[rank] * 1000,
    }
    wall = {
        "ops_per_s": correct / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1000,
        "op_tail_ms": sorted(raw)[rank] * 1000,
    }
    tail = {"percentile": workload.tail_pct, "samples": len(raw),
            "beyond": len(raw) - rank - 1}
    if workload.tail_note:
        tail["note"] = workload.tail_note
    return metrics, tally, {"tail": tail, "wall": wall}


def measure_traced(workload, T, items, seconds: float) -> tuple[dict, Tally, dict, list]:
    """Alternate untraced and traced blocks of the same ops for --seconds.

    Self times are means per block; calls and counts come from the first
    traced block, so they repeat exactly for a seed.
    """
    tracer = spans.Tracer()
    tally = Tally()
    k = min(workload.block, len(items))
    walls = {False: [], True: []}
    replay = getattr(workload, "replay_stages", None)
    start = time.perf_counter()
    block = 0
    while True:
        chunk = [items[(block * k + j) % len(items)] for j in range(k)]
        wall = 0.0
        for item in chunk:
            t0, t1, problems = one_op(workload, T, item)
            wall += t1 - t0
            tally.add(problems)
        walls[False].append(wall)
        undo = tracer.install()
        try:
            tracer.counting = block == 0
            wall = 0.0
            for item in chunk:
                t0, t1, problems = one_op(workload, T, item, tracer)
                wall += t1 - t0
                tally.add(problems)
            walls[True].append(wall)
            tracer.counting = False
            if replay is not None:
                tracer.tag = "stages"
                for item in chunk:
                    root = tracer.open("stages")
                    replay(T, item)
                    tracer.close(root)
                tracer.tag = "op"
        finally:
            spans.Tracer.uninstall(undo)
        block += 1
        if time.perf_counter() - start >= seconds:
            break

    own = spans.self_times(tracer.spans)
    metrics = {}
    for name in spans.TRACED:
        metrics[f"{name}.self_s"] = own.get(name, 0.0) / block
        metrics[f"{name}.calls"] = tracer.counts[f"{name}.attempts"]
    for counter, _ in spans.COUNTS.values():
        metrics[counter] = tracer.counts[counter]
    for ratio, (fn, _) in spans.OUTCOMES.items():
        attempts = tracer.counts[f"{fn}.attempts"]
        metrics[ratio] = tracer.counts[f"{fn}.raised"] / attempts if attempts else 0.0
    metrics["report.stage_gap_s"] = spans.stage_gap(tracer.spans) / block
    metrics["trace.overhead_s"] = statistics.mean(walls[True]) - statistics.mean(walls[False])
    info = {"blocks": block, "ops_per_block": k,
            "untraced_block_s": statistics.mean(walls[False]),
            "traced_block_s": statistics.mean(walls[True]),
            "spans": len(tracer.spans)}
    return metrics, tally, info, tracer.spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 corrupt: bool = False) -> dict:
    """Set up and measure one workload in this process; returns the result."""
    workload = WORKLOADS[name]
    T, items, setup_times = set_up(workload, seed, size, 1 if trace else SETUP_ROUNDS)
    if corrupt:
        workload.corrupt(items)
    detail = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
              "params": workload.sizes[size], "op": workload.op, "why": workload.why,
              "pool": len(items), "setup_rounds_raw_s": [r for r, _ in setup_times],
              "env": environment(T)}
    if trace:
        metrics, tally, info, recorded = measure_traced(workload, T, items, seconds)
        units = per_layer_units()
        detail["traced"] = info
        path = OUT / f"spans-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "fields": ["name", "start", "end", "parent", "tag", "op"],
                       "spans": recorded}, fh)
        detail["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics, tally, info = measure(workload, T, items, seconds)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        detail.update(info)
        detail["wall"]["setup_s"] = statistics.median(r for r, _ in setup_times)
    detail["attempted"] = tally.attempted
    detail["failed"] = tally.failed
    detail["fail_ratio"] = tally.failed / tally.attempted
    detail["problems"] = tally.problems
    return {
        "detail": detail,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        },
    }


def print_result(out: dict) -> None:
    detail, result = out["detail"], out["result"]
    print(f"# {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            t = detail["tail"]
            note = f"  (p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond)"
            if "note" in t:
                note += f"  {t['note']}"
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':<44} {detail['fail_ratio']:>14.6g} 1"
          f"  ({detail['failed']} of {detail['attempted']} ops)")
    for p in detail["problems"]:
        print(f"FAIL {p}")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", default="1",
                        help="workload seed, or 'fresh' for a new one that is printed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-check")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (a set-up round's child)")
    args = parser.parse_args(argv)
    if args.seed == "fresh":
        args.seed = secrets.randbelow(1_000_000)
        print(f"fresh seed: {args.seed}", file=sys.stderr)
    else:
        try:
            args.seed = int(args.seed)
        except ValueError:
            parser.error(f"--seed must be an integer or 'fresh', not {args.seed!r}")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "towertree" / "__init__.py").is_file():
        print(f"error: no towertree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, _, raw, scaled = set_up_once(WORKLOADS[args.workload], args.seed, args.size)
        print(json.dumps({"raw_s": raw, "scaled_s": scaled}))
        return 0
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
