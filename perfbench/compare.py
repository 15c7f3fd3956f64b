"""Compare a parent commit and a change on the benchmark, pair by pair.

    python3 perfbench/compare.py --parent DIR --change DIR
        [--workload NAME ...] [--claim WORKLOAD:METRIC ...]

DIR is the root of a checkout of each commit.  Both must hold the same
benchmark (``BENCHMARK.json`` and ``perfbench/``), so that only the program
differs.  Pair i of ``PAIRS`` runs every workload with seed ``FIRST_SEED + i``
on both sides, the parent first in even pairs and the change first in odd
ones.

Each (workload, end-to-end metric) is reported in its own row:

- a claimed metric is a ``gain`` only if the change wins at least 9 of 10
  pairs (ties count for neither), its median beats the parent's by more than
  the parent's interquartile range, and no more ops fail than at the parent;
  otherwise ``claim not met``;
- any other metric is ``unresolved`` when either side's interquartile range
  exceeds the metric's bound (unless every change run beats every parent
  run: ``better``), ``worse`` when the change's median is worse by more than
  the bound, ``better`` when it passes the gain test, else ``unchanged``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 100


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            claimed: bool = False) -> str:
    """The row verdict for paired runs, ``parent[i]`` against ``change[i]``."""
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    gain = wins >= 0.9 * len(parent) and sign * (pm - cm) > iqr(parent)
    if claimed:
        return "gain" if gain else "claim not met"
    if max(iqr(parent) / abs(pm), iqr(change) / abs(cm)) > bound:
        every_run_better = (max(change) < min(parent) if sign > 0
                            else min(change) > max(parent))
        return "better" if every_run_better else "unresolved"
    if sign * (cm - pm) / abs(pm) > bound:
        return "worse"
    return "better" if gain else "unchanged"


def same_benchmark(a: Path, b: Path) -> bool:
    if not filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json", shallow=False):
        return False
    files_a = sorted(p.relative_to(a) for p in (a / "perfbench").rglob("*.py"))
    files_b = sorted(p.relative_to(b) for p in (b / "perfbench").rglob("*.py"))
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.exit(f"compare: {workload} seed {seed} in {root} printed no result "
                 f"(exit {done.returncode})")
    return result


def collect(parent: Path, change: Path, spec: dict, workloads):
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        for w in workloads:
            for side, root in sides:
                runs[w][side].append(run_once(root, spec, w, seed))
                print(f"pair {i} {w} {side} done", file=sys.stderr)
    return runs


def report(spec: dict, runs: dict, claims: set[tuple[str, str]]) -> list[dict]:
    rows = []
    for w, sides in runs.items():
        failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            claimed = (w, m["name"]) in claims
            v = verdict(p, c, m["better"], m["bound"], claimed)
            if claimed and v == "gain" and failed["change"] > failed["parent"]:
                v = "claim not met"
            rows.append({
                "workload": w, "metric": m["name"], "unit": m["unit"],
                "parent": statistics.quantiles(p, n=4), "change": statistics.quantiles(c, n=4),
                "verdict": v,
            })
        wrong = [s for s in sides if not all(r["correct"] for r in sides[s])]
        if wrong:
            rows.append({"workload": w, "metric": "correct", "verdict": f"wrong answers: {wrong}"})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description="parent vs change comparison")
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    args = ap.parse_args()
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    if not same_benchmark(args.parent, args.change):
        sys.exit("compare: the two checkouts hold different benchmarks")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = collect(args.parent.resolve(), args.change.resolve(), spec, workloads)
    for row in report(spec, runs, claims):
        if "parent" in row:
            p, c = row["parent"], row["change"]
            print(f"{row['workload']:14s} {row['metric']:12s} parent {p[1]:.6g} [{p[0]:.6g}, "
                  f"{p[2]:.6g}]  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] {row['unit']:5s} "
                  f"{row['verdict']}")
        else:
            print(f"{row['workload']:14s} {row['metric']:12s} {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
