"""The spherebraid benchmark: three seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src/``.
``--workload all`` runs the three workloads one after another, each in its
own interpreter, so that each one's peak RSS and caches are its own.
Workloads (see BENCHMARK.json for why each was chosen):

- ``witness_sweep``: ``classifier.witness`` for every record of
  ``enumerate_all(n)``, n = 4..12, in seeded order.  One op is one witness.
  Whole passes are run until ``--seconds`` have passed; every pass must
  verify all 179 witnesses.
- ``query_mix``: known-answer queries from ``queries.py``, each parsed with
  ``parse_braid`` and answered by ``equals``, ``order_of`` or
  ``central_value``.  One op is one query, parse included.  Whole blocks are
  run until ``--seconds`` have passed and at least 1000 queries are done.
- ``algebra_cold``: ``algebra.py`` in a fresh interpreter per repetition, so
  the engine's caches start cold.  One op is one task.  Repetitions are run
  until ``--seconds`` have passed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same fixed share of work (one
sweep pass, 11 query blocks, one cold algebra run) runs once untraced and
once traced, and the object holds the per-layer metrics of ``tracing.py``
plus the tracing overhead.  Spans go to ``perfbench/out/``.  The exit code
is 1, after the result line, when any answer is wrong or a sweep pass
verifies fewer than 179 witnesses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import engine
import queries
import tracing
from clock import Clock, OpLog

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOADS = ("witness_sweep", "query_mix", "algebra_cold")
# The tail percentile of each workload: the highest with at least 10 samples
# beyond it in the smallest run the workload makes (179 witnesses, 1045
# queries, 353 tasks).  Fixed, so that runs of different lengths compare.
TAIL = {"witness_sweep": 90, "query_mix": 99, "algebra_cold": 95}
MIN_WITNESSES = 179
MIN_QUERY_BLOCKS = 11  # 11 * 95 = 1045 queries
SETUP_RUNS = 31
# A fresh interpreter imports the engine and uses it once; the child times
# that itself and scales it with its own calibration marks, as the child may
# run on another core than this process.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
from time import perf_counter
from clock import Clock
clock = Clock()
clock.calibrate()
t0 = perf_counter()
from spherebraid import classifier, groups, oracle, words
groups.sphere_three_strand_table()
oracle.order_of(words.parse_braid("a0", 4))
classifier.enumerate_all(4)
t1 = perf_counter()
clock.calibrate()
print(clock.scaled(t0, t1))
"""


@dataclass
class Outcome:
    """What a measured stretch leaves: op times at reference speed, failures."""

    times: list[float]
    failed: int
    wrong: list[str]
    rss_mb: float


def finish(log: OpLog) -> Outcome:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Outcome(log.times(), log.failed, log.wrong, rss)


def setup_seconds() -> float:
    """Median time, at reference speed, for a fresh interpreter to import the
    engine and use it once."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(engine.SRC), str(HERE)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # writes bytecode; not timed
    samples = [float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)
               for _ in range(SETUP_RUNS)]
    return statistics.median(samples)


# --- witness_sweep -----------------------------------------------------------


def sweep_records(sb) -> list:
    return [rec for n in range(4, 13) for rec in sb.classifier.enumerate_all(n)]


def sweep_pass(sb, records, rng, log: OpLog) -> None:
    classifier, oracle = sb.classifier, sb.oracle
    order = list(records)
    rng.shuffle(order)
    verified = 0
    for rec in order:
        try:
            wit = log.run(classifier.witness, rec)
        except classifier.WitnessUnavailable:
            log.intervals.pop()  # not a witness: open, excluded or geometric
            continue
        except oracle.OracleBudgetError:
            log.failed += 1
            continue
        if wit.ok:
            verified += 1
        else:
            log.wrong.append(f"witness n={rec.n} {rec.shape}: transcript not ok")
    if verified < MIN_WITNESSES:
        log.wrong.append(f"sweep pass verified {verified} witnesses, expected {MIN_WITNESSES}")


def witness_sweep(sb, seed: int, seconds: float) -> Outcome:
    records = sweep_records(sb)
    rng = random.Random(seed)
    log = OpLog()
    t0 = perf_counter()
    while True:
        sweep_pass(sb, records, rng, log)
        if perf_counter() - t0 >= seconds:
            return finish(log)


# --- query_mix ---------------------------------------------------------------


def answer(sb, q: queries.Query):
    words, oracle = sb.words, sb.oracle
    w = words.parse_braid(q.text, q.n)
    if q.op == "equals":
        return oracle.equals(w, words.parse_braid(q.text2, q.n))
    if q.op == "order_of":
        return oracle.order_of(w).value
    return oracle.central_value(w)


def query_block(sb, block, log: OpLog) -> None:
    for q in block:
        try:
            got = log.run(answer, sb, q)
        except (sb.oracle.OracleBudgetError, sb.groups.CosetBudgetError):
            log.failed += 1
            continue
        if got != q.answer:
            log.wrong.append(f"{q.cls} n={q.n} {q.op}({q.text!r}"
                             f"{', ' + repr(q.text2) if q.text2 else ''}) = {got!r}, "
                             f"expected {q.answer!r}")


def query_mix(sb, seed: int, seconds: float) -> Outcome:
    log = OpLog()
    t0 = perf_counter()
    for done, block in enumerate(queries.stream(seed), start=1):
        query_block(sb, block, log)
        if done >= MIN_QUERY_BLOCKS and perf_counter() - t0 >= seconds:
            return finish(log)


# --- algebra_cold ------------------------------------------------------------


def algebra_child(seed: int, trace: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "algebra.py"), "--seed", str(seed), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def algebra_cold(seed: int, seconds: float) -> Outcome:
    out = Outcome([], 0, [], 0.0)
    t0 = perf_counter()
    rep = 0
    while True:
        res = algebra_child(seed * 1000 + rep, 0)
        out.times += res["times"]
        out.failed += res["failed"]
        out.wrong += res["wrong"]
        out.rss_mb = max(out.rss_mb, res["rss_mb"])
        rep += 1
        if perf_counter() - t0 >= seconds:
            return out


# --- metrics -----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A Beta-weighted mean of all order statistics, centred on rank q(n+1).
    Unlike a single order statistic it does not jump when two ops near the
    rank swap places, which is what steadies a median or tail over fixed,
    unevenly spaced op costs.
    """
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule for the Beta mass on each rank's interval [i/n, (i+1)/n].
    w = [pdf(i / n) + 4 * pdf((i + 0.5) / n) + pdf((i + 1) / n) for i in range(n)]
    return sum(wi * x for wi, x in zip(w, s)) / sum(w)


def end_to_end(workload: str, out: Outcome, setup_s: float) -> dict[str, float]:
    tail_q = TAIL[workload]
    attempted = len(out.times)
    beyond = attempted - math.ceil(tail_q / 100 * attempted)
    if beyond < 10:
        sys.exit(f"perfbench: p{tail_q} has only {beyond} samples beyond it")
    busy = sum(out.times)
    print(f"{workload}: {attempted} ops, {busy:.2f} s of op time at reference speed; "
          f"op_tail_ms is p{tail_q}, with {beyond} of {attempted} samples beyond it")
    print(f"{workload}: failed_share {out.failed / attempted:.6f} ({out.failed}/{attempted}); "
          f"wrong_answers {len(out.wrong)}")
    return {
        "setup_s": setup_s,
        "ops_per_s": attempted / busy,
        "op_p50_ms": quantile(out.times, 0.5) * 1000,
        "op_tail_ms": quantile(out.times, tail_q / 100) * 1000,
        "peak_rss_mb": out.rss_mb,
    }


def traced(sb, workload: str, seed: int) -> tuple[Outcome, dict[str, float]]:
    """One fixed share of the workload untraced, then the same share traced."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    if workload == "algebra_cold":
        plain = algebra_child(seed, 0)
        res = algebra_child(seed, 1, spans_path)
        layers = res["layers"]
        out = Outcome(res["times"], res["failed"], res["wrong"], res["rss_mb"])
        overhead = sum(res["times"]) / sum(plain["times"]) - 1
    else:
        make_group = sb.groups.make_group
        busy = []
        for tracer in (None, tracing.Tracer(Clock())):
            tracing.clear_caches()
            log = OpLog(tracer)
            if tracer is not None:
                tracer.install()
            try:
                if workload == "witness_sweep":
                    sweep_pass(sb, sweep_records(sb), random.Random(seed), log)
                else:
                    stream = queries.stream(seed)
                    for _ in range(MIN_QUERY_BLOCKS):
                        query_block(sb, next(stream), log)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            out = finish(log)
            busy.append(sum(out.times))
        layers = tracing.layer_metrics(tracer.spans, make_group.cache_info())
        tracer.write(spans_path)
        overhead = busy[1] / busy[0] - 1
    layers["trace.overhead_ratio"] = overhead
    print(f"{workload}: tracing overhead {overhead:.3f} of the untraced op time; "
          f"{layers['trace.spans']} spans in {spans_path.relative_to(engine.ROOT)}")
    return out, layers


def run_workload(sb, workload: str, seed: int, seconds: float, trace: int):
    """One workload's outcome and its metrics by name, printed as it ends."""
    if trace:
        out, values = traced(sb, workload, seed)
    else:
        setup_s = setup_seconds()
        if workload == "witness_sweep":
            out = witness_sweep(sb, seed, seconds)
        elif workload == "query_mix":
            out = query_mix(sb, seed, seconds)
        else:
            out = algebra_cold(seed, seconds)
        values = end_to_end(workload, out, setup_s)
    units = engine.units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    for line in out.wrong:
        print(f"WRONG {workload}: {line}")
    return out, metrics


def run_all(args) -> int:
    """Every workload in a child interpreter of its own; one combined result."""
    metrics: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"perfbench: {w} printed no result (exit {done.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        metrics.update({f"{w}.{name}": m for name, m in res["metrics"].items()})
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="spherebraid benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sb = engine.load()
    if args.workload == "all":
        return run_all(args)
    out, metrics = run_workload(sb, args.workload, args.seed, args.seconds, args.trace)
    correct = not out.wrong
    print(json.dumps({"correct": correct, "attempted": len(out.times),
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Fix string hashing so that set iteration order, and with it every
    # traced count, repeats from run to run; exec keeps the same process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
