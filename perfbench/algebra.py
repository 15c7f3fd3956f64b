"""One cold run of the ``algebra_cold`` workload, in a fresh interpreter.

Run by ``run.py`` once per repetition, so every ``lru_cache`` of the engine
starts empty, as it does for each command-line invocation:

    python3 perfbench/algebra.py --seed N --trace 0|1 [--spans PATH]

Prints one JSON object: per-task times, the labels of wrong answers, the
count of tasks that raised a budget error, this process's peak RSS and, when
traced, the per-layer metrics.  Every task's answer is a known group order,
subgroup count, outer-automorphism order, isomorphism verdict or a suite's
hand-written expectation; none is read from the engine.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from math import gcd
from pathlib import Path

import engine
from clock import Clock, OpLog

sb = engine.load()
groups, amalgams, classifier, suites = sb.groups, sb.amalgams, sb.classifier, sb.suites


def _phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _tau(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def _sigma(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def _order(kind, param=None):
    return lambda: groups.make_group(kind, param).order


def _subgroup_count(kind, param=None):
    return lambda: len(groups.subgroups(groups.make_group(kind, param)))


def _out_order(kind, param=None):
    return lambda: groups.outer_group(groups.make_group(kind, param)).order


def _aut_order(kind):
    return lambda: groups.automorphisms(groups.make_group(kind)).order


def _dic_vs_dih(m):
    return lambda: groups.is_isomorphic(groups.make_group("dicyclic", m),
                                        groups.make_group("dihedral", 2 * m))


def _dic_mod_center(m):
    def run():
        G = groups.make_group("dicyclic", m)
        return groups.is_isomorphic(groups.quotient(G, groups.center(G)),
                                    groups.make_group("dihedral", m))
    return run


def _suite(name):
    return lambda: suites.run_suite(name).passed


def _classification(n):
    # Criterion 8: the braid-group table projects onto the mapping-class
    # table; for odd n every class is realized and matches the theorem.
    def run():
        recs = classifier.enumerate_all(n)
        ok = {classifier.project_to_mcg(r).key for r in recs} == {
            r.key for r in classifier.enumerate_vtilde(n)}
        if n % 2 == 1:
            got = {("I", r.factor, r.action) if r.kind == "I"
                   else ("II", *r.factors, r.amalgamated, r.gluing) for r in recs}
            ok = ok and all(r.status == "realized" for r in recs)
            ok = ok and got == suites._expected_mainodd(n)
        return ok
    return run


# Known subgroup counts: a binary polyhedral group has one subgroup over each
# subgroup of its rotation group (all contain -1) plus the odd-order ones.
POLYHEDRAL = {
    # kind: (order, subgroups, |Aut|, |Out|)
    "T*": (24, 15, 24, 2),
    "O*": (48, 35, 48, 2),
    "I*": (120, 76, 120, 2),
    "A4": (12, 10, 24, 2),
    "S4": (24, 30, 24, 1),
    "A5": (60, 59, 120, 2),
}
DIC_M = range(2, 13)  # dicyclic groups of order 4m <= 48
DIH_M = range(2, 25)  # dihedral groups of order 2m <= 48


def phases() -> list[list[list[tuple[str, object, object]]]]:
    """The task list: phases of units of (label, thunk, expected answer).

    A unit holds the tasks on one group, in a fixed order, so that the same
    task pays for the group's cached tables whatever the seed.
    """
    catalog = [[("make sphere3", lambda: groups.sphere_three_strand_table().order, 12)]]
    catalog += [[(f"make {k}", _order(k), v[0])] for k, v in POLYHEDRAL.items()]
    catalog += [[(f"make Dic{4 * m}", _order("dicyclic", m), 4 * m)] for m in DIC_M]
    catalog += [[(f"make Dih{2 * m}", _order("dihedral", m), 2 * m)] for m in DIH_M]
    families = [[
        (f"subgroups Dic{4 * m}", _subgroup_count("dicyclic", m), _tau(2 * m) + _sigma(m)),
        (f"out Dic{4 * m}", _out_order("dicyclic", m), 6 if m == 2 else _phi(2 * m)),
        (f"iso Dic{4 * m} Dih{4 * m}", _dic_vs_dih(m), False),
        (f"iso Dic{4 * m}/Z Dih{2 * m}", _dic_mod_center(m), True),
    ] for m in DIC_M]
    for m in DIH_M:
        center = 2 if m % 2 == 0 else 1
        families.append([
            (f"subgroups Dih{2 * m}", _subgroup_count("dihedral", m), _tau(m) + _sigma(m)),
            (f"out Dih{2 * m}", _out_order("dihedral", m),
             6 if m == 2 else _phi(m) * center // 2),
        ])
    tail = [[("out Dic64", _out_order("dicyclic", 16), 16)],
            [("out Dih64", _out_order("dihedral", 32), 16)]]
    polyhedral = [[(f"subgroups {k}", _subgroup_count(k), subs),
                   (f"aut {k}", _aut_order(k), aut),
                   (f"out {k}", _out_order(k), out)]
                  for k, (_, subs, aut, out) in POLYHEDRAL.items()]
    k1k2 = [[("distinguish quaternion", lambda: amalgams.distinguish_k1_k2().ok, True)],
            [("distinguish dihedral", lambda: amalgams.distinguish_k1_k2(dihedral=True).ok,
              True)]]
    suite = [[(f"suite {s}", _suite(s), True)] for s in ("finite_lattices", "autout", "amalgams")]
    enum = [[(f"classify n={n}", _classification(n), True)] for n in range(4, 201)]
    return [catalog, families, tail, polyhedral, k1k2, suite, enum]


def tasks(seed: int) -> list[tuple[str, object, object]]:
    """Phases in order; the seed shuffles the units within each phase."""
    rng = random.Random(seed)
    out = []
    for phase in phases():
        rng.shuffle(phase)
        for unit in phase:
            out += unit
    return out


def run(seed: int, tracer=None) -> dict:
    log = OpLog(tracer)
    for label, thunk, expected in tasks(seed):
        try:
            got = log.run(thunk)
        except (groups.CosetBudgetError, groups.SubgroupBudgetError):
            log.failed += 1
            continue
        if got != expected:
            log.wrong.append(f"{label}: got {got!r}, expected {expected!r}")
    return {"times": log.times(), "failed": log.failed, "wrong": log.wrong}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    if args.trace:
        import tracing

        tracer = tracing.Tracer(Clock())
        make_group = groups.make_group
        tracer.install()
        try:
            out = run(args.seed, tracer)
        finally:
            tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer.spans, make_group.cache_info())
        if args.spans:
            tracer.write(args.spans)
    else:
        out = run(args.seed)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
