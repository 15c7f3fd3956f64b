"""Traced runs: spans around every public function of the engine's layers.

The tracer patches, from outside the package, each public module-level
function of ``words``, ``oracle``, ``groups``, ``amalgams``, ``classifier``
and ``suites`` (plus ``BraidWord.__pow__``), together with every binding of
the same function imported by name into another module, such as
``oracle.forget_strands`` or ``amalgams.todd_coxeter``.  Each call records a
span ``(name, start, end, parent, op, note, paused)`` in memory; ``note``
holds the few facts a per-layer counter needs (a result size, whether a
check refuted), or the exception class name when the call raised, and
``paused`` is the time the benchmark's calibration kernel ran inside the span
(see ``clock.py``).  Spans are written out once, when the run ends.

A span's duration is ``end - start - paused``.  Its self time is its duration
minus the part covered by its child spans; calls nest within one thread, so
that part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from engine import LAYERS

WITNESS_NS = range(4, 13)

# Per-layer metric -> the end-to-end metric and workload it should move.
# Units and better-directions are in BENCHMARK.json's ``per_layer``, which
# must name the same metrics.  Every traced run reports all of them; a layer
# the workload never calls reads 0.
PER_LAYER: dict[str, str] = {}


def _moves(names, moves):
    for name in names:
        PER_LAYER[name] = moves


_moves(["words.parse_braid.calls", "words.parse_braid.self_s"], "op_p50_ms on query_mix")
_moves(["words.pow.calls", "words.pow.letters_out", "words.pow.self_s"],
       "op_tail_ms on query_mix")
_moves(["words.permutation.calls", "words.permutation.self_s"], "op_p50_ms on query_mix")
_moves(["words.forget_strands.calls", "words.forget_strands.letters_in",
        "words.forget_strands.self_s"], "ops_per_s on witness_sweep")
_moves(["oracle.central_value.calls_top", "oracle.central_value.calls_nested",
        "oracle.central_value.self_s", "oracle.central_value.fanout",
        "oracle.projection_refute_ratio"], "ops_per_s on witness_sweep")
_moves(["oracle.artin_action.calls", "oracle.artin_action.image_letters",
        "oracle.artin_action.budget_errors", "oracle.artin_action.self_s"],
       "op_tail_ms, failed_share and peak_rss_mb on query_mix")
_moves(["oracle.exact_check_ratio"], "op_p50_ms on query_mix")
for _f in ("is_inner", "equals", "order_of", "verify_finite_subgroup"):
    _moves([f"oracle.{_f}.calls", f"oracle.{_f}.self_s"],
           "ops_per_s on witness_sweep and query_mix")
_moves(["oracle.is_inner.inner_ratio"], "ops_per_s on witness_sweep and query_mix")
_moves(["groups.todd_coxeter.calls", "groups.todd_coxeter.cosets_out",
        "groups.todd_coxeter.self_s"], "setup_s and ops_per_s on algebra_cold")
_moves(["groups.make_group.hit_ratio"], "ops_per_s on algebra_cold and witness_sweep")
_moves([f"groups.{f}.self_s" for f in ("subgroups", "automorphisms", "outer_group", "is_isomorphic")],
       "op_tail_ms on algebra_cold")
_moves([f"amalgams.{f}.self_s" for f in ("distinguish_k1_k2", "amalgam_iso", "to_semidirect")]
       + ["classifier.enumerate_all.self_s", "classifier.enumerate_vtilde.self_s",
          "suites.run_suite.self_s"], "ops_per_s on algebra_cold")
_moves(["classifier.witness.calls", "classifier.witness.checks", "classifier.witness.self_s"]
       + [f"classifier.witness.s.n{n}" for n in WITNESS_NS], "ops_per_s on witness_sweep")
_moves(["trace.spans", "trace.overhead_ratio"], "tracing cost of every workload")


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _image_letters(args, result):
    return sum(len(img) for img in result.images)


def _is_not_none(args, result):
    return result is not None


def _result(args, result):
    return result


def _table_order(args, result):
    return result.order


def _witness_note(args, result):
    return (args[0].n, len(result.transcript))


# What each span's note records, by span name.
NOTES = {
    "words.pow": _len_result,
    "words.forget_strands": _len_first_arg,
    "oracle.artin_action": _image_letters,
    "oracle.is_inner": _is_not_none,
    "oracle.central_value": _result,
    "groups.todd_coxeter": _table_order,
    "classifier.witness": _witness_note,
}


class Tracer:
    """Spans for one traced run; ``op`` is the id of the op in progress."""

    def __init__(self, clock) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self.clock = clock
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        note_of = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            paused = clock.kernel_total
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, perf_counter(), parent, self.op, type(exc).__name__,
                              clock.kernel_total - paused)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op,
                          note_of(args, result) if note_of else None, clock.kernel_total - paused)
            return result

        return traced

    def install(self) -> None:
        """Patch every public function of the layers, and its by-name imports."""
        mods = {m: importlib.import_module(f"spherebraid.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        pkg = importlib.import_module("spherebraid")
        for mod in (*mods.values(), pkg):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        word_cls = mods["words"].BraidWord
        self._undo.append((word_cls, "__pow__", word_cls.__pow__))
        word_cls.__pow__ = self._wrap("words.pow", word_cls.__pow__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\tnote\tpaused\n")
            for i, (name, start, end, parent, op, note, paused) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{note}\t"
                         f"{paused:.9f}\n")


def clear_caches() -> None:
    """Empty every ``functools.lru_cache`` of the package, for a cold start in-process."""
    for m in LAYERS:
        for obj in vars(importlib.import_module(f"spherebraid.{m}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def layer_metrics(spans: list[tuple], make_group_info) -> dict[str, float]:
    """Every per-layer metric in ``PER_LAYER`` from one traced run's spans.

    ``make_group_info`` is ``make_group.cache_info()`` at the end of the run,
    the caches having been cleared at its start.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _op, _note, paused in spans:
        if parent >= 0:
            child_s[parent] += end - start - paused
    for i, (name, start, end, _parent, _op, _note, paused) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - paused - child_s[i]

    def notes(name):
        return [s[5] for s in spans if s[0] == name]

    cv_top = cv_nested = refuted = 0
    for name, _s, _e, parent, _op, note, _paused in spans:
        if name != "oracle.central_value":
            continue
        p = parent
        while p >= 0 and spans[p][0] != "oracle.central_value":
            p = spans[p][3]
        if p < 0:
            cv_top += 1
        else:
            cv_nested += 1
            refuted += note is None
    artin = notes("oracle.artin_action")
    inner = notes("oracle.is_inner")
    witness_s = defaultdict(float)
    checks = 0
    for name, start, end, _p, _op, note, paused in spans:
        if name == "classifier.witness" and isinstance(note, tuple):
            witness_s[note[0]] += end - start - paused
            checks += note[1]
    lookups = make_group_info.hits + make_group_info.misses

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[layer]
        elif field == "self_s":
            out[name] = self_s[layer]
    out.update({
        "words.pow.letters_out": sum(notes("words.pow")),
        "words.forget_strands.letters_in": sum(notes("words.forget_strands")),
        "oracle.central_value.calls_top": cv_top,
        "oracle.central_value.calls_nested": cv_nested,
        "oracle.central_value.fanout": ratio(cv_nested, cv_top),
        "oracle.projection_refute_ratio": ratio(refuted, cv_nested),
        "oracle.artin_action.image_letters": sum(n for n in artin if isinstance(n, int)),
        "oracle.artin_action.budget_errors": artin.count("OracleBudgetError"),
        "oracle.exact_check_ratio": ratio(len(artin), cv_top),
        "oracle.is_inner.inner_ratio": ratio(inner.count(True), len(inner)),
        "groups.todd_coxeter.cosets_out": sum(n for n in notes("groups.todd_coxeter")
                                              if isinstance(n, int)),
        "groups.make_group.hit_ratio": ratio(make_group_info.hits, lookups),
        "classifier.witness.checks": checks,
        "trace.spans": len(spans),
    })
    for n in WITNESS_NS:
        out[f"classifier.witness.s.n{n}"] = witness_s[n]
    return out
