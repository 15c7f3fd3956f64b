"""Checks of the benchmark's own parts.

    python3 -m pytest perfbench/test_perfbench.py

The query generator is checked without the oracle: each query's element
must have the permutation cycle type and the exponent sum mod 2(n-1) that
its construction promises.
"""

import json
import random
from types import SimpleNamespace

import pytest

import compare
from clock import Clock
import engine
import queries
import tracing

sb = engine.load()
words = sb.words


def _element(q: queries.Query):
    w = words.parse_braid(q.text, q.n)
    if q.op == "equals":
        w = w * words.parse_braid(q.text2, q.n).inv()
    return w


@pytest.mark.parametrize("seed", range(4))
def test_queries_match_their_construction(seed):
    rng = random.Random(seed)
    for _ in range(3):
        for q in queries.block(rng):
            w = _element(q)
            cycle_type = tuple(sorted(len(c) for c in words.permutation(w).cycles()))
            assert cycle_type == tuple(sorted(q.cycle_type)), q
            assert words.abelianize(w).value == q.expsum, q


def test_disguised_trivial_words_are_pure_with_zero_exponent_sum():
    rng = random.Random(7)
    trivial = [q for _ in range(4) for q in queries.block(rng) if q.cls == "trivial"]
    assert trivial
    for q in trivial:
        w = _element(q)
        assert words.permutation(w).is_identity(), q
        assert words.abelianize(w).is_zero(), q
        assert q.answer is True


def test_blocks_have_fixed_composition_and_repeat_per_seed():
    a, b = queries.stream(3), queries.stream(3)
    for _ in range(2):
        block = next(a)
        assert block == next(b)
        assert len(block) == queries.BLOCK
        overflow = [q for q in block if q.cls.startswith("hard") and q.text.count("1 -2") >= 14]
        assert len(overflow) == 2


def _layers(spans):
    return tracing.layer_metrics(spans, SimpleNamespace(hits=3, misses=1))


def test_self_time_is_duration_minus_children():
    # (name, start, end, parent, op, note, paused); 0.5 s of calibration
    # kernel ran inside the first central_value call, outside its child.
    spans = [
        ("oracle.equals", 0.0, 10.0, -1, 0, None, 0.5),
        ("oracle.central_value", 1.0, 4.0, 0, 0, 2, 0.5),
        ("oracle.central_value", 2.0, 3.0, 1, 0, None, 0.0),
        ("oracle.artin_action", 5.0, 6.0, 0, 0, 7, 0.0),
    ]
    m = _layers(spans)
    assert m["oracle.equals.self_s"] == pytest.approx(6.0)
    assert m["oracle.central_value.self_s"] == pytest.approx(2.5)
    assert m["oracle.central_value.calls_top"] == 1
    assert m["oracle.central_value.calls_nested"] == 1
    assert m["oracle.projection_refute_ratio"] == 1.0
    assert m["oracle.artin_action.image_letters"] == 7
    assert m["groups.make_group.hit_ratio"] == 0.75
    assert set(m) == set(tracing.PER_LAYER) - {"trace.overhead_ratio"}


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((engine.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def _traced_central_value():
    # A long pure word on 5 strands: central_value projects it onto all five
    # 4-strand subsets before the exact check.
    tracer = tracing.Tracer(Clock())
    tracer.install()
    try:
        value = sb.oracle.central_value(words.full_twist(5) ** 4)
    finally:
        tracer.uninstall()
    return value, _layers(tracer.spans)


def test_tracer_patches_by_name_imports_and_restores_them():
    original = (sb.oracle.central_value, sb.oracle.forget_strands, words.BraidWord.__pow__)
    value, m = _traced_central_value()
    assert value == 0
    assert m["oracle.central_value.calls_top"] == 1
    assert m["oracle.central_value.calls_nested"] == 5
    # Through oracle's own binding: five 4-strand projections, then one
    # 3-strand projection inside each (even n) nested exact check.
    assert m["words.forget_strands.calls"] == 10
    assert m["words.pow.calls"] >= 1
    assert (sb.oracle.central_value, sb.oracle.forget_strands,
            words.BraidWord.__pow__) == original


def test_traced_counts_repeat():
    counts = [{k: v for k, v in _traced_central_value()[1].items() if not k.endswith("_s")}
              for _ in range(2)]
    assert counts[0] == counts[1]


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [p - 20 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, claimed=True) == "gain"
    assert compare.verdict(parent, parent, "lower", 0.1, claimed=True) == "claim not met"
    assert compare.verdict(parent, faster, "lower", 0.1) == "better"
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, [p * 1.01 for p in parent], "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse"
