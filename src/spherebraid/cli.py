"""
Command-line front end: word-problem queries, finite-group inspection,
amalgam arithmetic, the classification tables, and the identity suites.

JSON is the machine contract (stable key order, no timing data, so
identical inputs render byte-identical output); CSV and text are for
eyeballs.  The exit code is 0 on success, 1 when a check failed, there is
nothing to show or the reader closed stdout early (with nothing on
stderr), and 2 on bad input or an exceeded budget, with ``error:`` and the
reason on stderr.  Group and amalgam tags are looked up by
``groups.named_group`` and ``amalgams.named_amalgam``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Any

from . import amalgams, classifier, groups, oracle, suites, words


def _render(payload: dict, fmt: str, text_lines: list[str],
            columns: tuple[str, ...] = ()) -> str:
    """JSON, CSV or text.  In CSV a payload with ``rows`` is a table under
    the header ``columns`` (by default the first row's keys), which an empty
    table still prints; a payload without is one row of its top-level
    fields."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        rows = payload["rows"] if "rows" in payload else [{
            key: json.dumps(value, sort_keys=True, separators=(",", ":"))
            if isinstance(value, (list, dict)) else value
            for key, value in payload.items()
        }]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns or list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    return "\n".join(text_lines)


def _record_payload(rec: classifier.VcClassRecord) -> dict[str, Any]:
    params: dict[str, Any] = {}
    if rec.kind == "I":
        params = {"factor": str(rec.factor), "action": rec.action}
    else:
        params = {
            "factors": [str(d) for d in rec.factors or ()],
            "amalgamated": str(rec.amalgamated),
        }
        if rec.gluing:
            params["gluing"] = rec.gluing
    return {
        "kind": rec.kind,
        "shape": rec.shape,
        "params": params,
        "admissible_i": list(rec.admissible_i),
        "status": rec.status,
        "status_ref": rec.status_ref,
    }


def _witness_payload(w: classifier.Witness) -> dict[str, Any]:
    payload = _record_payload(w.record)
    payload["witness"] = {
        "generators": [{"role": role, "word": str(word)} for role, word in w.generators],
        "certificates": [{"check": label, "passed": ok} for label, ok in w.transcript],
        "passed": w.ok,
    }
    return payload


def _parse_amalgam_element(spec: amalgams.AmalgamSpec, text: str) -> amalgams.AmalgamElement:
    """Element syntax: comma-separated ``k:genword`` factors, e.g. ``1:xy,2:x^2``."""
    out = spec.one
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        k_text, _, genword = token.partition(":")
        if k_text not in ("1", "2"):
            raise ValueError(f"bad factor {k_text!r} in {token!r} (use 1 or 2)")
        k = int(k_text)
        G = spec.factor(k)
        letters = "xy"[: len(G.generators)]
        g = G.identity
        idx = 0
        while idx < len(genword):
            ch = genword[idx]
            if ch not in letters:
                raise ValueError(
                    f"bad generator letter {ch!r} in {token!r} (factor {k} takes {' or '.join(letters)})"
                )
            gen = G.generators["xy".index(ch)]
            idx += 1
            exp = 1
            if idx < len(genword) and genword[idx] == "^":
                end = idx + 1
                while end < len(genword) and genword[end] in "-0123456789":
                    end += 1
                try:
                    exp = int(genword[idx + 1:end])
                except ValueError:
                    raise ValueError(
                        f"bad exponent {genword[idx + 1:end]!r} in {token!r}"
                    ) from None
                idx = end
            g = G.mul(g, G.pow(gen, exp))
        out = spec.mul(out, spec.embed(k, g))
    return out


def _parse_range(text: str) -> tuple[int, int]:
    if not text.isascii():  # int() reads every Unicode digit
        raise ValueError(text)
    lo, sep, hi = text.partition("..")
    return (int(lo), int(hi)) if sep else (int(lo), int(lo))


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the flush at exit does not fail again, and exit 1 in silence.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (words.WordError, groups.SubgroupBudgetError, groups.CosetBudgetError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherebraid",
        description="Word problem, finite subgroups, and the virtually cyclic "
        "classification for sphere braid groups.",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of a braid word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("equal", help="whether two words agree in the group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("central", help="whether a word is central")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("classify", help="virtually cyclic subgroup classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mcg", action="store_true", help="mapping class group classes")
    p.add_argument("--status", choices=("realized", "open", "not_realized", "all"), default="all")

    p = sub.add_parser("witness", help="generator words for a realized class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="shape", required=True, help="shape string, e.g. 'Z4 x Z'")

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=suites.SUITE_IDS)
    p.add_argument("--n", type=_parse_range, default=None, help="range a..b")

    p = sub.add_parser("group", help="finite group inspection")
    p.add_argument("action", choices=("order", "subgroups", "aut", "out", "iso"))
    p.add_argument("tags", nargs="+", help="group tags, e.g. Q16 Dic12 Z8 T* O* I*")

    p = sub.add_parser("amalgam", help="amalgamated product tools")
    p.add_argument("action", choices=("build", "mul", "order", "semidirect", "k1k2-report"))
    p.add_argument("--spec", default="k1", help="k1, k2, k1p, k2p, zz:q, dicz:q, dicdic:q")
    p.add_argument("--elt", dest="elements", action="append", default=[],
                   help="element expression like 1:xy,2:x^2 (repeatable)")

    args = parser.parse_args(argv)
    fmt = args.format

    if args.command == "order":
        w = words.parse_braid(args.word, args.n)
        result = oracle.order_of(w)
        value = result.value if result.is_finite else "infinite"
        print(_render({"n": args.n, "word": str(w), "order": value}, fmt,
                      [f"order: {value}"]))
        return 0

    if args.command == "equal":
        w1 = words.parse_braid(args.word1, args.n)
        w2 = words.parse_braid(args.word2, args.n)
        eq = oracle.equals(w1, w2)
        print(_render({"n": args.n, "equal": eq}, fmt, [f"equal: {eq}"]))
        return 0

    if args.command == "central":
        w = words.parse_braid(args.word, args.n)
        cv = oracle.central_value(w)
        desc = {0: "identity", 2: "full twist", None: "not central"}[cv]
        print(_render({"n": args.n, "central": cv is not None, "value": desc}, fmt,
                      [f"central: {desc}"]))
        return 0

    if args.command == "classify":
        recs = classifier.enumerate_vtilde(args.n) if args.mcg else classifier.enumerate_all(args.n)
        if args.status != "all":
            recs = tuple(r for r in recs if r.status == args.status)
        rows = [_record_payload(r) for r in recs]
        columns = ("kind", "shape", "admissible_i", "status", "status_ref")
        csv_rows = [
            {**{c: r[c] for c in columns}, "admissible_i": " ".join(map(str, r["admissible_i"]))}
            for r in rows
        ]
        lines = [f"{r['kind']:3s} {r['shape']:32s} i={r['admissible_i']} {r['status']}"
                 for r in rows]
        print(_render({"n": args.n, "mcg": args.mcg, "records": rows, "rows": csv_rows},
                      fmt, lines, columns))
        return 0

    if args.command == "witness":
        match = [r for r in classifier.enumerate_all(args.n) if r.shape == args.shape]
        if not match:
            raise ValueError(f"no class with shape {args.shape!r} at n={args.n}")
        try:
            w = classifier.witness(match[0])
        except classifier.WitnessUnavailable as exc:
            print(_render({"available": False, "reason": str(exc)}, fmt,
                          [f"unavailable: {exc}"]))
            return 1
        payload = _witness_payload(w)
        lines = [f"[{'ok' if ok else 'FAIL'}] {label}" for label, ok in w.transcript]
        lines += [f"{role}: {word}" for role, word in w.generators]
        print(_render(payload, fmt, lines))
        return 0 if w.ok else 1

    if args.command == "verify":
        res = suites.run_suite(args.suite, args.n)
        checks = [{"id": c.check_id, "passed": c.passed} for c in res.checks]
        payload = {
            "suite": res.suite,
            "n_range": list(res.n_range),
            "passed": res.passed,
            "checks": checks,
            "rows": checks,
        }
        good, bad = res.counts
        lines = [f"suite {res.suite} over n={res.n_range[0]}..{res.n_range[1]}: "
                 f"{good} passed, {bad} failed"]
        lines += [f"  FAIL {c.check_id}" for c in res.checks if not c.passed]
        print(_render(payload, fmt, lines, ("id", "passed")))
        return 0 if res.passed else 1

    if args.command == "group":
        if args.action == "iso":
            if len(args.tags) != 2:
                raise ValueError("iso takes exactly two group tags")
            g, h = map(groups.named_group, args.tags)
            ans = groups.is_isomorphic(g, h)
            print(_render({"isomorphic": ans}, fmt, [f"isomorphic: {ans}"]))
            return 0
        if len(args.tags) != 1:
            raise ValueError(f"{args.action} takes exactly one group tag")
        table = groups.named_group(args.tags[0])
        if args.action == "order":
            print(_render({"order": table.order}, fmt, [f"order: {table.order}"]))
            return 0
        if args.action in ("aut", "out"):
            out = groups.automorphisms(table) if args.action == "aut" else groups.outer_group(table)
            name = groups.structure_name(out)
            print(_render({"order": out.order, "structure": name}, fmt,
                          [f"order: {out.order} ({name})"]))
            return 0
        handles = groups.subgroups(table)
        rows = [{"order": h.order, "name": h.name, "normal": h.normal,
                 "unique_of_class": h.unique_of_class} for h in handles]
        lines = [f"{h.order:4d} {h.name:8s} normal={h.normal} unique={h.unique_of_class}"
                 for h in handles]
        print(_render({"subgroups": rows, "rows": rows}, fmt, lines))
        return 0

    # args.command == "amalgam"
    if args.elements and args.action not in ("mul", "order"):
        raise ValueError(f"{args.action} takes no element expressions")
    if args.action == "k1k2-report":
        rep = amalgams.distinguish_k1_k2()
        payload = {
            "twisted_has_cyclic_permuter": rep.k2_has_cyclic_permuter,
            "straight_signs_ok": rep.k1_conjugation_signs_ok,
            "straight_quotient": [rep.k1_quotient_order, rep.k1_quotient_name],
            "straight_semidirect": rep.k1_semidirect_ok,
            "straight_core_normalized": rep.k1_core_normalized_by_all,
            "twisted_has_no_extension": rep.k2_has_no_extension,
            "passed": rep.ok,
        }
        lines = [f"{k}: {v}" for k, v in payload.items()]
        print(_render(payload, fmt, lines))
        return 0 if rep.ok else 1
    spec = amalgams.named_amalgam(args.spec)
    if args.action == "build":
        payload = {
            "factor_order": spec.g1.order,
            "amalgamated_order": spec.f.order,
            "factor_names": [groups.structure_name(spec.g1), groups.structure_name(spec.g2)],
        }
        print(_render(payload, fmt, [f"{payload['factor_names'][0]} *_"
                                      f"{groups.structure_name(spec.f)} {payload['factor_names'][1]}"]))
        return 0
    if args.action == "semidirect":
        ext = amalgams.find_extension(spec)
        if ext is None:
            print(_render({"semidirect": False}, fmt,
                          ["no extension: the gluing is not a semidirect product over its factor"]))
            return 1
        form = amalgams.to_semidirect(spec, ext)
        payload = {"semidirect": True,
                   "inverting_elements": form.signs.count(-1),
                   "centralizing_elements": form.signs.count(1)}
        print(_render(payload, fmt, [f"semidirect: {payload}"]))
        return 0
    elems = [_parse_amalgam_element(spec, e) for e in args.elements]
    if args.action == "mul":
        if len(elems) < 2:
            raise ValueError("mul takes at least two element expressions")
        out = elems[0]
        for e in elems[1:]:
            out = spec.mul(out, e)
        payload = {"head": out.head, "syllables": list(out.syllables)}
        print(_render(payload, fmt, [f"head={out.head} syllables={out.syllables}"]))
        return 0
    # args.action == "order"
    if len(elems) != 1:
        raise ValueError("order takes exactly one element expression")
    result = spec.element_order(elems[0])
    value = result.value if result.is_finite else "infinite"
    print(_render({"order": value}, fmt, [f"order: {value}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
