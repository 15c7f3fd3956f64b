import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spherebraid.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_csv_is_json_row(capsys, *argv):
    """The CSV form of a command without a table is a header and one row
    holding its JSON payload's fields, nested values as compact JSON."""
    _, out = run(capsys, "--format", "csv", *argv)
    _, jout = run(capsys, "--format", "json", *argv)
    assert len(out.splitlines()) == 2
    (row,) = csv.DictReader(out.splitlines())
    payload = json.loads(jout)
    assert set(row) == set(payload)
    for key, value in payload.items():
        if isinstance(value, (list, dict)):
            assert row[key] == json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            assert row[key] == str(value)


class TestQueries:
    def test_order_text(self, capsys):
        code, out = run(capsys, "order", "--n", "6", "--word", "a0")
        assert code == 0 and out.strip() == "order: 12"

    def test_order_of_an_integer_run(self, capsys):
        code, out = run(capsys, "order", "--n", "10", "--word", "1 2 3 4 5 6 7 8 9")
        assert code == 0 and out.strip() == "order: 20"

    def test_order_infinite_json(self, capsys):
        code, out = run(capsys, "--format", "json", "order", "--n", "4", "--word", "1 1")
        assert code == 0 and json.loads(out)["order"] == "infinite"

    def test_equal(self, capsys):
        code, out = run(capsys, "equal", "--n", "6", "FT", "a0^6")
        assert code == 0 and "True" in out

    def test_central(self, capsys):
        code, out = run(capsys, "central", "--n", "8", "--word", "FT")
        assert code == 0 and "full twist" in out

    @pytest.mark.parametrize("argv", [["order", "--n", "6", "--word", "a0"],
                                      ["equal", "--n", "6", "FT", "a0^6"],
                                      ["central", "--n", "8", "--word", "FT"]])
    def test_csv_one_row(self, capsys, argv):
        assert_csv_is_json_row(capsys, *argv)

    def test_csv_order_text(self, capsys):
        code, out = run(capsys, "--format", "csv", "order", "--n", "6", "--word", "a0")
        assert code == 0 and out.splitlines() == ["n,word,order", "6,1 2 3 4 5,12"]


def child_env() -> dict:
    """The environment of a child that imports the checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run_child(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m spherebraid`` in a child process, its output as bytes."""
    return subprocess.run([sys.executable, "-m", "spherebraid", *argv],
                          env=child_env(), stdout=stdout, stderr=subprocess.PIPE, timeout=120)


class TestCsvBytes:
    """Every CSV row, the last one too, ends in CRLF (the csv module's
    terminator); nothing else is appended."""

    def test_order(self):
        proc = run_child("--format", "csv", "order", "--n", "6", "--word", "a0")
        assert proc.returncode == 0 and proc.stdout == b"n,word,order\r\n6,1 2 3 4 5,12\r\n"

    def test_verify(self):
        ids = ["three-strand-group-order-12",
               *(f"dicyclic-{4 * m}-order" for m in range(2, 11)),
               "quaternion-16-order", "binary-tetrahedral-order-24",
               "binary-octahedral-order-48", "binary-icosahedral-order-120"]
        expected = "".join(f"{row}\r\n" for row in ["id,passed", *(f"{i},True" for i in ids)])
        proc = run_child("--format", "csv", "verify", "--suite", "presentation")
        assert proc.returncode == 0 and proc.stdout == expected.encode()


class TestClosedStdout:
    def test_closed_pipe_exits_1_in_silence(self):
        # The reader of stdout is gone before the first write, as after
        # `spherebraid classify --n 10000 | head -1`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_child("classify", "--n", "8", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == b""


class TestLargeN:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="the peak resident set is read from /proc")
    def test_short_word_memory_follows_the_word(self):
        # The linking class reads only the strands the word moves, so a
        # four-letter word at n = 4000 keeps no (n + 1)^2 matrix (about
        # 140 MB).  The child reads the peak of its own address space,
        # VmHWM: on Linux RUSAGE_CHILDREN keeps the largest peak of every
        # earlier child, and even RUSAGE_SELF carries the test process's
        # peak over the exec.
        code = ("from spherebraid import cli\n"
                "cli.main(['equal', '--n', '4000', '1 1 2 2', '2 2 1 1'])\n"
                "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
                "print(status.split()[0])\n")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        answer, peak_kb = proc.stdout.splitlines()
        assert proc.returncode == 0 and answer == "equal: False"
        assert int(peak_kb) < 50_000


class TestClassify:
    def test_text_lists_records(self, capsys):
        code, out = run(capsys, "classify", "--n", "5")
        assert code == 0
        assert "Z4 x Z" in out and "Z8 *_{Z4} Z8" in out

    def test_status_filter(self, capsys):
        code, out = run(capsys, "--format", "json", "classify", "--n", "4",
                        "--status", "not_realized")
        recs = json.loads(out)["records"]
        assert [r["shape"] for r in recs] == ["T* x Z"]

    def test_mcg_flag(self, capsys):
        code, out = run(capsys, "--format", "json", "classify", "--n", "6", "--mcg")
        shapes = {r["shape"] for r in json.loads(out)["records"]}
        assert "S4 *_{A4} S4" in shapes

    def test_json_schema_fields(self, capsys):
        _, out = run(capsys, "--format", "json", "classify", "--n", "4")
        rec = json.loads(out)["records"][0]
        assert set(rec) == {"kind", "shape", "params", "admissible_i", "status", "status_ref"}

    def test_json_deterministic(self, capsys):
        _, out1 = run(capsys, "--format", "json", "classify", "--n", "8")
        _, out2 = run(capsys, "--format", "json", "classify", "--n", "8")
        assert out1 == out2

    def test_csv_row_count(self, capsys):
        _, out = run(capsys, "--format", "csv", "classify", "--n", "5")
        from spherebraid.classifier import enumerate_all

        assert len(out.strip().splitlines()) == len(enumerate_all(5)) + 1

    @pytest.mark.parametrize("argv", [["--status", "open"], ["--mcg", "--status", "not_realized"]])
    def test_csv_empty_table_prints_its_header(self, capsys, argv):
        code, out = run(capsys, "--format", "csv", "classify", "--n", "5", *argv)
        assert code == 0 and out.splitlines() == ["kind,shape,admissible_i,status,status_ref"]


class TestWitnessCommand:
    def test_witness_json(self, capsys):
        code, out = run(capsys, "--format", "json", "witness", "--n", "6",
                        "--class", "Dic12 x Z")
        payload = json.loads(out)
        assert code == 0 and payload["witness"]["passed"]
        assert set(payload) == {"kind", "shape", "params", "admissible_i",
                                "status", "status_ref", "witness"}
        wit = payload["witness"]
        assert all(c["passed"] for c in wit["certificates"])
        assert {g["role"] for g in wit["generators"]} == {"finite-x", "finite-y", "axis"}

    def test_json_round_trip(self, capsys):
        _, out = run(capsys, "--format", "json", "classify", "--n", "6")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True, indent=2)) == payload

    def test_witness_unavailable_exit_code(self, capsys):
        code, out = run(capsys, "--format", "json", "witness", "--n", "4",
                        "--class", "T* x Z")
        assert code == 1 and not json.loads(out)["available"]

    def test_witness_past_the_lattice_order(self, capsys):
        code, out = run(capsys, "witness", "--n", "52", "--class", "Dic208 *_{Dic104} Dic208")
        claims = [line for line in out.splitlines() if line.startswith("[")]
        assert code == 0
        assert len(claims) == 5 and all(line.startswith("[ok] ") for line in claims)

    def test_unknown_class(self, capsys):
        code = main(["witness", "--n", "4", "--class", "nonsense"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: no class with shape 'nonsense' at n=4\n"

    @pytest.mark.parametrize("argv", [["--n", "6", "--class", "Dic12 x Z"],
                                      ["--n", "4", "--class", "T* x Z"]])
    def test_csv_one_row(self, capsys, argv):
        assert_csv_is_json_row(capsys, "witness", *argv)


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out = run(capsys, "--format", "json", "verify", "--suite", "presentation")
        payload = json.loads(out)
        assert code == 0 and payload["passed"]

    def test_range_syntax(self, capsys):
        code, out = run(capsys, "--format", "json", "verify", "--suite", "torsion",
                        "--n", "4..5")
        payload = json.loads(out)
        assert code == 0 and payload["n_range"] == [4, 5]

    def test_csv_row_count_matches_checks(self, capsys):
        _, out = run(capsys, "--format", "csv", "verify", "--suite", "presentation")
        _, jout = run(capsys, "--format", "json", "verify", "--suite", "presentation")
        assert len(out.strip().splitlines()) == len(json.loads(jout)["checks"]) + 1

    def test_text_one_line_per_failure(self, capsys):
        _, out = run(capsys, "verify", "--suite", "presentation")
        assert "0 failed" in out and "FAIL" not in out

    @pytest.mark.parametrize("suite,n", [("propsomega", "3..3"), ("classifier_mainodd", "4..4")])
    def test_csv_empty_table_prints_its_header(self, capsys, suite, n):
        code, out = run(capsys, "--format", "csv", "verify", "--suite", suite, "--n", n)
        assert code == 0 and out.splitlines() == ["id,passed"]


class TestGroupCommand:
    def test_order(self, capsys):
        code, out = run(capsys, "group", "order", "I*")
        assert code == 0 and "120" in out

    def test_subgroup_dump_json(self, capsys):
        _, out = run(capsys, "--format", "json", "group", "subgroups", "T*")
        names = {row["name"] for row in json.loads(out)["subgroups"]}
        assert names == {"1", "Z2", "Z3", "Z4", "Z6", "Q8", "T*"}

    def test_aut_out(self, capsys):
        _, out = run(capsys, "--format", "json", "group", "out", "Q8")
        payload = json.loads(out)
        assert payload["order"] == 6 and payload["structure"] == "Dih6"

    def test_iso(self, capsys):
        code, out = run(capsys, "--format", "json", "group", "iso", "Q8", "Dic8")
        assert json.loads(out)["isomorphic"]

    def test_bad_tag(self, capsys):
        code = main(["group", "order", "wat"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: unknown group tag 'wat'\n"

    @pytest.mark.parametrize("tag,order", [("1", 1), ("Z2xZ2", 4), ("klein", 4), ("B3", 12)])
    def test_printed_names_are_tags(self, capsys, tag, order):
        code, out = run(capsys, "group", "order", tag)
        assert code == 0 and out == f"order: {order}\n"

    @pytest.mark.parametrize("tag", ["Z\u0663", "Z\u00b2"])
    def test_non_ascii_digits(self, capsys, tag):
        # An Arabic-Indic three and a superscript two are digits to
        # str.isdigit; neither is part of a tag.
        code = main(["group", "order", tag])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: unknown group tag {tag!r}\n"

    def test_iso_arity(self, capsys):
        code = main(["group", "iso", "Q8"])
        assert code == 2 and capsys.readouterr().err == "error: iso takes exactly two group tags\n"

    @pytest.mark.parametrize("argv", [["order", "O*"], ["aut", "Q8"], ["out", "Q8"],
                                      ["iso", "Q8", "Dic8"]])
    def test_csv_one_row(self, capsys, argv):
        assert_csv_is_json_row(capsys, "group", *argv)


class TestAmalgamCommand:
    def test_build(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "build", "--spec", "k1")
        payload = json.loads(out)
        assert payload["factor_order"] == 16 and payload["amalgamated_order"] == 8

    def test_mul_and_order(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "mul",
                        "--spec", "zz:1", "--elt", "1:x", "--elt", "2:x")
        payload = json.loads(out)
        assert payload["syllables"] == [1, 2]
        code, out = run(capsys, "--format", "json", "amalgam", "order",
                        "--spec", "zz:1", "--elt", "1:x,2:x")
        assert json.loads(out)["order"] == "infinite"
        # The exponent is reduced modulo the order of x; looping 10^12
        # times would not finish.
        code, out = run(capsys, "--format", "json", "amalgam", "order",
                        "--spec", "k1", "--elt", "1:x^1000000000000")
        assert code == 0 and json.loads(out)["order"] == 1

    def test_semidirect(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "semidirect",
                        "--spec", "dicz:3")
        assert code == 0 and json.loads(out)["semidirect"]

    @pytest.mark.parametrize("q", (42, 50))
    def test_semidirect_past_the_aut_table_budget(self, capsys, q):
        # |Aut(Dic_4q)| = 2q phi(2q) passes the 2,000-element table budget
        # (2,016 and 4,000); the extension is found without that table.
        code, out = run(capsys, "amalgam", "semidirect", "--spec", f"dicz:{q}")
        assert code == 0
        assert out == (
            f"semidirect: {{'semidirect': True, 'inverting_elements': {2 * q}, "
            f"'centralizing_elements': {2 * q}}}\n"
        )

    def test_k2_no_semidirect(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "semidirect",
                        "--spec", "k2")
        assert code == 1 and not json.loads(out)["semidirect"]

    def test_report(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "k1k2-report")
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("spec,message", [
        ("dicdic:3", "dicdic gluing needs an even parameter"),
        ("dicdih:4", "unknown amalgam tag 'dicdih:4'"),
        ("zz", "unknown amalgam tag 'zz' (use k1, k2, k1p, k2p, zz:q, dicz:q, dicdic:q)"),
        ("zz:\u0662", "unknown amalgam tag 'zz:\u0662' (use k1, k2, k1p, k2p, zz:q, dicz:q, dicdic:q)"),
    ])
    def test_bad_spec_tags(self, capsys, spec, message):
        code = main(["amalgam", "build", "--spec", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("elt,message", [
        ("2:y", "bad generator letter 'y' in '2:y' (factor 2 takes x)"),
        ("3:x", "bad factor '3' in '3:x' (use 1 or 2)"),
        ("1:x^", "bad exponent '' in '1:x^'"),
        ("1:x^-", "bad exponent '-' in '1:x^-'"),
        ("1:x^1-2", "bad exponent '1-2' in '1:x^1-2'"),
        ("1:x^\u0663", "bad exponent '' in '1:x^\u0663'"),
    ])
    def test_bad_elements(self, elt, message):
        # A clean exit: the message on stderr, exit code 2, no traceback.
        proc = run_child("amalgam", "mul", "--spec", "zz:3", "--elt", "1:x,2:x", "--elt", elt)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n".encode()

    @pytest.mark.parametrize("argv,message", [
        (["mul", "--spec", "zz:1", "--elt", "1:x"], "mul takes at least two element expressions"),
        (["order", "--spec", "zz:1"], "order takes exactly one element expression"),
    ])
    def test_arity(self, capsys, argv, message):
        code = main(["amalgam", *argv])
        assert code == 2 and capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["build", "--spec", "k1"],
        ["mul", "--spec", "zz:1", "--elt", "1:x", "--elt", "2:x"],
        ["order", "--spec", "k1", "--elt", "1:x"],
        ["semidirect", "--spec", "dicz:3"],
        ["semidirect", "--spec", "k2"],
        ["k1k2-report"],
    ])
    def test_csv_one_row(self, capsys, argv):
        assert_csv_is_json_row(capsys, "amalgam", *argv)

    def test_build_dicdic(self, capsys):
        code, out = run(capsys, "--format", "json", "amalgam", "build", "--spec", "dicdic:4")
        payload = json.loads(out)
        assert payload["factor_order"] == 16 and payload["amalgamated_order"] == 8


class TestErrorHandling:
    def test_word_error_clean_exit(self, capsys):
        code = main(["order", "--n", "4", "--word", "9"])
        err = capsys.readouterr().err
        assert code == 2 and "error:" in err

    def test_bad_atom_argument_clean_exit(self, capsys):
        code = main(["order", "--n", "4", "--word", "A(1 2)"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: bad argument '1 2' to A at position 2\n"

    @pytest.mark.parametrize("text,message", [
        ("1 *", "dangling '*' at position 2"),
        ("D^99999999", "word passes 2,000,000 letters at position 0"),
        ("\u0661", "malformed token at '\u0661'"),
        ("( ", "unbalanced '(' at position 0"),
        ("1 " + "9" * 5000, "generator index at position 2 out of range for n=4"),
        ("a0^" + "9" * 5000, "word passes 2,000,000 letters at position 0"),
    ])
    def test_malformed_word_clean_exit(self, capsys, text, message):
        code = main(["order", "--n", "4", "--word", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_reversed_suite_range(self, capsys):
        code = main(["--format", "json", "verify", "--suite", "torsion", "--n", "6..4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: empty strand range 6..4")

    @pytest.mark.parametrize("suite", ["funda", "commalphaigen", "constq8", "realV2"])
    def test_suite_range_below_least_n(self, capsys, suite):
        code = main(["--format", "json", "verify", "--suite", suite, "--n", "3..5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: suite {suite} holds for n >= 4 only, not from n=3\n"

    @pytest.mark.parametrize("text", ["4..", "..5"])
    def test_open_ended_suite_range(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "torsion", "--n", text])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --n" in captured.err

    def test_non_ascii_suite_range(self, capsys):
        # int() reads Arabic-Indic digits; the range syntax takes ASCII only.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "torsion", "--n", "\u0664..\u0665"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --n" in captured.err

    def test_budget_error_clean_exit(self, capsys):
        # p FT p^-1 p^-1 FT p with p = (1 -2)^18 and p^-1 = (2 -1)^18:
        # trivial, and its free-group images would overflow the budget; the
        # exact stage needs none and decides it.
        p, q = " ".join(["1 -2"] * 18), " ".join(["2 -1"] * 18)
        code = main(["order", "--n", "4", "--word", f"{p} FT {q} {q} FT {p}"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == "order: 1\n"

    @pytest.mark.parametrize("action,tag", [("subgroups", "Z2001")])
    def test_group_budget_error_clean_exit(self, capsys, action, tag):
        code = main(["--format", "json", "group", action, tag])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: order 2001 exceeds table budget 2000\n"

    @pytest.mark.parametrize("action,tag,answer", [("out", "Dih400", "order: 80 (Z20 x Z2 x Z2)"),
                                                   ("aut", "Z250", "order: 100 (Z100)")],
                             ids=["out-Dih400", "aut-Z250"])
    def test_automorphisms_past_the_lattice_budget(self, capsys, action, tag, answer):
        code = main(["group", action, tag])
        assert code == 0 and capsys.readouterr().out == answer + "\n"

    def test_automorphism_table_budget_clean_exit(self, capsys):
        # |Aut(Dih118)| = 59 * 58 = 3422: the search stops once the cosets
        # of the 118 inner automorphisms found pass the budget, so no
        # 3422 x 3422 table is built.
        code = main(["group", "aut", "Dih118"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: order of the automorphism group exceeds "
                                "table budget 2000\n")

    @pytest.mark.parametrize("argv", [["out", "Q8", "wat"], ["order", "Z4", "Z8"],
                                      ["subgroups", "Q8", "Z4"], ["aut", "S4", "S4"]])
    def test_group_extra_tags(self, capsys, argv):
        code = main(["group", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {argv[0]} takes exactly one group tag\n"

    @pytest.mark.parametrize("action", ["build", "semidirect", "k1k2-report"])
    def test_amalgam_elements_where_none_are_read(self, capsys, action):
        code = main(["amalgam", action, "--spec", "k1", "--elt", "1:x"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {action} takes no element expressions\n"

    @pytest.mark.parametrize("argv", [["group", "order", "Z100000"],
                                      ["amalgam", "build", "--spec", "zz:600"]])
    def test_family_table_budget_clean_exit(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: order ") and "budget" in captured.err
