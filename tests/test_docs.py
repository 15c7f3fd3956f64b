"""The README's examples run as written.

Every ``spherebraid`` command line in a ``sh`` block runs through
``python -m spherebraid`` and must exit 0; a trailing ``# -> text`` comment
names text the output must contain.  The ``python`` blocks run in order in
one namespace; a bare expression with a trailing comment must evaluate to
what the comment shows, or raise the exception it names.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from spherebraid import oracle

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("spherebraid ")]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_has_examples():
    assert len(COMMANDS) >= 12 and len(SNIPPETS) == 2
    assert any(line.startswith("spherebraid group out Q8") for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_example(line):
    command, _, expected = line.partition("# ->")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(f"{shlex.quote(sys.executable)} -m {command}", shell=True,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected.strip() in proc.stdout


def test_library_examples():
    namespace: dict = {}
    for source in SNIPPETS:
        lines = source.splitlines()
        for node in ast.parse(source).body:
            code = ast.get_source_segment(source, node)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            if not (isinstance(node, ast.Expr) and comment):
                exec(code, namespace)
            elif comment.endswith("Error"):
                with pytest.raises(getattr(oracle, comment)):
                    eval(code, namespace)
            else:
                assert repr(eval(code, namespace)) == comment, code
