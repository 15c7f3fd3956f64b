"""Load the engine from the checkout the benchmark lives in, and nothing else."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("words", "oracle", "groups", "amalgams", "classifier", "suites")


def load():
    """Import ``spherebraid`` and its layers from ``<checkout>/src``.

    Exits nonzero, printing no result, when the source is not there.
    """
    pkg_dir = SRC / "spherebraid"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source at {pkg_dir}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("spherebraid")
    if Path(pkg.__file__).resolve().parent != pkg_dir:
        sys.exit(f"perfbench: imported spherebraid from {pkg.__file__}, not from {pkg_dir}")
    for layer in LAYERS:
        importlib.import_module(f"spherebraid.{layer}")
    return pkg


def units() -> dict[str, str]:
    """Every metric's unit, by name, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
