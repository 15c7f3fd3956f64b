"""The public API: each name has one import path, its own module's.

Every layer's ``__all__`` lists exactly the public functions and classes it
defines, plus the constants named below; the package itself re-exports
nothing, so importing a few layers loads only those layers and what they
import.
"""

import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

LAYERS = ("words", "oracle", "groups", "amalgams", "classifier", "suites")
# Module-level constants and type aliases that a layer lists in __all__.
CONSTANTS = {"suites": {"SUITE_IDS"}}
SRC = Path(__file__).resolve().parent.parent / "src"


def _public_functions_and_classes(mod):
    out = set()
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, types.GenericAlias):
            continue
        # An lru_cache wrapper counts as the function it wraps.
        if inspect.isfunction(inspect.unwrap(obj)) or inspect.isclass(obj):
            if getattr(obj, "__module__", None) == mod.__name__:
                out.add(name)
    return out


@pytest.mark.parametrize("layer", LAYERS)
def test_all_lists_exactly_the_public_names(layer):
    mod = importlib.import_module(f"spherebraid.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert set(mod.__all__) == _public_functions_and_classes(mod) | CONSTANTS.get(layer, set())
    for name in CONSTANTS.get(layer, ()):
        assert hasattr(mod, name)


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_reexports_nothing():
    names = _fresh("import spherebraid\n"
                   "print(*sorted(k for k in vars(spherebraid) if not k.startswith('_')))")
    assert names == []


def test_setup_import_loads_only_its_layers():
    # The benchmark's setup import: the engine without amalgams, suites or the CLI.
    loaded = _fresh("import sys\n"
                    "from spherebraid import classifier, groups, oracle, words\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('spherebraid.')))")
    assert not {"spherebraid.amalgams", "spherebraid.suites", "spherebraid.cli"} & set(loaded)
    assert {"spherebraid.classifier", "spherebraid.groups", "spherebraid.oracle",
            "spherebraid.words"} <= set(loaded)
