"""Every drccp module imports on its own in a fresh interpreter.

The package `__init__` imports its modules in one fixed order, and that
order can hide an import cycle: a module that only works when another one
happens to be loaded first.  Each test here registers an empty `drccp`
package, so the module under test is the first one its imports start from.
"""
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drccp"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

_IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("drccp")
package.__path__ = [sys.argv[1]]
sys.modules["drccp"] = package
importlib.import_module("drccp." + sys.argv[2])
"""


def test_every_module_is_listed():
    assert {"bnc", "cuts", "formulations", "oracles", "simplex"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALONE, str(PACKAGE), module],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
