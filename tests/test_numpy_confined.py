"""Numpy stays inside the three modules that need array speed, so every
other module works on Python ints, lists and tuples, and a numpy value that
leaks into a report fails loudly instead of being printed."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import galim
from galim import cli

ARRAY_MODULES = {"arith", "kernels", "quadforms"}


def _imports_numpy(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_array_modules_import_numpy():
    importers = set()
    for info in pkgutil.iter_modules(galim.__path__):
        path = Path(galim.__path__[0]) / f"{info.name}.py"
        if _imports_numpy(path.read_text(encoding="utf-8")):
            importers.add(info.name)
    # equality, not inclusion: the walk would pass vacuously if it found no
    # importer at all
    assert importers == ARRAY_MODULES


def test_serialize_refuses_numpy_values():
    # float64 and str_ subclass float and str, so only an exact-type check
    # refuses them
    for value in (np.int64(5), np.float64(0.5), np.str_("x"), np.bool_(True)):
        with pytest.raises(TypeError):
            cli.serialize(value)


def test_cli_import_leaves_numpy_fft_unloaded():
    # numpy loads np.fft on first attribute access, and only the Bernoulli
    # table's long products take it, so no command that builds no table pays
    # for it
    code = "import sys, galim.cli; print('numpy' in sys.modules, 'numpy.fft' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"
