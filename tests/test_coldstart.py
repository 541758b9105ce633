"""Cold start: a command imports only the layers it runs, and the package
resolves its exported names on first access."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burnfuse

# The layers and standard modules a text `basis` never runs.
NOT_FOR_BASIS = ("burnfuse.fusion", "burnfuse.completion", "burnfuse.serialize",
                 "burnfuse.verify", "burnfuse.intlattice", "dataclasses",
                 "json")

PROBE = f"""
import sys
import burnfuse
after_package = sorted(m for m in sys.modules if m.startswith("burnfuse."))
from burnfuse import cli
status = cli.run(["basis", "S3", "C2"])
loaded = [m for m in {NOT_FOR_BASIS!r} if m in sys.modules]
print(repr((after_package, status, loaded)), file=sys.stderr)
"""


def test_cold_basis_loads_only_the_layers_it_runs():
    # -S keeps site-packages' own imports out of sys.modules
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    after_package, status, loaded = ast.literal_eval(proc.stderr)
    assert after_package == []
    assert status == 0
    assert proc.stdout.endswith("6 classes\n")
    assert loaded == []


def test_every_exported_name_resolves_to_its_home_module():
    for name in burnfuse.__all__:
        home = importlib.import_module(f"burnfuse.{burnfuse._HOME[name]}")
        assert getattr(burnfuse, name) is getattr(home, name)
    assert sorted(burnfuse._HOME) == sorted(burnfuse.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from burnfuse import *", namespace)
    for name in burnfuse.__all__:
        assert namespace[name] is getattr(burnfuse, name)


def test_dir_lists_exported_names():
    assert set(burnfuse.__all__) <= set(dir(burnfuse))
    assert "__version__" in dir(burnfuse)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        burnfuse.no_such_name
    assert not hasattr(burnfuse, "_canonical_pair")
