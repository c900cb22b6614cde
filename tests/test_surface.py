"""Public-surface guard: every name the benchmark and the demos use resolves.

The benchmark harness (``perfbench/``) and the demos are callers outside the
package; deleting or renaming a name they read breaks them without failing
any other test.  This module reads their source, edits nothing, and checks
that each ``nc.<name>`` chain, each ``sys.modules["nimcash.<mod>"].<name>``
read, each method the tracer wraps, each demo import and each ``__all__``
entry exists.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import nimcash
import nimcash.cli  # noqa: F401  (the harness calls ``nc.cli.main``)

ROOT = Path(__file__).parent.parent
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("path", PERFBENCH, ids=[p.name for p in PERFBENCH])
def test_perfbench_names_resolve(path):
    text = path.read_text(encoding="utf-8")
    for chain in set(re.findall(r"\bnc\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text)):
        _resolve(nimcash, chain)
    for mod, name in set(re.findall(r'sys\.modules\["nimcash\.(\w+)"\]\.(\w+)', text)):
        getattr(importlib.import_module(f"nimcash.{mod}"), name)


def test_traced_methods_resolve():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, cls, meth, _, _ in tracing.METHODS:
        assert meth in vars(getattr(importlib.import_module(f"nimcash.{mod}"), cls))
    for layer in tracing.LAYERS + tracing.COUNTED_LAYERS:
        importlib.import_module(f"nimcash.{layer}")


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nimcash"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                getattr(module, alias.name)


def test_all_entries_exist():
    missing = [name for name in nimcash.__all__ if not hasattr(nimcash, name)]
    assert not missing
    assert len(set(nimcash.__all__)) == len(nimcash.__all__)
