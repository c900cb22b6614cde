"""Public-surface guard: every name the benchmark and the demos use resolves.

The benchmark harness (``perfbench/``) and the demos are callers outside the
package; deleting or renaming a name they read breaks them without failing
any other test.  This module reads their source, edits nothing, and checks
that each ``nc.<name>`` chain, each ``sys.modules["nimcash.<mod>"].<name>``
read, each method the tracer wraps, each demo import and each ``__all__``
entry exists.  Members the harness reads off returned objects (a family
solution's ``rich_pair``, a table's ``rich_i``) are not visible in its
source as chains; ``RETURNED`` lists them with a call that returns such an
object, and each must still be read by the harness and resolve on the object.
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


MS = nimcash.new_move_set([1, 3, 4])


def _family_cert():
    return nimcash.family_solution(nimcash.one_l(4)).certificate()


def _family_solution_set():
    return nimcash.family_solution(nimcash.one_l(4)).solution_set


# (returned object, a call that returns one, members perfbench reads off it)
RETURNED = [
    ("family_solution", lambda: nimcash.family_solution, ["cache_clear"]),
    ("FamilySolution", lambda: nimcash.family_solution(nimcash.one_l(4)), ["rich_pair"]),
    ("ThresholdTables", lambda: nimcash.build_thresholds(MS, 40),
     ["rich_i", "rich_ii", "n_max", "moves"]),
    ("MoveSet", lambda: MS, ["a_min"]),
    ("CashTable", lambda: nimcash.CashTable(MS, 4), ["win", "moves", "n_max"]),
    ("Decision", lambda: nimcash.WinEngine(MS, 20).decide(13, 8, 7), ["winner", "method"]),
    ("PoorCutoffs", lambda: nimcash.poor_thresholds(MS, 10), ["poor_i", "poor_ii"]),
    ("PeriodCertificate", _family_cert, ["period", "verified_up_to"]),
    ("VerificationReport",
     lambda: nimcash.verify_solution_set(_family_cert(), _family_solution_set(), 2),
     ["passed", "checked"]),
    ("ConjectureReport", lambda: nimcash.conjecture_check(1, 2, 40, 10),
     ["theta", "bound_holds", "special_case_holds", "critical_checked", "x_counterexamples"]),
    ("AppendixReport", lambda: nimcash.appendix_check(12), ["passed", "mismatches"]),
    ("AppendixMismatch", lambda: nimcash.appendix_check(12).mismatches[0],
     ["table", "n", "computed", "tabulated"]),
]


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


@pytest.mark.parametrize("label, make, members", RETURNED, ids=[r[0] for r in RETURNED])
def test_members_read_off_returned_objects_resolve(label, make, members):
    text = "".join(path.read_text(encoding="utf-8") for path in PERFBENCH)
    obj = make()
    for name in members:
        assert re.search(rf"\.{name}\b", text), f"perfbench reads no .{name}: drop it here"
        assert hasattr(obj, name), f"{label} has no {name}"


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
