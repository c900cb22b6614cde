"""Span and count tracing installed from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
and the methods listed in ``METHODS``, with timing wrappers.  A function is
replaced in every ``nimcash`` module that holds it by name (``engine`` and
``cli`` import ``solve_cash`` directly, for example), so calls between
layers are seen as well as calls from the benchmark.

Two kinds of wrapper:

* a *span* records name, start, end and its parent span; a layer's self
  time is its spans' durations minus the time covered by child spans;
* a *count* only counts calls.  It is used for leaf calls made once per
  cell or per triple, where a span would cost more than the work it times.

Spans are kept in memory and written out by ``write_spans``.  Every wrapper
counts ``NimCashError``s against the layer they first surface from.
``uninstall()`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("thresholds", "oracle", "periodicity", "families", "engine", "cli")
# ``game`` holds per-state leaf helpers: counted, never timed.
COUNTED_LAYERS = ("game",)

# Public functions that run once per cell, triple or residue row: a span
# would cost more than the call.  The first is counted; the rest are left
# unwrapped, so their time stays with the caller's span.
COUNT_ONLY = {"thresholds.poor_thresholds"}
UNWRAPPED = {
    "periodicity.compute_costs",
    "periodicity.step_cs",
    "periodicity.corresponding_state",
    "families.interval_cs_member",
    "families.family_standard",
    "families.range_standard",
}

# (module, class, method, metric name, kind)
METHODS = (
    ("oracle", "CashTable", "__init__", "oracle.CashTable", "span"),
    ("oracle", "CashTable", "audit_soundness", "oracle.audit_soundness", "span"),
    ("oracle", "CashTable", "mover_wins", "oracle.CashTable.mover_wins", "count"),
    ("engine", "WinEngine", "__init__", "engine.WinEngine", "span"),
    ("engine", "WinEngine", "decide", "engine.decide", "span"),
    ("engine", "WinEngine", "cube", "engine.cube", "span"),
    ("engine", "WinEngine", "sweep", "engine.sweep", "span"),
)

# A span whose callees of these names are counted instead of timed: the
# cube export classifies every exported cell.
COUNT_INSIDE = {"cli.table": {"thresholds.classify"}}

# Counted calls that are also counted per enclosing span: ``sweep`` visits
# its critical cells through one of these.
COUNT_IN_SPAN = {"periodicity.SolutionSet.contains", "oracle.CashTable.mover_wins"}


def _metric_name(layer: str, fn_name: str) -> str:
    if layer == "cli" and fn_name.startswith("cmd_"):
        fn_name = fn_name[4:]
    return f"{layer}.{fn_name}"


class Tracer:
    """Records spans and counts for one process; not thread-safe."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _layer_of(self, name: str) -> str:
        return name.split(".", 1)[0]

    def _error(self, name: str, exc: BaseException) -> None:
        if not getattr(exc, "_perfbench_counted", False):
            self.counts[f"{self._layer_of(name)}.errors"] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    def _span(self, name: str, fn, after):
        from nimcash.errors import NimCashError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and name in COUNT_INSIDE.get(self._stack[-1][1], ()):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except NimCashError as exc:
                self._error(name, exc)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[3]
                parent = 0
                if self._stack:
                    self._stack[-1][3] += duration
                    parent = self._stack[-1][0]
                self.spans.append((span_id, parent, name, frame[2], end))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        from nimcash.errors import NimCashError

        in_span = name in COUNT_IN_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if in_span and self._stack:
                self.counts[(name, self._stack[-1][1])] += 1
            try:
                return fn(*args, **kwargs)
            except NimCashError as exc:
                self._error(name, exc)
                raise

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import importlib

        import nimcash

        modules = [nimcash] + [
            importlib.import_module(f"nimcash.{m}") for m in LAYERS + COUNTED_LAYERS
        ]
        family_solution = sys.modules["nimcash.families"].family_solution
        replacements: dict[int, object] = {}
        for layer in LAYERS + COUNTED_LAYERS:
            mod = sys.modules[f"nimcash.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = _metric_name(layer, attr)
                if name in UNWRAPPED:
                    continue
                if layer in COUNTED_LAYERS or name in COUNT_ONLY:
                    wrapped = self._count(name, obj)
                else:
                    wrapped = self._span(name, obj, AFTER.get(name))
                replacements[id(obj)] = wrapped
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and callable(obj):
                    self._patch(mod, attr, replacements[id(obj)])
        for mod_name, cls_name, meth, name, kind in METHODS:
            cls = getattr(sys.modules[f"nimcash.{mod_name}"], cls_name)
            fn = vars(cls)[meth]
            if kind == "span":
                wrapped = self._span(name, fn, AFTER.get(name))
            else:
                wrapped = self._count(name, fn)
            self._patch(cls, meth, wrapped)
        self._wrap_solution_sets()
        # Solution sets built before installation hold unwrapped predicates.
        family_solution.cache_clear()

    def _wrap_solution_sets(self) -> None:
        """Count ``SolutionSet.contains``: a per-instance callable field."""
        cls = sys.modules["nimcash.periodicity"].SolutionSet
        original = cls.__init__
        counted = functools.partial(self._count, "periodicity.SolutionSet.contains")

        def __init__(obj, contains, description):
            original(obj, counted(contains), description)

        self._patch(cls, "__init__", __init__)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        sys.modules["nimcash.families"].family_solution.cache_clear()

    # ------------------------------------------------------------ output

    def in_span(self, counted: str, span: str) -> int:
        return self.counts[(counted, span)]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            out[self._layer_of(name)] += secs
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")


# ------------------------------------------------------------ per-call extras

def _after_decide(tracer: Tracer, args, kwargs, decision) -> None:
    tracer.counts[f"engine.decide.method.{decision.method}"] += 1


def _after_sweep(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["engine.sweep.cells"] += out.size


def _after_cash_table(tracer: Tracer, args, kwargs, _result) -> None:
    table = args[0]
    tracer.counts["oracle.cube_bytes"] += table.win.nbytes
    # Cells OR-ed by the shifted-slice build: per layer n and move a <= n,
    # one (cap+1-a) x (cap+1) slice.
    side = table.cap + 1
    updates = 0
    for a in table.moves:
        layers = table.n_max - max(a, table.moves.a_min) + 1
        if layers > 0 and a < side:
            updates += layers * (side - a) * side
    tracer.counts["oracle.cube_cell_updates"] += updates


def _after_build_thresholds(tracer: Tracer, args, kwargs, tables) -> None:
    tracer.counts["thresholds.build_thresholds.rows"] += tables.n_max + 1


def _after_verify(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["periodicity.verify.triples"] += report.checked


def _after_conjecture(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["families.conjecture_check.critical_checked"] += report.critical_checked


def _after_table(tracer: Tracer, args, kwargs, _code) -> None:
    out = getattr(args[0], "out", None)
    if out:
        with open(out, "rb") as fh:
            data = fh.read()
        tracer.counts["cli.table.bytes_out"] += len(data)
        tracer.counts["cli.table.rows"] += max(data.count(b"\n") - 1, 0)


AFTER = {
    "engine.decide": _after_decide,
    "engine.sweep": _after_sweep,
    "oracle.CashTable": _after_cash_table,
    "thresholds.build_thresholds": _after_build_thresholds,
    "periodicity.verify_solution_set": _after_verify,
    "families.conjecture_check": _after_conjecture,
    "cli.table": _after_table,
}


# ------------------------------------------------------------ per-layer metrics

def _calls(name):
    return lambda t: t.calls[name]


def _self(name):
    return lambda t: t.self_s[name]


def _counted(name):
    return lambda t: t.counts[name]


def _layer_self(layer):
    return lambda t: t.layer_self_s()[layer]


def _sweep_critical(t: Tracer) -> int:
    return t.in_span("periodicity.SolutionSet.contains", "engine.sweep") + t.in_span(
        "oracle.CashTable.mover_wins", "engine.sweep"
    )


def _game_calls(t: Tracer) -> int:
    return sum(v for k, v in t.calls.items() if k.startswith("game."))


# (metric, unit, reading); every one is reported by every traced run.
PER_LAYER = (
    ("thresholds.build_thresholds.calls", "count", _calls("thresholds.build_thresholds")),
    ("thresholds.build_thresholds.self_s", "s", _self("thresholds.build_thresholds")),
    ("thresholds.build_thresholds.rows", "count", _counted("thresholds.build_thresholds.rows")),
    ("thresholds.classify.calls", "count", _calls("thresholds.classify")),
    ("thresholds.classify.self_s", "s", _self("thresholds.classify")),
    ("thresholds.poor_thresholds.calls", "count", _calls("thresholds.poor_thresholds")),
    ("oracle.solve_cash.calls", "count", _calls("oracle.solve_cash")),
    ("oracle.solve_cash.self_s", "s", _self("oracle.solve_cash")),
    ("oracle.CashTable.calls", "count", _calls("oracle.CashTable")),
    ("oracle.CashTable.self_s", "s", _self("oracle.CashTable")),
    ("oracle.CashTable.mover_wins.calls", "count", _calls("oracle.CashTable.mover_wins")),
    ("oracle.audit_soundness.self_s", "s", _self("oracle.audit_soundness")),
    ("oracle.cube_bytes", "bytes_computed", _counted("oracle.cube_bytes")),
    ("oracle.cube_cell_updates", "cells_computed", _counted("oracle.cube_cell_updates")),
    ("periodicity.critical_winner.calls", "count", _calls("periodicity.critical_winner")),
    ("periodicity.detect_cash_period.self_s", "s", _self("periodicity.detect_cash_period")),
    ("periodicity.induce_candidate.self_s", "s", _self("periodicity.induce_candidate")),
    ("periodicity.verify_solution_set.self_s", "s", _self("periodicity.verify_solution_set")),
    ("periodicity.verify.triples", "count", _counted("periodicity.verify.triples")),
    ("families.family_win.calls", "count", _calls("families.family_win")),
    ("families.family_win.self_s", "s", _self("families.family_win")),
    ("families.conjecture_check.self_s", "s", _self("families.conjecture_check")),
    ("families.conjecture_check.critical_checked", "count",
     _counted("families.conjecture_check.critical_checked")),
    ("families.appendix_check.self_s", "s", _self("families.appendix_check")),
    ("engine.WinEngine.calls", "count", _calls("engine.WinEngine")),
    ("engine.WinEngine.self_s", "s", _self("engine.WinEngine")),
    ("engine.decide.self_s", "s", _self("engine.decide")),
    ("engine.decide.method.rich", "count", _counted("engine.decide.method.rich")),
    ("engine.decide.method.poor", "count", _counted("engine.decide.method.poor")),
    ("engine.decide.method.critical", "count", _counted("engine.decide.method.critical")),
    ("engine.decide.method.oracle", "count", _counted("engine.decide.method.oracle")),
    ("engine.cube.self_s", "s", _self("engine.cube")),
    ("engine.sweep.calls", "count", _calls("engine.sweep")),
    ("engine.sweep.self_s", "s", _self("engine.sweep")),
    ("engine.sweep.cells", "count", _counted("engine.sweep.cells")),
    ("engine.sweep.critical_cells", "count", _sweep_critical),
    ("cli.solve.calls", "count", _calls("cli.solve")),
    ("cli.solve.self_s", "s", _self("cli.solve")),
    ("cli.table.self_s", "s", _self("cli.table")),
    ("cli.table.rows", "count", _counted("cli.table.rows")),
    ("cli.table.bytes_out", "bytes", _counted("cli.table.bytes_out")),
    ("game.calls", "count", _game_calls),
) + tuple(
    (f"{layer}.self_s", "s", _layer_self(layer)) for layer in LAYERS
) + tuple(
    (f"{layer}.errors", "count", _counted(f"{layer}.errors")) for layer in LAYERS + COUNTED_LAYERS
) + (
    ("trace.overhead_ratio", "ratio", None),
)


def per_layer_metrics(tracer: Tracer, overhead: float) -> dict:
    out = {}
    for name, unit, read in PER_LAYER:
        value = overhead if read is None else read(tracer)
        out[name] = {"value": value, "unit": unit}
    return out
