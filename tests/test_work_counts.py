"""Work-count guards: repeated calls reuse what the process already built, the
cube audit gathers each layer once, and the closure check reads each
membership grid once.

Counts, not timings: a wrapper around the recursion memo's row-growth step
counts the rows it computes, a wrapper around ``ArgumentParser``
construction counts the parsers the CLI builds, a wrapper around
``numpy.take`` counts the cells the cube audit gathers, and a wrapper around
a solution set's predicate counts the closure check's membership calls.
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np
import pytest

from nimcash import (
    CashTable,
    CSTriple,
    SolutionSet,
    WinEngine,
    Winner,
    build_thresholds,
    cli,
    detect_cash_period,
    family_solution,
    induce_candidate,
    new_move_set,
    one_l_l1,
    thresholds,
    verify_solution_set,
)


def test_each_cutoff_row_is_computed_once(monkeypatch, capsys):
    thresholds._recursion.cache_clear()
    rows: list[int] = []
    real = thresholds._Recursion._rows

    def counted(memo, arrays, start, stop):
        rows.append(stop - start)
        return real(memo, arrays, start, stop)

    monkeypatch.setattr(thresholds._Recursion, "_rows", counted)
    ms = new_move_set([2, 3])  # not a solved family: the engine reads the recursion
    WinEngine(ms, 300)
    WinEngine(ms, 200)
    for n in (300, 150, 7):
        assert cli.main(["solve", "-A", "2,3", "-n", str(n), "-d", "5", "-e", "5"]) == 0
    assert "wins" in capsys.readouterr().out
    assert sum(rows) == 301
    WinEngine(ms, 400)  # growth computes only the rows past the top
    assert sum(rows) == 401


def test_two_cli_calls_build_the_parser_once(monkeypatch, capsys):
    built: list[str | None] = []
    real = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ["solve", "-A", "1,3,4", "-n", "14", "-d", "9", "-e", "9"]
    assert cli.main(argv) == 0
    first = len(built)
    assert first > 0 and built[0] == "nimcash"
    assert cli.main(argv) == 0
    assert len(built) == first
    out = capsys.readouterr().out
    assert out.count("Player I wins") == 2


def _audit_cells(n_max: int, cap: int, a_max: int) -> int:
    """Cells a clean audit gathers: each head layer ``n < cap`` once, its rows
    ``x <= n`` over ``min(n + 1 + max(A), cap + 1)`` columns, except that the
    last ``max(A)`` of them are gathered in full when body layers follow;
    each body layer ``n >= cap`` once, in full."""
    side = cap + 1
    head = min(cap, n_max + 1)
    full = min(a_max, head) if head <= n_max else 0
    rows = sum((n + 1) * min(n + 1 + a_max, side) for n in range(head - full))
    return rows + (full + n_max + 1 - head) * side**2


@pytest.mark.parametrize(
    "values, n_max, cap",
    [((1, 3, 4), 40, 40), ((3, 5, 6, 10, 11), 40, 200), ((3, 5, 6, 10, 11), 40, 7),
     ((1, 3, 4), 300, 300), ((1, 3, 4), 2000, 8), ((1, 2), 30, 0)],
    ids=["1-3-4 at 40^3", "3-5-6-10-11 at cap 200", "cap below max(A)", "1-3-4 at 300^3",
         "thin cube", "cap 0"],
)
def test_audit_gathers_each_layer_once(monkeypatch, values, n_max, cap):
    table = CashTable(new_move_set(values), n_max, cap)
    gathered: list[int] = []
    real = np.take

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        gathered.append(out.size)
        return out

    monkeypatch.setattr(np, "take", counted)
    assert table.audit_soundness() == []
    assert sum(gathered) == _audit_cells(n_max, cap, max(values))
    assert sum(gathered) <= (n_max + 1) * (cap + 1) ** 2


def _counted(solution_set: SolutionSet) -> tuple[SolutionSet, list[int]]:
    """The same set, with a predicate that counts its calls."""
    calls: list[int] = []

    def contains(*args):
        calls.append(1)
        return solution_set.contains(*args)

    return dataclasses.replace(solution_set, contains=contains), calls


def test_closure_check_calls_a_row_set_once_per_residue():
    """A ``from_rows`` set fills each residue's membership grid in one array call."""
    sol = family_solution(one_l_l1(3))
    cert = sol.certificate()
    rows_set, calls = _counted(sol.solution_set)
    assert rows_set.period == cert.period == 7
    assert verify_solution_set(cert, rows_set, 20).passed
    assert len(calls) == cert.period


def test_closure_check_calls_a_predicate_once_per_grid_cell():
    """A predicate-only set answers at most one int call per cell of the
    ``[0, hi]^2`` grid, ``hi`` the box widened by the most negative cost."""
    ms = new_move_set([1, 3, 4])
    t = build_thresholds(ms, 400)
    cert = detect_cash_period(ms, t, 16, 300)
    induced, _ = induce_candidate(ms, t, cert, 120)
    members = {cs for cs, w in induced.items() if w is Winner.MOVER}
    predicate, calls = _counted(
        SolutionSet(lambda i, b, b2: CSTriple(i, b, b2) in members, "induced")
    )
    box = 20
    hi = box + max(0, -min(*cert.cost_i.values(), *cert.cost_ii.values()))
    assert hi == 22
    verify_solution_set(cert, predicate, box)
    assert 0 < len(calls) <= cert.period * (hi + 1) ** 2
