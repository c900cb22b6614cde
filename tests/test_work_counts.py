"""Work-count guards: repeated calls reuse what the process already built, and
the cube audit gathers each layer once.

Counts, not timings: a wrapper around the recursion memo's row-growth step
counts the rows it computes, a wrapper around ``ArgumentParser``
construction counts the parsers the CLI builds, and a wrapper around
``numpy.take`` counts the cells the cube audit gathers.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from nimcash import CashTable, WinEngine, cli, new_move_set, thresholds


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


@pytest.mark.parametrize(
    "values, n_max, cap",
    [((1, 3, 4), 40, 40), ((3, 5, 6, 10, 11), 40, 200), ((3, 5, 6, 10, 11), 40, 7)],
    ids=["1-3-4 at 40^3", "3-5-6-10-11 at cap 200", "cap below max(A)"],
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
    assert sum(gathered) == (n_max + 1) * (cap + 1) ** 2
