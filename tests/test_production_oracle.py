"""One production oracle: exact reads go through the staircase, never the cube.

The guard test makes constructing the dense cube fail and then runs every
production path that needs exact winners.  The differential tests compare
the staircase-backed research paths with maps built here from the
independent dense cube.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from nimcash import (
    CashTable,
    CSTriple,
    PeriodCertificate,
    WinEngine,
    Winner,
    build_thresholds,
    conjecture_check,
    detect_cash_period,
    family_solution,
    induce_candidate,
    new_move_set,
    one_l_l1,
)
from nimcash import cli, oracle
from nimcash.families import interval_cs_member
from reference import ref_critical_cells


class _CubeBuilt(Exception):
    pass


def _no_cube(*args, **kwargs):
    raise _CubeBuilt("a production path built the dense cube")


def test_no_production_path_builds_the_dense_cube(monkeypatch):
    monkeypatch.setattr(CashTable, "__init__", _no_cube)
    oracle._staircase.cache_clear()  # the staircase itself is rebuilt under the guard

    engine = WinEngine(new_move_set([3, 5, 6, 10, 11]), 40)
    with pytest.raises(_CubeBuilt):
        engine.cube()  # the reference accessor is the one place that builds it
    decisions = [engine.decide(n, d, e) for n in range(41) for d in range(n + 1)
                 for e in range(0, n + 1, 3)]
    assert any(dec.method == "oracle" for dec in decisions)
    family = WinEngine(new_move_set([1, 4, 5]), 30)
    assert any(family.decide(n, d, e).method == "critical"
               for n in range(31) for d in range(n + 1) for e in range(n + 1))
    for values in [(3, 5, 6, 10, 11), (2, 3)]:
        WinEngine(new_move_set(values), 30).sweep(30, 30, 30)

    ms = new_move_set([1, 4, 5])
    tables = build_thresholds(ms, 80)
    cert = family_solution(one_l_l1(4)).certificate()
    induced, consistent = induce_candidate(ms, tables, cert, 80)
    assert induced and consistent
    assert conjecture_check(2, 4, n_max=240, critical_n_max=60).critical_checked > 0

    for argv in [
        ["solve", "-A", "3,5,6,10,11", "-n", "30", "-d", "9", "-e", "11", "--explain"],
        ["table", "-A", "3,5,6,10,11", "--n-max", "12", "--d-max", "9", "--e-max", "14"],
        ["table", "-A", "1,4,5", "--n-max", "12", "--d-max", "12", "--e-max", "12",
         "--format", "json"],
        ["verify", "--family", "one-l", "4", "--oracle-box", "40"],
        ["verify", "-A", "1,4", "--oracle-box", "60", "--box", "10"],
        ["period", "-A", "1,3,4", "--n-check", "300"],
        ["conjecture", "2", "4", "--n-max", "240", "--critical-n-max", "60"],
    ]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


def _cube_induced(values, tables, period, n_max, win):
    """The induced map and its consistency, read off the dense cube."""
    out: dict[CSTriple, Winner] = {}
    consistent = True
    for n in range(n_max + 1):
        d, e, mover_gap, opp_gap = ref_critical_cells(tables, n)
        for dd, ee, x, y in zip(d.tolist(), e.tolist(), mover_gap.tolist(), opp_gap.tolist()):
            w = Winner.MOVER if win[n, dd, ee] else Winner.OPPONENT
            if out.setdefault(CSTriple(n % period, x, y), w) is not w:
                consistent = False
    return out, consistent


@pytest.mark.parametrize("values, period", [((1, 4, 5), None), ((1, 2, 5), None), ((2, 3), 5)])
def test_induce_candidate_matches_the_dense_cube(values, period, cube_cache):
    """{2,3} has no cash period; a made-up one still folds the same cells."""
    n_max = 100
    ms = new_move_set(values)
    tables = build_thresholds(ms, 400)
    if period is None:
        cert = detect_cash_period(ms, tables, 16, 300)
    else:
        cert = PeriodCertificate(ms, period, (Winner.MOVER,) * period, {}, {}, 0)
    got = induce_candidate(ms, tables, cert, n_max)
    want = _cube_induced(values, tables, cert.period, n_max, cube_cache(values, n_max).win)
    assert want[0]
    assert got == want


@pytest.mark.parametrize("L, M", [(2, 4), (3, 5), (3, 6)])
def test_conjecture_counterexamples_match_the_dense_cube(L, M, cube_cache):
    report = conjecture_check(L, M)
    values = tuple(range(L, M + 1))
    win = cube_cache(values, report.critical_n_max).win
    tables = build_thresholds(new_move_set(values), report.n_max)
    want = []
    checked = 0
    for n in range(report.critical_n_max + 1):
        d, e, mover_gap, opp_gap = ref_critical_cells(tables, n)
        checked += d.size
        member = interval_cs_member(L, M, n % (L + M), mover_gap, opp_gap)
        wins = win[n, d, e]
        for k in np.flatnonzero(member != wins).tolist():
            want.append((n, int(d[k]), int(e[k]), bool(wins[k]), bool(member[k])))
    got = [(c.n, c.d, c.e, c.oracle_winner is Winner.MOVER, c.conjectured_member)
           for c in report.x_counterexamples]
    assert report.critical_checked == checked > 0
    assert got == want
