"""Differential tests: fast solvers against the plain recursive reference.

Hypothesis draws a move set from the subsets of 1..7 and a state with at most
40 stones.  The plain recursive reference, the dense cube, the staircase
behind ``solve_cash`` and ``WinEngine.decide`` are compared; so are
``wins_miserly`` and its recursive reference, for either designated player
and with move sets drawn from 1..7 and from 2..7 (``min(A) >= 2``).  The
memoised cutoff recursion behind ``build_thresholds`` is grown through a
random sequence of ``n_max`` steps and each read is compared with the
one-shot ``ref_thresholds``.  ``family_win`` on the solved families with
``L <= 8`` and ``WinEngine.sweep`` over a box, on family and non-family sets,
are compared with the recursive reference and the dense cube.  Runs are
derandomized, so the examples are the same on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nimcash import (  # noqa: E402
    CashState,
    CashTable,
    WinEngine,
    Winner,
    build_thresholds,
    family_win,
    new_move_set,
    one_l,
    one_l_l1,
    solve_cash,
    wins_miserly,
)
from nimcash import thresholds  # noqa: E402
from reference import ref_mover_wins, ref_thresholds, ref_wins_miserly  # noqa: E402

N_MAX = 40

move_sets = st.sets(st.integers(1, 7), min_size=1).map(lambda s: tuple(sorted(s)))
no_unit_move_sets = st.sets(st.integers(2, 7), min_size=1).map(lambda s: tuple(sorted(s)))
budgets = st.integers(0, N_MAX + 2)
family_kinds = st.sampled_from(
    [one_l(L) for L in range(2, 9, 2)] + [one_l_l1(L) for L in range(2, 9)]
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=move_sets, n=st.integers(0, N_MAX), d=budgets, e=budgets)
def test_reference_cube_staircase_and_engine_agree(values, n, d, e):
    ms = new_move_set(values)
    state = CashState(n, d, e)
    want = ref_mover_wins(values, n, min(d, n), min(e, n))
    cube = CashTable(ms, n).solve(state)
    solved = solve_cash(ms, state)
    decided = WinEngine(ms, n).decide(n, d, e)
    assert (cube.winner is Winner.MOVER) == want
    assert solved == cube
    assert decided.winner is cube.winner


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    values=st.one_of(move_sets, no_unit_move_sets),
    n=st.integers(0, N_MAX),
    d=budgets,
    e=budgets,
    mover_designated=st.booleans(),
)
def test_miserly_matches_reference(values, n, d, e, mover_designated):
    who = Winner.MOVER if mover_designated else Winner.OPPONENT
    got = wins_miserly(new_move_set(values), CashState(n, d, e), who)
    assert got == ref_wins_miserly(values, n, d, e, mover_designated)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(values=move_sets, steps=st.lists(st.integers(0, 160), min_size=1, max_size=6))
def test_recursion_memo_matches_reference(values, steps):
    thresholds._recursion.cache_clear()  # each example grows its memo from nothing
    ms = new_move_set(values)
    for n_max in steps:  # up and down: a read below the top slices, above it grows
        tables = build_thresholds(ms, n_max)
        got = (tables.winners, tables.rich_i, tables.rich_ii)
        for arr, want in zip(got, ref_thresholds(values, n_max)):
            assert arr.dtype == want.dtype and arr.shape == (n_max + 1,)
            assert (arr == want).all(), (values, steps, n_max)
            assert arr.flags.writeable is False


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(kind=family_kinds, n=st.integers(0, N_MAX), d=budgets, e=budgets)
def test_family_win_matches_reference_and_cube(kind, n, d, e):
    want = ref_mover_wins(kind.moves.values, n, min(d, n), min(e, n))
    assert (family_win(kind, n, d, e) is Winner.MOVER) == want
    assert CashTable(kind.moves, n).mover_wins(n, d, e) == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    values=st.one_of(family_kinds.map(lambda kind: kind.moves.values), move_sets),
    n_hi=st.integers(0, 24),
    d_hi=st.integers(0, 27),
    e_hi=st.integers(0, 27),
)
def test_sweep_matches_reference_and_cube(values, n_hi, d_hi, e_hi):
    got = WinEngine(new_move_set(values), n_hi).sweep(n_hi, d_hi, e_hi)
    cube = CashTable(new_move_set(values), n_hi).win
    memo: dict = {}
    for n in range(n_hi + 1):
        d = np.minimum(np.arange(d_hi + 1), n)
        e = np.minimum(np.arange(e_hi + 1), n)
        assert (got[n] == cube[n][np.ix_(d, e)]).all(), (values, n)
        want = [[ref_mover_wins(values, n, x, y, memo) for y in e.tolist()] for x in d.tolist()]
        assert got[n].tolist() == want, (values, n)
