"""Plain recursive reference solvers, kept independent of the package.

These are the trusted oracles the production code is checked against: the
most naive possible implementations, dict-memoized, no shared machinery;
``ref_family_cutoffs`` is the solved families' closed forms.
Budgets here are plain ints (callers clamp or pick small ones).  Only
``ref_thresholds`` uses numpy, so that the dtypes of the package's cutoff
tables can be compared as well as their values.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np


def ref_mover_wins(values: tuple[int, ...], n: int, d: int, e: int,
                   memo: dict | None = None) -> bool:
    """Mover wins (n; d, e) under the rule: remove a, pay a, swap seats."""
    if memo is None:
        memo = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    key = (n, min(d, n), min(e, n))
    if key not in memo:
        memo[key] = any(
            not ref_mover_wins(values, n - a, e, d - a, memo)
            for a in values
            if a <= n and a <= d
        )
    return memo[key]


def ref_audit(win, values: tuple[int, ...], limit: int) -> list[tuple[int, int, int]]:
    """Cells ``(n, d, e)`` of a winner cube ``win[n][d][e]`` (budgets unclamped
    up to its cap) that disagree with their successors, checked one cell at a
    time: the mover wins iff some ``a <= min(n, d)`` reaches a stored loss
    ``(n - a; e, d - a)``.  Row-major order, at most ``limit`` of them."""
    cube = np.asarray(win).tolist()
    n_max, cap = len(cube) - 1, len(cube[0]) - 1
    wrong = (
        (n, d, e)
        for n in range(n_max + 1)
        for d in range(cap + 1)
        for e in range(cap + 1)
        if cube[n][d][e] != any(not cube[n - a][e][d - a] for a in values if a <= min(n, d))
    )
    return list(itertools.islice(wrong, max(limit, 0)))


def ref_standard_wins(values: tuple[int, ...], n: int,
                      memo: dict | None = None) -> bool:
    """Mover wins the plain subtraction game from n stones."""
    if memo is None:
        memo = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    if n not in memo:
        memo[n] = any(
            not ref_standard_wins(values, n - a, memo) for a in values if a <= n
        )
    return memo[n]


def ref_wins_miserly(values: tuple[int, ...], n: int, d: int, e: int,
                     designated_moves_now: bool) -> bool:
    """Designated player always removes min(values); other plays anything."""
    a1 = min(values)
    memo: dict = {}

    def go(n: int, d: int, e: int, des_turn: bool) -> bool:
        key = (n, min(d, n), min(e, n), des_turn)
        if key not in memo:
            if des_turn:
                if n < a1 or d < a1:
                    memo[key] = False
                else:
                    memo[key] = go(n - a1, e, d - a1, False)
            else:
                replies = [a for a in values if a <= n and a <= d]
                if not replies:
                    memo[key] = True
                else:
                    memo[key] = all(go(n - a, e, d - a, True) for a in replies)
        return memo[key]

    return go(n, d, e, designated_moves_now)


def ref_thresholds(values: tuple[int, ...], n_max: int):
    """``(winners, rich_i, rich_ii)`` for ``0 <= n <= n_max``, computed in one shot.

    The defining recursion of the rich cutoffs, run from ``n = 0`` into fresh
    arrays (bool, int64, int64): on a mover-wins ``n``, ``rich_i`` is the
    cheapest winning reply and ``rich_ii`` the worst successor ``rich_i``; on
    a mover-loses ``n``, ``rich_ii`` is that worst case and ``rich_i`` the
    cheapest escape through a successor attaining it.
    """
    win = np.zeros(n_max + 1, dtype=bool)
    rich_i = np.zeros(n_max + 1, dtype=np.int64)
    rich_ii = np.zeros(n_max + 1, dtype=np.int64)
    for n in range(min(values), n_max + 1):
        legal = [a for a in values if a <= n]
        win[n] = any(not win[n - a] for a in legal)
        rich_ii[n] = max(rich_i[n - a] for a in legal)
        if win[n]:
            rich_i[n] = min(rich_ii[n - a] + a for a in legal if not win[n - a])
        else:
            rich_i[n] = min(
                rich_ii[n - a] + a for a in legal if rich_i[n - a] == rich_ii[n]
            )
    return win, rich_i, rich_ii


def ref_family_cutoffs(kind, n: int) -> tuple[int, int, bool]:
    """``(rich_i, rich_ii, mover wins)`` at ``n`` for a solved family, in closed form.

    These are the paper's win conditions for ``{1, L}`` with ``L`` even
    (modulus ``L + 1``) and ``{1, L, L+1}`` (modulus ``2L + 1`` for odd ``L``,
    ``2L`` for even ``L``), written out per residue ``i = n mod modulus``:
    ``winner`` is the cutoff of the standard-game winner, ``loser`` that of
    the standard-game loser.  Only ``kind.moves`` is read, so the family is
    named by its move set alone.
    """
    values = kind.moves.values
    L, half = values[1], values[1] // 2
    if len(values) == 2:
        k, i = divmod(n, L + 1)
        mover_wins = not (i < L - 1 and i % 2 == 0)
        winner = L * k + (i + 1) // 2 if i < L else L * (k + 1)
        if n < L:
            loser = n // 2
        else:
            loser = L * k + i // 2 - half + 1 if i < L else L * k + half
    elif L % 2:
        k, i = divmod(n, 2 * L + 1)
        mover_wins = not (i < L and i % 2 == 0)
        base = (3 * L + 1) * k // 2
        winner = base + (i + 1) // 2 if i < L + 1 else base + L + (i - L + 1) // 2
        loser = base + i // 2 if i < L + 2 else base + L + (i - L) // 2
    else:
        k, i = divmod(n, 2 * L)
        mover_wins = not (i < L - 1 and i % 2 == 0)
        base = 3 * L * k // 2
        winner = base + (i + 1) // 2 if i < L else base + L + (i - L + 1) // 2
        loser = base + i // 2 if i < L + 1 else base + L + (i - L) // 2
    if mover_wins:
        return winner, loser, True
    return loser, winner, False
