"""Exact brute-force solvers for the cash game and the plain subtraction game.

Two routes to the same answer:

* :class:`CashTable` materializes the full winner cube ``win[n, d, e]`` with
  numpy, bottom-up in ``n``.  Dense and cache-friendly; the tool of choice for
  box sweeps, audits, and threshold extraction.
* :func:`solve_cash` answers a single query without the cube.  Budgets shrink
  exactly as stones do, so the states reachable from one root form an
  O(n^2)-sized family indexed by (stones left, side to move, money one side
  has spent); that keeps even deep positions cheap.

Budgets are clamped to the stone count on entry everywhere (a budget >= n is
indistinguishable from an unlimited one).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutOfRange, ResourceLimit
from .game import UNLIMITED, CashState, Funds, MoveSet, Winner, clamp_funds

#: Environment variable overriding the default single-query solver bound.
BOUND_ENV_VAR = "NIMCASH_MAX_N"
DEFAULT_BOUND = 2048


def _solver_bound(bound: int | None) -> int:
    """``bound``, else ``NIMCASH_MAX_N``, else the default; the one reader of the variable."""
    if bound is not None:
        return bound
    text = os.environ.get(BOUND_ENV_VAR, str(DEFAULT_BOUND))
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"{BOUND_ENV_VAR} must be an integer, got {text!r}") from None


def _check_solver_bound(n: int, bound: int | None = None) -> None:
    limit = _solver_bound(bound)
    if n > limit:
        raise ResourceLimit(f"n={n} exceeds solver bound {limit}")


@dataclass(frozen=True)
class SolveResult:
    """Winner plus every winning first move (empty iff the mover loses)."""

    winner: Winner
    winning_moves: tuple[int, ...]
    plies_bound: int


def standard_winners(moves: MoveSet, n_max: int) -> np.ndarray:
    """Boolean array over n: True iff the player to move wins with no budgets."""
    win = np.zeros(n_max + 1, dtype=bool)
    for n in range(moves.a_min, n_max + 1):
        win[n] = any(not win[n - a] for a in moves if a <= n)
    return win


def solve_standard(moves: MoveSet, n: int) -> Winner:
    """Winner of the plain subtraction game from ``n`` stones."""
    win = standard_winners(moves, n)
    return Winner.MOVER if win[n] else Winner.OPPONENT


class CashTable:
    """Dense winner cube for all states with ``n <= n_max`` and budgets ``<= cap``.

    ``win[n, d, e]`` is True iff the mover wins ``(n; d, e)``.  Budget axes are
    unclamped up to ``cap`` (default ``n_max``), so queries with larger or
    unlimited budgets are answered by clamping to ``min(budget, n)``, which is
    exact.  Construction is single-writer; reads are safe to share.
    """

    def __init__(self, moves: MoveSet, n_max: int, cap: int | None = None) -> None:
        if n_max < 0:
            raise OutOfRange(f"n_max must be >= 0, got {n_max}")
        self.moves = moves
        self.n_max = n_max
        self.cap = n_max if cap is None else cap
        self.win = _build_cube(moves, n_max, self.cap)
        self.win.flags.writeable = False

    def mover_wins(self, n: int, d: Funds, e: Funds) -> bool:
        if n > self.n_max or n < 0:
            raise OutOfRange(f"n={n} outside table range 0..{self.n_max}")
        dc, ec = clamp_funds(d, n), clamp_funds(e, n)
        if dc > self.cap or ec > self.cap:
            raise OutOfRange(f"budgets ({dc},{ec}) exceed table cap {self.cap}")
        return bool(self.win[n, dc, ec])

    def winner(self, n: int, d: Funds, e: Funds) -> Winner:
        return Winner.MOVER if self.mover_wins(n, d, e) else Winner.OPPONENT

    def solve(self, state: CashState) -> SolveResult:
        n, d, e = state.clamped()
        wins = tuple(
            a
            for a in self.moves
            if a <= min(n, d) and not self.mover_wins(n - a, e, d - a)
        )
        winner = Winner.MOVER if wins else Winner.OPPONENT
        return SolveResult(winner, wins, _plies_bound(self.moves, n))

    def audit_soundness(self, limit: int = 10) -> list[tuple[int, int, int]]:
        """Recheck the fixpoint at every entry; return offending states.

        A state must be a mover win iff some legal move lands the opponent in
        a loss.  The check re-derives each layer with masked fancy indexing,
        independent of the shifted-slice construction.
        """
        bad: list[tuple[int, int, int]] = []
        cap = self.cap
        dd, ee = np.meshgrid(np.arange(cap + 1), np.arange(cap + 1), indexing="ij")
        for n in range(self.n_max + 1):
            expect = np.zeros((cap + 1, cap + 1), dtype=bool)
            for a in self.moves:
                if a > n:
                    continue
                legal = dd >= a
                succ = np.zeros_like(expect)
                succ[legal] = self.win[n - a][ee[legal], dd[legal] - a]
                expect |= legal & ~succ
            mism = np.argwhere(expect != self.win[n])
            for d, e in mism[: max(0, limit - len(bad))]:
                bad.append((n, int(d), int(e)))
            if len(bad) >= limit:
                break
        return bad


def _build_cube(moves: MoveSet, n_max: int, cap: int) -> np.ndarray:
    win = np.zeros((n_max + 1, cap + 1, cap + 1), dtype=bool)
    for n in range(moves.a_min, n_max + 1):
        layer = win[n]
        for a in moves:
            if a > n:
                continue
            # successor of (n; d, e) is (n-a; e, d-a): row e, column d-a
            lose_next = ~win[n - a].T  # [d-a, e]
            layer[a:, :] |= lose_next[: cap + 1 - a, :]
    return win


def _plies_bound(moves: MoveSet, n: int) -> int:
    return -(-n // moves.a_min)


def solve_cash(moves: MoveSet, state: CashState, bound: int | None = None) -> SolveResult:
    """Exact winner and winning moves for one state, without the full cube.

    Raises :class:`ResourceLimit` when the stone count exceeds the configured
    bound (default 2048, overridable via ``NIMCASH_MAX_N`` or ``bound``).
    """
    n, d, e = state.clamped()
    _check_solver_bound(n, bound)

    # mover_win[s][x] / opp_win[s][x]: does the side to move win with s stones
    # left, given the root's mover has spent x so far (opponent spent n-s-x)?
    mover_win: list[np.ndarray] = []
    opp_win: list[np.ndarray] = []
    for s in range(n + 1):
        t = n - s
        x = np.arange(t + 1)
        wm = np.zeros(t + 1, dtype=bool)
        wo = np.zeros(t + 1, dtype=bool)
        for a in moves:
            if a > s:
                continue
            afford_m = x <= d - a
            wm |= afford_m & ~opp_win[s - a][x + a]
            afford_o = (e - (t - x)) >= a
            wo |= afford_o & ~mover_win[s - a][x]
        mover_win.append(wm)
        opp_win.append(wo)

    wins = tuple(
        a for a in moves if a <= min(n, d) and not opp_win[n - a][a]
    )
    winner = Winner.MOVER if wins else Winner.OPPONENT
    return SolveResult(winner, wins, _plies_bound(moves, n))


def wins_normally(moves: MoveSet, n: int, d: Funds, bound: int | None = None) -> bool:
    """Does the mover win ``(n; d, UF)``, i.e. with this budget against a rich opponent?"""
    result = solve_cash(moves, CashState(n, d, UNLIMITED), bound=bound)
    return result.winner is Winner.MOVER


def wins_miserly(moves: MoveSet, state: CashState, who: Winner) -> bool:
    """Does ``who`` win when forced to remove the minimum amount every turn?

    The designated player must play ``min(A)`` whenever it is their turn and
    loses on the spot if they cannot; the other player ranges over all legal
    replies.  ``who`` names the designated player relative to ``state``.
    """
    n, d, e = state.clamped()
    a1 = moves.a_min
    if who is Winner.MOVER:
        des_funds, free_funds, des_to_move = d, e, True
    else:
        des_funds, free_funds, des_to_move = e, d, False

    # des_turn[s][k] / free_turn[s][k]: designated player wins with s stones
    # left after k designated moves (so the free side has spent n-s-k*a1)?
    des_turn: dict[tuple[int, int], bool] = {}
    free_turn: dict[tuple[int, int], bool] = {}
    for s in range(n + 1):
        t = n - s
        for k in range(t // a1 + 1):
            if des_funds - k * a1 < a1 or s < a1:
                des_turn[(s, k)] = False
            else:
                des_turn[(s, k)] = free_turn[(s - a1, k + 1)]
            free_left = free_funds - (t - k * a1)
            replies = [a for a in moves if a <= s and a <= free_left]
            if not replies:
                free_turn[(s, k)] = True
            else:
                free_turn[(s, k)] = all(des_turn[(s - a, k)] for a in replies)
    return des_turn[(n, 0)] if des_to_move else free_turn[(n, 0)]


def best_move(moves: MoveSet, state: CashState, bound: int | None = None) -> int | None:
    """Smallest winning move, or None when the mover is lost."""
    result = solve_cash(moves, state, bound=bound)
    return min(result.winning_moves) if result.winning_moves else None
