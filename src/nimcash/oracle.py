"""Exact solvers for the cash game and the plain subtraction game.

Two representations of the same winner function:

* :func:`staircase` is the production oracle; every exact read in the
  package goes through it.  Cash is monotone: more money never hurts the
  mover, and more money never hurts the opponent.  So the mover's wins in a
  layer form a staircase, and one int per ``(n, d)`` describes it:
  ``B[n][d]``, the least opponent budget at which the mover loses
  ``(n; d, .)``, or ``n+1`` if there is none.  The mover wins ``(n; d, e)``
  exactly when ``min(e, n) < B[n][min(d, n)]``, so a whole layer is one
  broadcast compare.  A move ``a`` wins when the successor ``(n-a; e, d-a)``
  is lost for its mover, i.e. when ``B[n-a][e] <= d-a``; for a fixed ``d``
  that holds exactly for the ``e`` below ``searchsorted(B[n-a], d-a,
  'right')``, so a layer is the max over affordable moves of one
  ``searchsorted`` each.  One staircase per move set is kept (the last 8
  move sets), grown append-only up to the queried ``n`` under a lock, with
  read-only layers: O(n^2) small ints, built once, then O(|A|) reads per
  query.  :func:`solve_cash` answers single positions from it.
* :class:`CashTable` materializes the dense winner cube ``win[n, d, e]`` with
  numpy, bottom-up in ``n``.  It is O(n^3) and assumes nothing about the
  shape of a layer, which makes it the independent reference that the
  staircase and every fast path are checked against; no production path
  reads it.  :meth:`CashTable.audit_soundness` rechecks the cube's fixpoint
  at every cell with a second derivation: it gathers each successor by its
  flat index, one ``np.take`` per move over blocks of layers, and never
  reuses the build's transposed shifted-slice update.

Why the staircase form holds: by induction on ``n``.  Layers below ``min(A)``
are all losses.  If the layers below are staircases, the wins via one move
are a prefix of opponent budgets whose length grows with ``d`` (more money
affords the same moves and beats more successor thresholds), and a union of
such prefixes is again one.  The staircase does not check this about itself:
``tests/test_properties.py::test_cash_monotonicity`` and acceptance row C10
check both monotonicities on the dense cube, and the tests compare the
staircase layer by layer with the dense cube and with ``tests/reference.py``.

Budgets are clamped to the stone count on entry everywhere (a budget >= n is
indistinguishable from an unlimited one).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParams, OutOfRange, ResourceLimit
from .game import CashState, Funds, MoveSet, Winner, _check_stones, clamp_funds
from .thresholds import build_thresholds

#: Environment variable overriding the default single-query solver bound.
BOUND_ENV_VAR = "NIMCASH_MAX_N"
DEFAULT_BOUND = 2048


def _solver_bound(bound: int | None) -> int:
    """``bound``, else ``NIMCASH_MAX_N``, else the default; the one reader of the variable."""
    if bound is not None:
        return _check_stones(bound)
    text = os.environ.get(BOUND_ENV_VAR, str(DEFAULT_BOUND))
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"{BOUND_ENV_VAR} must be an integer, got {text!r}") from None


def _check_solver_bound(n: int, bound: int | None = None) -> None:
    limit = _solver_bound(bound)
    if n > limit:
        raise ResourceLimit(f"n={n} exceeds solver bound {limit} ({BOUND_ENV_VAR})")


@dataclass(frozen=True)
class SolveResult:
    """Winner plus every winning first move (empty iff the mover loses)."""

    winner: Winner
    winning_moves: tuple[int, ...]
    plies_bound: int


def standard_winners(moves: MoveSet, n_max: int) -> np.ndarray:
    """Read-only boolean array over n: True iff the player to move wins with no
    budgets; the ``winners`` rows of the move set's cutoff-recursion memo."""
    return build_thresholds(moves, n_max).winners


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
        if _check_stones(n_max) < 0:
            raise OutOfRange(f"n_max must be >= 0, got {n_max}")
        self.moves = moves
        self.n_max = n_max
        self.cap = n_max if cap is None else _check_stones(cap)
        if self.cap < 0:
            raise OutOfRange(f"cap must be >= 0, got {cap}")
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
        a loss.  The check re-derives the cube by gathering each successor
        by index: with a layer flattened row-major, the successor of
        ``(n; d, e)`` under move ``a`` is cell ``e*(cap+1) + (d-a)`` of layer
        ``n - a``.  One flat index over ``d - a``, ``e`` serves every move
        (move ``a`` reads its first ``cap+1-a`` rows, the legal ``d >= a``),
        and one ``np.take`` per move gathers a whole block of layers.
        Blocks hold at most ``1 << 18`` cells (one layer at least), which
        bounds every temporary.  The audit never calls ``_build_cube`` nor
        reads a transposed layer, so it stays independent of the
        shifted-slice construction it checks.  Offending states come in
        ``(n, d, e)`` row-major order, at most ``limit`` of them.
        """
        bad: list[tuple[int, int, int]] = []
        if limit <= 0:
            return bad
        side = self.cap + 1
        flat = self.win.reshape(self.n_max + 1, side * side)
        # row d - a, column e: the successor's cell e*side + (d - a)
        succ_index = (np.arange(side) * side + np.arange(side)[:, None]).ravel()
        rows = max(1, (1 << 18) // (side * side))
        for lo in range(0, self.n_max + 1, rows):
            hi = min(lo + rows, self.n_max + 1)
            expect = np.zeros((hi - lo, side * side), dtype=bool)
            for a in self.moves:
                if a >= side or a >= hi:
                    continue  # no legal d in the cube, or no layer of the block
                start = max(lo, a)
                succ = np.take(flat[start - a : hi - a], succ_index[: (side - a) * side], axis=1)
                expect[start - lo :, a * side :] |= ~succ
            for row, cell in np.argwhere(expect != flat[lo:hi]).tolist():
                bad.append((lo + row, *divmod(cell, side)))
                if len(bad) == limit:
                    return bad
        return bad


def _build_cube(moves: MoveSet, n_max: int, cap: int) -> np.ndarray:
    win = np.zeros((n_max + 1, cap + 1, cap + 1), dtype=bool)
    for n in range(moves.a_min, n_max + 1):
        layer = win[n]
        for a in moves:
            if a > n or a > cap:
                continue  # a > cap: no budget in the cube affords a
            # successor of (n; d, e) is (n-a; e, d-a): row e, column d-a
            lose_next = ~win[n - a].T  # [d-a, e]
            layer[a:, :] |= lose_next[: cap + 1 - a, :]
    return win


def _plies_bound(moves: MoveSet, n: int) -> int:
    return -(-n // moves.a_min)


_INT16_MAX = np.iinfo(np.int16).max


class _Staircase:
    """Per-layer thresholds ``B[s][d]`` for one move set, grown on demand.

    ``layers[s][d]`` for ``0 <= d <= s`` is the least opponent budget (at most
    ``s``) at which the mover loses ``(s; d, .)``, and ``s+1`` if there is
    none.  Layers are only ever appended, so a layer once read never changes.
    """

    def __init__(self, moves: MoveSet) -> None:
        self.moves = moves
        self.layers: list[np.ndarray] = []
        self._lock = threading.Lock()

    def grow(self, n: int) -> list[np.ndarray]:
        """The layer list, holding at least the layers ``0..n``."""
        if len(self.layers) <= n:
            with self._lock:
                for s in range(len(self.layers), n + 1):
                    self.layers.append(self._layer(s))
        return self.layers

    def _layer(self, s: int) -> np.ndarray:
        layer = np.zeros(s + 1, dtype=np.int16 if s + 1 <= _INT16_MAX else np.int32)
        for a in self.moves:
            if a > s:
                break
            # wins via a for (s; d, e), d >= a: e below the count of successor
            # thresholds B[s-a][x] <= d-a; all of them means every e
            below = self.layers[s - a]
            k = np.searchsorted(below, np.arange(s - a + 1, dtype=below.dtype), side="right")
            k[k > s - a] = s + 1
            np.maximum(layer[a:], k, out=layer[a:])
        layer.flags.writeable = False  # shared by every reader of the memo
        return layer


@lru_cache(maxsize=8)
def _staircase(moves: MoveSet) -> _Staircase:
    return _Staircase(moves)


# held over a memo lookup: two first readers of a move set must not build two memos
_LOOKUP = threading.Lock()


def staircase(moves: MoveSet, n: int) -> list[np.ndarray]:
    """The memoised read-only layers, at least ``B[0..n]``; ``(s; d, e)`` is a
    mover win exactly when ``min(e, s) < B[s][min(d, s)]``."""
    with _LOOKUP:
        memo = _staircase(moves)
    return memo.grow(n)


def solve_cash(moves: MoveSet, state: CashState, bound: int | None = None) -> SolveResult:
    """Exact winner and winning moves for one state, without the full cube.

    Reads the move set's memoised staircase, growing it to ``state.n`` first.
    Raises :class:`ResourceLimit` when the stone count exceeds the configured
    bound (default 2048, overridable via ``NIMCASH_MAX_N`` or ``bound``).
    """
    n, d, e = state.clamped()
    _check_solver_bound(n, bound)
    layers = staircase(moves, n)
    # a wins iff the successor (n-a; e, d-a) is lost for its mover
    wins = tuple(
        a for a in moves if a <= min(n, d) and layers[n - a][min(e, n - a)] <= d - a
    )
    winner = Winner.MOVER if wins else Winner.OPPONENT
    return SolveResult(winner, wins, _plies_bound(moves, n))


def wins_miserly(moves: MoveSet, state: CashState, who: Winner) -> bool:
    """Does ``who`` win when forced to remove the minimum amount every turn?

    The designated player must play ``min(A)`` whenever it is their turn and
    loses on the spot if they cannot; the other player ranges over all legal
    replies.  ``who`` names the designated player relative to ``state``.
    """
    n, d, e = state.clamped()
    a1 = moves.a_min
    des_funds, free_funds = (d, e) if who is Winner.MOVER else (e, d)
    # des[s][k] / free[s][k]: does the designated player win with s stones
    # left after k designated moves (so the free side has spent n-s-k*a1),
    # with the designated / the free player to move?
    des: list[np.ndarray] = []
    free: list[np.ndarray] = []
    for s in range(n + 1):
        spent = a1 * np.arange((n - s) // a1 + 1)  # the designated side's spending
        if s < a1:
            des.append(np.zeros(spent.size, dtype=bool))
        else:
            des.append((des_funds - spent >= a1) & free[s - a1][1 : spent.size + 1])
        free_left = free_funds - (n - s) + spent
        # an unaffordable move refutes nothing: a free side with no move has lost
        wins = np.ones(spent.size, dtype=bool)
        for a in moves:
            if a > s:
                break
            wins &= (free_left < a) | des[s - a][: spent.size]
        free.append(wins)
    return bool(des[n][0] if who is Winner.MOVER else free[n][0])


def best_move(moves: MoveSet, state: CashState, bound: int | None = None) -> int | None:
    """Smallest winning move, or None when the mover is lost."""
    result = solve_cash(moves, state, bound=bound)
    return min(result.winning_moves) if result.winning_moves else None
