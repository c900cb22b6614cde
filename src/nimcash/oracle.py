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
  reads it.  The build transposes each finished layer once into a
  C-contiguous "successor lost" array and keeps the last ``max(A)`` of them
  (at most ``max(A)*(cap+1)^2`` bytes), so each move's update of a layer is
  one contiguous shifted-slice OR.  :meth:`CashTable.audit_soundness`
  rechecks the cube's fixpoint at every cell with a second derivation that
  gathers each successor by its flat index and each layer once, and never
  reuses the build's transposed layers.  It splits the cube at ``cap``.  A
  head layer ``n < cap`` repeats its clamped cells: a budget above ``n``
  acts as ``n``.  When that holds for the layer and the layers its moves
  reach, the fixpoint on the square ``[0, n]^2`` implies it on the whole
  layer (the lemma in the method's docstring), so the audit compares the
  clamp copies, derives only the square, and re-derives a layer in full
  only where the proof fails.  A body layer ``n >= cap`` is derived in
  full, one ``np.take`` per block of at least ``max(A)`` layers; a move
  reads the gather of this block and of the one before.  Its temporaries
  are at most three blocks of ``max(max(A), 2**18/(cap+1)^2)`` layers, and
  it locates offending cells only in a block that has one.

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
from .game import CashState, Funds, MoveSet, Winner, _check_stones, _integer, clamp_funds
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
        ``n - a``.  Each layer is gathered once and negated in place into
        "successor lost" rows ``x = d - a`` by columns ``e``.

        Head layers ``n < cap`` rest on a lemma.  Let K(n) say ``win[n, d, e]
        == win[n, min(d, n), min(e, n)]`` for all ``d, e <= cap``.  If K(n)
        holds, K(n - a) holds for every move ``a <= n``, and the fixpoint
        holds on the square ``d, e <= n``, then it holds on all of layer
        ``n``.  Proof: a move ``a <= n`` is legal at ``d`` exactly when it is
        legal at ``min(d, n)``; by K(n - a) the successor ``(n - a; e, d -
        a)`` reads ``(n - a; min(e, n - a), min(d, n) - a)``, which is what
        the clamped cell's successor reads; by K(n) the cell equals its
        clamped cell.  So a head layer checks K(n) by contiguous compares
        (rows ``d > n`` equal row ``n``; on rows ``d <= n``, each column ``e >
        n`` equals the one before) and derives only its square, from
        gathers of rows ``x <= n`` over the columns ``e < n + 1 + max(A)``
        that later layers read.  A layer proved so has nothing to locate.
        Any other head layer is re-derived in full from whole gathers of the
        layers ``n - a``, and only that derivation reports cells.

        Body layers ``n >= cap``, all of a thin cube, clamp nothing.  One
        ``np.take`` per block of ``max(max(A), 2**18 / (cap+1)**2)`` layers
        gathers the block, and every move reads that one gather (move ``a``
        reads its first ``cap+1-a`` rows, the legal ``d >= a``).  A move
        reaches back at most into the block before, whose gather is kept, so
        each move is at most two contiguous ORs; the first block reads the
        last ``max(A)`` head layers, which are gathered in full for it.  The
        temporaries are three blocks: the previous gather, this gather and
        the expected block.  Each block is compared with the cube once;
        offending cells are located (a 2-D ``nonzero``) only in a block where
        the comparison found one.

        The audit never calls ``_build_cube``, nor reads or makes a
        transposed layer, so it stays independent of the shifted-slice
        construction it checks.  Offending states come in ``(n, d, e)``
        row-major order, at most ``limit`` of them; ``limit`` is an integer,
        and one below 1 returns no state.
        """
        bad: list[tuple[int, int, int]] = []
        limit = _integer(limit, None, "audit limits")
        if limit <= 0:
            return bad
        moves, a_max, side = self.moves, self.moves.a_max, self.cap + 1
        flat = self.win.reshape(self.n_max + 1, side * side)
        # row d - a, column e: the successor's cell e*side + (d - a)
        succ_index = np.arange(side) * side + np.arange(side)[:, None]
        head = min(self.cap, self.n_max + 1)  # layers n < cap, whose budgets clamp
        # the body's first block reads the last max(A) head layers, gathered in full
        prev = np.zeros((a_max, side * side), dtype=bool) if 0 < head <= self.n_max else None
        clamped: list[bool] = []  # K(n) of each head layer
        lost: dict[int, np.ndarray] = {}  # "successor lost" rows of the last max(A) layers
        for n in range(head):
            layer = self.win[n]
            clamped.append(
                bool((layer[n + 1 :] == layer[n]).all())
                and bool((layer[: n + 1, n + 1 :] == layer[: n + 1, n:-1]).all())
            )
            expect = np.zeros((n + 1, n + 1), dtype=bool)  # the fixpoint on [0, n]^2
            for a in moves:
                if a > n:
                    break
                expect[a:] |= lost[n - a][: n + 1 - a, : n + 1]
            proved = (
                clamped[n]
                and all(clamped[n - a] for a in moves if a <= n)
                and np.array_equal(expect, layer[: n + 1, : n + 1])
            )
            if not proved:
                for d, e in np.argwhere(self._wrong_layer(n, flat, succ_index)).tolist():
                    bad.append((n, d, e))
                    if len(bad) == limit:
                        return bad
            if prev is not None and n >= head - a_max:
                g = prev[n - head + a_max].reshape(side, side)
                np.take(flat[n], succ_index, out=g)
            else:  # the rows x <= n that the layers up to n + max(A) read
                g = np.take(flat[n], succ_index[: n + 1, : n + 1 + a_max])
            lost[n] = np.logical_not(g, out=g)
            lost.pop(n - a_max, None)
        succ_index = succ_index.ravel()
        rows = max(a_max, (1 << 18) // (side * side), 1)
        for lo in range(head, self.n_max + 1, rows):
            hi = min(lo + rows, self.n_max + 1)
            cur = np.take(flat[lo:hi], succ_index, axis=1)
            np.logical_not(cur, out=cur)
            expect = np.zeros((hi - lo, side * side), dtype=bool)
            for a in moves:
                if a >= side or a >= hi:
                    continue  # no legal d in the cube, or no layer of the block
                cells = (side - a) * side
                if prev is not None:  # layers lo..lo+a-1 reach back into prev
                    k, back = min(a, hi - lo), len(prev) - a
                    expect[:k, a * side :] |= prev[back : back + k, :cells]
                if a < hi - lo:  # layers lo+a..hi-1 reach into this block
                    expect[a:, a * side :] |= cur[: hi - lo - a, :cells]
            prev = cur
            wrong = np.not_equal(expect, flat[lo:hi], out=expect)
            if not wrong.any():
                continue  # a clean block: nothing to locate
            for row, cell in np.argwhere(wrong).tolist():
                bad.append((lo + row, *divmod(cell, side)))
                if len(bad) == limit:
                    return bad
        return bad

    def _wrong_layer(self, n: int, flat: np.ndarray, succ_index: np.ndarray) -> np.ndarray:
        """The cells of head layer ``n`` that break the fixpoint, by the full
        derivation: each move ORs in the whole gather of layer ``n - a``."""
        side = self.cap + 1
        expect = np.zeros((side, side), dtype=bool)
        for a in self.moves:
            if a > n:
                break
            expect[a:] |= ~np.take(flat[n - a], succ_index[: side - a])
        return expect != self.win[n]


def _build_cube(moves: MoveSet, n_max: int, cap: int) -> np.ndarray:
    win = np.zeros((n_max + 1, cap + 1, cap + 1), dtype=bool)
    # lose_t[s][d - a, e]: the successor (s; e, d - a) is lost for its mover.
    # Each layer is transposed once, C-contiguous, and kept while a move can
    # reach it (the last max(A) layers), so every update is a contiguous OR.
    lose_t: dict[int, np.ndarray] = {}
    for n in range(n_max + 1):
        layer = win[n]
        for a in moves:
            if a > n or a > cap:
                continue  # a > cap: no budget in the cube affords a
            layer[a:, :] |= lose_t[n - a][: cap + 1 - a, :]
        lose_t[n] = np.ascontiguousarray((~layer).T)
        lose_t.pop(n - moves.a_max, None)
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
    Raises :class:`ResourceLimit` past the solver bound, as :func:`solve_cash`
    does: the recursion keeps about ``n^2 / min(A)`` bytes.
    """
    n, d, e = state.clamped()
    _check_solver_bound(n)
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
