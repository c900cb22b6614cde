"""Budget thresholds that split positions into rich, poor, and critical regimes.

For each stone count ``n`` there are two pairs of cutoffs:

* ``rich_i(n)`` / ``rich_ii(n)``: the least budget with which Player I
  (respectively II) can force a win against an opponent whose budget never
  binds.  At or above the cutoff a player is *rich* and the winner follows
  from the cutoffs alone.
* ``poor_i(n)`` / ``poor_ii(n)``: closed-form cutoffs (depending only on the
  minimum removal amount, read by :func:`poor_thresholds`) below which a
  player is *poor*; poor games are decided by comparing how many minimum
  moves each side can still afford.

Positions where neither rule applies (each player between their cutoffs) are
*critical*: the rectangle ``[poor_i, rich_i) x [poor_ii, rich_ii)`` of each
layer, empty when a poor cutoff reaches its rich one, listed for a whole
range of ``n`` by :func:`~nimcash.periodicity.critical_scan` and handled by
the periodicity machinery.

:func:`regime` is the one place that compares budgets with the cutoffs, and
the one decider of this module: callers read its region and mover-wins
directly.  The rich cutoffs come from ``cutoffs(n)`` of
:class:`ThresholdTables` (the recursion, up to ``n_max``) or of a solved
family (the recursion's rows extended by period, any ``n``).

The recursion is memoised per move set (the last 8 move sets are kept):
each row is computed once, in a Python loop, and the memo grows append-only
under a lock to the largest ``n_max`` asked for, 17 bytes per row.
:func:`build_thresholds` is its one reader and returns read-only views of
exactly ``n_max + 1`` rows, so a repeated ``WinEngine`` or CLI call on one
move set costs a slice, not a rebuild.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Protocol

import numpy as np

from .game import MoveSet, _check_funds, _check_stones, clamp_funds
from .errors import OutOfRange


class CutoffSource(Protocol):
    """Where rich cutoffs come from: recursion tables, or a family's rows extended by period."""

    moves: MoveSet

    def cutoffs(self, n: int) -> tuple[int, int, bool]:
        """``(rich_i, rich_ii, standard mover wins)`` at ``n``."""


@dataclass(frozen=True)
class ThresholdTables:
    """Rich-side cutoff arrays for ``0 <= n <= n_max``.

    ``winners[n]`` is True iff the mover wins the plain subtraction game.
    """

    moves: MoveSet
    n_max: int
    winners: np.ndarray
    rich_i: np.ndarray
    rich_ii: np.ndarray

    def check_range(self, n: int) -> None:
        """OutOfRange unless ``0 <= n <= n_max``; NonPositiveValue for a non-integer ``n``."""
        if not 0 <= _check_stones(n) <= self.n_max:
            raise OutOfRange(f"n={n} outside table range 0..{self.n_max}")

    def cutoffs(self, n: int) -> tuple[int, int, bool]:
        """``(rich_i, rich_ii, standard mover wins)`` at ``n``; OutOfRange past the table."""
        self.check_range(n)
        return int(self.rich_i[n]), int(self.rich_ii[n]), bool(self.winners[n])


class PoorCutoffs(NamedTuple):
    """``(poor_i, poor_ii)`` at one ``n``: below them a player is poor."""

    poor_i: int
    poor_ii: int


class Region(Enum):
    """Total classification of a position by the two cutoff pairs."""

    RICH_I = "rich-I"
    RICH_II = "rich-II"
    RICH_BOTH = "rich-both"
    POOR_I = "poor-I"
    POOR_II = "poor-II"
    POOR_BOTH = "poor-both"
    CRITICAL = "critical"

    @property
    def rich(self) -> bool:
        return self in (Region.RICH_I, Region.RICH_II, Region.RICH_BOTH)


# Region of each regime code 4*rich_d + 8*rich_e + poor_d + 2*poor_e: once a
# player is rich, nobody's poverty matters.
_REGION_BY_CODE = np.array(
    [Region.CRITICAL, Region.POOR_II, Region.POOR_I, Region.POOR_BOTH]
    + [Region.RICH_I] * 4 + [Region.RICH_II] * 4 + [Region.RICH_BOTH] * 4,
    dtype=object,
)


class Regime(NamedTuple):
    """What the cutoffs say about one position, or about a grid of positions.

    ``code`` and ``mover_wins`` are scalars for scalar budgets, and arrays of
    the budgets' broadcast shape for array budgets; ``region`` is then an
    object array of :class:`Region` members.  ``mover_wins`` is False on
    critical cells, which the cutoffs leave open.
    """

    code: int | np.ndarray
    mover_wins: bool | np.ndarray

    @property
    def region(self) -> Region | np.ndarray:
        return _REGION_BY_CODE[self.code]

    @property
    def critical(self) -> bool | np.ndarray:
        return self.code == 0


#: Rows computed per pass of the Python loop; bounds its transient lists.
_CHUNK = 4096


class _Recursion:
    """The cutoff recursion for one move set, grown on demand.

    ``rows`` is ``(winners, rich_i, rich_ii)`` over ``0..top``.  Growth to
    ``n`` computes only the rows ``top+1..n`` into fresh arrays and
    publishes them read-only in one assignment, so an array once read never
    changes.
    """

    def __init__(self, moves: MoveSet) -> None:
        self.moves = moves
        self.rows = tuple(np.zeros(0, dtype=t) for t in (bool, np.int64, np.int64))
        self._lock = threading.Lock()

    def grow(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row arrays, holding at least the rows ``0..n``."""
        if len(self.rows[0]) <= n:
            with self._lock:
                top = len(self.rows[0])
                if top <= n:
                    rows = tuple(
                        np.concatenate((old, np.empty(n + 1 - top, dtype=old.dtype)))
                        for old in self.rows
                    )
                    for start in range(top, n + 1, _CHUNK):
                        stop = min(start + _CHUNK, n + 1)
                        for arr, part in zip(rows, self._rows(rows, start, stop)):
                            arr[start:stop] = part
                    for arr in rows:
                        arr.flags.writeable = False  # shared by every reader of the memo
                    self.rows = rows
        return self.rows

    def _rows(self, rows: tuple[np.ndarray, ...], start: int, stop: int) -> tuple[list, ...]:
        """Rows ``start..stop-1`` as lists, from the ``max(A)`` rows of ``rows`` below them."""
        moves = self.moves
        base = max(start - moves.a_max, 0)
        win, fi, fii = (arr[base:start].tolist() for arr in rows)
        for m in range(start, stop):
            k = m - base
            legal = [a for a in moves if a <= m]  # none below min(A): all zero
            worst = max((fi[k - a] for a in legal), default=0)
            wins = any(not win[k - a] for a in legal)
            if wins:
                cheapest = min(fii[k - a] + a for a in legal if not win[k - a])
            else:
                cheapest = min((fii[k - a] + a for a in legal if fi[k - a] == worst), default=0)
            win.append(wins)
            fi.append(cheapest)
            fii.append(worst)
        cut = start - base
        return win[cut:], fi[cut:], fii[cut:]


@lru_cache(maxsize=8)
def _recursion(moves: MoveSet) -> _Recursion:
    return _Recursion(moves)


# held over a memo lookup: two first readers of a move set must not build two memos
_LOOKUP = threading.Lock()


def build_thresholds(moves: MoveSet, n_max: int) -> ThresholdTables:
    """The rich-side cutoffs for ``0 <= n <= n_max``, by the defining recursion.

    On a mover-wins position, ``rich_i`` prices the cheapest winning reply
    (opponent's completed cutoff there plus the move's cost) and ``rich_ii``
    completes the loser's side as the worst ``rich_i`` among successors.  On
    a mover-loses position the roles are mirrored: ``rich_ii`` is the worst
    successor ``rich_i``, and the completed ``rich_i`` prices the cheapest
    escape through a successor attaining that worst case.  Below the minimum
    removal both cutoffs are zero.

    The rows are read off the move set's memo (the last 8 move sets are
    kept), which computes each row once; the arrays are read-only views of
    exactly ``n_max + 1`` rows.
    """
    if _check_stones(n_max) < 0:
        raise OutOfRange(f"n_max must be >= 0, got {n_max}")
    with _LOOKUP:
        memo = _recursion(moves)
    winners, rich_i, rich_ii = memo.grow(n_max)
    rows = slice(n_max + 1)
    return ThresholdTables(moves, n_max, winners[rows], rich_i[rows], rich_ii[rows])


def poor_thresholds(moves: MoveSet, n: int) -> PoorCutoffs:
    """Closed-form poor cutoffs; they depend on the move set only through min(A)."""
    n = _check_stones(n)
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    return PoorCutoffs(*_poor_cutoffs(moves.a_min, n))


def _poor_cutoffs(a1: int, n):
    """``(poor_i, poor_ii)`` for ``n`` stones and least move ``a1``: with ``i = n
    mod 2*a1`` and ``h = (n - i)/2``, ``(h + min(i + 1, a1), h + max(0, i - a1 +
    1))``.  Spelled without ``min`` and ``max``, so ``n`` is an int or an int array."""
    i = n % (2 * a1)
    half = (n - i) // 2
    over = (i >= a1) * (i + 1 - a1)  # max(0, i - a1 + 1)
    return half + i + 1 - over, half + over


def regime(moves: MoveSet, n: int, cutoffs: tuple[int, int, bool], d, e) -> Regime:
    """Decide what the cutoffs decide: rich first, then poor, the rest critical.

    ``cutoffs`` is ``(rich_i, rich_ii, standard mover wins)`` for ``n``, from a
    cutoff source.  Budgets are ints of any size, :data:`UNLIMITED`, or
    integer arrays; they are clamped to ``n`` first.  A scalar budget that
    breaks the budget rule raises :class:`NonPositiveValue`; arrays are not
    checked.  A rich player wins against a non-rich one and the standard
    game decides between two rich players.  A poor player loses against a non-poor one, and between two
    poor players whoever can afford strictly more minimum moves wins; the
    mover loses ties.
    """
    fi, fii, standard_wins = cutoffs
    dc = np.minimum(d, n) if isinstance(d, np.ndarray) else clamp_funds(_check_funds(d), n)
    ec = np.minimum(e, n) if isinstance(e, np.ndarray) else clamp_funds(_check_funds(e), n)
    a1 = moves.a_min
    poor_i, poor_ii = poor_thresholds(moves, n)
    rich_d, rich_e = dc >= fi, ec >= fii
    poor_d, poor_e = dc < poor_i, ec < poor_ii
    # complements are spelled as comparisons: ``~`` on a Python bool gives an int
    nobody_rich = (dc < fi) & (ec < fii)
    mover_wins = (rich_d & ((ec < fii) | standard_wins)) | (
        nobody_rich & poor_e & ((dc >= poor_i) | (dc // a1 > ec // a1))
    )
    code = 4 * rich_d + 8 * rich_e + poor_d + 2 * poor_e
    return Regime(code, mover_wins)
