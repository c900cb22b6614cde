"""Budget thresholds that split positions into rich, poor, and critical regimes.

For each stone count ``n`` there are two pairs of cutoffs:

* ``rich_i(n)`` / ``rich_ii(n)``: the least budget with which Player I
  (respectively II) can force a win against an opponent whose budget never
  binds.  At or above the cutoff a player is *rich* and the winner follows
  from the cutoffs alone.
* ``poor_i(n)`` / ``poor_ii(n)``: closed-form cutoffs (depending only on the
  minimum removal amount) below which a player is *poor*; poor games are
  decided by comparing how many minimum moves each side can still afford.

Positions where neither rule applies (each player between their cutoffs) are
*critical*; those are handled by the periodicity machinery.

:func:`regime` is the one place that compares budgets with the cutoffs.  The
rich cutoffs come from ``cutoffs(n)`` of :class:`ThresholdTables` (the
recursion, up to ``n_max``) or of a solved family (closed forms, any ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .game import Funds, MoveSet, Winner, clamp_funds
from .errors import OutOfRange, WrongRegion
from .oracle import standard_winners


@dataclass(frozen=True)
class ThresholdTables:
    """Rich-side cutoff arrays for ``0 <= n <= n_max``.

    ``winners[n]`` is True iff the mover wins the plain subtraction game.
    ``rich_i_move[n]`` records the smallest removal witnessing ``rich_i[n]``
    (-1 where no move is possible), for strategy extraction.
    """

    moves: MoveSet
    n_max: int
    winners: np.ndarray
    rich_i: np.ndarray
    rich_ii: np.ndarray
    rich_i_move: np.ndarray

    def check_range(self, n: int) -> None:
        if n < 0 or n > self.n_max:
            raise OutOfRange(f"n={n} outside table range 0..{self.n_max}")

    def cutoffs(self, n: int) -> tuple[int, int, bool]:
        """``(rich_i, rich_ii, standard mover wins)`` at ``n``; OutOfRange past the table."""
        self.check_range(n)
        return int(self.rich_i[n]), int(self.rich_ii[n]), bool(self.winners[n])


@dataclass(frozen=True)
class PoorThresholds:
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


def build_thresholds(moves: MoveSet, n_max: int) -> ThresholdTables:
    """Compute the rich-side cutoffs by the defining recursion.

    On a mover-wins position, ``rich_i`` prices the cheapest winning reply
    (opponent's completed cutoff there plus the move's cost) and ``rich_ii``
    completes the loser's side as the worst ``rich_i`` among successors.  On
    a mover-loses position the roles are mirrored: ``rich_ii`` is the worst
    successor ``rich_i``, and the completed ``rich_i`` prices the cheapest
    escape through a successor attaining that worst case.  Below the minimum
    removal both cutoffs are zero.
    """
    if n_max < 0:
        raise OutOfRange(f"n_max must be >= 0, got {n_max}")
    winners = standard_winners(moves, n_max)
    a1 = moves.a_min
    rich_i = np.zeros(n_max + 1, dtype=np.int64)
    rich_ii = np.zeros(n_max + 1, dtype=np.int64)
    witness = np.full(n_max + 1, -1, dtype=np.int64)
    for n in range(a1, n_max + 1):
        legal = [a for a in moves if a <= n]
        if winners[n]:
            best = min(
                (rich_ii[n - a] + a, a) for a in legal if not winners[n - a]
            )
            rich_i[n], witness[n] = best
            rich_ii[n] = max(rich_i[n - a] for a in legal)
        else:
            rich_ii[n] = max(rich_i[n - a] for a in legal)
            best = min(
                (rich_ii[n - a] + a, a)
                for a in legal
                if rich_i[n - a] == rich_ii[n]
            )
            rich_i[n], witness[n] = best
    return ThresholdTables(moves, n_max, winners, rich_i, rich_ii, witness)


def poor_thresholds(moves: MoveSet, n: int) -> PoorThresholds:
    """Closed-form poor cutoffs; they depend on the move set only through min(A)."""
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    a1 = moves.a_min
    i = n % (2 * a1)
    half = (n - i) // 2
    return PoorThresholds(half + min(i + 1, a1), half + max(0, i - a1 + 1))


def regime(moves: MoveSet, n: int, cutoffs: tuple[int, int, bool], d, e) -> Regime:
    """Decide what the cutoffs decide: rich first, then poor, the rest critical.

    ``cutoffs`` is ``(rich_i, rich_ii, standard mover wins)`` for ``n``, from a
    cutoff source.  Budgets are ints of any size, :data:`UNLIMITED`, or
    integer arrays; they are clamped to ``n`` first.  A rich player wins
    against a non-rich one and the standard game decides between two rich
    players.  A poor player loses against a non-poor one, and between two
    poor players whoever can afford strictly more minimum moves wins; the
    mover loses ties.
    """
    fi, fii, standard_wins = cutoffs
    dc = np.minimum(d, n) if isinstance(d, np.ndarray) else clamp_funds(d, n)
    ec = np.minimum(e, n) if isinstance(e, np.ndarray) else clamp_funds(e, n)
    g = poor_thresholds(moves, n)
    rich_d, rich_e = dc >= fi, ec >= fii
    poor_d, poor_e = dc < g.poor_i, ec < g.poor_ii
    # complements are spelled as comparisons: ``~`` on a Python bool gives an int
    nobody_rich = (dc < fi) & (ec < fii)
    a1 = moves.a_min
    mover_wins = (rich_d & ((ec < fii) | standard_wins)) | (
        nobody_rich & poor_e & ((dc >= g.poor_i) | (dc // a1 > ec // a1))
    )
    code = 4 * rich_d + 8 * rich_e + poor_d + 2 * poor_e
    return Regime(code, mover_wins)


def classify(tables: ThresholdTables, n: int, d: Funds, e: Funds) -> Region:
    """Assign a position to its regime; rich checks take precedence.

    Budgets are clamped to ``n`` first.  When neither player is rich and
    neither is poor the position is critical: each budget sits in the gap
    between its poor and rich cutoffs.
    """
    return regime(tables.moves, n, tables.cutoffs(n), d, e).region


def rich_winner(tables: ThresholdTables, n: int, d: Funds, e: Funds) -> Winner:
    """Winner when at least one player is rich; raises WrongRegion otherwise."""
    r = regime(tables.moves, n, tables.cutoffs(n), d, e)
    if not r.region.rich:
        raise WrongRegion(f"({n};{d},{e}) is {r.region.value}, not a rich position")
    return Winner.MOVER if r.mover_wins else Winner.OPPONENT


def poor_winner(moves: MoveSet, n: int, d: Funds, e: Funds) -> Winner:
    """Winner when at least one player is poor; raises WrongRegion otherwise.

    Rich cutoffs play no part here: they are set above every clamped budget.
    """
    r = regime(moves, n, (n + 1, n + 1, False), d, e)
    if r.critical:
        raise WrongRegion(f"({n};{d},{e}) has no poor player")
    return Winner.MOVER if r.mover_wins else Winner.OPPONENT


def critical_cells(tables: ThresholdTables, n: int) -> tuple[np.ndarray, ...]:
    """Budgets ``d``, ``e`` and gaps of the critical positions with ``n`` stones.

    Four int arrays in ``(d, e)`` order; the gaps are ``rich_i - 1 - d`` and
    ``rich_ii - 1 - e``.  Critical budgets lie below the rich cutoffs, which
    never exceed ``n``, so the grid searched stops there.
    """
    cutoffs = tables.cutoffs(n)
    fi, fii, _ = cutoffs
    grid = regime(tables.moves, n, cutoffs, np.arange(fi)[:, None], np.arange(fii)[None, :])
    d, e = np.nonzero(grid.critical)
    return d, e, fi - 1 - d, fii - 1 - e
