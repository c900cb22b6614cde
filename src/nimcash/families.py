"""Complete win conditions for the solved families, plus two sweep harnesses.

Three families have complete budget-aware win conditions:

* ``{1, L}`` with ``L`` even (modulus ``L + 1``),
* ``{1, L, L+1}`` with ``L`` odd (modulus ``2L + 1``),
* ``{1, L, L+1}`` with ``L`` even (modulus ``2L``).

Each family is data for the generic pipeline: the rows of the cutoff
recursion up to ``max(A) + 2*modulus``, extended to every ``n`` by one
advance per period, and a solution set given as integer rows, one per
residue (:meth:`~nimcash.periodicity.SolutionSet.from_rows`), whose offsets
follow from ``L``.  The period certificate is not written out: period
detection's own routine reads it off the cutoffs over a short window.
Decisions go through the same critical-position step as ``WinEngine``.  The
test suite checks the cutoffs against the paper's closed forms
(``tests/reference.py``), the certificate against period detection, and
the solution sets against the oracle.

Two report-only harnesses cover open territory.  ``conjecture_check`` probes
interval sets ``{L..M}`` for an offset beyond which the cutoffs repeat with
a fixed slope, and compares a conjectured piecewise solution set against the
oracle; disagreements are returned as data, never raised.  ``appendix_check``
compares computed cutoffs for ``{3,5,6,10,11}`` against a bundled reference
table of 32 congruence rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BadParams, OutOfRange
from .game import Funds, MoveSet, Winner, _check_stones, _integer, new_move_set
from .periodicity import (
    CSTriple,
    PeriodCertificate,
    SolutionSet,
    _period_columns,
    _settle,
    _try_period,
    critical_scan,
)
from .thresholds import build_thresholds

ONE_L = "1,L (L even)"
ONE_L_L1_ODD = "1,L,L+1 (L odd)"
ONE_L_L1_EVEN = "1,L,L+1 (L even)"


@dataclass(frozen=True)
class FamilyKind:
    """A solved family instance; ``half`` is floor(L/2)."""

    label: str
    L: int
    moves: MoveSet
    modulus: int
    half: int

    def __post_init__(self) -> None:
        # hashed once, by the move set that determines the kind: ``family_solution``
        # looks the kind up on every call
        object.__setattr__(self, "_hash", hash(self.moves))

    def __hash__(self) -> int:
        return self._hash


def one_l(L: int) -> FamilyKind:
    """The family {1, L}; only even L >= 2 is supported (odd L collapses to {1})."""
    if L < 2 or L % 2:
        raise BadParams(f"{{1,L}} needs even L >= 2, got L={L}")
    return FamilyKind(ONE_L, L, new_move_set([1, L]), L + 1, L // 2)


def one_l_l1(L: int) -> FamilyKind:
    """The family {1, L, L+1} for L >= 2; the modulus depends on L's parity."""
    if L < 2:
        raise BadParams(f"{{1,L,L+1}} needs L >= 2, got L={L}")
    moves = new_move_set([1, L, L + 1])
    if L % 2:
        return FamilyKind(ONE_L_L1_ODD, L, moves, 2 * L + 1, L // 2)
    return FamilyKind(ONE_L_L1_EVEN, L, moves, 2 * L, L // 2)


def recognize_family(moves: MoveSet) -> FamilyKind | None:
    """Match a move set against the solved families."""
    vals = moves.values
    if len(vals) == 2 and vals[0] == 1 and vals[1] % 2 == 0:
        return one_l(vals[1])
    if len(vals) == 3 and vals[0] == 1 and vals[2] == vals[1] + 1 and vals[1] >= 2:
        return one_l_l1(vals[1])
    return None


@dataclass(frozen=True)
class FamilySolution:
    """One solved family as data: its cutoff rows and its solution set.

    Construction reads the cutoff recursion once, up to ``max(A) + 2*modulus``,
    and checks that each row from ``max(A)`` on is the row one period back
    raised by one constant advance, on both cutoffs and with the same
    standard winner.  The recursion reads ``max(A)`` rows back and allows
    every move from ``max(A)`` on, so these ``modulus + 1 >= max(A)`` rows
    carry the advance to every ``n`` by induction.  The period certificate
    is read off the cutoffs by period detection's routine.
    """

    kind: FamilyKind
    solution_set: SolutionSet
    moves: MoveSet = field(init=False, repr=False, compare=False)
    # (rich_i, rich_ii, mover wins) as plain ints for n < max(A) + modulus
    _rows: tuple[tuple[int, int, bool], ...] = field(init=False, repr=False, compare=False)
    _advance: int = field(init=False, repr=False, compare=False)
    _solution: tuple[PeriodCertificate, SolutionSet] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        moves, m = self.kind.moves, self.kind.modulus
        head = moves.a_max
        t = build_thresholds(moves, head + 2 * m)
        rows = tuple(zip(t.rich_i.tolist(), t.rich_ii.tolist(), t.winners.tolist()))
        advance = rows[head + m][0] - rows[head][0]
        raised = [(fi + advance, fii + advance, wins) for fi, fii, wins in rows[head : head + m + 1]]
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "_rows", rows[: head + m])
        object.__setattr__(self, "_advance", advance)
        # one sample per residue and move past the head: the check makes the rest equal
        columns = _period_columns(t, 2 * head + m)
        cert = _try_period(moves, columns, m, 0) if raised == list(rows[head + m :]) else None
        if cert is None:
            raise AssertionError(f"cutoffs of {self.kind.label} are not {m}-periodic")
        object.__setattr__(self, "_solution", (cert, self.solution_set))

    def cutoffs(self, n: int) -> tuple[int, int, bool]:
        """``(rich_i, rich_ii, standard mover wins)``: a stored row, or past the
        stored rows the row ``k`` periods back raised by ``k`` advances."""
        if _check_stones(n) < 0:
            raise OutOfRange(f"n must be >= 0, got {n}")
        if n < len(self._rows):
            return self._rows[n]
        head = self.moves.a_max
        k, i = divmod(n - head, self.kind.modulus)
        fi, fii, wins = self._rows[head + i]
        return fi + k * self._advance, fii + k * self._advance, wins

    def rich_pair(self, n: int) -> tuple[int, int]:
        return self.cutoffs(n)[:2]

    def certificate(self) -> PeriodCertificate:
        """The family's period data in certificate form, shared and read-only.

        ``verified_up_to`` is 0: the construction's check covers every ``n``,
        not a bounded sweep (the test suite pins the tables against detection).
        """
        return self._solution[0]


@lru_cache(maxsize=None)
def family_solution(kind: FamilyKind) -> FamilySolution:
    """One family instance: its cutoff rows, read off the recursion once, and its
    solution set, a step ``s`` and one row ``(p_i, q_i)`` per residue
    (:meth:`SolutionSet.from_rows`) generated from ``L``."""
    L, half, m = kind.L, kind.half, kind.modulus
    if kind.label == ONE_L:
        step = L - 1  # residues 0, 2, .., L - 2 are the standard losers
        rows = [(0, step - 1) if i < L - 1 and i % 2 == 0 else (0, -1) for i in range(m)]
    elif kind.label == ONE_L_L1_ODD:
        step = L
        rows = [  # (half, L - 1) on even i below L + 1 and on odd i above it
            (0, -1) if i == L + 1 else (half, L - 1) if (i < L + 1) == (i % 2 == 0)
            else (0, half - 1)
            for i in range(m)
        ]
    else:
        step = half
        rows = [(0, -1) if i % 2 or i == L else (0, step - 1) for i in range(m)]
    return FamilySolution(kind, SolutionSet.from_rows(step, rows, kind.moves))


def _check_interval(L: int, M: int) -> None:
    if not 1 <= _integer(L, None, "move amounts") <= _integer(M, None, "move amounts"):
        raise BadParams(f"need 1 <= L <= M, got L={L} M={M}")


def range_standard(L: int, M: int, n: int) -> Winner:
    """Standard-game winner for the interval set {L..M}."""
    _check_interval(L, M)
    if _check_stones(n) < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    return Winner.OPPONENT if n % (L + M) < L else Winner.MOVER


def family_standard(kind_or_range: FamilyKind | tuple[int, int], n: int) -> Winner:
    """Standard-game winner by residue, for a family or an interval (L, M)."""
    if _check_stones(n) < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    if isinstance(kind_or_range, tuple):
        return range_standard(*kind_or_range, n)
    return Winner.MOVER if family_solution(kind_or_range).cutoffs(n)[2] else Winner.OPPONENT


def family_win(kind: FamilyKind, n: int, d: Funds, e: Funds) -> Winner:
    """Complete win condition for a solved family, in time polylog in (n, d, e).

    Pipeline: rich cutoffs first, then poor cutoffs, then solution-set
    membership of the corresponding state for the critical remainder, all
    measured from the family's cutoffs.
    """
    if _check_stones(n) < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    sol = family_solution(kind)
    return Winner.MOVER if _settle(sol, sol._solution, n, d, e)[2] else Winner.OPPONENT


# --------------------------------------------------------------------------
# Interval-set conjecture sweep (report-only)
# --------------------------------------------------------------------------

class XCounterexample(NamedTuple):
    n: int
    d: int
    e: int
    cs: CSTriple
    oracle_winner: Winner
    conjectured_member: bool


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one {L..M} sweep; findings are data, not assertions.

    ``theta`` is the least offset from which both cutoffs advance by M every
    L+M stones, or None when no such offset leaves at least three clean
    periods before ``n_max``.  ``x_counterexamples`` lists critical positions
    where the conjectured piecewise solution set disagrees with the oracle.
    """

    L: int
    M: int
    n_max: int
    critical_n_max: int
    theta: int | None
    theta_bound: int
    bound_holds: bool | None
    special_case_holds: bool | None
    critical_checked: int
    x_counterexamples: tuple[XCounterexample, ...]

    @property
    def clean(self) -> bool:
        return (
            self.theta is not None
            and bool(self.bound_holds)
            and self.special_case_holds is not False
            and not self.x_counterexamples
        )


def interval_cs_member(L: int, M: int, i, b, b2):
    """Conjectured solution-set rule for {L..M} over (residue, gaps), ints or
    arrays: ``b // L <= (b2 - shift) // L``, the shift 0 on residues below ``L``
    or from ``3L`` on, ``L`` below ``2L``, and ``3L - i - 1`` in between."""
    shift = np.where((i < L) | (i >= 3 * L), 0, np.where(i < 2 * L, L, 3 * L - i - 1))
    return b // L <= (b2 - shift) // L


def conjecture_check(
    L: int,
    M: int,
    n_max: int = 360,
    critical_n_max: int | None = None,
) -> ConjectureReport:
    """Sweep {L..M}: detect the cutoff offset and test the conjectured rule.

    The offset scan needs ``n_max`` large enough for three periods of length
    ``L + M`` past the candidate offset; the solution-set comparison reads
    the staircase oracle on all critical positions with
    ``n <= critical_n_max`` (default ``min(n_max, 120)``).
    """
    _check_interval(L, M)
    period = L + M
    if _check_stones(n_max) < 4 * period:
        raise BadParams(f"n_max={n_max} leaves fewer than three periods of {period}")
    if critical_n_max is None:
        critical_n_max = min(n_max, 120)
    if not 0 <= _check_stones(critical_n_max) <= n_max:
        raise BadParams(f"critical_n_max must be in 0..n_max={n_max}, got {critical_n_max}")

    moves = new_move_set(range(L, M + 1))
    tables = build_thresholds(moves, n_max)
    cut = np.stack([tables.rich_i, tables.rich_ii])[:, : n_max + 1].astype(np.int64)
    # the n at which a cutoff at n + period is not the one at n raised by M
    bad_n = np.flatnonzero((cut[:, period:] != cut[:, :-period] + M).any(axis=0))
    theta: int | None = int(bad_n[-1]) + 1 if bad_n.size else 0
    if theta > n_max - 3 * period:
        theta = None

    bound = 5 * (M - L) ** 2 + 2
    bound_holds = None if theta is None else theta <= bound
    if theta is None:
        special: bool | None = None
    elif M >= 2 * L:
        special = theta == 2 * (L + 1)
    else:
        special = True

    n, d, e, mover_gap, opp_gap, wins = critical_scan(tables, critical_n_max)
    residue = n % period
    k = np.flatnonzero(interval_cs_member(L, M, residue, mover_gap, opp_gap) != wins)
    # where the rule disagrees, the conjectured member is `not wins`
    bad = tuple(
        XCounterexample(nk, dk, ek, CSTriple(r, g, h), Winner.MOVER if w else Winner.OPPONENT,
                        not w)
        for nk, dk, ek, r, g, h, w in zip(
            *(col[k].tolist() for col in (n, d, e, residue, mover_gap, opp_gap, wins))
        )
    )
    return ConjectureReport(
        L, M, n_max, critical_n_max, theta, bound, bound_holds, special,
        n.size, bad,
    )


# --------------------------------------------------------------------------
# Reference congruence table for {3, 5, 6, 10, 11}
# --------------------------------------------------------------------------

REFERENCE_MOVES = (3, 5, 6, 10, 11)

# (slope, intercept) per residue mod 16: cutoff(16k + r) = slope*k + intercept,
# tabulated for k >= 4; the head below n = 64 follows no congruence pattern.
REFERENCE_RICH_I_ROWS = (
    (11, 3), (10, 3), (11, 5), (10, 5), (10, 3), (11, 3), (10, 5), (10, 6),
    (11, 6), (10, 8), (11, 10), (10, 10), (10, 8), (11, 11), (10, 10), (10, 11),
)
REFERENCE_RICH_II_ROWS = (
    (11, 0), (10, 0), (11, 0), (11, 3), (11, -1), (11, 5), (11, 3), (11, 5),
    (11, 5), (10, 5), (11, 3), (11, 6), (11, 5), (11, 10), (11, 6), (11, 10),
)


@dataclass(frozen=True)
class AppendixMismatch:
    table: str
    n: int
    computed: int
    tabulated: int


@dataclass(frozen=True)
class AppendixReport:
    """Comparison of computed cutoffs against the 32 reference rows.

    ``head`` lists the computed cutoffs for n <= 63 verbatim, the range the
    reference itself declares patternless.
    """

    k_max: int
    mismatches: tuple[AppendixMismatch, ...]
    head: tuple[tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def appendix_check(k_max: int = 12) -> AppendixReport:
    """Compare computed cutoffs for {3,5,6,10,11} with the reference rows.

    Checks every residue row for ``4 <= k <= k_max`` and reports each cell
    that deviates; the head (n <= 63) is reported as data, not checked.
    """
    if _integer(k_max, None, "period counts") < 4:
        raise BadParams(f"k_max must be >= 4, got {k_max}")
    moves = new_move_set(REFERENCE_MOVES)
    tables = build_thresholds(moves, 16 * k_max + 15)
    bad: list[AppendixMismatch] = []
    for k in range(4, k_max + 1):
        for r in range(16):
            n = 16 * k + r
            slope, intercept = REFERENCE_RICH_I_ROWS[r]
            if tables.rich_i[n] != slope * k + intercept:
                bad.append(
                    AppendixMismatch("rich_i", n, int(tables.rich_i[n]), slope * k + intercept)
                )
            slope, intercept = REFERENCE_RICH_II_ROWS[r]
            if tables.rich_ii[n] != slope * k + intercept:
                bad.append(
                    AppendixMismatch("rich_ii", n, int(tables.rich_ii[n]), slope * k + intercept)
                )
    head = tuple(
        (n, int(tables.rich_i[n]), int(tables.rich_ii[n])) for n in range(64)
    )
    return AppendixReport(k_max, tuple(bad), head)
