"""Closed-form solutions for the solved families, plus two sweep harnesses.

Three families have complete budget-aware win conditions:

* ``{1, L}`` with ``L`` even (modulus ``L + 1``),
* ``{1, L, L+1}`` with ``L`` odd (modulus ``2L + 1``),
* ``{1, L, L+1}`` with ``L`` even (modulus ``2L``).

For each, this module bundles the standard-game residue pattern, closed
forms for the rich cutoffs, the residue-indexed cost tables, and a solution
set, all of which must agree exactly with the generic machinery (threshold
recursion, period detection, oracle) — the test suite enforces that.

Two report-only harnesses cover open territory.  ``conjecture_check`` probes
interval sets ``{L..M}`` for an offset beyond which the cutoffs repeat with
a fixed slope, and compares a conjectured piecewise solution set against the
oracle; disagreements are returned as data, never raised.  ``appendix_check``
compares computed cutoffs for ``{3,5,6,10,11}`` against a bundled reference
table of 32 congruence rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParams
from .game import Funds, MoveSet, Winner, new_move_set
from .oracle import CashTable
from .periodicity import CSTriple, PeriodCertificate, SolutionSet
from .thresholds import build_thresholds, critical_cells, regime

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
    """All closed forms for one family instance.

    ``winner_need(n)`` is the budget the standard-game winner needs to win
    rich; ``loser_need(n)`` the loser's completed cutoff.  ``cutoffs``
    orients them into (Player I cutoff, Player II cutoff) and adds the
    standard-game outcome: the family's cutoff source, valid for every n.
    """

    kind: FamilyKind
    loser_residues: frozenset[int]
    cost_i: dict[tuple[int, int], int]
    cost_ii: dict[tuple[int, int], int]
    solution_set: SolutionSet

    def standard_winner(self, n: int) -> Winner:
        if n % self.kind.modulus in self.loser_residues:
            return Winner.OPPONENT
        return Winner.MOVER

    def winner_need(self, n: int) -> int:
        return _winner_need(self.kind, n)

    def loser_need(self, n: int) -> int:
        return _loser_need(self.kind, n)

    def cutoffs(self, n: int) -> tuple[int, int, bool]:
        """``(rich_i, rich_ii, standard mover wins)`` from the closed forms."""
        if self.standard_winner(n) is Winner.MOVER:
            return self.winner_need(n), self.loser_need(n), True
        return self.loser_need(n), self.winner_need(n), False

    def rich_pair(self, n: int) -> tuple[int, int]:
        return self.cutoffs(n)[:2]

    def certificate(self) -> PeriodCertificate:
        """The family's period data in certificate form.

        ``verified_up_to`` is 0: closed-form tables are not the product of a
        bounded sweep (the test suite pins them against detection instead).
        """
        pattern = tuple(
            Winner.OPPONENT if i in self.loser_residues else Winner.MOVER
            for i in range(self.kind.modulus)
        )
        return PeriodCertificate(
            self.kind.moves,
            self.kind.modulus,
            pattern,
            dict(self.cost_i),
            dict(self.cost_ii),
            0,
        )


def _winner_need(kind: FamilyKind, n: int) -> int:
    L = kind.L
    k, i = divmod(n, kind.modulus)
    if kind.label == ONE_L:
        return L * k + (i + 1) // 2 if i < L else L * (k + 1)
    if kind.label == ONE_L_L1_ODD:
        base = (3 * L + 1) * k // 2
        return base + (i + 1) // 2 if i < L + 1 else base + L + (i - L + 1) // 2
    base = 3 * L * k // 2
    return base + (i + 1) // 2 if i < L else base + L + (i - L + 1) // 2


def _loser_need(kind: FamilyKind, n: int) -> int:
    L, half = kind.L, kind.half
    k, i = divmod(n, kind.modulus)
    if kind.label == ONE_L:
        if n < L:
            return n // 2
        return L * k + i // 2 - half + 1 if i < L else L * k + half
    if kind.label == ONE_L_L1_ODD:
        base = (3 * L + 1) * k // 2
        return base + i // 2 if i < L + 2 else base + L + (i - L) // 2
    base = 3 * L * k // 2
    return base + i // 2 if i < L + 1 else base + L + (i - L) // 2


def _one_l_tables(L: int) -> tuple[dict, dict]:
    ci: dict[tuple[int, int], int] = {}
    cii: dict[tuple[int, int], int] = {}
    for i in range(L + 1):
        ci[(i, 1)] = L - 1 if i == L else 0
        cii[(i, 1)] = 0
        ci[(i, L)] = 0
        cii[(i, L)] = 0 if i == L - 1 else L - 1
    return ci, cii


def _one_l_l1_odd_tables(L: int) -> tuple[dict, dict]:
    half = L // 2
    ci: dict[tuple[int, int], int] = {}
    cii: dict[tuple[int, int], int] = {}
    for i in range(2 * L + 1):
        even = i % 2 == 0
        ci[(i, 1)] = half + 1 if i == L + 1 else (half if i == L + 2 else 0)
        cii[(i, 1)] = 0
        if i == 0:
            ci[(i, L)] = 0
        elif i < L + 1:
            ci[(i, L)] = -half
        else:
            ci[(i, L)] = 1 if even else 0
        cii[(i, L)] = half if i <= L + 1 else (L - 1 if even else L)
        # the final move's rows use half+1 where the halved slopes suggest
        # half; only these values commute with the corresponding-state step
        if 2 <= i <= L:
            ci[(i, L + 1)] = -(half + 1) if even else -half
        else:
            ci[(i, L + 1)] = 0
        if 1 <= i <= L + 1:
            cii[(i, L + 1)] = half + 1 if even else half
        else:
            cii[(i, L + 1)] = L
    return ci, cii


def _one_l_l1_even_tables(L: int) -> tuple[dict, dict]:
    half = L // 2
    ci: dict[tuple[int, int], int] = {}
    cii: dict[tuple[int, int], int] = {}
    for i in range(2 * L):
        even = i % 2 == 0
        ci[(i, 1)] = half if i in (L, L + 1) else 0
        cii[(i, 1)] = 0
        if 1 <= i <= L - 1:
            ci[(i, L)] = -half if even else -half + 1
        else:
            ci[(i, L)] = 0 if even else 1
        if i < L + 1:
            cii[(i, L)] = half if even else half - 1
        else:
            cii[(i, L)] = L if even else L - 1
        ci[(i, L + 1)] = -half if 2 <= i <= L - 1 else 0
        cii[(i, L + 1)] = half if 1 <= i <= L else L
    return ci, cii


def _one_l_solution_set(L: int, loser_residues: frozenset[int]) -> SolutionSet:
    step = L - 1

    def contains(i: int, x: int, y: int) -> bool:
        if i in loser_residues:
            return x < (y // step) * step
        return y >= (x // step) * step

    return SolutionSet(
        contains,
        f"losing residues: mover gap < {step}*floor(opp gap/{step}); "
        f"winning residues: opp gap >= {step}*floor(mover gap/{step})",
    )


def _one_l_l1_odd_solution_set(L: int) -> SolutionSet:
    half = L // 2

    def contains(i: int, x: int, y: int) -> bool:
        if i == L + 1:
            return y >= (x // L) * L
        if (i < L + 1 and i % 2 == 0) or (i > L + 1 and i % 2 == 1):
            return x <= (y // L) * L + half - 1
        return y >= (x // L) * L + half

    return SolutionSet(
        contains,
        f"staircase of step {L} with offsets {half - 1}/{half} by residue class",
    )


def _one_l_l1_even_solution_set(L: int) -> SolutionSet:
    half = L // 2

    def contains(i: int, x: int, y: int) -> bool:
        if i % 2 == 1 or i == L:
            return y >= (x // half) * half
        return x < (y // half) * half

    return SolutionSet(
        contains,
        f"odd residues and {L}: opp gap >= {half}*floor(mover gap/{half}); "
        f"other even residues: mover gap < {half}*floor(opp gap/{half})",
    )


@lru_cache(maxsize=None)
def family_solution(kind: FamilyKind) -> FamilySolution:
    """Fully populated closed forms for one family instance."""
    L = kind.L
    if kind.label == ONE_L:
        losers = frozenset(range(0, L - 1, 2))
        ci, cii = _one_l_tables(L)
        x = _one_l_solution_set(L, losers)
    elif kind.label == ONE_L_L1_ODD:
        losers = frozenset(range(0, L, 2))
        ci, cii = _one_l_l1_odd_tables(L)
        x = _one_l_l1_odd_solution_set(L)
    else:
        losers = frozenset(range(0, L - 1, 2))
        ci, cii = _one_l_l1_even_tables(L)
        x = _one_l_l1_even_solution_set(L)
    return FamilySolution(kind, losers, ci, cii, x)


def range_standard(L: int, M: int, n: int) -> Winner:
    """Standard-game winner for the interval set {L..M}."""
    if not 1 <= L <= M:
        raise BadParams(f"need 1 <= L <= M, got L={L} M={M}")
    return Winner.OPPONENT if n % (L + M) < L else Winner.MOVER


def family_standard(kind_or_range: FamilyKind | tuple[int, int], n: int) -> Winner:
    """Standard-game winner by residue, for a family or an interval (L, M)."""
    if n < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    if isinstance(kind_or_range, tuple):
        return range_standard(*kind_or_range, n)
    return family_solution(kind_or_range).standard_winner(n)


def family_win(kind: FamilyKind, n: int, d: Funds, e: Funds) -> Winner:
    """Complete win condition for a solved family, in time polylog in (n, d, e).

    Pipeline: rich cutoffs first, then poor cutoffs, then solution-set
    membership of the corresponding state for the critical remainder.
    """
    if n < 0:
        raise BadParams(f"n must be >= 0, got {n}")
    sol = family_solution(kind)
    cutoffs = sol.cutoffs(n)
    r = regime(kind.moves, n, cutoffs, d, e)
    if r.critical:
        # critical budgets are ints below the rich cutoffs, which never exceed n
        fi, fii, _ = cutoffs
        wins = sol.solution_set.contains(n % kind.modulus, fi - 1 - d, fii - 1 - e)
    else:
        wins = r.mover_wins
    return Winner.MOVER if wins else Winner.OPPONENT


# --------------------------------------------------------------------------
# Interval-set conjecture sweep (report-only)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class XCounterexample:
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


def interval_cs_member(L: int, M: int, i: int, b: int, b2: int) -> bool:
    """Conjectured solution-set rule for {L..M} over (residue, gaps)."""
    if i < L or i >= 3 * L:
        return b // L <= b2 // L
    if i < 2 * L:
        return b // L <= (b2 - L) // L
    return b // L <= (b2 - 3 * L + i + 1) // L


def conjecture_check(
    L: int,
    M: int,
    n_max: int = 360,
    critical_n_max: int | None = None,
) -> ConjectureReport:
    """Sweep {L..M}: detect the cutoff offset and test the conjectured rule.

    The offset scan needs ``n_max`` large enough for three periods of length
    ``L + M`` past the candidate offset; the solution-set comparison runs the
    oracle over all critical positions with ``n <= critical_n_max`` (default
    ``min(n_max, 120)``).
    """
    if not 1 <= L <= M:
        raise BadParams(f"need 1 <= L <= M, got L={L} M={M}")
    period = L + M
    if n_max < 4 * period:
        raise BadParams(f"n_max={n_max} leaves fewer than three periods of {period}")
    if critical_n_max is None:
        critical_n_max = min(n_max, 120)
    if critical_n_max > n_max:
        raise BadParams("critical_n_max cannot exceed n_max")

    moves = new_move_set(range(L, M + 1))
    tables = build_thresholds(moves, n_max)
    last_bad = -1
    for n in range(n_max - period + 1):
        if (
            tables.rich_i[n + period] != tables.rich_i[n] + M
            or tables.rich_ii[n + period] != tables.rich_ii[n] + M
        ):
            last_bad = n
    theta: int | None = last_bad + 1
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

    table = CashTable(moves, critical_n_max)
    checked = 0
    bad: list[XCounterexample] = []
    for n in range(critical_n_max + 1):
        d, e, mover_gap, opp_gap = critical_cells(tables, n)
        checked += d.size
        wins = table.win[n, d, e]
        member = interval_cs_member(L, M, n % period, mover_gap, opp_gap)
        for k in np.flatnonzero(member != wins).tolist():
            cs = CSTriple(n % period, int(mover_gap[k]), int(opp_gap[k]))
            winner = Winner.MOVER if wins[k] else Winner.OPPONENT
            bad.append(XCounterexample(n, int(d[k]), int(e[k]), cs, winner, bool(member[k])))
    return ConjectureReport(
        L, M, n_max, critical_n_max, theta, bound, bound_holds, special,
        checked, tuple(bad),
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
    if k_max < 4:
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
