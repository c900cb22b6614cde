"""Residue abstraction of critical positions and its verification machinery.

A critical position ``(n; d, e)`` is abstracted to a *corresponding state*:
the residue of ``n`` modulo a candidate period together with each player's
gap below their rich cutoff.  When the move costs expressed in those gap
coordinates depend only on the residue (the set is *cash-periodic*), play
projects onto a finite-dimensional system: stepping a corresponding state
needs no knowledge of the underlying position.

A *solution set* is a set of corresponding states closed under the two move
clauses below; membership then decides every critical position.  Closure is
only ever checked on a bounded box, so certificates report the range they
were verified on and never claim more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import BadParams, OutOfRange, WrongRegion
from .game import Funds, MoveSet, Winner, clamp_funds
from .oracle import CashTable
from .thresholds import Region, ThresholdTables, classify, critical_cells


@dataclass(frozen=True)
class CSTriple:
    """Corresponding state: residue plus both players' sub-rich gaps.

    ``mover_gap = rich_i(n) - 1 - d`` and ``opp_gap = rich_ii(n) - 1 - e``.
    Gaps are >= 0 exactly on critical positions but may go negative while
    stepping through move sequences (negative means that side has gone rich).
    """

    residue: int
    mover_gap: int
    opp_gap: int


@dataclass(frozen=True)
class PeriodCertificate:
    """Empirically verified period with residue-indexed winner and cost tables.

    ``cost_i[(i, a)]`` and ``cost_ii[(i, a)]`` are the gap-coordinate deltas
    of removing ``a`` from a position with residue ``i``.  All statements are
    "verified up to ``verified_up_to``", never proved.
    """

    moves: MoveSet
    period: int
    winner_pattern: tuple[Winner, ...]
    # left out of the hash (dicts are unhashable); equality still compares them
    cost_i: dict[tuple[int, int], int] = field(hash=False)
    cost_ii: dict[tuple[int, int], int] = field(hash=False)
    verified_up_to: int

    def pattern_winner(self, residue: int) -> Winner:
        return self.winner_pattern[residue % self.period]


@dataclass(frozen=True)
class SolutionSet:
    """Total membership predicate over corresponding states with both gaps >= 0.

    ``contains(i, b, b2)`` takes a scalar residue and gaps that are ints or
    integer arrays; for arrays it returns a bool array, or a bool that
    broadcasts, over the gaps' broadcast shape.  ``WinEngine.sweep`` passes
    a whole layer's gaps at once; ``verify_solution_set`` passes ints only.
    """

    contains: Callable[[int, int, int], bool]
    description: str

    def __contains__(self, triple: CSTriple) -> bool:
        return self.contains(triple.residue, triple.mover_gap, triple.opp_gap)


@dataclass
class Violation:
    triple: CSTriple
    clause: str
    move: int
    successor: CSTriple


@dataclass
class VerificationReport:
    box: int
    checked: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def compute_costs(tables: ThresholdTables, n: int, a: int) -> tuple[int, int]:
    """Gap-coordinate deltas of removing ``a`` from ``n`` stones.

    The mover's gap becomes the opponent's, shrunk by ``cost_i``; the
    opponent's gap becomes the mover's, shrunk by ``cost_ii``:

        cost_i(n, a)  = rich_i(n) - rich_ii(n - a) - a
        cost_ii(n, a) = rich_ii(n) - rich_i(n - a)
    """
    tables.check_range(n)
    if a not in tables.moves or a > n:
        raise OutOfRange(f"move {a} not applicable at n={n}")
    ci = int(tables.rich_i[n]) - int(tables.rich_ii[n - a]) - a
    cii = int(tables.rich_ii[n]) - int(tables.rich_i[n - a])
    return ci, cii


def step_cs(cert: PeriodCertificate, triple: CSTriple, a: int) -> CSTriple:
    """Advance a corresponding state by one move of size ``a``.

    The two gap coordinates swap (roles swap) while paying the residue's
    cost table; the residue decreases by ``a`` mod the period.
    """
    i = triple.residue % cert.period
    return CSTriple(
        (i - a) % cert.period,
        triple.opp_gap - cert.cost_ii[(i, a)],
        triple.mover_gap - cert.cost_i[(i, a)],
    )


def corresponding_state(
    cert: PeriodCertificate, tables: ThresholdTables, n: int, d: Funds, e: Funds
) -> CSTriple:
    """Abstract a position to (residue, mover gap, opponent gap).

    Finite budgets enter the gap arithmetic unclamped; clamping is winner-
    preserving but would break the step identity, since a budget may exceed
    the stone count mid-line.  An unlimited budget stands in as ``n``.
    """
    fi, fii, _ = tables.cutoffs(n)
    dc = d if isinstance(d, int) else clamp_funds(d, n)
    ec = e if isinstance(e, int) else clamp_funds(e, n)
    return CSTriple(n % cert.period, fi - 1 - dc, fii - 1 - ec)


def detect_cash_period(
    moves: MoveSet,
    tables: ThresholdTables,
    m_max: int = 64,
    n_check: int | None = None,
) -> PeriodCertificate | None:
    """Least period whose winner pattern and cost tables are residue-constant.

    The winner pattern is checked for ``max(A) <= n <= n_check``; the cost
    tables per move ``a`` for ``max(A) + a <= n <= n_check`` (smaller ``n``
    read cutoffs from the irregular head below ``max(A)``, which would poison
    every candidate).  Returns None when no period ``<= m_max`` survives;
    absence is an answer, not an error.
    """
    a_max = tables.moves.a_max
    if n_check is None:
        n_check = tables.n_max - a_max
    if n_check > tables.n_max:
        raise BadParams(f"n_check={n_check} exceeds table range {tables.n_max}")
    if n_check < 2 * a_max + m_max:
        raise BadParams(
            f"n_check={n_check} too small to cover every residue up to m_max={m_max}"
        )

    for m in range(1, m_max + 1):
        cert = _try_period(moves, tables, m, n_check)
        if cert is not None:
            return cert
    return None


def _try_period(
    moves: MoveSet, tables: ThresholdTables, m: int, n_check: int
) -> PeriodCertificate | None:
    a_max = moves.a_max
    pattern: list[Winner] = []
    for i in range(m):
        first = a_max + ((i - a_max) % m)
        vals = {bool(tables.winners[n]) for n in range(first, n_check + 1, m)}
        if len(vals) != 1:
            return None
        pattern.append(Winner.MOVER if vals.pop() else Winner.OPPONENT)

    cost_i: dict[tuple[int, int], int] = {}
    cost_ii: dict[tuple[int, int], int] = {}
    for a in moves:
        lo = a_max + a
        for i in range(m):
            first = lo + ((i - lo) % m)
            seen = {compute_costs(tables, n, a) for n in range(first, n_check + 1, m)}
            if len(seen) != 1:
                return None
            ci, cii = seen.pop()
            cost_i[(i, a)] = ci
            cost_ii[(i, a)] = cii
    return PeriodCertificate(moves, m, tuple(pattern), cost_i, cost_ii, n_check)


def verify_solution_set(
    cert: PeriodCertificate, candidate: SolutionSet, box: int
) -> VerificationReport:
    """Check both closure clauses of a solution set on the gap box [0, box]^2.

    Members must survive the minimum move: its successor is either a
    non-member with both gaps >= 0, or leaves only the opponent rich, or
    leaves both rich on a residue the opponent wins.  Non-members must be
    refuted by every move: each successor is a member, or leaves only the
    mover rich, or leaves both rich on a residue the mover wins.  Successor
    membership uses the candidate's total predicate, so successors may land
    outside the box.
    """
    if box < 0:
        raise BadParams(f"box must be >= 0, got {box}")
    moves = cert.moves
    a1 = moves.a_min
    report = VerificationReport(box=box, checked=0)
    for i in range(cert.period):
        for b in range(box + 1):
            for b2 in range(box + 1):
                triple = CSTriple(i, b, b2)
                report.checked += 1
                if candidate.contains(i, b, b2):
                    succ = step_cs(cert, triple, a1)
                    if _successor_mover_wins(cert, candidate, succ):
                        report.violations.append(Violation(triple, "member", a1, succ))
                else:
                    for a in moves:
                        succ = step_cs(cert, triple, a)
                        if not _successor_mover_wins(cert, candidate, succ):
                            report.violations.append(Violation(triple, "non-member", a, succ))
    return report


def _successor_mover_wins(cert: PeriodCertificate, x: SolutionSet, succ: CSTriple) -> bool:
    """Who wins a successor, read off its gaps; a negative gap means that side is rich."""
    mg, og = succ.mover_gap, succ.opp_gap
    if mg >= 0 and og >= 0:
        return x.contains(succ.residue, mg, og)
    if mg < 0 and og < 0:
        return cert.pattern_winner(succ.residue) is Winner.MOVER
    return mg < 0


def induce_candidate(
    moves: MoveSet,
    tables: ThresholdTables,
    cert: PeriodCertificate,
    n_max: int,
    table: CashTable | None = None,
) -> tuple[dict[CSTriple, Winner], bool]:
    """Map every critical position's corresponding state to its exact winner.

    Sweeps all critical ``(n, d, e)`` with ``n <= n_max`` against the oracle.
    The map is extensional only.  ``consistent`` is False when two positions
    sharing a corresponding state disagree, which refutes the period for
    solution-set purposes.
    """
    tables.check_range(n_max)
    if table is None:
        table = CashTable(moves, n_max)
    elif n_max > min(table.n_max, table.cap):
        raise OutOfRange(f"table does not cover n, d, e <= {n_max}")
    out: dict[CSTriple, Winner] = {}
    consistent = True
    for n in range(n_max + 1):
        d, e, mover_gap, opp_gap = critical_cells(tables, n)
        wins = table.win[n, d, e]
        for x, y, win in zip(mover_gap.tolist(), opp_gap.tolist(), wins.tolist()):
            w = Winner.MOVER if win else Winner.OPPONENT
            if out.setdefault(CSTriple(n % cert.period, x, y), w) is not w:
                consistent = False
    return out, consistent


def critical_winner(
    cert: PeriodCertificate,
    candidate: SolutionSet,
    tables: ThresholdTables,
    n: int,
    d: Funds,
    e: Funds,
) -> Winner:
    """Decide a critical position by solution-set membership."""
    if classify(tables, n, d, e) is not Region.CRITICAL:
        raise WrongRegion(f"({n};{d},{e}) is not critical")
    cs = corresponding_state(cert, tables, n, d, e)
    return Winner.MOVER if cs in candidate else Winner.OPPONENT
