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
were verified on and never claim more.  Each solved family's set is one
staircase per residue, stored as integer rows (:meth:`SolutionSet.from_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .errors import BadParams, OutOfRange
from .game import UNLIMITED, Funds, MoveSet, Winner, _check_funds, _check_stones, _integer
from .oracle import staircase
from .thresholds import CutoffSource, Regime, ThresholdTables, critical_cells, regime


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
    of removing ``a`` from a position with residue ``i``; they are stored as
    read-only copies, so one certificate can be shared.  All statements are
    "verified up to ``verified_up_to``", never proved.
    """

    moves: MoveSet
    period: int
    winner_pattern: tuple[Winner, ...]
    # left out of the hash (mappings are unhashable); equality still compares them
    cost_i: Mapping[tuple[int, int], int] = field(hash=False)
    cost_ii: Mapping[tuple[int, int], int] = field(hash=False)
    verified_up_to: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_i", MappingProxyType(dict(self.cost_i)))
        object.__setattr__(self, "cost_ii", MappingProxyType(dict(self.cost_ii)))

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

    @classmethod
    def from_rows(cls, step: int, rows: Sequence[tuple[int, int]]) -> SolutionSet:
        """Member ``(i, b, b2)`` when ``b2 > step*floor((b - p_i)/step) + q_i``,
        with ``(p_i, q_i) = rows[i]``: one expression for ints and arrays."""
        rows = tuple((int(p), int(q)) for p, q in rows)  # plain ints: scalar calls stay cheap

        def contains(i, b, b2):
            p, q = rows[i]
            return b2 > step * ((b - p) // step) + q

        return cls(contains, f"step {step}, rows (p_i, q_i) {list(rows)}")


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


def compute_costs(tables: CutoffSource, n: int, a: int) -> tuple[int, int]:
    """Gap-coordinate deltas of removing ``a`` from ``n`` stones.

    The mover's gap becomes the opponent's, shrunk by ``cost_i``; the
    opponent's gap becomes the mover's, shrunk by ``cost_ii``:

        cost_i(n, a)  = rich_i(n) - rich_ii(n - a) - a
        cost_ii(n, a) = rich_ii(n) - rich_i(n - a)

    ``tables`` is any cutoff source: recursion tables or a solved family.
    """
    if a not in tables.moves or a > n:
        raise OutOfRange(f"move {a} not applicable at n={n}")
    return _costs(tables.cutoffs(n), tables.cutoffs(n - a), a)


def _costs(at_n: tuple, at_succ: tuple, a: int) -> tuple[int, int]:
    """The identity above, on the cutoffs read at ``n`` and ``n - a``."""
    return at_n[0] - at_succ[1] - a, at_n[1] - at_succ[0]


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
    cert: PeriodCertificate, source: CutoffSource, n: int, d: Funds, e: Funds
) -> CSTriple:
    """Abstract a position to (residue, mover gap, opponent gap).

    The gaps are measured from ``source.cutoffs(n)``: recursion tables, or a
    solved family.  Finite budgets (Python or numpy integers >= 0, else
    :class:`NonPositiveValue`) enter the gap arithmetic unclamped; clamping
    is winner-preserving but would break the step identity, since a budget
    may exceed the stone count mid-line.  An unlimited budget stands in as
    ``n``.
    """
    fi, fii, _ = source.cutoffs(n)
    dc = n if d is UNLIMITED else int(_check_funds(d))
    ec = n if e is UNLIMITED else int(_check_funds(e))
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
    if tables.moves != moves:
        raise BadParams(f"tables are for {tables.moves}, not {moves}")
    if _integer(m_max, None, "periods") < 1:
        raise BadParams(f"m_max must be >= 1, got {m_max}")
    a_max = tables.moves.a_max
    if n_check is None:
        n_check = tables.n_max - a_max
    if _check_stones(n_check) > tables.n_max:
        raise BadParams(f"n_check={n_check} exceeds table range {tables.n_max}")
    if n_check < 2 * a_max + m_max:
        raise BadParams(
            f"n_check={n_check} too small to cover every residue up to m_max={m_max}"
        )

    cutoffs = [tables.cutoffs(n) for n in range(n_check + 1)]  # one read per n
    for m in range(1, m_max + 1):
        cert = _try_period(moves, cutoffs, m, n_check)
        if cert is not None:
            return cert
    return None


def _try_period(
    moves: MoveSet, cutoffs: Sequence[tuple], m: int, verified_up_to: int
) -> PeriodCertificate | None:
    """Period ``m``'s certificate if the winner pattern and costs are
    residue-constant past the head; ``cutoffs[n]`` is a source's ``cutoffs(n)``."""
    a_max = moves.a_max
    end = len(cutoffs)
    pattern: list[Winner] = []
    for i in range(m):
        first = a_max + ((i - a_max) % m)
        vals = {cutoffs[n][2] for n in range(first, end, m)}
        if len(vals) != 1:
            return None
        pattern.append(Winner.MOVER if vals.pop() else Winner.OPPONENT)

    cost_i: dict[tuple[int, int], int] = {}
    cost_ii: dict[tuple[int, int], int] = {}
    for a in moves:
        lo = a_max + a
        for i in range(m):
            first = lo + ((i - lo) % m)
            seen = {_costs(cutoffs[n], cutoffs[n - a], a) for n in range(first, end, m)}
            if len(seen) != 1:
                return None
            cost_i[(i, a)], cost_ii[(i, a)] = seen.pop()
    return PeriodCertificate(moves, m, tuple(pattern), cost_i, cost_ii, verified_up_to)


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
    if _integer(box, None, "gap boxes") < 0:
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
) -> tuple[dict[CSTriple, Winner], bool]:
    """Map every critical position's corresponding state to its exact winner.

    Sweeps all critical ``(n, d, e)`` with ``n <= n_max`` through
    :func:`critical_layers`.  The map is extensional only; :func:`covered_box`
    bounds where it can be read.  ``consistent`` is False when two positions sharing a
    corresponding state disagree, which refutes the period for solution-set
    purposes.
    """
    if not moves == tables.moves == cert.moves:
        raise BadParams(f"moves {moves}, tables {tables.moves} and certificate {cert.moves} differ")
    tables.check_range(n_max)
    out: dict[CSTriple, Winner] = {}
    consistent = True
    for n, _, _, mover_gap, opp_gap, wins in critical_layers(tables, n_max):
        for x, y, win in zip(mover_gap.tolist(), opp_gap.tolist(), wins.tolist()):
            w = Winner.MOVER if win else Winner.OPPONENT
            if out.setdefault(CSTriple(n % cert.period, x, y), w) is not w:
                consistent = False
    return out, consistent


def covered_box(cert: PeriodCertificate, states: Mapping[CSTriple, Winner]) -> int:
    """Largest ``k`` such that ``states`` holds each triple of the gap box
    ``[0, k]^2`` on every residue, and each successor of one with both gaps >= 0; else -1."""

    def met(t: CSTriple) -> bool:
        succs = (step_cs(cert, t, a) for a in cert.moves)
        return t in states and all(s in states for s in succs if min(s.mover_gap, s.opp_gap) >= 0)

    k = 0  # grow the box one shell {max(b, b2) == k} at a time
    while all(met(CSTriple(i, b, b2)) for i in range(cert.period)
              for j in range(k + 1) for b, b2 in ((k, j), (j, k))):
        k += 1
    return k - 1


def critical_layers(source: CutoffSource, n_max: int) -> Iterator[tuple]:
    """Yield ``(n, d, e, mover_gap, opp_gap, wins)`` for each ``n <= n_max``: the
    :func:`~nimcash.thresholds.critical_cells` arrays measured from ``source``
    and the mover's exact wins on them, read off the staircase in one compare."""
    layers = staircase(source.moves, n_max)
    for n in range(n_max + 1):
        d, e, mover_gap, opp_gap = critical_cells(source, n)
        # critical budgets are below the rich cutoffs, hence below n: unclamped
        yield n, d, e, mover_gap, opp_gap, e < layers[n][d]


def _settle(
    source: CutoffSource,
    solution: tuple[PeriodCertificate, SolutionSet] | None,
    n: int,
    d: Funds,
    e: Funds,
) -> tuple[Regime, tuple[int, int, int] | None, bool | None]:
    """Decide ``(n; d, e)`` from one read of ``source.cutoffs(n)``.

    Returns the regime, the ``(residue, mover gap, opponent gap)`` of a
    critical position decided by ``solution`` (else None), and whether the
    mover wins (None on a critical position without a solution).
    """
    cutoffs = source.cutoffs(n)
    r = regime(source.moves, n, cutoffs, d, e)
    if not r.critical:
        return r, None, r.mover_wins
    if solution is None:
        return r, None, None
    cert, candidate = solution
    # critical budgets are ints below the rich cutoffs, which never exceed n
    fi, fii, _ = cutoffs
    state = (n % cert.period, fi - 1 - d, fii - 1 - e)
    return r, state, candidate.contains(*state)
