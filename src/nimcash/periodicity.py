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

Exact winners on critical positions come from :func:`critical_scan`: one
array pass over a whole range of ``n`` that lists every critical cell, its
gaps and the mover's exact win.  :func:`induce_candidate`,
``families.conjecture_check`` and ``nimcash verify --family`` each read one
scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BadParams, OutOfRange
from .game import UNLIMITED, Funds, MoveSet, Winner, _check_funds, _check_stones, _integer
from .oracle import staircase
from .thresholds import CutoffSource, Regime, ThresholdTables, _poor_cutoffs, regime


class CSTriple(NamedTuple):
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
    a whole layer's gaps at once; ``verify_solution_set`` passes a residue's
    gap grid as arrays to a :meth:`from_rows` set, ints to a predicate-only one.

    ``period`` (one row per residue) and ``moves`` are recorded by
    :meth:`from_rows`, so a set cannot be checked against another move
    set's certificate; a predicate-only set carries neither.
    """

    contains: Callable[[int, int, int], bool]
    description: str
    period: int | None = None
    moves: MoveSet | None = None

    def __contains__(self, triple: CSTriple) -> bool:
        return self.contains(triple.residue, triple.mover_gap, triple.opp_gap)

    @classmethod
    def from_rows(
        cls, step: int, rows: Sequence[tuple[int, int]], moves: MoveSet | None = None
    ) -> SolutionSet:
        """Member ``(i, b, b2)`` when ``b2 > step*floor((b - p_i)/step) + q_i``,
        with ``(p_i, q_i) = rows[i]``: one expression for ints and arrays.
        ``moves`` names the move set whose certificate the rows are for."""
        rows = tuple((int(p), int(q)) for p, q in rows)  # plain ints: scalar calls stay cheap

        def contains(i, b, b2):
            p, q = rows[i]
            return b2 > step * ((b - p) // step) + q

        out = cls(contains, f"step {step}, rows (p_i, q_i) {list(rows)}")
        # set after the two-argument constructor, which perfbench's tracer wraps
        object.__setattr__(out, "period", len(rows))
        object.__setattr__(out, "moves", moves)
        return out


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
    cost_i, cost_ii = _step_costs(cert, i, a)
    return CSTriple((i - a) % cert.period, triple.opp_gap - cost_ii, triple.mover_gap - cost_i)


def _step_costs(cert: PeriodCertificate, i: int, a: int) -> tuple[int, int]:
    """``(cost_i, cost_ii)`` of move ``a`` from residue ``i``; OutOfRange for a foreign move."""
    try:
        return cert.cost_i[(i, a)], cert.cost_ii[(i, a)]
    except KeyError:
        raise OutOfRange(f"move {a} is not in {cert.moves}") from None


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

    columns = _period_columns(tables, n_check + 1)
    for m in range(1, m_max + 1):
        cert = _try_period(moves, columns, m, n_check)
        if cert is not None:
            return cert
    return None


def _period_columns(tables: ThresholdTables, end: int) -> list[tuple[int, np.ndarray]]:
    """``(first n, column)`` over ``n < end``: the winners from ``n = max(A)``, then
    per move ``a`` the :func:`compute_costs` columns ``rich_i[n] - rich_ii[n-a] - a``
    and ``rich_ii[n] - rich_i[n-a]`` from ``n = max(A) + a``."""
    a_max = tables.moves.a_max
    rich_i, rich_ii = (col[:end].astype(np.int64) for col in (tables.rich_i, tables.rich_ii))
    columns = [(a_max, tables.winners[a_max:end])]
    for a in tables.moves:
        now, back = slice(a_max + a, None), slice(a_max, len(rich_i) - a)
        columns.append((a_max + a, rich_i[now] - rich_ii[back] - a))
        columns.append((a_max + a, rich_ii[now] - rich_i[back]))
    return columns


def _try_period(
    moves: MoveSet, columns: list[tuple[int, np.ndarray]], m: int, verified_up_to: int
) -> PeriodCertificate | None:
    """Period ``m``'s certificate if each :func:`_period_columns` column is
    residue-constant, else None: a class is constant exactly when each value
    equals the one ``m`` later, ``col[m:] == col[:-m]``, and a column shorter
    than ``m`` leaves a class empty.  Values are read at each class's first n."""
    per_residue = []
    for first, col in columns:
        if col.size < m or (col[m:] != col[:-m]).any():
            return None
        per_residue.append(col[(np.arange(m) - first) % m].tolist())
    pattern = tuple(Winner.MOVER if w else Winner.OPPONENT for w in per_residue[0])
    cost_i = {(i, a): c for a, col in zip(moves, per_residue[1::2]) for i, c in enumerate(col)}
    cost_ii = {(i, a): c for a, col in zip(moves, per_residue[2::2]) for i, c in enumerate(col)}
    return PeriodCertificate(moves, m, pattern, cost_i, cost_ii, verified_up_to)


def verify_solution_set(
    cert: PeriodCertificate, candidate: SolutionSet, box: int
) -> VerificationReport:
    """Check both closure clauses of a solution set on the gap box [0, box]^2.

    Members must survive the minimum move: its successor is either a
    non-member with both gaps >= 0, or leaves only the opponent rich, or
    leaves both rich on a residue the opponent wins.  Non-members must be
    refuted by every move: each successor is a member, or leaves only the
    mover rich, or leaves both rich on a residue the mover wins.  A set that
    records its period or move set (:meth:`SolutionSet.from_rows`) must
    match the certificate's, else :class:`BadParams`.

    Successors may land outside the box, but a gap grows only by a negative
    cost, so each successor with both gaps >= 0 lies in ``[0, hi]^2``, ``hi =
    box + max(0, -min cost)``.  Membership is read into one ``(hi+1)^2`` grid
    per residue (one array call of a ``from_rows`` set, one int call per cell
    of a predicate-only set), and each move reads it by shifted index.
    """
    if _integer(box, None, "gap boxes") < 0:
        raise BadParams(f"box must be >= 0, got {box}")
    if candidate.period not in (None, cert.period):
        raise BadParams(
            f"solution set has {candidate.period} residues, certificate period {cert.period}"
        )
    if candidate.moves not in (None, cert.moves):
        raise BadParams(f"solution set is for {candidate.moves}, certificate for {cert.moves}")
    contains = candidate.contains
    period = cert.period
    # per residue: (successor residue, cost_i, cost_ii, a) of each move, min(A) first
    steps = [
        [((i - a) % period, *_step_costs(cert, i, a), a) for a in cert.moves]
        for i in range(period)
    ]
    lowest = min(min(cost_i, cost_ii) for row in steps for _, cost_i, cost_ii, _ in row)
    side = np.arange(box + max(0, -lowest) + 1)  # the gaps 0..hi
    if candidate.period is None:  # grid[i, b, b2]: is (i, b, b2) a member
        gaps = side.tolist()
        grid = np.array([[[bool(contains(i, b, b2)) for b2 in gaps] for b in gaps]
                         for i in range(period)], bool)
    else:
        shape = (side.size, side.size)
        grid = np.array([np.broadcast_to(contains(i, side[:, None], side), shape)
                         for i in range(period)], bool)
    rich_both_mover = [w is Winner.MOVER for w in cert.winner_pattern]
    b, b2 = side[: box + 1, None], side[: box + 1]
    report = VerificationReport(box=box, checked=period * (box + 1) ** 2)
    for i in range(period):
        member = grid[i, : box + 1, : box + 1]
        bad = np.empty((box + 1, box + 1, len(steps[i])), dtype=bool)
        for k, (j, cost_i, cost_ii, _) in enumerate(steps[i]):
            # the successor (j, mg, og); a negative gap means that side is rich
            mg, og = b2 - cost_ii, b - cost_i
            bad[..., k] = member == np.where(  # the successor's mover wins
                og < 0, (mg < 0) & rich_both_mover[j], (mg < 0) | grid[j, mg.clip(0), og.clip(0)]
            )
        # a member must survive min(A); a non-member is refuted by every move
        bad[..., 1:] &= ~member[..., None]
        for x, y, k in np.argwhere(bad).tolist():  # in (b, b2, move) order
            j, cost_i, cost_ii, a = steps[i][k]
            clause = "member" if member[x, y] else "non-member"
            succ = CSTriple(j, y - cost_ii, x - cost_i)
            report.violations.append(Violation(CSTriple(i, x, y), clause, a, succ))
    return report


def induce_candidate(
    moves: MoveSet,
    tables: ThresholdTables,
    cert: PeriodCertificate,
    n_max: int,
) -> tuple[dict[CSTriple, Winner], bool]:
    """Map every critical position's corresponding state to its exact winner.

    Reads all critical ``(n, d, e)`` with ``n <= n_max`` from one
    :func:`critical_scan`.  The map is extensional only; :func:`covered_box`
    bounds where it can be read.  ``consistent`` is False when two positions sharing a
    corresponding state disagree, which refutes the period for solution-set
    purposes.  Each state keeps the winner of its first cell, and states come
    in the order first met: the cells are keyed by one integer per state and
    grouped with one ``np.unique``.
    """
    if not moves == tables.moves == cert.moves:
        raise BadParams(f"moves {moves}, tables {tables.moves} and certificate {cert.moves} differ")
    tables.check_range(n_max)
    n, _, _, x, y, wins = critical_scan(tables, n_max)
    if not wins.size:
        return {}, True
    residue = n % cert.period
    # one int64 key per corresponding state; gaps lie in [0, n_max), so keys
    # stay below period * n_max**2
    x_width, y_width = int(x.max()) + 1, int(y.max()) + 1
    key = (residue * x_width + x) * y_width + y
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    consistent = bool((wins == wins[first][inverse]).all())
    first.sort()  # each state's first cell, in the order the cells were seen
    out = {
        CSTriple(r, g, h): Winner.MOVER if w else Winner.OPPONENT
        for r, g, h, w in zip(*(col[first].tolist() for col in (residue, x, y, wins)))
    }
    return out, consistent


def covered_box(cert: PeriodCertificate, states: Mapping[CSTriple, Winner]) -> int:
    """Largest ``k`` such that ``states`` holds each triple of the gap box
    ``[0, k]^2`` on every residue, and each successor of one with both gaps >= 0; else -1.

    A triple is met when it is present and so is each of its successors with
    both gaps >= 0; the answer is the least shell ``max(b, b2)`` holding an
    unmet triple, minus 1.  A met box ``[0, k]^2`` holds ``period * (k+1)^2``
    keys, so shell ``r = isqrt(#keys / period)`` holds an unmet triple: one
    presence box per residue over the gaps up to ``r`` plus the largest gap a
    move adds decides every shell up to ``r``, and its size follows the
    map's, not its largest key.
    """
    period = cert.period
    keys = np.array(list(states), dtype=np.int64).reshape(-1, 3)
    keys = keys[(keys[:, 0] >= 0) & (keys[:, 0] < period) & (keys[:, 1:] >= 0).all(axis=1)]
    grow = max(0, -min(*cert.cost_i.values(), *cert.cost_ii.values()))
    size = math.isqrt(len(keys) // period) + grow + 1
    keys = keys[(keys[:, 1:] < size).all(axis=1)]
    present = np.zeros((period, size, size), dtype=bool)
    present[tuple(keys.T)] = True
    b, b2 = np.arange(size)[:, None], np.arange(size)
    met = present.copy()
    for i in range(period):
        for a in cert.moves:
            cost_i, cost_ii = _step_costs(cert, i, a)
            mg, og = b2 - cost_ii, b - cost_i  # the successor's gaps
            found = present[(i - a) % period, mg.clip(0, size - 1), og.clip(0, size - 1)]
            met[i] &= (mg < 0) | (og < 0) | (found & (mg < size) & (og < size))
    _, rows, cols = np.nonzero(~met)
    return int(np.maximum(rows, cols).min()) - 1


def critical_scan(source: CutoffSource, n_max: int) -> tuple[np.ndarray, ...]:
    """Every critical position with ``n <= n_max``, in one pass over the range.

    Returns six flat arrays ``(n, d, e, mover_gap, opp_gap, wins)`` in
    row-major ``(n, d, e)`` order.  Layer ``n`` holds the rectangle ``[poor_i,
    rich_i) x [poor_ii, rich_ii)``, empty when a poor cutoff reaches its rich
    one; the gaps are ``rich_i - 1 - d`` and ``rich_ii - 1 - e``.  The rich
    cutoffs come as columns, a slice of recursion tables or one
    ``cutoffs(n)`` read per ``n`` of another source (a solved family); the
    poor cutoffs from their closed form over ``n``; each rectangle from
    ``repeat`` and ``cumsum``.  ``wins``, the mover's exact wins, is one
    gather from the staircase layers laid end to end, layer ``n`` at offset
    ``n(n+1)/2``: the rich cutoffs never exceed ``n``, so no critical budget
    is clamped.
    """
    ns = np.arange(n_max + 1)
    if isinstance(source, ThresholdTables):
        source.check_range(n_max)
        rich_i, rich_ii = (col[: n_max + 1].astype(np.int64)
                           for col in (source.rich_i, source.rich_ii))
    else:
        rich_i, rich_ii = np.array(
            [source.cutoffs(n)[:2] for n in range(n_max + 1)], dtype=np.int64
        ).reshape(-1, 2).T
    poor_i, poor_ii = _poor_cutoffs(source.moves.a_min, ns)
    width = np.maximum(rich_ii - poor_ii, 0)
    sizes = np.maximum(rich_i - poor_i, 0) * width
    n = np.repeat(ns, sizes)
    k = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # index in the layer
    d = poor_i[n] + k // width[n]
    e = poor_ii[n] + k % width[n]
    rows = np.concatenate(staircase(source.moves, n_max)[: n_max + 1])
    return n, d, e, rich_i[n] - 1 - d, rich_ii[n] - 1 - e, e < rows[n * (n + 1) // 2 + d]


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
