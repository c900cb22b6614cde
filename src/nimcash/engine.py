"""Composite win-condition engine: thresholds first, oracle only as last resort.

``WinEngine`` wires the pieces together for one move set around one cutoff
source: a recognized family's solution, or else the recursion tables,
which are read only for a move set that is not a solved family.  Rich and
poor positions are decided by their cutoffs; critical positions go through a
solution set when one is available (recognized family instances supply
theirs automatically) and fall back to the staircase oracle otherwise.  The
engine reports which rule decided each query so callers can explain results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutOfRange
from .families import family_solution, recognize_family
from .game import CashState, Funds, MoveSet, Winner, _check_stones
from .oracle import CashTable, SolveResult, solve_cash, staircase
from .periodicity import CSTriple, PeriodCertificate, SolutionSet, _settle
from .thresholds import CutoffSource, Region, build_thresholds, regime


@dataclass(frozen=True)
class Decision:
    """How a position was decided; ``result`` is the solver's answer for "oracle"."""

    winner: Winner
    region: Region
    method: str  # "rich" | "poor" | "critical" | "oracle"
    cs: CSTriple | None = None
    result: SolveResult | None = None


class WinEngine:
    """Decides positions for one move set.

    Cutoffs come from ``cutoff_source``: a recognized family's solution,
    valid for every ``n``, or else the recursion tables up to ``n_max``, past
    which queries raise :class:`OutOfRange`.  Critical positions without a
    solution set are read off the staircase oracle; :meth:`cube` builds the
    dense reference for checks and is never read by the engine itself.
    """

    def __init__(
        self,
        moves: MoveSet,
        n_max: int,
        solution: tuple[PeriodCertificate, SolutionSet] | None = None,
    ) -> None:
        if _check_stones(n_max) < 0:
            raise OutOfRange(f"n_max must be >= 0, got {n_max}")
        self.moves = moves
        self.n_max = n_max
        kind = recognize_family(moves)
        family = None if kind is None else family_solution(kind)
        if solution is None and family is not None:
            solution = (family.certificate(), family.solution_set)
        if solution is not None and solution[0].moves != moves:
            raise BadParams(f"the certificate is for {solution[0].moves}, not {moves}")
        self.solution = solution
        # a solved family's cutoffs cover every n; the tables stop at n_max
        self.cutoff_source: CutoffSource = (
            build_thresholds(moves, n_max) if family is None else family
        )

    def cube(self) -> CashTable:
        """A fresh dense cube over the engine's range: the independent reference."""
        return CashTable(self.moves, self.n_max)

    def decide(self, n: int, d: Funds, e: Funds) -> Decision:
        r, state, wins = _settle(self.cutoff_source, self.solution, n, d, e)
        if wins is None:
            result = solve_cash(self.moves, CashState(n, d, e))
            return Decision(result.winner, r.region, "oracle", result=result)
        winner = Winner.MOVER if wins else Winner.OPPONENT
        if state is not None:
            return Decision(winner, r.region, "critical", CSTriple(*state))
        return Decision(winner, r.region, "rich" if r.region.rich else "poor")

    def sweep(self, n_hi: int, d_hi: int, e_hi: int) -> np.ndarray:
        """Pipeline winners for the whole box; True where the mover wins.

        Each layer takes one regime call; its critical cells take one
        solution-set call with array gaps, or one compare against the
        layer's staircase row.  Output is indexed by the raw, unclamped
        budgets.
        """
        if min(_check_stones(hi) for hi in (n_hi, d_hi, e_hi)) < 0:
            raise OutOfRange(f"sweep bounds must be >= 0, got {(n_hi, d_hi, e_hi)}")
        self.cutoff_source.cutoffs(n_hi)  # OutOfRange past the tables, before allocating
        out = np.zeros((n_hi + 1, d_hi + 1, e_hi + 1), dtype=bool)
        d = np.arange(d_hi + 1)[:, None]
        e = np.arange(e_hi + 1)[None, :]
        for n in range(n_hi + 1):
            cutoffs = self.cutoff_source.cutoffs(n)
            r = regime(self.moves, n, cutoffs, d, e)
            out[n] = r.mover_wins
            di, ei = np.nonzero(r.critical)
            if not di.size:
                continue
            # critical budgets are below the rich cutoffs, hence below n: unclamped
            if self.solution is not None:
                cert, candidate = self.solution
                fi, fii, _ = cutoffs
                out[n, di, ei] = candidate.contains(n % cert.period, fi - 1 - di, fii - 1 - ei)
            else:
                out[n, di, ei] = ei < staircase(self.moves, n)[n][di]
        return out
