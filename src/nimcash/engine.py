"""Composite win-condition engine: thresholds first, oracle only as last resort.

``WinEngine`` wires the pieces together for one move set.  Rich and poor
positions are decided by their cutoffs; critical positions go through a
solution set when one is available (recognized family instances supply
theirs automatically) and fall back to the exact solver otherwise.  The
engine reports which rule decided each query so callers can explain results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import family_solution, recognize_family
from .game import CashState, Funds, MoveSet, Winner
from .oracle import CashTable, SolveResult, solve_cash
from .periodicity import (
    CSTriple,
    PeriodCertificate,
    SolutionSet,
    corresponding_state,
)
from .thresholds import Region, ThresholdTables, build_thresholds, regime


@dataclass(frozen=True)
class Decision:
    """How a position was decided; ``result`` is the solver's answer for "oracle"."""

    winner: Winner
    region: Region
    method: str  # "rich" | "poor" | "critical" | "oracle"
    cs: CSTriple | None = None
    result: SolveResult | None = None


class WinEngine:
    """Decides positions for one move set up to a fixed stone bound."""

    def __init__(
        self,
        moves: MoveSet,
        n_max: int,
        solution: tuple[PeriodCertificate, SolutionSet] | None = None,
    ) -> None:
        self.moves = moves
        self.n_max = n_max
        self.tables: ThresholdTables = build_thresholds(moves, n_max)
        if solution is None:
            kind = recognize_family(moves)
            if kind is not None:
                sol = family_solution(kind)
                solution = (sol.certificate(), sol.solution_set)
        self.solution = solution
        self._cube: CashTable | None = None

    def cube(self) -> CashTable:
        """Dense oracle over the engine's whole range, built on first use."""
        if self._cube is None:
            self._cube = CashTable(self.moves, self.n_max)
        return self._cube

    def decide(self, n: int, d: Funds, e: Funds) -> Decision:
        r = regime(self.moves, n, self.tables.cutoffs(n), d, e)
        if not r.critical:
            winner = Winner.MOVER if r.mover_wins else Winner.OPPONENT
            return Decision(winner, r.region, "rich" if r.region.rich else "poor")
        if self.solution is not None:
            cert, candidate = self.solution
            cs = corresponding_state(cert, self.tables, n, d, e)
            winner = Winner.MOVER if cs in candidate else Winner.OPPONENT
            return Decision(winner, r.region, "critical", cs)
        result = solve_cash(self.moves, CashState(n, d, e))
        return Decision(result.winner, r.region, "oracle", result=result)

    def sweep(self, n_hi: int, d_hi: int, e_hi: int) -> np.ndarray:
        """Pipeline winners for the whole box; True where the mover wins.

        Each layer takes one regime call; its critical cells take one
        solution-set call with array gaps, or are read off the oracle cube.
        Output is indexed by the raw, unclamped budgets.
        """
        self.tables.check_range(n_hi)
        out = np.zeros((n_hi + 1, d_hi + 1, e_hi + 1), dtype=bool)
        d = np.arange(d_hi + 1)[:, None]
        e = np.arange(e_hi + 1)[None, :]
        for n in range(n_hi + 1):
            cutoffs = self.tables.cutoffs(n)
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
                out[n, di, ei] = self.cube().win[n, di, ei]
        return out
