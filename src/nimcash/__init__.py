"""Exact solving and closed-form win conditions for subtraction games with cash.

Players alternately remove an allowed number of stones from one pile, and
each removal costs the mover that many dollars from a personal budget; a
player who cannot afford any legal removal loses.  The package provides an
exact oracle, rich/poor budget cutoffs, cash-periodicity detection with
solution-set verification, complete win conditions for the solved families,
and report-only sweeps for the open conjectures.
"""

from .engine import Decision, WinEngine
from .errors import (
    BadParams,
    DuplicateValue,
    EmptySet,
    IllegalMove,
    NimCashError,
    NonPositiveValue,
    OutOfRange,
    ResourceLimit,
)
from .families import (
    AppendixReport,
    ConjectureReport,
    FamilyKind,
    FamilySolution,
    appendix_check,
    conjecture_check,
    family_solution,
    family_standard,
    family_win,
    one_l,
    one_l_l1,
    range_standard,
    recognize_family,
)
from .game import (
    UNLIMITED,
    CashState,
    Funds,
    MoveSet,
    Winner,
    apply_move,
    clamp_funds,
    is_terminal_loss,
    legal_moves,
    new_move_set,
)
from .oracle import (
    CashTable,
    SolveResult,
    best_move,
    solve_cash,
    solve_standard,
    standard_winners,
    wins_miserly,
)
from .periodicity import (
    CSTriple,
    PeriodCertificate,
    SolutionSet,
    VerificationReport,
    compute_costs,
    corresponding_state,
    detect_cash_period,
    induce_candidate,
    step_cs,
    verify_solution_set,
)
from .thresholds import (
    Region,
    ThresholdTables,
    build_thresholds,
    poor_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "UNLIMITED",
    "AppendixReport",
    "BadParams",
    "CashState",
    "CashTable",
    "ConjectureReport",
    "CSTriple",
    "Decision",
    "DuplicateValue",
    "EmptySet",
    "FamilyKind",
    "FamilySolution",
    "Funds",
    "IllegalMove",
    "MoveSet",
    "NimCashError",
    "NonPositiveValue",
    "OutOfRange",
    "PeriodCertificate",
    "Region",
    "ResourceLimit",
    "SolutionSet",
    "SolveResult",
    "ThresholdTables",
    "VerificationReport",
    "WinEngine",
    "Winner",
    "appendix_check",
    "apply_move",
    "best_move",
    "build_thresholds",
    "clamp_funds",
    "compute_costs",
    "conjecture_check",
    "corresponding_state",
    "detect_cash_period",
    "family_solution",
    "family_standard",
    "family_win",
    "induce_candidate",
    "is_terminal_loss",
    "legal_moves",
    "new_move_set",
    "one_l",
    "one_l_l1",
    "poor_thresholds",
    "range_standard",
    "recognize_family",
    "solve_cash",
    "solve_standard",
    "standard_winners",
    "step_cs",
    "verify_solution_set",
    "wins_miserly",
]
