"""Core game model: move sets, cash states, legality, and the move transition.

The game is a one-pile subtraction game with budgets: removing ``a`` stones
also costs the mover ``a`` dollars.  A player who cannot move (too few stones
or too little cash) loses.  States are always mover-perspective: ``(n; d, e)``
means ``n`` stones remain, the player to move has ``d`` dollars, and the
opponent has ``e``.  Applying a move swaps the roles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

from .errors import DuplicateValue, EmptySet, IllegalMove, NonPositiveValue


class Winner(Enum):
    """Outcome under optimal play, relative to the player to move."""

    MOVER = "mover"
    OPPONENT = "opponent"

    def flip(self) -> "Winner":
        return Winner.OPPONENT if self is Winner.MOVER else Winner.MOVER

    def as_player(self) -> str:
        """Render relative to the root of a game, where the mover is Player I."""
        return "Player I" if self is Winner.MOVER else "Player II"


class _UnlimitedFunds:
    """Singleton budget that never constrains a move."""

    _instance: "_UnlimitedFunds | None" = None

    def __new__(cls) -> "_UnlimitedFunds":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UF"


UNLIMITED = _UnlimitedFunds()

#: A budget: a non-negative integer or :data:`UNLIMITED`.
Funds = int | _UnlimitedFunds


def clamp_funds(funds: Funds, n: int) -> int:
    """Reduce a budget to at most ``n`` dollars.

    Spending in a game with ``n`` stones can never exceed ``n``, so any budget
    of ``n`` or more behaves exactly like an unlimited one.
    """
    if isinstance(funds, _UnlimitedFunds):
        return n
    return min(funds, n)


def format_funds(funds: Funds) -> str:
    return "UF" if isinstance(funds, _UnlimitedFunds) else str(funds)


def parse_funds(text: str) -> Funds:
    """Parse a budget: a non-negative integer or the literal ``UF``."""
    text = text.strip()
    if text.upper() == "UF":
        return UNLIMITED
    value = int(text)
    if value < 0:
        raise NonPositiveValue(f"budget must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class MoveSet:
    """A validated, strictly increasing set of allowed removal amounts."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise EmptySet("move set must be nonempty")
        values = tuple(_amount(v) for v in self.values)
        if len(set(values)) != len(values):
            raise DuplicateValue(f"duplicate move amounts in {values}")
        object.__setattr__(self, "values", tuple(sorted(values)))

    @property
    def a_min(self) -> int:
        """Smallest allowed removal; governs terminal losses and poor play."""
        return self.values[0]

    @property
    def a_max(self) -> int:
        return self.values[-1]

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, a: int) -> bool:
        return a in self.values

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.values) + "}"


def _amount(value) -> int:
    """A move amount as a plain int; numpy integers pass, bools and floats do not."""
    try:
        amount = operator.index(value)
    except TypeError:
        amount = 0
    if isinstance(value, bool) or amount < 1:
        raise NonPositiveValue(f"move amounts must be integers >= 1, got {value!r}")
    return amount


def new_move_set(values) -> MoveSet:
    """Build a normalized move set, rejecting empty/invalid/duplicate input."""
    return MoveSet(tuple(values))


@dataclass(frozen=True)
class CashState:
    """Mover-perspective position: stones, mover's budget, opponent's budget."""

    n: int
    d: Funds
    e: Funds

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or self.n < 0:
            raise NonPositiveValue(f"stone count must be >= 0, got {self.n!r}")
        for f in (self.d, self.e):
            if isinstance(f, bool) or (isinstance(f, int) and f < 0):
                raise NonPositiveValue(f"budgets must be >= 0, got {f!r}")

    def clamped(self) -> tuple[int, int, int]:
        """The equivalent all-finite state with budgets capped at ``n``."""
        return self.n, clamp_funds(self.d, self.n), clamp_funds(self.e, self.n)

    def __str__(self) -> str:
        return f"({self.n};{format_funds(self.d)},{format_funds(self.e)})"


def legal_moves(moves: MoveSet, state: CashState) -> list[int]:
    """All amounts the mover may remove: in the set, on the board, affordable."""
    n, d, _ = state.clamped()
    cap = min(n, d)
    return [a for a in moves if a <= cap]


def is_terminal_loss(moves: MoveSet, state: CashState) -> bool:
    """True iff the mover cannot move at all and so loses immediately."""
    n, d, _ = state.clamped()
    return n < moves.a_min or d < moves.a_min


def apply_move(state: CashState, a: int, moves: MoveSet | None = None) -> CashState:
    """Remove ``a`` stones, charge the mover ``a`` dollars, and swap roles.

    Raises :class:`IllegalMove` when ``a`` is off the board, unaffordable, or
    (when ``moves`` is given) not an allowed amount.
    """
    if moves is not None and a not in moves:
        raise IllegalMove(f"{a} is not in the move set {moves}")
    if a < 1 or a > state.n:
        raise IllegalMove(f"cannot remove {a} stones from {state.n}")
    if isinstance(state.d, int):
        if a > state.d:
            raise IllegalMove(f"mover cannot afford {a} with {state.d} dollars")
        new_opponent_funds: Funds = state.d - a
    else:
        new_opponent_funds = UNLIMITED
    return CashState(state.n - a, state.e, new_opponent_funds)
