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
    try:
        value = int(text)
    except ValueError:
        raise NonPositiveValue(f"budget must be an integer >= 0 or UF, got {text!r}") from None
    return _check_funds(value)


def _check_funds(funds: Funds) -> Funds:
    """The one budget rule: :data:`UNLIMITED` or an integer >= 0."""
    if not (funds is UNLIMITED or (type(funds) is int and funds >= 0)):
        _integer(funds, 0, "budgets")
    return funds


def _check_stones(n) -> int:
    """The one stone-count rule: an integer, returned as a plain int.

    The sign is left to the caller, so each entry point keeps its own error
    for a negative count.
    """
    return n if type(n) is int else _integer(n, None, "stone counts")


@dataclass(frozen=True)
class MoveSet:
    """A validated, strictly increasing set of allowed removal amounts."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise EmptySet("move set must be nonempty")
        values = tuple(_integer(v, 1, "move amounts") for v in self.values)
        if len(set(values)) != len(values):
            raise DuplicateValue(f"duplicate move amounts in {values}")
        object.__setattr__(self, "values", tuple(sorted(values)))
        # hashed once: every memo keyed on the move set hashes it per lookup
        object.__setattr__(self, "_hash", hash(self.values))

    def __hash__(self) -> int:
        return self._hash

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


def _integer(value, least: int | None, what: str) -> int:
    """``value`` as a plain int >= ``least`` (any int if None); numpy integers pass,
    bools, floats and strings do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if isinstance(value, bool) or number is None or (least is not None and number < least):
        bound = "" if least is None else f" >= {least}"
        raise NonPositiveValue(f"{what} must be integers{bound}, got {value!r}")
    return number


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
        if _check_stones(self.n) < 0:
            raise NonPositiveValue(f"stone count must be >= 0, got {self.n!r}")
        _check_funds(self.d)
        _check_funds(self.e)

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
    if state.d is UNLIMITED:
        new_opponent_funds: Funds = UNLIMITED
    else:
        if a > state.d:
            raise IllegalMove(f"mover cannot afford {a} with {state.d} dollars")
        new_opponent_funds = state.d - a
    return CashState(state.n - a, state.e, new_opponent_funds)
