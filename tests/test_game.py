from __future__ import annotations

import numpy as np
import pytest

from nimcash import (
    UNLIMITED,
    CashState,
    DuplicateValue,
    EmptySet,
    IllegalMove,
    NonPositiveValue,
    Winner,
    apply_move,
    clamp_funds,
    is_terminal_loss,
    legal_moves,
    new_move_set,
)
from nimcash.game import format_funds, parse_funds


class TestMoveSet:
    def test_valid_set(self):
        ms = new_move_set([1, 3, 4])
        assert ms.values == (1, 3, 4)
        assert ms.a_min == 1
        assert ms.a_max == 4

    def test_unsorted_input_is_normalized(self):
        assert new_move_set([4, 1, 3]).values == (1, 3, 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            new_move_set([])

    def test_duplicates_rejected_not_merged(self):
        with pytest.raises(DuplicateValue):
            new_move_set([3, 3, 5])

    def test_numpy_integers_accepted(self):
        ms = new_move_set([np.int64(4), np.int32(1), 3])
        assert ms.values == (1, 3, 4)
        assert all(type(a) is int for a in ms.values)

    @pytest.mark.parametrize("bad", [[0, 2], [-1, 3], [1, 2.5], [True, 2], [np.int64(0), 2]])
    def test_non_positive_or_non_integer_rejected(self, bad):
        with pytest.raises(NonPositiveValue):
            new_move_set(bad)

    def test_membership_and_iteration(self):
        ms = new_move_set([1, 4])
        assert 4 in ms and 2 not in ms
        assert list(ms) == [1, 4]
        assert str(ms) == "{1,4}"


class TestFunds:
    def test_clamp(self):
        assert clamp_funds(UNLIMITED, 14) == 14
        assert clamp_funds(9, 14) == 9
        assert clamp_funds(99, 14) == 14

    def test_parse_and_format(self):
        assert parse_funds("UF") is UNLIMITED
        assert parse_funds("uf") is UNLIMITED
        assert parse_funds("7") == 7
        assert format_funds(UNLIMITED) == "UF"
        assert format_funds(3) == "3"
        with pytest.raises(NonPositiveValue):
            parse_funds("-1")

    def test_state_validation(self):
        with pytest.raises(NonPositiveValue):
            CashState(-1, 3, 3)
        with pytest.raises(NonPositiveValue):
            CashState(3, -1, 3)
        for flagged in [(True, 1, 1), (3, True, 1), (3, 1, False)]:
            with pytest.raises(NonPositiveValue):
                CashState(*flagged)
        assert str(CashState(14, UNLIMITED, 10)) == "(14;UF,10)"


class TestLegalMoves:
    def test_all_affordable(self):
        ms = new_move_set([1, 3, 4])
        assert legal_moves(ms, CashState(14, 4, 4)) == [1, 3, 4]

    def test_board_cap(self):
        ms = new_move_set([1, 3, 4])
        assert legal_moves(ms, CashState(2, 9, 9)) == [1]

    def test_funds_cap(self):
        ms = new_move_set([3, 5, 6, 10, 11])
        assert legal_moves(ms, CashState(20, 4, 99)) == [3]

    def test_unlimited_imposes_no_cap(self):
        ms = new_move_set([1, 3, 4])
        assert legal_moves(ms, CashState(14, UNLIMITED, 0)) == [1, 3, 4]


class TestApplyMove:
    def test_transition_swaps_roles(self):
        s = apply_move(CashState(14, 9, 9), 1)
        assert s == CashState(13, 9, 8)
        s = apply_move(CashState(13, 9, 8), 4)
        assert s == CashState(9, 8, 5)

    def test_unlimited_stays_unlimited(self):
        s = apply_move(CashState(14, UNLIMITED, 10), 4)
        assert s.n == 10 and s.d == 10 and s.e is UNLIMITED

    def test_too_many_stones(self):
        with pytest.raises(IllegalMove):
            apply_move(CashState(2, 9, 9), 3)

    def test_unaffordable(self):
        with pytest.raises(IllegalMove):
            apply_move(CashState(10, 2, 9), 3)

    def test_not_in_move_set(self):
        with pytest.raises(IllegalMove):
            apply_move(CashState(10, 9, 9), 2, new_move_set([1, 3, 4]))


class TestTerminalLoss:
    def test_no_stones(self):
        assert is_terminal_loss(new_move_set([1, 3, 4]), CashState(0, 5, 5))

    def test_too_poor(self):
        assert is_terminal_loss(new_move_set([3, 5, 6, 10, 11]), CashState(10, 2, 50))

    def test_has_a_move(self):
        assert not is_terminal_loss(new_move_set([1, 3, 4]), CashState(1, 1, 0))

    def test_terminal_iff_no_legal_moves(self):
        for values in [(1, 3, 4), (2, 3), (3, 5, 6, 10, 11)]:
            ms = new_move_set(values)
            for n in range(12):
                for d in list(range(12)) + [UNLIMITED]:
                    s = CashState(n, d, 5)
                    assert is_terminal_loss(ms, s) == (not legal_moves(ms, s))

    def test_fund_cap_never_changes_legality(self):
        ms = new_move_set([2, 5])
        for n in range(15):
            for d in range(20):
                a = legal_moves(ms, CashState(n, d, 3))
                b = legal_moves(ms, CashState(n, min(d, n), 3))
                assert a == b


class TestWinner:
    def test_flip(self):
        assert Winner.MOVER.flip() is Winner.OPPONENT
        assert Winner.OPPONENT.flip() is Winner.MOVER

    def test_root_rendering(self):
        assert Winner.MOVER.as_player() == "Player I"
        assert Winner.OPPONENT.as_player() == "Player II"
