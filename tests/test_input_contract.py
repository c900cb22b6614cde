"""Input outside the contract ends in a ``NimCashError``, never a traceback.

Sizes (table ranges, bounds, boxes, period counts) and stone counts are
plain or numpy integers; a float, a bool or a string raises
:class:`NonPositiveValue`, and a negative value keeps the error its entry
point has always raised.  Period detection, induction, the engine and the
closure check refuse tables, certificates and solution sets built for another
move set.
"""

from __future__ import annotations

import numpy as np
import pytest

from nimcash import (
    BadParams,
    CashState,
    CashTable,
    CSTriple,
    NonPositiveValue,
    OutOfRange,
    ResourceLimit,
    SolutionSet,
    WinEngine,
    Winner,
    appendix_check,
    build_thresholds,
    conjecture_check,
    detect_cash_period,
    family_solution,
    induce_candidate,
    new_move_set,
    one_l,
    one_l_l1,
    poor_thresholds,
    range_standard,
    solve_cash,
    solve_standard,
    step_cs,
    verify_solution_set,
)

TWO_THREE = new_move_set([2, 3])
ONE_THREE_FOUR = new_move_set([1, 3, 4])


def _verify(box):
    sol = family_solution(one_l(4))
    return verify_solution_set(sol.certificate(), sol.solution_set, box)


# (entry point taking one size, error it raises for a negative size)
SIZED = {
    "build_thresholds": (lambda x: build_thresholds(TWO_THREE, x), OutOfRange),
    "WinEngine": (lambda x: WinEngine(TWO_THREE, x), OutOfRange),
    "WinEngine, family": (lambda x: WinEngine(ONE_THREE_FOUR, x), OutOfRange),
    "CashTable": (lambda x: CashTable(TWO_THREE, x), OutOfRange),
    "CashTable cap": (lambda x: CashTable(TWO_THREE, 5, x), OutOfRange),
    "solve_standard": (lambda x: solve_standard(TWO_THREE, x), OutOfRange),
    "conjecture_check n_max": (lambda x: conjecture_check(2, 3, x), BadParams),
    "conjecture_check critical": (lambda x: conjecture_check(2, 3, 40, x), BadParams),
    "conjecture_check L": (lambda x: conjecture_check(x, 3, 40), BadParams),
    "appendix_check": (lambda x: appendix_check(x), BadParams),
    "detect_cash_period n_check": (
        lambda x: detect_cash_period(TWO_THREE, build_thresholds(TWO_THREE, 200), 16, x),
        BadParams,
    ),
    "detect_cash_period m_max": (
        lambda x: detect_cash_period(TWO_THREE, build_thresholds(TWO_THREE, 200), x, 150),
        BadParams,
    ),
    "verify_solution_set": (_verify, BadParams),
    "solve_cash bound": (lambda x: solve_cash(TWO_THREE, CashState(5, 3, 3), x), ResourceLimit),
}


@pytest.mark.parametrize("bad", [2.5, 40.0, True, "x"], ids=repr)
@pytest.mark.parametrize("site", SIZED)
def test_sizes_outside_the_rule_rejected(site, bad):
    call, negative = SIZED[site]
    with pytest.raises(NonPositiveValue):
        call(bad)
    if negative is not None:
        with pytest.raises(negative):
            call(-1)


class TestStoneCounts:
    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10"], ids=repr)
    def test_poor_cutoffs(self, n):
        with pytest.raises(NonPositiveValue):
            poor_thresholds(TWO_THREE, n)

    def test_poor_cutoffs_keep_their_errors_and_types(self):
        with pytest.raises(OutOfRange):
            poor_thresholds(TWO_THREE, -1)
        got = poor_thresholds(TWO_THREE, np.int64(10))
        assert got == poor_thresholds(TWO_THREE, 10) == (6, 5)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("n", [2.5, True, "4"], ids=repr)
    def test_interval_standard_winner(self, n):
        with pytest.raises(NonPositiveValue):
            range_standard(2, 3, n)
        with pytest.raises(BadParams):
            range_standard(2, 3, -5)
        assert range_standard(2, 3, np.int64(7)) is Winner.MOVER

    @pytest.mark.parametrize("moves", [TWO_THREE, ONE_THREE_FOUR], ids=str)
    def test_sweep_bounds(self, moves):
        engine = WinEngine(moves, 20)
        for bounds in [(5, -2, 3), (5, 2, -1), (-1, 2, 3)]:
            with pytest.raises(OutOfRange):
                engine.sweep(*bounds)
        for bounds in [(5, 2.5, 3), (5, 2, True), ("5", 2, 3)]:
            with pytest.raises(NonPositiveValue):
                engine.sweep(*bounds)
        assert engine.sweep(5, np.int64(2), 3).shape == (6, 3, 4)


class TestMismatchedMoveSets:
    def test_detection_refuses_another_sets_tables(self):
        tables = build_thresholds(new_move_set([1, 2, 5]), 400)
        with pytest.raises(BadParams, match="not {1,3,4}"):
            detect_cash_period(ONE_THREE_FOUR, tables, 16, 300)
        own = build_thresholds(ONE_THREE_FOUR, 400)
        assert detect_cash_period(ONE_THREE_FOUR, own, 16, 300).period == 7

    def test_induction_refuses_another_sets_tables_or_certificate(self):
        own = build_thresholds(ONE_THREE_FOUR, 400)
        cert = detect_cash_period(ONE_THREE_FOUR, own, 16, 300)
        other_moves = new_move_set([1, 2, 5])
        other = build_thresholds(other_moves, 400)
        with pytest.raises(BadParams):
            induce_candidate(ONE_THREE_FOUR, other, cert, 30)
        with pytest.raises(BadParams):
            induce_candidate(other_moves, other, cert, 30)
        states, consistent = induce_candidate(ONE_THREE_FOUR, own, cert, 30)
        assert consistent and states

    def test_engine_refuses_another_sets_certificate(self):
        sol = family_solution(one_l(4))
        with pytest.raises(BadParams, match="not {1,4,5}"):
            WinEngine(new_move_set([1, 4, 5]), 20, (sol.certificate(), sol.solution_set))
        engine = WinEngine(new_move_set([1, 4]), 20, (sol.certificate(), sol.solution_set))
        assert engine.decide(13, 8, 7).method == "critical"


class TestNegativeCap:
    @pytest.mark.parametrize("cap", [-1, -3, np.int64(-2)], ids=repr)
    def test_negative_cap_rejected(self, cap):
        with pytest.raises(OutOfRange, match="cap must be >= 0"):
            CashTable(TWO_THREE, 5, cap)


class TestCertificateMoves:
    def test_step_with_a_move_outside_the_set(self):
        cert = family_solution(one_l(4)).certificate()
        with pytest.raises(OutOfRange, match="move 7 is not in {1,4}"):
            step_cs(cert, CSTriple(0, 1, 1), 7)
        assert step_cs(cert, CSTriple(0, 1, 1), 4) == CSTriple(
            1, 1 - cert.cost_ii[(0, 4)], 1 - cert.cost_i[(0, 4)]
        )

    def test_closure_check_refuses_another_periods_set(self):
        cert = family_solution(one_l_l1(3)).certificate()  # {1,3,4}, period 7
        with pytest.raises(BadParams, match="5 residues"):
            verify_solution_set(cert, family_solution(one_l(4)).solution_set, 3)

    def test_closure_check_refuses_another_sets_rows_of_the_same_period(self):
        cert = family_solution(one_l_l1(3)).certificate()
        other = family_solution(one_l(6)).solution_set  # {1,6}, also 7 residues
        assert other.period == cert.period == 7
        with pytest.raises(BadParams, match="for {1,6}"):
            verify_solution_set(cert, other, 3)

    def test_sets_without_a_period_or_move_set_stay_accepted(self):
        sol = family_solution(one_l_l1(3))
        own = sol.solution_set
        assert (own.period, own.moves) == (7, sol.moves)
        assert verify_solution_set(sol.certificate(), own, 5).passed
        predicate = SolutionSet(own.contains, "predicate only")
        assert (predicate.period, predicate.moves) == (None, None)
        assert verify_solution_set(sol.certificate(), predicate, 5).passed
        rows_only = SolutionSet.from_rows(2, [(0, -1)] * 7)
        assert (rows_only.period, rows_only.moves) == (7, None)
        assert verify_solution_set(sol.certificate(), rows_only, 2).checked == 7 * 9
