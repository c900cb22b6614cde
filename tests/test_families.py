from __future__ import annotations

import random

import pytest

from nimcash import (
    BadParams,
    Winner,
    appendix_check,
    build_thresholds,
    conjecture_check,
    family_solution,
    family_standard,
    family_win,
    new_move_set,
    one_l,
    one_l_l1,
    poor_thresholds,
    range_standard,
    recognize_family,
    standard_winners,
    verify_solution_set,
)
from nimcash.families import REFERENCE_MOVES

KINDS = [one_l(2), one_l(4), one_l(6), one_l_l1(3), one_l_l1(5), one_l_l1(7),
         one_l_l1(2), one_l_l1(4), one_l_l1(6)]


class TestFamilyKinds:
    def test_one_l_rejects_odd_or_small(self):
        with pytest.raises(BadParams):
            one_l(3)
        with pytest.raises(BadParams):
            one_l(0)

    def test_one_l_l1_rejects_small(self):
        with pytest.raises(BadParams):
            one_l_l1(1)

    def test_moduli(self):
        assert one_l(4).modulus == 5
        assert one_l_l1(5).modulus == 11
        assert one_l_l1(4).modulus == 8

    def test_recognize(self):
        assert recognize_family(new_move_set([1, 4])) == one_l(4)
        assert recognize_family(new_move_set([1, 5, 6])) == one_l_l1(5)
        assert recognize_family(new_move_set([1, 4, 5])) == one_l_l1(4)
        assert recognize_family(new_move_set([1, 3])) is None
        assert recognize_family(new_move_set([1, 2, 4])) is None
        assert recognize_family(new_move_set([3, 5, 6, 10, 11])) is None


class TestStandardPatterns:
    def test_interval_set(self):
        assert range_standard(2, 5, 8) is Winner.OPPONENT
        assert family_standard((2, 5), 8) is Winner.OPPONENT

    def test_family_examples(self):
        assert family_standard(one_l(4), 7) is Winner.OPPONENT
        assert family_standard(one_l_l1(5), 13) is Winner.OPPONENT

    @pytest.mark.parametrize("kind", KINDS)
    def test_pattern_matches_dp(self, kind):
        win = standard_winners(kind.moves, 500)
        for n in range(501):
            want = Winner.MOVER if win[n] else Winner.OPPONENT
            assert family_standard(kind, n) is want, (kind.label, n)

    def test_interval_pattern_matches_dp(self):
        for L, M in [(1, 4), (2, 5), (3, 7)]:
            ms = new_move_set(range(L, M + 1))
            win = standard_winners(ms, 400)
            for n in range(401):
                want = Winner.MOVER if win[n] else Winner.OPPONENT
                assert range_standard(L, M, n) is want, (L, M, n)


class TestClosedForms:
    def test_known_values(self):
        sol = family_solution(one_l(4))
        assert sol.winner_need(13) == 10
        assert sol.loser_need(9) == 6
        assert sol.cost_i[(4, 1)] == 3
        assert all(sol.cost_ii[(i, 1)] == 0 for i in range(5))

    def test_odd_family_slope(self):
        # the winner's cutoff climbs by (3L+1)/2 per full period
        sol = family_solution(one_l_l1(5))
        for k in range(1, 6):
            assert sol.winner_need(11 * k) - sol.winner_need(0) == 8 * k

    @pytest.mark.parametrize("kind", KINDS)
    def test_cutoffs_match_recursion_everywhere(self, kind, tables_cache):
        t = tables_cache(kind.moves.values, 500)
        sol = family_solution(kind)
        for n in range(501):
            assert sol.rich_pair(n) == (int(t.rich_i[n]), int(t.rich_ii[n])), (
                kind.label,
                n,
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_solution_set_closure(self, kind):
        sol = family_solution(kind)
        report = verify_solution_set(sol.certificate(), sol.solution_set, 4 * kind.L)
        assert report.passed, (kind.label, report.violations[:3])

    @pytest.mark.parametrize("kind", KINDS)
    def test_solution_set_decides_every_critical_state(self, kind, cube_cache, tables_cache):
        t = tables_cache(kind.moves.values, 60)
        cube = cube_cache(kind.moves.values, 60)
        sol = family_solution(kind)
        for n in range(61):
            g = poor_thresholds(kind.moves, n)
            for d in range(g.poor_i, int(t.rich_i[n])):
                for e in range(g.poor_ii, int(t.rich_ii[n])):
                    member = sol.solution_set.contains(
                        n % kind.modulus,
                        int(t.rich_i[n]) - 1 - d,
                        int(t.rich_ii[n]) - 1 - e,
                    )
                    assert member == cube.mover_wins(n, d, e), (kind.label, n, d, e)


class TestFamilyWin:
    def test_critical_example(self):
        assert family_win(one_l(4), 13, 8, 7) is Winner.MOVER

    def test_rich_both_example(self):
        assert family_win(one_l(4), 10, 20, 20) is Winner.OPPONENT

    def test_poor_both_example(self):
        assert family_win(one_l(4), 9, 3, 2) is Winner.MOVER

    @pytest.mark.parametrize("kind", [one_l(4), one_l_l1(3), one_l_l1(4), one_l_l1(5)])
    def test_matches_oracle_on_box(self, kind, cube_cache):
        cube = cube_cache(kind.moves.values, 50)
        for n in range(51):
            for d in range(51):
                for e in range(51):
                    assert family_win(kind, n, d, e) is cube.winner(n, d, e), (
                        kind.label,
                        n,
                        d,
                        e,
                    )

    @pytest.mark.parametrize("kind", [one_l(4), one_l_l1(5), one_l_l1(4)])
    def test_one_ply_fixpoint_past_int64(self, kind):
        """Past int64: the mover wins iff some affordable move leaves a lost position."""
        rng = random.Random(11)
        for k in range(300):
            n = 10**30 + k
            fi, fii = family_solution(kind).rich_pair(n)
            g = poor_thresholds(kind.moves, n)
            # budgets near a rich or a poor cutoff, so that every region comes up
            d = rng.choice([fi, g.poor_i]) + rng.randint(-3, 2)
            e = rng.choice([fii, g.poor_ii]) + rng.randint(-3, 2)
            escape = any(
                family_win(kind, n - a, e, d - a) is Winner.OPPONENT
                for a in kind.moves
                if a <= d
            )
            assert (family_win(kind, n, d, e) is Winner.MOVER) == escape, (n, d, e)

    def test_large_positions_are_cheap(self):
        kind = one_l_l1(7)
        n = 10**15 + 7
        w = family_win(kind, n, n // 2, n // 3)
        assert w in (Winner.MOVER, Winner.OPPONENT)


class TestConjectureCheck:
    def test_bad_params(self):
        with pytest.raises(BadParams):
            conjecture_check(3, 2)
        with pytest.raises(BadParams):
            conjecture_check(2, 4, n_max=20)

    def test_offset_is_minimal_with_clean_tail(self):
        report = conjecture_check(1, 2, n_max=200, critical_n_max=40)
        assert report.theta is not None
        ms = new_move_set([1, 2])
        t = build_thresholds(ms, 200)
        period, slope = 3, 2
        for n in range(report.theta, 200 - period + 1):
            assert t.rich_i[n + period] == t.rich_i[n] + slope
            assert t.rich_ii[n + period] == t.rich_ii[n] + slope
        if report.theta > 0:
            n = report.theta - 1
            assert (
                t.rich_i[n + period] != t.rich_i[n] + slope
                or t.rich_ii[n + period] != t.rich_ii[n] + slope
            )

    def test_report_fields(self):
        report = conjecture_check(2, 4, n_max=240, critical_n_max=60)
        assert report.theta is not None
        assert report.theta_bound == 5 * 4 + 2
        assert report.bound_holds is (report.theta <= report.theta_bound)
        assert report.special_case_holds is (report.theta == 6)

    def test_counterexamples_are_recorded_and_faithful(self, cube_cache):
        report = conjecture_check(2, 3, n_max=240, critical_n_max=50)
        cube = cube_cache((2, 3), 50)
        for c in report.x_counterexamples:
            assert cube.winner(c.n, c.d, c.e) is c.oracle_winner
            assert c.conjectured_member != (c.oracle_winner is Winner.MOVER)

    def test_degenerate_single_move_set(self):
        report = conjecture_check(1, 1, n_max=100, critical_n_max=30)
        assert report.theta is not None

    @pytest.mark.parametrize("L, M", [(2, 3), (2, 4), (3, 5)])
    def test_interval_cutoffs_are_semantically_sound(self, L, M, cube_cache, tables_cache):
        """The sweep's cutoff tables carry real least-cash/sharpness meaning."""
        values = tuple(range(L, M + 1))
        t = tables_cache(values, 60)
        cube = cube_cache(values, 60)
        for n in range(61):
            fi, fii = int(t.rich_i[n]), int(t.rich_ii[n])
            if t.winners[n]:
                least = next(d for d in range(n + 1) if cube.mover_wins(n, d, n))
                assert least == fi, (L, M, n)
            if fii >= 1:
                assert cube.mover_wins(n, fi, fii - 1)
                assert not cube.mover_wins(n, fi - 1, fii)


class TestAppendixCheck:
    def test_bad_params(self):
        with pytest.raises(BadParams):
            appendix_check(3)

    def test_head_reported_verbatim(self, tables_cache):
        report = appendix_check(4)
        assert len(report.head) == 64
        t = tables_cache(REFERENCE_MOVES, 80)
        for n, ri, rii in report.head:
            assert ri == t.rich_i[n] and rii == t.rich_ii[n]

    def test_report_is_faithful_to_the_recursion(self, tables_cache):
        """Every reported cell, matching or not, reflects the computed tables."""
        report = appendix_check(6)
        t = tables_cache(REFERENCE_MOVES, 16 * 6 + 15)
        for m in report.mismatches:
            computed = t.rich_i[m.n] if m.table == "rich_i" else t.rich_ii[m.n]
            assert m.computed == computed
            assert m.computed != m.tabulated

    def test_computed_rows_become_linear_with_mixed_slopes(self, tables_cache):
        """Each residue row eventually climbs linearly, with slope 10 or 11.

        The mixed slopes are the point of this move set: no single slope
        serves every residue, so the cutoffs cannot be cash-periodic.
        """
        t = tables_cache(REFERENCE_MOVES, 16 * 14 + 15)
        slopes = set()
        for arr in (t.rich_i, t.rich_ii):
            for r in range(16):
                deltas = {
                    int(arr[16 * (k + 1) + r] - arr[16 * k + r]) for k in range(6, 14)
                }
                assert len(deltas) == 1, (r, deltas)
                slopes |= deltas
        assert slopes == {10, 11}
