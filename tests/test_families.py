from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from nimcash import (
    BadParams,
    NonPositiveValue,
    OutOfRange,
    SolutionSet,
    Winner,
    appendix_check,
    build_thresholds,
    conjecture_check,
    detect_cash_period,
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
from nimcash import families
from nimcash.families import REFERENCE_MOVES, interval_cs_member
from nimcash.periodicity import critical_scan
from reference import ref_family_cutoffs

KINDS = [one_l(2), one_l(4), one_l(6), one_l_l1(3), one_l_l1(5), one_l_l1(7),
         one_l_l1(2), one_l_l1(4), one_l_l1(6)]
# every family instance with L <= 40: 20 of {1,L} and 39 of {1,L,L+1}
ALL_KINDS = [one_l(L) for L in range(2, 41, 2)] + [one_l_l1(L) for L in range(2, 41)]


def _kind_id(kind):
    return f"{kind.moves.values}"


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
        assert sol.cutoffs(13) == (10, 8, True)  # the winner needs 10 at n = 13
        assert sol.cutoffs(9)[1:] == (6, True)  # the loser's cutoff at n = 9 is 6
        cert = sol.certificate()
        assert cert.cost_i[(4, 1)] == 3
        assert all(cert.cost_ii[(i, 1)] == 0 for i in range(5))

    @pytest.mark.parametrize("kind", KINDS)
    def test_certificate_matches_detection(self, kind, tables_cache):
        """The tables derived from the closed forms equal those read off the recursion."""
        cert = family_solution(kind).certificate()
        detected = detect_cash_period(
            kind.moves, tables_cache(kind.moves.values, 700), m_max=kind.modulus, n_check=600
        )
        assert detected is not None
        assert detected.period == cert.period == kind.modulus
        assert detected.winner_pattern == cert.winner_pattern
        assert detected.cost_i == cert.cost_i
        assert detected.cost_ii == cert.cost_ii
        assert cert.verified_up_to == 0

    def test_certificate_is_shared_and_read_only(self):
        cert = family_solution(one_l(4)).certificate()
        assert family_solution(one_l(4)).certificate() is cert
        with pytest.raises(TypeError):
            cert.cost_i[(4, 1)] = 0
        with pytest.raises(TypeError):
            cert.cost_ii[(0, 4)] = 0

    def test_odd_family_slope(self):
        # the winner's cutoff climbs by (3L+1)/2 per full period
        sol = family_solution(one_l_l1(5))
        assert sol.cutoffs(0)[2] is False  # n = 0 is lost: the winner is Player II
        for k in range(1, 6):
            assert sol.cutoffs(11 * k)[1] - sol.cutoffs(0)[1] == 8 * k

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


class TestEveryInstanceUpTo40:
    """Each instance against the recursion, the staircase and period detection.

    The range ``n <= 3*modulus + 2*max(A)`` holds three periods past the
    irregular head, so every residue row of the solution set meets critical
    cells and detection sees each residue at least three times.
    """

    @staticmethod
    def _n_hi(kind):
        return 3 * kind.modulus + 2 * kind.moves.a_max

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=_kind_id)
    def test_cutoffs_match_the_recursion(self, kind, tables_cache):
        n_hi = self._n_hi(kind)
        t = tables_cache(kind.moves.values, n_hi)
        want = list(zip(t.rich_i.tolist(), t.rich_ii.tolist(), t.winners.tolist()))
        assert [family_solution(kind).cutoffs(n) for n in range(n_hi + 1)] == want

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=_kind_id)
    def test_cutoffs_match_the_closed_forms(self, kind):
        """The extended recursion rows against the paper's closed forms, to 10**15."""
        sol = family_solution(kind)
        rng = random.Random(f"closed forms {kind.moves.values}")
        ns = list(range(kind.moves.a_max + 3 * kind.modulus + 1))
        ns += [rng.randint(0, 10**15) for _ in range(200)]
        assert [sol.cutoffs(n) for n in ns] == [ref_family_cutoffs(kind, n) for n in ns]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=_kind_id)
    def test_rows_decide_every_critical_cell(self, kind):
        sol = family_solution(kind)
        ns, _, _, mover_gap, opp_gap, wins = critical_scan(sol, self._n_hi(kind))
        for n in range(self._n_hi(kind) + 1):
            at = ns == n
            member = sol.solution_set.contains(n % kind.modulus, mover_gap[at], opp_gap[at])
            assert np.array_equal(member, wins[at]), (kind.label, kind.L, n)
        assert len(set((ns % kind.modulus).tolist())) == kind.modulus

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=_kind_id)
    def test_certificate_matches_detection_on_three_periods(self, kind, tables_cache):
        cert = family_solution(kind).certificate()
        t = tables_cache(kind.moves.values, self._n_hi(kind))
        detected = detect_cash_period(kind.moves, t, m_max=kind.modulus)
        assert detected is not None
        assert (detected.period, detected.winner_pattern) == (cert.period, cert.winner_pattern)
        assert (detected.cost_i, detected.cost_ii) == (cert.cost_i, cert.cost_ii)
        assert cert.verified_up_to == 0

    @pytest.mark.parametrize(
        "kind", [k for k in ALL_KINDS if k.L <= 12 and k not in KINDS], ids=_kind_id
    )
    def test_closure_of_the_rest_up_to_12(self, kind):
        """With ``TestClosedForms.test_solution_set_closure``: every instance with L <= 12."""
        sol = family_solution(kind)
        report = verify_solution_set(sol.certificate(), sol.solution_set, 4 * kind.L)
        assert report.passed, (kind.label, report.violations[:3])


class TestRowSets:
    def test_scalar_and_array_membership_agree(self):
        x = SolutionSet.from_rows(3, [(0, -1), (1, 2), (2, 0)])
        b, b2 = np.indices((12, 12))
        for i in range(3):
            grid = x.contains(i, b, b2)
            assert grid.dtype == bool
            assert grid.tolist() == [
                [x.contains(i, p, q) for q in range(12)] for p in range(12)
            ]
        # residue 1: b2 > 3*floor((b - 1)/3) + 2
        assert not x.contains(1, 0, -1) and x.contains(1, 0, 0)
        assert not x.contains(1, 4, 5) and x.contains(1, 4, 6)

    def test_certificate_refuses_cutoffs_that_are_not_periodic(self, monkeypatch):
        sol = family_solution(one_l(4))
        real = families.build_thresholds

        def glitched(moves, n_max):  # n = 12 is lost: raise the winner's cutoff there
            t = real(moves, n_max)
            rich_ii = t.rich_ii.copy()
            rich_ii[12] += 1
            return dataclasses.replace(t, rich_ii=rich_ii)

        monkeypatch.setattr(families, "build_thresholds", glitched)
        with pytest.raises(AssertionError, match="not 5-periodic"):
            dataclasses.replace(sol)


class TestFamilyWin:
    def test_critical_example(self):
        assert family_win(one_l(4), 13, 8, 7) is Winner.MOVER

    def test_rich_both_example(self):
        assert family_win(one_l(4), 10, 20, 20) is Winner.OPPONENT

    def test_poor_both_example(self):
        assert family_win(one_l(4), 9, 3, 2) is Winner.MOVER

    @pytest.mark.parametrize("d, e", [(-1, 3), (True, 3), (3, -2), (3, False), (2.0, 3)])
    def test_budgets_outside_the_rule_rejected(self, d, e):
        with pytest.raises(NonPositiveValue):
            family_win(one_l(4), 10, d, e)

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10"])
    def test_stone_count_outside_the_rule_rejected(self, n):
        with pytest.raises(NonPositiveValue):
            family_win(one_l(4), n, 3, 3)
        with pytest.raises(NonPositiveValue):
            family_solution(one_l(4)).cutoffs(n)
        with pytest.raises(NonPositiveValue):
            family_standard(one_l(4), n)

    def test_negative_stone_count_keeps_its_errors(self):
        with pytest.raises(BadParams):
            family_win(one_l(4), -1, 3, 3)
        with pytest.raises(OutOfRange):
            family_solution(one_l(4)).cutoffs(-1)

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
        with pytest.raises(BadParams):
            conjecture_check(2, 3, critical_n_max=-5)

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

    @pytest.mark.parametrize("L, M", [(1, 1), (2, 4), (3, 5), (3, 6)])
    def test_member_rule_on_arrays_matches_the_three_cases(self, L, M):
        """``interval_cs_member`` over arrays of residues, cell by cell against
        its three cases written out on ints."""

        def member(i, b, b2):
            if i < L or i >= 3 * L:
                return b // L <= b2 // L
            if i < 2 * L:
                return b // L <= (b2 - L) // L
            return b // L <= (b2 - 3 * L + i + 1) // L

        i, b, b2 = np.indices((L + M, 12, 12)).reshape(3, -1)
        cells = list(zip(i.tolist(), b.tolist(), b2.tolist()))
        want = [member(*cell) for cell in cells]
        assert interval_cs_member(L, M, i, b, b2).tolist() == want
        assert [bool(interval_cs_member(L, M, *cell)) for cell in cells[::7]] == want[::7]

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
