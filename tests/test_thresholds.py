from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from nimcash import (
    UNLIMITED,
    NonPositiveValue,
    OutOfRange,
    Region,
    Winner,
    build_thresholds,
    new_move_set,
    poor_thresholds,
)
from nimcash import oracle, thresholds
from nimcash.thresholds import regime
from reference import ref_critical_cells, ref_thresholds

CORPUS = [(1, 4), (1, 6), (1, 5, 6), (1, 4, 5), (1, 3, 4), (3, 5, 6, 10, 11)]
CORPUS_STAIRCASE = [(1, 3, 4), (3, 5, 6, 10, 11), (2, 3), (1, 4, 5), (1, 2, 5), (1, 6), (2, 5, 7)]


def regime_at(t, n, d, e):
    """The regime of ``(n; d, e)`` under the recursion tables ``t``."""
    return regime(t.moves, n, t.cutoffs(n), d, e)


def winner_of(r):
    return Winner.MOVER if r.mover_wins else Winner.OPPONENT


def poor_rule(ms, n, d, e):
    """The poor rule alone: rich cutoffs set above every clamped budget."""
    return regime(ms, n, (n + 1, n + 1, False), d, e)


class TestBuildThresholds:
    def test_known_values_one_four(self, tables_cache):
        t = tables_cache((1, 4), 20)
        assert t.rich_i[13] == 10
        assert t.rich_ii[9] == 6
        assert t.rich_i[5] == 3 and t.rich_ii[5] == 4

    def test_base_range_is_zero(self, tables_cache):
        t = tables_cache((3, 5, 6, 10, 11), 30)
        for n in range(3):
            assert t.rich_i[n] == 0 and t.rich_ii[n] == 0

    @pytest.mark.parametrize("values", CORPUS)
    def test_defining_clauses_hold(self, values, tables_cache):
        """Re-verify all four clauses of the cutoff recursion independently."""
        t = tables_cache(values, 150)
        ms = t.moves
        w = t.winners
        fi, fii = t.rich_i, t.rich_ii
        for n in range(ms.a_min, 151):
            legal = [a for a in ms if a <= n]
            if w[n]:
                assert fi[n] == min(fii[n - a] + a for a in legal if not w[n - a])
                assert fii[n] == max(fi[n - a] for a in legal)
            else:
                assert fii[n] == max(fi[n - a] for a in legal)
                assert fi[n] == min(
                    fii[n - a] + a for a in legal if fi[n - a] == fii[n]
                )

    def test_least_cash_semantics(self, tables_cache, cube_cache):
        """On mover-winning n, rich_i is exactly the least winning budget."""
        for values in [(1, 4), (3, 5, 6, 10, 11)]:
            t = tables_cache(values, 60)
            cube = cube_cache(values, 60)
            for n in range(61):
                if t.winners[n]:
                    least = next(d for d in range(n + 1) if cube.mover_wins(n, d, n))
                    assert least == t.rich_i[n], n

    @pytest.mark.parametrize("values", CORPUS_STAIRCASE)
    def test_winner_cutoff_read_off_the_staircase(self, values, tables_cache):
        """The standard winner's rich cutoff equals the recursion's, up to n = 400.

        On mover-win ``n`` it is the least ``d`` whose staircase threshold is
        ``n+1`` (the mover wins against every opponent budget); on mover-loss
        ``n`` the least opponent budget that beats a mover holding ``n``.  The
        loser's completed cutoff is not a least-winning-budget quantity and is
        not compared here.
        """
        t = tables_cache(values, 400)
        layers = oracle._staircase(t.moves).grow(400)
        for n in range(401):
            b = layers[n]
            assert bool(b[n] == n + 1) == bool(t.winners[n]), (values, n)
            if t.winners[n]:
                assert np.searchsorted(b, n + 1) == t.rich_i[n], (values, n)
            else:
                assert b[n] == t.rich_ii[n], (values, n)

    def test_boundary_sharpness(self, tables_cache, cube_cache):
        for values in [(1, 3, 4), (2, 3)]:
            t = tables_cache(values, 60)
            cube = cube_cache(values, 60)
            for n in range(61):
                fi, fii = int(t.rich_i[n]), int(t.rich_ii[n])
                if fii >= 1:
                    assert cube.winner(n, fi, fii - 1) is Winner.MOVER
                    assert cube.winner(n, fi - 1, fii) is Winner.OPPONENT

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_thresholds(new_move_set([1, 2]), -1)


def assert_reference(tables, values, n_max):
    """``tables`` holds exactly the one-shot reference rows ``0..n_max``, read-only."""
    got = (tables.winners, tables.rich_i, tables.rich_ii)
    for arr, want in zip(got, ref_thresholds(values, n_max)):
        assert arr.dtype == want.dtype and arr.shape == (n_max + 1,)
        assert (arr == want).all(), (values, n_max)
        assert arr.flags.writeable is False


class TestRecursionMemo:
    """The per-move-set memo behind ``build_thresholds``, against ``ref_thresholds``."""

    def test_reads_cannot_be_made_writeable(self):
        t = build_thresholds(new_move_set([1, 3, 4]), 50)
        for arr in (t.winners, t.rich_i, t.rich_ii):
            with pytest.raises(ValueError):
                arr[3] = 0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_regrowth_after_eviction(self):
        thresholds._recursion.cache_clear()
        sets = [(a, a + 1) for a in range(1, 10)]  # one more than the memo keeps
        first = build_thresholds(new_move_set(sets[0]), 120)
        memo = thresholds._recursion(new_move_set(sets[0]))
        for values in sets[1:]:
            build_thresholds(new_move_set(values), 60)
        info = thresholds._recursion.cache_info()
        assert info.maxsize == 8 and info.currsize == 8
        again = build_thresholds(new_move_set(sets[0]), 150)
        assert thresholds._recursion(new_move_set(sets[0])) is not memo
        assert_reference(again, sets[0], 150)
        assert_reference(first, sets[0], 120)  # a read from the evicted memo is unchanged

    def test_two_threads_grow_one_memo(self, monkeypatch):
        thresholds._recursion.cache_clear()
        real_init = thresholds._Recursion.__init__

        def slow_init(memo, moves):
            time.sleep(0.02)  # the other reader reaches the lookup meanwhile
            real_init(memo, moves)

        monkeypatch.setattr(thresholds._Recursion, "__init__", slow_init)
        ms = new_move_set([1, 3, 4])
        barrier = threading.Barrier(2)
        got: dict = {}

        def grow(n: int) -> None:
            barrier.wait()
            got[n] = build_thresholds(ms, n)

        threads = [threading.Thread(target=grow, args=(n,)) for n in (700, 1500)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for n in (700, 1500):
            assert_reference(got[n], (1, 3, 4), n)
        assert [len(arr) for arr in thresholds._recursion(ms).rows] == [1501] * 3


class TestPoorThresholds:
    def test_min_one(self):
        g = poor_thresholds(new_move_set([1, 4]), 10)
        assert (g.poor_i, g.poor_ii) == (6, 5)

    def test_min_three(self):
        g = poor_thresholds(new_move_set([3, 5, 6, 10, 11]), 7)
        assert (g.poor_i, g.poor_ii) == (5, 3)

    def test_zero_stones(self):
        for a1 in (1, 2, 5):
            g = poor_thresholds(new_move_set([a1, a1 + 1]), 0)
            assert (g.poor_i, g.poor_ii) == (1, 0)

    def test_depends_only_on_minimum(self):
        for n in range(50):
            a = poor_thresholds(new_move_set([3, 5]), n)
            b = poor_thresholds(new_move_set([3, 11, 20]), n)
            assert a == b

    @pytest.mark.parametrize("values", CORPUS)
    def test_sanity_after_irregular_head(self, values, tables_cache):
        """Poor cutoffs never exceed rich ones once past the head below max(A)."""
        t = tables_cache(values, 500)
        for n in range(t.moves.a_max, 501):
            g = poor_thresholds(t.moves, n)
            assert g.poor_i <= t.rich_i[n], n
            assert g.poor_ii <= t.rich_ii[n], n


class TestClassify:
    def test_rich_one_side(self, tables_cache):
        t = tables_cache((1, 4), 20)
        assert regime_at(t, 13, 12, 2).region is Region.RICH_I

    def test_critical(self, tables_cache):
        t = tables_cache((1, 4), 20)
        assert regime_at(t, 13, 8, 7).region is Region.CRITICAL

    def test_rich_precedence_over_poor(self, tables_cache):
        # (5;0,9) satisfies both the poor-II and rich-II hypotheses; rich wins
        t = tables_cache((1, 4), 20)
        assert regime_at(t, 5, 0, 9).region is Region.RICH_II

    def test_unlimited_clamped(self, tables_cache):
        t = tables_cache((1, 3, 4), 20)
        assert regime_at(t, 14, UNLIMITED, 10).region is Region.RICH_BOTH

    def test_total_on_box(self, tables_cache):
        t = tables_cache((1, 4, 5), 30)
        for n in range(31):
            for d in range(31):
                for e in range(31):
                    assert regime_at(t, n, d, e).region in Region

    def test_out_of_range(self, tables_cache):
        t = tables_cache((1, 4), 20)
        with pytest.raises(OutOfRange):
            regime_at(t, 21, 3, 3)

    @pytest.mark.parametrize("n", [10.5, True, "10"])
    def test_stone_count_outside_the_rule_rejected(self, tables_cache, n):
        t = tables_cache((1, 3, 4), 20)
        with pytest.raises(NonPositiveValue):
            t.check_range(n)
        with pytest.raises(NonPositiveValue):
            regime_at(t, n, 3, 3)

    def test_stone_count_range(self, tables_cache):
        t = tables_cache((1, 3, 4), 20)
        t.check_range(np.int64(20))
        for n in (-1, 21, np.int64(-1)):
            with pytest.raises(OutOfRange):
                t.check_range(n)

    @pytest.mark.parametrize("d, e", [(-3, 2), (2, -1), (False, 2), (2, True), (1.5, 2)])
    def test_budgets_outside_the_rule_rejected(self, tables_cache, d, e):
        t = tables_cache((1, 3, 4), 20)
        with pytest.raises(NonPositiveValue):
            regime_at(t, 10, d, e)
        with pytest.raises(NonPositiveValue):
            poor_rule(t.moves, 10, d, e)


class TestRichWinner:
    def test_rich_mover_wins(self, tables_cache):
        t = tables_cache((1, 4), 20)
        r = regime_at(t, 13, 12, 2)
        assert r.region.rich and winner_of(r) is Winner.MOVER

    def test_rich_both_follows_standard_game(self, tables_cache):
        t = tables_cache((1, 4), 20)
        r = regime_at(t, 10, 20, 20)
        assert r.region.rich and winner_of(r) is Winner.OPPONENT

    def test_worked_example_rich_state(self, tables_cache):
        t = tables_cache((1, 3, 4), 20)
        r = regime_at(t, 14, UNLIMITED, 10)
        assert r.region.rich and winner_of(r) is Winner.OPPONENT

    def test_wrong_region(self, tables_cache):
        t = tables_cache((1, 4), 20)
        assert not regime_at(t, 13, 8, 7).region.rich


class TestPoorWinner:
    def test_both_poor_tie_loses(self):
        r = poor_rule(new_move_set([1, 3, 4]), 14, 4, 4)
        assert not r.critical and winner_of(r) is Winner.OPPONENT

    def test_poor_mover_against_funded_opponent(self):
        ms = new_move_set([3, 5, 6, 10, 11])
        assert winner_of(poor_rule(ms, 20, 2, 9)) is Winner.OPPONENT

    def test_both_poor_margin_wins(self):
        assert winner_of(poor_rule(new_move_set([1, 4]), 9, 3, 2)) is Winner.MOVER

    def test_wrong_region(self):
        assert poor_rule(new_move_set([1, 4]), 9, 9, 9).critical

    def test_minimum_move_counting(self):
        ms = new_move_set([3, 5])
        # both poor at n=30 (cutoffs 16/15): compare floor(d/3) vs floor(e/3)
        assert winner_of(poor_rule(ms, 30, 8, 5)) is Winner.MOVER
        assert winner_of(poor_rule(ms, 30, 5, 5)) is Winner.OPPONENT


class TestRegimeAgreement:
    @pytest.mark.parametrize("values", [(1, 4), (3, 5, 6, 10, 11)])
    def test_non_critical_regions_match_oracle(self, values, tables_cache, cube_cache):
        t = tables_cache(values, 40)
        cube = cube_cache(values, 40)
        for n in range(41):
            for d in range(41):
                for e in range(41):
                    r = regime_at(t, n, d, e)
                    if r.critical:
                        continue
                    assert winner_of(r) is cube.winner(n, d, e), (values, n, d, e, r.region)


class TestCriticalCells:
    @pytest.mark.parametrize("values", CORPUS_STAIRCASE)
    def test_rectangle_is_the_regime_critical_grid(self, values, tables_cache):
        """The poor-to-rich rectangle lists exactly the cells ``regime`` calls
        critical over the whole ``[0, rich_i) x [0, rich_ii)`` grid, in
        row-major order, with their gaps."""
        t = tables_cache(values, 300)
        for n in range(301):
            fi, fii, _ = t.cutoffs(n)
            grid = regime_at(t, n, np.arange(fi)[:, None], np.arange(fii)[None, :])
            want_d, want_e = np.nonzero(grid.critical)
            d, e, mover_gap, opp_gap = ref_critical_cells(t, n)
            assert np.array_equal(d, want_d) and np.array_equal(e, want_e), (values, n)
            assert np.array_equal(mover_gap, fi - 1 - want_d), (values, n)
            assert np.array_equal(opp_gap, fii - 1 - want_e), (values, n)
