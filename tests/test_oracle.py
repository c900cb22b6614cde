from __future__ import annotations

import random
import sys
import threading
import time

import numpy as np
import pytest

from nimcash import (
    UNLIMITED,
    CashState,
    CashTable,
    OutOfRange,
    ResourceLimit,
    Winner,
    best_move,
    legal_moves,
    new_move_set,
    solve_cash,
    solve_standard,
    standard_winners,
    wins_miserly,
)
from nimcash import oracle
from reference import ref_audit, ref_mover_wins, ref_standard_wins, ref_wins_miserly

SETS = [(1, 3, 4), (1, 4), (2, 3), (3, 5, 6, 10, 11), (1, 2, 5)]


class TestAgainstReference:
    @pytest.mark.parametrize("values", SETS)
    def test_single_query_solver_matches_reference(self, values):
        ms = new_move_set(values)
        memo: dict = {}
        for n in range(15):
            for d in range(15):
                for e in range(15):
                    got = solve_cash(ms, CashState(n, d, e)).winner
                    want = ref_mover_wins(values, n, d, e, memo)
                    assert (got is Winner.MOVER) == want, (n, d, e)

    @pytest.mark.parametrize("values", SETS)
    def test_cube_matches_reference(self, values):
        ms = new_move_set(values)
        table = CashTable(ms, 14)
        memo: dict = {}
        for n in range(15):
            for d in range(15):
                for e in range(15):
                    assert table.mover_wins(n, d, e) == ref_mover_wins(
                        values, n, d, e, memo
                    ), (n, d, e)

    def test_unlimited_funds_queries(self):
        ms = new_move_set([1, 3, 4])
        memo: dict = {}
        for n in range(12):
            got = solve_cash(ms, CashState(n, UNLIMITED, 5)).winner
            assert (got is Winner.MOVER) == ref_mover_wins((1, 3, 4), n, n, 5, memo)

    @pytest.mark.parametrize("values", SETS)
    def test_standard_matches_reference(self, values):
        ms = new_move_set(values)
        win = standard_winners(ms, 60)
        memo: dict = {}
        for n in range(61):
            assert bool(win[n]) == ref_standard_wins(values, n, memo)


class TestWorkedExample:
    """The {1,3,4} tour: every labelled state, exact."""

    MS = new_move_set([1, 3, 4])

    @pytest.mark.parametrize(
        "state, winner",
        [
            (CashState(14, UNLIMITED, 10), Winner.OPPONENT),
            (CashState(14, 4, 4), Winner.OPPONENT),
            (CashState(14, 9, 9), Winner.MOVER),
            (CashState(9, 8, 5), Winner.MOVER),
            (CashState(10, 8, 6), Winner.MOVER),
            (CashState(12, 8, 8), Winner.MOVER),
            (CashState(7, 7, 4), Winner.MOVER),
            (CashState(8, 7, 5), Winner.MOVER),
            (CashState(10, 7, 7), Winner.MOVER),
            (CashState(0, 5, 5), Winner.OPPONENT),
        ],
    )
    def test_labelled_states(self, state, winner):
        assert solve_cash(self.MS, state).winner is winner

    def test_winning_moves_consistency(self):
        result = solve_cash(self.MS, CashState(14, 9, 9))
        assert result.winner is Winner.MOVER
        assert result.winning_moves
        assert 1 in result.winning_moves
        for a in result.winning_moves:
            assert a in legal_moves(self.MS, CashState(14, 9, 9))

    def test_plies_bound(self):
        assert solve_cash(self.MS, CashState(14, 9, 9)).plies_bound == 14
        ms = new_move_set([3, 5])
        assert solve_cash(ms, CashState(14, 14, 14)).plies_bound == 5


class TestSolveStandard:
    def test_examples(self):
        assert solve_standard(new_move_set([1, 3, 4]), 14) is Winner.OPPONENT
        assert solve_standard(new_move_set([1, 4]), 7) is Winner.OPPONENT
        assert solve_standard(new_move_set([1, 4]), 0) is Winner.OPPONENT

    def test_equals_cash_game_with_unlimited_budgets(self):
        ms = new_move_set([2, 3, 7])
        for n in range(40):
            cash = solve_cash(ms, CashState(n, UNLIMITED, UNLIMITED)).winner
            assert solve_standard(ms, n) is cash


class TestWinsNormally:
    """The mover's win with budget ``d`` against a rich (unlimited) opponent."""

    @staticmethod
    def wins(ms, n, d):
        return solve_cash(ms, CashState(n, d, UNLIMITED)).winner is Winner.MOVER

    def test_examples(self):
        ms = new_move_set([1, 3, 4])
        assert self.wins(ms, 10, 7)
        for d in [0, 5, 9, 14, 50]:
            assert not self.wins(ms, 14, d)

    def test_just_below_threshold(self):
        # {1,4}: the mover's cutoff at n=13 is 10, so 9 loses against a rich opponent
        assert not self.wins(new_move_set([1, 4]), 13, 9)
        assert self.wins(new_move_set([1, 4]), 13, 10)


class TestWinsMiserly:
    MS = new_move_set([1, 3, 4])

    def test_opponent_grinds_out_a_win(self):
        assert wins_miserly(self.MS, CashState(14, 4, 4), Winner.OPPONENT)

    def test_mover_wins_miserly(self):
        assert wins_miserly(self.MS, CashState(9, 8, 5), Winner.MOVER)

    def test_lost_mover(self):
        assert not wins_miserly(self.MS, CashState(0, 5, 5), Winner.MOVER)

    @pytest.mark.parametrize("values", [(1, 3, 4), (2, 3), (3, 5, 6, 10, 11)])
    def test_matches_reference(self, values):
        ms = new_move_set(values)
        for n in range(13):
            for d in range(10):
                for e in range(10):
                    s = CashState(n, d, e)
                    assert wins_miserly(ms, s, Winner.MOVER) == ref_wins_miserly(
                        values, n, d, e, True
                    )
                    assert wins_miserly(ms, s, Winner.OPPONENT) == ref_wins_miserly(
                        values, n, d, e, False
                    )

    def test_miserly_win_implies_real_win(self):
        ms = new_move_set([1, 4])
        for n in range(15):
            for d in range(12):
                for e in range(12):
                    if wins_miserly(ms, CashState(n, d, e), Winner.MOVER):
                        assert solve_cash(ms, CashState(n, d, e)).winner is Winner.MOVER


class TestBestMove:
    def test_smallest_winning_move(self):
        ms = new_move_set([1, 3, 4])
        assert best_move(ms, CashState(14, 9, 9)) == 1

    def test_absent_when_lost(self):
        ms = new_move_set([1, 3, 4])
        assert best_move(ms, CashState(14, 4, 4)) is None

    def test_tie_break_on_multiple_winners(self):
        # at (4;4,0) for {1,4} both 1 and 4 win; the smaller is reported
        ms = new_move_set([1, 4])
        result = solve_cash(ms, CashState(4, 4, 0))
        assert set(result.winning_moves) == {1, 4}
        assert best_move(ms, CashState(4, 4, 0)) == 1


class TestResourceLimits:
    def test_solver_bound(self):
        ms = new_move_set([1, 2])
        with pytest.raises(ResourceLimit):
            solve_cash(ms, CashState(100, 5, 5), bound=50)
        solve_cash(ms, CashState(50, 5, 5), bound=50)

    def test_env_var_bound(self, monkeypatch):
        monkeypatch.setenv("NIMCASH_MAX_N", "30")
        ms = new_move_set([1, 2])
        with pytest.raises(ResourceLimit):
            solve_cash(ms, CashState(31, 5, 5))

    def test_cube_out_of_range(self):
        table = CashTable(new_move_set([1, 2]), 10)
        with pytest.raises(OutOfRange):
            table.mover_wins(11, 3, 3)
        table_small_cap = CashTable(new_move_set([1, 2]), 10, cap=4)
        with pytest.raises(OutOfRange):
            table_small_cap.mover_wins(10, 9, 3)
        assert isinstance(table_small_cap.mover_wins(10, 4, 3), bool)


class TestTableInvariants:
    def test_winner_iff_winning_moves(self, cube_cache):
        table = cube_cache((1, 3, 4), 20)
        for n in range(21):
            for d in range(0, 21, 3):
                for e in range(0, 21, 3):
                    result = table.solve(CashState(n, d, e))
                    assert (result.winner is Winner.MOVER) == bool(result.winning_moves)

    def test_soundness_audit_clean(self, cube_cache):
        assert cube_cache((1, 3, 4), 60).audit_soundness() == []
        assert cube_cache((3, 5, 6, 10, 11), 60).audit_soundness() == []

    def test_cube_is_read_only(self):
        table = CashTable(new_move_set([1, 3, 4]), 10)
        with pytest.raises(ValueError):
            table.win[5, 5, 5] = True

    def test_soundness_audit_catches_corruption(self):
        table = CashTable(new_move_set([1, 3, 4]), 30)
        table.win.flags.writeable = True  # deliberately break the contract
        table.win[17, 9, 9] = not table.win[17, 9, 9]
        bad = table.audit_soundness()
        assert bad
        assert any(n in (17, 18, 20, 21) for n, _, _ in bad)


class TestAuditDifferential:
    """``audit_soundness`` against the per-cell ``ref_audit``, on exact lists."""

    def test_matches_reference_on_flipped_cubes(self):
        rng = random.Random(20261018)
        flipped = 0
        for _ in range(40):
            values = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 4))))
            n_max = rng.randint(0, 25)
            for cap in (max(0, n_max - rng.randint(1, 6)), n_max, n_max + rng.randint(1, 6)):
                table = CashTable(new_move_set(values), n_max, cap)
                table.win.flags.writeable = True  # deliberately break the contract
                for _ in range(rng.randint(0, 3)):
                    cell = rng.randint(0, n_max), rng.randint(0, cap), rng.randint(0, cap)
                    table.win[cell] = not table.win[cell]
                    flipped += 1
                for limit in (0, 1, 4, 10):
                    got = table.audit_soundness(limit)
                    assert got == ref_audit(table.win, values, limit), (values, n_max, cap, limit)
        assert flipped > 100

    def test_matches_reference_across_layer_blocks(self):
        """At cap 120 a block holds 17 layers; flips sit on both sides of a seam."""
        table = CashTable(new_move_set([1, 3, 4]), 40, 120)
        table.win.flags.writeable = True
        for cell in [(16, 50, 7), (17, 3, 100), (34, 120, 0)]:
            table.win[cell] = not table.win[cell]
        for limit in (1, 4, 12):
            assert table.audit_soundness(limit) == ref_audit(table.win, (1, 3, 4), limit)
        assert table.audit_soundness(-3) == []

    @pytest.mark.parametrize(
        "values, n_max, cap, flips",
        [
            # blocks of 11 layers: [0, 11), [11, 22), [22, 33), [33, 41)
            ((3, 5, 6, 10, 11), 40, 200,
             [(21, 60, 60), (22, 150, 3), (25, 11, 190), (32, 200, 0), (33, 17, 17),
              (40, 100, 100)]),
            # blocks of 8 layers: [0, 8), [8, 16), [16, 24), [24, 31)
            ((1, 8), 30, 250,
             [(7, 9, 2), (8, 240, 5), (12, 1, 1), (15, 30, 250), (16, 8, 0), (30, 249, 249)]),
        ],
        ids=["3-5-6-10-11", "1-8"],
    )
    def test_matches_reference_across_block_seams(self, values, n_max, cap, flips):
        """A block holds exactly max(A) layers and the last block is short; flips
        sit on the first layers of a block, whose successors lie in the block
        before, and on the last layer."""
        table = CashTable(new_move_set(values), n_max, cap)
        assert table.audit_soundness() == []
        table.win.flags.writeable = True
        for cell in flips:
            table.win[cell] = not table.win[cell]
        want = ref_audit(table.win, values, 100)  # every offending state, read once
        assert want[0] == flips[0] and flips[-1] in want
        for limit in (1, 4, 12, 100):
            assert table.audit_soundness(limit) == want[:limit], limit


class TestAuditClampPath:
    """Below ``cap`` the audit proves most of a layer from its clamp copies
    (``win[n, d, e] == win[n, min(d, n), min(e, n)]``) and re-derives only the
    square ``[0, n]^2``; flips in and around the copies, against ``ref_audit``
    on exact lists."""

    @pytest.mark.parametrize(
        "values, n_max, cap, flips",
        [
            ((1, 3, 4), 30, 30, [(10, 20, 5)]),
            ((1, 3, 4), 30, 30, [(10, 5, 20)]),
            ((1, 3, 4), 30, 30, [(10, 20, 25)]),
            # clamp copies on the last layer and on the one below it
            ((2, 3), 2, 14, [(1, 1, 14), (2, 14, 1)]),
            ((1, 3, 4), 20, 30, [(5, 17, 2)]),
            ((2, 3), 9, 14, [(1, 14, 1)]),
            # the last head layer and the first body layer
            ((1, 3, 4), 30, 12, [(11, 12, 3), (11, 4, 12), (12, 12, 12), (12, 0, 5)]),
            ((1, 3, 4), 8, 20, [(8, 20, 20), (8, 3, 15)]),
            ((3, 5, 6, 10, 11), 30, 7, [(5, 7, 2), (7, 3, 3), (20, 7, 7)]),
            ((1, 2), 10, 0, [(3, 0, 0)]),
            ((1, 2), 10, 1, [(0, 1, 0), (1, 1, 1), (5, 0, 1)]),
        ],
        ids=["rows d > n", "columns e > n", "both", "2-3 last layer", "successor's copy",
             "2-3 successor's copy",
             "layers cap-1 and cap", "cap above n_max", "cap below max(A)", "cap 0", "cap 1"],
    )
    def test_matches_reference(self, values, n_max, cap, flips):
        table = CashTable(new_move_set(values), n_max, cap)
        assert table.audit_soundness() == []
        table.win.flags.writeable = True  # deliberately break the contract
        for cell in flips:
            table.win[cell] = not table.win[cell]
        every = (n_max + 1) * (cap + 1) ** 2
        want = ref_audit(table.win, values, every)
        assert want
        for limit in (1, 4, every):
            assert table.audit_soundness(limit) == want[:limit], limit

    def test_a_clamp_copy_fails_the_next_layers_outside_their_square(self):
        """Layer 5's flipped copy ``(5, 17, 2)`` is read as ``(5; e, d - a)`` by
        the layers above: every report but the flip itself lies past ``n``."""
        values = (1, 3, 4)
        table = CashTable(new_move_set(values), 20, 30)
        table.win.flags.writeable = True
        table.win[5, 17, 2] = not table.win[5, 17, 2]
        got = table.audit_soundness(100)
        assert got == ref_audit(table.win, values, 100)
        assert got[0] == (5, 17, 2) and len(got) > 1
        assert all(max(d, e) > n for n, d, e in got[1:])


class TestRandomSets:
    def test_cube_vs_reference_on_random_move_sets(self):
        rng = random.Random(20250811)
        for _ in range(12):
            size = rng.randint(1, 4)
            values = tuple(sorted(rng.sample(range(1, 9), size)))
            ms = new_move_set(values)
            table = CashTable(ms, 12)
            memo: dict = {}
            for n in range(13):
                for d in range(13):
                    for e in range(13):
                        assert table.mover_wins(n, d, e) == ref_mover_wins(
                            values, n, d, e, memo
                        ), (values, n, d, e)

    @pytest.mark.parametrize("values", [(1, 3, 4), (2, 5), (3, 5, 6, 10, 11), (1, 8)])
    def test_caps_below_the_largest_move(self, values):
        """A cap below a move leaves that move unaffordable, not a build error."""
        ms = new_move_set(values)
        for cap in range(ms.a_max):
            table = CashTable(ms, 30, cap)
            memo: dict = {}
            for n in range(31):
                for d in range(cap + 1):
                    for e in range(cap + 1):
                        assert table.win[n, d, e] == ref_mover_wins(values, n, d, e, memo), (
                            values, cap, n, d, e)
            assert table.audit_soundness() == []

    def test_tables_below_the_largest_move(self):
        """n_max < max(A): the largest move never applies, at every cap up to max(A)+1."""
        values = (1, 40)
        ms = new_move_set(values)
        memo: dict = {}
        side = ms.a_max + 2
        want = np.array([[[ref_mover_wins(values, n, d, e, memo) for e in range(side)]
                          for d in range(side)] for n in range(11)])
        for cap in range(side):
            table = CashTable(ms, 10, cap)
            assert np.array_equal(table.win, want[:, : cap + 1, : cap + 1]), cap
            assert table.audit_soundness() == []

    def test_singleton_move_set(self):
        ms = new_move_set([5])
        assert solve_standard(ms, 5) is Winner.MOVER
        assert solve_standard(ms, 12) is Winner.OPPONENT
        result = solve_cash(ms, CashState(15, 9, 11))
        assert result.winner is Winner.OPPONENT  # mover affords one move, not two
        assert solve_cash(ms, CashState(15, 11, 9)).winner is Winner.MOVER


class TestDeepPositions:
    def test_single_query_solver_matches_closed_form_at_depth(self):
        """The O(n^2) solver agrees with the family closed form far past cube range."""
        from nimcash import family_win, one_l

        ms = new_move_set([1, 4])
        kind = one_l(4)
        n = 1501
        for d, e in [(700, 800), (752, 751), (751, 752), (300, 900), (900, 300), (760, 757)]:
            want = family_win(kind, n, d, e)
            got = solve_cash(ms, CashState(n, d, e)).winner
            assert got is want, (n, d, e)


STAIRCASE_SETS = [(1, 3, 4), (3, 5, 6, 10, 11), (2, 3), (1, 4, 5), (1, 2, 5), (1, 6)]


def _staircase_wins(layers, n: int) -> np.ndarray:
    """Layer ``n`` of the staircase as a cube layer over budgets ``0..len-1``."""
    budgets = np.minimum(np.arange(len(layers[-1])), n)
    return budgets[None, :] < layers[n][budgets][:, None]


class TestStaircase:
    """The memoised staircase behind ``solve_cash``, against the dense cube."""

    @pytest.mark.parametrize("values", STAIRCASE_SETS)
    def test_layers_match_dense_cube(self, values, cube_cache):
        win = cube_cache(values, 120).win
        layers = oracle._staircase(new_move_set(values)).grow(120)
        for n in range(121):
            assert (_staircase_wins(layers[:121], n) == win[n]).all(), (values, n)

    def test_random_move_sets_match_reference(self):
        rng = random.Random(20261018)
        for _ in range(12):
            values = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 4))))
            layers = oracle._staircase(new_move_set(values)).grow(12)
            memo: dict = {}
            for n in range(13):
                got = _staircase_wins(layers[:13], n)
                for d in range(13):
                    for e in range(13):
                        assert got[d, e] == ref_mover_wins(values, n, d, e, memo), (
                            values, n, d, e,
                        )

    def test_int32_layers_past_the_int16_range(self, monkeypatch, cube_cache):
        monkeypatch.setattr(oracle, "_INT16_MAX", 40)
        layers = oracle._Staircase(new_move_set([1, 3, 4])).grow(80)
        assert {layers[n].dtype for n in range(40)} == {np.dtype(np.int16)}
        assert {layers[n].dtype for n in range(40, 81)} == {np.dtype(np.int32)}
        win = cube_cache((1, 3, 4), 120).win
        for n in range(81):
            assert (_staircase_wins(layers, n) == win[n, :81, :81]).all(), n

    def test_memo_interleaved_growth_matches_cold_cube(self):
        oracle._staircase.cache_clear()
        sets = [new_move_set(v) for v in [(1, 3, 4), (2, 3), (3, 5, 6, 10, 11)]]
        cubes = {ms: CashTable(ms, 90) for ms in sets}
        rng = random.Random(7)
        for n in [90, 61, 30, 7, 0, 1, 8, 31, 62, 90]:
            for ms in sets:
                for _ in range(6):
                    d, e = rng.randint(0, n + 2), rng.randint(0, n + 2)
                    state = CashState(n, d, e)
                    assert solve_cash(ms, state) == cubes[ms].solve(state), (ms, state)

    def test_layers_are_read_only(self):
        layers = oracle.staircase(new_move_set([1, 3, 4]), 10)
        assert len(layers) >= 11
        with pytest.raises(ValueError):
            layers[5][0] = 1
        with pytest.raises(ValueError):
            oracle.staircase(new_move_set([1, 3, 4]), 10)[5][1:] = 0

    def test_memo_is_bounded(self):
        size = oracle._staircase.cache_info().maxsize
        assert size == 8
        for a in range(1, size + 4):
            solve_cash(new_move_set([a, a + 1]), CashState(20, 10, 10))
            assert oracle._staircase.cache_info().currsize <= size

    def test_bound_is_checked_before_any_layer_is_built(self):
        oracle._staircase.cache_clear()
        with pytest.raises(ResourceLimit):
            solve_cash(new_move_set([1, 2]), CashState(100, 5, 5), bound=50)
        assert oracle._staircase.cache_info().currsize == 0

    def test_first_readers_share_one_memo(self, monkeypatch):
        oracle._staircase.cache_clear()
        real_init = oracle._Staircase.__init__

        def slow_init(memo, moves):
            time.sleep(0.02)  # the other reader reaches the lookup meanwhile
            real_init(memo, moves)

        monkeypatch.setattr(oracle._Staircase, "__init__", slow_init)
        ms = new_move_set([2, 3])
        barrier = threading.Barrier(2)
        got: dict = {}

        def grow(n: int) -> None:
            barrier.wait()
            got[n] = oracle.staircase(ms, n)

        threads = [threading.Thread(target=grow, args=(n,)) for n in (150, 300)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(got[150]) >= 151 and len(got[300]) >= 301
        assert len(oracle._staircase(ms).layers) == 301

    def test_concurrent_growth_appends_each_layer_once(self, cube_cache):
        oracle._staircase.cache_clear()
        ms = new_move_set([1, 3, 4])
        win = cube_cache((1, 3, 4), 120).win
        errors: list = []

        def ask(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    n = rng.randint(0, 120)
                    d, e = rng.randint(0, n), rng.randint(0, n)
                    got = solve_cash(ms, CashState(n, d, e)).winner is Winner.MOVER
                    assert got == win[n, d, e], (n, d, e)
            except Exception as exc:  # a thread's failure is reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        layers = oracle._staircase(ms).layers
        assert [len(layer) for layer in layers] == list(range(1, len(layers) + 1))
