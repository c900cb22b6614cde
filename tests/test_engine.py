from __future__ import annotations

import numpy as np
import pytest

from nimcash import Region, UNLIMITED, WinEngine, Winner, new_move_set


class TestDecide:
    def test_rich_path(self):
        engine = WinEngine(new_move_set([1, 4]), 20)
        decision = engine.decide(13, 12, 2)
        assert decision.winner is Winner.MOVER
        assert decision.method == "rich"
        assert decision.region is Region.RICH_I

    def test_poor_path(self):
        engine = WinEngine(new_move_set([1, 3, 4]), 20)
        decision = engine.decide(14, 4, 4)
        assert decision.winner is Winner.OPPONENT
        assert decision.method == "poor"

    def test_critical_path_uses_family_solution(self):
        engine = WinEngine(new_move_set([1, 4]), 20)
        decision = engine.decide(13, 8, 7)
        assert decision.winner is Winner.MOVER
        assert decision.method == "critical"
        assert decision.cs is not None and decision.cs.residue == 3

    def test_critical_path_falls_back_to_oracle(self):
        engine = WinEngine(new_move_set([3, 5, 6, 10, 11]), 40)
        assert engine.solution is None
        critical = None
        for n in range(41):
            for d in range(n + 1):
                for e in range(n + 1):
                    if engine.decide(n, d, e).region is Region.CRITICAL:
                        critical = (n, d, e)
                        break
                if critical:
                    break
            if critical:
                break
        assert critical is not None
        decision = engine.decide(*critical)
        assert decision.method == "oracle"

    def test_unlimited_budgets(self):
        engine = WinEngine(new_move_set([1, 3, 4]), 20)
        decision = engine.decide(14, UNLIMITED, 10)
        assert decision.winner is Winner.OPPONENT
        assert decision.region is Region.RICH_BOTH


class TestSweep:
    @pytest.mark.parametrize("values", [(1, 4), (1, 4, 5), (3, 5, 6, 10, 11)])
    def test_sweep_equals_cube(self, values, cube_cache):
        engine = WinEngine(new_move_set(values), 40)
        got = engine.sweep(40, 40, 40)
        cube = cube_cache(values, 40)
        idx = np.arange(41)
        for n in range(41):
            want = cube.win[n][np.ix_(np.minimum(idx, n), np.minimum(idx, n))]
            assert (got[n] == want).all(), (values, n)

    def test_decide_matches_sweep_pointwise(self):
        values = (1, 5, 6)
        engine = WinEngine(new_move_set(values), 30)
        grid = engine.sweep(30, 30, 30)
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, d, e = (int(x) for x in rng.integers(0, 31, size=3))
            assert (engine.decide(n, d, e).winner is Winner.MOVER) == bool(
                grid[n, d, e]
            )

    def test_decide_matches_closed_form_at_depth(self):
        from nimcash import family_win, one_l_l1

        engine = WinEngine(new_move_set([1, 5, 6]), 1200)
        kind = one_l_l1(5)
        rng = np.random.default_rng(19)
        for _ in range(400):
            n = int(rng.integers(0, 1201))
            d = int(rng.integers(0, n + 1))
            e = int(rng.integers(0, n + 1))
            assert engine.decide(n, d, e).winner is family_win(kind, n, d, e)
