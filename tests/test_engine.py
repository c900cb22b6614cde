from __future__ import annotations

import random

import numpy as np
import pytest

from nimcash import (
    UNLIMITED,
    NonPositiveValue,
    OutOfRange,
    Region,
    WinEngine,
    Winner,
    family_solution,
    family_win,
    new_move_set,
    poor_thresholds,
    recognize_family,
)
from nimcash import engine as engine_module
from nimcash import thresholds as thresholds_module


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

    @pytest.mark.parametrize("values", [(1, 3, 4), (3, 5, 6, 10, 11)])
    @pytest.mark.parametrize("d, e", [(3, -4), (-1, 3), (True, 3), (3, 2.5)])
    def test_budgets_outside_the_rule_rejected(self, values, d, e):
        with pytest.raises(NonPositiveValue):
            WinEngine(new_move_set(values), 20).decide(10, d, e)

    @pytest.mark.parametrize("values", [(1, 4), (1, 3, 4), (3, 5, 6, 10, 11)])
    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10"])
    def test_stone_count_outside_the_rule_rejected(self, values, n):
        with pytest.raises(NonPositiveValue):
            WinEngine(new_move_set(values), 20).decide(n, 3, 3)

    @pytest.mark.parametrize("values", [(1, 4), (3, 5, 6, 10, 11)])
    def test_numpy_stone_count_accepted(self, values):
        engine = WinEngine(new_move_set(values), 20)
        assert engine.decide(np.int64(13), 3, 5) == engine.decide(13, 3, 5)


class TestFamilyCutoffSource:
    """Family engines read the family's cutoffs, which cover every n."""

    @pytest.mark.parametrize("values", [(1, 4), (1, 3, 4), (1, 4, 5), (1, 6)])
    def test_decide_agrees_with_family_win_past_n_max(self, values):
        ms = new_move_set(values)
        kind = recognize_family(ms)
        sol = family_solution(kind)
        engine = WinEngine(ms, 20)
        rng = random.Random(23)
        for n in [rng.randrange(10**12) for _ in range(150)] + [100, 10**15 + 7]:
            fi, fii, _ = sol.cutoffs(n)
            g = poor_thresholds(ms, n)
            band = (rng.randint(g.poor_i, max(g.poor_i, fi - 1)),
                    rng.randint(g.poor_ii, max(g.poor_ii, fii - 1)))
            for d, e in [band, (rng.randint(0, n), rng.randint(0, n)),
                         (UNLIMITED, n // 3), (n // 3, UNLIMITED)]:
                assert engine.decide(n, d, e).winner is family_win(kind, n, d, e), (n, d, e)

    @pytest.mark.parametrize("values", [(1, 4), (1, 4, 5)])
    def test_sweep_past_n_max_equals_cube(self, values, cube_cache):
        got = WinEngine(new_move_set(values), 10).sweep(40, 40, 40)
        cube = cube_cache(values, 40)
        idx = np.arange(41)
        for n in range(41):
            want = cube.win[n][np.ix_(np.minimum(idx, n), np.minimum(idx, n))]
            assert (got[n] == want).all(), (values, n)

    @pytest.mark.parametrize("values", [(3, 5, 6, 10, 11), (2, 3)])
    def test_other_engines_stop_at_n_max(self, values):
        engine = WinEngine(new_move_set(values), 20)
        with pytest.raises(OutOfRange):
            engine.decide(21, 5, 5)
        with pytest.raises(OutOfRange):
            engine.sweep(21, 5, 5)

    def test_negative_stone_count_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            WinEngine(new_move_set([1, 4]), 20).decide(-1, 3, 3)

    @pytest.mark.parametrize("values", [(1, 4), (1, 4, 5)])
    def test_family_engine_builds_no_tables(self, values, monkeypatch, cube_cache):
        def refuse(*args):
            raise AssertionError("a family engine built recursion tables")

        # the family's own rows are read once, by family_solution, not by the engine
        family_solution(recognize_family(new_move_set(values)))
        monkeypatch.setattr(engine_module, "build_thresholds", refuse)
        monkeypatch.setattr(thresholds_module, "_recursion", refuse)
        engine = WinEngine(new_move_set(values), 30)
        assert engine.cutoff_source is family_solution(recognize_family(engine.moves))
        assert engine.decide(13, 8, 7).winner is cube_cache(values, 30).winner(13, 8, 7)
        assert (engine.sweep(30, 30, 30) == cube_cache(values, 30).win).all()

    def test_negative_n_max_rejected(self):
        for values in [(1, 4), (2, 3)]:
            with pytest.raises(OutOfRange):
                WinEngine(new_move_set(values), -1)


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
