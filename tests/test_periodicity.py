from __future__ import annotations

import pytest

from nimcash import (
    CashState,
    CSTriple,
    OutOfRange,
    PeriodCertificate,
    SolutionSet,
    Winner,
    WrongRegion,
    apply_move,
    compute_costs,
    corresponding_state,
    critical_winner,
    detect_cash_period,
    family_solution,
    induce_candidate,
    new_move_set,
    one_l,
    one_l_l1,
    poor_thresholds,
    step_cs,
    verify_solution_set,
)


class TestComputeCosts:
    def test_one_four_costs(self, tables_cache):
        t = tables_cache((1, 4), 40)
        for n in (9, 14, 19, 24):
            ci, cii = compute_costs(t, n, 1)
            assert ci == 3 and cii == 0
        for n in (10, 12, 13, 15):
            _, cii = compute_costs(t, n, 1)
            assert cii == 0

    def test_out_of_range(self, tables_cache):
        t = tables_cache((1, 4), 40)
        with pytest.raises(OutOfRange):
            compute_costs(t, 2, 4)
        with pytest.raises(OutOfRange):
            compute_costs(t, 10, 2)


class TestDetection:
    @pytest.mark.parametrize(
        "values, period",
        [((1, 4), 5), ((1, 5, 6), 11), ((1, 4, 5), 8), ((1, 2), 3), ((1, 3, 4), 7)],
    )
    def test_known_periods(self, values, period, tables_cache):
        ms = new_move_set(values)
        t = tables_cache(values, 700)
        cert = detect_cash_period(ms, t, m_max=32, n_check=600)
        assert cert is not None and cert.period == period
        assert cert.verified_up_to == 600

    @pytest.mark.parametrize("values, period", [((1, 4), 5), ((1, 4, 5), 8)])
    def test_minimality(self, values, period, tables_cache):
        ms = new_move_set(values)
        t = tables_cache(values, 700)
        assert detect_cash_period(ms, t, m_max=period - 1, n_check=600) is None

    def test_aperiodic_set(self, tables_cache):
        ms = new_move_set([3, 5, 6, 10, 11])
        t = tables_cache((3, 5, 6, 10, 11), 700)
        assert detect_cash_period(ms, t, m_max=16, n_check=600) is None

    @pytest.mark.parametrize("kind", [one_l(4), one_l(6), one_l_l1(3), one_l_l1(5), one_l_l1(4)])
    def test_certificate_matches_family_tables(self, kind, tables_cache):
        sol = family_solution(kind)
        t = tables_cache(kind.moves.values, 700)
        cert = detect_cash_period(kind.moves, t, m_max=32, n_check=600)
        assert cert is not None
        assert cert.period == kind.modulus
        assert cert.cost_i == sol.cost_i
        assert cert.cost_ii == sol.cost_ii
        assert cert.winner_pattern == sol.certificate().winner_pattern


class TestCertificate:
    def test_equal_certificates_hash_equally(self, tables_cache):
        kind = one_l(4)
        from_family = family_solution(kind).certificate()
        again = family_solution(kind).certificate()
        assert from_family == again and hash(from_family) == hash(again)
        detected = detect_cash_period(kind.moves, tables_cache((1, 4), 400), 16, 300)
        assert len({from_family, again, detected}) == 2


class TestCorrespondingState:
    def test_example(self, tables_cache):
        t = tables_cache((1, 4), 40)
        cert = family_solution(one_l(4)).certificate()
        assert corresponding_state(cert, t, 13, 8, 7) == CSTriple(3, 1, 0)

    def test_gap_zero_at_cutoff_minus_one(self, tables_cache):
        t = tables_cache((1, 4), 40)
        cert = family_solution(one_l(4)).certificate()
        for n in range(5, 30):
            d = int(t.rich_i[n]) - 1
            cs = corresponding_state(cert, t, n, d, 3)
            assert cs.mover_gap == 0

    def test_critical_states_have_nonnegative_gaps(self, tables_cache):
        t = tables_cache((1, 5, 6), 60)
        cert = family_solution(one_l_l1(5)).certificate()
        for n in range(61):
            g = poor_thresholds(t.moves, n)
            for d in range(g.poor_i, int(t.rich_i[n])):
                for e in range(g.poor_ii, int(t.rich_ii[n])):
                    cs = corresponding_state(cert, t, n, d, e)
                    assert cs.mover_gap >= 0 and cs.opp_gap >= 0


class TestStepCS:
    def test_example_step(self):
        cert = family_solution(one_l(4)).certificate()
        assert step_cs(cert, CSTriple(3, 1, 0), 1) == CSTriple(2, 0, 1)

    def test_commutes_with_the_game(self, tables_cache):
        """Stepping the abstraction equals abstracting the stepped game."""
        for kind in (one_l(4), one_l_l1(3), one_l_l1(4)):
            t = tables_cache(kind.moves.values, 400)
            cert = family_solution(kind).certificate()
            for n in range(2 * kind.moves.a_max, 300):
                for a in kind.moves:
                    for d in (a, a + 3, n // 2, n):
                        if d > n:
                            continue
                        e = max(0, n - 2)
                        s = CashState(n, d, e)
                        succ = apply_move(s, a)
                        direct = corresponding_state(cert, t, succ.n, succ.d, succ.e)
                        stepped = step_cs(
                            cert, corresponding_state(cert, t, n, d, e), a
                        )
                        assert direct == stepped, (kind.label, n, d, e, a)


class TestVerifySolutionSet:
    def test_family_sets_pass(self):
        for kind in (one_l(4), one_l_l1(5), one_l_l1(4)):
            sol = family_solution(kind)
            report = verify_solution_set(sol.certificate(), sol.solution_set, 40)
            assert report.passed, report.violations[:3]
            assert report.checked == kind.modulus * 41 * 41

    def test_empty_set_fails(self):
        sol = family_solution(one_l(4))
        empty = SolutionSet(lambda i, b, b2: False, "empty")
        report = verify_solution_set(sol.certificate(), empty, 40)
        assert not report.passed

    def test_tampered_set_fails_with_a_located_violation(self):
        sol = family_solution(one_l(4))
        good = sol.solution_set.contains
        tampered = SolutionSet(
            lambda i, b, b2: (not good(i, b, b2)) if (i, b, b2) == (3, 1, 0) else good(i, b, b2),
            "one flipped triple",
        )
        report = verify_solution_set(sol.certificate(), tampered, 12)
        assert not report.passed
        first = report.violations[0]
        assert first.clause in ("member", "non-member")
        assert isinstance(first.successor, CSTriple)


class TestInduceCandidate:
    def test_matches_family_set(self, tables_cache, cube_cache):
        for kind in (one_l(4), one_l_l1(4)):
            t = tables_cache(kind.moves.values, 100)
            cert = family_solution(kind).certificate()
            table = cube_cache(kind.moves.values, 100)
            induced, consistent = induce_candidate(kind.moves, t, cert, 100, table)
            assert consistent
            assert induced
            x = family_solution(kind).solution_set
            for cs, winner in induced.items():
                assert (cs in x) == (winner is Winner.MOVER), cs

    def test_no_critical_states_in_range(self, tables_cache):
        ms = new_move_set([1, 2])
        t = tables_cache((1, 2), 10)
        cert = family_solution(one_l(2)).certificate()
        induced, consistent = induce_candidate(ms, t, cert, 2)
        assert induced == {} and consistent

    def test_wrong_period_is_reported_inconsistent(self, tables_cache, cube_cache):
        """Folding {1,4} onto a bogus period maps one triple to both winners."""
        ms = new_move_set([1, 4])
        t = tables_cache((1, 4), 100)
        good = family_solution(one_l(4)).certificate()
        bogus = PeriodCertificate(
            ms, 2, (Winner.MOVER, Winner.MOVER), good.cost_i, good.cost_ii, 0
        )
        _, consistent = induce_candidate(ms, t, bogus, 100, cube_cache((1, 4), 100))
        assert not consistent


class TestCriticalWinner:
    def test_example(self, tables_cache):
        t = tables_cache((1, 4), 40)
        sol = family_solution(one_l(4))
        w = critical_winner(sol.certificate(), sol.solution_set, t, 13, 8, 7)
        assert w is Winner.MOVER

    def test_agrees_with_oracle_on_critical_box(self, tables_cache, cube_cache):
        sol = family_solution(one_l_l1(5))
        t = tables_cache((1, 5, 6), 60)
        cube = cube_cache((1, 5, 6), 60)
        cert = sol.certificate()
        for n in range(61):
            g = poor_thresholds(t.moves, n)
            for d in range(g.poor_i, int(t.rich_i[n])):
                for e in range(g.poor_ii, int(t.rich_ii[n])):
                    got = critical_winner(cert, sol.solution_set, t, n, d, e)
                    assert got is cube.winner(n, d, e), (n, d, e)

    def test_wrong_region(self, tables_cache):
        t = tables_cache((1, 4), 40)
        sol = family_solution(one_l(4))
        with pytest.raises(WrongRegion):
            critical_winner(sol.certificate(), sol.solution_set, t, 13, 12, 2)
