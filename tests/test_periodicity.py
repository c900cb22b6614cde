from __future__ import annotations

import ast

import numpy as np
import pytest

from nimcash import (
    UNLIMITED,
    CashState,
    CSTriple,
    NonPositiveValue,
    OutOfRange,
    PeriodCertificate,
    SolutionSet,
    WinEngine,
    Winner,
    apply_move,
    compute_costs,
    corresponding_state,
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
from nimcash.periodicity import _period_columns, _try_period, covered_box, critical_scan
from reference import (
    ref_closure,
    ref_covered_box,
    ref_critical_cells,
    ref_critical_layers,
    ref_induce,
    ref_period,
)

# every solved-family instance with L <= 8
SMALL_KINDS = [one_l(L) for L in range(2, 9, 2)] + [one_l_l1(L) for L in range(2, 9)]


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
        assert cert.cost_i == sol.certificate().cost_i
        assert cert.cost_ii == sol.certificate().cost_ii
        assert cert.winner_pattern == sol.certificate().winner_pattern


# periodic, aperiodic and interval sets
PERIOD_CORPUS = [(1, 3, 4), (1, 2, 5), (1, 4), (1, 4, 5), (1, 5, 8, 9), (2, 3), (2, 5),
                 (3, 5, 6, 10, 11), (2, 3, 4), (3, 4, 5), (3, 4, 5, 6)]


def _dashed(values) -> str:
    return "-".join(map(str, values))


def _certificate_fields(cert):
    """A certificate in ``ref_period``'s form: pattern as mover wins, costs as dicts."""
    if cert is None:
        return None
    pattern = tuple(w is Winner.MOVER for w in cert.winner_pattern)
    return cert.period, pattern, dict(cert.cost_i), dict(cert.cost_ii), cert.verified_up_to


class TestPeriodDifferential:
    """``detect_cash_period`` against the class-at-a-time ``ref_period``, on
    whole certificates."""

    M_MAX = 64  # research-verify's settings: m <= 64, n <= 2000

    @pytest.mark.parametrize("n_check", [2000, None], ids=["n_check-2000", "least-n_check"])
    @pytest.mark.parametrize("values", PERIOD_CORPUS, ids=_dashed)
    def test_whole_certificates(self, values, n_check, tables_cache):
        n_check = n_check or 2 * max(values) + self.M_MAX  # the least that detection takes
        t = tables_cache(values, n_check + max(values))
        got = detect_cash_period(new_move_set(values), t, self.M_MAX, n_check)
        assert _certificate_fields(got) == ref_period(values, n_check, self.M_MAX)

    @pytest.mark.parametrize("values", [(1, 4), (1, 3, 4), (2, 3)], ids=_dashed)
    def test_too_few_rows_rule_a_period_out(self, values, tables_cache):
        """Below detection's least ``n_check`` some residue classes are empty."""
        ms, m_max = new_move_set(values), 8
        t = tables_cache(values, 40)
        for n_check in range(2 * ms.a_max + m_max):
            columns = _period_columns(t, n_check + 1)
            certs = (_try_period(ms, columns, m, n_check) for m in range(1, m_max + 1))
            got = next(filter(None, certs), None)
            assert _certificate_fields(got) == ref_period(values, n_check, m_max), n_check


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

    def test_budgets_are_checked_and_never_clamped(self, tables_cache):
        """Python and numpy budgets give one gap, past ``n`` too; UF stands in as ``n``."""
        t = tables_cache((1, 4), 40)
        cert = family_solution(one_l(4)).certificate()
        fi = int(t.rich_i[10])
        assert corresponding_state(cert, t, 10, 50, 3).mover_gap == fi - 51
        assert corresponding_state(cert, t, 10, np.int64(50), 3).mover_gap == fi - 51
        assert corresponding_state(cert, t, 10, UNLIMITED, 3).mover_gap == fi - 11
        for d, e in [(-5, 3), (3, 3.5), (True, 3), (np.int64(-1), 3)]:
            with pytest.raises(NonPositiveValue):
                corresponding_state(cert, t, 10, d, e)

    def test_critical_states_have_nonnegative_gaps(self, tables_cache):
        t = tables_cache((1, 5, 6), 60)
        cert = family_solution(one_l_l1(5)).certificate()
        for n in range(61):
            g = poor_thresholds(t.moves, n)
            for d in range(g.poor_i, int(t.rich_i[n])):
                for e in range(g.poor_ii, int(t.rich_ii[n])):
                    cs = corresponding_state(cert, t, n, d, e)
                    assert cs.mover_gap >= 0 and cs.opp_gap >= 0


class TestCSTriple:
    def test_an_immutable_named_tuple(self):
        t = CSTriple(3, 1, 0)
        assert repr(t) == "CSTriple(residue=3, mover_gap=1, opp_gap=0)"
        assert t == CSTriple(3, 1, 0) == (3, 1, 0) and hash(t) == hash((3, 1, 0))
        assert (t.residue, t.mover_gap, t.opp_gap) == tuple(t)
        with pytest.raises(AttributeError):
            t.residue = 4


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


def _step_and_rows(solution_set):
    """The step and rows that ``SolutionSet.from_rows`` wrote into a description."""
    step, _, rows = solution_set.description.partition(", rows (p_i, q_i) ")
    return int(step.removeprefix("step ")), ast.literal_eval(rows)


def _violations(report):
    return [(v.triple, v.clause, v.move, v.successor) for v in report.violations]


class TestClosureDifferential:
    """``verify_solution_set`` against the triple-at-a-time ``ref_closure``, on
    exact violation lists."""

    BOX = 9  # every one-row mutant of these sets fails by gap 9

    @pytest.mark.parametrize("kind", SMALL_KINDS, ids=lambda kind: str(kind.moves))
    def test_one_row_mutants_of_family_sets(self, kind):
        sol = family_solution(kind)
        cert = sol.certificate()
        step, rows = _step_and_rows(sol.solution_set)
        assert len(rows) == cert.period
        mutants = []
        for i, (p, q) in enumerate(rows):
            for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                changed = list(rows)
                changed[i] = (p + dp, q + dq)
                mutants.append(SolutionSet.from_rows(step, changed, kind.moves))
        assert _violations(verify_solution_set(cert, sol.solution_set, self.BOX)) == []
        failing = 0
        for x in mutants:
            report = verify_solution_set(cert, x, self.BOX)
            assert report.checked == cert.period * (self.BOX + 1) ** 2
            want = ref_closure(cert, x.contains, self.BOX)
            assert _violations(report) == want, x.description
            failing += bool(want)
        assert failing == len(mutants)

    def test_one_row_mutant_with_successors_past_the_box(self):
        """{1,3,4} has negative costs, so a successor's gap can exceed the box."""
        kind = one_l_l1(3)
        sol = family_solution(kind)
        cert = sol.certificate()
        assert min(cert.cost_i.values()) < 0
        step, rows = _step_and_rows(sol.solution_set)
        rows[5] = (rows[5][0] - 1, rows[5][1] + 1)
        x = SolutionSet.from_rows(step, rows, kind.moves)
        for box in (2, 5, 8):
            got = _violations(verify_solution_set(cert, x, box))
            assert got == ref_closure(cert, x.contains, box)
            assert any(max(succ.mover_gap, succ.opp_gap) > box for *_, succ in got), box

    def test_predicate_only_set(self, tables_cache):
        """The induced {1,3,4} map as a predicate, checked past its covered box."""
        ms = new_move_set([1, 3, 4])
        t = tables_cache((1, 3, 4), 400)
        cert = detect_cash_period(ms, t, 16, 300)
        induced, _ = induce_candidate(ms, t, cert, 80)
        members = {cs for cs, w in induced.items() if w is Winner.MOVER}
        x = SolutionSet(lambda i, b, b2: CSTriple(i, b, b2) in members, "induced")
        for box in (0, 13, 16):
            want = ref_closure(cert, x.contains, box)
            assert _violations(verify_solution_set(cert, x, box)) == want
            assert bool(want) == (box > 13)


class TestInduceDifferential:
    """``induce_candidate`` against the cell-at-a-time ``ref_induce``, on exact
    items and their order; the reference reads the reference critical cells
    and the dense cube."""

    @staticmethod
    def _check(values, cert, n_max, tables_cache, cube_cache):
        ms = new_move_set(values)
        t = tables_cache(values, max(n_max, 1))
        got, consistent = induce_candidate(ms, t, cert, n_max)
        cube = cube_cache(values, n_max).win
        want, want_consistent = ref_induce(ref_critical_layers(t, n_max, cube), cert.period)
        assert all(type(cs) is CSTriple for cs in got)
        assert [((cs.residue, cs.mover_gap, cs.opp_gap), w is Winner.MOVER)
                for cs, w in got.items()] == list(want.items())
        assert consistent == want_consistent
        return got, consistent

    @pytest.mark.parametrize("values, n_max", [
        ((1, 3, 4), 0), ((1, 3, 4), 30), ((1, 3, 4), 120), ((1, 2, 5), 90), ((1, 4, 5), 70),
    ])
    def test_detected_certificates(self, values, n_max, tables_cache, cube_cache):
        cert = detect_cash_period(new_move_set(values), tables_cache(values, 400), 16, 300)
        got, consistent = self._check(values, cert, n_max, tables_cache, cube_cache)
        assert consistent and bool(got) == (n_max > 0)

    @pytest.mark.parametrize("kind", SMALL_KINDS, ids=lambda kind: str(kind.moves))
    def test_family_certificates(self, kind, tables_cache, cube_cache):
        n_max = 3 * kind.modulus + 2 * kind.moves.a_max
        got, consistent = self._check(
            kind.moves.values, family_solution(kind).certificate(), n_max, tables_cache,
            cube_cache,
        )
        assert consistent and got

    @pytest.mark.parametrize("values", [(1, 3, 4), (2, 3), (3, 5, 6, 10, 11)])
    def test_period_one_certificate_is_inconsistent(self, values, tables_cache, cube_cache):
        ms = new_move_set(values)
        cert = PeriodCertificate(ms, 1, (Winner.MOVER,), {}, {}, 0)
        got, consistent = self._check(values, cert, 60, tables_cache, cube_cache)
        assert got and not consistent


class TestInduceCandidate:
    def test_matches_family_set(self, tables_cache):
        for kind in (one_l(4), one_l_l1(4)):
            t = tables_cache(kind.moves.values, 100)
            cert = family_solution(kind).certificate()
            induced, consistent = induce_candidate(kind.moves, t, cert, 100)
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

    def test_wrong_period_is_reported_inconsistent(self, tables_cache):
        """Folding {1,4} onto a bogus period maps one triple to both winners."""
        ms = new_move_set([1, 4])
        t = tables_cache((1, 4), 100)
        good = family_solution(one_l(4)).certificate()
        bogus = PeriodCertificate(
            ms, 2, (Winner.MOVER, Winner.MOVER), good.cost_i, good.cost_ii, 0
        )
        _, consistent = induce_candidate(ms, t, bogus, 100)
        assert not consistent

    @pytest.mark.parametrize("values, covered", [((1, 3, 4), 13), ((1, 2, 5), 10)])
    def test_covered_box_is_where_the_map_closes(self, tables_cache, values, covered):
        """Past the covered box the map misses triples, and closure fails there."""
        ms = new_move_set(values)
        cert = detect_cash_period(ms, tables_cache(values, 400), 16, 300)
        induced, consistent = induce_candidate(ms, tables_cache(values, 400), cert, 80)
        assert consistent and covered_box(cert, induced) == covered
        members = {cs for cs, w in induced.items() if w is Winner.MOVER}
        x = SolutionSet(lambda i, b, b2: CSTriple(i, b, b2) in members, "induced")
        assert verify_solution_set(cert, x, covered).passed
        assert not verify_solution_set(cert, x, covered + 1).passed
        assert covered_box(cert, {}) == -1


class TestCoveredBoxDifferential:
    """``covered_box`` against the shell-by-shell ``ref_covered_box``."""

    @staticmethod
    def _induced(values, oracle_box, tables_cache):
        ms = new_move_set(values)
        t = tables_cache(values, 400)
        cert = detect_cash_period(ms, t, 16, 300)
        return cert, induce_candidate(ms, t, cert, oracle_box)[0]

    @pytest.mark.parametrize("oracle_box", [20, 60, 120])
    @pytest.mark.parametrize("values", [(1, 3, 4), (1, 2, 5), (1, 4, 5)])
    def test_induced_maps(self, values, oracle_box, tables_cache):
        cert, induced = self._induced(values, oracle_box, tables_cache)
        assert covered_box(cert, induced) == ref_covered_box(cert, induced) >= 0
        assert covered_box(cert, {}) == ref_covered_box(cert, {}) == -1

    @pytest.mark.parametrize("values", [(1, 3, 4), (1, 2, 5), (1, 4, 5)])
    def test_maps_with_one_triple_deleted(self, values, tables_cache):
        """At shell 0, mid-box, and a triple outside the box that only a box
        triple's successor reaches; foreign and far-out keys change nothing."""
        cert, induced = self._induced(values, 60, tables_cache)
        k = covered_box(cert, induced)
        assert k >= 4
        outside = sorted(
            s for t in induced if max(t.mover_gap, t.opp_gap) <= k
            for s in (step_cs(cert, t, a) for a in cert.moves)
            if min(s.mover_gap, s.opp_gap) >= 0 and max(s.mover_gap, s.opp_gap) > k
        )
        mid = CSTriple(cert.period - 1, k // 2, k // 3)
        for gone in (CSTriple(0, 0, 0), mid, outside[0]):
            states = {t: w for t, w in induced.items() if t != gone}
            assert len(states) == len(induced) - 1, gone
            assert covered_box(cert, states) == ref_covered_box(cert, states) < k, gone
        foreign = {CSTriple(cert.period, 0, 0): Winner.MOVER, CSTriple(0, -1, 2): Winner.MOVER,
                   CSTriple(0, 10**9, 0): Winner.MOVER}
        states = {**induced, **foreign}
        assert covered_box(cert, states) == ref_covered_box(cert, states) == k


# move sets read through their recursion tables, and two solved families
SCAN_SOURCES = [
    (1, 3, 4), (1, 2, 5), (2, 3), (3, 5, 6, 10, 11), (2, 3, 4), (3, 4, 5, 6), one_l(4), one_l_l1(3),
]


class TestCriticalScan:
    """``critical_scan`` against ``ref_critical_cells`` layer by layer, with its
    wins read off the dense cube."""

    @pytest.mark.parametrize("n_max", [0, 1, 120])
    @pytest.mark.parametrize(
        "source", SCAN_SOURCES,
        ids=lambda s: ",".join(map(str, s)) if isinstance(s, tuple) else f"family {s.moves}",
    )
    def test_matches_reference(self, source, n_max, tables_cache, cube_cache):
        if isinstance(source, tuple):
            values, source = source, tables_cache(source, 120)
        else:
            values, source = source.moves.values, family_solution(source)
        got = critical_scan(source, n_max)
        columns = np.concatenate([
            np.stack([np.full(d.size, n), d, e, g, h])
            for n in range(n_max + 1) for d, e, g, h in [ref_critical_cells(source, n)]
        ], axis=1)
        assert len(got) == 6
        for k in range(5):
            assert got[k].dtype == np.int64 and np.array_equal(got[k], columns[k]), k
        cube = cube_cache(values, 120).win
        assert got[5].dtype == bool
        assert np.array_equal(got[5], cube[got[0], got[1], got[2]])
        assert (n_max < 120) or got[5].any() and not got[5].all()

    def test_layers_past_the_tables_are_out_of_range(self, tables_cache):
        with pytest.raises(OutOfRange):
            critical_scan(tables_cache((1, 3, 4), 120), 121)


class TestCriticalWinner:
    def test_example(self):
        decision = WinEngine(new_move_set([1, 4]), 40).decide(13, 8, 7)
        assert decision.method == "critical" and decision.winner is Winner.MOVER

    def test_agrees_with_oracle_on_critical_box(self, tables_cache, cube_cache):
        engine = WinEngine(new_move_set([1, 5, 6]), 60)
        t = tables_cache((1, 5, 6), 60)
        cube = cube_cache((1, 5, 6), 60)
        for n in range(61):
            g = poor_thresholds(t.moves, n)
            for d in range(g.poor_i, int(t.rich_i[n])):
                for e in range(g.poor_ii, int(t.rich_ii[n])):
                    decision = engine.decide(n, d, e)
                    assert decision.method == "critical", (n, d, e)
                    assert decision.winner is cube.winner(n, d, e), (n, d, e)

    def test_wrong_region(self):
        decision = WinEngine(new_move_set([1, 4]), 40).decide(13, 12, 2)
        assert decision.method == "rich" and decision.cs is None
