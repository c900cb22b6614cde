#!/usr/bin/env python3
"""Cash periodicity: when the hard middle of the game folds onto residues.

Rich and poor positions are easy; the interesting states are the critical
ones, where both budgets sit between their cutoffs.  When the move costs in
gap coordinates repeat modulo some m, each critical position collapses to a
(residue, mover gap, opponent gap) triple, and one finite rule — a solution
set — decides all of them.  Not every move set cooperates.
"""

from nimcash import (
    CashTable,
    WinEngine,
    build_thresholds,
    corresponding_state,
    detect_cash_period,
    family_solution,
    new_move_set,
    poor_thresholds,
    recognize_family,
    step_cs,
    verify_solution_set,
)

for values in [(1, 4), (1, 5, 6), (1, 4, 5), (3, 5, 6, 10, 11)]:
    ms = new_move_set(values)
    tables = build_thresholds(ms, 800)
    cert = detect_cash_period(ms, tables, m_max=32, n_check=700)
    if cert is None:
        print(f"{ms}: no cash period m <= 32 up to n=700 "
              f"(the gap costs keep drifting between residues)")
    else:
        print(f"{ms}: cash-periodic with m={cert.period} "
              f"(verified up to n={cert.verified_up_to})")
print()

ms = new_move_set([1, 4])
tables = build_thresholds(ms, 200)
sol = family_solution(recognize_family(ms))
cert = sol.certificate()
engine = WinEngine(ms, 200)  # decides critical positions by solution-set membership

print("abstracting a critical position of {1,4}:")
n, d, e = 13, 8, 7
cs = corresponding_state(cert, tables, n, d, e)
print(f"  ({n};{d},{e}) -> residue {cs.residue}, gaps ({cs.mover_gap},{cs.opp_gap})")
stepped = step_cs(cert, cs, 1)
print(f"  removing 1 in gap coordinates: -> "
      f"({stepped.residue}, {stepped.mover_gap}, {stepped.opp_gap})")
print(f"  solution-set membership says: "
      f"{engine.decide(n, d, e).winner.as_player()} wins")
print()

print("checking the solution set's closure on the whole gap box [0,40]^2:")
report = verify_solution_set(cert, sol.solution_set, 40)
print(f"  {report.checked} triples checked, "
      f"{len(report.violations)} violations -> "
      f"{'closed' if report.passed else 'broken'}")
print()

print("and against the exact solver on every critical state with n <= 60:")
cube = CashTable(ms, 60)
total = bad = 0
for n in range(61):
    g = poor_thresholds(ms, n)
    for d in range(g.poor_i, int(tables.rich_i[n])):
        for e in range(g.poor_ii, int(tables.rich_ii[n])):
            total += 1
            member = engine.decide(n, d, e).winner
            if member is not cube.winner(n, d, e):
                bad += 1
print(f"  {total} critical states, {bad} disagreements")
