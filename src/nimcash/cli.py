"""Command-line surface.

Subcommands:

* ``solve``      decide one position (winner, region, winning moves)
* ``table``      export cutoff tables or the full winner cube as CSV/JSON
* ``period``     detect the cash period of a move set
* ``verify``     check a family's (or an induced) solution set
* ``conjecture`` run the {L..M} offset/solution-set sweep (report-only)
* ``appendix``   compare {3,5,6,10,11} cutoffs against the reference rows
* ``play``       play against the engine in a terminal loop

All output is deterministic for a fixed invocation.  ``NIMCASH_MAX_N``
overrides the default single-position solver bound (2048), which also caps
every stone count the staircase oracle is grown to (about n^2 bytes).

The parser is built once per process (:func:`build_parser`); each call of
:func:`main` only parses its arguments and runs ``cmd_<name>``, which reads
the cutoff tables and the staircase from their per-move-set memos, so
repeated calls in one process share that work.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .engine import WinEngine
from .errors import BadParams, NimCashError, ResourceLimit
from .families import (
    appendix_check,
    conjecture_check,
    family_solution,
    one_l,
    one_l_l1,
)
from .game import (
    CashState,
    MoveSet,
    Winner,
    apply_move,
    legal_moves,
    new_move_set,
    parse_funds,
)
from .oracle import _check_solver_bound, _solver_bound, best_move, solve_cash, staircase
from .periodicity import (
    CSTriple,
    SolutionSet,
    covered_box,
    critical_scan,
    detect_cash_period,
    induce_candidate,
    verify_solution_set,
)
from .thresholds import build_thresholds, poor_thresholds, regime


def parse_move_set(text: str) -> MoveSet:
    try:
        return new_move_set(int(part) for part in text.split(","))
    except ValueError as exc:
        raise NimCashError(f"cannot parse move set {text!r}: {exc}") from None


THRESHOLD_COLUMNS = ("n", "standard_winner", "rich_i", "rich_ii", "poor_i", "poor_ii")
CUBE_COLUMNS = (
    "n", "d", "e", "region", "winner", "winning_moves", "cs_residue", "cs_mover_gap", "cs_opp_gap",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(a) for a in value)
    return str(value)


def _emit_rows(rows: list[tuple], columns: tuple[str, ...], fmt: str, out_path: str | None):
    """Write rows of column values as a JSON list of objects, or as CSV under a header."""
    if fmt == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(_csv_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_sizes(*flags: tuple[str, int | None]) -> None:
    """Reject a negative size flag up front, before anything is printed."""
    for flag, value in flags:
        if value is not None and value < 0:
            raise BadParams(f"{flag} must be >= 0, got {value}")


# ------------------------------------------------------------------ solve

def cmd_solve(args: argparse.Namespace) -> int:
    moves = parse_move_set(args.set)
    d, e = parse_funds(args.d), parse_funds(args.e)
    state = CashState(args.n, d, e)
    _check_solver_bound(args.n)  # before the engine builds its tables
    decision = WinEngine(moves, args.n).decide(args.n, d, e)
    result = decision.result or solve_cash(moves, state)
    print(f"{result.winner.as_player()} wins ({decision.region.value} regime)")
    if result.winning_moves:
        print(f"winning moves: {', '.join(str(a) for a in result.winning_moves)}")
    if args.explain:
        print(f"decided by: {decision.method}")
        if decision.cs is not None:
            cs = decision.cs
            print(
                f"corresponding state: (residue={cs.residue}, "
                f"mover_gap={cs.mover_gap}, opp_gap={cs.opp_gap})"
            )
    return 0


# ------------------------------------------------------------------ table

def cmd_table(args: argparse.Namespace) -> int:
    moves = parse_move_set(args.set)
    n_hi = args.n_max
    _check_sizes(("--n-max", n_hi), ("--d-max", args.d_max), ("--e-max", args.e_max))
    cube_mode = args.d_max is not None or args.e_max is not None
    limit = _solver_bound(None)
    if n_hi - 1 > limit:
        raise ResourceLimit(f"n_max={n_hi} exceeds the configured bound {limit}")
    if not cube_mode:
        tables = build_thresholds(moves, max(n_hi - 1, 0))
        rows = []
        for n in range(n_hi):
            fi, fii, standard_wins = tables.cutoffs(n)
            g = poor_thresholds(moves, n)
            rows.append((n, "I" if standard_wins else "II", fi, fii, g.poor_i, g.poor_ii))
        _emit_rows(rows, THRESHOLD_COLUMNS, args.format, args.out)
        return 0

    d_hi = args.d_max if args.d_max is not None else n_hi
    e_hi = args.e_max if args.e_max is not None else n_hi
    if n_hi * max(d_hi, 1) * max(e_hi, 1) > 50_000_000:
        raise ResourceLimit(f"cube of {n_hi}x{d_hi}x{e_hi} cells is past the export limit")
    engine = WinEngine(moves, max(n_hi - 1, 0))
    layers = staircase(moves, max(n_hi - 1, 0))
    d = np.arange(d_hi)[:, None]
    e = np.arange(e_hi)[None, :]
    rows = []
    for n in range(n_hi):
        fi, fii, _ = cutoffs = engine.cutoff_source.cutoffs(n)
        r = regime(moves, n, cutoffs, d, e)
        regions, critical = r.region.tolist(), r.critical.tolist()
        # a wins iff (n-a; e, d-a) is lost for its mover; B >= 0, so dc < a never wins
        dc, ec = np.minimum(d, n), np.minimum(e, n)
        by_move = [
            (a, (layers[n - a][np.minimum(ec, n - a)] <= dc - a).tolist())
            for a in moves
            if a <= n
        ]
        for di in range(d_hi):
            for ei in range(e_hi):
                winning = [a for a, w in by_move if w[di][ei]]
                winner = Winner.MOVER if winning else Winner.OPPONENT
                cs = (None, None, None)
                if engine.solution is not None and critical[di][ei]:
                    # critical budgets are below the rich cutoffs, hence below n
                    cs = (n % engine.solution[0].period, fi - 1 - di, fii - 1 - ei)
                rows.append((n, di, ei, regions[di][ei].value, winner.as_player(), winning, *cs))
    _emit_rows(rows, CUBE_COLUMNS, args.format, args.out)
    return 0


# ------------------------------------------------------------------ period

def cmd_period(args: argparse.Namespace) -> int:
    moves = parse_move_set(args.set)
    tables = build_thresholds(moves, args.n_check + moves.a_max)
    cert = detect_cash_period(moves, tables, args.m_max, args.n_check)
    if cert is None:
        print(f"none found (checked m <= {args.m_max}, n <= {args.n_check})")
    else:
        print(f"m={cert.period} (verified up to n={cert.verified_up_to})")
    return 0


# ------------------------------------------------------------------ verify

_FAMILY_BUILDERS = {
    "one-l": one_l,
    "one-ll-odd": one_l_l1,
    "one-ll-even": one_l_l1,
}


def cmd_verify(args: argparse.Namespace) -> int:
    _check_sizes(("--box", args.box), ("--oracle-box", args.oracle_box))
    _check_solver_bound(args.oracle_box)  # the staircase takes about n^2 bytes
    covered = None
    if args.family:
        name = args.family[0]
        try:
            L = int(args.family[1])
        except ValueError:
            raise NimCashError(f"family parameter must be an integer, got {args.family[1]!r}")
        if name not in _FAMILY_BUILDERS:
            raise NimCashError(f"unknown family {name!r}; use one of {sorted(_FAMILY_BUILDERS)}")
        if name == "one-ll-odd" and L % 2 == 0:
            raise NimCashError("one-ll-odd needs odd L")
        if name == "one-ll-even" and L % 2:
            raise NimCashError("one-ll-even needs even L")
        sol = family_solution(_FAMILY_BUILDERS[name](L))
        cert, candidate = sol.certificate(), sol.solution_set
        box = args.box if args.box is not None else 10 * L
    elif args.set:
        moves = parse_move_set(args.set)
        n_check = max(args.oracle_box, 2 * moves.a_max + args.m_max + 200)
        tables = build_thresholds(moves, n_check + moves.a_max)
        cert = detect_cash_period(moves, tables, args.m_max, n_check)
        if cert is None:
            print("FAIL: no cash period detected; nothing to verify")
            return 1
        induced, consistent = induce_candidate(moves, tables, cert, args.oracle_box)
        covered = covered_box(cert, induced)  # past it, unmet triples would read as losses
        if consistent and 0 <= covered < (args.box or 0):
            raise BadParams(f"--box {args.box} is past the gap box {covered} the map covers")
        print(
            f"induced candidate from {len(induced)} corresponding states; "
            f"consistent={consistent}"
        )
        if not consistent:
            print("FAIL: corresponding states map to both winners")
            return 1
        if covered < 0:
            print("FAIL: the induced map covers no gap box; raise --oracle-box")
            return 1
        members = {cs for cs, w in induced.items() if w is Winner.MOVER}
        candidate = SolutionSet(
            lambda i, b, b2: CSTriple(i, b, b2) in members,
            "induced from the oracle (non-members outside the sampled range)",
        )
        box = covered if args.box is None else args.box
    else:
        raise NimCashError("verify needs --family NAME L or --set A")

    report = verify_solution_set(cert, candidate, box)
    where = f"box {report.box}" if covered is None else f"box {report.box} (covered: {covered})"
    print(f"closure check on {where}: {report.checked} triples")
    for v in report.violations[:5]:
        print(
            f"  violation[{v.clause}] at (i={v.triple.residue}, "
            f"b={v.triple.mover_gap}, b'={v.triple.opp_gap}) move {v.move} -> "
            f"(i={v.successor.residue}, b={v.successor.mover_gap}, b'={v.successor.opp_gap})"
        )
    oracle_ok = True
    if args.family:
        n_hi = args.oracle_box
        # measured from the family's cutoffs, which family_win decides with
        n, _, _, mover_gap, opp_gap, wins = critical_scan(sol, n_hi)
        residue = n % cert.period
        mismatches = 0
        for i in range(cert.period):
            at = residue == i
            member = candidate.contains(i, mover_gap[at], opp_gap[at])
            mismatches += int(np.count_nonzero(member != wins[at]))
        print(f"oracle agreement on critical states n <= {n_hi}: {mismatches} mismatches")
        oracle_ok = mismatches == 0
    passed = report.passed and oracle_ok
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# ------------------------------------------------------------------ conjecture

def cmd_conjecture(args: argparse.Namespace) -> int:
    _check_solver_bound(args.critical_n_max)  # the staircase takes about n^2 bytes
    report = conjecture_check(args.L, args.M, args.n_max, args.critical_n_max)
    print(f"A = {{{args.L}..{args.M}}}, scanned n <= {report.n_max}")
    if report.theta is None:
        print("offset: none detected (no stable tail)")
        return 1
    print(f"offset: {report.theta}")
    print(
        f"offset bound {report.theta_bound}: "
        f"{'OK' if report.bound_holds else 'VIOLATED'}"
    )
    if args.M >= 2 * args.L:
        print(
            f"special case (offset == {2 * (args.L + 1)}): "
            f"{'OK' if report.special_case_holds else 'VIOLATED'}"
        )
    print(
        f"solution-set rule vs oracle on {report.critical_checked} critical "
        f"states (n <= {report.critical_n_max}): "
        f"{len(report.x_counterexamples)} counterexamples"
    )
    for c in report.x_counterexamples[:5]:
        print(
            f"  ({c.n};{c.d},{c.e}) cs=({c.cs.residue},{c.cs.mover_gap},{c.cs.opp_gap}) "
            f"oracle={c.oracle_winner.as_player()} conjectured_member={c.conjectured_member}"
        )
    return 0


# ------------------------------------------------------------------ appendix

def cmd_appendix(args: argparse.Namespace) -> int:
    report = appendix_check(args.k_max)
    print(f"reference rows checked for 4 <= k <= {report.k_max}")
    print("head (n <= 63, no congruence pattern): n rich_i rich_ii")
    for n, ri, rii in report.head:
        print(f"  {n:3d} {ri:3d} {rii:3d}")
    if report.mismatches:
        print(f"{len(report.mismatches)} mismatching cells:")
        for m in report.mismatches:
            print(f"  {m.table}({m.n}): computed {m.computed}, tabulated {m.tabulated}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


# ------------------------------------------------------------------ play

def cmd_play(args: argparse.Namespace) -> int:
    moves = parse_move_set(args.set)
    d, e = parse_funds(args.d), parse_funds(args.e)
    human_is_mover = args.human == "I"
    state = CashState(args.n, d, e)
    engine = WinEngine(moves, args.n)
    human_to_move = human_is_mover

    print(f"playing {moves} from {state}; you are Player {args.human}")
    while True:
        cutoffs = engine.cutoff_source.cutoffs(state.n)
        region = regime(moves, state.n, cutoffs, state.d, state.e).region
        mover_name = "you" if human_to_move else "engine"
        print(f"state {state} [{region.value}] - {mover_name} to move")
        legal = legal_moves(moves, state)
        if not legal:
            winner = "engine" if human_to_move else "you"
            print(f"{mover_name} cannot move; {winner} win{'s' if winner == 'engine' else ''}!")
            return 0
        if human_to_move:
            try:
                raw = input(f"your move {legal} (or 'resign'): ").strip()
            except EOFError:
                print("input closed; resigning")
                return 0
            if raw.lower() in ("resign", "quit"):
                print("you resign; engine wins")
                return 0
            try:
                a = int(raw)
            except ValueError:
                print(f"not a move: {raw!r}")
                continue
            if a not in legal:
                print(f"illegal move {a}; legal: {legal}")
                continue
        else:
            a = best_move(moves, state)
            if a is None:
                a = legal[0]
            print(f"engine removes {a}")
        state = apply_move(state, a, moves)
        human_to_move = not human_to_move


# ------------------------------------------------------------------ main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, then only read.

    It binds no command function; :func:`main` looks ``cmd_<name>`` up when
    it runs, so a replaced module global takes effect.
    """
    p = argparse.ArgumentParser(
        prog="nimcash",
        description="Solve and analyze one-pile subtraction games with cash costs",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="Decide a single position")
    s.add_argument("-A", "--set", required=True, help="move set, e.g. 1,3,4")
    s.add_argument("-n", type=int, required=True, help="stones on the board")
    s.add_argument("-d", required=True, help="mover's budget (integer or UF)")
    s.add_argument("-e", required=True, help="opponent's budget (integer or UF)")
    s.add_argument("--explain", action="store_true", help="name the deciding rule")

    s = sub.add_parser("table", help="Export cutoff tables or the winner cube")
    s.add_argument("-A", "--set", required=True)
    s.add_argument("--n-max", type=int, required=True, help="emit rows for 0 <= n < N")
    s.add_argument("--d-max", type=int, help="with --e-max, emit cube rows for d < D")
    s.add_argument("--e-max", type=int, help="with --d-max, emit cube rows for e < E")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--out", help="write to file instead of stdout")

    s = sub.add_parser("period", help="Detect the cash period of a move set")
    s.add_argument("-A", "--set", required=True)
    s.add_argument("--m-max", type=int, default=64)
    s.add_argument("--n-check", type=int, default=2000)

    s = sub.add_parser("verify", help="Verify a solution set (family or induced)")
    s.add_argument(
        "--family", nargs=2, metavar=("NAME", "L"),
        help="one of one-l / one-ll-odd / one-ll-even, plus L",
    )
    s.add_argument("-A", "--set", help="detect + induce for an arbitrary set")
    s.add_argument("--box", type=int, help="gap box bound (default 10*L; with -A, the covered box)")
    s.add_argument("--oracle-box", type=int, default=80,
                   help="stone bound for oracle agreement")
    s.add_argument("--m-max", type=int, default=64,
                   help="largest period tried in induced mode")

    s = sub.add_parser("conjecture", help="Run the {L..M} sweep (report-only)")
    s.add_argument("L", type=int)
    s.add_argument("M", type=int)
    s.add_argument("--n-max", type=int, default=360)
    s.add_argument("--critical-n-max", type=int, default=120)

    s = sub.add_parser("appendix", help="Check {3,5,6,10,11} against the reference rows")
    s.add_argument("--k-max", type=int, default=12)

    s = sub.add_parser("play", help="Play against the engine")
    s.add_argument("-A", "--set", required=True)
    s.add_argument("-n", type=int, required=True)
    s.add_argument("-d", required=True)
    s.add_argument("-e", required=True)
    s.add_argument("--human", choices=["I", "II"], default="I")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.cmd}"](args)
    except NimCashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
