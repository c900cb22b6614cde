"""``query-stream``: a closed loop of single-position queries.

One caller issues the next query only after the previous one returns.  The
stream is stratified by regime, not drawn uniformly (a uniform draw hits
about 2% critical cells), and comes in blocks of 1000 with a fixed mix:

* 920 regime-rule queries: ``WinEngine.decide`` on rich, poor and critical
  cells of family sets and on rich and poor cells of non-family sets, and
  ``family_win`` at ``n`` up to 10**15;
* 80 expensive queries: ``decide`` on critical cells of non-family sets (the
  ``solve_cash`` fallback), ``best_move``, ``wins_miserly`` and an
  in-process ``nimcash solve``.

With 8% expensive, ``query_p99_us`` falls inside the expensive queries and
``query_p50_us`` inside the regime-rule ones.  The dense cube is never
built in the timed region.
"""

from __future__ import annotations

import contextlib
import io
from array import array
from collections import Counter
import math
import random
import statistics
import time

N_MAX = 512
FAMILY = ((1, 3, 4), (1, 4, 5), (1, 6))
OTHER = ((3, 5, 6, 10, 11), (2, 3), (1, 2, 5))
REGIMES = ("rich", "poor", "critical")

# (query kind, move-set pool, regime or None for any, queries per block)
BLOCK = (
    ("decide", FAMILY, "rich", 120),
    ("decide", FAMILY, "poor", 120),
    ("decide", FAMILY, "critical", 120),
    ("decide", OTHER, "rich", 130),
    ("decide", OTHER, "poor", 130),
    ("family_win", FAMILY, "rich", 100),
    ("family_win", FAMILY, "poor", 100),
    ("family_win", FAMILY, "critical", 100),
    ("decide", OTHER, "critical", 30),
    ("best_move", OTHER, None, 20),
    ("miserly", FAMILY + OTHER, None, 10),
    ("cli", OTHER, None, 20),
)
REFERENCE_SAMPLE = 40
REFERENCE_N_MAX = 200


def _family_kind(nc, values):
    if len(values) == 2:
        return nc.one_l(values[1])
    return nc.one_l_l1(values[1])


def draw_budgets(rng, n, fi, fii, pi, pii, regime):
    """Budgets in [0, n] in the named regime, or None when it is empty at n."""
    if regime == "rich":
        sides = [s for s, cut in (("i", fi), ("ii", fii)) if cut <= n]
        if not sides:
            return None
        if rng.choice(sides) == "i":
            return rng.randint(fi, n), rng.randint(0, n)
        return rng.randint(0, n), rng.randint(fii, n)
    hi_d, hi_e = min(fi - 1, n), min(fii - 1, n)
    if regime == "critical":
        if pi > hi_d or pii > hi_e:
            return None
        return rng.randint(pi, hi_d), rng.randint(pii, hi_e)
    if hi_d < 0 or hi_e < 0 or (pi == 0 and pii == 0):
        return None
    while True:
        d, e = rng.randint(0, hi_d), rng.randint(0, hi_e)
        if d < pi or e < pii:
            return d, e


class QueryStream:
    name = "query-stream"
    round_label = "block of 1000 queries"
    trace_rounds = 5

    def __init__(self, nc, seed: int, tmpdir: str) -> None:
        self.nc = nc
        self.seed = seed
        # Input planning reads the cutoffs; it runs outside the timed region.
        self.moves = {v: nc.new_move_set(list(v)) for v in FAMILY + OTHER}
        self.tables = {v: nc.build_thresholds(ms, N_MAX) for v, ms in self.moves.items()}
        self.solutions = {v: nc.family_solution(_family_kind(nc, v)) for v in FAMILY}

    # ------------------------------------------------------------ set-up

    def setup(self):
        nc = self.nc
        moves = {v: nc.new_move_set(list(v)) for v in FAMILY + OTHER}
        state = {
            "moves": moves,
            "engines": {v: nc.WinEngine(ms, N_MAX) for v, ms in moves.items()},
            "kinds": {v: _family_kind(nc, v) for v in FAMILY},
        }
        warm = [("decide", v, 40, 20, 20, None) for v in FAMILY + OTHER[:1]]
        warm += [("family_win", v, 10**12, 10**11, 10**11, None) for v in FAMILY]
        warm += [("cli", OTHER[0], 20, 8, 8, None), ("best_move", OTHER[0], 20, 8, 8, None)]
        warm += [("miserly", FAMILY[0], 20, 8, 8, True)]
        for q in warm:
            self._ask(state, q)
        return state

    # ------------------------------------------------------------ inputs

    def next_input(self, i: int):
        rng = random.Random(f"{self.seed}:query-stream:{i}")
        block = []
        for kind, pool, regime, count in BLOCK:
            for _ in range(count):
                block.append(self._draw(rng, kind, pool, regime))
        rng.shuffle(block)
        return i, block

    def _draw(self, rng, kind, pool, regime):
        nc = self.nc
        while True:
            values = rng.choice(pool)
            r = regime or rng.choice(REGIMES)
            if kind == "family_win":
                n = int(10 ** rng.uniform(math.log10(64), 15))
                fi, fii = self.solutions[values].rich_pair(n)
            else:
                n = rng.randint(40, 120) if kind == "miserly" else rng.randint(32, N_MAX)
                t = self.tables[values]
                fi, fii = int(t.rich_i[n]), int(t.rich_ii[n])
            g = nc.poor_thresholds(self.moves[values], n)
            budgets = draw_budgets(rng, n, fi, fii, g.poor_i, g.poor_ii, r)
            if budgets is not None:
                who = rng.random() < 0.5 if kind == "miserly" else None
                return (kind, values, n, budgets[0], budgets[1], who)

    # ------------------------------------------------------------ timed

    def run(self, state, inp):
        return [self._timed(state, q) for q in inp[1]]

    def _timed(self, state, q):
        t0 = time.perf_counter()
        try:
            answer = self._ask(state, q)
        except Exception as exc:  # recorded as a failed answer, never dropped
            answer = ("error", f"{type(exc).__name__}: {exc}")
        return answer, time.perf_counter() - t0

    def _ask(self, state, q):
        nc = self.nc
        kind, values, n, d, e, who = q
        if kind == "decide":
            decision = state["engines"][values].decide(n, d, e)
            return decision.winner is nc.Winner.MOVER, decision.method
        if kind == "family_win":
            return nc.family_win(state["kinds"][values], n, d, e) is nc.Winner.MOVER
        if kind == "best_move":
            return nc.best_move(state["moves"][values], nc.CashState(n, d, e))
        if kind == "miserly":
            side = nc.Winner.MOVER if who else nc.Winner.OPPONENT
            return nc.wins_miserly(state["moves"][values], nc.CashState(n, d, e), side)
        buf = io.StringIO()
        argv = ["solve", "-A", ",".join(map(str, values)), "-n", str(n), "-d", str(d), "-e", str(e)]
        with contextlib.redirect_stdout(buf):
            code = nc.cli.main(argv)
        return code, buf.getvalue()

    def record(self, inp, out):
        """Encode each answer as one small int so memory does not grow with speed.

        The queries themselves are not kept: ``check`` regenerates them from
        the seed and the block index.
        """
        index, block = inp
        codes, latencies, methods = array("h"), array("d"), Counter()
        for (kind, values, *_), (answer, latency) in zip(block, out):
            codes.append(_encode(kind, values, answer))
            latencies.append(latency)
            if kind == "decide" and answer[0] != "error":
                methods[answer[1]] += 1
        return index, codes, latencies, methods

    # ------------------------------------------------------------ results

    @staticmethod
    def answers(records) -> int:
        return sum(len(codes) for _, codes, _, _ in records)

    def report(self, records) -> dict:
        lat_us = sorted(lat * 1e6 for _, _, lats, _ in records for lat in lats)
        p99 = statistics.quantiles(lat_us, n=100)[98]
        return {
            "query_p50_us": statistics.median(lat_us),
            "query_p99_us": p99,
            "samples": len(lat_us),
            "samples_beyond_p99": sum(1 for v in lat_us if v > p99),
            "decide_methods": dict(sum((m for _, _, _, m in records), Counter())),
        }

    # ------------------------------------------------------------ checks

    def check(self, records, reference) -> tuple[int, int, list[str]]:
        nc = self.nc
        items = [
            (q, code)
            for index, codes, _, _ in records
            for q, code in zip(self.next_input(index)[1], codes)
        ]
        failed = 0
        notes: list[str] = []
        small: dict[tuple, list] = {}
        for q, code in items:
            if code == ERROR:
                failed += 1
                notes.append(f"error or unreadable answer on {q}")
            elif q[0] == "miserly":
                kind, values, n, d, e, who = q
                if code != reference.ref_wins_miserly(values, n, d, e, who):
                    failed += 1
                    notes.append(f"wrong miserly answer on {q}")
            elif q[2] <= N_MAX:
                small.setdefault(q[1], []).append((q, code))
            elif not self._fixpoint_ok(q, code):
                failed += 1
                notes.append(f"family_win fails the one-ply check on {q}")
        verified: list[tuple] = []
        for values, group in sorted(small.items()):
            cube = nc.CashTable(self.moves[values], max(q[2] for q, _ in group)).win
            for q, code in group:
                mover_wins, moves = _cube_answer(cube, values, q[2], q[3], q[4])
                if _expected(q[0], values, mover_wins, moves) != (
                    code % 2 if q[0] == "decide" else code
                ):
                    failed += 1
                    notes.append(f"answer {code} disagrees with the dense cube on {q}")
                else:
                    verified.append((q, mover_wins))
            del cube
        rng = random.Random(f"{self.seed}:reference")
        pool = [(q, w) for q, w in verified if q[2] <= REFERENCE_N_MAX]
        for q, mover_wins in rng.sample(pool, min(REFERENCE_SAMPLE, len(pool))):
            if reference.ref_mover_wins(q[1], q[2], q[3], q[4]) != mover_wins:
                failed += 1
                notes.append(f"dense cube and reference disagree on {q}")
        return len(items), failed, notes

    def _fixpoint_ok(self, q, mover_wins) -> bool:
        """The mover wins iff some legal move leaves the opponent lost."""
        nc = self.nc
        _, values, n, d, e, _ = q
        kind = _family_kind(nc, values)
        escape = any(
            nc.family_win(kind, n - a, e, d - a) is nc.Winner.OPPONENT
            for a in values
            if a <= min(n, d)
        )
        return mover_wins == escape


# ------------------------------------------------------------ answer codes
#
# decide: mover bit + 2 * method index; family_win, miserly: mover bit;
# best_move: the move, 0 for none; cli solve: mover bit + one bit per
# winning move (bit 1 + its index in the move set).

ERROR = -1
METHODS = ("rich", "poor", "critical", "oracle")


def _encode(kind, values, answer) -> int:
    if isinstance(answer, tuple) and answer[0] == "error":
        return ERROR
    if kind == "decide":
        mover_wins, method = answer
        return int(mover_wins) + 2 * (METHODS.index(method) if method in METHODS else len(METHODS))
    if kind == "best_move":
        return answer or 0
    if kind != "cli":
        return int(answer)
    code, text = answer
    lines = text.splitlines()
    if code != 0 or not lines or not lines[0].startswith("Player I"):
        return ERROR
    bits = int(lines[0].startswith("Player I wins"))
    for line in lines[1:]:
        if line.startswith("winning moves: "):
            for a in line[len("winning moves: "):].split(", "):
                if not a.isdigit() or int(a) not in values:
                    return ERROR
                bits |= 2 << values.index(int(a))
    return bits


def _expected(kind, values, mover_wins, moves) -> int:
    """The answer code a correct library gives, from the dense cube."""
    if kind == "best_move":
        return min(moves) if moves else 0
    if kind == "cli":
        return int(mover_wins) + sum(2 << values.index(a) for a in moves)
    return int(mover_wins)


def _cube_answer(win, values, n, d, e):
    """Winner and winning moves of (n; d, e) read off the dense cube."""
    d, e = min(d, n), min(e, n)
    moves = tuple(
        a for a in values
        if a <= min(n, d) and not win[n - a, min(e, n - a), min(d - a, n - a)]
    )
    return bool(win[n, d, e]), moves
