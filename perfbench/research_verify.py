"""``research-verify``: the paper's verification pipeline, run to fixed verdicts.

One round reaches every verdict once:

1. ``build_thresholds`` at n = 10**5 for one set of ``THRESHOLD_POOL``;
2. ``detect_cash_period`` (m <= 64, n <= 2000) on two periodic and two
   aperiodic sets; the aperiodic ones scan every m;
3. ``induce_candidate`` on {1,3,4} plus ``verify_solution_set`` on the
   induced set;
4. a family's closure box plus oracle agreement, through ``nimcash verify``
   as a user runs it;
5. ``CashTable.audit_soundness`` at n = 300 for one set of ``AUDIT_POOL``;
6. ``conjecture_check`` for three interval sets;
7. ``appendix_check`` (k_max = 12).  Its 79 mismatching cells are red by
   design: the verdict checks that they are unchanged, not that they pass.

The seed draws the pool members of each round; members of one pool cost
about the same.  The expected verdicts live in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import numpy as np

# (move set, its cash period): the period sets the cutoff-advance verdict
THRESHOLD_POOL = (((1, 3, 4), 7), ((1, 2, 5), 3))
THRESHOLD_N = 100_000
THRESHOLD_TAIL = 1_000  # cutoff advance per period is checked for n >= this
PERIOD_SETS = ((1, 3, 4), (1, 2, 5), (2, 3), (3, 5, 6, 10, 11))
PERIOD_M_MAX = 64
PERIOD_N_CHECK = 2000
INDUCED_SET = (1, 3, 4)
INDUCED_ORACLE_BOX = 120
INDUCED_CLOSURE_BOX = 20
FAMILY_POOL = (("one-l", 4), ("one-ll-odd", 3))
AUDIT_POOL = ((1, 3, 4), (1, 2, 5), (1, 4, 5))
AUDIT_N = 300
CONJECTURES = ((2, 4), (3, 5), (3, 6))
APPENDIX_K_MAX = 12

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _key(values) -> str:
    return ",".join(map(str, values))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


class ResearchVerify:
    name = "research-verify"
    round_label = "one pass to all verdicts"
    trace_rounds = 3

    def __init__(self, nc, seed: int, tmpdir: str) -> None:
        self.nc = nc
        self.seed = seed
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def setup(self):
        nc = self.nc
        state = {v: nc.new_move_set(list(v)) for v in set(PERIOD_SETS + AUDIT_POOL)}
        # Warm every code path once on small inputs.
        ms = state[INDUCED_SET]
        tables = nc.build_thresholds(ms, 200)
        cert = nc.detect_cash_period(ms, tables, 8, 150)
        nc.induce_candidate(ms, tables, cert, 20)
        nc.CashTable(ms, 20).audit_soundness()
        nc.conjecture_check(2, 3, 20)
        nc.appendix_check(4)
        with contextlib.redirect_stdout(io.StringIO()):
            nc.cli.main(["verify", "--family", "one-l", "2", "--oracle-box", "10"])
        return state

    def next_input(self, i: int):
        rng = random.Random(f"{self.seed}:research-verify:{i}")
        return {
            "thresholds": rng.choice(THRESHOLD_POOL),
            "family": rng.choice(FAMILY_POOL),
            "audit": rng.choice(AUDIT_POOL),
        }

    def run(self, state, pick):
        nc = self.nc
        out = {}
        v, period = pick["thresholds"]
        out[f"thresholds {_key(v)}"] = (nc.build_thresholds(state[v], THRESHOLD_N), period)
        for v in PERIOD_SETS:
            tables = nc.build_thresholds(state[v], PERIOD_N_CHECK + state[v].a_max)
            cert = nc.detect_cash_period(state[v], tables, PERIOD_M_MAX, PERIOD_N_CHECK)
            out[f"period {_key(v)}"] = cert
            if v == INDUCED_SET:
                induced, consistent = nc.induce_candidate(
                    state[v], tables, cert, INDUCED_ORACLE_BOX
                )
                members = {cs for cs, w in induced.items() if w is nc.Winner.MOVER}
                candidate = nc.SolutionSet(
                    lambda i, b, b2: nc.CSTriple(i, b, b2) in members, "induced"
                )
                closure = nc.verify_solution_set(cert, candidate, INDUCED_CLOSURE_BOX)
                out[f"induced {_key(v)}"] = (len(induced), consistent, closure)
        name, L = pick["family"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nc.cli.main(["verify", "--family", name, str(L)])
        out[f"family {name} {L}"] = (code, buf.getvalue())
        v = pick["audit"]
        out[f"audit {_key(v)}"] = nc.CashTable(state[v], AUDIT_N).audit_soundness()
        for L, M in CONJECTURES:
            out[f"conjecture {L},{M}"] = nc.conjecture_check(L, M)
        out["appendix"] = nc.appendix_check(APPENDIX_K_MAX)
        return out

    def record(self, pick, out):
        """Reduce each step's result to its verdict, outside the timed region."""
        return {key: _verdict(key, result) for key, result in out.items()}

    @staticmethod
    def answers(records) -> int:
        return sum(len(r) for r in records)

    def check(self, records, reference) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes: list[str] = []
        for verdicts in records:
            for key, got in verdicts.items():
                attempted += 1
                want = self.expected.get(key)
                if got != want:
                    failed += 1
                    notes.append(f"{key}: got {got!r}, expected {want!r}")
        return attempted, failed, notes


def _verdict(key: str, result):
    kind = key.split(" ", 1)[0]
    if kind == "thresholds":
        tables, period = result
        rich_i = tables.rich_i.astype(np.int64)
        rich_ii = tables.rich_ii.astype(np.int64)
        tail = slice(THRESHOLD_TAIL, None)
        return {
            "rows": int(rich_i.size),
            "digest": _digest([rich_i.tolist(), rich_ii.tolist()]),
            "advance_i": sorted(set((rich_i[period:] - rich_i[:-period])[tail].tolist())),
            "advance_ii": sorted(set((rich_ii[period:] - rich_ii[:-period])[tail].tolist())),
        }
    if kind == "period":
        return None if result is None else [result.period, result.verified_up_to]
    if kind == "induced":
        count, consistent, closure = result
        return [count, consistent, closure.passed, closure.checked]
    if kind == "family":
        code, text = result
        return [code] + [ln for ln in text.splitlines() if not ln.startswith("  ")]
    if kind == "audit":
        return [list(cell) for cell in result]
    if kind == "conjecture":
        return [result.theta, result.bound_holds, result.special_case_holds,
                result.critical_checked, len(result.x_counterexamples)]
    return {
        "passed": result.passed,
        "mismatches": len(result.mismatches),
        "digest": _digest([[m.table, m.n, m.computed, m.tabulated] for m in result.mismatches]),
    }
