"""``box-sweep``: whole-box answers for one non-family and one family set.

Each round, for ``{3,5,6,10,11}`` (critical cells fall back to the dense
oracle) and ``{1,4,5}`` (critical cells go through the family solution
set): a fresh ``WinEngine``, its dense ``cube()``, ``sweep`` over the box
``[0, SIDE]^3``, and a ``nimcash table`` cube-mode export of
``EXPORT_SIDE^3`` rows through ``cli.main`` into a file.  ``solve_cash`` is
never called.

The box is fixed, so a round costs the same on every seed; the seed draws
the order of the two sets in each round and the cells checked against the
plain reference solver.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random

import numpy as np

SETS = ((3, 5, 6, 10, 11), (1, 4, 5))
SIDE = 200
EXPORT_SIDE = 24
REFERENCE_SAMPLE = 60


class BoxSweep:
    name = "box-sweep"
    round_label = "one box per set"
    trace_rounds = 3

    def __init__(self, nc, seed: int, tmpdir: str) -> None:
        self.nc = nc
        self.seed = seed
        self.tmpdir = tmpdir
        self.arrays: dict[str, tuple] = {}  # digest -> (shape, bit-packed array)
        self.exports = 0

    def setup(self):
        nc = self.nc
        state = {v: nc.new_move_set(list(v)) for v in SETS}
        for v, ms in state.items():
            engine = nc.WinEngine(ms, 16)
            engine.cube()
            engine.sweep(16, 16, 16)
            self._export(v, 4, os.path.join(self.tmpdir, "warm.csv"))
        return state

    def next_input(self, i: int):
        rng = random.Random(f"{self.seed}:box-sweep:{i}")
        order = list(SETS)
        rng.shuffle(order)
        return order

    def _export(self, values, side, path):
        argv = ["table", "-A", ",".join(map(str, values)), "--n-max", str(side),
                "--d-max", str(side), "--e-max", str(side), "--out", path]
        return self.nc.cli.main(argv)

    def run(self, state, order):
        out = []
        for values in order:
            self.exports += 1
            path = os.path.join(self.tmpdir, f"export{self.exports}.csv")
            engine = self.nc.WinEngine(state[values], SIDE)
            cube = engine.cube()
            swept = engine.sweep(SIDE, SIDE, SIDE)
            code = self._export(values, EXPORT_SIDE, path)
            out.append((values, cube, swept, code, path))
        return out

    def record(self, order, out):
        """Digest each answer array; keep one bit-packed copy per distinct digest.

        A correct library gives the same arrays every round, so memory does
        not grow with the round count.
        """
        rec = []
        for values, cube, swept, code, path in out:
            digests = []
            for array in (cube.win, swept):
                packed = np.packbits(array)
                digest = hashlib.sha256(packed.tobytes()).hexdigest()
                self.arrays.setdefault(digest, (array.shape, packed))
                digests.append(digest)
            rec.append((values, *digests, code, path))
        return rec

    def answers(self, records) -> int:
        return sum(
            int(np.prod(self.arrays[swept][0])) + EXPORT_SIDE**3
            for rec in records for _, _, swept, _, _ in rec
        )

    # ------------------------------------------------------------ checks

    def check(self, records, reference) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes: list[str] = []
        truth = {}
        rng = random.Random(f"{self.seed}:reference")
        for values in SETS:
            win = self.nc.CashTable(self.nc.new_move_set(list(values)), SIDE).win
            cells = [tuple(rng.randint(0, SIDE) for _ in range(3)) for _ in range(REFERENCE_SAMPLE)]
            for n, d, e in cells:
                if reference.ref_mover_wins(values, n, d, e) != bool(win[n, min(d, n), min(e, n)]):
                    failed += 1
                    notes.append(f"dense cube and reference disagree at {values} {(n, d, e)}")
            idx = np.arange(SIDE + 1)
            n_, d_, e_ = idx[:, None, None], idx[None, :, None], idx[None, None, :]
            expect = win[n_, np.minimum(d_, n_), np.minimum(e_, n_)]
            truth[values] = (win, expect)
        for rec in records:
            for values, cube_digest, swept_digest, code, path in rec:
                win, expect = truth[values]
                cube = self._unpack(cube_digest)
                wrong = int(np.count_nonzero(cube != win)) if cube.shape == win.shape else win.size
                attempted += win.size
                if wrong:
                    failed += wrong
                    notes.append(f"cube() of {values}: {wrong} cells differ from a fresh CashTable")
                swept = self._unpack(swept_digest)
                attempted += swept.size
                wrong = (int(np.count_nonzero(swept != expect))
                         if swept.shape == expect.shape else swept.size)
                if wrong:
                    failed += wrong
                    notes.append(f"sweep of {values}: {wrong} cells disagree with the cube")
                rows, bad = _check_export(path, values, win, code)
                attempted += rows
                failed += bad
                if bad:
                    notes.append(f"export of {values}: {bad} bad rows")
        return attempted, failed, notes

    def _unpack(self, digest):
        shape, packed = self.arrays[digest]
        return np.unpackbits(packed, count=int(np.prod(shape))).reshape(shape).astype(bool)


def _check_export(path, values, win, code) -> tuple[int, int]:
    """Parse an exported CSV back and compare every row with the cube."""
    expected_rows = EXPORT_SIDE**3
    if code != 0 or not os.path.exists(path):
        return expected_rows, expected_rows
    seen = set()
    bad = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            n, d, e = int(row["n"]), int(row["d"]), int(row["e"])
            seen.add((n, d, e))
            dc, ec = min(d, n), min(e, n)
            moves = tuple(
                a for a in values
                if a <= min(n, dc) and not win[n - a, min(ec, n - a), min(dc - a, n - a)]
            )
            mover = bool(win[n, dc, ec])
            got_moves = tuple(int(a) for a in row["winning_moves"].split(";") if a)
            if row["winner"] != ("Player I" if mover else "Player II") or got_moves != moves:
                bad += 1
    missing = expected_rows - len(seen & {(n, d, e) for n in range(EXPORT_SIDE)
                                           for d in range(EXPORT_SIDE) for e in range(EXPORT_SIDE)})
    return expected_rows, bad + missing
