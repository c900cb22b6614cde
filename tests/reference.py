"""Plain recursive reference solvers, kept independent of the package.

These are the trusted oracles the production code is checked against: the
most naive possible implementations, dict-memoized, no shared machinery;
``ref_family_cutoffs`` is the solved families' closed forms.
Budgets here are plain ints (callers clamp or pick small ones).
``ref_thresholds`` returns numpy arrays, so that the dtypes of the package's
cutoff tables can be compared as well as their values; ``ref_critical_cells``
returns arrays as the package's scan does.  ``ref_period`` rereads
period detection one residue class at a time off ``ref_thresholds``.
``ref_closure``, ``ref_induce`` and ``ref_covered_box`` recheck the closure
check, induction and the covered box one triple or cell at a time; they take
the package's one-move step (``step_cs``) as given, which other tests check
against the game.  ``ref_critical_cells`` lists one layer's critical cells by
the poor-to-rich rectangle, and ``ref_critical_layers`` adds the mover's wins
read off a dense winner cube.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np


def ref_mover_wins(values: tuple[int, ...], n: int, d: int, e: int,
                   memo: dict | None = None) -> bool:
    """Mover wins (n; d, e) under the rule: remove a, pay a, swap seats."""
    if memo is None:
        memo = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    key = (n, min(d, n), min(e, n))
    if key not in memo:
        memo[key] = any(
            not ref_mover_wins(values, n - a, e, d - a, memo)
            for a in values
            if a <= n and a <= d
        )
    return memo[key]


def ref_audit(win, values: tuple[int, ...], limit: int) -> list[tuple[int, int, int]]:
    """Cells ``(n, d, e)`` of a winner cube ``win[n][d][e]`` (budgets unclamped
    up to its cap) that disagree with their successors, checked one cell at a
    time: the mover wins iff some ``a <= min(n, d)`` reaches a stored loss
    ``(n - a; e, d - a)``.  Row-major order, at most ``limit`` of them.  Each
    layer becomes nested lists only when the loop reaches it, and only the
    last ``max(A)`` layers before it are kept, so a small ``limit`` stops early."""
    win = np.asarray(win)
    n_max, cap = len(win) - 1, len(win[0]) - 1
    a_max = max(values)

    def wrong():
        layers = {}  # n -> win[n] as nested lists, for the layers moves reach back to
        for n in range(n_max + 1):
            layers[n] = here = win[n].tolist()
            layers.pop(n - a_max - 1, None)
            back = [(a, layers[n - a]) for a in values if a <= n]
            for d in range(cap + 1):
                # (d - a, layer n - a) of each move a <= min(n, d)
                reach = [(d - a, layer) for a, layer in back if a <= d]
                for e in range(cap + 1):
                    if here[d][e] != any(not layer[e][x] for x, layer in reach):
                        yield n, d, e

    return list(itertools.islice(wrong(), max(limit, 0)))


def ref_closure(cert, contains, box: int) -> list[tuple]:
    """Violations of the two closure clauses on the gap box ``[0, box]^2`` as
    ``(triple, clause, move, successor)``, one triple and one move at a time.

    A member must survive the least move; a non-member must be refuted by
    every move.  A successor's mover wins by membership when both gaps are
    >= 0, by the certificate's winner pattern when both are negative (both
    rich), and otherwise exactly when the mover is the rich side.
    """
    from nimcash import CSTriple, Winner, step_cs

    def mover_wins(t) -> bool:
        if t.mover_gap >= 0 and t.opp_gap >= 0:
            return bool(contains(t.residue, t.mover_gap, t.opp_gap))
        if t.mover_gap < 0 and t.opp_gap < 0:
            return cert.pattern_winner(t.residue) is Winner.MOVER
        return t.mover_gap < 0

    out = []
    for i in range(cert.period):
        for b in range(box + 1):
            for b2 in range(box + 1):
                triple = CSTriple(i, b, b2)
                if contains(i, b, b2):
                    a = min(cert.moves.values)
                    succ = step_cs(cert, triple, a)
                    if mover_wins(succ):
                        out.append((triple, "member", a, succ))
                else:
                    for a in cert.moves.values:
                        succ = step_cs(cert, triple, a)
                        if not mover_wins(succ):
                            out.append((triple, "non-member", a, succ))
    return out


def ref_period(values: tuple[int, ...], n_check: int, m_max: int):
    """The least period ``m <= m_max`` of the cutoffs up to ``n_check``, as
    ``(period, winner pattern, cost_i, cost_ii, n_check)``; None if none.

    Read off ``ref_thresholds`` one residue class at a time: the winners for
    ``max(A) <= n <= n_check`` and, per move ``a``, the costs
    ``rich_i[n] - rich_ii[n-a] - a`` and ``rich_ii[n] - rich_i[n-a]`` for
    ``max(A) + a <= n <= n_check`` must each take one value per class.  The
    pattern holds the mover's standard wins; the cost dicts are keyed
    ``(residue, a)``.  An empty class rules its period out.
    """
    win, rich_i, rich_ii = (col.tolist() for col in ref_thresholds(values, n_check))
    a_max = max(values)

    def one_value(value, start, m, i):
        seen = {value(n) for n in range(start + (i - start) % m, n_check + 1, m)}
        return seen.pop() if len(seen) == 1 else None

    for m in range(1, m_max + 1):
        pattern = [one_value(lambda n: win[n], a_max, m, i) for i in range(m)]
        if None in pattern:
            continue
        cost_i, cost_ii = {}, {}
        for a in values:
            for i in range(m):
                cost_i[(i, a)] = one_value(lambda n: rich_i[n] - rich_ii[n - a] - a, a_max + a, m, i)
                cost_ii[(i, a)] = one_value(lambda n: rich_ii[n] - rich_i[n - a], a_max + a, m, i)
        if None not in pattern + list(cost_i.values()) + list(cost_ii.values()):
            return m, tuple(pattern), cost_i, cost_ii, n_check
    return None


def ref_critical_cells(source, n: int) -> tuple[np.ndarray, ...]:
    """Budgets ``d``, ``e`` and gaps ``rich_i - 1 - d``, ``rich_ii - 1 - e`` of
    the critical positions with ``n`` stones, in row-major ``(d, e)`` order.

    They are the rectangle ``[poor_i, rich_i) x [poor_ii, rich_ii)``, empty
    when a poor cutoff reaches its rich one; the rich cutoffs are
    ``source.cutoffs(n)`` and the poor ones the closed form in ``min(A)``.
    """
    fi, fii, _ = source.cutoffs(n)
    a1 = min(source.moves.values)
    i = n % (2 * a1)
    half = (n - i) // 2
    poor_i, poor_ii = half + min(i + 1, a1), half + max(0, i - a1 + 1)
    d, e = np.indices((max(fi - poor_i, 0), max(fii - poor_ii, 0))).reshape(2, -1)
    d += poor_i
    e += poor_ii
    return d, e, fi - 1 - d, fii - 1 - e


def ref_critical_layers(source, n_max: int, win):
    """``(n, d, e, mover_gap, opp_gap, wins)`` for each ``n <= n_max``: the
    ``ref_critical_cells`` of layer ``n`` and the mover's wins on them, read
    off a dense winner cube ``win[n][d][e]`` whose cap reaches ``n_max``."""
    win = np.asarray(win)
    for n in range(n_max + 1):
        d, e, mover_gap, opp_gap = ref_critical_cells(source, n)
        yield n, d, e, mover_gap, opp_gap, win[n, d, e]


def ref_covered_box(cert, states) -> int:
    """Largest ``k`` such that ``states`` holds each triple of ``[0, k]^2`` on
    every residue and each successor of one with both gaps >= 0, else -1:
    the box grown one shell ``max(b, b2) == k`` at a time."""
    from nimcash import CSTriple, step_cs

    def met(t) -> bool:
        succs = (step_cs(cert, t, a) for a in cert.moves.values)
        return t in states and all(
            s in states for s in succs if min(s.mover_gap, s.opp_gap) >= 0
        )

    k = 0
    while all(met(CSTriple(i, b, b2)) for i in range(cert.period)
              for j in range(k + 1) for b, b2 in ((k, j), (j, k))):
        k += 1
    return k - 1


def ref_induce(layers, period: int) -> tuple[dict, bool]:
    """Each critical cell's corresponding state ``(n % period, mover_gap,
    opp_gap)`` mapped to the mover's win, one cell at a time.

    ``layers`` yields ``(n, d, e, mover_gap, opp_gap, wins)`` per layer, as
    ``ref_critical_layers`` does.  A state keeps the winner of its
    first cell, states in the order first seen; ``consistent`` is False once
    a later cell of a state disagrees.
    """
    out: dict = {}
    consistent = True
    for n, _, _, mover_gap, opp_gap, wins in layers:
        for x, y, win in zip(mover_gap.tolist(), opp_gap.tolist(), wins.tolist()):
            if out.setdefault((n % period, x, y), win) != win:
                consistent = False
    return out, consistent


def ref_standard_wins(values: tuple[int, ...], n: int,
                      memo: dict | None = None) -> bool:
    """Mover wins the plain subtraction game from n stones."""
    if memo is None:
        memo = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    if n not in memo:
        memo[n] = any(
            not ref_standard_wins(values, n - a, memo) for a in values if a <= n
        )
    return memo[n]


def ref_wins_miserly(values: tuple[int, ...], n: int, d: int, e: int,
                     designated_moves_now: bool) -> bool:
    """Designated player always removes min(values); other plays anything."""
    a1 = min(values)
    memo: dict = {}

    def go(n: int, d: int, e: int, des_turn: bool) -> bool:
        key = (n, min(d, n), min(e, n), des_turn)
        if key not in memo:
            if des_turn:
                if n < a1 or d < a1:
                    memo[key] = False
                else:
                    memo[key] = go(n - a1, e, d - a1, False)
            else:
                replies = [a for a in values if a <= n and a <= d]
                if not replies:
                    memo[key] = True
                else:
                    memo[key] = all(go(n - a, e, d - a, True) for a in replies)
        return memo[key]

    return go(n, d, e, designated_moves_now)


def ref_thresholds(values: tuple[int, ...], n_max: int):
    """``(winners, rich_i, rich_ii)`` for ``0 <= n <= n_max``, computed in one shot.

    The defining recursion of the rich cutoffs, run from ``n = 0`` into fresh
    arrays (bool, int64, int64): on a mover-wins ``n``, ``rich_i`` is the
    cheapest winning reply and ``rich_ii`` the worst successor ``rich_i``; on
    a mover-loses ``n``, ``rich_ii`` is that worst case and ``rich_i`` the
    cheapest escape through a successor attaining it.
    """
    win = np.zeros(n_max + 1, dtype=bool)
    rich_i = np.zeros(n_max + 1, dtype=np.int64)
    rich_ii = np.zeros(n_max + 1, dtype=np.int64)
    for n in range(min(values), n_max + 1):
        legal = [a for a in values if a <= n]
        win[n] = any(not win[n - a] for a in legal)
        rich_ii[n] = max(rich_i[n - a] for a in legal)
        if win[n]:
            rich_i[n] = min(rich_ii[n - a] + a for a in legal if not win[n - a])
        else:
            rich_i[n] = min(
                rich_ii[n - a] + a for a in legal if rich_i[n - a] == rich_ii[n]
            )
    return win, rich_i, rich_ii


def ref_family_cutoffs(kind, n: int) -> tuple[int, int, bool]:
    """``(rich_i, rich_ii, mover wins)`` at ``n`` for a solved family, in closed form.

    These are the paper's win conditions for ``{1, L}`` with ``L`` even
    (modulus ``L + 1``) and ``{1, L, L+1}`` (modulus ``2L + 1`` for odd ``L``,
    ``2L`` for even ``L``), written out per residue ``i = n mod modulus``:
    ``winner`` is the cutoff of the standard-game winner, ``loser`` that of
    the standard-game loser.  Only ``kind.moves`` is read, so the family is
    named by its move set alone.
    """
    values = kind.moves.values
    L, half = values[1], values[1] // 2
    if len(values) == 2:
        k, i = divmod(n, L + 1)
        mover_wins = not (i < L - 1 and i % 2 == 0)
        winner = L * k + (i + 1) // 2 if i < L else L * (k + 1)
        if n < L:
            loser = n // 2
        else:
            loser = L * k + i // 2 - half + 1 if i < L else L * k + half
    elif L % 2:
        k, i = divmod(n, 2 * L + 1)
        mover_wins = not (i < L and i % 2 == 0)
        base = (3 * L + 1) * k // 2
        winner = base + (i + 1) // 2 if i < L + 1 else base + L + (i - L + 1) // 2
        loser = base + i // 2 if i < L + 2 else base + L + (i - L) // 2
    else:
        k, i = divmod(n, 2 * L)
        mover_wins = not (i < L - 1 and i % 2 == 0)
        base = 3 * L * k // 2
        winner = base + (i + 1) // 2 if i < L else base + L + (i - L + 1) // 2
        loser = base + i // 2 if i < L + 1 else base + L + (i - L) // 2
    if mover_wins:
        return winner, loser, True
    return loser, winner, False
