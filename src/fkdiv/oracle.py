"""Exhaustive reference solvers.

Slow but obviously correct: used to pin down expected values in tests
and as the last-resort backend on tiny instances. Results are
deterministic; ties resolve toward the first assignment in search
order (uncolored before class 1 before class 2, vertex by vertex).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetExceededError
from .graphs import Graph, Instance


class OracleResult(namedtuple("OracleResult", "optimum witness profiles")):
    __slots__ = ()


def _search_size(n: int, k: int) -> int:
    return (k + 1) ** n


def brute_force(instance: Instance, budget: int = 10**8) -> OracleResult:
    """Enumerate every partial coloring of the conflict graph.

    Returns the max-min value, one optimal coloring (k sorted vertex
    tuples), and the set of all achievable profiles. Raises
    BudgetExceededError when (k+1)^n exceeds `budget` nodes.
    """
    n, k = instance.n, instance.k
    if _search_size(n, k) > budget:
        raise BudgetExceededError(
            f"(k+1)^n = {_search_size(n, k)} exceeds budget {budget}"
        )
    masks = instance.graph.masks
    profits = instance.profits
    assign = [0] * n
    class_mask = [0] * (k + 1)
    cur = [0] * (k + 1)
    best_val = -1
    best_assign = None
    profiles = set()
    # `assign` runs like an odometer through the full assignments in
    # depth-first order: vertex 0 turns slowest, each vertex through
    # uncolored, then every class no earlier vertex of it conflicts with.
    while True:
        prof = tuple(cur[1:])
        profiles.add(prof)
        if min(prof) > best_val:
            best_val, best_assign = min(prof), assign.copy()
        # The deepest vertex with a later allowed class takes it; the
        # ones below it went back to uncolored on the way up.
        v = n - 1
        while v >= 0:
            c = assign[v]
            if c:
                class_mask[c] &= ~(1 << v)
                cur[c] -= profits[c - 1][v]
            c += 1
            while c <= k and class_mask[c] & masks[v]:
                c += 1
            if c <= k:
                assign[v] = c
                class_mask[c] |= 1 << v
                cur[c] += profits[c - 1][v]
                break
            assign[v] = 0
            v -= 1
        else:
            break
    witness = tuple(
        tuple(v for v in range(n) if best_assign[v] == c) for c in range(1, k + 1)
    )
    return OracleResult(best_val, witness, frozenset(profiles))


def max_weight_independent_set(graph: Graph, weights, budget: int = 10**8):
    """(best weight, vertex tuple) over all independent sets.

    Subset dynamic program: a mask is independent iff dropping its lowest
    vertex leaves an independent mask with no edge back to that vertex.
    Deliberately a different algorithm from brute_force so the two can
    cross-check each other at k=1.
    """
    n = graph.n
    weights = list(weights)
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    if n > 0 and (1 << n) > budget:
        raise BudgetExceededError(f"2^{n} masks exceed budget {budget}")
    size = 1 << n
    indep = bytearray(size)
    indep[0] = 1
    value = [0] * size
    masks = graph.masks
    best_val, best_mask = 0, 0
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if indep[rest] and not (masks[v] & rest):
            indep[mask] = 1
            val = value[rest] + weights[v]
            value[mask] = val
            if val > best_val:
                best_val = val
                best_mask = mask
    chosen = tuple(v for v in range(n) if best_mask >> v & 1)
    return best_val, chosen


def decide_satisfaction_at_least(
    instance: Instance, q: int, budget: int = 10**8
) -> bool:
    """Exact decision: can every class reach profit at least q?

    Depth-first search with an admissible bound: a branch dies as soon
    as some class cannot reach q even by taking every remaining vertex,
    and succeeds as soon as all classes already have q. Much faster than
    brute_force on instances engineered around a sharp threshold, so the
    budget is charged per visited node rather than precomputed.
    """
    n, k = instance.n, instance.k
    if q <= 0:
        return True
    visited = 0
    profits = instance.profits
    masks = instance.graph.masks
    suffix = [[0] * (n + 1) for _ in range(k)]
    for j in range(k):
        row = profits[j]
        for v in range(n - 1, -1, -1):
            suffix[j][v] = suffix[j][v + 1] + row[v]
    class_mask = [0] * k
    cur = [0] * k
    # One frame [v, pending, next choice, class holding v] per open node,
    # in the recursive search's visit order; a node's last branch (leave
    # v uncolored) replaces its frame instead of nesting under it.
    stack: list = []
    v = 0
    while True:
        visited += 1
        if visited > budget:
            raise BudgetExceededError(f"search visited more than {budget} nodes")
        pending = [j for j in range(k) if cur[j] < q]
        if not pending:
            return True
        if v < n and all(cur[j] + suffix[j][v] >= q for j in pending):
            stack.append([v, pending, 0, None])
        if not stack:
            return False
        # The innermost frame undoes the branch that just ended (if any)
        # and descends into its next one.
        frame = stack[-1]
        u, pending, i, held = frame
        if held is not None:
            class_mask[held] &= ~(1 << u)
            cur[held] -= profits[held][u]
            frame[3] = None
        while i < len(pending):
            j = pending[i]
            i += 1
            if class_mask[j] & masks[u] or profits[j][u] == 0:
                continue
            class_mask[j] |= 1 << u
            cur[j] += profits[j][u]
            frame[2], frame[3] = i, j
            break
        else:
            stack.pop()
        v = u + 1
