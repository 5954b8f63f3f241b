"""Transitive orientation of comparability graphs.

Orienting every edge of the complement so the arcs form a strict partial
order turns independent sets of the original graph into directed paths,
which is what the ordered dynamic program consumes.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import (
    CycleDetectedError,
    NotCocomparabilityError,
    NotComparabilityError,
)
from .graphs import Graph, canonical_edge, iter_bits


class Orientation:
    """An acyclic, transitively closed arc set over vertices 0..n-1."""

    __slots__ = ("n", "arcs", "succ", "pred")

    def __init__(self, n: int, arcs):
        self.n = n
        arcs = frozenset(arcs)
        succ = [set() for _ in range(n)]
        pred = [set() for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-arc at {u}")
            if (v, u) in arcs:
                raise CycleDetectedError(f"both ({u},{v}) and ({v},{u}) present")
            succ[u].add(v)
            pred[v].add(u)
        for u, v in arcs:
            for w in succ[v]:
                if w != u and (u, w) not in arcs:
                    raise NotComparabilityError(
                        f"arcs ({u},{v}),({v},{w}) present but ({u},{w}) missing"
                    )
        self.arcs = arcs
        self.succ = tuple(tuple(sorted(s)) for s in succ)
        self.pred = tuple(tuple(sorted(s)) for s in pred)

    def __contains__(self, arc) -> bool:
        return arc in self.arcs

    def in_neighbors(self, v: int):
        return self.pred[v]

    def out_neighbors(self, v: int):
        return self.succ[v]

    def __repr__(self):
        return f"Orientation(n={self.n}, arcs={len(self.arcs)})"


def topological_sort(n: int, arcs) -> tuple:
    """Kahn's algorithm, always popping the lowest-numbered ready vertex."""
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        indeg[v] += 1
        succ[u].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != n:
        raise CycleDetectedError("arc set contains a directed cycle")
    return tuple(order)


def transitive_orientation(graph: Graph) -> Orientation:
    """Orient all edges of `graph` into a strict partial order.

    Edge-forcing in rounds: seed the lowest unassigned edge low->high and
    propagate. Within a round the working edge set is everything still
    unassigned at the round's start; edges handed out in earlier rounds
    count as absent. Arc (x,y) forces (x,c) when xc is a working edge but
    yc is not (any other direction of xc breaks transitivity through x),
    and symmetrically forces (c,y) when cy is working but xc is not. One
    edge demanded in both directions means no transitive orientation
    exists.
    """
    n = graph.n
    unassigned = list(graph.masks)  # per vertex, neighbors across unassigned edges
    arcs: set = set()
    first = 0  # no vertex below it has an unassigned edge left

    while True:
        while first < n and not unassigned[first]:
            first += 1
        if first == n:
            break
        active = tuple(unassigned)
        seed = (first, next(iter_bits(active[first])))
        out = [0] * n  # out[x] bit c: arc (x, c) chosen this round
        out[first] = 1 << seed[1]
        chosen = [seed]
        queue = deque(chosen)

        def force(a, b) -> None:
            if out[a] >> b & 1:
                return
            if out[b] >> a & 1:
                raise NotComparabilityError(
                    f"edge {canonical_edge(a, b)} forced in both directions"
                )
            out[a] |= 1 << b
            chosen.append((a, b))
            queue.append((a, b))

        while queue:
            x, y = queue.popleft()
            for c in iter_bits(active[x] & ~active[y] & ~(1 << y) & ~out[x]):
                force(x, c)
            for c in iter_bits(active[y] & ~active[x] & ~(1 << x)):
                force(c, y)

        arcs.update(chosen)
        for a, b in chosen:
            unassigned[a] &= ~(1 << b)
            unassigned[b] &= ~(1 << a)

    # Forcing alone does not certify transitivity of the union, so the
    # constructor's closure check is the real gatekeeper.
    return Orientation(n, arcs)


def complement_orientation(graph: Graph) -> Orientation:
    """Transitive orientation of the complement, for the ordered solver."""
    try:
        return transitive_orientation(graph.complement())
    except NotComparabilityError as exc:
        raise NotCocomparabilityError(str(exc)) from exc


def is_cocomparability(graph: Graph) -> bool:
    try:
        transitive_orientation(graph.complement())
        return True
    except NotComparabilityError:
        return False
