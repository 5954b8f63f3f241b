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
    """A strict partial order over vertices 0..n-1 and its linear order.

    Bit u of pred[v] means arc u->v. `order` is the linear extension
    Kahn's algorithm gives when it always takes the lowest-numbered ready
    vertex.
    """

    __slots__ = ("n", "pred", "order")

    def __init__(self, pred):
        pred = tuple(pred)
        n = len(pred)
        for v, mask in enumerate(pred):
            if mask >> n:
                raise ValueError(f"arc into {v} from outside 0..{n - 1}")
            if mask >> v & 1:
                raise ValueError(f"self-arc at {v}")
        succ = [[] for _ in range(n)]
        for v, mask in enumerate(pred):
            for u in iter_bits(mask):
                if pred[u] >> v & 1:
                    raise CycleDetectedError("both ({},{}) and ({},{}) present", u, v, v, u)
                missing = pred[u] & ~mask
                if missing:
                    w = (missing & -missing).bit_length() - 1
                    raise NotComparabilityError(
                        "arcs ({},{}),({},{}) present but ({},{}) missing", w, u, u, v, w, v
                    )
                succ[u].append(v)
        indeg = [mask.bit_count() for mask in pred]
        ready = [v for v in range(n) if not indeg[v]]
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    heapq.heappush(ready, v)
        self.n = n
        self.pred = pred
        self.order = tuple(order)

    def in_neighbors(self, v: int):
        return tuple(iter_bits(self.pred[v]))

    def __repr__(self):
        return f"Orientation(n={self.n}, arcs={sum(m.bit_count() for m in self.pred)})"


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
    pred = [0] * n
    first = 0  # no vertex below it has an unassigned edge left

    while True:
        while first < n and not unassigned[first]:
            first += 1
        if first == n:
            break
        active = tuple(unassigned)
        seed = (first, next(iter_bits(active[first])))
        # Arcs chosen this round: bit c of out[x] is (x, c), of into[y] is (c, y).
        out = [0] * n
        into = [0] * n
        out[first] = 1 << seed[1]
        into[seed[1]] = 1 << first
        queue = deque([seed])

        def force(a, b) -> None:
            if out[a] >> b & 1:
                return
            if out[b] >> a & 1:
                raise NotComparabilityError(
                    "edge ({}, {}) forced in both directions", *canonical_edge(a, b)
                )
            out[a] |= 1 << b
            into[b] |= 1 << a
            queue.append((a, b))

        while queue:
            x, y = queue.popleft()
            for c in iter_bits(active[x] & ~active[y] & ~(1 << y) & ~out[x]):
                force(x, c)
            for c in iter_bits(active[y] & ~active[x] & ~(1 << x) & ~into[y]):
                force(c, y)

        for v in range(n):
            pred[v] |= into[v]
            unassigned[v] &= ~(out[v] | into[v])

    # Forcing alone does not certify transitivity of the union, so the
    # constructor's closure check is the real gatekeeper.
    return Orientation(pred)


def complement_orientation(graph: Graph) -> Orientation:
    """Transitive orientation of the complement, whose linear order the
    cocomparability solver runs over."""
    try:
        return transitive_orientation(graph.complement())
    except NotComparabilityError as exc:
        raise NotCocomparabilityError(exc.template, *exc.ids) from exc


def is_cocomparability(graph: Graph) -> bool:
    try:
        complement_orientation(graph)
        return True
    except NotCocomparabilityError:
        return False
