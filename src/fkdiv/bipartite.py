"""Two-sided orderings of bipartite conflict graphs.

A biconvex ordering lists the items of each side so that every vertex's
neighborhood occupies consecutive positions on the other side. The
biconvex solver checks the orderings here and reads only the side-A
intervals of `order_b` to order its vertices (`biconvex.py`).
"""

from __future__ import annotations

from .errors import OrderingNotBiconvexError
from .graphs import Graph


def _ordering_violation(graph: Graph, order_a, order_b):
    """Reason the orders fail to witness biconvexity, as a message
    template and its vertex ids, or None if they do."""
    side_a, side_b = set(order_a), set(order_b)
    if len(side_a) != len(order_a) or len(side_b) != len(order_b):
        return ("an ordering repeats a vertex",)
    if side_a & side_b:
        return ("orderings share a vertex",)
    if side_a | side_b != set(range(graph.n)):
        return ("orderings do not cover all vertices",)
    for u, v in graph.edges:
        if (u in side_a) == (v in side_a):
            return ("edge ({}, {}) stays within one side", u, v)
    pos_a = {v: i for i, v in enumerate(order_a)}
    pos_b = {v: i for i, v in enumerate(order_b)}
    for order, pos in ((order_a, pos_b), (order_b, pos_a)):
        for v in order:
            spots = sorted(pos[u] for u in graph.neighbors(v))
            if spots and spots[-1] - spots[0] + 1 != len(spots):
                return ("neighborhood of {} is not consecutive", v)
    return None


def verify_biconvex_ordering(graph: Graph, order_a, order_b) -> bool:
    """True iff the two orders partition the vertices, every edge crosses
    between the sides, and every neighborhood is an interval of the
    opposite order.
    """
    return _ordering_violation(graph, order_a, order_b) is None


def require_biconvex_ordering(graph: Graph, order_a, order_b) -> None:
    reason = _ordering_violation(graph, order_a, order_b)
    if reason is not None:
        raise OrderingNotBiconvexError(*reason)
