"""Two-sided orderings of bipartite conflict graphs.

A biconvex ordering lists the items of each side so that every vertex's
neighborhood occupies consecutive positions on the other side. The
solver additionally needs the shape such orderings induce on a
connected graph: a contiguous middle segment of one side whose induced
subgraph is handled by the ordered solver, plus two tails hanging off
the ends with nested neighborhoods.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import OrderingNotBiconvexError, StructureMismatchError
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


class BiconvexStructure(
    namedtuple(
        "BiconvexStructure", "order_a order_b a_left a_right tail_left tail_right middle"
    )
):
    """Shape of one connected component under its biconvex ordering.

    `tail_left` and `tail_right` are the side-A vertices before `a_left`
    and after `a_right`, ascending; `middle` is the sorted vertices of
    the middle segment plus all of side B."""

    __slots__ = ()


def biconvex_structure(graph: Graph, order_a, order_b) -> BiconvexStructure:
    """Extract the tail/middle shape of a connected biconvex graph.

    The middle runs from the widest-reaching neighbor of the first
    side-B vertex to the widest-reaching neighbor of the last one; when
    those land in the wrong relative order the side-A ordering is
    reversed once. Tail neighborhoods must be nested toward the middle,
    which is what the augmentation step of the solver relies on; any
    violation raises StructureMismatchError.
    """
    require_biconvex_ordering(graph, order_a, order_b)
    if not order_a or not order_b:
        raise StructureMismatchError("a connected component lost one side")
    pos_b = {v: i for i, v in enumerate(order_b)}

    def reach(a: int):
        spots = [pos_b[u] for u in graph.neighbors(a)]
        return min(spots), max(spots)

    def pick(order):
        pos = {v: i for i, v in enumerate(order)}
        first, last = order_b[0], order_b[-1]
        left = max(graph.neighbors(first), key=lambda a: (reach(a)[1], -pos[a]))
        right = max(graph.neighbors(last), key=lambda a: (-reach(a)[0], pos[a]))
        return left, right, pos

    a_left, a_right, pos = pick(order_a)
    if pos[a_left] > pos[a_right]:
        order_a = tuple(reversed(order_a))
        a_left, a_right, pos = pick(order_a)
        if pos[a_left] > pos[a_right]:
            raise StructureMismatchError(
                "tails overlap under both directions of the side-A order"
            )
    order_a = tuple(order_a)
    tail_left = order_a[: pos[a_left]]
    tail_right = order_a[pos[a_right] + 1 :]
    for tail, inner_last in ((tail_left, True), (tail_right, False)):
        seq = tail if inner_last else tuple(reversed(tail))
        for u, v in zip(seq, seq[1:]):
            if graph.masks[u] & ~graph.masks[v]:
                raise StructureMismatchError(
                    f"tail neighborhoods of {u} and {v} are not nested"
                )
    middle = tuple(
        sorted(set(order_a[pos[a_left] : pos[a_right] + 1]) | set(order_b))
    )
    return BiconvexStructure(
        order_a=order_a,
        order_b=tuple(order_b),
        a_left=a_left,
        a_right=a_right,
        tail_left=tail_left,
        tail_right=tail_right,
        middle=middle,
    )
