"""Frontier dynamic program for biconvex conflict graphs.

The frontier DP of `cocomp.py` is exact for any vertex order; this
route gives it one that bounds how many states a layer holds. Each
side-A vertex goes right after the last side-B vertex of its `order_b`
interval, and side-A vertices without neighbors go first. A side-A
vertex then has no later neighbor once placed, and a later side-A
vertex is adjacent to a placed side-B vertex b iff its interval starts
at or before b. So a class's mask is fixed by its last side-B vertex,
and a layer holds at most (|B|+1)^k states. Components and isolated
vertices need no special case. Witnesses follow the frontier DP's
walk-back rule over this order.
"""

from __future__ import annotations

from .bipartite import require_biconvex_ordering
from .cocomp import solve_frontier
from .graphs import Instance
from .profiles import ProfileSpace


def frontier_order(graph, order_a, order_b) -> list:
    """Side-A vertices without neighbors, then each side-B vertex
    followed by the side-A vertices whose interval ends at it, in
    `order_a` order."""
    pos_b = {b: i for i, b in enumerate(order_b)}
    after = [[] for _ in range(len(order_b) + 1)]
    for a in order_a:
        after[max((pos_b[u] + 1 for u in graph.neighbors(a)), default=0)].append(a)
    order = after[0]
    for b, ending in zip(order_b, after[1:]):
        order += [b, *ending]
    return order


def solve_biconvex(
    instance: Instance,
    order_a,
    order_b,
    *,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set over all valid partial colorings of `instance`.

    order_a and order_b must be a biconvex ordering of the whole graph.
    Without a `space`, `prune` picks the space's policy.
    """
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    require_biconvex_ordering(instance.graph, order_a, order_b)
    order = frontier_order(instance.graph, order_a, order_b)
    return solve_frontier(instance, order, space, witnesses)
