"""Frontier dynamic program for biconvex conflict graphs.

Vertices are taken one at a time in a fixed order. A state is the
k-tuple of masks N(class) & later vertices: the later vertices adjacent
to some member of each class, which that class may no longer take. Each
state holds the profiles of the partial colorings of the vertices so
far that leave those masks. A vertex is either skipped, so every mask
drops its bit, or put in a class whose mask lacks it, which adds the
vertex's later neighbors to that mask.
Each target cell is one union of its skip sources as they are and its
put sources already extended, then one `space.finalize`: one build per
layer, which is what the FPTAS bound in `fptas.py` counts.

The program is exact for any order; the order only bounds how many
states a layer holds. Each side-A vertex goes right after the last
side-B vertex of its `order_b` interval, and side-A vertices without
neighbors go first. A side-A vertex then has no later neighbor once
placed, and a later side-A vertex is adjacent to a placed side-B vertex
b iff its interval starts at or before b. So a class's mask is fixed by
its last side-B vertex, and a layer holds at most (|B|+1)^k states.
Components and isolated vertices need no special case.

Sets, exact or rounded, hold no witnesses. With `witnesses`, every
layer's table is kept, and a profile is walked back from the final
state, last vertex first: the vertex is skipped if a predecessor key
that skip-maps to the current key holds the profile (the smallest such
key is taken); otherwise it goes to the smallest class, then from the
smallest key, whose cell holds the profile less its profit there.
"""

from __future__ import annotations

from .bipartite import require_biconvex_ordering
from .graphs import Instance
from .profiles import ProfileSpace

SKIP = -1  # class of a link that leaves the vertex out; sorts first


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


def frontier_step(table: dict, later: int, profits, space):
    """(next table, links) after one vertex. `table` maps mask tuples,
    with bit 0 standing for the vertex, to cells; `later` holds the
    vertex's neighbors in the same bits. Next keys drop bit 0 by a
    shift. `links` maps each next key to its (class or SKIP, key)
    sources."""
    links = {}
    for key in table:
        rest = tuple(m >> 1 for m in key)
        links.setdefault(rest, []).append((SKIP, key))
        for c, m in enumerate(key):
            if not m & 1:
                put = rest[:c] + ((m | later) >> 1,) + rest[c + 1 :]
                links.setdefault(put, []).append((c, key))
    nxt = {
        target: space.finalize(space.union(
            table[key] if c == SKIP else table[key].extended(c, profits[c])
            for c, key in sources
        ))
        for target, sources in links.items()
    }
    return nxt, links


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
    `witnesses=True` makes the returned set walk a profile back through
    the kept layer tables by the rule in the module docstring.
    """
    graph, k = instance.graph, instance.k
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    require_biconvex_ordering(graph, order_a, order_b)
    order = frontier_order(graph, order_a, order_b)
    pos = {v: i for i, v in enumerate(order)}
    table = {(0,) * k: space.zero()}
    steps = []
    for i, v in enumerate(order):
        later = sum(1 << pos[u] for u in graph.neighbors(v)) >> i
        profits = [instance.profit(c, v) for c in range(k)]
        nxt, links = frontier_step(table, later, profits, space)
        if witnesses:
            steps.append((v, table, links))
        table = nxt
    result = space.finalize(space.union(table.values()))
    if not witnesses:
        return result

    def witness(profile):
        p = tuple(profile)
        if p not in result:
            raise KeyError(profile)
        key = (0,) * k
        coloring = [[] for _ in range(k)]
        for v, prev, links in reversed(steps):
            for c, source in sorted(links[key]):
                if c == SKIP:
                    reduced = p
                else:
                    reduced = p[:c] + (p[c] - instance.profit(c, v),) + p[c + 1 :]
                if reduced in prev[source]:
                    break
            else:
                raise AssertionError(f"no source for {profile} at vertex {v}")
            if c != SKIP:
                coloring[c].append(v)
            p, key = reduced, source
        return tuple(tuple(sorted(cls)) for cls in coloring)

    result.traceback = witness
    return result
