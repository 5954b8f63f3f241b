"""Frontier dynamic program over a fixed vertex order.

Vertices are taken one at a time. A state is, for each class, the mask
of the later vertices adjacent to some member of the class, which that
class may no longer take; each state holds the profiles of the partial
colorings of the vertices so far that leave those masks. A vertex is
either skipped, so every mask drops its bit, or put in a class whose
mask lacks it, which adds the vertex's later neighbors to that mask.
Each target cell is one union of its skip sources as they are and its
put sources already extended, then one `space.finalize`: one build per
layer, which is what the FPTAS bound in `fptas.py` counts. A target
with one source takes that cell, or its extension, as it is: extending
a finalized cell leaves nothing for `finalize` to drop. Exact packed
cells (`_packs_ints`) are plain ints in the tables: they fold by OR,
shifted by the vertex's packed profit where they take it, and are never
pruned inside a layer, as a packed bitmap costs its width whatever it
holds.

A key is one int holding the k masks in fields of n+1 bits, class 0 in
the top field, so int order is the order of the mask tuples. Bit 0 of
a field stands for the vertex being placed and bit n is a guard that
catches the bit the next field loses when the whole key shifts right.

The program is exact for any order; the order only bounds how many
states a layer holds. `solve_cocomparability` takes the linear order of
a transitive orientation of the complement. A class is then a chain of
that order, and a later vertex adjacent to some member is adjacent to
its latest one, so a class's mask is fixed by its latest vertex and a
layer holds at most (n+1)^k states. `biconvex.py` gives the order of
its own route.

Every layer's table is kept. With `witnesses`, a profile is walked back
from the final state, last vertex first: the vertex is skipped if
a state that skipping maps to the current one holds the profile (the
smallest such state); otherwise it goes to the smallest class, then
from the smallest state, whose cell holds the profile less its profit
there.
"""

from __future__ import annotations

from .graphs import Instance
from .profiles import ProfileSpace, uses_bitset


def _packs_ints(space) -> bool:
    """Whether cells under `space` are exact packed bitmaps, which a
    layer folds as plain ints and never prunes, whatever `space.prune`
    says."""
    return isinstance(space, ProfileSpace) and uses_bitset(space.k, space.qbound)


def _fields(k: int, width: int):
    """(offsets, keep): each class's field offset in a key, class 0 on
    top, and the mask of every field's bits below its guard."""
    offsets = [(k - 1 - c) * width for c in range(k)]
    return offsets, sum(((1 << width - 1) - 1) << off for off in offsets)


def layer_step(table: dict, later: int, profits, space, width: int) -> dict:
    """The next layer's table after one vertex. `table` maps keys, with
    bit 0 of each field standing for the vertex, to cells (bitmaps where
    `_packs_ints`); `later` holds the vertex's later neighbors in the
    same bits and `profits` its profit per class. Fields are `width`
    bits wide."""
    offsets, keep = _fields(space.k, width)
    if _packs_ints(space):
        base = space.qbound + 1  # packed weight of class c: base^(k-1-c)
        puts = [
            (off, later << off, profits[c] * base ** (space.k - 1 - c))
            for c, off in enumerate(offsets)
        ]
        acc = {}
        get = acc.get
        for key, cell in table.items():
            rest = key >> 1 & keep
            acc[rest] = get(rest, 0) | cell
            for off, spread, shift in puts:
                if not key >> off & 1:
                    target = (key | spread) >> 1 & keep
                    acc[target] = get(target, 0) | cell << shift
        return acc
    links = {}
    for key, cell in table.items():
        links.setdefault(key >> 1 & keep, []).append(cell)
        for c, off in enumerate(offsets):
            if not key >> off & 1:
                target = (key | later << off) >> 1 & keep
                links.setdefault(target, []).append(cell.extended(c, profits[c]))
    return {
        target: cells[0] if len(cells) == 1 else space.finalize(space.union(cells))
        for target, cells in links.items()
    }


def later_masks(graph, order) -> list:
    """Per position i of `order`, its vertex's neighbors after it, bit
    j - i standing for position j."""
    pos = {v: i for i, v in enumerate(order)}
    return [sum(1 << pos[u] for u in graph.neighbors(v)) >> i for i, v in enumerate(order)]


def frontier_tables(instance: Instance, order, space) -> list:
    """The n + 1 layer tables over `order`, the first holding the zero
    set at key 0, each next one built by one `layer_step`."""
    zero = space.zero()
    tables = [{0: zero._bits if _packs_ints(space) else zero}]
    for v, later in zip(order, later_masks(instance.graph, order)):
        profits = [instance.profit(c, v) for c in range(space.k)]
        tables.append(layer_step(tables[-1], later, profits, space, len(order) + 1))
    return tables


def solve_frontier(instance: Instance, order, space, witnesses: bool):
    """Profile set of the frontier DP over `order`, finalized by `space`;
    with `witnesses`, it walks a profile back by the rule in the module
    docstring."""
    tables = frontier_tables(instance, order, space)
    final = tables[-1][0]  # no mask is left after the last vertex
    packed = _packs_ints(space)
    result = space.finalize(space.from_bits(final) if packed else final)
    if not witnesses:
        return result
    k, laters = instance.k, later_masks(instance.graph, order)
    offsets, keep = _fields(k, len(order) + 1)
    # Bit 0 of any set of fields: a skip source of key t is t << 1 | low.
    lows = sorted(sum(1 << offsets[c] for c in range(k) if sub >> c & 1) for sub in range(1 << k))

    def holds(cell, q) -> bool:
        if not packed:
            return q in cell
        idx = result.packed_index(q)
        return idx is not None and bool(cell >> idx & 1)

    def taken(prev, key, p, i):
        """(class, source, reduced profile) of the step that puts the
        i-th vertex in a class, from `prev` to `key` with profile p."""
        v = order[i]
        for c, off in enumerate(offsets):
            spread = laters[i] << off
            if spread >> 1 & ~key:
                continue  # the key's mask lacks a later neighbor of v
            reduced = p[:c] + (p[c] - instance.profit(c, v),) + p[c + 1 :]
            sources = [
                s
                for s, cell in prev.items()
                if not s >> off & 1 and (s | spread) >> 1 & keep == key and holds(cell, reduced)
            ]
            if sources:
                return c, min(sources), reduced
        raise AssertionError(f"no source for {p} at vertex {v}")

    def witness(profile):
        p = tuple(profile)
        if p not in result:
            raise KeyError(profile)
        key = 0
        coloring = [[] for _ in range(k)]
        for i in range(len(order) - 1, -1, -1):
            prev = tables[i]
            skips = (key << 1 | low for low in lows)
            source = next((s for s in skips if s in prev and holds(prev[s], p)), None)
            if source is None:
                c, source, p = taken(prev, key, p, i)
                coloring[c].append(order[i])
            key = source
        return tuple(tuple(sorted(cls)) for cls in coloring)

    result.traceback = witness
    return result


def solve_cocomparability(
    instance: Instance,
    *,
    orientation=None,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set over all valid partial colorings of `instance`.

    Requires the conflict graph's complement to admit a transitive
    orientation; raises NotCocomparabilityError otherwise. Pass a
    precomputed `orientation` to skip recomputation across repeated
    solves on the same graph. The frontier DP runs over its linear
    order. Without a `space`, `prune` picks the space's policy.
    """
    if orientation is None:
        from .orientation import complement_orientation

        orientation = complement_orientation(instance.graph)
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    return solve_frontier(instance, orientation.order, space, witnesses)
