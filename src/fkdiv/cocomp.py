"""Frontier dynamic program over a fixed vertex order.

Vertices are taken one at a time. A state is, for each class, the mask
of the later vertices that are adjacent to some member of the class
and have a positive profit in it, which that class may no longer take;
each state holds the profiles of the partial colorings of the vertices
so far that leave those masks. A vertex is either skipped, so every
mask drops its bit, or put in a class where its profit is positive and
whose mask lacks it, which adds its later neighbors with a positive
profit there to that mask. A put where the profit is 0 is never made:
the coloring that skips the vertex instead has the same profile and
leaves every class free to take at least as much, so every profile is
still reached, and no class needs to track a vertex it never takes.
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
its latest one, so a class's mask is fixed by its latest vertex (that
vertex's later neighbors with a positive profit in the class) and a
layer holds at most (n+1)^k states. `biconvex.py` gives the order of
its own route.

With `witnesses`, every layer's table is kept and a profile is walked
back from the final state, last vertex first: the vertex is skipped if
a state that skipping maps to the current one holds the profile (the
smallest such state); otherwise it goes to the smallest class where
its profit is positive, then from the smallest state, whose cell holds
the profile less its profit there. Without, only the current layer is
kept.
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


def _puts(laters, profits, offsets, keep) -> list:
    """(class, bit, spread, profit) for each class where the vertex's
    profit is positive: a key without `bit`, the vertex's bit in the
    class's field, may put it there, and the put goes to the skip
    target `key >> 1 & keep` with `spread` added, as shift and mask
    distribute over OR."""
    return [
        (c, 1 << off, laters[c] << off >> 1 & keep, profits[c])
        for c, off in enumerate(offsets)
        if profits[c]
    ]


def layer_step(table: dict, laters, profits, space, width: int) -> dict:
    """The next layer's table after one vertex. `table` maps keys, with
    bit 0 of each field standing for the vertex, to cells (bitmaps where
    `_packs_ints`); `laters` holds, per class, the vertex's later
    neighbors with a positive profit there in the same bits, and
    `profits` its profit per class. Fields are `width` bits wide."""
    offsets, keep = _fields(space.k, width)
    puts = _puts(laters, profits, offsets, keep)
    if _packs_ints(space):
        base = space.qbound + 1  # packed weight of class c: base^(k-1-c)
        shifts = [(bit, spread, p * base ** (space.k - 1 - c)) for c, bit, spread, p in puts]
        acc = {}
        get = acc.get
        for key, cell in table.items():
            rest = key >> 1 & keep
            acc[rest] = get(rest, 0) | cell
            for bit, spread, shift in shifts:
                if not key & bit:
                    target = rest | spread
                    acc[target] = get(target, 0) | cell << shift
        return acc
    links = {}
    for key, cell in table.items():
        rest = key >> 1 & keep
        links.setdefault(rest, []).append(cell)
        for c, bit, spread, p in puts:
            if not key & bit:
                links.setdefault(rest | spread, []).append(cell.extended(c, p))
    return {
        target: cells[0] if len(cells) == 1 else space.finalize(space.union(cells))
        for target, cells in links.items()
    }


def later_masks(instance: Instance, order) -> list:
    """Per position i of `order`, one mask per class of its vertex's
    later neighbors with a positive profit in that class, bit j - i
    standing for position j."""
    pos = {v: i for i, v in enumerate(order)}
    masks = []
    for i, v in enumerate(order):
        later = [(u, 1 << pos[u] - i) for u in instance.graph.neighbors(v) if pos[u] > i]
        masks.append([sum(bit for u, bit in later if row[u]) for row in instance.profits])
    return masks


def frontier_tables(instance: Instance, order, space, laters=None, keep_all: bool = True) -> list:
    """The layer tables over `order`, the first holding the zero set at
    key 0, each next one built by one `layer_step` from `laters`
    (default `later_masks`): all n + 1 of them, or without `keep_all`
    only the last one."""
    if laters is None:
        laters = later_masks(instance, order)
    zero = space.zero()
    tables = [{0: zero._bits if _packs_ints(space) else zero}]
    for v, masks in zip(order, laters):
        profits = [instance.profit(c, v) for c in range(space.k)]
        table = layer_step(tables[-1], masks, profits, space, len(order) + 1)
        if keep_all:
            tables.append(table)
        else:
            tables[-1] = table
    return tables


def solve_frontier(instance: Instance, order, space, witnesses: bool):
    """Profile set of the frontier DP over `order`, finalized by `space`;
    with `witnesses`, it walks a profile back by the rule in the module
    docstring."""
    laters = later_masks(instance, order)
    tables = frontier_tables(instance, order, space, laters, keep_all=witnesses)
    final = tables[-1][0]  # no mask is left after the last vertex
    packed = _packs_ints(space)
    result = space.finalize(space.from_bits(final) if packed else final)
    if not witnesses:
        return result
    k = instance.k
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
        profits = [instance.profit(c, v) for c in range(k)]
        for c, bit, spread, profit in _puts(laters[i], profits, offsets, keep):
            if spread & ~key:
                continue  # the key's mask lacks a later neighbor of v
            reduced = p[:c] + (p[c] - profit,) + p[c + 1 :]
            sources = [
                s
                for s, cell in prev.items()
                if not s & bit and (s >> 1 & keep | spread) == key and holds(cell, reduced)
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
