"""Ordered dynamic program over a transitively oriented complement.

With the complement's arcs forming a strict partial order, independent
sets of the conflict graph are exactly chains of that order, so a class
is grown by remembering only its latest vertex. States are k-tuples of
positions in the orientation's linear order (0 meaning the class is
still empty); each state holds the profiles realizable with those latest
vertices.

Every state other than the empty one is written exactly once, at the
layer of its largest position, so the final table holds each state as
it stood when later layers read it. A witness is therefore recovered
by walking a profile back through that table instead of storing one
coloring per profile.

Next to the table sits a row index: for each class s, the other k-1
positions x of a state map to a dense row, a list indexed by the
position of class s that holds each state's cell (None where no state
is). The target with the new position at slot s is built from row x's
entries at predecessor positions, picked in one `operator.itemgetter`
call, so a layer reads rows instead of scanning every state key, and
builds each target once. Where cells are exact packed bitmaps, rows
hold the bitmaps as plain ints (0 for no state):
a target's bitmap is the OR of its picked ints, shifted once by the
vertex's packed profit.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_

from .graphs import Instance
from .orientation import Orientation, complement_orientation
from .profiles import ProfileSet, ProfileSpace, uses_bitset


def _packs_ints(space) -> bool:
    """Whether the ordered DP's cells under `space` are exact packed
    bitmaps, which the row index holds as plain ints. The DP never
    prunes such a cell, whatever `space.prune` says: a packed bitmap
    costs its width whatever it holds."""
    return isinstance(space, ProfileSpace) and uses_bitset(space.k, space.qbound)


def index_cells(rows, states, size: int, packed: bool, skip: int = -1) -> None:
    """File (key, cell) pairs in the row index `rows` of every class but
    `skip`: under the row of the key's other positions, at the key's own
    position. New rows have `size` entries, all 0 if `packed` (rows hold
    `cell._bits`) and None otherwise (rows hold the cells)."""
    fill = 0 if packed else None
    for s, class_rows in enumerate(rows):
        if s == skip:
            continue
        for key, cell in states:
            x = key[:s] + key[s + 1 :]
            row = class_rows.get(x)
            if row is None:
                row = class_rows[x] = [fill] * size
            row[key[s]] = cell._bits if packed else cell


def layer_step(table: dict, j: int, preds, vertex_profits, space, rows) -> None:
    """Extend `table` with all states whose latest position is `j`.

    preds: the sorted positions allowed as the previous latest vertex of
    the class receiving the j-th vertex (`predecessor_layers`).
    vertex_profits: per-class profit of that vertex. rows:
    the row index of `table` (`index_cells`): one dict per class s, from
    the other k-1 positions x of a key to a dense row indexed by its
    position of class s. The target with j at slot s and other
    positions x is built from row x of class s, whose predecessor
    entries one `itemgetter` picks. Packed exact rows hold ints, which
    fold by OR and shift once by the profit; other rows hold cells (or
    None), which one `space.extended_union` builds from. A target is
    filed at once in its own row, at position j, which no pick of this
    layer reads; rows of the other classes get it after every target is
    built, so no row read in layer j holds a layer-j state. Existing
    states stand for colorings that skip the vertex and stay as they are.
    """
    packed = _packs_ints(space)
    pick = itemgetter(*preds) if len(preds) > 1 else lambda row: (row[preds[0]],)
    built = []
    for s, class_rows in enumerate(rows):
        made = []
        if packed:
            amount = vertex_profits[s]
            for x, row in class_rows.items():
                bits = reduce(or_, pick(row))
                if bits:
                    cell = space.extended_bits(bits, s, amount)
                    row[j] = cell._bits
                    made.append((x[:s] + (j,) + x[s:], cell))
        else:
            for x, row in class_rows.items():
                sources = [cell for cell in pick(row) if cell is not None]
                if sources:
                    cell = space.finalize(space.extended_union(sources, s, vertex_profits[s]))
                    row[j] = cell
                    made.append((x[:s] + (j,) + x[s:], cell))
        built.append(made)
    size = len(next(iter(rows[0].values())))
    for s, made in enumerate(built):
        table.update(made)
        index_cells(rows, made, size, packed, skip=s)


def predecessor_layers(orientation: Orientation) -> list:
    """Per layer j = 1..n, (vertex, preds): the j-th vertex of the order
    and the sorted positions a class receiving it may hold before, 0 and
    the positions of its in-neighbors."""
    pos = {v: i + 1 for i, v in enumerate(orientation.order)}
    return [
        (v, [0, *sorted(pos[u] for u in orientation.in_neighbors(v))])
        for v in orientation.order
    ]


def state_table(instance: Instance, layers: list, space) -> dict:
    """The finished table of every state over `layers`
    (`predecessor_layers`), built one `layer_step` a layer. Cells are
    finalized by `space`, except packed ones (`_packs_ints`)."""
    table = {(0,) * space.k: space.zero()}
    rows = [{} for _ in range(space.k)]
    index_cells(rows, table.items(), len(layers) + 1, _packs_ints(space))
    for j, (v, preds) in enumerate(layers, start=1):
        profits = [instance.profit(s, v) for s in range(space.k)]
        layer_step(table, j, preds, profits, space, rows)
    return table


def start_key(table: dict, profile):
    """Smallest key of `table` whose cell holds `profile`, or None.

    Packed cells, which all share one shape, test the profile's bit,
    packed once; other cells test membership."""
    first = next(iter(table.values()))
    if isinstance(first, ProfileSet) and first._bits is not None:
        idx = first.packed_index(profile)
        if idx is None:
            return None
        return min((key for key, cell in table.items() if cell._bits >> idx & 1), default=None)
    return min((key for key, cell in table.items() if profile in cell), default=None)


def walk_back(instance: Instance, layers: list, table: dict):
    """Witness recovery over a finished `table`: profile -> coloring.

    A profile is traced from the smallest state key holding it. A state
    whose largest position j sits in class s was built from states with
    that entry replaced by a predecessor position of the j-th vertex
    (`layers[j - 1]`), by adding its profit to class s; the walk takes
    the smallest such position whose state holds the reduced profile.
    """

    def witness(profile):
        key = start_key(table, profile)
        if key is None:
            raise KeyError(profile)
        p = list(profile)
        coloring = [[] for _ in range(instance.k)]
        while any(key):
            j = max(key)
            s = key.index(j)
            v, preds = layers[j - 1]
            coloring[s].append(v)
            p[s] -= instance.profit(s, v)
            reduced = tuple(p)
            for i in preds:
                source = key[:s] + (i,) + key[s + 1 :]
                cell = table.get(source)
                if cell is not None and reduced in cell:
                    key = source
                    break
            else:
                raise AssertionError(f"no source state for {profile} at {key}")
        return tuple(tuple(sorted(cls)) for cls in coloring)

    return witness


def solve_cocomparability(
    instance: Instance,
    *,
    orientation: Orientation | None = None,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set over all valid partial colorings of `instance`.

    Requires the conflict graph's complement to admit a transitive
    orientation; raises NotCocomparabilityError otherwise. Pass a
    precomputed `orientation` to skip recomputation across repeated
    solves on the same graph.

    States hold no witnesses: `witnesses=True` makes the returned set
    trace a witness back through the final table when one is asked for.
    Without a `space`, `prune` picks the space's policy. The returned
    union is finalized by `space`, packed or not (cells follow
    `state_table`); rounded sets are traced the same way.
    """
    if orientation is None:
        orientation = complement_orientation(instance.graph)
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    layers = predecessor_layers(orientation)
    table = state_table(instance, layers, space)
    result = space.finalize(space.union(table.values()))
    if witnesses:
        result.traceback = walk_back(instance, layers, table)
    return result
