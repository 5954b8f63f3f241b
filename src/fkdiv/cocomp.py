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
positions x of a state map to its row, {position of class s: cell}. The
target with the new position at slot s unions the cells of row x at
predecessor positions, so a layer reads rows instead of scanning every
state key, and builds each target once.
"""

from __future__ import annotations

from .graphs import Instance
from .orientation import Orientation, complement_orientation
from .profiles import ProfileSpace, uses_bitset


def initial_table(space) -> dict:
    return {(0,) * space.k: space.zero()}


def index_states(rows, states) -> None:
    """Add (key, cell) pairs to the row index `rows` of every class."""
    for key, cell in states:
        for s, class_rows in enumerate(rows):
            x = key[:s] + key[s + 1 :]
            row = class_rows.get(x)
            if row is None:
                class_rows[x] = {key[s]: cell}
            else:
                row[key[s]] = cell


def layer_step(
    table: dict, j: int, vertex: int, pred_positions, vertex_profits, space, rows
) -> None:
    """Extend `table` with all states whose latest position is `j`.

    pred_positions: positions allowed as the previous latest vertex of
    the class receiving `vertex` (0 plus the positions of in-neighbors
    of `vertex`). vertex_profits: per-class profit of `vertex`. rows:
    the row index of `table` (one dict per class s, from the other k-1
    positions of a key to {its position of class s: cell}). The target
    with j at slot s and other positions x is built from the cells of
    row x of class s at predecessor positions: one `space.union` of them,
    reading whichever is smaller of the row and `pred_positions`, and
    extended once. Mutates `table` and `rows` in place, after every
    target is built; existing states stand for colorings that skip the
    vertex and stay as they are.
    """
    built = []
    for s, class_rows in enumerate(rows):
        for x, row in class_rows.items():
            if len(row) <= len(pred_positions):
                sources = [cell for i, cell in row.items() if i in pred_positions]
            else:
                sources = [row[i] for i in pred_positions if i in row]
            if sources:
                target = x[:s] + (j,) + x[s:]
                cell = space.union(sources).extended(s, vertex_profits[s])
                built.append((target, space.finalize(cell)))
    table.update(built)
    index_states(rows, built)


def iter_layer_tables(instance: Instance, orientation: Orientation, space):
    """Yield (position, vertex, table) after each layer, starting at 0.

    The table object is mutated between yields; consumers wanting a
    snapshot must copy what they need before advancing.

    The ordered DP's prune rule: cells follow `space`, except that an
    exact bitset cell is never pruned, since a packed bitmap costs its
    width whatever it holds.
    """
    if isinstance(space, ProfileSpace) and space.prune and uses_bitset(space.k, space.qbound):
        space = ProfileSpace(space.k, space.qbound)
    order = orientation.order
    pos = {v: i + 1 for i, v in enumerate(order)}
    table = initial_table(space)
    rows = [{} for _ in range(space.k)]
    index_states(rows, table.items())
    yield 0, None, table
    for j, v in enumerate(order, start=1):
        preds = {0}
        preds.update(pos[u] for u in orientation.in_neighbors(v))
        profits = [instance.profit(s, v) for s in range(instance.k)]
        layer_step(table, j, v, preds, profits, space, rows)
        yield j, v, table


def walk_back(instance: Instance, orientation: Orientation, table: dict):
    """Witness recovery over a finished `table`: profile -> coloring.

    A profile is traced from the smallest state key holding it. A state
    whose largest position j sits in class s was built from states with
    that entry replaced by a predecessor position of the j-th vertex, by
    adding its profit to class s; the walk takes the smallest such
    position whose state holds the reduced profile.
    """
    order = orientation.order
    pos = {v: i + 1 for i, v in enumerate(order)}

    def witness(profile):
        key = min((key for key, cell in table.items() if profile in cell), default=None)
        if key is None:
            raise KeyError(profile)
        p = list(profile)
        coloring = [[] for _ in range(instance.k)]
        while any(key):
            j = max(key)
            s = key.index(j)
            v = order[j - 1]
            coloring[s].append(v)
            p[s] -= instance.profit(s, v)
            reduced = tuple(p)
            for i in sorted({0, *(pos[u] for u in orientation.in_neighbors(v))}):
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
    Without a `space`, `prune` picks the space's policy. Cells prune by
    the rule of `iter_layer_tables`, and the returned set by the space's
    own policy; rounded sets are traced the same way.
    """
    if orientation is None:
        orientation = complement_orientation(instance.graph)
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    for _j, _v, table in iter_layer_tables(instance, orientation, space):
        pass
    result = space.finalize(space.union(table.values()))
    if witnesses:
        result.traceback = walk_back(instance, orientation, table)
    return result
