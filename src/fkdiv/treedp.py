"""Dynamic programs over nice tree decompositions.

One engine serves two entry points: chordal graphs get clique-tree bags
(where any class holds at most one bag vertex), and bounded-treewidth
inputs get whatever decomposition is supplied or the min-fill heuristic
finds. Table keys are bag colorings, class 0 meaning uncolored, stored
as tuples aligned with the sorted bag.

States, exact or rounded, hold no witnesses. When one is asked for,
the kept node tables are walked back from the root: every cell is a
pruned or unpruned image of the child cells it was built from, so each
profile it holds has a source in them.
"""

from __future__ import annotations

from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    chordal_peo,
    clique_tree,
    make_nice,
    minfill_decomposition,
    verify_decomposition,
)
from .graphs import Instance
from .profiles import ProfileSpace


def bag_profile(instance: Instance, bag, coloring) -> tuple:
    """Per-class profit contributed by bag vertices under `coloring`."""
    out = [0] * instance.k
    for v, c in zip(bag, coloring):
        if c > 0:
            out[c - 1] += instance.profit(c - 1, v)
    return tuple(out)


def _run(instance: Instance, nice: NiceTreeDecomposition, space, keep_tables=False):
    """(root profile set, node tables). A child table is dropped once
    read, unless `keep_tables` and a forget or join node reads it: only
    those tables are read again by `walk_back`."""
    graph = instance.graph
    k = instance.k
    tables: dict = {}
    take = tables.get if keep_tables else tables.pop
    for node_id in nice.postorder():
        node = nice.nodes[node_id]
        if node.kind == "leaf":
            tables[node_id] = {(): space.zero()}
        elif node.kind == "introduce":
            (child_id,) = node.children
            child_bag = nice.nodes[child_id].bag
            child_table = tables.pop(child_id)
            v = node.vertex
            pos = node.bag.index(v)
            table = {}
            for key, cell in child_table.items():
                base = key[:pos] + (0,) + key[pos:]
                table[base] = cell
                for c in range(1, k + 1):
                    if any(
                        key[i] == c and graph.has_edge(child_bag[i], v)
                        for i in range(len(key))
                    ):
                        continue
                    target = key[:pos] + (c,) + key[pos:]
                    table[target] = space.finalize(
                        cell.extended(c - 1, instance.profit(c - 1, v))
                    )
            tables[node_id] = table
        elif node.kind == "forget":
            (child_id,) = node.children
            child_bag = nice.nodes[child_id].bag
            child_table = take(child_id)
            pos = child_bag.index(node.vertex)
            table = {}
            for key, cell in child_table.items():
                target = key[:pos] + key[pos + 1 :]
                acc = table.get(target)
                if acc is None:
                    acc = space.empty()
                    table[target] = acc
                acc.union_update(cell)
            tables[node_id] = {
                key: space.finalize(cell) for key, cell in table.items()
            }
        elif node.kind == "join":
            left_id, right_id = node.children
            left = take(left_id)
            right = take(right_id)
            table = {}
            for key, lcell in left.items():
                rcell = right.get(key)
                if rcell is None:
                    continue
                shared = bag_profile(instance, node.bag, key)
                table[key] = space.finalize(lcell.combine(rcell, minus=shared))
            tables[node_id] = table
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
    root_table = tables[nice.root]
    result = space.empty()
    for cell in root_table.values():
        result.union_update(cell)
    return space.finalize(result), tables


def walk_back(instance: Instance, nice: NiceTreeDecomposition, tables: dict):
    """Witness recovery over kept node tables: profile -> coloring.

    Descending from the root's only key, an introduce node colors its
    vertex by the key's class and takes that class's profit off; a
    forget node moves to the smallest class c in 0..k whose child cell
    holds the profile; a join node splits the profile at the smallest
    left profile whose remainder, plus the shared bag profile, the
    right cell holds.
    """
    k = instance.k

    def witness(profile):
        if profile not in tables[nice.root][()]:
            raise KeyError(profile)
        coloring = [set() for _ in range(k)]
        stack = [(nice.root, (), profile)]
        while stack:
            node_id, key, p = stack.pop()
            node = nice.nodes[node_id]
            if node.kind == "introduce":
                pos = node.bag.index(node.vertex)
                j = key[pos] - 1
                if j >= 0:
                    coloring[j].add(node.vertex)
                    p = p[:j] + (p[j] - instance.profit(j, node.vertex),) + p[j + 1 :]
                stack.append((node.children[0], key[:pos] + key[pos + 1 :], p))
            elif node.kind == "forget":
                (child_id,) = node.children
                child_table = tables[child_id]
                pos = nice.nodes[child_id].bag.index(node.vertex)
                for c in range(k + 1):
                    source = key[:pos] + (c,) + key[pos:]
                    cell = child_table.get(source)
                    if cell is not None and p in cell:
                        break
                else:
                    raise AssertionError(f"no source cell for {profile} at node {node_id}")
                stack.append((child_id, source, p))
            elif node.kind == "join":
                left_id, right_id = node.children
                shared = bag_profile(instance, node.bag, key)
                parts = tables[left_id][key].split(p, tables[right_id][key], minus=shared)
                if parts is None:
                    raise AssertionError(f"no split for {profile} at node {node_id}")
                stack.append((left_id, key, parts[0]))
                stack.append((right_id, key, parts[1]))
        return tuple(tuple(sorted(cls)) for cls in coloring)

    return witness


def solve_on_decomposition(
    instance: Instance,
    td: TreeDecomposition,
    *,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set of `instance` computed over the given decomposition,
    which is verified first (DecompositionError if it is invalid)."""
    verify_decomposition(instance.graph, td)
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    nice = make_nice(td)
    result, tables = _run(instance, nice, space, keep_tables=witnesses)
    if witnesses:
        result.traceback = walk_back(instance, nice, tables)
    return result


def solve_chordal(
    instance: Instance,
    *,
    peo=None,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set via a clique tree over `peo`, a perfect elimination
    ordering found here if omitted; NotChordalError if inapplicable."""
    if peo is None:
        peo = chordal_peo(instance.graph)
    td = clique_tree(instance.graph, peo)
    return solve_on_decomposition(instance, td, space=space, witnesses=witnesses, prune=prune)


def solve_treewidth(
    instance: Instance,
    *,
    td: TreeDecomposition | None = None,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set over a supplied or min-fill decomposition."""
    if td is None:
        td = minfill_decomposition(instance.graph)
    return solve_on_decomposition(instance, td, space=space, witnesses=witnesses, prune=prune)
