"""Dynamic programs over nice tree decompositions.

One engine serves two entry points: chordal graphs get clique-tree bags
(where any class holds at most one bag vertex), and bounded-treewidth
inputs get whatever decomposition is supplied or the min-fill heuristic
finds. Table keys are bag colorings, class 0 meaning uncolored, stored
as tuples aligned with the sorted bag. A cell holds only the profit of
vertices already forgotten below its node: a vertex's profit enters at
its forget node, the one place it leaves the decomposition, so introduce
nodes share their child's cells and a join adds its two cells' profiles,
which count disjoint vertices.

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


def _run(instance: Instance, nice: NiceTreeDecomposition, space, keep_tables=False):
    """(root profile set, node tables), reading the nodes in list order,
    children first. A child table is dropped once read, unless `keep_tables` and a forget or join node reads it: only
    those tables are read again by `walk_back`."""
    graph = instance.graph
    k = instance.k
    tables: dict = {}
    take = tables.get if keep_tables else tables.pop
    for node_id, node in enumerate(nice.nodes):
        if node.kind == "leaf":
            tables[node_id] = {(): space.zero()}
        elif node.kind == "introduce":
            (child_id,) = node.children
            child_bag = nice.nodes[child_id].bag
            v = node.vertex
            pos = node.bag.index(v)
            nbrs = [i for i, u in enumerate(child_bag) if graph.has_edge(u, v)]
            table = {}
            for key, cell in tables.pop(child_id).items():
                taken = {key[i] for i in nbrs}
                for c in range(k + 1):
                    if c == 0 or c not in taken:
                        table[key[:pos] + (c,) + key[pos:]] = cell
            tables[node_id] = table
        elif node.kind == "forget":
            (child_id,) = node.children
            child_bag = nice.nodes[child_id].bag
            child_table = take(child_id)
            v = node.vertex
            pos = child_bag.index(v)
            table = {}
            for key, cell in child_table.items():
                target = key[:pos] + key[pos + 1 :]
                acc = table.get(target)
                if acc is None:
                    acc = space.empty()
                    table[target] = acc
                c = key[pos]
                acc.union_update(
                    cell.extended(c - 1, instance.profit(c - 1, v)) if c else cell
                )
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
                table[key] = space.finalize(lcell.combine(rcell))
            tables[node_id] = table
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
    return space.finalize(space.union(tables[nice.root].values())), tables


def walk_back(instance: Instance, nice: NiceTreeDecomposition, tables: dict):
    """Witness recovery over kept node tables: profile -> coloring.

    Descending from the root's only key, an introduce node drops its
    vertex's position; a forget node colors its vertex by the smallest
    class c in 0..k whose child cell holds the profile less the vertex's
    profit in c, and takes that profit off; a join node splits the
    profile at the smallest left profile whose remainder the right cell
    holds.
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
            v = node.vertex
            if node.kind == "introduce":
                pos = node.bag.index(v)
                stack.append((node.children[0], key[:pos] + key[pos + 1 :], p))
            elif node.kind == "forget":
                (child_id,) = node.children
                child_table = tables[child_id]
                pos = nice.nodes[child_id].bag.index(v)
                for c in range(k + 1):
                    source = key[:pos] + (c,) + key[pos:]
                    rest = p
                    if c:
                        rest = p[: c - 1] + (p[c - 1] - instance.profit(c - 1, v),) + p[c:]
                    if rest in child_table.get(source, ()):
                        break
                else:
                    raise AssertionError(f"no source cell for {profile} at node {node_id}")
                if c:
                    coloring[c - 1].add(v)
                stack.append((child_id, source, rest))
            elif node.kind == "join":
                left_id, right_id = node.children
                parts = tables[left_id][key].split(p, tables[right_id][key])
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
