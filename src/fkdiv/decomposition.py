"""Tree decompositions: construction, verification, and the nice form.

Every decomposition built here is the elimination tree of a vertex
ordering, linked in one place (`elimination_tree`). Chordal graphs use
a perfect elimination ordering, and their clique tree merges the
elimination tree's non-maximal bags; everything else can go through a
greedy min-fill ordering with its fill, or a decomposition supplied
with the input. A decomposition's tree is checked and rooted at bag 0
in one place (`_rooted`), which both verification and the nice form
read. Tree dynamic programs consume the nice form, where every node
introduces one vertex, forgets one vertex, joins two identical bags,
or is an empty leaf, listed children first so one pass in list order
visits every node after its children.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    DisconnectedOccurrenceError,
    InvalidDecompositionError,
    MissingEdgeError,
    MissingVertexError,
    NotATreeError,
    NotChordalError,
)
# chordal_peo and mcs_order live in graphs and stay importable from here.
from .graphs import Graph, chordal_peo, iter_bits, mcs_order  # noqa: F401


def is_chordal(graph: Graph) -> bool:
    try:
        chordal_peo(graph)
        return True
    except NotChordalError:
        return False


class TreeDecomposition(namedtuple("TreeDecomposition", "bags edges")):
    """Bags indexed 0..t-1 plus undirected tree edges between them."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _rooted(td: TreeDecomposition) -> tuple:
    """(parent, children, order) of td's tree rooted at bag 0, or
    NotATreeError unless td's edges form a tree on its bags.

    A depth-first search from bag 0 pushes each bag's neighbors in
    ascending order: `order` lists the bags as visited, every parent
    before its children, `children[x]` ascends, and `parent[0]` is None.
    """
    t = td.size
    if t == 0:
        raise NotATreeError("decomposition has no nodes")
    if len(td.edges) != t - 1:
        raise NotATreeError(f"{len(td.edges)} edges for {t} nodes")
    adj = [[] for _ in range(t)]
    for a, b in td.edges:
        if not (0 <= a < t and 0 <= b < t) or a == b:
            raise NotATreeError("bad tree edge ({}, {})", a, b)
        adj[a].append(b)
        adj[b].append(a)
    parent = [None] * t
    children = [[] for _ in range(t)]
    order = []
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                children[x].append(y)
                stack.append(y)
    if len(order) != t:
        raise NotATreeError("tree edges do not connect all nodes")
    return parent, children, order


def verify_decomposition(graph: Graph, td: TreeDecomposition) -> None:
    """Raise a DecompositionError subclass unless td is valid for graph."""
    parent, _, _ = _rooted(td)
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < graph.n):
                raise InvalidDecompositionError("bag vertex {} out of range", v)
    occurrence = [set() for _ in range(graph.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            occurrence[v].add(i)
    for v in range(graph.n):
        if not occurrence[v]:
            raise MissingVertexError("vertex {} is in no bag", v)
    for u, v in graph.edges:
        if occurrence[u].isdisjoint(occurrence[v]):
            raise MissingEdgeError("edge ({}, {}) is in no bag", u, v)
    # Rooted at bag 0, a vertex's bags form a subtree exactly when one
    # of them, the subtree's top, has a parent without the vertex.
    for v in range(graph.n):
        nodes = occurrence[v]
        if sum(parent[i] not in nodes for i in nodes) != 1:
            raise DisconnectedOccurrenceError(
                "bags containing {} are not connected in the tree", v
            )


def separator_violations(graph: Graph, td: TreeDecomposition) -> list:
    """Graph edges crossing a tree edge's two sides outside the shared bag
    intersection. Empty on every valid decomposition."""
    t = td.size
    adj = [[] for _ in range(t)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    edges = graph.edges
    violations = []
    for a, b in td.edges:
        side = set()
        stack = [a]
        seen = {a, b}
        while stack:
            x = stack.pop()
            side.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sep = set(td.bags[a]) & set(td.bags[b])
        left = set().union(*(td.bags[i] for i in side)) - sep
        right = set()
        for i in range(t):
            if i not in side:
                right |= set(td.bags[i])
        right -= sep
        for u, v in edges:
            if (u in left and v in right) or (v in left and u in right):
                violations.append(((a, b), (u, v)))
    return violations


def elimination_tree(order, later) -> TreeDecomposition:
    """Tree decomposition of an elimination ordering.

    Bag i is `order[i]` plus `later[i]`, its neighbors (fill included)
    eliminated after it. The parent of bag i is the bag of the earliest
    vertex of `later[i]`, or bag i+1 when `later[i]` is empty; edges are
    (parent, child) in child order. An empty order gives one empty bag.
    """
    if not order:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    position = {v: i for i, v in enumerate(order)}
    edges = tuple(
        (min((position[u] for u in nbrs), default=i + 1), i)
        for i, nbrs in enumerate(later[:-1])
    )
    bags = tuple(frozenset([v, *nbrs]) for v, nbrs in zip(order, later))
    return TreeDecomposition(bags=bags, edges=edges)


def clique_tree(graph: Graph, peo=None) -> TreeDecomposition:
    """Clique tree of a chordal graph, in one pass over a perfect
    elimination ordering.

    Takes the PEO's elimination tree and merges every non-maximal bag
    into a child one vertex larger, which holds it. In a PEO a bag is a
    maximal clique exactly when no child is one vertex larger (Blair &
    Peyton 1993), so the bags left are the maximal cliques, each once.
    They are sorted by sorted contents: bag 0, the root, is the
    lexicographically smallest.
    """
    if peo is None:
        peo = chordal_peo(graph)
    rest = (1 << graph.n) - 1
    later = []
    for v in peo:
        rest ^= 1 << v  # the vertices after v in the PEO
        later.append(tuple(iter_bits(graph.masks[v] & rest)))
    td = elimination_tree(peo, later)
    # Children come before their parent in child order, so a child's
    # group is final when its edge is read.
    head = list(range(td.size))
    for parent, child in td.edges:
        if head[parent] == parent and len(td.bags[parent]) + 1 == len(td.bags[child]):
            head[parent] = head[child]
    heads = sorted(set(head), key=lambda i: sorted(td.bags[i]))
    rank = {h: r for r, h in enumerate(heads)}
    edges = tuple(
        (rank[head[parent]], rank[head[child]])
        for parent, child in td.edges
        if head[parent] != head[child]
    )
    return TreeDecomposition(bags=tuple(td.bags[h] for h in heads), edges=edges)


def _min_fill_vertex(live: list, alive: int) -> tuple:
    """(v, v's alive neighbors as a mask) for the alive vertex whose
    elimination adds the fewest fill edges, lowest id on ties.

    `live[v]` is v's neighbor mask, fill included, and `alive` the mask
    of vertices not yet eliminated. The fill of v is the number of
    non-adjacent pairs among its d alive neighbors; twice that is
    d(d-1) less the adjacent pairs, each counted from both ends. A
    vertex without fill ends the search, as no later one can beat it."""
    best = None
    for v in iter_bits(alive):
        nbrs = live[v] & alive
        d = nbrs.bit_count()
        fill = d * (d - 1) - sum((live[a] & nbrs).bit_count() for a in iter_bits(nbrs))
        if best is None or fill < best[0]:
            best = (fill, v, nbrs)
            if not fill:
                break
    return best[1:]


def minfill_decomposition(
    graph: Graph, max_bag: int | None = None
) -> TreeDecomposition | None:
    """Heuristic tree decomposition from a greedy minimum-fill ordering.

    Eliminates, at each step, a vertex whose current neighborhood needs
    the fewest fill edges (lowest id on ties), and returns the
    elimination tree of that ordering: bag i is the eliminated vertex
    plus its neighborhood at that moment.

    With `max_bag` set, returns None as soon as the chosen vertex's bag
    has more than `max_bag` vertices, which happens exactly when the
    full decomposition has width + 1 > `max_bag`. A step where every
    alive vertex has at least `max_bag` alive neighbors returns None
    before any fill is counted: whichever vertex it would choose has
    too large a bag.
    """
    n = graph.n
    live = list(graph.masks)
    alive = (1 << n) - 1
    order = []
    later = []
    for _ in range(n):
        if max_bag is not None and all(
            (live[u] & alive).bit_count() >= max_bag for u in iter_bits(alive)
        ):
            return None
        v, nbrs = _min_fill_vertex(live, alive)
        if max_bag is not None and nbrs.bit_count() + 1 > max_bag:
            return None
        for a in iter_bits(nbrs):
            live[a] |= nbrs ^ (1 << a)
        alive ^= 1 << v
        order.append(v)
        later.append(tuple(iter_bits(nbrs)))
    return elimination_tree(order, later)


class NiceNode(namedtuple("NiceNode", "kind bag children vertex", defaults=(None,))):
    """One node: `kind` is "leaf", "introduce", "forget" or "join", `bag`
    its sorted vertices, `children` node ids, and `vertex` the introduced
    or forgotten vertex (None for leaves and joins)."""

    __slots__ = ()


class NiceTreeDecomposition(namedtuple("NiceTreeDecomposition", "nodes root")):
    """Nice nodes listed children first: every node comes after its
    children, and the root, whose bag is empty, comes last."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Nice form of a tree decomposition, rooted at an empty bag above bag 0.

    Bags are built children first, in reverse of `_rooted`'s visit
    order. A childless bag introduces its vertices one by one above an
    empty leaf; along each tree edge the child bag is forgotten down to
    the shared part and built up to the parent bag; several children
    fold into a chain of binary joins; finally bag 0 is forgotten down
    to nothing. Forgets and introduces go in ascending vertex order.
    NotATreeError if td's edges do not form a tree.
    """
    _, children, order = _rooted(td)
    nodes = []

    def add(kind, bag, kids, vertex=None) -> int:
        nodes.append(NiceNode(kind, tuple(bag), kids, vertex))
        return len(nodes) - 1

    def adapt(node: int, from_bag, to_bag) -> int:
        cur = set(from_bag)
        to_bag = set(to_bag)
        for v in sorted(cur - to_bag):
            cur.remove(v)
            node = add("forget", sorted(cur), (node,), v)
        for v in sorted(to_bag - cur):
            cur.add(v)
            node = add("introduce", sorted(cur), (node,), v)
        return node

    built = [None] * td.size
    for x in reversed(order):
        bag = td.bags[x]
        branches = [adapt(built[c], td.bags[c], bag) for c in children[x]]
        node = branches[0] if branches else adapt(add("leaf", (), ()), (), bag)
        for other in branches[1:]:
            node = add("join", sorted(bag), (node, other))
        built[x] = node
    root = adapt(built[0], td.bags[0], ())
    return NiceTreeDecomposition(nodes=tuple(nodes), root=root)
