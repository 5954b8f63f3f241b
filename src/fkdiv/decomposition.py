"""Tree decompositions: recognition, construction, and the nice form.

Chordal graphs get a clique tree built from a perfect elimination
ordering; everything else can go through a greedy min-fill heuristic or
a decomposition supplied with the input. Tree dynamic programs consume
the nice form, where every node introduces one vertex, forgets one
vertex, joins two identical bags, or is an empty leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisconnectedOccurrenceError,
    InvalidDecompositionError,
    MissingEdgeError,
    MissingVertexError,
    NotATreeError,
    NotChordalError,
)
from .graphs import Graph


def mcs_order(graph: Graph) -> tuple:
    """Maximum cardinality search visit order, lowest id on ties."""
    n = graph.n
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not visited[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        order.append(best)
        for u in graph.neighbors(best):
            if not visited[u]:
                weight[u] += 1
    return tuple(order)


def chordal_peo(graph: Graph) -> tuple:
    """Perfect elimination ordering, or NotChordalError.

    Runs maximum cardinality search and checks, for each vertex, that
    its already-visited neighbors form a clique; the reversed visit
    order is then an elimination ordering where every vertex's later
    neighbors are mutually adjacent.
    """
    order = mcs_order(graph)
    seen = set()
    for v in order:
        back = [u for u in graph.neighbors(v) if u in seen]
        for i, a in enumerate(back):
            for b in back[i + 1 :]:
                if not graph.has_edge(a, b):
                    raise NotChordalError(
                        f"neighbors {a},{b} of {v} are not adjacent"
                    )
        seen.add(v)
    return tuple(reversed(order))


def is_chordal(graph: Graph) -> bool:
    try:
        chordal_peo(graph)
        return True
    except NotChordalError:
        return False


def maximal_cliques_chordal(graph: Graph, peo=None) -> list:
    """Maximal cliques of a chordal graph, sorted for determinism."""
    if peo is None:
        peo = chordal_peo(graph)
    position = {v: i for i, v in enumerate(peo)}
    candidates = []
    for i, v in enumerate(peo):
        later = [u for u in graph.neighbors(v) if position[u] > i]
        candidates.append(frozenset([v, *later]))
    cliques = []
    for c in candidates:
        if not any(c < d for d in candidates):
            cliques.append(c)
    return sorted(set(cliques), key=sorted)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..t-1 plus undirected tree edges between them."""

    bags: tuple
    edges: tuple

    @property
    def size(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self, node: int) -> list:
        out = []
        for a, b in self.edges:
            if a == node:
                out.append(b)
            elif b == node:
                out.append(a)
        return sorted(out)


def verify_decomposition(graph: Graph, td: TreeDecomposition) -> None:
    """Raise a DecompositionError subclass unless td is valid for graph."""
    t = td.size
    if t == 0:
        raise NotATreeError("decomposition has no nodes")
    if len(td.edges) != t - 1:
        raise NotATreeError(f"{len(td.edges)} edges for {t} nodes")
    adj = [[] for _ in range(t)]
    for a, b in td.edges:
        if not (0 <= a < t and 0 <= b < t) or a == b:
            raise NotATreeError(f"bad tree edge ({a}, {b})")
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != t:
        raise NotATreeError("tree edges do not connect all nodes")
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < graph.n):
                raise InvalidDecompositionError(f"bag vertex {v} out of range")
    occurrence = [set() for _ in range(graph.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            occurrence[v].add(i)
    for v in range(graph.n):
        if not occurrence[v]:
            raise MissingVertexError(f"vertex {v} is in no bag")
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            raise MissingEdgeError(f"edge ({u}, {v}) is in no bag")
    for v in range(graph.n):
        nodes = occurrence[v]
        start = next(iter(nodes))
        reached = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in nodes and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if reached != nodes:
            raise DisconnectedOccurrenceError(
                f"bags containing {v} are not connected in the tree"
            )


def separator_violations(graph: Graph, td: TreeDecomposition) -> list:
    """Graph edges crossing a tree edge's two sides outside the shared bag
    intersection. Empty on every valid decomposition."""
    t = td.size
    adj = [[] for _ in range(t)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
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
        for u, v in graph.edges:
            if (u in left and v in right) or (v in left and u in right):
                violations.append(((a, b), (u, v)))
    return violations


def clique_tree(graph: Graph, peo=None) -> TreeDecomposition:
    """Clique tree of a chordal graph.

    Maximum-weight spanning tree over the maximal cliques, weight being
    the intersection size; built greedily from clique 0, preferring the
    lowest-numbered new clique and then the lowest-numbered attachment
    on ties.
    """
    cliques = maximal_cliques_chordal(graph, peo)
    t = len(cliques)
    if t == 0:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    in_tree = [False] * t
    in_tree[0] = True
    edges = []
    for _ in range(t - 1):
        best = None
        for v in range(t):
            if in_tree[v]:
                continue
            for u in range(t):
                if not in_tree[u]:
                    continue
                w = len(cliques[u] & cliques[v])
                cand = (-w, v, u)
                if best is None or cand < best:
                    best = cand
        _, v, u = best
        in_tree[v] = True
        edges.append((u, v))
    return TreeDecomposition(bags=tuple(cliques), edges=tuple(edges))


def _min_fill_vertex(live: list, alive: set) -> tuple:
    """(v, v's alive neighbors) for the alive vertex whose elimination
    adds the fewest fill edges, lowest id on ties."""
    best = None
    for v in sorted(alive):
        nbrs = [u for u in live[v] if u in alive]
        fill = 0
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in live[a]:
                    fill += 1
        if best is None or fill < best[0]:
            best = (fill, v, nbrs)
    return best[1:]


def minfill_decomposition(
    graph: Graph, max_bag: int | None = None
) -> TreeDecomposition | None:
    """Heuristic tree decomposition from a greedy minimum-fill ordering.

    Eliminates, at each step, a vertex whose current neighborhood needs
    the fewest fill edges (lowest id on ties). Bag i is the eliminated
    vertex plus its neighborhood at that moment; its parent is the bag
    of the neighbor eliminated soonest afterwards, or simply the next
    bag when the neighborhood is empty.

    With `max_bag` set, returns None as soon as the chosen vertex's bag
    has more than `max_bag` vertices, which happens exactly when the
    full decomposition has width + 1 > `max_bag`.
    """
    n = graph.n
    if n == 0:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    live = [set(graph.neighbors(v)) for v in range(n)]
    alive = set(range(n))
    elim_index = {}
    bags = []
    for step in range(n):
        v, nbrs = _min_fill_vertex(live, alive)
        if max_bag is not None and len(nbrs) + 1 > max_bag:
            return None
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                live[a].add(b)
                live[b].add(a)
        alive.remove(v)
        elim_index[v] = step
        bags.append(frozenset([v, *nbrs]))
    edges = []
    order = sorted(elim_index, key=elim_index.get)
    for step, v in enumerate(order):
        if step == n - 1:
            continue
        later = [u for u in bags[step] if u != v]
        if later:
            parent = min(elim_index[u] for u in later)
        else:
            parent = step + 1
        edges.append((parent, step))
    return TreeDecomposition(bags=tuple(bags), edges=tuple(edges))


@dataclass(frozen=True)
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple  # sorted vertices
    children: tuple  # node ids
    vertex: int | None = None  # the introduced or forgotten vertex


@dataclass(frozen=True)
class NiceTreeDecomposition:
    nodes: tuple
    root: int

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1

    def postorder(self):
        """Node ids, children always before parents, without recursion."""
        out = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
            else:
                stack.append((node, True))
                for c in self.nodes[node].children:
                    stack.append((c, False))
        return out


class _NiceBuilder:
    def __init__(self):
        self.nodes = []

    def add(self, kind, bag, children=(), vertex=None) -> int:
        self.nodes.append(
            NiceNode(kind=kind, bag=tuple(bag), children=tuple(children), vertex=vertex)
        )
        return len(self.nodes) - 1

    def chain_from_empty(self, bag_sorted) -> int:
        node = self.add("leaf", ())
        cur: list = []
        for v in bag_sorted:
            cur.append(v)
            node = self.add("introduce", tuple(cur), (node,), v)
        return node

    def adapt(self, node: int, from_bag, to_bag) -> int:
        """Forget what leaves the bag, then introduce what enters, both
        in ascending vertex order."""
        cur = set(from_bag)
        for v in sorted(set(from_bag) - set(to_bag)):
            cur.remove(v)
            node = self.add("forget", tuple(sorted(cur)), (node,), v)
        for v in sorted(set(to_bag) - set(from_bag)):
            cur.add(v)
            node = self.add("introduce", tuple(sorted(cur)), (node,), v)
        return node


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Nice form of a tree decomposition, rooted at an empty bag above node 0.

    Leaf branches introduce their bag vertex by vertex; along each tree
    edge the child bag is forgotten down to the shared part and built up
    to the parent bag; multiple children fold into a chain of binary
    joins; finally the root bag is forgotten down to nothing.
    """
    t = td.size
    children = [[] for _ in range(t)]
    parent = [-1] * t
    adj = [[] for _ in range(t)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
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
        raise NotATreeError("decomposition tree is not connected")

    builder = _NiceBuilder()
    built = {}
    for x in reversed(order):
        bag_sorted = tuple(sorted(td.bags[x]))
        if not children[x]:
            built[x] = builder.chain_from_empty(bag_sorted)
            continue
        branches = []
        for c in sorted(children[x]):
            adapted = builder.adapt(
                built[c], tuple(sorted(td.bags[c])), bag_sorted
            )
            branches.append(adapted)
        node = branches[0]
        for other in branches[1:]:
            node = builder.add("join", bag_sorted, (node, other))
        built[x] = node

    top = built[0]
    cur = list(sorted(td.bags[0]))
    for v in sorted(td.bags[0]):
        cur.remove(v)
        top = builder.add("forget", tuple(cur), (top,), v)
    return NiceTreeDecomposition(nodes=tuple(builder.nodes), root=top)
