"""Undirected graphs, chordality recognition, and problem instances.

A graph is one adjacency bitmask per vertex; its edge set, edge count
and neighbor lists are derived from the masks. Maximum cardinality
search and the perfect elimination ordering it checks live here too,
as the solve planner runs them on every graph first. Vertices are
0..n-1 everywhere in the library; the file format uses 1-based ids and
the parser translates.
"""

from __future__ import annotations

from .errors import NotChordalError, VertexRangeError


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def iter_bits(mask: int):
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph stored as one adjacency bitmask per vertex.

    Bit v of `masks[u]` is the edge uv. The edge set, edge count and
    neighbor tuples are derived from the masks when read.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge {canonical_edge(u, v)}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)

    @classmethod
    def _from_masks(cls, masks) -> "Graph":
        graph = object.__new__(cls)
        graph.n = len(masks)
        graph.masks = tuple(masks)
        return graph

    @property
    def edges(self) -> frozenset:
        # `mask >> u << u` keeps the neighbors above u: bit u is never set.
        return frozenset(
            (u, v) for u, mask in enumerate(self.masks) for v in iter_bits(mask >> u << u)
        )

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.masks[v]))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} out of range for n={self.n}")

    def is_independent(self, subset) -> bool:
        """True when no two vertices of `subset` are adjacent."""
        mask = 0
        for v in subset:
            self._check_vertex(v)
            if self.masks[v] & mask:
                return False
            mask |= 1 << v
        return True

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_masks([full & ~mask & ~(1 << v) for v, mask in enumerate(self.masks)])

    def induced(self, vertices) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `vertices`; returns (subgraph, sorted original ids).

        Sub-vertex i corresponds to the i-th entry of the returned id tuple.
        """
        vs = tuple(sorted(set(vertices)))
        for v in vs:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(vs)}
        keep = sum(1 << v for v in vs)
        masks = [sum(1 << index[u] for u in iter_bits(self.masks[v] & keep)) for v in vs]
        return Graph._from_masks(masks), vs

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.masks == other.masks

    def __hash__(self):
        return hash(self.masks)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def mcs_order(graph: Graph):
    """Maximum cardinality search visit order, lowest id on ties.

    A generator: each vertex is yielded before the search goes on, so a
    caller that stops early pays only for the steps it read."""
    n = graph.n
    weight = [0] * n
    unvisited = (1 << n) - 1
    for _ in range(n):
        best = weight.index(max(weight))
        weight[best] = -1  # below every unvisited weight from now on
        unvisited ^= 1 << best
        yield best
        for u in iter_bits(graph.masks[best] & unvisited):
            weight[u] += 1


def chordal_peo(graph: Graph) -> tuple:
    """Perfect elimination ordering, or NotChordalError.

    Runs maximum cardinality search and checks, as each vertex v is
    visited, that its already-visited neighbors other than the latest
    visited one, p, are neighbors of p (Tarjan & Yannakakis 1984). If
    every earlier vertex passed, p's visited neighbors form a clique, so
    v's do too: the first vertex that fails is the first whose visited
    neighbors are not a clique, where the search stops and names the
    smallest non-adjacent pair. p is found by bisecting the visited
    prefixes for the shortest one holding every visited neighbor. The
    reversed visit order is an elimination ordering where every vertex's
    later neighbors are mutually adjacent.
    """
    masks = graph.masks
    order = []
    seen = [0]  # seen[j]: the first j visited vertices
    for v in mcs_order(graph):
        back = masks[v] & seen[-1]
        if back:
            lo, hi = 1, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                if back & ~seen[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            p = order[lo - 1]
            if back & ~masks[p] & ~(1 << p):
                for a in iter_bits(back):
                    # Visited neighbors of v above a that are not adjacent to a.
                    missing = (back >> (a + 1) << (a + 1)) & ~masks[a]
                    if missing:
                        b = next(iter_bits(missing))
                        raise NotChordalError("neighbors {},{} of {} are not adjacent", a, b, v)
        order.append(v)
        seen.append(seen[-1] | 1 << v)
    return tuple(reversed(order))


class Instance:
    """A conflict graph plus one additive profit row per agent.

    `qbound` is the largest per-agent total; no profile entry can exceed it.
    """

    __slots__ = ("graph", "k", "profits", "qbound")

    def __init__(self, graph: Graph, profits):
        rows = tuple(tuple(int(x) for x in row) for row in profits)
        if not rows:
            raise ValueError("need at least one profit row")
        for row in rows:
            if len(row) != graph.n:
                raise ValueError(
                    f"profit row length {len(row)} != vertex count {graph.n}"
                )
            if any(x < 0 for x in row):
                raise ValueError("profits must be nonnegative")
        self.graph = graph
        self.k = len(rows)
        self.profits = rows
        self.qbound = max(sum(row) for row in rows)

    @property
    def n(self) -> int:
        return self.graph.n

    def profit(self, cls0: int, v: int) -> int:
        return self.profits[cls0][v]

    def with_profits(self, profits) -> "Instance":
        return Instance(self.graph, profits)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.graph == other.graph and self.profits == other.profits

    def __repr__(self):
        return f"Instance(n={self.n}, m={self.graph.m}, k={self.k}, qbound={self.qbound})"
