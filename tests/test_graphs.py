import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdiv.errors import VertexRangeError
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance, canonical_edge


class ReferenceGraph:
    """The edge-set graph that `Graph` replaced, kept to check its derived reads."""

    def __init__(self, n: int, edges=()):
        self.n = n
        self.edges = frozenset(canonical_edge(u, v) for u, v in edges)
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def complement(self) -> "ReferenceGraph":
        n = self.n
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in self.edges
        ]
        return ReferenceGraph(n, edges)

    def induced(self, vertices):
        vs = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return ReferenceGraph(len(vs), edges), vs


def small_graphs(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        return Graph(n, edges)

    return build()


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_is_independent_basics():
    k2 = Graph(2, [(0, 1)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert k2.is_independent(())
    assert not k2.is_independent((0, 1))
    assert p4.is_independent((0, 2))


def test_is_independent_rejects_bad_vertex():
    with pytest.raises(VertexRangeError):
        Graph(2, [(0, 1)]).is_independent((0, 5))


def test_complement_k3_is_edgeless():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.complement().m == 0


def test_complement_edgeless_pair_is_k2():
    assert Graph(2, []).complement().edges == frozenset({(0, 1)})


def test_complement_p4():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.complement().edges == frozenset({(0, 2), (0, 3), (1, 3)})


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_complement_round_trip(g):
    assert g.complement().complement() == g


def test_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])
    for edges in ([(0, 1), (1, 0)], [(0, 1), (0, 1)]):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph(3, edges)


@st.composite
def edge_lists(draw):
    """(n, edge list in drawn order and orientation, vertex subset), n 0-10."""
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    subset = draw(st.sets(st.integers(min_value=0, max_value=n - 1))) if n else set()
    return n, edges, subset


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_mask_graph_matches_edge_set_reference(case):
    n, edges, subset = case
    g, ref = Graph(n, edges), ReferenceGraph(n, edges)
    assert g.edges == ref.edges
    assert g.m == ref.m
    for v in range(n):
        assert g.neighbors(v) == ref.neighbors(v)
    for u, v in itertools.product(range(n), repeat=2):
        assert g.has_edge(u, v) == ref.has_edge(u, v)
    assert g.complement().edges == ref.complement().edges
    sub, ids = g.induced(subset)
    ref_sub, ref_ids = ref.induced(subset)
    assert (sub.n, sub.edges, ids) == (ref_sub.n, ref_sub.edges, ref_ids)
    twin = Graph(n, reversed(edges))
    assert g == twin
    assert hash(g) == hash(twin)


def test_complement_of_permutation_n400_is_fast():
    g = build_family("permutation", 400, 2, 1, 1).graph
    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        comp = g.complement()
        elapsed = min(elapsed, time.perf_counter() - start)
    assert elapsed < 0.01
    assert comp.m == 400 * 399 // 2 - g.m


def test_induced_subgraph_relabels():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sub, ids = g.induced((1, 2, 3))
    assert ids == (1, 2, 3)
    assert sub.edges == frozenset({(0, 1), (1, 2)})


def test_instance_derives_k_and_qbound():
    inst = Instance(Graph(2, []), ((1, 2), (5, 7)))
    assert inst.k == 2
    assert inst.n == 2
    assert inst.qbound == 12
    assert inst.profit(1, 1) == 7


def test_instance_rejects_bad_rows():
    with pytest.raises(ValueError):
        Instance(Graph(2, []), ())
    with pytest.raises(ValueError):
        Instance(Graph(2, []), ((1,),))
    with pytest.raises(ValueError):
        Instance(Graph(2, []), ((1, -1),))
