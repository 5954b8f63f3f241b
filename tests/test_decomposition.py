import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nice_occurrences_connected, verify_nice
from fkdiv.decomposition import (
    TreeDecomposition,
    chordal_peo,
    clique_tree,
    is_chordal,
    make_nice,
    mcs_order,
    minfill_decomposition,
    separator_violations,
    verify_decomposition,
)
from fkdiv.errors import (
    MissingEdgeError,
    MissingVertexError,
    NotATreeError,
    NotChordalError,
)
from fkdiv.generators import build_family
from fkdiv.graphs import Graph


def random_graph(rng, n, density):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return Graph(n, edges)


def test_mcs_starts_at_lowest_id():
    g = Graph(3, [(1, 2)])
    assert mcs_order(g)[0] == 0


def test_chordal_peo_accepts_tree_and_rejects_c4():
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    peo = chordal_peo(tree)
    assert sorted(peo) == [0, 1, 2, 3]
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotChordalError):
        chordal_peo(c4)
    assert is_chordal(tree) and not is_chordal(c4)


def test_maximal_cliques_on_triangle_with_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert clique_tree(g).bags == (frozenset({0, 1, 2}), frozenset({2, 3}))


def test_clique_tree_single_edge_and_edgeless():
    td = clique_tree(Graph(2, [(0, 1)]))
    assert td.bags == (frozenset({0, 1}),)
    td2 = clique_tree(Graph(2, []))
    assert set(td2.bags) == {frozenset({0}), frozenset({1})}
    assert len(td2.edges) == 1
    td0 = clique_tree(Graph(0))
    assert td0 == TreeDecomposition(bags=(frozenset(),), edges=())
    verify_decomposition(Graph(0), td0)


def test_clique_tree_of_chordal_n800_is_fast():
    g = build_family("chordal", 800, 2, 1, 3).graph
    start = time.perf_counter()
    td = clique_tree(g)
    assert time.perf_counter() - start < 2.0
    verify_decomposition(g, td)


def test_clique_tree_triangle_with_pendant_width():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    td = clique_tree(g)
    assert td.width == 2
    verify_decomposition(g, td)


def test_verify_rejects_missing_edge():
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition(bags=((0,), (1,)), edges=((0, 1),))
    with pytest.raises(MissingEdgeError):
        verify_decomposition(g, td)


def test_verify_rejects_missing_vertex_and_non_tree():
    g = Graph(2, [])
    with pytest.raises(MissingVertexError):
        verify_decomposition(g, TreeDecomposition(bags=((0,),), edges=()))
    with pytest.raises(NotATreeError):
        verify_decomposition(
            g, TreeDecomposition(bags=((0,), (1,)), edges=())
        )


def test_separation_property_of_built_decompositions():
    rng = random.Random(4)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        td = minfill_decomposition(g)
        assert separator_violations(g, td) == []


def test_separator_violations_flags_bad_split():
    g = Graph(3, [(0, 2)])
    bad = TreeDecomposition(bags=((0, 1), (1, 2)), edges=((0, 1),))
    hits = separator_violations(g, bad)
    assert hits and hits[0][1] == (0, 2)


def test_make_nice_single_two_vertex_bag_is_five_nodes():
    td = TreeDecomposition(bags=((0, 1),), edges=())
    nice = make_nice(td)
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
    assert nice.nodes[nice.root].bag == ()
    verify_nice(nice)
    nice_occurrences_connected(nice)


def test_make_nice_empty_bag_is_single_leaf_root():
    nice = make_nice(TreeDecomposition(bags=((),), edges=()))
    assert len(nice.nodes) == 1
    assert nice.nodes[0].kind == "leaf"
    assert nice.root == 0
    verify_nice(nice)


def test_make_nice_join_for_branching_tree():
    td = TreeDecomposition(
        bags=((0, 1), (1, 2), (1, 3)), edges=((0, 1), (0, 2))
    )
    nice = make_nice(td)
    assert any(nd.kind == "join" for nd in nice.nodes)
    verify_nice(nice)
    nice_occurrences_connected(nice)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_minfill_always_verifies(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.random())
    td = minfill_decomposition(g)
    verify_decomposition(g, td)
    nice = make_nice(td)
    verify_nice(nice)
    nice_occurrences_connected(nice)
    assert nice.width == td.width


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_clique_tree_bags_are_maximal_cliques(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.random())
    if not is_chordal(g):
        return
    td = clique_tree(g)
    verify_decomposition(g, td)
    for bag in td.bags:
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(bag, 2))
        for v in range(g.n):
            if v in bag:
                continue
            assert not all(g.has_edge(v, u) for u in bag)


@st.composite
def small_graphs(draw):
    """Random graphs on at most 12 vertices, edgeless and disconnected
    ones included; half of them are made chordal by adding the fill of
    their min-fill ordering."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, edges)
    if draw(st.booleans()):
        filled = {
            e
            for bag in minfill_decomposition(g).bags
            for e in itertools.combinations(sorted(bag), 2)
        }
        g = Graph(n, filled)
    return g


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_chordality_and_clique_tree_match_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    assert is_chordal(g) == nx.is_chordal(G)
    if not is_chordal(g):
        return
    td = clique_tree(g)
    verify_decomposition(g, td)
    assert len(set(td.bags)) == len(td.bags)
    if g.n:
        assert set(td.bags) == {frozenset(c) for c in nx.find_cliques(G)}


def reference_minfill(graph):
    """Frozen min-fill loop that pins the choice rule: fewest fill edges,
    lowest id on ties, every count recomputed each step."""
    n = graph.n
    if n == 0:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    live = [set(graph.neighbors(v)) for v in range(n)]
    alive = set(range(n))
    elim_index = {}
    bags = []
    for step in range(n):
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
        _, v, nbrs = best
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


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_minfill_matches_reference_and_bag_bound(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 30), rng.random())
    td = minfill_decomposition(g)
    assert td == reference_minfill(g)
    for bound in range(td.width + 3):
        bounded = minfill_decomposition(g, max_bag=bound)
        if td.width + 1 > bound:
            assert bounded is None
        else:
            assert bounded == td
