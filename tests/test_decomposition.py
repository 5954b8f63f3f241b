import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nice_occurrences_connected, verify_nice
from fkdiv.decomposition import (
    NiceNode,
    NiceTreeDecomposition,
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
    DecompositionError,
    DisconnectedOccurrenceError,
    InvalidDecompositionError,
    MissingEdgeError,
    MissingVertexError,
    NotATreeError,
    NotChordalError,
)
from fkdiv.generators import FAMILIES, build_family
from fkdiv.graphs import Graph, iter_bits


def random_graph(rng, n, density):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return Graph(n, edges)


def test_mcs_starts_at_lowest_id():
    g = Graph(3, [(1, 2)])
    assert next(mcs_order(g)) == 0


def test_chordal_peo_accepts_tree_and_rejects_c4():
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    peo = chordal_peo(tree)
    assert sorted(peo) == [0, 1, 2, 3]
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotChordalError):
        chordal_peo(c4)
    assert is_chordal(tree) and not is_chordal(c4)


def frozen_chordal_peo(graph):
    """chordal_peo as it stood when it checked, at each visited vertex,
    every pair of its visited neighbors for adjacency."""
    order = []
    seen = 0
    for v in mcs_order(graph):
        back = graph.masks[v] & seen
        for a in iter_bits(back):
            missing = (back >> (a + 1) << (a + 1)) & ~graph.masks[a]
            if missing:
                b = next(iter_bits(missing))
                raise NotChordalError(f"neighbors {a},{b} of {v} are not adjacent")
        seen |= 1 << v
        order.append(v)
    return tuple(reversed(order))


def peo_outcome(peo, graph):
    try:
        return peo(graph)
    except NotChordalError as exc:
        return f"NotChordalError: {exc}"


def chordal_or_near(rng):
    """A random graph; most are made chordal by adding their min-fill
    fill, and some of those get one edge toggled, which often breaks
    chordality at a vertex deep in the search."""
    n = rng.randint(0, 30)
    g = random_graph(rng, n, rng.random())
    if rng.random() < 0.7:
        fill = {
            e
            for bag in minfill_decomposition(g).bags
            for e in itertools.combinations(sorted(bag), 2)
        }
        if n >= 2 and rng.random() < 0.5:
            fill ^= {tuple(sorted(rng.sample(range(n), 2)))}
        g = Graph(n, fill)
    return g


def test_chordal_peo_matches_frozen_pairwise_check():
    outcomes = {True: 0, False: 0}
    for seed in range(600):
        g = chordal_or_near(random.Random(seed))
        got = peo_outcome(chordal_peo, g)
        assert got == peo_outcome(frozen_chordal_peo, g), seed
        outcomes[isinstance(got, tuple)] += 1
    for family in ("chordal", "interval", "random"):
        for seed in range(8):
            g = build_family(family, 60, 2, 1, seed).graph
            assert peo_outcome(chordal_peo, g) == peo_outcome(frozen_chordal_peo, g)
    assert min(outcomes.values()) >= 150


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


def reference_verify(graph, td):
    """The quadratic check verify_decomposition replaced: an any() scan
    over all bags per edge and one BFS per vertex's occurrences."""
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


def mutated(rng, graph, td):
    """`td` with one bag vertex dropped or added, or one tree edge
    rewired, dropped or added."""
    bags = [list(b) for b in td.bags]
    edges = list(td.edges)
    t = len(bags)
    kind = rng.choice(["drop_vertex", "add_vertex", "rewire", "drop_edge", "add_edge"])
    if kind == "drop_vertex" and any(bags):
        bag = rng.choice([b for b in bags if b])
        bag.remove(rng.choice(bag))
    elif kind == "add_vertex":
        rng.choice(bags).append(rng.randrange(graph.n + 1))
    elif kind == "rewire" and edges:
        i = rng.randrange(len(edges))
        edges[i] = (edges[i][rng.randrange(2)], rng.randrange(t))
    elif kind == "drop_edge" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "add_edge":
        edges.append((rng.randrange(t), rng.randrange(t)))
    return TreeDecomposition(
        bags=tuple(tuple(sorted(set(b))) for b in bags), edges=tuple(edges)
    )


def outcome(check, graph, td):
    try:
        check(graph, td)
    except DecompositionError as exc:
        return type(exc), str(exc)
    return None


def test_verify_matches_reference_on_mutated_decompositions():
    rng = random.Random(26)
    seen = set()
    for _ in range(1500):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        td = mutated(rng, g, minfill_decomposition(g))
        got = outcome(verify_decomposition, g, td)
        assert got == outcome(reference_verify, g, td)
        seen.add(got and got[0])
    assert DisconnectedOccurrenceError in seen and None in seen


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


class _ReferenceNiceBuilder:
    """The nice-form builder make_nice replaced, kept verbatim with the
    function below as a node-for-node reference."""

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
        cur = set(from_bag)
        for v in sorted(set(from_bag) - set(to_bag)):
            cur.remove(v)
            node = self.add("forget", tuple(sorted(cur)), (node,), v)
        for v in sorted(set(to_bag) - set(from_bag)):
            cur.add(v)
            node = self.add("introduce", tuple(sorted(cur)), (node,), v)
        return node


def reference_make_nice(td):
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

    builder = _ReferenceNiceBuilder()
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


@pytest.mark.parametrize("family", FAMILIES)
def test_make_nice_matches_reference(family):
    ell = 2 if family == "clique-reduction" else None
    for n in range(2, 21):
        for seed in range(6):
            g = build_family(family, n, 2, 5, seed, ell).graph
            tds = [minfill_decomposition(g)]
            if is_chordal(g):
                tds.append(clique_tree(g))
            for td in tds:
                nice = make_nice(td)
                want = reference_make_nice(td)
                assert nice.nodes == want.nodes and nice.root == want.root
                verify_nice(nice)


def test_make_nice_rejects_exactly_the_non_trees_verify_rejects():
    rng = random.Random(27)
    rejected = 0
    for _ in range(1500):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        td = mutated(rng, g, minfill_decomposition(g))
        verdict = outcome(verify_decomposition, g, td)
        if verdict and verdict[0] is NotATreeError:
            with pytest.raises(NotATreeError) as exc:
                make_nice(td)
            assert str(exc.value) == verdict[1]
            rejected += 1
        else:
            nice = make_nice(td)
            want = reference_make_nice(td)
            assert nice.nodes == want.nodes and nice.root == want.root
    assert rejected >= 100


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


def test_bounded_minfill_matches_reference_on_dense_graphs():
    """On graphs of density >= 0.5, where most bounds are refused before
    any fill is counted, every bound from 1 to n gives the reference's
    decomposition or None exactly as its width says."""
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 22)
        g = random_graph(rng, n, rng.uniform(0.5, 1.0))
        if g.m < 0.5 * n * (n - 1) / 2:
            continue
        want = reference_minfill(g)
        for bound in range(1, n + 1):
            got = minfill_decomposition(g, max_bag=bound)
            assert got == (want if want.width + 1 <= bound else None), (n, bound)
