import heapq
import itertools
import time
from collections import deque
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orientation_exists_bruteforce
from fkdiv import orientation
from fkdiv.errors import (
    CycleDetectedError,
    NotCocomparabilityError,
    NotComparabilityError,
)
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, canonical_edge, iter_bits
from fkdiv.orientation import (
    Orientation,
    complement_orientation,
    is_cocomparability,
    transitive_orientation,
)


def graphs_up_to(max_n):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])

    return build()


def arcs_of(pred):
    """The arcs (u, v), meaning u -> v, of per-vertex predecessor masks."""
    return frozenset((u, v) for v, mask in enumerate(pred) for u in iter_bits(mask))


def pred_masks(n, arcs):
    """Per-vertex predecessor masks of an arc list."""
    pred = [0] * n
    for u, v in arcs:
        pred[v] |= 1 << u
    return pred


def reference_topological_sort(n, arcs):
    """Frozen Kahn's algorithm, always popping the lowest-numbered ready
    vertex: the linear extension `Orientation.order` must reproduce."""
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        indeg[v] += 1
        succ[u].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != n:
        raise CycleDetectedError("arc set contains a directed cycle")
    return tuple(order)


def test_orientation_rejects_cycles_and_checks_transitivity():
    with pytest.raises(CycleDetectedError):
        Orientation([0b10, 0b01])  # 0 -> 1 and 1 -> 0
    with pytest.raises(NotComparabilityError, match=r"\(0,1\),\(1,2\) present but \(0,2\)"):
        Orientation([0, 0b001, 0b010])  # 0 -> 1 -> 2 without 0 -> 2
    with pytest.raises(ValueError, match="self-arc at 1"):
        Orientation([0, 0b010])
    with pytest.raises(ValueError, match="outside"):
        Orientation([0, 0b100])  # an arc from vertex 2 of a 2-vertex order
    with pytest.raises(ValueError, match="outside"):
        Orientation([0, -1])
    ok = Orientation(pred_masks(3, [(0, 1), (1, 2), (0, 2)]))
    assert ok.pred == (0, 0b001, 0b011)
    assert ok.in_neighbors(2) == (0, 1)
    assert ok.order == (0, 1, 2)
    assert arcs_of(ok.pred) == {(0, 1), (1, 2), (0, 2)}


def test_topological_sort_examples():
    assert Orientation(pred_masks(3, [])).order == (0, 1, 2)
    assert Orientation(pred_masks(3, [(2, 0)])).order == (1, 2, 0)
    assert Orientation(pred_masks(3, [(0, 1), (1, 2), (0, 2)])).order == (0, 1, 2)
    assert Orientation(pred_masks(4, [(3, 0), (3, 1), (2, 1)])).order == (2, 3, 0, 1)
    assert Orientation([]).order == ()
    with pytest.raises(CycleDetectedError):
        Orientation(pred_masks(2, [(0, 1), (1, 0)]))


@settings(max_examples=150, deadline=None)
@given(graphs_up_to(9))
def test_order_matches_reference_topological_sort(g):
    for graph in (g, g.complement()):
        try:
            orient = transitive_orientation(graph)
        except NotComparabilityError:
            continue
        assert orient.order == reference_topological_sort(graph.n, arcs_of(orient.pred))


def test_complement_orientation_of_permutation_n400_is_fast():
    g = build_family("permutation", 400, 2, 1, 1).graph
    start = time.perf_counter()
    orient = complement_orientation(g)
    assert time.perf_counter() - start < 1.0
    assert sorted(orient.order) == list(range(400))


def test_k2_orientation():
    orient = transitive_orientation(Graph(2, [(0, 1)]))
    assert arcs_of(orient.pred) == {(0, 1)}


def test_complement_of_p4_orientation():
    g = Graph(4, [(0, 2), (0, 3), (1, 3)])
    orient = transitive_orientation(g)
    assert arcs_of(orient.pred) == {(0, 2), (0, 3), (1, 3)}


def test_c5_has_no_transitive_orientation():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(NotComparabilityError):
        transitive_orientation(c5)
    with pytest.raises(NotCocomparabilityError):
        complement_orientation(c5)
    assert not is_cocomparability(c5)


def test_cocomparability_order_spans_interval_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    orient = complement_orientation(g)
    order = orient.order
    assert sorted(order) == [0, 1, 2, 3]
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in arcs_of(orient.pred))


@settings(max_examples=120, deadline=None)
@given(graphs_up_to(5))
def test_forcing_agrees_with_exhaustive_search(g):
    want = orientation_exists_bruteforce(g)
    try:
        orient = transitive_orientation(g)
    except NotComparabilityError:
        assert not want
        return
    assert want
    arcs = arcs_of(orient.pred)
    assert len(arcs) == g.m
    for (x, y), (y2, z) in itertools.product(arcs, arcs):
        if y == y2 and x != z:
            assert (x, z) in arcs


@settings(max_examples=60, deadline=None)
@given(graphs_up_to(6))
def test_successful_orientations_are_valid(g):
    comp = g.complement()
    try:
        orient = transitive_orientation(comp)
    except NotComparabilityError:
        return
    assert {tuple(sorted(a)) for a in arcs_of(orient.pred)} == set(comp.edges)


def reference_forcing(graph):
    """Frozen edge-set forcing loop the bitmask version must reproduce:
    the arcs it hands out, or the message of the first conflict."""
    unassigned = set(graph.edges)
    arcs = set()
    while unassigned:
        active = frozenset(unassigned)
        seed = min(unassigned)
        chosen = {seed: seed}
        queue = deque([seed])

        def force(edge, want):
            prev = chosen.get(edge)
            if prev is None:
                chosen[edge] = want
                queue.append(want)
            elif prev != want:
                raise NotComparabilityError(f"edge {edge} forced in both directions")

        while queue:
            x, y = queue.popleft()
            for c in graph.neighbors(x):
                xc, yc = canonical_edge(x, c), canonical_edge(y, c)
                if c != y and xc in active and yc not in active:
                    force(xc, (x, c))
            for c in graph.neighbors(y):
                xc, yc = canonical_edge(x, c), canonical_edge(y, c)
                if c != x and yc in active and xc not in active:
                    force(yc, (c, y))
        for edge, arc in chosen.items():
            arcs.add(arc)
            unassigned.discard(edge)
    return arcs


def forced_arcs(graph):
    """The arcs transitive_orientation's forcing hands out, taken before
    Orientation's transitivity check can reject them."""
    with patch.object(orientation, "Orientation", arcs_of):
        return transitive_orientation(graph)


def outcome(fn, graph):
    try:
        return frozenset(fn(graph))
    except NotComparabilityError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(graphs_up_to(9))
def test_forcing_matches_reference(g):
    assert outcome(forced_arcs, g) == outcome(reference_forcing, g)
