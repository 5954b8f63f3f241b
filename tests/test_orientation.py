import itertools
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
from fkdiv.graphs import Graph, canonical_edge
from fkdiv.orientation import (
    Orientation,
    complement_orientation,
    is_cocomparability,
    topological_sort,
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


def test_orientation_rejects_cycles_and_checks_transitivity():
    with pytest.raises(CycleDetectedError):
        Orientation(2, [(0, 1), (1, 0)])
    with pytest.raises(NotComparabilityError):
        Orientation(3, [(0, 1), (1, 2)])
    ok = Orientation(3, [(0, 1), (1, 2), (0, 2)])
    assert ok.out_neighbors(0) == (1, 2)
    assert ok.in_neighbors(2) == (0, 1)
    assert (0, 1) in ok and (1, 0) not in ok


def test_topological_sort_examples():
    assert topological_sort(3, []) == (0, 1, 2)
    assert topological_sort(3, [(2, 0)]) == (1, 2, 0)
    assert topological_sort(3, [(0, 1), (1, 2)]) == (0, 1, 2)
    with pytest.raises(CycleDetectedError):
        topological_sort(2, [(0, 1), (1, 0)])


def test_k2_orientation():
    orient = transitive_orientation(Graph(2, [(0, 1)]))
    assert orient.arcs == frozenset({(0, 1)})


def test_complement_of_p4_orientation():
    g = Graph(4, [(0, 2), (0, 3), (1, 3)])
    orient = transitive_orientation(g)
    assert orient.arcs == frozenset({(0, 2), (0, 3), (1, 3)})


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
    order = topological_sort(g.n, orient.arcs)
    assert sorted(order) == [0, 1, 2, 3]
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in orient.arcs)


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
    arcs = orient.arcs
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
    assert {tuple(sorted(a)) for a in orient.arcs} == set(comp.edges)


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
    with patch.object(orientation, "Orientation", lambda n, arcs: arcs):
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
