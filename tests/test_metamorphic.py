"""Metamorphic checks of the exact solvers beyond the oracle's size.

The instances are far past brute force, so each check compares two
solves of related instances: relabeling vertices (and a biconvex
ordering with them), permuting agents, adding an isolated zero-profit
item, and scaling profits (which also moves the states from packed
bitmaps to sets). Every solve checks every witness its pruned set
traces.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_witnesses, random_instance
from fkdiv.biconvex import solve_biconvex
from fkdiv.cocomp import solve_cocomparability
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.profiles import uses_bitset
from fkdiv.treedp import solve_chordal, solve_treewidth


def solve(solver, inst, orders):
    """Pruned profiles and best value by the route `fkdiv solve` takes,
    after checking every witness the set can trace."""
    ps = solver(inst, *orders, witnesses=True, prune=True)
    assert_witnesses(inst, ps)
    return set(ps.profiles()), ps.best()[0]


def relabeled(inst, orders, perm):
    graph = Graph(inst.n, [(perm[u], perm[v]) for u, v in inst.graph.edges])
    rows = []
    for row in inst.profits:
        new = [0] * inst.n
        for v, p in enumerate(row):
            new[perm[v]] = p
        rows.append(new)
    return Instance(graph, rows), tuple(tuple(perm[v] for v in o) for o in orders)


def check_invariants(solver, inst, rng, orders=()):
    profiles, value = solve(solver, inst, orders)

    perm = list(range(inst.n))
    rng.shuffle(perm)
    assert solve(solver, *relabeled(inst, orders, perm)) == (profiles, value)

    agents = list(range(inst.k))
    rng.shuffle(agents)
    permuted = inst.with_profits([inst.profits[a] for a in agents])
    want = {tuple(p[a] for a in agents) for p in profiles}
    assert solve(solver, permuted, orders) == (want, value)

    isolated = Instance(
        Graph(inst.n + 1, inst.graph.edges), [row + (0,) for row in inst.profits]
    )
    with_item = (orders[0] + (inst.n,), orders[1]) if orders else ()
    assert solve(solver, isolated, with_item) == (profiles, value)

    c = 2
    while uses_bitset(inst.k, c * inst.qbound):
        c += 1
    scaled = inst.with_profits([[c * p for p in row] for row in inst.profits])
    want = {tuple(c * q for q in p) for p in profiles}
    assert solve(solver, scaled, orders) == (want, c * value)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=30, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_permutation_two_agents(n, max_profit, seed):
    inst = build_family("permutation", n, 2, max_profit, seed).instance
    check_invariants(solve_cocomparability, inst, random.Random(seed))


def test_permutation_three_agents():
    inst = build_family("permutation", 30, 3, 1, 3).instance
    check_invariants(solve_cocomparability, inst, random.Random(3))


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=30, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_chordal_two_agents(n, max_profit, seed):
    inst = build_family("chordal", n, 2, max_profit, seed).instance
    check_invariants(solve_chordal, inst, random.Random(seed))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=18, max_value=22), st.integers(min_value=0, max_value=10**6))
def test_sparse_random_treewidth(n, seed):
    rng = random.Random(seed)
    inst = random_instance(rng, n, 2, 4, 0.2)
    check_invariants(solve_treewidth, inst, rng)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=16, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_biconvex_two_agents(n, seed):
    parsed = build_family("biconvex", n, 2, 4, seed)
    orders = (parsed.order_a, parsed.order_b)
    check_invariants(solve_biconvex, parsed.instance, random.Random(seed), orders)
