"""Metamorphic checks of the default ordered route beyond the oracle's size.

Permutation graphs with n 30-40 are far past brute force, so each check
compares two solves of related instances: relabeling vertices, permuting
agents, adding an isolated zero-profit item, and scaling profits (which
also moves the states from packed bitmaps to dicts).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fkdiv.cocomp import solve_cocomparability
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.profiles import check_coloring, profile_of, uses_bitset


def solve(inst):
    """Pruned profiles and best value by the route `fkdiv solve` takes,
    after checking every witness the set can trace."""
    ps = solve_cocomparability(inst, witnesses=True, prune=True)
    for profile, witness in ps.items():
        check_coloring(inst.graph, witness)
        assert profile_of(inst, witness) == profile
    return set(ps.profiles()), ps.best()[0]


def relabeled(inst, perm):
    graph = Graph(inst.n, [(perm[u], perm[v]) for u, v in inst.graph.edges])
    rows = []
    for row in inst.profits:
        new = [0] * inst.n
        for v, p in enumerate(row):
            new[perm[v]] = p
        rows.append(new)
    return Instance(graph, rows)


def check_invariants(inst, rng):
    profiles, value = solve(inst)

    perm = list(range(inst.n))
    rng.shuffle(perm)
    assert solve(relabeled(inst, perm)) == (profiles, value)

    agents = list(range(inst.k))
    rng.shuffle(agents)
    permuted = inst.with_profits([inst.profits[a] for a in agents])
    want = {tuple(p[a] for a in agents) for p in profiles}
    assert solve(permuted) == (want, value)

    isolated = Instance(
        Graph(inst.n + 1, inst.graph.edges), [row + (0,) for row in inst.profits]
    )
    assert solve(isolated) == (profiles, value)

    c = 2
    while uses_bitset(inst.k, c * inst.qbound):
        c += 1
    scaled = inst.with_profits([[c * p for p in row] for row in inst.profits])
    want = {tuple(c * q for q in p) for p in profiles}
    assert solve(scaled) == (want, c * value)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=30, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_permutation_two_agents(n, max_profit, seed):
    inst = build_family("permutation", n, 2, max_profit, seed).instance
    check_invariants(inst, random.Random(seed))


def test_permutation_three_agents():
    inst = build_family("permutation", 30, 3, 1, 3).instance
    check_invariants(inst, random.Random(3))
