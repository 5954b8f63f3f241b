import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from fkdiv.errors import BudgetExceededError
from fkdiv.graphs import Graph, Instance
from fkdiv.oracle import (
    brute_force,
    decide_satisfaction_at_least,
    max_weight_independent_set,
)
from fkdiv.profiles import check_coloring, profile_of


def test_mwis_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    value, picked = max_weight_independent_set(g, (5, 2, 9))
    assert value == 9
    assert picked == (2,)


def test_mwis_path_skips_middle():
    g = Graph(3, [(0, 1), (1, 2)])
    value, picked = max_weight_independent_set(g, (4, 5, 4))
    assert value == 8
    assert picked == (0, 2)


def test_mwis_budget():
    with pytest.raises(BudgetExceededError):
        max_weight_independent_set(Graph(30, []), (1,) * 30, budget=10)


def test_brute_force_single_vertex():
    inst = Instance(Graph(1, []), ((7,), (5,)))
    res = brute_force(inst)
    assert res.optimum == 0
    assert res.profiles == frozenset({(0, 0), (7, 0), (0, 5)})


def test_brute_force_two_classes_on_k2():
    inst = Instance(Graph(2, [(0, 1)]), ((6, 1), (1, 6)))
    res = brute_force(inst)
    assert res.optimum == 6
    assert res.witness == ((0,), (1,))


def test_brute_force_witness_is_feasible_and_consistent():
    rng = random.Random(1)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3), 8, 0.4)
        res = brute_force(inst)
        check_coloring(inst.graph, res.witness)
        prof = profile_of(inst, res.witness)
        assert min(prof) == res.optimum
        assert prof in res.profiles
        assert max(min(p) for p in res.profiles) == res.optimum


def test_brute_force_budget():
    inst = Instance(Graph(20, []), ((1,) * 20,))
    with pytest.raises(BudgetExceededError):
        brute_force(inst, budget=100)


def recursive_brute_force(instance):
    """Frozen recursive search: (optimum, witness, profiles), the first
    assignment in search order winning ties."""
    n, k = instance.n, instance.k
    masks, profits = instance.graph.masks, instance.profits
    assign, class_mask, cur = [0] * n, [0] * (k + 1), [0] * (k + 1)
    best = [-1, None]
    profiles = set()

    def rec(v):
        if v == n:
            prof = tuple(cur[1:])
            profiles.add(prof)
            if min(prof) > best[0]:
                best[:] = [min(prof), assign.copy()]
            return
        assign[v] = 0
        rec(v + 1)
        for c in range(1, k + 1):
            if class_mask[c] & masks[v]:
                continue
            assign[v] = c
            class_mask[c] |= 1 << v
            cur[c] += profits[c - 1][v]
            rec(v + 1)
            class_mask[c] &= ~(1 << v)
            cur[c] -= profits[c - 1][v]
        assign[v] = 0

    rec(0)
    witness = tuple(
        tuple(v for v in range(n) if best[1][v] == c) for c in range(1, k + 1)
    )
    return best[0], witness, frozenset(profiles)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_brute_force_matches_recursive_search(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(0, 7), rng.randint(1, 3), 5, rng.random())
    res = brute_force(inst)
    assert (res.optimum, res.witness, res.profiles) == recursive_brute_force(inst)


def test_brute_force_runs_deeper_than_the_recursion_limit():
    n = 300
    inst = Instance(Graph(n, combinations(range(n), 2)), (tuple(range(1, n + 1)),))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = brute_force(inst, budget=2**n)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.optimum, res.witness) == (n, ((n - 1,),))
    assert len(res.profiles) == n + 1


def test_decide_trivial_and_budget():
    inst = Instance(Graph(2, [(0, 1)]), ((6, 1), (1, 6)))
    assert decide_satisfaction_at_least(inst, 0)
    assert decide_satisfaction_at_least(inst, -3)
    assert decide_satisfaction_at_least(inst, 6)
    assert not decide_satisfaction_at_least(inst, 7)
    big = Instance(Graph(18, []), ((1,) * 18, (1,) * 18))
    with pytest.raises(BudgetExceededError):
        decide_satisfaction_at_least(big, 10, budget=40)
    assert not decide_satisfaction_at_least(big, 10)


def test_decide_deep_search_is_iterative():
    # q equals the total profit, so the search must take all 3000 items
    # and visits one node per depth, 3001 in all.
    inst = Instance(Graph(3000, []), ((1,) * 3000,))
    assert decide_satisfaction_at_least(inst, 3000, budget=3001)
    with pytest.raises(BudgetExceededError):
        decide_satisfaction_at_least(inst, 3000, budget=3000)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decide_matches_brute_force(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2), 6, 0.5)
    opt = brute_force(inst).optimum
    q = data.draw(st.integers(min_value=0, max_value=inst.qbound + 1))
    assert decide_satisfaction_at_least(inst, q) == (opt >= q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_k1_brute_force_equals_mwis(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), 1, 9, 0.4)
    res = brute_force(inst)
    value, _ = max_weight_independent_set(inst.graph, inst.profits[0])
    assert res.optimum == value
