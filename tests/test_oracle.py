import random

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
