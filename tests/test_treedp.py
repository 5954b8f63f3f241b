import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_witnesses, random_instance
import fkdiv.treedp as treedp
from fkdiv.decomposition import (
    TreeDecomposition,
    is_chordal,
    make_nice,
    minfill_decomposition,
)
from fkdiv.errors import DecompositionError
from fkdiv.graphs import Graph, Instance
from fkdiv.oracle import brute_force
from fkdiv.profiles import uses_bitset
from fkdiv.treedp import solve_chordal, solve_on_decomposition, solve_treewidth


def test_independent_bag_single_class_has_four_colorings():
    inst = Instance(Graph(2, []), ((3, 5),))
    ps = solve_treewidth(
        inst, td=TreeDecomposition(bags=((0, 1),), edges=())
    )
    # uncolored/uncolored, 0 alone, 1 alone, both: four distinct colorings
    assert set(ps.profiles()) == {(0,), (3,), (5,), (8,)}


def test_adjacent_bag_pair_excludes_shared_class():
    inst = Instance(Graph(2, [(0, 1)]), ((3, 5),))
    ps = solve_treewidth(inst)
    assert set(ps.profiles()) == {(0,), (3,), (5,)}


def test_solve_on_declared_decomposition_verifies():
    g = Graph(2, [(0, 1)])
    inst = Instance(g, ((3, 5),))
    bad = TreeDecomposition(bags=((0,), (1,)), edges=((0, 1),))
    for solve in (solve_on_decomposition, lambda inst, td: solve_treewidth(inst, td=td)):
        with pytest.raises(DecompositionError):
            solve(inst, bad)
    good = TreeDecomposition(bags=((0, 1),), edges=())
    assert solve_on_decomposition(inst, good).best()[0] == 5


def test_solve_treewidth_accepts_explicit_decomposition():
    g = Graph(3, [(0, 1), (1, 2)])
    inst = Instance(g, ((1, 5, 2),))
    td = minfill_decomposition(g)
    assert solve_treewidth(inst, td=td).best()[0] == 5
    assert set(solve_treewidth(inst, td=td).profiles()) == {(0,), (1,), (2,), (3,), (5,)}


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_treewidth_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3), 6, 0.5)
    want = brute_force(inst)
    ps = solve_treewidth(inst, witnesses=True)
    assert frozenset(ps.profiles()) == want.profiles
    assert ps.best()[0] == want.optimum
    assert_witnesses(inst, ps, limit=0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_chordal_solver_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 2), 6, 0.5)
    if not is_chordal(inst.graph):
        return
    want = brute_force(inst)
    ps = solve_chordal(inst, witnesses=True)
    assert frozenset(ps.profiles()) == want.profiles
    assert ps.best()[0] == want.optimum


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hub_in_every_bag_matches_brute_force(data):
    """Star and caterpillar decompositions whose bags all hold one hub
    vertex, so every join meets the hub in each of its classes."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=3))
    hub = data.draw(st.integers(min_value=0, max_value=n - 1))
    groups = data.draw(st.integers(min_value=1, max_value=4))
    spine = data.draw(st.integers(min_value=1, max_value=groups))
    members = [[hub] for _ in range(groups)]
    for v in range(n):
        if v != hub:
            members[data.draw(st.integers(min_value=0, max_value=groups - 1))].append(v)
    allowed = sorted({
        (min(u, v), max(u, v)) for bag in members for u in bag for v in bag if u != v
    })
    edges = [e for e in allowed if data.draw(st.booleans())]
    rows = tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=6)) for _ in range(n))
        for _ in range(k)
    )
    tree = [(i - 1, i) for i in range(1, spine)]
    tree += [
        (data.draw(st.integers(min_value=0, max_value=spine - 1)), i)
        for i in range(spine, groups)
    ]
    td = TreeDecomposition(
        bags=tuple(tuple(sorted(bag)) for bag in members), edges=tuple(tree)
    )
    inst = Instance(Graph(n, edges), rows)
    ps = solve_on_decomposition(inst, td, witnesses=True)
    assert frozenset(ps.profiles()) == brute_force(inst).profiles
    assert_witnesses(inst, ps)


def test_pruned_treewidth_keeps_value():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3), 6, 0.5)
        assert (
            solve_treewidth(inst, prune=True).best()[0]
            == solve_treewidth(inst).best()[0]
        )


def test_default_solve_keeps_bitset_cells_and_copies_no_coloring(monkeypatch):
    inst = Instance(
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]),
        ((3, 1, 4, 1, 5, 9), (2, 6, 5, 3, 5, 8)),
    )
    assert is_chordal(inst.graph) and uses_bitset(inst.k, inst.qbound)
    kept = []

    def capturing(instance, nice, tables):
        kept.append(tables)
        return walk_back(instance, nice, tables)

    walk_back = treedp.walk_back
    monkeypatch.setattr(treedp, "walk_back", capturing)
    ps = solve_chordal(inst, witnesses=True, prune=True)
    assert_witnesses(inst, ps, limit=0)
    (tables,) = kept
    cells = [cell for table in tables.values() for cell in table.values()]
    assert len(cells) > len(tables) > 1
    assert all(cell._bits is not None for cell in cells)
