import random
from fractions import Fraction
from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_witnesses, random_instance
import fkdiv.cocomp as cocomp
from fkdiv.cocomp import predecessor_layers, solve_cocomparability, start_key, state_table
from fkdiv.fptas import solve_approx
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import complement_orientation, is_cocomparability
from fkdiv.profiles import ProfileSet, ProfileSpace, uses_bitset
from fkdiv.rounding import RoundedProfileSpace, RoundingGrid


def test_path_instance_matches_hand_computed():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    inst = Instance(g, ((3, 1, 4, 2), (1, 5, 1, 5)))
    ps = solve_cocomparability(inst, witnesses=True)
    value, profile, witness = ps.best()
    assert value == 7
    assert profile == (7, 10)
    assert witness == ((0, 2), (1, 3))


def test_single_vertex_both_classes():
    inst = Instance(Graph(1, []), ((4,), (9,)))
    ps = solve_cocomparability(inst)
    assert set(ps.profiles()) == {(0, 0), (4, 0), (0, 9)}
    assert ps.best()[0] == 0


def test_pruned_solve_keeps_best_value():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3), 7, 0.4)
        if not is_cocomparability(inst.graph):
            continue
        full = solve_cocomparability(inst)
        pruned = solve_cocomparability(inst, prune=True)
        assert full.best()[0] == pruned.best()[0]
        assert len(pruned) <= len(full)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_matches_brute_force_profiles_and_value(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3), 6, 0.45)
    assume(is_cocomparability(inst.graph))
    want = brute_force(inst)
    ps = solve_cocomparability(inst, witnesses=True)
    assert frozenset(ps.profiles()) == want.profiles
    assert ps.best()[0] == want.optimum
    assert_witnesses(inst, ps, limit=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_witnesses_cover_every_profile(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 2), 5, 0.4)
    assume(is_cocomparability(inst.graph))
    assert_witnesses(inst, solve_cocomparability(inst, witnesses=True))


def pareto(profiles):
    return {
        p for p in profiles
        if not any(q != p and all(a >= b for a, b in zip(q, p)) for q in profiles)
    }


def assert_traced(inst, prune, want_profiles):
    ps = solve_cocomparability(inst, witnesses=True, prune=prune)
    assert frozenset(ps.profiles()) == want_profiles
    assert ps.best()[0] == max(min(p) for p in want_profiles)
    assert_witnesses(inst, ps)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6), st.booleans(), st.sampled_from([1, 70000])
)
def test_traceback_matches_brute_force(seed, prune, scale):
    """scale 70000 pushes (Q+1)^k past BITSET_LIMIT, so states are dicts."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3), 6, 0.45)
    assume(is_cocomparability(inst.graph))
    if scale > 1:
        inst = inst.with_profits(
            [[scale * x + rng.randint(0, 9) for x in row] for row in inst.profits]
        )
    assume(uses_bitset(inst.k, inst.qbound) == (scale == 1))
    want = brute_force(inst).profiles
    assert_traced(inst, prune, frozenset(pareto(want)) if prune else want)


def test_traceback_with_all_zero_profits():
    inst = Instance(Graph(4, [(0, 1), (2, 3)]), ((0, 0, 0, 0), (0, 0, 0, 0)))
    for prune in (False, True):
        ps = solve_cocomparability(inst, witnesses=True, prune=prune)
        assert ps.profiles() == [(0, 0)]
        assert ps.best()[:2] == (0, (0, 0))
        assert_witnesses(inst, ps)


def test_default_solve_keeps_bitset_cells_and_copies_no_coloring(monkeypatch):
    inst = Instance(
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        ((3, 1, 4, 1, 5, 9), (2, 6, 5, 3, 5, 8)),
    )
    assert uses_bitset(inst.k, inst.qbound)
    tables = []
    prunes = []
    layer_prunes = []
    prune = ProfileSet.prune_dominated
    step = cocomp.layer_step

    def counting(pset):
        prunes.append(len(pset))
        return prune(pset)

    def stepping(table, *args):
        before = len(prunes)
        step(table, *args)
        layer_prunes.append(len(prunes) - before)
        tables.append(table)

    monkeypatch.setattr(ProfileSet, "prune_dominated", counting)
    monkeypatch.setattr(cocomp, "layer_step", stepping)
    ps = solve_cocomparability(inst, witnesses=True, prune=True)
    # The layers prune no packed cell; only the final union is pruned.
    assert layer_prunes == [0] * inst.n and len(prunes) == 1
    assert_witnesses(inst, ps, limit=0)
    assert len(tables[-1]) > 1
    assert all(cell._bits is not None for cell in tables[-1].values())
    layers = predecessor_layers(complement_orientation(inst.graph))
    pruning, exact = (
        state_table(inst, layers, ProfileSpace.for_instance(inst, prune=p)) for p in (True, False)
    )
    assert {key: cell._bits for key, cell in pruning.items()} == {
        key: cell._bits for key, cell in exact.items()
    }
    assert len(prunes) == 1


def reference_layer_step(table, j, vertex, pred_positions, vertex_profits, space):
    """The layer step before the row index, frozen: every class scans
    every state key for a predecessor position, and each source feeding
    a target is extended and folded into it. Exact sets give the same
    cell as a union extended once; rounded ones collide only at the
    extended truths' own keys."""
    k = space.k
    accum = [dict() for _ in range(k)]
    for key, cell in table.items():
        for s in range(k):
            if key[s] in pred_positions:
                target = key[:s] + (j,) + key[s + 1 :]
                acc = accum[s].get(target)
                if acc is None:
                    acc = space.empty()
                    accum[s][target] = acc
                acc.union_update(cell.extended(s, vertex_profits[s]))
    for s in range(k):
        for target, acc in accum[s].items():
            table[target] = space.finalize(acc)


def reference_table(instance, orientation, space):
    """The final table of the frozen layer loop."""
    pos = {v: i + 1 for i, v in enumerate(orientation.order)}
    table = {(0,) * space.k: space.zero()}
    for j, v in enumerate(orientation.order, start=1):
        preds = {0}
        preds.update(pos[u] for u in orientation.in_neighbors(v))
        profits = [instance.profit(s, v) for s in range(instance.k)]
        reference_layer_step(table, j, v, preds, profits, space)
    return table


def reference_space(kind, inst, rng):
    """(instance, space) for one of the four state spaces of the DP."""
    if kind != "bitset":
        # Profits in the tens of thousands push (Q+1)^k past the bitmap
        # limit and make rounded keys collide.
        inst = inst.with_profits(
            [[70000 * x + rng.randint(0, 9) for x in row] for row in inst.profits]
        )
    if kind == "rounded":
        eps = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        return inst, RoundedProfileSpace(inst.k, RoundingGrid.for_instance(inst, eps))
    assume(uses_bitset(inst.k, inst.qbound) == (kind == "bitset"))
    return inst, ProfileSpace.for_instance(inst, prune=kind == "pruned")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["bitset", "sets", "pruned", "rounded"]),
)
def test_row_index_builds_the_reference_tables(seed, kind):
    rng = random.Random(seed)
    n, k = rng.randint(1, 9), rng.randint(1, 3)
    inst = random_instance(rng, n, k, 5, rng.uniform(0.3, 0.8))
    assume(is_cocomparability(inst.graph))
    inst, space = reference_space(kind, inst, rng)
    orientation = complement_orientation(inst.graph)
    want = reference_table(inst, orientation, space)
    got = state_table(inst, predecessor_layers(orientation), space)
    assert got.keys() == want.keys()
    for key, cell in want.items():
        assert got[key].profiles() == cell.profiles(), key
        if kind == "rounded":
            assert got[key].keyed() == cell.keyed(), key


def complete_instance(rng, n, k, cap):
    """K_n: its complement has no arcs, so every vertex's only
    predecessor position is 0."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [[rng.randint(0, cap) for _ in range(n)] for _ in range(k)]
    return Instance(Graph(n, edges), rows)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["permutation", "interval", "complete"]),
)
def test_packed_gather_builds_the_reference_tables_at_larger_n(seed, family):
    """Packed exact tables for k 1-3 and n up to 40, against the frozen
    loop. Profits stay small enough for every k to pack. The first
    vertex of every order has no in-neighbor, and K_n has none at all,
    so the lone-predecessor pick runs on every example."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(1, 40)
    cap = (9, 9, 1)[k - 1]
    if family == "complete":
        inst = complete_instance(rng, n, k, cap)
    else:
        inst = build_family(family, n, k, cap, seed).instance
    assert uses_bitset(inst.k, inst.qbound)
    orientation = complement_orientation(inst.graph)
    lone = [v for v in orientation.order if not orientation.in_neighbors(v)]
    assert lone[0] == orientation.order[0]
    if family == "complete":
        assert len(lone) == n
    space = ProfileSpace.for_instance(inst, prune=rng.random() < 0.5)
    want = reference_table(inst, orientation, ProfileSpace.for_instance(inst))
    got = state_table(inst, predecessor_layers(orientation), space)
    assert got.keys() == want.keys()
    for key, cell in want.items():
        assert got[key]._bits == cell._bits, key


def test_layer_step_runs_once_per_layer_through_the_module_global(monkeypatch):
    """A wrapper on `cocomp.layer_step` sees every layer, and reads the
    table from the first argument after each call, as a tracer would."""
    inst = build_family("permutation", 12, 2, 3, 7).instance
    assert uses_bitset(inst.k, inst.qbound)
    calls = []
    step = cocomp.layer_step

    def counting(*args):
        step(*args)
        calls.append(len(args[0]))

    monkeypatch.setattr(cocomp, "layer_step", counting)
    solve_cocomparability(inst, witnesses=True, prune=True).best()
    assert len(calls) == inst.graph.n
    assert calls == sorted(calls) and calls[-1] > 1
    calls.clear()
    solve_approx(inst, Fraction(1, 2))
    assert len(calls) == inst.graph.n
    assert calls[-1] > 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["bitset", "sets", "pruned", "rounded"]),
    st.sampled_from(["permutation", "interval"]),
)
def test_no_layer_changes_an_earlier_layers_state(seed, kind, family):
    """Every state keeps the cell object its layer wrote, holding what it
    held then, so a check of the finished table checks every layer as it
    was built. A wrapper on `cocomp.layer_step` records each new key's
    cell and its profiles (its keyed truths when rounded)."""
    rng = random.Random(seed)
    inst = build_family(family, rng.randint(1, 9), rng.randint(1, 3), 5, seed).instance
    inst, space = reference_space(kind, inst, rng)
    written = {}
    step = cocomp.layer_step

    def contents(cell):
        return getattr(cell, "keyed", cell.profiles)()

    def record(table):
        for key, cell in table.items():
            if key not in written:
                written[key] = cell, contents(cell)

    def recording(table, *args):
        record(table)
        step(table, *args)
        record(table)

    layers = predecessor_layers(complement_orientation(inst.graph))
    with patch.object(cocomp, "layer_step", recording):
        table = state_table(inst, layers, space)
    assert written.keys() == table.keys()
    for key, (cell, held) in written.items():
        assert table[key] is cell, key
        assert contents(cell) == held, key


def frozen_start_key(table, profile):
    """The walk-back's first scan as it stood: every cell asked for the
    profile through its generic membership test."""
    return min((key for key, cell in table.items() if profile in cell), default=None)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_start_key_matches_frozen_scan(seed):
    """The smallest key holding a profile, for every profile of the final
    table and for profiles no cell holds: entries one past qbound or
    below zero, another arity, and a lowered or raised entry. Only packed
    tables take their own scan; on other tables `start_key` is the frozen
    scan, and the witness checks of set-mode and rounded solves cover it."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 9), rng.randint(1, 3)
    inst = random_instance(rng, n, k, 5, rng.uniform(0.3, 0.8))
    assume(is_cocomparability(inst.graph))
    inst, space = reference_space("bitset", inst, rng)
    table = state_table(inst, predecessor_layers(complement_orientation(inst.graph)), space)
    profiles = space.union(table.values()).profiles()
    probes = list(profiles)
    for p in profiles:
        s = rng.randrange(k)
        probes += [
            p[:s] + (p[s] + d,) + p[s + 1 :] for d in (-1, 1, inst.qbound + 1 - p[s])
        ]
        probes += [p + (0,), p[:-1], list(p)]
    for p in probes:
        assert start_key(table, p) == frozen_start_key(table, p), p
