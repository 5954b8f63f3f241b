import random
from fractions import Fraction
from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_witnesses, random_instance, reference_union
import fkdiv.cocomp as cocomp
from fkdiv.biconvex import solve_biconvex
from fkdiv.cocomp import frontier_tables, solve_cocomparability
from fkdiv.fptas import solve_approx
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import complement_orientation, is_cocomparability
from fkdiv.profiles import BITSET_LIMIT, ProfileSet, ProfileSpace, uses_bitset
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
        tables.append(step(table, *args))
        layer_prunes.append(len(prunes) - before)
        return tables[-1]

    monkeypatch.setattr(ProfileSet, "prune_dominated", counting)
    monkeypatch.setattr(cocomp, "layer_step", stepping)
    ps = solve_cocomparability(inst, witnesses=True, prune=True)
    # The layers prune no packed cell; only the final union is pruned.
    assert layer_prunes == [0] * inst.n and len(prunes) == 1
    assert_witnesses(inst, ps, limit=0)
    assert max(map(len, tables)) > 1
    assert all(type(cell) is int for table in tables for cell in table.values())
    order = complement_orientation(inst.graph).order
    pruning, exact = (
        frontier_tables(inst, order, ProfileSpace.for_instance(inst, prune=p)) for p in (True, False)
    )
    assert pruning == exact
    assert len(prunes) == 1


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


# P4 and a triangle: the complement joins their complements, so it is
# transitively orientable.
TWO_COMPONENTS = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["bitset", "sets", "pruned"]),
    st.sampled_from(["permutation", "interval", "edgeless", "two-component"]),
)
def test_final_set_equals_the_reference_union(seed, kind, family):
    """The frontier DP's final set against the union of the frozen
    ordered loop's cells, finalized by the same space, on packed,
    set-mode and pruned set-mode spaces at k 1-3."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    if family == "two-component":
        rows = [[rng.randint(0, 5) for _ in range(TWO_COMPONENTS.n)] for _ in range(k)]
        inst = Instance(TWO_COMPONENTS, rows)
    else:
        inst = build_family(family, rng.randint(1, 9), k, 5, seed).instance
    inst, space = reference_space(kind, inst, rng)
    got = solve_cocomparability(inst, space=space)
    assert got.profiles() == reference_union(inst, space).profiles()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["bitset", "sets", "pruned"]),
    st.sampled_from(["permutation", "interval", "edgeless"]),
    st.sampled_from([0, 1, 2]),
)
def test_zero_heavy_final_set_equals_the_reference_union(seed, kind, family, cap):
    """The frozen loop puts a vertex in every class its predecessors
    allow, profit 0 or not; the frontier DP never puts one where its
    profit is 0. Their final sets agree on max-profit 0-2 with one
    vertex worth 0 to every class, on packed, set-mode (a space whose
    bound is past the bitmap limit) and pruned set-mode spaces at k 1-3."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    inst = build_family(family, rng.randint(1, 9), k, cap, seed).instance
    dead = rng.randrange(inst.n)
    rows = [[0 if v == dead else p for v, p in enumerate(row)] for row in inst.profits]
    inst = inst.with_profits(rows)
    qbound = inst.qbound if kind == "bitset" else BITSET_LIMIT
    space = ProfileSpace(k, qbound, prune=kind == "pruned")
    got = solve_cocomparability(inst, space=space)
    assert got.profiles() == reference_union(inst, space).profiles()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["permutation", "interval", "biconvex"]),
    st.booleans(),
)
def test_no_witness_puts_a_vertex_where_its_profit_is_0(seed, family, prune):
    """Every witness of both frontier routes, for every profile, is a
    valid coloring that gives each vertex only to a class that values it
    (max-profit 1-2, k 1-3)."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    parsed = build_family(family, rng.randint(1, 10), k, rng.randint(1, 2), seed)
    inst = parsed.instance
    if family == "biconvex":
        ps = solve_biconvex(inst, parsed.order_a, parsed.order_b, witnesses=True, prune=prune)
    else:
        ps = solve_cocomparability(inst, witnesses=True, prune=prune)
    assert_witnesses(inst, ps)
    for _, witness in ps.items():
        assert all(inst.profit(c, v) for c, cls in enumerate(witness) for v in cls), witness


def complete_instance(rng, n, k, cap):
    """K_n: every vertex's later neighbors are all later vertices, so
    each class takes at most one vertex."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [[rng.randint(0, cap) for _ in range(n)] for _ in range(k)]
    return Instance(Graph(n, edges), rows)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["permutation", "interval", "complete"]),
)
def test_packed_gather_builds_the_reference_tables_at_larger_n(seed, family):
    """Packed exact final sets for k 1-3 and n up to 40, pruned or not,
    against the union of the frozen loop's unpruned cells. Profits stay
    small enough for every k to pack."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(1, 40)
    cap = (9, 9, 1)[k - 1]
    if family == "complete":
        inst = complete_instance(rng, n, k, cap)
    else:
        inst = build_family(family, n, k, cap, seed).instance
    assert uses_bitset(inst.k, inst.qbound)
    space = ProfileSpace.for_instance(inst, prune=rng.random() < 0.5)
    want = reference_union(inst, space, ProfileSpace.for_instance(inst))
    assert solve_cocomparability(inst, space=space)._bits == want._bits


def test_layer_step_runs_once_per_layer_through_the_module_global(monkeypatch):
    """A wrapper on `cocomp.layer_step` sees one call per vertex on the
    exact cocomparability route, on `solve_approx` and on
    `solve_biconvex`, each with the table the call before it returned as
    its first argument, as a tracer reads it."""
    inst = build_family("permutation", 12, 2, 3, 7).instance
    parsed = build_family("biconvex", 12, 2, 3, 7)
    assert uses_bitset(inst.k, inst.qbound)
    calls = []
    step = cocomp.layer_step

    def recording(table, *args):
        calls.append((table, step(table, *args)))
        return calls[-1][1]

    monkeypatch.setattr(cocomp, "layer_step", recording)
    for solve in (
        lambda: solve_cocomparability(inst, witnesses=True, prune=True).best(),
        lambda: solve_approx(inst, Fraction(1, 2)),
        lambda: solve_biconvex(
            parsed.instance, parsed.order_a, parsed.order_b, witnesses=True, prune=True
        ).best(),
    ):
        calls.clear()
        solve()
        assert len(calls) == 12
        assert len(calls[0][0]) == 1
        assert all(table is made for (_, made), (table, _) in zip(calls, calls[1:]))
        assert max(len(table) for table, _ in calls) > 1


def test_witness_free_solve_keeps_only_the_last_layer(monkeypatch):
    """Without witnesses nothing walks the layers back, so the solve
    keeps one table instead of n + 1, and it is the last one."""
    inst = build_family("interval", 12, 2, 3, 7).instance
    order = complement_orientation(inst.graph).order
    tables = frontier_tables(inst, order, ProfileSpace.for_instance(inst))
    kept = []
    build = cocomp.frontier_tables

    def recording(*args, **kwargs):
        kept.append(build(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(cocomp, "frontier_tables", recording)
    for witnesses in (False, True):
        solve_cocomparability(inst, witnesses=witnesses)
    assert kept == [tables[-1:], tables]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["bitset", "sets", "pruned", "rounded"]),
    st.sampled_from(["permutation", "interval"]),
)
def test_no_layer_changes_an_earlier_layers_state(seed, kind, family):
    """Every kept layer table is the table its layer returned, holding
    the same cell objects with what they held then, so the walk-back and
    `paired_rounding_check` read each layer as it was built. A wrapper on
    `cocomp.layer_step` records each returned table, its cells and their
    contents (keyed truths when rounded, the bitmap when packed)."""
    rng = random.Random(seed)
    inst = build_family(family, rng.randint(1, 9), rng.randint(1, 3), 5, seed).instance
    inst, space = reference_space(kind, inst, rng)
    written = []
    step = cocomp.layer_step

    def contents(cell):
        return cell if type(cell) is int else getattr(cell, "keyed", cell.profiles)()

    def recording(table, *args):
        made = step(table, *args)
        written.append((made, dict(made), {key: contents(cell) for key, cell in made.items()}))
        return made

    order = complement_orientation(inst.graph).order
    with patch.object(cocomp, "layer_step", recording):
        tables = frontier_tables(inst, order, space)
    assert len(written) == inst.n == len(tables) - 1
    for table, (made, cells, held) in zip(tables[1:], written):
        assert table is made and table.keys() == cells.keys()
        for key, cell in cells.items():
            assert table[key] is cell, key
            assert contents(cell) == held[key], key
