import itertools
import json
import random

import pytest

from conftest import assert_witnesses, reference_union
from fkdiv import cli
from fkdiv.biconvex import solve_biconvex
from fkdiv.bipartite import verify_biconvex_ordering
from fkdiv.cocomp import solve_cocomparability
from fkdiv.decomposition import is_chordal
from fkdiv.errors import OrderingNotBiconvexError
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance, iter_bits
from fkdiv.instance_io import ParsedInstance, serialize_instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import is_cocomparability
from fkdiv.profiles import ProfileSpace, uses_bitset
from fkdiv.treedp import solve_treewidth


def test_verify_ordering_cases():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_biconvex_ordering(c4, (0, 2), (1, 3))
    star = Graph(3, [(0, 2), (1, 2)])
    assert verify_biconvex_ordering(star, (0, 1), (2,))
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not verify_biconvex_ordering(k3, (0,), (1, 2))
    assert not verify_biconvex_ordering(c4, (0, 2), (1,))
    assert not verify_biconvex_ordering(c4, (0, 2, 2), (1, 3))
    # a neighborhood with a positional gap on the A side
    p5 = Graph(5, [(0, 1), (0, 3), (2, 1), (2, 3), (4, 1)])
    assert verify_biconvex_ordering(p5, (0, 2, 4), (1, 3))
    assert not verify_biconvex_ordering(p5, (0, 4, 2), (1, 3))


def test_solver_rejects_invalid_ordering():
    k3 = Instance(Graph(3, [(0, 1), (1, 2), (0, 2)]), ((1, 1, 1),))
    with pytest.raises(OrderingNotBiconvexError):
        solve_biconvex(k3, (0,), (1, 2))


def test_matches_brute_force_on_generated_instances():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(1, 7)
        k = rng.randint(1, 3)
        parsed = build_family("biconvex", n, k, 6, 1000 + trial)
        inst = parsed.instance
        want = brute_force(inst)
        ps = solve_biconvex(
            inst, parsed.order_a, parsed.order_b, witnesses=True
        )
        assert frozenset(ps.profiles()) == want.profiles
        assert ps.best()[0] == want.optimum
        assert_witnesses(inst, ps, limit=0)


def test_pruned_solve_keeps_value():
    for trial in range(20):
        parsed = build_family("biconvex", 6, 2, 6, 400 + trial)
        inst = parsed.instance
        full = solve_biconvex(inst, parsed.order_a, parsed.order_b)
        lean = solve_biconvex(inst, parsed.order_a, parsed.order_b, prune=True)
        assert full.best()[0] == lean.best()[0]


@pytest.mark.parametrize("k", [1, 3])
def test_instance_without_vertices_gives_the_empty_coloring(k):
    inst = Instance(Graph(0, []), ((),) * k)
    empty = (0, (0,) * k, ((),) * k)
    for prune in (False, True):
        assert solve_biconvex(inst, (), (), witnesses=True, prune=prune).best() == empty
        assert solve_cocomparability(inst, witnesses=True, prune=prune).best() == empty
        assert solve_treewidth(inst, witnesses=True, prune=prune).best() == empty


def test_items_replays_each_guess_once():
    """`items()` gives the same witnesses when asked twice, and a fresh
    set traces the same coloring for one profile alone."""
    parsed = build_family("biconvex", 18, 2, 4, 2)
    inst, orders = parsed.instance, (parsed.order_a, parsed.order_b)
    ps = solve_biconvex(inst, *orders, witnesses=True, prune=True)
    pairs = list(ps.items())
    assert list(ps.items()) == pairs
    assert_witnesses(inst, ps)
    profile, witness = pairs[len(pairs) // 2]
    assert solve_biconvex(inst, *orders, witnesses=True, prune=True).witness_for(profile) == witness


@pytest.mark.parametrize("scale", [1, 70000])
def test_middle_solves_prune_only_set_mode_cells(scale):
    """A pruned solve finds the optimum on packed cells (scale 1) and on
    set-mode cells (scale 70000) alike."""
    parsed = build_family("biconvex", 12, 2, 4, 3)
    inst = parsed.instance.with_profits(
        [[scale * x for x in row] for row in parsed.instance.profits]
    )
    assert uses_bitset(inst.k, inst.qbound) == (scale == 1)
    ps = solve_biconvex(inst, parsed.order_a, parsed.order_b, witnesses=True, prune=True)
    assert ps.best()[0] == brute_force(inst).optimum
    assert_witnesses(inst, ps)


@pytest.mark.parametrize("n,k,max_profit", [(30, 2, 9), (40, 2, 9), (60, 2, 9), (16, 3, 3), (24, 3, 3)])
def test_pruned_sets_equal_the_ordered_dp(n, k, max_profit):
    """The `biconvex` family is cocomparability too, so the biconvex
    route must keep the undominated profiles of the frozen ordered loop
    (`conftest.reference_table`), which shares no code with the frontier
    DP that both routes now run."""
    for seed in range(3):
        parsed = build_family("biconvex", n, k, max_profit, seed)
        inst = parsed.instance
        space = ProfileSpace.for_instance(inst, prune=True)
        ps = solve_biconvex(inst, parsed.order_a, parsed.order_b, witnesses=True, prune=True)
        assert ps.profiles() == reference_union(inst, space).profiles(), seed
        assert_witnesses(inst, ps)


def test_components_and_isolated_vertices_on_both_sides():
    """A path, a C4, and isolated vertices on side A (0, 1) and side B
    (9), one of each between the components."""
    g = Graph(10, [(2, 6), (3, 6), (4, 7), (4, 8), (5, 7), (5, 8)])
    order_a, order_b = (2, 3, 0, 4, 5, 1), (6, 9, 7, 8)
    assert verify_biconvex_ordering(g, order_a, order_b)
    for k in (1, 2, 3):
        inst = Instance(g, [[(3 * v + j) % 5 + 1 for v in range(g.n)] for j in range(k)])
        want = brute_force(inst)
        for prune in (False, True):
            ps = solve_biconvex(inst, order_a, order_b, witnesses=True, prune=prune)
            assert ps.best()[0] == want.optimum
            if not prune:
                assert frozenset(ps.profiles()) == want.profiles
            assert_witnesses(inst, ps)


def convex_order(graph, side, other):
    """The first permutation of `side`, by brute force, under which every
    vertex of `other` has its neighbors at consecutive positions, or None."""
    for order in itertools.permutations(side):
        pos = {v: i for i, v in enumerate(order)}
        if all(
            not spots or spots[-1] - spots[0] + 1 == len(spots)
            for spots in (sorted(pos[u] for u in graph.neighbors(w)) for w in other)
        ):
            return order
    return None


def connected(g) -> bool:
    """Whether a breadth-first search over `g.masks` from vertex 0
    reaches every vertex."""
    seen = frontier = 1
    while frontier:
        reach = 0
        for u in iter_bits(frontier):
            reach |= g.masks[u]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def biconvex_off_cocomparability(rng, count):
    """`count` (graph, order_a, order_b): connected bipartite graphs with
    sides of 3-5 vertices and biconvex orderings, none of them a
    cocomparability graph, so the cocomparability route does not apply
    to the whole graph. The generator's biconvex family never draws one."""
    found = []
    while len(found) < count:
        a, b = rng.randint(3, 5), rng.randint(3, 5)
        side_a, side_b = range(a), range(a, a + b)
        g = Graph(a + b, [(u, v) for u in side_a for v in side_b if rng.random() < 0.5])
        if not connected(g) or is_cocomparability(g):
            continue
        order_a = convex_order(g, side_a, side_b)
        order_b = order_a and convex_order(g, side_b, side_a)
        if order_b:
            assert verify_biconvex_ordering(g, order_a, order_b)
            found.append((g, order_a, order_b))
    return found


def test_matches_brute_force_off_the_cocomparability_class():
    rng = random.Random(0)
    for g, order_a, order_b in biconvex_off_cocomparability(rng, 12):
        for k in (1, 2, 3):
            inst = Instance(g, [[rng.randint(0, 6) for _ in range(g.n)] for _ in range(k)])
            want = brute_force(inst)
            ps = solve_biconvex(inst, order_a, order_b, witnesses=True, prune=True)
            assert ps.best()[0] == want.optimum
            assert set(ps.profiles()) <= want.profiles
            assert_witnesses(inst, ps)


def test_cli_auto_picks_biconvex_off_the_cocomparability_class(tmp_path, capsys):
    found = biconvex_off_cocomparability(random.Random(0), 12)
    g, order_a, order_b = next(c for c in found if not is_chordal(c[0]))
    inst = Instance(g, [[1 + v % 4 for v in range(g.n)], [2 + v % 3 for v in range(g.n)]])
    path = tmp_path / "biconvex.fk"
    path.write_text(serialize_instance(ParsedInstance(inst, order_a=order_a, order_b=order_b)))
    assert "\no A " in path.read_text()
    code = cli.main(["solve", "--input", str(path), "--no-timing"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["algorithm"] == "biconvex"
    assert report["value"] == brute_force(inst).optimum
