import itertools
import json
import random

import pytest

from conftest import assert_witnesses
from fkdiv import biconvex, cli
from fkdiv.biconvex import enumerate_guesses, solve_biconvex, solve_biconvex_connected
from fkdiv.bipartite import biconvex_structure, verify_biconvex_ordering
from fkdiv.cocomp import solve_cocomparability
from fkdiv.decomposition import is_chordal
from fkdiv.errors import OrderingNotBiconvexError, StructureMismatchError
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.instance_io import ParsedInstance, serialize_instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import is_cocomparability
from fkdiv.profiles import ProfileSet, ProfileSpace, uses_bitset
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


def test_structure_c4():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    s = biconvex_structure(c4, (0, 2), (1, 3))
    assert (s.a_left, s.a_right) == (0, 2)
    assert s.tail_left == () and s.tail_right == ()
    assert s.middle == (0, 1, 2, 3)


def test_structure_star_tie_break():
    star = Graph(3, [(0, 2), (1, 2)])
    s = biconvex_structure(star, (0, 1), (2,))
    assert s.a_left == 0
    assert s.a_right == 1


def test_structure_path_middle_is_whole_graph():
    path = Graph(3, [(0, 1), (1, 2)])
    s = biconvex_structure(path, (0, 2), (1,))
    assert (s.a_left, s.a_right) == (0, 2)
    assert s.middle == (0, 1, 2)


def test_structure_mirrors_reversed_order():
    zig = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    s = biconvex_structure(zig, (1, 0), (2, 3, 4))
    assert (s.a_left, s.a_right) == (0, 1)
    assert s.order_a == (0, 1)


def test_structure_rejects_one_sided_split():
    g = Graph(2, [])
    with pytest.raises(StructureMismatchError):
        biconvex_structure(g, (0, 1), ())


def test_guess_count_with_empty_tails():
    assert list(enumerate_guesses((), (), 2)) == [(((None, None)), (None, None))] or len(
        list(enumerate_guesses((), (), 2))
    ) == 1


def test_guess_reals_are_distinct_per_side():
    guesses = list(enumerate_guesses((0, 1), (), 2))
    for left, right in guesses:
        reals = [g for g in left if g is not None]
        assert len(reals) == len(set(reals))
        assert right == (None, None)
    assert len(guesses) == 7  # 3*3 combinations minus the two equal-real pairs


def test_single_component_equals_connected_solver():
    parsed = build_family("biconvex", 6, 2, 5, 11)
    inst = parsed.instance
    if not inst.graph.is_connected():
        pytest.skip("seed produced a disconnected graph")
    space = ProfileSpace.for_instance(inst)
    whole = solve_biconvex(inst, parsed.order_a, parsed.order_b)
    conn = solve_biconvex_connected(inst, parsed.order_a, parsed.order_b, space)
    assert set(whole.profiles()) == set(conn.profiles())


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


def test_items_replays_each_guess_once(monkeypatch):
    parsed = build_family("biconvex", 18, 2, 4, 2)
    inst, orders = parsed.instance, (parsed.order_a, parsed.order_b)
    replays = []

    def counted(*args, **kwargs):
        if kwargs.get("witnesses"):
            replays.append(1)
        return solve_cocomparability(*args, **kwargs)

    monkeypatch.setattr(biconvex, "solve_cocomparability", counted)
    ps = solve_biconvex(inst, *orders, witnesses=True, prune=True)
    assert not replays
    pairs = list(ps.items())
    first = len(replays)
    assert 0 < first < len(pairs)
    assert list(ps.items()) == pairs
    assert len(replays) == first
    assert_witnesses(inst, ps)
    # A fresh set, asked for one profile only, traces the same coloring.
    profile, witness = pairs[len(pairs) // 2]
    assert solve_biconvex(inst, *orders, witnesses=True, prune=True).witness_for(profile) == witness


@pytest.mark.parametrize("scale", [1, 70000])
def test_middle_solves_prune_only_set_mode_cells(monkeypatch, scale):
    """The middle solves keep the ordered DP's prune rule: a bitset cell
    is never pruned, so each middle solve prunes only the set it
    returns, while set-mode cells still prune."""
    parsed = build_family("biconvex", 12, 2, 4, 3)
    inst = parsed.instance.with_profits(
        [[scale * x for x in row] for row in parsed.instance.profits]
    )
    assert uses_bitset(inst.k, inst.qbound) == (scale == 1)
    counts = {"solves": 0, "prunes": 0}
    inside = []
    prune_dominated = ProfileSet.prune_dominated

    def counted_prune(self):
        if inside:
            counts["prunes"] += 1
        return prune_dominated(self)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        inside.append(1)
        try:
            return solve_cocomparability(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(ProfileSet, "prune_dominated", counted_prune)
    monkeypatch.setattr(biconvex, "solve_cocomparability", counted_solve)
    ps = solve_biconvex(inst, parsed.order_a, parsed.order_b, witnesses=True, prune=True)
    assert counts["solves"] > 0
    if scale == 1:
        assert counts["prunes"] == counts["solves"]
    else:
        assert counts["prunes"] > counts["solves"]
    assert ps.best()[0] == brute_force(inst).optimum
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


def biconvex_off_cocomparability(rng, count):
    """`count` (graph, order_a, order_b): connected bipartite graphs with
    sides of 3-5 vertices and biconvex orderings, none of them a
    cocomparability graph, so the ordered DP does not apply to the whole
    graph. The generator's biconvex family never draws one."""
    found = []
    while len(found) < count:
        a, b = rng.randint(3, 5), rng.randint(3, 5)
        side_a, side_b = range(a), range(a, a + b)
        g = Graph(a + b, [(u, v) for u in side_a for v in side_b if rng.random() < 0.5])
        if not g.is_connected() or is_cocomparability(g):
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
