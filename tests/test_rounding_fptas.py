import importlib.util
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import applicable_solvers, assert_witnesses, random_instance
from fkdiv.cocomp import solve_cocomparability
from fkdiv.decomposition import chordal_peo, clique_tree, make_nice, minfill_decomposition
from fkdiv.errors import ParameterOutOfRangeError
from fkdiv.fptas import paired_rounding_check, parse_epsilon, solve_approx
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import is_cocomparability
from fkdiv.profiles import check_coloring, profile_of
from fkdiv.rounding import (
    B,
    MAX_INDEX_RANGE,
    ZERO,
    RoundedProfileSpace,
    RoundedStateSet,
    RoundingGrid,
    nth_root_floor,
)
from fkdiv.treedp import solve_chordal, solve_treewidth


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**24),
    st.integers(min_value=1, max_value=12),
)
def test_nth_root_floor(x, r):
    g = nth_root_floor(x, r)
    assert g**r <= x < (g + 1) ** r


def test_parse_epsilon():
    assert parse_epsilon("0.5") == Fraction(1, 2)
    assert parse_epsilon("1") == Fraction(1)
    assert parse_epsilon(Fraction(1, 10)) == Fraction(1, 10)
    with pytest.raises(TypeError):
        parse_epsilon(0.5)
    with pytest.raises(ValueError):
        parse_epsilon("0")
    with pytest.raises(ValueError):
        parse_epsilon("-1")
    with pytest.raises(ValueError):
        parse_epsilon("nonsense")


def ratio_of(grid):
    """The grid ratio r as an independent exact reference."""
    return Fraction(grid.num, 2**B)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6),
    st.integers(min_value=1, max_value=60),
)
def test_ratio_is_largest_dyadic_below_root(eps, n):
    num = RoundingGrid(eps, n, (1,)).num
    assert num > 2**B
    assert num**n <= (1 + eps) * 2 ** (B * n) < (num + 1) ** n


def test_grid_value_one_maps_to_index_zero():
    grid = RoundingGrid(Fraction(1, 2), 5, (10,))
    assert grid.round_down_value(1) == 0


def test_grid_zero_sentinel():
    grid = RoundingGrid(Fraction(1, 2), 3, (9,))
    assert grid.round_down_value(0) == ZERO
    assert grid.extend(0, 0) == ZERO
    assert grid.extend(0, 4) == grid.round_down_value(4)
    assert grid.extend(5, 0) == grid.round_down_value(5)


def test_round_down_value_brackets_truth():
    grid = RoundingGrid(Fraction(1, 10), 6, (60,))
    r = ratio_of(grid)
    for v in range(1, 61):
        t = grid.round_down_value(v)
        assert r**t <= v < r ** (t + 1)


def test_extend_brackets_truth():
    grid = RoundingGrid(Fraction(1, 3), 5, (40,))
    r = ratio_of(grid)
    for q in (0, 1, 3, 11, 20):
        for p in (1, 2, 9):
            tau = grid.extend(q, p)
            assert r**tau <= q + p < r ** (tau + 1)


def test_index_count_covers_upper_bound():
    for eps, n, ub in ((Fraction(1, 2), 4, 37), (Fraction(1), 1, 8), (Fraction(2), 3, 500)):
        grid = RoundingGrid(eps, n, (ub,))
        r = ratio_of(grid)
        u = grid.u[0]
        assert r ** (u - 1) < ub <= r**u


def test_grid_refuses_index_range_over_the_limit():
    with pytest.raises(ParameterOutOfRangeError):
        RoundingGrid(Fraction(1, 10**8), 8, (80,))
    # r = num / 2^B rounds to 1 here, so no index range is finite.
    with pytest.raises(ParameterOutOfRangeError):
        RoundingGrid(Fraction(1, 2**70), 3, (1,))
    inst = Instance(Graph(2, []), ((3, 4), (2, 2)))
    with pytest.raises(ParameterOutOfRangeError):
        solve_approx(inst, Fraction(1, 2**70))


def test_grid_index_range_limit_is_exact():
    # eps 0.1 over 40 items: r^4096 lies in [17322, 17323)
    assert RoundingGrid(Fraction(1, 10), 40, (218, 17322)).u == (2260, MAX_INDEX_RANGE)
    with pytest.raises(ParameterOutOfRangeError):
        RoundingGrid(Fraction(1, 10), 40, (17323,))


def test_widest_grid_retains_under_a_megabyte():
    # The widest accepted grid above: two lists of small integers and
    # one running power, not a table of every power num^e.
    tracemalloc.start()
    try:
        grid = RoundingGrid(Fraction(1, 10), 40, (218, 17322))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.u == (2260, MAX_INDEX_RANGE)
    assert retained < 1 << 20


def test_refusal_of_a_long_accuracy_can_be_printed():
    # str() of this Fraction raises ValueError: its denominator has
    # 5,001 digits, over Python's int-to-str limit.
    with pytest.raises(ParameterOutOfRangeError) as err:
        RoundingGrid(Fraction(1, 10**5000), 3, (10,))
    assert "ratio rounds to 1" in str(err.value)


def test_parse_epsilon_bounds_digits_before_building():
    assert parse_epsilon("1e-4299") == Fraction(1, 10**4299)
    for text in ("1e-4300", "1e-10000000", "1e1000000", "0e-10000000", "1." + "1" * 4300):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_epsilon(text)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_epsilon(Fraction(1, 10**4300))
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_epsilon(10**4300)


def test_rounded_space_zero_state():
    inst = Instance(Graph(2, []), ((3, 4), (2, 2)))
    space = RoundedProfileSpace(inst.k, RoundingGrid.for_instance(inst, Fraction(1, 2)))
    assert space.zero().keyed() == [((ZERO, ZERO), (0, 0))]


def test_solve_approx_reports_realizable_witness():
    inst = Instance(Graph(3, [(0, 1)]), ((4, 1, 3), (2, 6, 1)))
    res = solve_approx(inst, "0.5")
    check_coloring(inst.graph, res.witness)
    assert profile_of(inst, res.witness) == res.profile
    assert min(res.profile) == res.value
    assert res.epsilon == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fptas_bounds_on_cocomp_instances(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 2), 8, 0.4)
    if not is_cocomparability(inst.graph):
        return
    opt = brute_force(inst).optimum
    for eps_text in ("0.1", "0.5", "1.0"):
        eps = parse_epsilon(eps_text)
        res = solve_approx(inst, eps_text)
        assert res.value <= opt
        assert Fraction(res.value) * (1 + eps) >= Fraction(opt)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fptas_bounds_via_treewidth_base(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 2), 6, 0.5)
    opt = brute_force(inst).optimum
    res = solve_approx(inst, "0.5", solver=solve_treewidth)
    assert res.value <= opt
    assert Fraction(res.value) * Fraction(3, 2) >= Fraction(opt)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_paired_rounding_check_runs_clean(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 2), 7, 0.4)
    if not is_cocomparability(inst.graph):
        return
    stats = paired_rounding_check(inst, "0.3")
    assert stats["layers"] == inst.n + 1
    assert stats["entries"] >= stats["cells"] > 0


def test_paired_check_catches_epsilon_scaling():
    inst = Instance(Graph(4, [(0, 1), (1, 2), (2, 3)]), ((5, 9, 2, 7),))
    for eps in ("0.1", "0.5", "1.0", "2"):
        stats = paired_rounding_check(inst, eps)
        assert stats["cells"] > 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["permutation", "interval", "edgeless"]),
    st.sampled_from(["1/2", "1", "2"]),
)
def test_paired_check_runs_clean_on_zero_heavy_profits(seed, family, eps):
    """Max-profit 1-3 makes many profits 0, where neither run puts an item."""
    rng = random.Random(seed)
    inst = build_family(family, rng.randint(1, 9), rng.randint(1, 3), rng.randint(1, 3), seed).instance
    assert paired_rounding_check(inst, eps)["layers"] == inst.n + 1


def test_paired_check_fails_when_a_zero_profit_counts_an_item(monkeypatch):
    """Counted as p * (n+1) + 1, a zero profit turns positive, so the
    exact run makes puts the rounded one never makes and their layers
    hold different keys."""
    inst = build_family("permutation", 9, 2, 2, 1).instance
    assert any(0 in row for row in inst.profits)
    assert paired_rounding_check(inst, "1/2")["layers"] == inst.n + 1
    with_profits = Instance.with_profits

    def counting_zeros(self, rows):
        return with_profits(self, [[q or 1 for q in row] for row in rows])

    monkeypatch.setattr(Instance, "with_profits", counting_zeros)
    with pytest.raises(AssertionError, match="exact and rounded state keys differ"):
        paired_rounding_check(inst, "1/2")


def reference_prune(states):
    """Frozen O(m^2) joint-dominance filter over {key: truth}: a state
    goes when another has a key and a truth at least as large in every
    entry."""
    return {
        key: true
        for key, true in states.items()
        if not any(
            other != key and all(a >= b for a, b in zip(other + t, key + true))
            for other, t in states.items()
        )
    }


@st.composite
def truth_lists(draw):
    """k and truths of arity k; above about 10 an entry often shares its
    grid index with a neighbouring value, so keys collide."""
    k = draw(st.integers(min_value=1, max_value=3))
    return k, draw(st.lists(st.tuples(*[st.integers(0, 40)] * k), max_size=30))


@settings(max_examples=300, deadline=None)
@given(truth_lists())
def test_prune_keeps_exactly_the_jointly_undominated_states(case):
    k, truths = case
    grid = RoundingGrid(Fraction(1, 2), 4, (8,))
    rounded = RoundedStateSet(k, grid)
    for true in truths:
        rounded.insert(grid.round_profile(true), true)
    states = dict(rounded.keyed())
    pruned = rounded.prune_dominated()
    assert dict(pruned.keyed()) == reference_prune(states)
    assert dict(rounded.keyed()) == states


def check_fptas_against_exact(inst):
    """Every accuracy's pruned FPTAS answer lies in [opt/(1+eps), opt],
    and every state it keeps holds an exactly reachable truth with a
    valid witness that realizes it."""
    opt = solve_cocomparability(inst, prune=True).best()[0]
    exact = solve_cocomparability(inst, prune=False)
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)):
        res = solve_approx(inst, eps)
        assert res.value <= opt
        assert res.value * (1 + eps) >= opt, (eps, res.value, opt)
        for _key, true in res.states.keyed():
            assert true in exact
            witness = res.states.witness_for(true)
            check_coloring(inst.graph, witness)
            assert profile_of(inst, witness) == true


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=20, max_value=30),
    st.integers(min_value=5, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_pruned_fptas_bound_on_permutation_graphs(n, max_profit, seed):
    check_fptas_against_exact(build_family("permutation", n, 2, max_profit, seed).instance)


def test_pruned_fptas_bound_three_agents():
    check_fptas_against_exact(build_family("permutation", 22, 3, 4, 5).instance)


@pytest.mark.parametrize(
    "name,family",
    [("cocomp", "permutation"), ("chordal", "chordal"), ("treewidth", "random"), ("biconvex", "biconvex")],
)
def test_rounded_walk_backs_realize_every_state(name, family):
    for seed, (n, k) in enumerate(((8, 2), (6, 3), (9, 1))):
        parsed = build_family(family, n, k, 20, seed)
        run = dict(applicable_solvers(parsed))[name]
        for eps in ("1/10", "1/2", "2"):
            res = solve_approx(parsed.instance, eps, solver=run)
            assert_witnesses(parsed.instance, res.states)
            for key, true in res.states.keyed():
                assert key == res.grid.round_profile(true)
            check_coloring(parsed.graph, res.witness)
            assert profile_of(parsed.instance, res.witness) == res.profile


def rounding_depth(nice):
    """Most forget and join nodes on one root-leaf path of `nice`, whose
    nodes are listed children first."""
    depth = []
    for node in nice.nodes:
        below = max((depth[c] for c in node.children), default=0)
        depth.append(below + (node.kind in ("forget", "join")))
    return depth[nice.root]


@pytest.mark.parametrize(
    "family,solver,decompose",
    [
        ("chordal", solve_chordal, lambda g: clique_tree(g, chordal_peo(g))),
        ("random", solve_treewidth, minfill_decomposition),
    ],
)
def test_tree_route_value_is_within_r_to_the_depth(family, solver, decompose):
    """value * r^D >= opt on the decomposition the solver builds, as
    value * num^D >= opt * 2^(BD), D its rounding depth (`fptas.py`)."""
    for n in range(4, 9):
        for k in (1, 2, 3):
            for seed in range(4):
                inst = build_family(family, n, k, 30, seed).instance
                depth = rounding_depth(make_nice(decompose(inst.graph)))
                opt = brute_force(inst).optimum
                for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                    res = solve_approx(inst, eps, solver=solver)
                    assert res.value <= opt
                    assert res.value * res.grid.num**depth >= opt << B * depth, (n, k, seed, eps)


def test_biconvex_route_value_is_within_r_to_the_n():
    """value * r^n >= opt on the biconvex route, whose n layers build
    each cell once (`fptas.py`), as value * num^n >= opt * 2^(Bn)."""
    for n in range(4, 11):
        for k in (1, 2, 3):
            for seed in range(4):
                parsed = build_family("biconvex", n, k, 30, seed)
                inst = parsed.instance
                run = dict(applicable_solvers(parsed))["biconvex"]
                opt = brute_force(inst).optimum
                for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(2)):
                    res = solve_approx(inst, eps, solver=run)
                    assert res.value <= opt
                    assert res.value * res.grid.num**n >= opt << B * n, (n, k, seed, eps)


@pytest.mark.parametrize("seed", range(4))
def test_paired_check_catches_a_lossy_extend(monkeypatch, seed):
    extend = RoundingGrid.extend

    def lossy(grid, q, p):
        """One index too low, but never below the index it extends."""
        tau = extend(grid, q, p)
        return tau if q == 0 else max(grid.round_down_value(q), tau - 1)

    inst = build_family("permutation", 14, 2, 40, seed).instance
    assert paired_rounding_check(inst, "1/2")["entries"] > 0
    monkeypatch.setattr(RoundingGrid, "extend", lossy)
    with pytest.raises(AssertionError, match="is not the grid index of"):
        paired_rounding_check(inst, "1/2")


def test_paired_check_bounds_each_profile_by_its_fewest_items(monkeypatch):
    """An exact profile T is bounded by r^m, m the fewest items of any
    coloring reaching T in its cell, where the cell's layer j >= m gave
    r^j. The real build passes; a build that also trims every finished
    cell, dropping each truth a kept one covers within r^4, fails, and
    some of its failures name an m below j, where r^j was looser."""
    instances = [build_family("permutation", 12, 2, 400, seed).instance for seed in range(60)]
    runs = [(inst, eps) for inst in instances for eps in ("1/2", "1", "2")]
    for inst, eps in runs:
        paired_rounding_check(inst, eps)

    def trimmed(space, states):
        states = states.prune_dominated()
        gain, loss = space.grid.num**4, 1 << 4 * B
        kept = {}
        best_first = sorted(states._map.items(), key=lambda kt: (min(kt[1]), kt[1]), reverse=True)
        for key, t in best_first:
            if not any(all(a * gain >= q * loss for a, q in zip(u, t)) for u in kept.values()):
                kept[key] = t
        states._map = kept
        return states

    monkeypatch.setattr(RoundedProfileSpace, "finalize", trimmed)
    depths = []
    for inst, eps in runs:
        try:
            paired_rounding_check(inst, eps)
        except AssertionError as exc:
            j, m = re.fullmatch(r"layer (\d+) cell .* within r\^(\d+)", str(exc)).groups()
            depths.append((int(m), int(j)))
    assert any(m < j for m, j in depths), depths


def test_scaling_smoke_fptas_table_rows(monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_smoke.py"
    spec = importlib.util.spec_from_file_location("scaling_smoke", script)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    rows = list(mod.fptas_rows((8,), (5, 10**6), ("1/2", "1/1000000000")))
    assert [(r.epsilon, r.fptas_value is None) for r in rows] == [
        ("1/2", False), ("1/1000000000", True), ("1/2", False), ("1/1000000000", True)
    ]
    for r in rows[::2]:
        assert r.fptas_value <= r.exact_value <= r.fptas_value * Fraction(3, 2)


def test_scaling_smoke_tree_rows(monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_smoke.py"
    spec = importlib.util.spec_from_file_location("scaling_smoke", script)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    rows = list(mod.tree_rows((8, 12), repeats=1))
    assert [(case, n) for case, n, *_ in rows] == [
        ("solve_chordal", 8), ("solve_chordal", 12), ("auto plan, dense", 120)
    ]
    for case, n, qbound, seconds, outcome in rows[:2]:
        inst = build_family("chordal", n, 2, 9, 0).instance
        assert outcome == f"value {brute_force(inst).optimum}" and seconds >= 0
    assert rows[2][4] == "rejected"


def test_scaling_smoke_runs_from_a_checkout_without_pythonpath():
    """The script finds this checkout's package itself. conftest puts
    `src` on every child's PYTHONPATH, so the child drops it."""
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "scripts/scaling_smoke.py", "--sizes", "8", "10"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert "worst measured/predicted factor" in res.stdout
