import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdiv.bipartite import verify_biconvex_ordering
from fkdiv.decomposition import is_chordal, verify_decomposition
from fkdiv.errors import ParameterOutOfRangeError, UnknownFamilyError
import fkdiv
from fkdiv import cli
from fkdiv.generators import (
    FAMILIES,
    MAX_EXPECTED_DRAWS,
    build_clique_reduction,
    build_family,
)
from fkdiv.graphs import Graph
from fkdiv.instance_io import parse_instance, serialize_instance
from fkdiv.oracle import brute_force
from fkdiv.orientation import is_cocomparability


def test_family_list_is_stable():
    assert FAMILIES == (
        "edgeless",
        "interval",
        "chordal",
        "biconvex",
        "random",
        "permutation",
        "clique-reduction",
    )


def test_edgeless_generates():
    parsed = build_family("edgeless", 4, 2, 1, 0)
    inst = parsed.instance
    assert inst.n == 4 and inst.k == 2
    assert not inst.graph.edges
    assert parsed.order_a is not None and parsed.order_b is not None
    assert all(p <= 1 for row in inst.profits for p in row)


def test_interval_instances_are_chordal_and_cocomp():
    for seed in range(20):
        parsed = build_family("interval", 9, 2, 10, seed)
        assert is_chordal(parsed.instance.graph)
        assert is_cocomparability(parsed.instance.graph)


def test_chordal_instances_are_chordal():
    for seed in range(20):
        parsed = build_family("chordal", 9, 2, 10, seed)
        assert is_chordal(parsed.instance.graph)
        if parsed.decomposition is not None:
            verify_decomposition(parsed.instance.graph, parsed.decomposition)


def test_biconvex_orderings_verify():
    parsed = build_family("biconvex", 8, 2, 5, 3)
    assert parsed.order_a is not None and parsed.order_b is not None
    assert verify_biconvex_ordering(
        parsed.instance.graph, parsed.order_a, parsed.order_b
    )


def test_biconvex_orderings_verify_across_seeds():
    for seed in range(25):
        parsed = build_family("biconvex", 7, 2, 6, seed)
        assert verify_biconvex_ordering(
            parsed.instance.graph, parsed.order_a, parsed.order_b
        )


def test_permutation_instances_are_cocomparability():
    for seed in range(20):
        parsed = build_family("permutation", 8, 2, 10, seed)
        assert is_cocomparability(parsed.instance.graph)


def test_random_family_round_trips():
    parsed = build_family("random", 7, 3, 12, 11)
    text = serialize_instance(parsed)
    again = parse_instance(text)
    assert again.instance.graph == parsed.instance.graph
    assert again.instance.profits == parsed.instance.profits
    assert serialize_instance(again) == text


def test_same_seed_is_deterministic():
    for family in FAMILIES:
        ell = 2 if family == "clique-reduction" else None
        a = build_family(family, 6, 2, 9, 42, ell=ell)
        b = build_family(family, 6, 2, 9, 42, ell=ell)
        assert serialize_instance(a) == serialize_instance(b)


# sha256 of serialize_instance(build_family(family, n, k, max_profit, seed,
# ell=ell)). The benchmark's instances come from these generators, so a
# change in the order of random draws would change every workload.
PINNED_FAMILY_BYTES = [
    (("edgeless", 1, 1, 0, 0, None), "4fbe5d949f2eca7b01c117afa2ed70e606c56a2462167bc5f780005b0de4e335"),
    (("edgeless", 9, 3, 7, 5, None), "73bbe4611f7455e86de80237f4c9dd33cd8ce512f80c1c2a76d8dfd754240181"),
    (("interval", 6, 2, 10, 0, None), "25517485fa144f12a50c8391c575a087f37d1ea58d998959a05c137b24aeda3f"),
    (("interval", 40, 2, 5, 3, None), "33a47552a8ec5c28a71f11b26c161fcbb01fdb7a32aed72bb422d1627df05e23"),
    (("chordal", 9, 2, 10, 1, None), "e97648fe7ae2d438f2796cfb7e030a4ac4e43f866a3a823b351d6471e5ca60c3"),
    (("chordal", 30, 3, 5, 7, None), "e053999e7b11a5118e1ff6a996ce26f370f20356c99c2ab16355ca2ca1a0e199"),
    (("biconvex", 1, 2, 4, 0, None), "3557cdb0f28815ff87ffbd9d875d27bdba79650fec22a45684f9c80474c27f73"),
    (("biconvex", 8, 2, 5, 3, None), "9c487005aa4175e237d7d89a77aa766db880ca0f257d5bf7f64ac71b9ec89a5e"),
    (("biconvex", 25, 3, 9, 11, None), "fd214dce56ea9d9b891dd22df0604bf47cbfc396a7cdfe34341f79d52a74f0ac"),
    (("random", 7, 3, 12, 11, None), "8a7f3c668fd3076cc11681f05f398c8a89f6de9f98e7d43cf672c5ece5aa2aec"),
    (("random", 20, 2, 5, 4, None), "d97c254128b95b6e6935ed720f4567edb590e2b769f5bd71560f793b33e2d7d3"),
    (("permutation", 8, 2, 10, 0, None), "4033fe12bbd2c159320a74452b398049ac66303fd0f525cccded8b2470691e2f"),
    (("permutation", 60, 2, 1, 1234567, None), "a6383fbfbdb611d3e157d06272bca3ad313fca5ac9aaac3dfbd48962301b71d2"),
    (("clique-reduction", 5, 2, 0, 0, 3), "e812464d57d4a14fa38246fb5de6540e72e1e786d57226e4c21697f37bfb588c"),
    (("clique-reduction", 7, 3, 9, 2, 4), "482b72e8c31e096fc3de8ce210dddd63ae7d6ffbefa150119ad45fe5980b4409"),
]


def test_generated_bytes_are_pinned():
    assert {args[0] for args, _digest in PINNED_FAMILY_BYTES} == set(FAMILIES)
    for (family, n, k, max_profit, seed, ell), digest in PINNED_FAMILY_BYTES:
        text = serialize_instance(build_family(family, n, k, max_profit, seed, ell=ell))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n, k, max_profit, seed)


def test_different_seeds_usually_differ():
    texts = {
        serialize_instance(build_family("random", 8, 2, 30, seed))
        for seed in range(10)
    }
    assert len(texts) > 1


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamilyError):
        build_family("moebius", 5, 2, 3, 0)


def test_parameter_range_checks():
    with pytest.raises(ParameterOutOfRangeError):
        build_family("edgeless", 0, 2, 1, 0)
    with pytest.raises(ParameterOutOfRangeError):
        build_family("edgeless", 4, 0, 1, 0)
    with pytest.raises(ParameterOutOfRangeError):
        build_family("edgeless", 4, 2, -1, 0)
    with pytest.raises(ParameterOutOfRangeError):
        build_family("clique-reduction", 3, 2, 5, 0)
    with pytest.raises(ParameterOutOfRangeError):
        build_family("clique-reduction", 3, 2, 5, 0, ell=1)
    with pytest.raises(ParameterOutOfRangeError):
        build_family("clique-reduction", 3, 2, 5, 0, ell=4)


def draw_succeeds(n, ell) -> Fraction:
    """Probability that G(n, 1/2) has the ell(ell-1)/2 edges an ell-clique needs."""
    slots, need = n * (n - 1) // 2, ell * (ell - 1) // 2
    return Fraction(sum(comb(slots, i) for i in range(need, slots + 1)), 2**slots)


def test_clique_reduction_refuses_a_source_it_would_redraw_too_often():
    """Exactly the (n, ell) whose draw succeeds less often than once in
    MAX_EXPECTED_DRAWS tries are refused, before any draw."""
    assert draw_succeeds(5, 5) == Fraction(1, MAX_EXPECTED_DRAWS)
    build_family("clique-reduction", 5, 2, 0, 0, ell=5)
    for n in range(2, 15):
        for ell in range(2, n + 1):
            refused = draw_succeeds(n, ell) < Fraction(1, MAX_EXPECTED_DRAWS)
            try:
                build_family("clique-reduction", n, 2, 0, 0, ell=ell)
            except ParameterOutOfRangeError as exc:
                assert refused and f"once in {MAX_EXPECTED_DRAWS} draws" in str(exc), (n, ell)
            else:
                assert not refused, (n, ell)
    with pytest.raises(ParameterOutOfRangeError, match="ell=11 needs 55 of the 66"):
        build_family("clique-reduction", 12, 2, 0, 0, ell=11)


def test_gen_refuses_a_hopeless_clique_reduction_with_exit_2(tmp_path):
    """n=40, ell=40 needs all 780 edges of one draw; the command exits 2
    at once instead of redrawing forever."""
    out = tmp_path / "never.txt"
    argv = ["gen", "--family", "clique-reduction", "--n", "40", "--ell", "40", "--out", str(out)]
    res = subprocess.run(
        [sys.executable, "-m", "fkdiv.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(fkdiv.__file__).resolve().parents[1])},
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ell=40 needs 780 of the 780 possible edges")
    assert res.stdout == "" and not out.exists()


def test_ell_is_refused_outside_clique_reduction(tmp_path, capsys):
    """Every other family refuses an `ell` instead of ignoring it, and
    `gen` exits 2 without writing a file."""
    for family in FAMILIES:
        if family == "clique-reduction":
            continue
        with pytest.raises(ParameterOutOfRangeError, match=f"not to {family}"):
            build_family(family, 6, 2, 9, 0, ell=3)
        build_family(family, 6, 2, 9, 0, ell=None)
    out = tmp_path / "never.txt"
    argv = ["gen", "--family", "interval", "--n", "6", "--ell", "3", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ell applies only to clique-reduction"), err
    assert not out.exists()


def test_triangle_reduction_parameters():
    source = Graph(3, [(0, 1), (0, 2), (1, 2)])
    inst, params = build_clique_reduction(source, 3, 2)
    assert params.source_n == 3 and params.source_m == 3
    assert params.anchor_profit == 81
    assert params.threshold == 90
    assert params.blocker_profit == 90
    assert inst.n == 8
    assert params.vertex_items == (0, 1, 2)
    assert params.edge_items == (3, 4, 5)
    assert params.anchor_item == 6
    assert params.blocker_items == (7,)


def test_triangle_reduction_pair_threshold():
    source = Graph(3, [(0, 1), (0, 2), (1, 2)])
    _inst, params = build_clique_reduction(source, 2, 2)
    assert params.threshold == 85
    assert params.anchor_profit == 81


def test_reduction_needs_enough_edges():
    with pytest.raises(ParameterOutOfRangeError):
        build_clique_reduction(Graph(4, [(0, 1)]), 3, 2)


def test_reduction_answers_match_clique_presence():
    # A path has no triangle; adding the closing edge creates one.
    path = Graph(3, [(0, 1), (1, 2)])
    inst, params = build_clique_reduction(path, 2, 2)
    assert brute_force(inst).optimum >= params.threshold
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst, params = build_clique_reduction(square, 3, 2)
    assert brute_force(inst).optimum < params.threshold


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_reduction_item_profits_are_consistent(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
    ]
    if len(edges) < 1:
        edges = [(0, 1)]
    source = Graph(n, edges)
    inst, params = build_clique_reduction(source, 2, 2)
    assert params.anchor_profit == n**4
    assert params.threshold == n**4 + 2 * (2 - 1) // 2 * n + (n - 2)
    # every class sees the same profit row
    assert len(set(inst.profits)) == 1
    row = inst.profits[0]
    assert row[params.anchor_item] == params.anchor_profit
    for b in params.blocker_items:
        assert row[b] == params.blocker_profit
    for e in params.edge_items:
        assert row[e] == params.source_n
    for v in params.vertex_items:
        assert row[v] == 1
