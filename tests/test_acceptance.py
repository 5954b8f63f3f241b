"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints "ACCEPTANCE <num> <name>: PASS|FAIL" directly to the
real stdout so the verdict survives pytest's capture, then fails loudly
if anything was off.
"""

import dataclasses
import functools
import importlib.util
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    ACCEPTANCE_VERDICTS,
    applicable_solvers,
    nice_occurrences_connected,
    subset_sum_partition,
    verify_nice,
)
from fkdiv.cli import main as cli_main
from fkdiv.decomposition import (
    clique_tree,
    is_chordal,
    make_nice,
    minfill_decomposition,
    separator_violations,
    verify_decomposition,
)
from fkdiv.errors import ParameterOutOfRangeError
from fkdiv.fptas import paired_rounding_check, parse_epsilon, solve_approx
from fkdiv.generators import build_clique_reduction
from fkdiv.graphs import Graph, Instance
from fkdiv.instance_io import serialize_instance
from fkdiv.oracle import (
    brute_force,
    decide_satisfaction_at_least,
    max_weight_independent_set,
)
from fkdiv.orientation import is_cocomparability
from fkdiv.profiles import check_coloring, profile_of

EPSILONS = ("0.1", "0.5", "1.0")


def criterion(num: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _verdict(num, name, "FAIL")
                raise
            _verdict(num, name, "PASS")

        return run

    return wrap


def _verdict(num: int, name: str, outcome: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {outcome}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@criterion(1, "oracle equivalence on the seeded corpus")
def test_criterion_1_oracle_equivalence(corpus):
    started = time.perf_counter()
    runs = 0
    per_family = {}
    for entry in corpus:
        per_family[entry.family] = per_family.get(entry.family, 0) + 1
        want = brute_force(entry.instance).optimum
        for name, solve in applicable_solvers(entry.parsed):
            got = solve(witnesses=False, prune=True).best()[0]
            assert got == want, (entry.family, entry.seed, name, got, want)
            runs += 1
    elapsed = time.perf_counter() - started
    assert all(count >= 200 for count in per_family.values()), per_family
    assert len(per_family) == 5
    assert runs >= 1000
    assert elapsed < 120, f"corpus sweep took {elapsed:.1f}s"


@criterion(2, "unpruned profile sets equal the oracle's")
def test_criterion_2_profile_sets(corpus):
    compared = 0
    for entry in corpus:
        if entry.instance.n > 7:
            continue
        want = set(brute_force(entry.instance).profiles)
        for name, solve in applicable_solvers(entry.parsed):
            if name not in ("cocomp", "chordal", "treewidth"):
                continue
            got = set(solve(witnesses=False, prune=False).profiles())
            assert got == want, (entry.family, entry.seed, name)
            compared += 1
    assert compared >= 1000


@criterion(3, "single-agent runs match max-weight independent set")
def test_criterion_3_single_agent(corpus):
    for entry in corpus:
        graph = entry.instance.graph
        row = entry.instance.profits[0]
        single = entry.parsed._replace(instance=Instance(graph, (row,)))
        want, _picked = max_weight_independent_set(graph, row)
        assert brute_force(single.instance).optimum == want
        for name, solve in applicable_solvers(single):
            got = solve(witnesses=False, prune=True).best()[0]
            assert got == want, (entry.family, entry.seed, name, got, want)


@criterion(4, "edgeless identical-rows instances reproduce two-way splits")
def test_criterion_4_partition_special_case():
    rng = random.Random(20_240)
    cases = [[3, 1, 1, 2, 2, 1], [7, 7, 7, 7], [1] * 16, [5]]
    for _ in range(30):
        n = rng.randint(2, 16)
        cases.append([rng.randint(0, 12) for _ in range(n)])
    for values in cases:
        n = len(values)
        inst = Instance(Graph(n, []), (tuple(values), tuple(values)))
        want = subset_sum_partition(values)
        parsed = _bare_parsed(inst)
        for name, solve in applicable_solvers(parsed):
            got = solve(witnesses=False, prune=True).best()[0]
            assert got == want, (values, name, got, want)


def _bare_parsed(inst):
    from fkdiv.instance_io import ParsedInstance

    return ParsedInstance(instance=inst)


@criterion(5, "approximation bound and per-layer rounding invariants")
def test_criterion_5_approximation_guarantee(corpus):
    applicable = [
        entry for entry in corpus if is_cocomparability(entry.instance.graph)
    ]
    assert len(applicable) >= 900
    for entry in applicable:
        opt = brute_force(entry.instance).optimum
        for eps_text in EPSILONS:
            eps = parse_epsilon(eps_text)
            res = solve_approx(entry.instance, eps_text)
            assert res.value <= opt, (entry.family, entry.seed, eps_text)
            assert Fraction(res.value) * (1 + eps) >= Fraction(opt), (
                entry.family,
                entry.seed,
                eps_text,
            )
            check_coloring(entry.instance.graph, res.witness)
            assert profile_of(entry.instance, res.witness) == res.profile
            assert min(res.profile) == res.value
    checked = 0
    for entry in applicable:
        for eps_text in EPSILONS:
            stats = paired_rounding_check(entry.instance, eps_text)
            checked += stats["entries"]
    assert checked > 0


@criterion(6, "clique-question reductions answer exactly")
def test_criterion_6_reduction_fidelity():
    built = refused = 0
    for n in range(2, 6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            edge_set = set(edges)
            source = Graph(n, edges)
            for ell in (2, 3):
                if ell > n:
                    continue
                need = ell * (ell - 1) // 2
                expect = any(
                    all((a, b) in edge_set for a, b in combinations(group, 2))
                    for group in combinations(range(n), ell)
                )
                if len(edges) < need:
                    assert not expect
                    with pytest.raises(ParameterOutOfRangeError):
                        build_clique_reduction(source, ell, 2)
                    refused += 1
                    continue
                inst, params = build_clique_reduction(source, ell, 2)
                assert params.anchor_profit == n**4
                assert params.threshold == n**4 + need * n + (n - ell)
                assert params.blocker_profit == params.threshold - (
                    len(edges) - need
                ) * n
                assert params.blocker_profit >= n**3
                got = decide_satisfaction_at_least(inst, params.threshold)
                assert got == expect, (n, edges, ell)
                if n <= 3:
                    assert (brute_force(inst).optimum >= params.threshold) == expect
                built += 1
    assert built == 2105 and refused == 89


@criterion(7, "decomposition shape and separation guarantees")
def test_criterion_7_structural_checks(corpus):
    pairs = 0
    violations = 0
    for entry in corpus:
        graph = entry.instance.graph
        td = minfill_decomposition(graph)
        verify_decomposition(graph, td)
        nice = make_nice(td)
        verify_nice(nice)
        nice_occurrences_connected(nice)
        assert nice.width == td.width
        bad = separator_violations(graph, td)
        violations += len(bad)
        pairs += len(td.edges)
        if is_chordal(graph):
            ct = clique_tree(graph)
            verify_decomposition(graph, ct)
            for bag in ct.bags:
                assert all(
                    graph.has_edge(u, v) for u, v in combinations(bag, 2)
                ), (entry.family, entry.seed, bag)
                for v in range(graph.n):
                    if v not in bag:
                        assert not all(graph.has_edge(v, u) for u in bag)
            nice_ct = make_nice(ct)
            verify_nice(nice_ct)
            nice_occurrences_connected(nice_ct)
            violations += len(separator_violations(graph, ct))
            pairs += len(ct.edges)
    assert pairs >= 1000, pairs
    assert violations == 0


@criterion(8, "ordered solver scales within its operation-count trend")
def test_criterion_8_scaling_smoke():
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_smoke.py"
    spec = importlib.util.spec_from_file_location("scaling_smoke", script)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    rows = mod.run_sweep((10, 20, 40), k=2, seed=0)
    assert [row.n for row in rows] == [10, 20, 40]
    assert all(row.qbound <= 200 for row in rows)
    assert rows[-1].seconds < 60, rows
    factor = mod.worst_trend_factor(rows, k=2)
    assert factor <= 10, (factor, rows)


@criterion(9, "identical reports across repeated and threaded runs")
def test_criterion_9_determinism(corpus, tmp_path):
    paths = []
    for i, entry in enumerate(corpus):
        path = tmp_path / f"i{i}.fk"
        path.write_text(serialize_instance(entry.parsed))
        paths.append(path)

    def solve_bytes(path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["solve", "--input", str(path), "--no-timing"])
        assert code == 0, path
        return buf.getvalue()

    first = [solve_bytes(p) for p in paths]
    second = [solve_bytes(p) for p in paths]
    assert first == second

    sample = paths[:: len(paths) // 5][:5]
    for path in sample:
        outs = set()
        for threads in ("1", "2", "4"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "fkdiv.cli",
                    "solve",
                    "--input",
                    str(path),
                    "--threads",
                    threads,
                    "--no-timing",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, path
        report = json.loads(outs.pop())
        in_process = json.loads(first[paths.index(path)])
        assert report == in_process
