"""Shared fixtures: the seeded cross-check corpus and small oracles."""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from fkdiv.biconvex import solve_biconvex
from fkdiv.cocomp import solve_cocomparability
from fkdiv.decomposition import is_chordal
from fkdiv.generators import build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.instance_io import ParsedInstance
from fkdiv.orientation import complement_orientation, is_cocomparability
from fkdiv.profiles import check_coloring, profile_of
from fkdiv.treedp import solve_chordal, solve_treewidth

# `pythonpath` in pyproject.toml reaches only the pytest process; tests
# that run `python -m fkdiv.cli` in a child find this checkout's package
# through the environment they inherit.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)

CORPUS_FAMILIES = ("edgeless", "interval", "chordal", "biconvex", "random")
PER_FAMILY = 200

# Verdict lines from the acceptance gate; echoed after the run because
# pytest's capture swallows per-test prints on success.
ACCEPTANCE_VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance gate")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


@dataclass(frozen=True)
class CorpusEntry:
    family: str
    seed: int
    parsed: ParsedInstance

    @property
    def instance(self) -> Instance:
        return self.parsed.instance


def _corpus_entries():
    entries = []
    sizes = (4, 5, 6, 7, 8, 3, 6, 8)
    ks = (1, 2, 3)
    caps = (20, 7, 3, 12, 20, 1)
    for fam_idx, family in enumerate(CORPUS_FAMILIES):
        for i in range(PER_FAMILY):
            seed = fam_idx * 1_000_003 + i * 9_176 + 17
            n = sizes[i % len(sizes)]
            k = ks[i % len(ks)]
            cap = caps[i % len(caps)]
            parsed = build_family(family, n, k, cap, seed)
            entries.append(CorpusEntry(family, seed, parsed))
    return entries


@pytest.fixture(scope="session")
def corpus():
    return _corpus_entries()


def applicable_solvers(parsed: ParsedInstance):
    """(name, zero-config callable) pairs for every solver that fits."""
    inst = parsed.instance
    out = [("treewidth", lambda inst=inst, **kw: solve_treewidth(inst, **kw))]
    if is_chordal(inst.graph):
        out.append(("chordal", lambda inst=inst, **kw: solve_chordal(inst, **kw)))
    if is_cocomparability(inst.graph):
        out.append(
            ("cocomp", lambda inst=inst, **kw: solve_cocomparability(inst, **kw))
        )
    if parsed.order_a is not None:
        out.append(
            (
                "biconvex",
                lambda inst=inst, p=parsed, **kw: solve_biconvex(
                    inst, p.order_a, p.order_b, **kw
                ),
            )
        )
    return out


def assert_witnesses(instance, pset, limit=None):
    """Every witness `pset` gives, for its first `limit` profiles (all
    when None) and for its best one, is a valid coloring of `instance`
    that realizes its profile."""
    pairs = list(itertools.islice(pset.items(), limit))
    pairs.append(pset.best()[1:])
    for profile, witness in pairs:
        check_coloring(instance.graph, witness)
        assert profile_of(instance, witness) == profile


def structured_solver(parsed: ParsedInstance):
    """Preferred single solver for approximation runs (never brute force)."""
    for name, run in reversed(applicable_solvers(parsed)):
        if name != "treewidth":
            return name, run
    return applicable_solvers(parsed)[0]


def orientation_exists_bruteforce(graph: Graph) -> bool:
    """Whether any orientation of the edges is transitive, by enumeration."""
    edges = sorted(graph.edges)
    m = len(edges)
    for bits in range(1 << m):
        arcs = set()
        for idx, (u, v) in enumerate(edges):
            arcs.add((u, v) if bits >> idx & 1 else (v, u))
        if all(
            (x, w) in arcs
            for x, y in arcs
            for (y2, w) in arcs
            if y2 == y and w != x
        ):
            return True
    return False


def partition_best(values, k: int) -> int:
    """Exact max-min sum over all assignments of values into k buckets."""
    best = 0
    for assign in itertools.product(range(k), repeat=len(values)):
        sums = [0] * k
        for val, j in zip(values, assign):
            sums[j] += val
        best = max(best, min(sums))
    return best


def subset_sum_partition(values) -> int:
    """Max-min two-way split via subset sums; every item is used."""
    total = sum(values)
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return max(min(s, total - s) for s in sums)


def verify_nice(nice) -> None:
    """Structural soundness of a nice decomposition; AssertionError on any hole."""
    nodes = nice.nodes
    assert nodes[nice.root].bag == ()
    seen_children = set()
    for idx, nd in enumerate(nodes):
        assert list(nd.bag) == sorted(set(nd.bag))
        for c in nd.children:
            assert c < idx, "children must precede their parent"
            assert c not in seen_children, "node used as a child twice"
            seen_children.add(c)
        if nd.kind == "leaf":
            assert nd.children == () and nd.bag == ()
        elif nd.kind == "introduce":
            (c,) = nd.children
            assert nd.vertex is not None and nd.vertex not in nodes[c].bag
            assert set(nd.bag) == set(nodes[c].bag) | {nd.vertex}
        elif nd.kind == "forget":
            (c,) = nd.children
            assert nd.vertex is not None and nd.vertex in nodes[c].bag
            assert set(nd.bag) == set(nodes[c].bag) - {nd.vertex}
        elif nd.kind == "join":
            a, b = nd.children
            assert nodes[a].bag == nodes[b].bag == nd.bag
        else:
            raise AssertionError(f"unknown node kind {nd.kind!r}")
    assert nice.root == len(nodes) - 1, "the root must be the last node"
    assert seen_children == set(range(nice.root)), "every node but the root is a child"


def nice_occurrences_connected(nice) -> None:
    """Every vertex's occurrence set forms a connected subtree."""
    nodes = nice.nodes
    parent = {}
    for idx, nd in enumerate(nodes):
        for c in nd.children:
            parent[c] = idx
    for v in {x for nd in nodes for x in nd.bag}:
        holding = [i for i, nd in enumerate(nodes) if v in nd.bag]
        tops = []
        holding_set = set(holding)
        for i in holding:
            p = parent.get(i)
            if p is None or p not in holding_set:
                tops.append(i)
        assert len(tops) == 1, f"vertex {v} occurrences split into {len(tops)} blocks"


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


def reference_union(instance, space, table_space=None):
    """The union of the frozen layer loop's cells over the complement's
    orientation, built in `table_space` (default `space`) and finalized
    by `space`: an oracle that shares no code with the frontier DP."""
    orientation = complement_orientation(instance.graph)
    table = reference_table(instance, orientation, table_space or space)
    return space.finalize(space.union(table.values()))


def random_instance(rng: random.Random, n: int, k: int, cap: int, density: float):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    rows = tuple(tuple(rng.randint(0, cap) for _ in range(n)) for _ in range(k))
    return Instance(Graph(n, edges), rows)
