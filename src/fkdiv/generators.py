"""Seeded instance generators for the supported graph families.

Every family takes (n, k, max_profit, seed) and yields a ParsedInstance
declaring the family. A family's builder draws its graph, with side
orderings for biconvex and edgeless, and `build_family` then draws the
profits uniformly from 0..max_profit; clique-reduction sets its own.
All randomness flows through one random.Random(seed), so equal
parameters give equal bytes after serialization.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations
from math import comb

from .errors import ParameterOutOfRangeError, UnknownFamilyError
from .graphs import Graph, Instance, canonical_edge, chordal_peo
from .instance_io import ParsedInstance

# A clique-reduction source is redrawn until it has enough edges; a
# draw that succeeds less often than once in this many is refused.
MAX_EXPECTED_DRAWS = 2**10


def _check_common(n: int, k: int, max_profit: int) -> None:
    if n < 1:
        raise ParameterOutOfRangeError("n must be at least 1")
    if k < 1:
        raise ParameterOutOfRangeError("k must be at least 1")
    if max_profit < 0:
        raise ParameterOutOfRangeError("max-profit must be nonnegative")


def _edgeless(rng, n):
    half = (n + 1) // 2
    return Graph(n, []), tuple(range(half)), tuple(range(half, n))


def _interval(rng, n):
    span = 2 * n
    intervals = []
    for _ in range(n):
        lo = rng.randint(1, span)
        hi = rng.randint(lo, span)
        intervals.append((lo, hi))
    edges = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if intervals[u][0] <= intervals[v][1] and intervals[v][0] <= intervals[u][1]
    ]
    return (Graph(n, edges),)


def _chordal(rng, n):
    # Clique-attachment growth; optionally grow larger then induce back
    # down, which keeps chordality but varies the shape.
    total = n if n < 3 or rng.random() < 0.5 else n + rng.randint(1, n // 2)
    w = rng.randint(1, min(3, max(1, total - 1)))
    cliques = [tuple(range(min(w + 1, total)))]
    edges = set(combinations(cliques[0], 2))
    for v in range(len(cliques[0]), total):
        base = rng.choice(cliques)
        size = min(w, len(base))
        anchor = tuple(sorted(rng.sample(base, size)))
        for u in anchor:
            edges.add(canonical_edge(u, v))
        cliques.append(anchor + (v,))
    if total > n:
        keep = sorted(rng.sample(range(total), n))
        graph, _ = Graph(total, sorted(edges)).induced(keep)
    else:
        graph = Graph(total, sorted(edges))
    assert chordal_peo(graph)
    return (graph,)


def _monotone(rng, count, lo, hi):
    return sorted(rng.randint(lo, hi) for _ in range(count))


def _biconvex(rng, n):
    if n == 1:
        return Graph(1, []), (0,), ()
    t = rng.randint(1, max(1, n // 2))
    a_total = n - t
    tail_l = rng.randint(0, a_total - 1)
    tail_r = rng.randint(0, a_total - 1 - tail_l)
    mid = a_total - tail_l - tail_r

    lo = _monotone(rng, mid, 1, t)
    lo[0] = 1
    hi = _monotone(rng, mid, 1, t)
    hi[-1] = t
    hi = [max(a, b) for a, b in zip(lo, hi)]
    left_reach = _monotone(rng, tail_l, 1, hi[0])
    right_reach = _monotone(rng, tail_r, lo[-1], t)

    ids = list(range(n))
    rng.shuffle(ids)
    order_a_roles = []
    for h in left_reach:
        order_a_roles.append((1, h))
    for pair in zip(lo, hi):
        order_a_roles.append(pair)
    for l in right_reach:
        order_a_roles.append((l, t))
    order_a = tuple(ids[i] for i in range(a_total))
    order_b = tuple(ids[a_total + j] for j in range(t))
    edges = []
    for i, (l, h) in enumerate(order_a_roles):
        for spot in range(l, h + 1):
            edges.append(canonical_edge(order_a[i], order_b[spot - 1]))
    return Graph(n, sorted(set(edges))), order_a, order_b


def _random_graph(rng, n):
    density = rng.uniform(0.1, 0.9)
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    return (Graph(n, edges),)


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if perm[u] > perm[v]
    ]
    return (Graph(n, edges),)


class CliqueReductionParams(
    namedtuple(
        "CliqueReductionParams",
        "source_n source_m ell k threshold anchor_profit blocker_profit"
        " vertex_items edge_items anchor_item blocker_items",
    )
):
    """Bookkeeping for the clique-search instance built from a graph.

    Every class can reach `threshold` iff the source has an ell-clique.
    `anchor_profit` is the profit of the conflict-free anchor item, and
    `blocker_profit` that of an item conflicting with every source
    vertex."""

    __slots__ = ()


def build_clique_reduction(source: Graph, ell: int, k: int):
    """Instance whose max-min value reaches the threshold exactly when
    the source graph contains a clique on ell vertices.

    Items are the source's vertices and edges plus k special items; one
    special item conflicts with nothing, the others conflict with every
    source vertex. Profits are identical across classes and scaled so a
    class holding the conflict-free item must route exactly a clique's
    worth of edges away from the class holding a blocker.
    """
    n, m = source.n, source.m
    if k < 2:
        raise ParameterOutOfRangeError("the reduction needs k >= 2")
    if not (2 <= ell <= n):
        raise ParameterOutOfRangeError(f"ell must be in 2..{n}")
    pairs = ell * (ell - 1) // 2
    if m < pairs:
        raise ParameterOutOfRangeError(
            f"source has only {m} edges, an ell-clique needs {pairs}"
        )
    n1 = n**4
    q = n1 + pairs * n + (n - ell)
    n2 = q - (m - pairs) * n

    vertex_items = tuple(range(n))
    edge_items = tuple(range(n, n + m))
    anchor = n + m
    blockers = tuple(range(n + m + 1, n + m + k))
    total = n + m + k

    edges = []
    source_edges = sorted(source.edges)
    for idx, (u, v) in enumerate(source_edges):
        edges.append((u, n + idx))
        edges.append((v, n + idx))
    for b in blockers:
        for v in vertex_items:
            edges.append((v, b))
    graph = Graph(total, edges)

    profit = [0] * total
    for v in vertex_items:
        profit[v] = 1
    for e in edge_items:
        profit[e] = n
    profit[anchor] = n1
    if blockers:
        profit[blockers[0]] = n2
        for b in blockers[1:]:
            profit[b] = q
    rows = [list(profit) for _ in range(k)]
    instance = Instance(graph, rows)
    params = CliqueReductionParams(
        source_n=n,
        source_m=m,
        ell=ell,
        k=k,
        threshold=q,
        anchor_profit=n1,
        blocker_profit=n2,
        vertex_items=vertex_items,
        edge_items=edge_items,
        anchor_item=anchor,
        blocker_items=blockers,
    )
    return instance, params


def _draw_succeeds_often(slots: int, need: int) -> bool:
    """Whether `need` or more of `slots` fair coin flips come up heads
    with probability at least 1 / MAX_EXPECTED_DRAWS, decided exactly in
    integers. Past the median the binomial terms C(slots, i) shrink by a
    falling ratio, so the tail sum runs up from i = need and stops once
    it is large enough, or once a geometric bound on the remaining terms
    leaves it too small."""
    if 2 * need <= slots:  # at most the median: probability at least 1/2
        return True
    goal = 1 << slots
    tail, term = 0, comb(slots, need)  # term = C(slots, i)
    for i in range(need, slots + 1):
        tail += term
        if tail * MAX_EXPECTED_DRAWS >= goal:
            return True
        term = term * (slots - i) // (i + 1)
        rest = -(-term * (i + 2) // (2 * i + 3 - slots))  # >= every term past i
        if (tail + rest) * MAX_EXPECTED_DRAWS < goal:
            return False
    return False


def _clique_reduction(rng, n, k, ell):
    """The reduction's instance on a G(n, 1/2) source, redrawn until it
    has the ell(ell-1)/2 edges an ell-clique needs. Parameters whose
    draw succeeds less often than once in MAX_EXPECTED_DRAWS tries are
    refused before the first draw."""
    if ell is None:
        raise ParameterOutOfRangeError("family clique-reduction needs --ell")
    if not (2 <= ell <= n):
        raise ParameterOutOfRangeError(f"ell must be in 2..{n}")
    pairs, slots = ell * (ell - 1) // 2, n * (n - 1) // 2
    if not _draw_succeeds_often(slots, pairs):
        raise ParameterOutOfRangeError(
            f"ell={ell} needs {pairs} of the {slots} possible edges, which a"
            f" G({n}, 1/2) draw has less often than once in {MAX_EXPECTED_DRAWS}"
            " draws; choose a smaller ell or a larger n"
        )
    while True:
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if len(edges) >= pairs:
            break
    return build_clique_reduction(Graph(n, edges), ell, k)[0]


# family -> builder: (rng, n) -> (graph,) or (graph, order_a, order_b),
# except clique-reduction: (rng, n, k, ell) -> instance.
_BUILDERS = {
    "edgeless": _edgeless,
    "interval": _interval,
    "chordal": _chordal,
    "biconvex": _biconvex,
    "random": _random_graph,
    "permutation": _permutation,
    "clique-reduction": _clique_reduction,
}
FAMILIES = tuple(_BUILDERS)


def build_family(
    family: str,
    n: int,
    k: int,
    max_profit: int,
    seed: int,
    ell: int | None = None,
) -> ParsedInstance:
    """One seeded instance of the named family. `ell` is the clique size
    of clique-reduction, and any other family refuses one."""
    _check_common(n, k, max_profit)
    build = _BUILDERS.get(family)
    if build is None:
        raise UnknownFamilyError(f"unknown family {family!r}, choose from {FAMILIES}")
    if ell is not None and build is not _clique_reduction:
        raise ParameterOutOfRangeError(f"ell applies only to clique-reduction, not to {family}")
    rng = random.Random(seed)
    if build is _clique_reduction:
        instance, orders = build(rng, n, k, ell), ()
    else:
        graph, *orders = build(rng, n)
        profits = [[rng.randint(0, max_profit) for _ in range(n)] for _ in range(k)]
        instance = Instance(graph, profits)
    return ParsedInstance(instance, family, *orders)
