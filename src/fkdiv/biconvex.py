"""Solver for biconvex conflict graphs with supplied orderings.

Per connected component, only the two tails of the side-A order resist
the ordered solver, and inside a tail the neighborhoods are nested. So
for every class we guess its innermost member in each tail (possibly
none). The guessed vertices' neighbors are struck from that class for
the middle solve by zeroing their profit and stripping them from the
witnesses afterwards, the guessed vertices themselves are added on top,
and the remaining tail vertices, whose neighborhoods the guesses cover,
are swept in one by one. Components merge by summing profiles.

Sets, exact or rounded, hold no witnesses: one is traced back when
asked for, by splitting the profile across the components and
replaying the steps of one guess inside a component.
"""

from __future__ import annotations

from itertools import product

from .bipartite import biconvex_structure, require_biconvex_ordering
from .graphs import Instance
from .orientation import complement_orientation
from .profiles import ProfileSpace
from .cocomp import solve_cocomparability


def enumerate_guesses(tail_left, tail_right, k: int):
    """All per-class picks of innermost tail members, None meaning the
    class avoids that tail; real picks never repeat a vertex."""
    for upper in product((None, *tail_left), repeat=k):
        ups = [v for v in upper if v is not None]
        if len(set(ups)) != len(ups):
            continue
        for lower in product((None, *tail_right), repeat=k):
            lows = [v for v in lower if v is not None]
            if len(set(lows)) != len(lows):
                continue
            yield upper, lower


def _relabel(ids, forbidden=None):
    """Coloring map from local ids to `ids`, dropping from each class j
    the vertices in forbidden[j]."""

    def relabel(coloring):
        return tuple(
            tuple(sorted(
                x for x in map(ids.__getitem__, cls)
                if forbidden is None or x not in forbidden[j]
            ))
            for j, cls in enumerate(coloring)
        )

    return relabel


def _sweep(cur, vertex, classes, instance, space, steps):
    """`cur` plus `vertex` in any one of `classes`, or left out.

    Every addition extends `cur` itself, so one vertex never lands in
    two classes of the same witness. With `steps`, records the step.
    """
    if steps is not None:
        steps.append((vertex, classes, cur))
    return space.union(
        [cur, *(cur.extended(j, instance.profit(j, vertex)) for j in classes)]
    )


def _undo_steps(instance, steps, profile):
    """Walk recorded steps back, last first: (the profile left before
    the first step, per-class lists of the vertices the steps placed).

    A step is (vertex, classes, snapshot before it). A sweep step leaves
    its vertex out when the snapshot holds the profile, and otherwise
    puts it in the smallest listed class whose reduced profile the
    snapshot holds; a step without a snapshot is always taken.
    """
    placed = [[] for _ in range(instance.k)]
    p = profile
    for vertex, classes, before in reversed(steps):
        if before is not None and p in before:
            continue
        for j in classes:
            reduced = p[:j] + (p[j] - instance.profit(j, vertex),) + p[j + 1 :]
            if before is None or reduced in before:
                placed[j].append(vertex)
                p = reduced
                break
        else:
            raise AssertionError(f"no step source for {profile} at vertex {vertex}")
    return p, placed


def solve_biconvex_connected(
    instance: Instance, order_a, order_b, space, witnesses: bool = False
):
    """Profile set of one connected component, in the component's ids.

    With `witnesses`, each guess's final set is kept, and the returned
    set traces a profile by replaying the first guess, in
    `enumerate_guesses` order, whose set holds it: the replay records
    the boundary and sweep steps, which are undone last first, and the
    rest comes from the middle solve's ordered traceback. A guess is
    replayed at most once per returned set.
    """
    graph = instance.graph
    k = instance.k
    st = biconvex_structure(graph, order_a, order_b)
    mid_instance, mid_ids = instance.sub_instance(st.middle)
    orientation = complement_orientation(mid_instance.graph)
    to_mid = {g: i for i, g in enumerate(mid_ids)}
    pos = {v: i for i, v in enumerate(st.order_a)}

    def run_guess(upper, lower, steps=None):
        """(final set, middle set, relabeling of middle witnesses)."""
        forbidden = []
        for j in range(k):
            banned = set()
            if upper[j] is not None:
                banned.update(graph.neighbors(upper[j]))
            if lower[j] is not None:
                banned.update(graph.neighbors(lower[j]))
            forbidden.append(frozenset(banned))
        rows = []
        for j in range(k):
            row = list(mid_instance.profits[j])
            for g in forbidden[j]:
                row[to_mid[g]] = 0
            rows.append(row)
        zeroed = mid_instance.with_profits(rows)
        # `space` keeps the whole instance's shape, so middle sets pack
        # like the sets they are extended into.
        middle = solve_cocomparability(
            zeroed,
            orientation=orientation,
            space=space,
            witnesses=steps is not None,
        )
        cur = middle
        for j in range(k):
            for boundary in (upper[j], lower[j]):
                if boundary is not None:
                    if steps is not None:
                        steps.append((boundary, (j,), None))
                    cur = cur.extended(j, instance.profit(j, boundary))
        # Sweep the other tail vertices, from each tail's outer end in,
        # into any class whose guessed bound covers them.
        real = {v for v in (*upper, *lower) if v is not None}
        tails = ((st.tail_left, upper, 1), (st.tail_right[::-1], lower, -1))
        for tail, bounds, sign in tails:
            for a in tail:
                classes = [
                    j for j, b in enumerate(bounds)
                    if b is not None and sign * (pos[b] - pos[a]) > 0
                ]
                if classes and a not in real:
                    cur = _sweep(cur, a, classes, instance, space, steps)
        return cur, middle, _relabel(mid_ids, forbidden)

    finals = []

    def guess_sets():
        for upper, lower in enumerate_guesses(st.tail_left, st.tail_right, k):
            cur = run_guess(upper, lower)[0]
            if witnesses:
                finals.append((upper, lower, cur))
            yield cur

    result = space.finalize(space.union(guess_sets()))
    if not witnesses:
        return result

    replays = {}  # (upper, lower) -> (steps, middle set, relabeling)

    def witness(profile):
        for upper, lower, final in finals:
            if profile in final:
                break
        else:
            raise KeyError(profile)
        if (upper, lower) not in replays:
            steps = []
            _cur, middle, relabel = run_guess(upper, lower, steps)
            replays[upper, lower] = steps, middle, relabel
        steps, middle, relabel = replays[upper, lower]
        rest, placed = _undo_steps(instance, steps, profile)
        mid = relabel(middle.witness_for(rest))
        return tuple(tuple(sorted([*a, *b])) for a, b in zip(placed, mid))

    result.traceback = witness
    return result


def solve_biconvex(
    instance: Instance,
    order_a,
    order_b,
    *,
    space=None,
    witnesses: bool = False,
    prune: bool = False,
):
    """Profile set over all valid partial colorings of `instance`.

    order_a and order_b must be a biconvex ordering of the whole graph;
    components are carved out, solved against their restricted orders,
    and merged by profile sums. `witnesses=True` makes the returned set
    split a profile back across the components, last component first,
    and trace each part in its own component.
    """
    graph = instance.graph
    if space is None:
        space = ProfileSpace.for_instance(instance, prune=prune)
    require_biconvex_ordering(graph, order_a, order_b)
    parts, traces = [], []
    for comp in graph.components():
        if len(comp) == 1:
            steps = []
            part = _sweep(space.zero(), comp[0], range(instance.k), instance, space, steps)
            parts.append(space.finalize(part))
            traces.append(
                lambda p, s=steps: tuple(map(tuple, _undo_steps(instance, s, p)[1]))
            )
            continue
        members = set(comp)
        sub, ids = instance.sub_instance(comp)
        to_local = {g: i for i, g in enumerate(ids)}
        local_a = tuple(to_local[v] for v in order_a if v in members)
        local_b = tuple(to_local[v] for v in order_b if v in members)
        part = solve_biconvex_connected(sub, local_a, local_b, space, witnesses)
        if witnesses:
            traces.append(lambda p, t=part.traceback, r=_relabel(ids): r(t(p)))
        parts.append(part)
    folds = [space.zero()]  # folds[i]: the sums over parts[:i]
    for part in parts:
        folds.append(folds[-1].combine(part))
    result = space.finalize(folds[-1])
    if not witnesses:
        return result

    def witness(profile):
        coloring = [[] for _ in range(instance.k)]
        for i in range(len(parts) - 1, -1, -1):
            profile, own = folds[i].split(profile, parts[i])
            for j, cls in enumerate(traces[i](own)):
                coloring[j].extend(cls)
        return tuple(tuple(sorted(cls)) for cls in coloring)

    result.traceback = witness
    return result
