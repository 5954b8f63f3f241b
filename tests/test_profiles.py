import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdiv.errors import EmptySetError
from fkdiv.graphs import Graph, Instance
from fkdiv.profiles import (
    BITSET_LIMIT,
    ProfileSet,
    ProfileSpace,
    check_coloring,
    profile_of,
    satisfaction,
)
from fkdiv.rounding import RoundedProfileSpace, RoundingGrid


def filled(k, qbound, profiles):
    ps = ProfileSet(k, qbound)
    for p in profiles:
        ps.add(tuple(p))
    return ps


def test_satisfaction_examples():
    assert satisfaction((0, 5)) == 0
    assert satisfaction((7,)) == 7


def test_profile_of_and_check():
    inst = Instance(Graph(3, [(0, 1)]), ((1, 2, 4), (8, 1, 1)))
    col = ((0, 2), (1,))
    check_coloring(inst.graph, col)
    assert profile_of(inst, col) == (5, 1)
    with pytest.raises(ValueError):
        check_coloring(inst.graph, ((0, 1), ()))
    with pytest.raises(ValueError):
        check_coloring(inst.graph, ((0,), (0,)))


def test_minkowski_merge_example():
    a = filled(2, 9, [(1, 0), (0, 1)])
    b = filled(2, 9, [(2, 0), (0, 2)])
    merged = a.combine(b)
    assert set(merged.profiles()) == {(3, 0), (1, 2), (2, 1), (0, 3)}


def test_best_examples():
    assert filled(2, 5, [(0, 0)]).best()[0] == 0
    assert filled(1, 9, [(5,), (9,)]).best()[0] == 9
    with pytest.raises(EmptySetError):
        ProfileSet(1, 3).best()


def test_best_prefers_lexicographic_profile_on_ties():
    ps = filled(2, 9, [(3, 5), (5, 3), (3, 4)])
    value, profile, _ = ps.best()
    assert value == 3
    assert profile == (5, 3)


def test_prune_keeps_zero_profile_alone():
    assert filled(2, 4, [(0, 0)]).prune_dominated().profiles() == [(0, 0)]


def test_prune_drops_dominated_only():
    ps = filled(2, 9, [(2, 2), (1, 1), (3, 0), (2, 3)])
    kept = set(ps.prune_dominated().profiles())
    assert kept == {(3, 0), (2, 3)}


def test_prune_preserves_best_value():
    rows = [(1, 7), (4, 4), (7, 1), (0, 0), (4, 3)]
    ps = filled(2, 9, rows)
    assert ps.prune_dominated().best()[0] == ps.best()[0] == 4


def test_add_rejects_out_of_range():
    ps = ProfileSet(2, 4)
    with pytest.raises(ValueError):
        ps.add((5, 0))
    with pytest.raises(ValueError):
        ps.add((-1, 0))


def test_extended_and_combine_small():
    ps = filled(2, 9, [(0, 0), (1, 2)])
    up = ps.extended(0, 3)
    assert set(up.profiles()) == {(3, 0), (4, 2)}
    both = up.combine(filled(2, 9, [(0, 1)]))
    assert set(both.profiles()) == {(3, 1), (4, 3)}


def test_bitset_mode_engages_only_when_small():
    small = ProfileSet(2, 3)
    big = ProfileSet(3, 200)
    assert small._bits is not None
    assert big._bits is None
    assert (3 + 1) ** 2 <= BITSET_LIMIT < (200 + 1) ** 3


def test_set_mode_builds_no_packing_weights():
    """At k=3000, Q=1 the k radix weights alone would take about 0.7 MB
    per set; sets that are not bitmaps pack nothing and build none."""
    k = 3000
    profiles = [(0,) * k, (1,) + (0,) * (k - 1), (0, 1) + (0,) * (k - 2)]
    tracemalloc.start()
    try:
        ps = filled(k, 1, profiles)
        grown = ps.extended(k - 1, 1)
        pruned = grown.prune_dominated()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pruned) == 2
    assert all(s._bits is None and s._weights is None for s in (ps, grown, pruned))
    assert peak < 300_000


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bitset_and_map_modes_agree(data):
    k = data.draw(st.integers(min_value=1, max_value=2))
    qbound = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=qbound)] * k),
            max_size=8,
        )
    )
    amount = data.draw(st.integers(min_value=0, max_value=qbound))
    cls0 = data.draw(st.integers(min_value=0, max_value=k - 1))
    bit = ProfileSet(k, 2 * qbound)
    mapped = ProfileSet(k, BITSET_LIMIT)
    assert bit._bits is not None and mapped._bits is None
    for row in rows:
        bit.add(row)
        mapped.add(row)
    assert bit.profiles() == mapped.profiles()
    assert (
        bit.extended(cls0, amount).profiles()
        == mapped.extended(cls0, amount).profiles()
    )
    assert bit.combine(bit).profiles() == mapped.combine(mapped).profiles()
    assert (
        bit.prune_dominated().profiles() == mapped.prune_dominated().profiles()
    )
    if rows:
        assert bit.best()[:2] == mapped.best()[:2]


def test_space_zero_and_finalize():
    space = ProfileSpace(2, 9, prune=True)
    z = space.zero()
    assert z.profiles() == [(0, 0)]
    ps = space.empty()
    ps.add((1, 1))
    ps.add((2, 2))
    assert space.finalize(ps).profiles() == [(2, 2)]


def test_space_for_instance_uses_qbound():
    inst = Instance(Graph(2, []), ((3, 4), (1, 1)))
    space = ProfileSpace.for_instance(inst)
    assert space.qbound == 7


def reference_prune(ps):
    """The quadratic prune_dominated loop that the sorted sweep replaced."""
    if len(ps) <= 1:
        return ps
    kept = []
    for p in sorted(ps.profiles(), reverse=True):
        if not any(all(a >= b for a, b in zip(q, p)) for q in kept):
            kept.append(p)
    out = ProfileSet(ps.k, ps.qbound)
    for p in kept:
        out.add(p)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prune_matches_reference_loop(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    qbound = data.draw(st.sampled_from([1, 3, 6, 400]))
    set_mode = data.draw(st.booleans())
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=qbound)] * k),
            max_size=30,
        )
    )
    ps = ProfileSet(k, BITSET_LIMIT if set_mode else qbound)
    for row in rows:
        ps.add(row)
    ps.traceback = repr
    got, want = ps.prune_dominated(), reference_prune(ps)
    assert got.profiles() == want.profiles()
    assert got.traceback is repr


@pytest.mark.parametrize("qbound", [3, BITSET_LIMIT])
def test_contains_rejects_foreign_profiles_in_both_modes(qbound):
    ps = filled(2, qbound, [(1, 1)])
    assert (ps._bits is not None) == (qbound == 3)
    assert (1, 1) in ps and [1, 1] in ps
    for probe in [(0, 5), (-1, 9), (1, 1, 0), (1,), (2, -3), (1, qbound + 1)]:
        assert probe not in ps


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_undoes_combine(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[st.integers(min_value=0, max_value=4)] * k)
    lefts = data.draw(st.lists(row, min_size=1, max_size=6))
    rights = data.draw(st.lists(row, min_size=1, max_size=6))
    for qbound in (3 * 8, BITSET_LIMIT):
        a = filled(k, qbound, lefts)
        b = filled(k, qbound, rights)
        for p in a.combine(b):
            left, right = a.split(p, b)
            assert left in a and right in b
            assert tuple(x + y for x, y in zip(left, right)) == p
            assert left == min(
                q for q in a if tuple(x - y for x, y in zip(p, q)) in b
            )
        assert a.split((qbound,) * k, b) is None


def snapshot(cell):
    return cell.profiles(), cell.keyed() if hasattr(cell, "keyed") else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_space_union_is_a_fold_that_leaves_its_cells_alone(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    kind = data.draw(st.sampled_from(["bitset", "set", "rounded"]))
    profile = st.tuples(*[st.integers(min_value=0, max_value=6)] * k)
    # Few distinct grid keys, so that rounded cells collide on a key
    # with other truths.
    key = st.tuples(*[st.integers(min_value=-1, max_value=2)] * k)
    if kind == "rounded":
        space = RoundedProfileSpace(k, RoundingGrid(Fraction(1, 2), 4, (6,) * k))
    else:
        space = ProfileSpace(k, 7 if kind == "bitset" else BITSET_LIMIT)
    cells = [space.empty() for _ in range(data.draw(st.integers(0, 5)))]
    for cell in cells:
        for truth in data.draw(st.lists(profile, max_size=8)):
            if kind == "rounded":
                cell.insert(data.draw(key), truth)
            else:
                cell.add(truth)
    before = [snapshot(cell) for cell in cells]

    folded = space.empty()
    for cell in cells:
        folded.union_update(cell)
    got = space.union(iter(cells))
    assert snapshot(got) == snapshot(folded)
    assert [snapshot(cell) for cell in cells] == before
    # The union shares no storage with its cells: growing it by a state
    # that no cell holds changes none of them.
    extra = space.empty()
    if kind == "rounded":
        extra.insert((3,) * k, (7,) * k)
    else:
        extra.add((7,) * k)
    got.union_update(extra)
    assert [snapshot(cell) for cell in cells] == before
    assert space.union([]).is_empty()
