"""Approximation wrapper around the exact solvers.

Running any space-aware solver on a rounded space caps each class at
O(n * log UB / eps) grid indices, n items and UB its largest total,
while keeping true profiles alongside, so the reported value is always
realizable and, for the ordered solver, at least the optimum divided by
1+eps. States hold no witnesses: the solver walks the best truth back
through its tables, by the rule it uses for exact sets. The accuracy
parameter must arrive as an exact decimal string or Fraction; binary
floats would silently change the grid. An accuracy whose grid would
need more than MAX_INDEX_RANGE indices per class is refused with
ParameterOutOfRangeError.

Every cell is pruned by joint dominance: a state (key K, truth T) is
dropped when another state of its cell has K' >= K and T' >= T in every
entry. The (1+eps) bound of the ordered solver still holds. Take an
optimal coloring and the key sequence K*_0, K*_1, ... that its own
items would produce cell by cell through `RoundingGrid.extend`; the
last key satisfies r^K* >= opt/(1+eps) in every class, since each
class loses at most one factor r per item and r^n <= 1+eps. By induction, the pruned run holds in each of those cells
a state with key >= K*_i: a prune drops a state only for one with a key
at least as large, a collision keeps the key and replaces only the
truth, and `extend` is monotone in its index, so extending the covering
state by the optimum's next item gives a key >= K*_(i+1). Every state
keeps r^K <= T, so the final covering state has a truth whose minimum
is at least opt/(1+eps). A prune on truths alone would break the
induction: a state with the larger truth may carry the smaller key,
since a key records how its truth was rounded on the way.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cocomp import iter_layer_tables, solve_cocomparability
from .graphs import Instance
from .orientation import complement_orientation
from .profiles import ProfileSpace
from .rounding import ZERO, RoundedProfileSpace, RoundingGrid


def parse_epsilon(value) -> Fraction:
    """Exact accuracy parameter from a decimal string or rational."""
    if isinstance(value, float):
        raise TypeError(
            "pass the accuracy as a string like '0.1'; floats are inexact"
        )
    if isinstance(value, Fraction):
        eps = value
    elif isinstance(value, int):
        eps = Fraction(value)
    elif isinstance(value, str):
        try:
            eps = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot read accuracy parameter {value!r}") from None
    else:
        raise TypeError(f"unsupported accuracy type {type(value).__name__}")
    if eps <= 0:
        raise ValueError("accuracy parameter must be positive")
    return eps


class FptasResult(namedtuple("FptasResult", "value profile witness epsilon grid states")):
    __slots__ = ()


def solve_approx(instance: Instance, epsilon, solver=solve_cocomparability) -> FptasResult:
    """Run `solver` on the rounded space and select the best true value.

    The witness, walked back by the solver, is a valid partial coloring
    and `value` is its exact minimum profit, so the result never
    overshoots the optimum.
    """
    eps = parse_epsilon(epsilon)
    grid = RoundingGrid.for_instance(instance, eps)
    space = RoundedProfileSpace(instance.k, grid)
    states = solver(instance, space=space, witnesses=True)
    value, true, witness = states.best()
    return FptasResult(
        value=value,
        profile=true,
        witness=witness,
        epsilon=eps,
        grid=grid,
        states=states,
    )


def _record_derivations(instance: Instance, grid, table, j, vertex, preds, derived) -> None:
    """Store under (cell key, state key) in `derived`, for each state of
    the cells written at layer j, the per-class item counts of one real
    derivation: a source state, in the cell with a predecessor position
    in place of j, that `extended` would carry onto this very key and
    truth."""
    for key, cell in table.items():
        if j not in key:
            continue
        s = key.index(j)
        p = instance.profit(s, vertex)
        images: dict = {}
        for i in sorted(preds):
            source = key[:s] + (i,) + key[s + 1 :]
            if source not in table:
                continue
            for src_key, true in table[source].keyed():
                image = (
                    src_key[:s] + (grid.extend(src_key[s], p),) + src_key[s + 1 :],
                    true[:s] + (true[s] + p,) + true[s + 1 :],
                )
                counts = derived[source, src_key]
                images.setdefault(image, counts[:s] + (counts[s] + 1,) + counts[s + 1 :])
        for state in cell.keyed():
            if state not in images:
                raise AssertionError(f"layer {j} cell {key}: no source state derives {state}")
            derived[key, state[0]] = images[state]


def paired_rounding_check(instance: Instance, epsilon) -> dict:
    """Run the ordered solver exactly and rounded in lockstep and verify
    the rounding invariants layer by layer.

    Checks, per layer: both runs materialize exactly the same state
    keys (the rounding never changes which states exist, only what each
    one holds); every rounded entry keeps a grid value at most its true
    profit; the true profit stays within one grid factor per item added
    to that class; and the sentinel index appears exactly for classes
    with true profit zero. Items are counted along one real derivation
    of each state, matched on key and truth (`_record_derivations`).
    The rounded space prunes, as in `solve_approx`. Returns counters of
    everything checked.
    """
    eps = parse_epsilon(epsilon)
    grid = RoundingGrid.for_instance(instance, eps)
    orientation = complement_orientation(instance.graph)
    exact_space = ProfileSpace.for_instance(instance)
    rounded_space = RoundedProfileSpace(instance.k, grid)

    exact_run = iter_layer_tables(instance, orientation, exact_space)
    rounded_run = iter_layer_tables(instance, orientation, rounded_space)
    pos = {v: i + 1 for i, v in enumerate(orientation.order)}
    zero = (0,) * instance.k
    derived = {(zero, (ZERO,) * instance.k): zero}
    layers = cells = entries = 0
    for (j1, v1, exact_table), (j2, _v2, rounded_table) in zip(
        exact_run, rounded_run, strict=True
    ):
        assert j1 == j2
        if exact_table.keys() != rounded_table.keys():
            raise AssertionError(
                f"layer {j1}: exact and rounded state keys differ"
            )
        if v1 is not None:
            preds = {0, *(pos[u] for u in orientation.in_neighbors(v1))}
            _record_derivations(instance, grid, rounded_table, j1, v1, preds, derived)
        layers += 1
        for key, states in rounded_table.items():
            cells += 1
            for idx_key, true in states.keyed():
                entries += 1
                counts = derived[key, idx_key]
                for cls in range(instance.k):
                    t = idx_key[cls]
                    q = true[cls]
                    additions = counts[cls]
                    if t == ZERO:
                        if q != 0:
                            raise AssertionError(
                                f"layer {j1} cell {key}: sentinel with profit {q}"
                            )
                        continue
                    if q == 0:
                        raise AssertionError(
                            f"layer {j1} cell {key}: zero profit at index {t}"
                        )
                    if not grid.endpoint_le_value(t, q):
                        raise AssertionError(
                            f"layer {j1} cell {key}: grid value exceeds truth"
                        )
                    if not grid.value_le_endpoint(q, additions + t):
                        raise AssertionError(
                            f"layer {j1} cell {key}: truth drifted beyond "
                            f"{additions} grid factors"
                        )
    return {"layers": layers, "cells": cells, "entries": entries}
