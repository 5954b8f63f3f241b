"""Approximation wrapper around the exact solvers.

Running any space-aware solver on a rounded space caps each class at
O(n * log UB / eps) grid indices, n items and UB its largest total,
while keeping true profiles alongside, so the reported value is always
realizable; it is at least the optimum divided by 1+eps on the
frontier DP (the ordered and biconvex routes) and by r^D on the tree DP
(below). States hold no
witnesses: the solver walks the best truth back through its tables, by
the rule it uses for exact sets. The accuracy parameter must arrive as an exact
decimal string or Fraction; binary floats would silently change the
grid. An accuracy whose grid would need more than MAX_INDEX_RANGE
indices per class is refused with ParameterOutOfRangeError.

The bound is a covering induction (after Woeginger's trimming of
dominated states, INFORMS J. Comput. 2000). A state's key is the grid
index of its own truth, so two truths with one key lie within a factor
r of each other in every class. Call a truth A a cover of an exact
profile T at depth i when A >= T / r^i in every class.

- Adding profit p to one class of a cover keeps it a cover at the same
  depth, as A + p >= (T + p) / r^i; the sum of two covers is a cover
  at the larger of their depths.
- A cell build costs at most one factor r. Every collision in a build
  compares truths at their own final keys (the frontier DP folds its
  put sources already extended), so the truth that keeps a cover's key
  is a cover one level deeper. A prune drops a truth only for one at
  least as large in every class.
- The frontier DP, on either route, has one layer per item and builds
  each cell in one build from the layer before, so its last layer's
  single cell holds a cover at depth n of every profile. The final
  union keeps, per key, the truth with the higher minimum, and its
  prune a truth at least as large, so the value is at least
  opt / r^n >= opt / (1+eps).
- In the tree DP a forget node extends and folds, and a join combines
  and re-rounds; each is one build, and an introduce node shares its
  child's cells. The root therefore holds a cover at depth D, the
  largest number of forget and join nodes on a root-leaf path of the
  nice decomposition, and the value is at least opt / r^D. The grid is
  sized by n and D may exceed n, so this bound may be weaker than
  1+eps.

`paired_rounding_check` checks the covering invariant on the frontier
DP over the cocomparability route's order, layer by layer and cell by
cell, against an exact run: each undominated exact profile T within
r^m, m the fewest items of a coloring that reaches T in the cell, which
is at most the cell's layer and so at least as strict as the induction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cocomp import frontier_tables, solve_cocomparability
from .graphs import Instance
from .orientation import complement_orientation
from .profiles import ProfileSpace, undominated
from .rounding import B, RoundedProfileSpace, RoundingGrid


# Python's default limit on int <-> str conversion; a longer accuracy
# takes seconds to build and could not be printed.
MAX_EPSILON_DIGITS = 4300
_TOO_LONG = (
    f"accuracy parameter has more than {MAX_EPSILON_DIGITS} digits"
    " in its numerator or denominator"
)


def _written_digits(text: str) -> int:
    """Digits of the longer of the numerator and denominator a decimal
    string writes before reduction ("25e-4" writes 25 / 10^4), counted
    without building either. Zero for "a/b" text, whose two integers
    int() bounds itself, and for text Fraction cannot read."""
    if "/" in text:
        return 0
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    try:
        shift = int(exponent or 0) - sum(map(str.isdigit, decimals))
    except ValueError:
        return 0
    digits = sum(map(str.isdigit, whole + decimals))
    return max(digits + max(shift, 0), 1 - min(shift, 0))


def parse_epsilon(value) -> Fraction:
    """Exact accuracy parameter from a decimal string or rational.

    A numerator or denominator of more than MAX_EPSILON_DIGITS digits, as
    written or once reduced, is refused; a string before Fraction reads it.
    """
    if isinstance(value, float):
        raise TypeError(
            "pass the accuracy as a string like '0.1'; floats are inexact"
        )
    if isinstance(value, Fraction):
        eps = value
    elif isinstance(value, int):
        eps = Fraction(value)
    elif isinstance(value, str):
        if _written_digits(value) > MAX_EPSILON_DIGITS:
            raise ValueError(_TOO_LONG)
        try:
            eps = Fraction(value)
        except (ValueError, ZeroDivisionError):
            shown = repr(value)
            if len(shown) > 60:
                shown = shown[:60] + "..."
            raise ValueError(f"cannot read accuracy parameter {shown}") from None
    else:
        raise TypeError(f"unsupported accuracy type {type(value).__name__}")
    if eps <= 0:
        raise ValueError("accuracy parameter must be positive")
    if max(eps.numerator, eps.denominator) >= 10**MAX_EPSILON_DIGITS:
        raise ValueError(_TOO_LONG)
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


def paired_rounding_check(instance: Instance, epsilon) -> dict:
    """Run the frontier DP over the cocomparability route's order exactly
    and rounded, and check the rounding cell by cell on each pair of
    layer tables.

    The exact run counts items: every positive profit p becomes
    p * (n+1) + 1 and a zero stays 0, so an entry q of its profiles
    splits into the class's exact total q // (n+1) and its item count
    q % (n+1). Zeros stay zeros because the DP never puts an item where
    its profit is 0: the exact run then puts items where the rounded one
    does, and both tables of a layer must hold the same state keys, as
    the rounding never changes which cells exist, only what each one
    holds. A coloring with the fewest items places none at profit 0, so
    counting them would not change m below. In each cell, every state's key is
    `grid.round_profile` of its truth, which puts the truth in
    [r^key, r^(key+1)) and the sentinel exactly at zero; every truth is
    in the exact cell; and every undominated exact profile T of the cell
    has a truth A with A * num^m >= T * 2^(Bm) in every class, where m
    is the fewest items of any coloring that reaches T in the cell. The
    exact run keeps every profile, and the rounded one prunes, as in
    `solve_approx`. Returns counters of everything checked.
    """
    eps = parse_epsilon(epsilon)
    grid = RoundingGrid.for_instance(instance, eps)
    order = complement_orientation(instance.graph).order
    base = instance.n + 1
    counted = instance.with_profits(
        [[p * base + 1 if p else 0 for p in row] for row in instance.profits]
    )

    exact_space = ProfileSpace.for_instance(counted)
    exact_tables = frontier_tables(counted, order, exact_space)
    rounded_tables = frontier_tables(instance, order, RoundedProfileSpace(instance.k, grid))
    cells = entries = 0
    for j, (exact_table, rounded_table) in enumerate(zip(exact_tables, rounded_tables)):
        if exact_table.keys() != rounded_table.keys():
            raise AssertionError(f"layer {j}: exact and rounded state keys differ")
        cells += len(rounded_table)
        for key, states in rounded_table.items():
            exact = exact_table[key]
            if type(exact) is int:  # a packed cell's bitmap
                exact = exact_space.from_bits(exact)
            fewest = {}  # exact profile of the cell -> fewest items reaching it
            for counts in exact.profiles():
                t = tuple(q // base for q in counts)
                m = sum(q % base for q in counts)
                fewest[t] = min(fewest.get(t, m), m)
            for idx_key, true in states.keyed():
                entries += 1
                if idx_key != grid.round_profile(true):
                    raise AssertionError(
                        f"layer {j} cell {key}: key {idx_key} is not the grid index of {true}"
                    )
                if true not in fewest:
                    raise AssertionError(f"layer {j} cell {key}: truth {true} is unreachable")
            truths = states.profiles()
            for t in undominated(fewest, instance.k):
                m = fewest[t]
                gain, loss = grid.num**m, 1 << B * m
                if not any(all(a * gain >= q * loss for a, q in zip(got, t)) for got in truths):
                    raise AssertionError(f"layer {j} cell {key}: no truth covers {t} within r^{m}")
    return {"layers": len(rounded_tables), "cells": cells, "entries": entries}
