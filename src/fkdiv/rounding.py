"""Geometric rounding of profits for the approximation mode.

Class profits are tracked as indices into the grid 1, r, r^2, ... where
r = num / 2^B is the largest dyadic rational with B fraction bits whose
n-th power (n = number of items) is at most 1+eps. A state's key is the
grid index of its own true profile in every class, so two states with
one key lie within a factor r of each other, and keeping one of them in
place of the other costs at most that factor (the bound is in
`fptas.py`). Class totals up to UB take one of U = O(n * log UB / eps)
indices. Every grid decision is an integer comparison against the
floors and ceilings of r^t, read exactly off num^t: no float and no
irrational number enters the index arithmetic.

A grid whose per-class index range would exceed MAX_INDEX_RANGE is
refused after at most MAX_INDEX_RANGE = 4,096 powers.

A RoundedStateSet holds no witness: it answers the reads of ProfileSet,
so each solver walks an FPTAS witness back as it does for exact sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import add

from .errors import ParameterOutOfRangeError
from .profiles import ProfileReads, undominated

ZERO = -1  # grid index for an exact class total of zero
B = 64  # fraction bits of the grid ratio r = num / 2^B
MAX_INDEX_RANGE = 4096  # largest per-class index range


def nth_root_floor(x: int, r: int) -> int:
    """Largest integer g with g**r <= x."""
    if x < 0 or r < 1:
        raise ValueError("nth_root_floor needs x >= 0, r >= 1")
    if x == 0 or r == 1:
        return x
    g = 1 << -(-x.bit_length() // r)
    while True:
        ng = ((r - 1) * g + x // g ** (r - 1)) // r
        if ng >= g:
            break
        g = ng
    while g**r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


class RoundingGrid:
    """Per-instance grid: index t stands for the value r^t, r^n <= 1+eps.

    For an integer v, r^t <= v iff ceil(r^t) <= v, and r^t >= v iff
    floor(r^t) >= v, so each grid decision bisects one of two lists.
    """

    def __init__(self, eps: Fraction, n: int, upper_bounds):
        if eps <= 0:
            raise ValueError("accuracy parameter must be positive")
        if n < 1:
            raise ValueError("grid needs at least one item")
        self.n = n
        self.upper_bounds = tuple(upper_bounds)
        ratio = Fraction(1) + eps
        self.num = nth_root_floor((ratio.numerator << B * n) // ratio.denominator, n)
        if self.num == 1 << B:
            self._refuse("an unbounded grid, as its ratio rounds to 1")
        self._power = 1  # num**t for the last index t of the lists
        self._floor, self._ceil = [1], [1]  # floor and ceiling of r^t
        # Indices 0..MAX_INDEX_RANGE tell every range up to the limit
        # from a wider one, which bisects to MAX_INDEX_RANGE + 1.
        self._grow_past(max(self.upper_bounds, default=0), MAX_INDEX_RANGE + 1)
        self.u = tuple(bisect_left(self._floor, ub) for ub in self.upper_bounds)
        if max(self.u, default=0) > MAX_INDEX_RANGE:
            self._refuse(f"more than {MAX_INDEX_RANGE} grid indices per class")

    @classmethod
    def for_instance(cls, instance, eps: Fraction) -> "RoundingGrid":
        ubs = [sum(row) for row in instance.profits]
        return cls(eps, max(1, instance.n), ubs)

    def _refuse(self, need: str):
        # No accuracy in the text: str() of a long Fraction can raise.
        raise ParameterOutOfRangeError(
            f"this accuracy with {self.n} items needs {need};"
            f" the limit is {MAX_INDEX_RANGE}, use a larger epsilon"
        )

    def _grow_past(self, v: int, most: int = -1) -> None:
        """Extend the lists until ceil(r^t) > v at their last index t, or
        until they hold `most` indices."""
        floor, ceil = self._floor, self._ceil
        while ceil[-1] <= v and len(ceil) != most:
            shift = B * len(ceil)
            self._power *= self.num
            floor.append(self._power >> shift)
            ceil.append(-(-self._power >> shift))

    # -- index arithmetic --------------------------------------------------

    def round_down_value(self, v: int) -> int:
        """Largest index t with r^t <= v; ZERO when v is 0."""
        if v >= self._ceil[-1]:
            self._grow_past(v)
        elif v < 0:
            raise ValueError("values are nonnegative")
        return bisect_right(self._ceil, v) - 1

    def round_profile(self, true_profile) -> tuple:
        return tuple(map(self.round_down_value, true_profile))

    def extend(self, q: int, p: int) -> int:
        """Index of a class total q after adding profit p: the grid index
        of q + p, so a key never depends on how its truth was built."""
        return self.round_down_value(q + p)


class RoundedStateSet(ProfileReads):
    """Rounded states: one true profile per grid key, where a state's key
    is always `grid.round_profile` of its own truth.

    A collision keeps the truth with the higher minimum, then the
    lexicographically larger one, whatever the insertion order. The
    reads see the truths, so reported values are realizable; the grid
    only bounds how many states coexist. A key is a monotone function of
    its truth, so a truth at least as large as another in every class
    also has a key at least as large.
    """

    __slots__ = ("k", "grid", "_map", "traceback")

    def __init__(self, k: int, grid: RoundingGrid):
        self.k = k
        self.grid = grid
        self._map: dict = {}
        self.traceback = None

    def __len__(self) -> int:
        return len(self._map)

    def is_empty(self) -> bool:
        return not self._map

    def __contains__(self, truth) -> bool:
        truth = tuple(truth)
        if min(truth, default=-1) < 0:
            return False
        return self._map.get(self.grid.round_profile(truth)) == truth

    def profiles(self) -> list:
        """The truths in lexicographic order."""
        return sorted(self._map.values())

    def keyed(self) -> list:
        """(grid key, truth) pairs sorted by key."""
        return sorted(self._map.items())

    def insert(self, key, true) -> None:
        cur = self._map.get(key)
        if cur is None or (min(true), true) > (min(cur), cur):
            self._map[key] = true

    def union_update(self, other: "RoundedStateSet") -> None:
        for key, true in other._map.items():
            self.insert(key, true)

    def extended(self, cls0: int, amount: int) -> "RoundedStateSet":
        """`amount` added to class cls0 of every truth, whose key entry is
        re-rounded from the new total."""
        out = RoundedStateSet(self.k, self.grid)
        extend = self.grid.extend
        for key, true in self._map.items():
            q = true[cls0]
            nk = key[:cls0] + (extend(q, amount),) + key[cls0 + 1 :]
            out.insert(nk, true[:cls0] + (q + amount,) + true[cls0 + 1 :])
        return out

    def combine(self, other: "RoundedStateSet") -> "RoundedStateSet":
        """Pairwise merge; true profiles add and the key is re-rounded
        from the merged truth."""
        out = RoundedStateSet(self.k, self.grid)
        for t1 in self._map.values():
            for t2 in other._map.values():
                true = tuple(map(add, t1, t2))
                out.insert(self.grid.round_profile(true), true)
        return out

    def prune_dominated(self) -> "RoundedStateSet":
        """Keep the states whose truth no other truth dominates
        (`undominated`). A dropped truth's key is covered too, by the
        kept truth's key. A traceback carries over unchanged.
        """
        if len(self._map) <= 1:
            return self
        kept = set(undominated(self._map.values(), self.k))
        out = RoundedStateSet(self.k, self.grid)
        out._map = {key: t for key, t in self._map.items() if t in kept}
        out.traceback = self.traceback
        return out


class RoundedProfileSpace:
    """Space protocol adapter so exact solvers run unchanged on the grid.

    Every finished cell keeps only its states with undominated truths
    (`RoundedStateSet.prune_dominated`).
    """

    def __init__(self, k: int, grid: RoundingGrid):
        self.k = k
        self.grid = grid

    def empty(self) -> RoundedStateSet:
        return RoundedStateSet(self.k, self.grid)

    def zero(self) -> RoundedStateSet:
        s = self.empty()
        s.insert((ZERO,) * self.k, (0,) * self.k)
        return s

    def union(self, cells) -> RoundedStateSet:
        """A new set holding the states of `cells`, folded in by
        `union_update`, so collisions follow its rule; no cell changes."""
        out = self.empty()
        for cell in cells:
            out.union_update(cell)
        return out

    def finalize(self, state_set):
        return state_set.prune_dominated()
