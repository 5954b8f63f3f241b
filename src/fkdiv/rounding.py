"""Geometric rounding of profits for the approximation mode.

Class profits are tracked as indices into the grid 1, r, r^2, ... where
r = num / 2^B is the largest dyadic rational with B fraction bits whose
n-th power (n = number of items) is at most 1+eps. Each item added to a
class costs at most one factor of r, so any class total degrades by at
most r^n <= 1+eps overall, and class totals up to UB take one of
U = O(n * log UB / eps) indices. Every grid decision is an integer
comparison against a per-grid table of num^e: no float and no
irrational number enters the index arithmetic.

The table holds about B * U^2 / 2 bits, so a grid whose per-class index
range would exceed MAX_INDEX_RANGE is refused before any power is built.

A RoundedStateSet holds no witness: it answers the reads of ProfileSet,
so each solver walks an FPTAS witness back as it does for exact sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import ParameterOutOfRangeError
from .profiles import ProfileReads, maximal

ZERO = -1  # grid index for an exact class total of zero
B = 64  # fraction bits of the grid ratio r = num / 2^B
MAX_INDEX_RANGE = 4096  # largest per-class index range; table <= 64 MB


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
    """Per-instance grid: index t stands for the value r^t, r^n <= 1+eps."""

    def __init__(self, eps: Fraction, n: int, upper_bounds):
        if eps <= 0:
            raise ValueError("accuracy parameter must be positive")
        if n < 1:
            raise ValueError("grid needs at least one item")
        self.eps = eps
        self.n = n
        self.upper_bounds = tuple(upper_bounds)
        ratio = Fraction(1) + eps
        self.num = nth_root_floor((ratio.numerator << B * n) // ratio.denominator, n)
        self._refuse_wide_range()
        self._powers = [1]  # num**e at position e, grown on demand
        self._round_memo: dict = {}
        self._extend_memo: dict = {}
        self.u = tuple(self._index_count(ub) for ub in self.upper_bounds)
        if max(self.u, default=0) > MAX_INDEX_RANGE:
            self._refuse(f"{max(self.u)} grid indices per class")

    @classmethod
    def for_instance(cls, instance, eps: Fraction) -> "RoundingGrid":
        ubs = [sum(row) for row in instance.profits]
        return cls(eps, max(1, instance.n), ubs)

    def _refuse(self, need: str):
        raise ParameterOutOfRangeError(
            f"accuracy {self.eps} with {self.n} items needs {need};"
            f" the limit is {MAX_INDEX_RANGE}, use a larger epsilon"
        )

    def _refuse_wide_range(self) -> None:
        """Refuse a grid whose index range is plainly over the limit.

        A float estimate of log(UB) / log(r) stands in for the exact range
        here, only so that no power table is built for a hopeless grid; the
        exact range is checked once it is known.
        """
        excess = self.num - (1 << B)
        if excess == 0:
            self._refuse("an unbounded grid, as its ratio rounds to 1")
        if excess >> B:
            log_r = math.log(self.num) - B * math.log(2)
        else:
            log_r = math.log1p(excess / (1 << B))
        widest = math.log(max(self.upper_bounds + (1,))) / log_r
        if widest > MAX_INDEX_RANGE + 1:
            self._refuse(f"about {widest:.3g} grid indices per class")

    def _power(self, e: int) -> int:
        powers = self._powers
        while len(powers) <= e:
            powers.append(powers[-1] * self.num)
        return powers[e]

    def _index_count(self, ub: int) -> int:
        """Smallest u >= 0 with r^u >= ub."""
        if ub <= 1:
            return 0
        t = self.round_down_value(ub)
        return t if self._power(t) == ub << B * t else t + 1

    # -- index arithmetic --------------------------------------------------

    def _floor(self, s: int, p: int) -> int:
        """Largest tau >= s with r^tau <= r^s + p, for p >= 0.

        r^x <= r^s + p is num^x <= (num^s + p * 2^(Bs)) * 2^(B(x-s)).
        The search gallops up from s and then bisects. A probe never
        passes the top of the power table by more than one, so the
        table only grows one power at a time, up to tau + 1.
        """
        scaled = self._power(s) + (p << B * s)

        def le(x):
            return self._power(x) <= scaled << B * (x - s)

        lo, step = s, 1
        while True:
            hi = min(lo + step, len(self._powers))
            if not le(hi):
                break
            lo, step = hi, step * 2
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if le(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def round_down_value(self, v: int) -> int:
        """Largest index t with r^t <= v; ZERO when v is 0."""
        if v < 0:
            raise ValueError("values are nonnegative")
        if v == 0:
            return ZERO
        t = self._round_memo.get(v)
        if t is None:
            t = self._round_memo[v] = self._floor(0, v - 1)
        return t

    def round_profile(self, true_profile) -> tuple:
        return tuple(self.round_down_value(q) for q in true_profile)

    def extend(self, t: int, p: int) -> int:
        """Index after adding true profit p to a class at index t.

        Largest tau with r^tau <= r^t + p; a fresh class rounds p itself
        down. Each call loses at most one factor of r against the truth.
        """
        if p == 0:
            return t
        if t == ZERO:
            return self.round_down_value(p)
        tau = self._extend_memo.get((t, p))
        if tau is None:
            tau = self._extend_memo[t, p] = self._floor(t, p)
        return tau

    # -- exact value/endpoint comparisons (instrumentation) ---------------

    def value_le_endpoint(self, q: int, e: int) -> bool:
        """Whether q <= r^e, exactly: q * 2^(Be) <= num^e."""
        if q <= 0:
            return True
        if e < 0:
            return False
        return q << B * e <= self._power(e)

    def endpoint_le_value(self, e: int, q: int) -> bool:
        """Whether r^e <= q, exactly."""
        if e < 0:
            return q >= 0
        if q <= 0:
            return False
        return self._power(e) <= q << B * e


class RoundedStateSet(ProfileReads):
    """Rounded states: each grid key maps to one true profile.

    A collision keeps the truth with the higher minimum, then the
    lexicographically larger one, whatever the insertion order. The
    reads see the distinct truths, so reported values are realizable;
    the grid only bounds how many states coexist.
    """

    __slots__ = ("k", "grid", "_map", "_truths", "traceback")

    def __init__(self, k: int, grid: RoundingGrid):
        self.k = k
        self.grid = grid
        self._map: dict = {}
        self._truths = None  # set of the truths, built on first lookup
        self.traceback = None

    def __len__(self) -> int:
        return len(self._map)

    def is_empty(self) -> bool:
        return not self._map

    def __contains__(self, truth) -> bool:
        if self._truths is None:
            self._truths = set(self._map.values())
        return tuple(truth) in self._truths

    def profiles(self) -> list:
        """The distinct truths in lexicographic order."""
        return sorted(set(self._map.values()))

    def keyed(self) -> list:
        """(grid key, truth) pairs sorted by key."""
        return sorted(self._map.items())

    def insert(self, key, true) -> None:
        cur = self._map.get(key)
        if cur is None or (min(true), true) > (min(cur), cur):
            self._map[key] = true
            self._truths = None

    def union_update(self, other: "RoundedStateSet") -> None:
        for key, true in other._map.items():
            self.insert(key, true)

    def extended(self, cls0: int, amount: int) -> "RoundedStateSet":
        out = RoundedStateSet(self.k, self.grid)
        extend = self.grid.extend
        for key, true in self._map.items():
            nk = key[:cls0] + (extend(key[cls0], amount),) + key[cls0 + 1 :]
            nt = true[:cls0] + (true[cls0] + amount,) + true[cls0 + 1 :]
            out.insert(nk, nt)
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
        """Keep the states that no other state dominates jointly.

        A state (key K, truth T) is dropped when another state has
        K' >= K and T' >= T in every entry. Keys are distinct, so this is
        a strict partial order and the kept states are its maximal
        elements; every dropped key stays covered by a kept larger one.
        A traceback carries over unchanged.
        """
        if len(self._map) <= 1:
            return self
        k = self.k
        joint = sorted((key + true for key, true in self._map.items()), reverse=True)
        out = RoundedStateSet(k, self.grid)
        out._map = {v[:k]: v[k:] for v in maximal(joint)}
        out.traceback = self.traceback
        return out


class RoundedProfileSpace:
    """Space protocol adapter so exact solvers run unchanged on the grid.

    Every finished cell keeps only its jointly undominated states
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
