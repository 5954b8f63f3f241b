"""Profit-profile algebra.

A profile is a plain tuple of k nonnegative ints (one entry per agent).
A partial coloring is stored as k sorted vertex tuples, one per class.
ProfileSet holds distinct profiles, either as a set or as a dense bitmap
over radix-(qbound+1) packed profiles. Neither it nor the rounded state
sets store witnesses: a solver may attach a traceback callable that
recovers one when it is asked for, and ProfileReads serves the reads
both set types share.
"""

from __future__ import annotations

from operator import add, ge, sub

from .errors import EmptySetError

# Dense-bitmap cutover: use the packed bitmap only while (qbound+1)^k
# stays at most this many bits, otherwise each cell gets too large.
BITSET_LIMIT = 1 << 17


def uses_bitset(k: int, qbound: int) -> bool:
    """Whether a set of this shape is a packed bitmap."""
    return (qbound + 1) ** k <= BITSET_LIMIT


def satisfaction(profile) -> int:
    """Minimum entry of a profile; the quantity all solvers maximize."""
    return min(profile)


def profile_of(instance, coloring):
    return tuple(
        sum(instance.profits[j][v] for v in coloring[j])
        for j in range(instance.k)
    )


def maximal(vectors) -> list:
    """The vectors that no other one dominates componentwise.

    `vectors` must be distinct and in descending lexicographic order, so
    that only an earlier vector can dominate a later one; each is kept
    unless a kept one is at least as large in every entry. O(m * kept).
    """
    kept = []
    for p in vectors:
        if not any(all(map(ge, q, p)) for q in kept):
            kept.append(p)
    return kept


def check_coloring(graph, coloring) -> None:
    """Raise ValueError unless classes are pairwise disjoint independent sets."""
    seen = set()
    for cls in coloring:
        for v in cls:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two classes")
            seen.add(v)
        if not graph.is_independent(cls):
            raise ValueError(f"class {cls} is not independent")


class ProfileReads:
    """Reads shared by ProfileSet and the rounded state sets, over `k`,
    `profiles()` (distinct, sorted), `__contains__`, `is_empty()` and a
    `traceback` slot (profile -> coloring) that solvers may set."""

    __slots__ = ()

    def witness_for(self, profile):
        """The traceback's coloring for `profile`, or None without one."""
        if self.traceback is None:
            return None
        return self.traceback(tuple(profile))

    def items(self):
        """(profile, witness) pairs in lexicographic profile order."""
        for p in self.profiles():
            yield p, self.witness_for(p)

    def split(self, profile, other):
        """Undo `self.combine(other)` for one of its profiles.

        Returns (left, right) with left in self, right in other and
        left + right == profile, taking the lexicographically smallest
        such left; None if the profile is no such sum.
        """
        for left in self.profiles():
            right = tuple(map(sub, profile, left))
            if right in other:
                return left, right
        return None

    def best(self):
        """(value, profile, witness) maximizing satisfaction.

        Ties are broken toward the lexicographically largest profile.
        """
        if self.is_empty():
            raise EmptySetError("profile set is empty")
        profile = max(self.profiles(), key=lambda p: (min(p), p))
        return min(profile), profile, self.witness_for(profile)


class ProfileSet(ProfileReads):
    """Set of distinct profit profiles, optionally with a traceback."""

    __slots__ = ("k", "qbound", "_set", "_bits", "_weights", "traceback")

    def __init__(self, k: int, qbound: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        if qbound < 0:
            raise ValueError("qbound must be nonnegative")
        self.k = k
        self.qbound = qbound
        self.traceback = None
        if uses_bitset(k, qbound):
            self._weights = tuple((qbound + 1) ** (k - 1 - i) for i in range(k))
            self._set = None
            self._bits = 0
        else:
            self._weights = None  # set mode packs nothing
            self._set = set()
            self._bits = None

    def _blank(self) -> "ProfileSet":
        """An empty set of this one's shape, sharing its packing weights."""
        out = ProfileSet.__new__(ProfileSet)
        out.k = self.k
        out.qbound = self.qbound
        out.traceback = None
        out._weights = self._weights
        if self._set is None:
            out._set = None
            out._bits = 0
        else:
            out._set = set()
            out._bits = None
        return out

    # -- packing ---------------------------------------------------------

    def _pack(self, profile) -> int:
        idx = 0
        for q, w in zip(profile, self._weights):
            idx += q * w
        return idx

    def _unpack(self, idx: int):
        base = self.qbound + 1
        out = [0] * self.k
        for i in range(self.k - 1, -1, -1):
            idx, out[i] = divmod(idx, base)
        return tuple(out)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        if self._set is not None:
            return len(self._set)
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        return len(self) == 0

    def __contains__(self, profile) -> bool:
        profile = tuple(profile)
        if self._set is not None:
            return profile in self._set
        # A profile of another arity, or with an entry outside
        # [0, qbound], may pack onto a member but is never one.
        if len(profile) != self.k:
            return False
        idx = 0
        for q, w in zip(profile, self._weights):
            if not 0 <= q <= self.qbound:
                return False
            idx += q * w
        return bool(self._bits >> idx & 1)

    def profiles(self) -> list:
        """All profiles in lexicographic order."""
        if self._set is not None:
            return sorted(self._set)
        out = []
        bits = self._bits
        while bits:
            low = bits & -bits
            out.append(self._unpack(low.bit_length() - 1))
            bits ^= low
        return out

    def __iter__(self):
        return iter(self.profiles())

    def __eq__(self, other):
        if not isinstance(other, ProfileSet):
            return NotImplemented
        if self.k != other.k:
            return False
        if self._set is not None and other._set is not None:
            return self._set == other._set
        return self.profiles() == other.profiles()

    def __repr__(self):
        return f"ProfileSet(k={self.k}, size={len(self)})"

    # -- construction -----------------------------------------------------

    def add(self, profile) -> None:
        profile = tuple(profile)
        if len(profile) != self.k:
            raise ValueError(f"profile arity {len(profile)} != k={self.k}")
        for q in profile:
            if not (0 <= q <= self.qbound):
                raise ValueError(f"profile entry {q} outside [0, {self.qbound}]")
        if self._set is not None:
            self._set.add(profile)
        else:
            self._bits |= 1 << self._pack(profile)

    def union_update(self, other: "ProfileSet") -> None:
        """Add every profile of `other`, a set of the same shape."""
        if self._bits is not None:
            self._bits |= other._bits
        else:
            self._set |= other._set

    def extended(self, cls0: int, amount: int) -> "ProfileSet":
        """New set with `amount` added at class cls0 in every profile.

        Callers guarantee entries stay within qbound.
        """
        out = self._blank()
        if self._bits is not None:
            out._bits = self._bits << (amount * self._weights[cls0])
            return out
        j = cls0
        out._set = {p[:j] + (p[j] + amount,) + p[j + 1 :] for p in self._set}
        return out

    def combine(self, other: "ProfileSet") -> "ProfileSet":
        """All pairwise sums: the vector-sum merge of two sets."""
        out = self._blank()
        if self._bits is not None:
            a, b = self._bits, other._bits
            if a.bit_count() > b.bit_count():
                a, b = b, a
            acc = 0
            while a:
                low = a & -a
                acc |= b << low.bit_length() - 1
                a ^= low
            out._bits = acc
            return out
        out._set = {tuple(map(add, p1, p2)) for p1 in self._set for p2 in other._set}
        return out

    # -- pruning ----------------------------------------------------------

    def prune_dominated(self) -> "ProfileSet":
        """Keep only profiles not componentwise dominated by another entry.

        Profiles are visited in descending lexicographic order, so only an
        earlier one can dominate a later one. For k <= 2 every earlier
        profile is at least as large in all entries but the last, so a
        profile survives iff its last entry beats every earlier last
        entry (a sorted sweep, after Kung, Luccio and Preparata, 1975).
        A traceback carries over unchanged.
        """
        if len(self) <= 1:
            return self
        if self.k <= 2:
            kept = []
            top = -1
            for p in reversed(self.profiles()):
                if p[-1] > top:
                    kept.append(p)
                    top = p[-1]
        else:
            kept = maximal(reversed(self.profiles()))
        out = self._blank()
        out.traceback = self.traceback
        for p in kept:
            out.add(p)
        return out


class ProfileSpace:
    """Factory and policy knobs for the sets produced during one DP run."""

    def __init__(self, k: int, qbound: int, prune=False):
        self.k = k
        self.qbound = qbound
        self.prune = prune
        self._shape = ProfileSet(k, qbound)  # sets copy its mode and weights

    @classmethod
    def for_instance(cls, instance, prune=False):
        return cls(instance.k, instance.qbound, prune)

    def empty(self) -> ProfileSet:
        return self._shape._blank()

    def zero(self) -> ProfileSet:
        s = self.empty()
        s.add((0,) * self.k)
        return s

    def union(self, cells) -> ProfileSet:
        """A new set holding every profile of `cells`, sets of this
        space's shape; no cell changes."""
        out = self.empty()
        if out._bits is not None:
            bits = 0
            for cell in cells:
                bits |= cell._bits
            out._bits = bits
        else:
            profiles = out._set
            for cell in cells:
                profiles |= cell._set
        return out

    def finalize(self, pset):
        if self.prune and not pset.is_empty():
            return pset.prune_dominated()
        return pset
