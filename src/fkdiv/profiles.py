"""Profit-profile algebra.

A profile is a plain tuple of k nonnegative ints (one entry per agent).
A partial coloring is stored as k sorted vertex tuples, one per class.
ProfileSet holds distinct profiles, optionally with one witness coloring
per profile; internally it is either a dict keyed by profile or a dense
bitmap over radix-(qbound+1) packed profiles. A set may instead carry a
traceback callable that recovers a witness only when one is asked for.
"""

from __future__ import annotations

from .errors import EmptySetError

# Dense-bitmap cutover: use the packed bitmap only while (qbound+1)^k
# stays at most this many bits, otherwise each cell gets too large.
BITSET_LIMIT = 1 << 17


def uses_bitset(k: int, qbound: int) -> bool:
    """Whether a witness-free set of this shape is a packed bitmap."""
    return (qbound + 1) ** k <= BITSET_LIMIT


def empty_coloring(k: int):
    return ((),) * k


def satisfaction(profile) -> int:
    """Minimum entry of a profile; the quantity all solvers maximize."""
    return min(profile)


def with_vertex(coloring, cls0: int, v: int):
    """Coloring with vertex v inserted into class cls0 (0-based)."""
    cur = coloring[cls0]
    i = 0
    while i < len(cur) and cur[i] < v:
        i += 1
    new = cur[:i] + (v,) + cur[i:]
    return coloring[:cls0] + (new,) + coloring[cls0 + 1 :]


def merge_colorings(c1, c2):
    """Per-class union of two colorings (shared vertices collapse)."""
    return tuple(
        tuple(sorted(set(a) | set(b))) for a, b in zip(c1, c2, strict=True)
    )


def profile_of(instance, coloring):
    return tuple(
        sum(instance.profits[j][v] for v in coloring[j])
        for j in range(instance.k)
    )


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


class ProfileSet:
    """Set of distinct profit profiles with optional witness colorings."""

    __slots__ = (
        "k", "qbound", "track_witnesses", "_map", "_bits", "_weights", "traceback"
    )

    def __init__(self, k: int, qbound: int, track_witnesses: bool = False):
        if k < 1:
            raise ValueError("k must be at least 1")
        if qbound < 0:
            raise ValueError("qbound must be nonnegative")
        self.k = k
        self.qbound = qbound
        self.track_witnesses = track_witnesses
        self._weights = tuple((qbound + 1) ** (k - 1 - i) for i in range(k))
        # profile -> coloring, consulted by witness_for before any stored
        # witness; set by solvers that walk their tables back on demand.
        self.traceback = None
        if track_witnesses or not uses_bitset(k, qbound):
            self._map = {}
            self._bits = None
        else:
            self._map = None
            self._bits = 0

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
        if self._map is not None:
            return len(self._map)
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        return len(self) == 0

    def __contains__(self, profile) -> bool:
        if self._map is not None:
            return tuple(profile) in self._map
        return bool(self._bits >> self._pack(profile) & 1)

    def profiles(self) -> list:
        """All profiles in lexicographic order."""
        if self._map is not None:
            return sorted(self._map)
        out = []
        bits = self._bits
        while bits:
            low = bits & -bits
            out.append(self._unpack(low.bit_length() - 1))
            bits ^= low
        return out

    def __iter__(self):
        return iter(self.profiles())

    def witness_for(self, profile):
        if self.traceback is not None:
            return self.traceback(tuple(profile))
        if self._map is None:
            return None
        return self._map[tuple(profile)]

    def items(self):
        """(profile, witness) pairs in lexicographic profile order."""
        for p in self.profiles():
            yield p, self.witness_for(p)

    def __eq__(self, other):
        if not isinstance(other, ProfileSet):
            return NotImplemented
        if self.k != other.k:
            return False
        if self._map is not None and other._map is not None:
            return self._map.keys() == other._map.keys()
        return self.profiles() == other.profiles()

    def __repr__(self):
        return f"ProfileSet(k={self.k}, size={len(self)})"

    # -- construction -----------------------------------------------------

    def add(self, profile, witness=None) -> None:
        profile = tuple(profile)
        if len(profile) != self.k:
            raise ValueError(f"profile arity {len(profile)} != k={self.k}")
        for q in profile:
            if not (0 <= q <= self.qbound):
                raise ValueError(f"profile entry {q} outside [0, {self.qbound}]")
        if self._map is not None:
            self._insert(profile, witness if self.track_witnesses else None)
        else:
            self._bits |= 1 << self._pack(profile)

    def _insert(self, profile, witness) -> None:
        # On collision keep the lexicographically smallest witness so results
        # do not depend on accumulation order.
        cur = self._map.get(profile, _ABSENT)
        if cur is _ABSENT:
            self._map[profile] = witness
        elif witness is not None and (cur is None or witness < cur):
            self._map[profile] = witness

    def union_update(self, other: "ProfileSet") -> None:
        if self._bits is not None and other._bits is not None:
            self._bits |= other._bits
            return
        if other._map is not None:
            for p, w in other._map.items():
                self._insert(p, w if self.track_witnesses else None)
        else:
            for p in other.profiles():
                self._insert(p, None)

    def extended(self, cls0: int, amount: int, vertex=None) -> "ProfileSet":
        """New set with `amount` added at class cls0 in every profile.

        With witness tracking, `vertex` is appended to class cls0 of every
        witness. Callers guarantee entries stay within qbound.
        """
        out = ProfileSet(self.k, self.qbound, self.track_witnesses)
        if amount == 0 and vertex is None:
            out.union_update(self)
            return out
        if self._bits is not None:
            out._bits = self._bits << (amount * self._weights[cls0])
            return out
        if self.track_witnesses and vertex is None:
            raise ValueError("witness tracking needs the vertex being added")
        j = cls0
        for p, w in self._map.items():
            np = p[:j] + (p[j] + amount,) + p[j + 1 :]
            nw = None
            if self.track_witnesses and w is not None:
                nw = with_vertex(w, j, vertex)
            out._map[np] = nw
        return out

    def combine(self, other: "ProfileSet", minus=None) -> "ProfileSet":
        """All pairwise sums, optionally minus a fixed base profile.

        With minus=None this is the vector-sum merge of two sets; a base is
        used at join nodes where the shared bag is counted twice.
        """
        base = tuple(minus) if minus is not None else (0,) * self.k
        out = ProfileSet(self.k, self.qbound, self.track_witnesses)
        if self._bits is not None and other._bits is not None:
            base_idx = self._pack(base)
            a, b = self._bits, other._bits
            if a.bit_count() > b.bit_count():
                a, b = b, a
            acc = 0
            while a:
                low = a & -a
                off = low.bit_length() - 1 - base_idx
                acc |= b << off if off >= 0 else b >> -off
                a ^= low
            out._bits = acc
            return out
        for p1, w1 in self.items():
            for p2, w2 in other.items():
                np = tuple(a + b - c for a, b, c in zip(p1, p2, base))
                nw = None
                if out.track_witnesses and w1 is not None and w2 is not None:
                    nw = merge_colorings(w1, w2)
                out._insert(np, nw)
        return out

    def remapped(self, mapping) -> "ProfileSet":
        """Rewrite witness vertex ids through `mapping` (sequence or dict)."""
        if self._map is None or not self.track_witnesses:
            return self
        out = ProfileSet(self.k, self.qbound, True)
        for p, w in self._map.items():
            nw = None
            if w is not None:
                nw = tuple(tuple(sorted(mapping[v] for v in cls)) for cls in w)
            out._map[p] = nw
        return out

    def map_witnesses(self, fn) -> "ProfileSet":
        """Apply fn(coloring)->coloring to every witness; profiles unchanged."""
        if self._map is None or not self.track_witnesses:
            return self
        out = ProfileSet(self.k, self.qbound, True)
        for p, w in self._map.items():
            out._map[p] = fn(w) if w is not None else None
        return out

    # -- selection --------------------------------------------------------

    def best(self):
        """(value, profile, witness) maximizing satisfaction.

        Ties are broken toward the lexicographically largest profile.
        """
        if self.is_empty():
            raise EmptySetError("profile set is empty")
        best_key = None
        best_profile = None
        for p in self.profiles():
            key = (min(p), p)
            if best_key is None or key > best_key:
                best_key = key
                best_profile = p
        return best_key[0], best_profile, self.witness_for(best_profile)

    def prune_dominated(self) -> "ProfileSet":
        """Keep only profiles not componentwise dominated by another entry.

        Profiles are visited in descending lexicographic order, so only an
        earlier one can dominate a later one. For k <= 2 every earlier
        profile is at least as large in all entries but the last, so a
        profile survives iff its last entry beats every earlier last
        entry (a sorted sweep, after Kung, Luccio and Preparata, 1975).
        Stored witnesses and a traceback carry over unchanged.
        """
        if len(self) <= 1:
            return self
        kept = []
        if self.k <= 2:
            top = -1
            for p in reversed(self.profiles()):
                if p[-1] > top:
                    kept.append(p)
                    top = p[-1]
        else:
            for p in reversed(self.profiles()):
                if not any(all(a >= b for a, b in zip(q, p)) for q in kept):
                    kept.append(p)
        out = ProfileSet(self.k, self.qbound, self.track_witnesses)
        out.traceback = self.traceback
        for p in kept:
            out.add(p, None if self._map is None else self._map[p])
        return out


_ABSENT = object()


def merge_components(sets) -> ProfileSet:
    """Left-fold of the vector-sum merge over per-component profile sets."""
    sets = list(sets)
    if not sets:
        raise EmptySetError("no component sets to merge")
    acc = sets[0]
    for s in sets[1:]:
        acc = acc.combine(s)
    return acc


class ProfileSpace:
    """Factory and policy knobs for the sets produced during one DP run."""

    track_witnesses: bool

    def __init__(self, k: int, qbound: int, track_witnesses=False, prune=False):
        self.k = k
        self.qbound = qbound
        self.track_witnesses = track_witnesses
        self.prune = prune

    @classmethod
    def for_instance(cls, instance, track_witnesses=False, prune=False):
        return cls(instance.k, instance.qbound, track_witnesses, prune)

    def empty(self) -> ProfileSet:
        return ProfileSet(self.k, self.qbound, self.track_witnesses)

    def zero(self) -> ProfileSet:
        s = self.empty()
        s.add((0,) * self.k, empty_coloring(self.k) if self.track_witnesses else None)
        return s

    def finalize(self, pset):
        if self.prune and not pset.is_empty():
            return pset.prune_dominated()
        return pset
