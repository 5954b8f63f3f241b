"""RoundingGrid against a frozen copy of the grid that kept a table of
every power num^e, a per-value memo and a float estimate that refused
hopeless grids. For every accuracy, item count and upper bounds drawn,
both give the same ratio numerator `num`, the same index ranges `u`, the
same refusal outcome, and the same index for every value probed."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fkdiv.errors import ParameterOutOfRangeError
from fkdiv.rounding import B, MAX_INDEX_RANGE, ZERO, RoundingGrid, nth_root_floor


class FrozenRoundingGrid:
    """RoundingGrid as it stood with a power table, a memo and a float guard."""

    def __init__(self, eps: Fraction, n: int, upper_bounds):
        self.eps = eps
        self.n = n
        self.upper_bounds = tuple(upper_bounds)
        ratio = Fraction(1) + eps
        self.num = nth_root_floor((ratio.numerator << B * n) // ratio.denominator, n)
        self._refuse_wide_range()
        self._powers = [1]
        self._round_memo = {0: ZERO}
        self.u = tuple(self._index_count(ub) for ub in self.upper_bounds)
        if max(self.u, default=0) > MAX_INDEX_RANGE:
            self._refuse(f"{max(self.u)} grid indices per class")

    def _refuse(self, need: str):
        raise ParameterOutOfRangeError(
            f"accuracy {self.eps} with {self.n} items needs {need};"
            f" the limit is {MAX_INDEX_RANGE}, use a larger epsilon"
        )

    def _refuse_wide_range(self) -> None:
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
        if ub <= 1:
            return 0
        t = self.round_down_value(ub)
        return t if self._power(t) == ub << B * t else t + 1

    def round_down_value(self, v: int) -> int:
        t = self._round_memo.get(v)
        if t is not None:
            return t
        if v < 0:
            raise ValueError("values are nonnegative")
        powers = self._powers

        def le(x):
            return self._power(x) <= v << B * x

        lo, step = 0, 1
        while True:
            hi = min(lo + step, len(powers))
            if not le(hi):
                break
            lo, step = hi, step * 2
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if le(mid):
                lo = mid
            else:
                hi = mid
        self._round_memo[v] = lo
        return lo


def build(cls, eps, n, ubs):
    try:
        return cls(eps, n, ubs)
    except ParameterOutOfRangeError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    eps=st.fractions(min_value=Fraction(1, 10**4), max_value=10, max_denominator=10**4),
    n=st.integers(min_value=1, max_value=60),
    ubs=st.lists(
        st.one_of(st.integers(0, 1000), st.integers(0, 10**9)), min_size=1, max_size=3
    ),
    data=st.data(),
)
@example(eps=Fraction(1, 10), n=40, ubs=[218, 17322], data=None)
@example(eps=Fraction(1, 10), n=40, ubs=[17323], data=None)
@example(eps=Fraction(1, 10**8), n=8, ubs=[80], data=None)
@example(eps=Fraction(1, 2**70), n=3, ubs=[1], data=None)
@example(eps=Fraction(1, 2), n=4, ubs=[0, 1, 2], data=None)
def test_grid_matches_frozen_power_table(eps, n, ubs, data):
    new = build(RoundingGrid, eps, n, ubs)
    old = build(FrozenRoundingGrid, eps, n, ubs)
    assert (new is None) == (old is None), (eps, n, ubs)
    if new is None:
        return
    assert new.num == old.num
    assert new.u == old.u
    ub = max(ubs)
    probes = list(range(min(ub, 300) + 1))
    if data is not None:
        probes += data.draw(st.lists(st.integers(0, ub), max_size=40))
        if max(new.u) < 1000:
            probes += data.draw(st.lists(st.integers(0, 2 * ub), max_size=40))
    else:
        probes += [ub, ub + 1, 2 * ub]
    for v in probes:
        assert new.round_down_value(v) == old.round_down_value(v), (eps, n, ubs, v)


def test_round_down_value_grows_past_the_upper_bound():
    grid = RoundingGrid(Fraction(1, 2), 3, (5,))
    frozen = FrozenRoundingGrid(Fraction(1, 2), 3, (5,))
    for v in (10**6, 7, 10**12, 0):
        assert grid.round_down_value(v) == frozen.round_down_value(v)
    with pytest.raises(ValueError):
        grid.round_down_value(-1)
