"""Workload design, instance generation and reference optima.

A workload is a list of strata ("slots"): each slot fixes the family, n,
k, max-profit, solve options and, for some, a band of edge density, and
the benchmark seed only picks the generator seed of each instance. A run
generates COPIES instances of every slot, and each pass solves one
instance of every slot, so two seeds differ only in graph structure and
profits, never in stated sizes or mix.

Reference optima come from a second exact route that shares as little
code as possible with the route `fkdiv solve` takes by default (see
`reference_route`). Everything here imports `fkdiv` from the checkout's
`src/`, which `run.py` puts on `sys.path` first.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fkdiv.cocomp import solve_cocomparability
from fkdiv.generators import build_family
from fkdiv.instance_io import ParsedInstance, serialize_instance
from fkdiv.profiles import BITSET_LIMIT
from fkdiv.treedp import solve_treewidth

# Instances generated per slot for one run. A pass solves one instance of
# every slot and passes take the copies in turn, so a run of 35 s sees
# most of them once or twice: the more distinct instances a run solves,
# the less its figures depend on the seed.
COPIES = {"ordered": 6, "tree": 3, "fptas": 4}

# Density strata for the random family, whose generator draws its own
# density from the seed: sparse graphs have small min-fill width, dense
# ones have width far beyond the planner's cell limit. Small very dense
# graphs go to brute force, or to the ordered DP when the graph happens
# to be a cocomparability graph (about half of them).
SPARSE_MAX = 0.2
DENSE_MIN = 0.5
SMALL_DENSE_MIN = 0.75
RANDOM_BANDS = {
    "random-sparse": (0.0, SPARSE_MAX),
    "random-dense": (DENSE_MIN, 1.0),
    "random-small-dense": (SMALL_DENSE_MIN, 1.0),
}


@dataclass(frozen=True)
class Slot:
    family: str  # a generator family, or random-sparse / random-dense
    n: int
    k: int
    max_profit: int
    epsilon: str | None = None  # passed as --epsilon when set
    density: tuple | None = None  # (low, high) edge density, redrawn until inside

    @property
    def name(self) -> str:
        eps = "" if self.epsilon is None else f"-e{self.epsilon.replace('/', '_')}"
        band = "" if self.density is None else "-d%d_%d" % tuple(round(100 * d) for d in self.density)
        return f"{self.family}-n{self.n}-k{self.k}-p{self.max_profit}{eps}{band}"


# Full-size slots. Each slot is sized so that its solves take about the
# same time (0.2-0.7 s on a 2-vCPU box, dense rejections excepted), so
# the run's median and p75 fall inside a block of alike slots and not in
# a gap between blocks. Permutation slots whose solve time follows the
# graph's density (k=3, and the FPTAS, whose state count grows as the
# conflict graph thins) draw from a density band.
SLOTS = {
    "ordered": (
        Slot("permutation", 60, 2, 1),
        Slot("permutation", 65, 2, 2),
        Slot("permutation", 18, 3, 2, None, (0.5, 0.65)),
        Slot("permutation", 60, 2, 3),
        Slot("permutation", 70, 2, 1),
        Slot("permutation", 60, 2, 5),
        Slot("permutation", 80, 2, 1),
        Slot("permutation", 60, 2, 2),
        Slot("permutation", 65, 2, 1),
    ),
    # Blocks of alike solve time, so that neither quantile falls where
    # instances of one slot differ most: ten slots of small instances
    # (about 0.15-0.2 s a solve, most of it start-up) hold p50; six
    # dense rejections (n=100 about 0.7 s, n=120 about 1.3 s, almost all
    # min-fill) hold p75. Chordal n=50, whose tree-DP time varies 3x
    # between instances, sits between the two blocks and shows in
    # solves_per_s.
    "tree": (
        Slot("random-sparse", 20, 2, 9),
        Slot("random-dense", 100, 2, 9),
        Slot("chordal", 30, 2, 9),
        Slot("random-sparse", 18, 2, 9),
        Slot("random-small-dense", 13, 3, 9),
        Slot("random-dense", 100, 2, 9),
        Slot("interval", 30, 2, 9),
        Slot("random-sparse", 20, 2, 9),
        Slot("chordal", 50, 2, 9),
        Slot("random-dense", 120, 2, 9),
        Slot("random-sparse", 18, 2, 9),
        Slot("chordal", 30, 2, 9),
        Slot("random-dense", 100, 2, 9),
        Slot("random-small-dense", 13, 3, 9),
        Slot("random-dense", 100, 2, 9),
        Slot("interval", 30, 2, 9),
        Slot("random-dense", 100, 2, 9),
    ),
    "fptas": (
        Slot("permutation", 16, 2, 400, "1/2", (0.5, 0.65)),
        Slot("permutation", 17, 2, 400, "1", (0.5, 0.65)),
        Slot("permutation", 18, 2, 500, "2", (0.5, 0.65)),
        Slot("permutation", 17, 2, 500, "1/2", (0.5, 0.65)),
        Slot("permutation", 16, 2, 500, "1", (0.5, 0.65)),
        Slot("permutation", 16, 2, 500, "2", (0.5, 0.65)),
        Slot("permutation", 18, 2, 500, "1", (0.5, 0.65)),
        Slot("permutation", 16, 2, 450, "1/2", (0.5, 0.65)),
        Slot("permutation", 18, 2, 400, "2", (0.5, 0.65)),
    ),
}

# Seconds-scale slots for the self-test; same families and options.
TINY_SLOTS = {
    "ordered": (Slot("permutation", 12, 2, 2), Slot("permutation", 8, 3, 2)),
    "tree": (
        Slot("interval", 10, 2, 5),
        Slot("chordal", 10, 2, 5),
        Slot("random-sparse", 10, 2, 5),
        Slot("random-small-dense", 8, 3, 5),
        Slot("random-dense", 40, 2, 5),
    ),
    "fptas": (Slot("permutation", 8, 2, 50, "1"), Slot("permutation", 8, 2, 80, "1/2")),
}


@dataclass
class Case:
    """One generated instance and where its file lives."""

    case_id: str
    slot: Slot
    gen_seed: int
    parsed: ParsedInstance
    text: str
    path: Path | None = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def solve_args(self) -> list:
        args = ["solve", "--input", str(self.path), "--no-timing"]
        if self.slot.epsilon is not None:
            args += ["--epsilon", self.slot.epsilon]
        return args


def _density(parsed: ParsedInstance) -> float:
    n = parsed.graph.n
    return parsed.graph.m / (n * (n - 1) / 2)


def _generate(slot: Slot, rng: random.Random):
    """(gen_seed, parsed) for one instance of `slot`.

    Slots with a density band, and the random-family strata, redraw the
    generator seed until the density lands in the band; this costs
    milliseconds at these sizes.
    """
    family = "random" if slot.family.startswith("random-") else slot.family
    band = RANDOM_BANDS.get(slot.family, slot.density)
    while True:
        gen_seed = rng.getrandbits(31)
        parsed = build_family(family, slot.n, slot.k, slot.max_profit, gen_seed)
        if band is None or band[0] <= _density(parsed) <= band[1]:
            return gen_seed, parsed


def build_cases(workload: str, seed: int, tiny: bool = False) -> list:
    """Every instance of `workload` for `seed`, copy by copy."""
    slots = (TINY_SLOTS if tiny else SLOTS)[workload]
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for r in range(1 if tiny else COPIES[workload]):
        for i, slot in enumerate(slots):
            gen_seed, parsed = _generate(slot, rng)
            cases.append(
                Case(f"p{r}-s{i}-{slot.name}", slot, gen_seed, parsed, serialize_instance(parsed))
            )
    return cases


def write_cases(cases, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        case.path = directory / f"{case.case_id}.fk"
        case.path.write_text(case.text, encoding="utf-8")


def reference_route(case: Case):
    """(optimum or None, route name) by a second exact route.

    None means the instance is expected to be rejected: dense random
    graphs with n >= 100 have min-fill width far above the planner's
    limit and are far beyond brute force. Otherwise, by family:

    - permutation and interval: the ordered DP without witnesses and
      without pruning, a bitset path that shares no pruning or witness
      code with the default (`auto` sends interval graphs to the clique
      tree instead, so there the DP itself differs too);
    - chordal and sparse random: the tree DP on a min-fill
      decomposition, without witnesses and without pruning (`auto`
      takes the clique tree for chordal graphs);
    - small dense random, which `auto` hands to brute force or the
      ordered DP: the pruned tree DP on a min-fill decomposition.

    Where (Q+1)^k exceeds the bitset limit (k=3 sparse random), the
    witness-free route prunes. An `fptas` instance's reference is the
    exact optimum of the same file; `accepts` allows any value in
    [optimum/(1+eps), optimum].
    """
    inst = case.parsed.instance
    family = case.slot.family
    if family == "random-dense":
        return None, "expect-exit-3"
    if case.slot.epsilon is not None:
        pset = solve_cocomparability(inst, witnesses=False, prune=True)
        return pset.best()[0], "cocomp-pruned"
    # Unpruned sets stay bitsets only up to BITSET_LIMIT profiles; past
    # that they become dicts far too slow to enumerate, so prune there.
    prune = family == "random-small-dense" or (inst.qbound + 1) ** inst.k > BITSET_LIMIT
    mode = "pruned" if prune else "unpruned"
    if family in ("permutation", "interval"):
        pset = solve_cocomparability(inst, witnesses=False, prune=prune)
        return pset.best()[0], f"cocomp-{mode}"
    if family in ("chordal", "random-sparse", "random-small-dense"):
        pset = solve_treewidth(inst, witnesses=False, prune=prune)
        return pset.best()[0], f"treewidth-{mode}"
    raise ValueError(f"no reference route for family {family!r}")


def accepts(case: Case, optimum, value) -> bool:
    """Whether a reported value is right for the reference optimum."""
    if case.slot.epsilon is None:
        return value == optimum
    eps = Fraction(case.slot.epsilon)
    return value <= optimum and value * (1 + eps) >= optimum


def ratio(optimum, value) -> float:
    """value / optimum, 1 when both are 0."""
    if optimum == 0:
        return 1.0 if value == 0 else float("inf")
    return value / optimum
