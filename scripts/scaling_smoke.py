"""Timing sweep for the cocomparability solver on interval instances.

Measures wall time at a few sizes and compares growth against the
n^(k+2) * (Q+1)^k operation-count trend, where Q is the largest
per-class profit total. Run directly for a small table:

    python3 scripts/scaling_smoke.py

With --epsilon it instead compares the exact pruned cocomparability solver
with the FPTAS on the same instances, over sizes, per-item profit caps
(and so Q) and accuracies:

    python3 scripts/scaling_smoke.py --sizes 20 30 --max-profits 10 500 --epsilon 1/2 2

With --tree it times, in this process and best of three runs, the tree
route's layers: `solve_chordal(witnesses=True, prune=True)` on chordal
instances (sizes 30 and 50 unless --sizes is given, max-profit 9), and
the `auto` plan of a dense random n=120 graph, which the planner
rejects while building its min-fill decomposition:

    python3 scripts/scaling_smoke.py --tree
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Run from a checkout without installing: this checkout's `src/` goes first.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fkdiv import cli
from fkdiv.cocomp import solve_cocomparability
from fkdiv.errors import NoApplicableAlgorithmError, ParameterOutOfRangeError
from fkdiv.fptas import solve_approx
from fkdiv.generators import build_family
from fkdiv.treedp import solve_chordal

# Below this, timer noise dominates; treat faster baselines as this slow.
BASELINE_FLOOR_SECONDS = 0.05


@dataclass(frozen=True)
class ScalingRow:
    n: int
    qbound: int
    seconds: float
    value: int


def measure_interval(n: int, k: int = 2, seed: int = 0, q_cap: int = 200) -> ScalingRow:
    """Time one pruned solve on a seeded interval instance with Q <= q_cap."""
    parsed = build_family("interval", n, k, max(1, q_cap // n), seed)
    inst = parsed.instance
    if inst.qbound > q_cap:
        raise ValueError(f"instance exceeds profit cap: {inst.qbound} > {q_cap}")
    started = perf_counter()
    table = solve_cocomparability(inst, witnesses=True, prune=True)
    elapsed = perf_counter() - started
    value, _profile, _witness = table.best()
    return ScalingRow(n=n, qbound=inst.qbound, seconds=elapsed, value=value)


def run_sweep(sizes=(10, 20, 40), k: int = 2, seed: int = 0) -> list[ScalingRow]:
    return [measure_interval(n, k=k, seed=seed) for n in sizes]


def predicted_seconds(base: ScalingRow, row: ScalingRow, k: int) -> float:
    anchor = max(base.seconds, BASELINE_FLOOR_SECONDS)
    growth = (row.n / base.n) ** (k + 2) * ((row.qbound + 1) / (base.qbound + 1)) ** k
    return anchor * growth


def worst_trend_factor(rows: list[ScalingRow], k: int = 2) -> float:
    """Largest measured/predicted ratio across the sweep (1.0 if all under)."""
    base = rows[0]
    worst = 1.0
    for row in rows[1:]:
        worst = max(worst, row.seconds / predicted_seconds(base, row, k))
    return worst


@dataclass(frozen=True)
class FptasRow:
    n: int
    qbound: int
    epsilon: str
    exact_seconds: float
    fptas_seconds: float | None  # None: the grid for this accuracy is refused
    states: int | None
    exact_value: int
    fptas_value: int | None


def fptas_rows(sizes, max_profits, epsilons, k: int = 2, seed: int = 0):
    """Exact pruned solve vs FPTAS per interval instance and accuracy,
    one row at a time."""
    for n in sizes:
        for max_profit in max_profits:
            inst = build_family("interval", n, k, max_profit, seed).instance
            started = perf_counter()
            exact = solve_cocomparability(inst, witnesses=True, prune=True).best()[0]
            exact_seconds = perf_counter() - started
            for eps in epsilons:
                started = perf_counter()
                try:
                    approx = solve_approx(inst, eps)
                except ParameterOutOfRangeError:
                    yield FptasRow(n, inst.qbound, eps, exact_seconds, None, None, exact, None)
                    continue
                yield FptasRow(
                    n, inst.qbound, eps, exact_seconds, perf_counter() - started,
                    len(approx.states), exact, approx.value,
                )


def print_fptas_table(rows) -> None:
    print(f"{'n':>4} {'Q':>6} {'eps':>5} {'exact s':>8} {'fptas s':>8}"
          f" {'ratio':>6} {'states':>6} {'opt':>6} {'value':>6}", flush=True)
    for r in rows:
        head = f"{r.n:>4} {r.qbound:>6} {r.epsilon:>5} {r.exact_seconds:>8.4f}"
        if r.fptas_seconds is None:
            print(f"{head}  grid refused: too many indices per class", flush=True)
            continue
        ratio = r.fptas_seconds / max(r.exact_seconds, 1e-9)
        print(f"{head} {r.fptas_seconds:>8.4f} {ratio:>6.2f} {r.states:>6}"
              f" {r.exact_value:>6} {r.fptas_value:>6}", flush=True)


def best_seconds(run, repeats: int) -> tuple:
    """(fastest wall time of `repeats` calls of `run`, its last result)."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        result = run()
        best = min(best, perf_counter() - started)
    return best, result


def tree_rows(sizes, k: int = 2, seed: int = 0, repeats: int = 3):
    """(case, n, Q, seconds, outcome) for the tree route's timed layers."""
    for n in sizes:
        inst = build_family("chordal", n, k, 9, seed).instance
        seconds, pset = best_seconds(
            lambda: solve_chordal(inst, witnesses=True, prune=True), repeats
        )
        yield "solve_chordal", n, inst.qbound, seconds, f"value {pset.best()[0]}"
    dense = build_family("random", 120, k, 9, seed)

    def plan():
        try:
            return cli._auto_algorithm(dense, "auto", 10**8, True)[0]
        except NoApplicableAlgorithmError:
            return "rejected"

    seconds, outcome = best_seconds(plan, repeats)
    yield "auto plan, dense", dense.graph.n, dense.instance.qbound, seconds, outcome


def print_tree_table(rows) -> None:
    print(f"{'case':<17} {'n':>4} {'Q':>5} {'seconds':>9}  outcome", flush=True)
    for case, n, qbound, seconds, outcome in rows:
        print(f"{case:<17} {n:>4} {qbound:>5} {seconds:>9.4f}  {outcome}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="instance sizes (default 10 20 40, or 30 50 with --tree)")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", nargs="+", default=None,
                    help="accuracies for the exact-vs-FPTAS table, e.g. 1/2 2")
    ap.add_argument("--max-profits", type=int, nargs="+", default=[1, 10, 100],
                    help="per-item profit caps for the FPTAS table")
    ap.add_argument("--tree", action="store_true",
                    help="time the tree route's layers instead of the cocomparability solver")
    args = ap.parse_args()

    if args.tree:
        print_tree_table(tree_rows(args.sizes or [30, 50], k=args.k, seed=args.seed))
        return 0
    if args.sizes is None:
        args.sizes = [10, 20, 40]
    if args.epsilon is not None:
        print_fptas_table(fptas_rows(
            args.sizes, args.max_profits, args.epsilon, k=args.k, seed=args.seed
        ))
        return 0

    rows = run_sweep(tuple(args.sizes), k=args.k, seed=args.seed)
    print(f"{'n':>4} {'Q':>5} {'seconds':>9} {'value':>6}")
    for row in rows:
        print(f"{row.n:>4} {row.qbound:>5} {row.seconds:>9.4f} {row.value:>6}")
    factor = worst_trend_factor(rows, k=args.k)
    print(f"worst measured/predicted factor: {factor:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
