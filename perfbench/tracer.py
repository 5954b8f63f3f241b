"""Child process for the benchmark's traced run.

    python3 perfbench/tracer.py --out FILE --mode plain|traced -- solve --input F ...

Imports `fkdiv.cli` (PYTHONPATH must hold the checkout's `src/`), then
calls `fkdiv.cli.main(argv)` once and exits with its code. `plain` only
times `main`; `traced` first wraps functions at the binding site each
caller uses, so the program's own files stay unchanged. Functions
called fewer than ~10^5 times per solve become timed spans; hotter
ones only get call counters, because timing them would double the
solve time. Spans stay in memory and are written to FILE as JSON
when `main` returns:

    {"main_s": s, "exit": code,
     "spans": [[name, start, end, parent_index], ...],
     "counts": {name: calls}, "cells_peak": n, "prune_in": n,
     "prune_out": n, "states_final": n}
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

spans: list = []
_stack: list = []
counts: dict = {}
gauges = {"cells_peak": 0, "prune_in": 0, "prune_out": 0, "states_final": 0}


def timed(name, fn, after=None):
    """Wrap fn in a span; `after(args, result)` may record a gauge."""

    def wrapper(*args, **kwargs):
        idx = len(spans)
        span = [name, 0.0, 0.0, _stack[-1] if _stack else -1]
        spans.append(span)
        _stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            _stack.pop()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def counted(name, fn):
    cell = counts.setdefault(name, [0])

    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _cells(args, _result):
    gauges["cells_peak"] = max(gauges["cells_peak"], len(args[0]))


def _prune(args, result):
    gauges["prune_in"] += len(args[0])
    gauges["prune_out"] += len(result)


def _states(_args, result):
    gauges["states_final"] += len(result.states)


def install() -> None:
    """Wrap every traced function where its caller looks it up."""
    from fkdiv import cli, cocomp, decomposition, oracle, orientation, treedp
    from fkdiv.profiles import ProfileSet
    from fkdiv.rounding import RoundedStateSet, RoundingGrid

    def wrap(owner, attr, name, after=None):
        setattr(owner, attr, timed(name, getattr(owner, attr), after))

    wrap(cli, "parse_instance", "instance_io.parse")
    wrap(cli, "_auto_algorithm", "cli.plan")
    wrap(cli, "is_chordal", "decomposition.is_chordal")
    wrap(cli, "is_cocomparability", "orientation.is_cocomparability")
    wrap(cli, "minfill_decomposition", "decomposition.minfill")
    wrap(cli, "solve_cocomparability", "solve.cocomp")
    wrap(cli, "solve_chordal", "solve.chordal")
    wrap(cli, "solve_treewidth", "solve.treewidth")
    wrap(cli, "solve_approx", "fptas.solve_approx", _states)
    for attr in ("build_report", "validate_report", "render_report"):
        wrap(cli, attr, "instance_io.report")
    wrap(oracle, "brute_force", "oracle.brute_force")
    wrap(decomposition, "chordal_peo", "decomposition.chordal_peo")
    wrap(treedp, "chordal_peo", "decomposition.chordal_peo")
    wrap(treedp, "clique_tree", "decomposition.clique_tree")
    wrap(treedp, "make_nice", "decomposition.make_nice")
    wrap(treedp, "minfill_decomposition", "decomposition.minfill")
    wrap(treedp, "solve_on_decomposition", "treedp.solve_on_decomposition")
    wrap(orientation, "transitive_orientation", "orientation.transitive_orientation")
    wrap(cocomp, "layer_step", "cocomp.layer_step", _cells)
    wrap(ProfileSet, "prune_dominated", "profiles.prune_dominated", _prune)
    wrap(RoundedStateSet, "extended", "rounding.extended")
    ProfileSet.extended = counted("profiles.extended", ProfileSet.extended)
    ProfileSet.union_update = counted("profiles.union_update", ProfileSet.union_update)
    ProfileSet.combine = counted("profiles.combine", ProfileSet.combine)
    RoundedStateSet.insert = counted("rounding.insert", RoundedStateSet.insert)
    RoundingGrid.extend = counted("rounding.extend", RoundingGrid.extend)


def main(argv) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[0:split:2], argv[1:split:2]))
    out, mode = opts["--out"], opts["--mode"]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    from fkdiv import cli

    if mode == "traced":
        install()
    started = perf_counter()
    code = cli.main(argv[split + 1 :])
    main_s = perf_counter() - started
    sys.stdout.flush()
    record = {
        "main_s": main_s,
        "exit": code,
        "spans": spans,
        "counts": {name: cell[0] for name, cell in counts.items()},
        **gauges,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
