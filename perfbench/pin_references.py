"""Pin reference optima for the benchmark's default seed.

    python3 perfbench/pin_references.py

Run from the root of an fkdiv checkout. For every instance of every
workload at run.PINNED_SEED, solves the file with the default
`fkdiv solve` (exact, no --epsilon) and by the second route of
workloads.reference_route, stops on any disagreement, and writes
perfbench/references.json. Dense random instances must exit 3 on the
default route. Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def pin(root: Path) -> dict:
    pinned = {}
    import workloads

    for workload in workloads.SLOTS:
        bench = run.Bench(root, workload, run.PINNED_SEED, tiny=False)
        table = pinned[workload] = {}
        try:
            bench.setup()
            for case in bench.cases:
                optimum, route = bench.w.reference_route(case)
                exact = case.solve_args()[:4]  # without --epsilon
                cmd = [sys.executable, "-m", "fkdiv.cli", *exact]
                _wall, code, out, err, _rss, _cpu = run.spawn(cmd, bench.env, root, bench.work / "err")
                default = json.loads(out)["value"] if code == 0 else None
                if code not in (0, 3) or default != optimum:
                    raise SystemExit(
                        f"{workload} {case.case_id}: default route exit {code} value "
                        f"{default}, {route} gives {optimum}; {err.strip()}"
                    )
                table[case.case_id] = {"sha256": case.sha256, "optimum": optimum, "route": route}
                print(workload, case.case_id, optimum, route, flush=True)
        finally:
            bench.cleanup()
    return pinned


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "fkdiv" / "cli.py").is_file():
        print("error: run from the root of an fkdiv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run.REFERENCES.write_text(json.dumps(pin(root), indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
