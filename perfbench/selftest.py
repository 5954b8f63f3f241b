"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Run from the root of an fkdiv checkout. Checks that:

- every workload prints every end-to-end metric named in BENCHMARK.json
  with its unit under --trace 0, and every per-layer metric under
  --trace 1, with no failed solve;
- a deliberately wrong reference optimum is counted as failed, so the
  checker can fail;
- run.py exits non-zero without printing a result in a directory that
  holds no fkdiv checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def check_metrics(root: Path, spec: dict) -> None:
    for workload in ("ordered", "tree", "fptas"):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} solves")


def check_wrong_reference(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import workloads

    def wrong(case):
        optimum, route = workloads.reference_route(case)
        return optimum + 1, route

    _record, result = run.run(root, "ordered", 7, 1.0, False, tiny=True, reference=wrong)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    assert result["metrics"]["ok_ratio"]["value"] == 0.0, result
    print(f"ok wrong reference: {result['failed']} of {result['attempted']} solves failed")


def check_no_checkout(root: Path) -> None:
    empty = root / run.WORK_DIR / "no-checkout"
    empty.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "ordered", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=empty, capture_output=True, text=True, timeout=170)
    empty.rmdir()
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok no checkout: exit", proc.returncode)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(root, spec)
    check_wrong_reference(root)
    check_no_checkout(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
