"""End-to-end benchmark of `fkdiv solve`, with an optional layer trace.

Run from the root of an fkdiv checkout:

    python3 perfbench/run.py --workload ordered --seed 0 --seconds 35 --trace 0

Each request is one fresh `python3 -m fkdiv.cli solve --input F
--no-timing [--epsilon E]` process, sent as a closed loop with one
client: the next solve starts when the previous one has exited. A fresh
process is what a CLI user pays for (interpreter start-up, imports, and
cold module-level memo tables). The loop makes as many whole passes
(one instance of every slot) as fit in `--seconds`; every solve is
checked afterwards, outside the timed region, against a reference
optimum (see workloads.py) and with `validate_report`. Timings are
rescaled by a calibration run beside each solve (see CALIBRATION).

`--trace 1` makes a separate run in which every instance is solved twice
through perfbench/tracer.py: once plain, timing only `fkdiv.cli.main`,
and once with the layer wrappers installed. It reports per-layer
metrics per pass (one instance of every slot), averaged over the passes
the run completes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment and the per-instance table. The same record is kept in
`.perfbench_work/results/`. Exits 2 without a result when the current
directory holds no `src/fkdiv`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
PINNED_SEED = 0
REFERENCES = HERE / "references.json"
SETUP_REPS = 9
# The calibration: a fixed pure-Python program that imports nothing and
# runs no fkdiv code, started as a fresh `python3 -I -c` process before
# and after every timed solve and setup. A shared host's speed can shift
# by up to 1.8x for seconds to minutes at a time; a solve and the
# calibrations beside it see the same shift, so each timing is
# rescaled by CALIBRATION_REF_S / (mean of those two calibrations):
# seconds on a machine that runs the calibration in CALIBRATION_REF_S.
CALIBRATION = (
    "d = {}\n"
    "t = 0\n"
    "for i in range(60_000):\n"
    "    t += i * i\n"
    "    key = (i % 613, i % 257)\n"
    "    d[key] = d.get(key, 0) + 1\n"
)
CALIBRATION_REF_S = 0.1
# A solve still running after this is killed and counted as failed, so
# a hung solve cannot keep a run past its time limit.
SOLVE_TIMEOUT_S = 60.0

END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_p75": "s",
    "solves_per_s": "1/s",
    "ok_ratio": "ratio",
    "rss_mb_p75": "MB",
    "approx_ratio_min": "ratio",
    "setup_s": "s",
}

# Layers that run on only some workloads report a share of the traced
# in-main wall (multiply by cli.main_s for seconds), so that no time
# metric reads a constant 0 on a workload that never enters the layer.
SHARES = {
    "decomposition.clique_tree_share": ("decomposition.clique_tree", "total"),
    "decomposition.make_nice_share": ("decomposition.make_nice", "total"),
    "decomposition.minfill_share": ("decomposition.minfill", "total"),
    "treedp.solve_on_decomposition_self_share": ("treedp.solve_on_decomposition", "self"),
    "cocomp.layer_step_self_share": ("cocomp.layer_step", "self"),
    "profiles.prune_dominated_share": ("profiles.prune_dominated", "total"),
    "rounding.extended_share": ("rounding.extended", "total"),
    "oracle.brute_force_share": ("oracle.brute_force", "total"),
}
SECONDS = {
    "cli.plan_s": "cli.plan",
    "instance_io.parse_s": "instance_io.parse",
    "instance_io.report_s": "instance_io.report",
    "decomposition.chordal_peo_s": "decomposition.chordal_peo",
    "orientation.transitive_orientation_s": "orientation.transitive_orientation",
}
CALLS = {
    "orientation.transitive_orientation_calls": "orientation.transitive_orientation",
    "decomposition.minfill_calls": "decomposition.minfill",
}
COUNTERS = {
    "profiles.extended_calls": "profiles.extended",
    "profiles.union_update_calls": "profiles.union_update",
    "profiles.combine_calls": "profiles.combine",
    "rounding.extend_calls": "rounding.extend",
    "rounding.insert_calls": "rounding.insert",
}
ALGORITHMS = ("chordal", "cocomp", "treewidth", "bruteforce", "biconvex")

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.main_s": "s",
    **{name: "s" for name in SECONDS},
    **{f"cli.algo.{a}": "count" for a in ALGORITHMS},
    "cli.exit3": "count",
    **{name: "count" for name in CALLS},
    **{name: "ratio" for name in SHARES},
    "cocomp.cells_peak": "count",
    "profiles.prune_in": "count",
    "profiles.prune_keep_ratio": "ratio",
    **{name: "count" for name in COUNTERS},
    "fptas.states_final": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Solve:
    """One finished child process."""

    __slots__ = ("case", "wall", "scaled", "exit", "out", "err", "rss_mb", "cpu", "trace")

    def __init__(self, case, wall, exit_code, out, err, rss_mb, cpu):
        self.case = case
        self.wall = wall
        self.scaled = wall
        self.exit = exit_code
        self.out = out
        self.err = err
        self.rss_mb = rss_mb
        self.cpu = cpu
        self.trace = None


def spawn(cmd, env, cwd, err_path):
    """Run cmd to exit; (wall s, exit code, stdout, stderr, max RSS MB,
    CPU s).

    The child's own max RSS and CPU time come from wait4, so they are
    per process and not cumulative over the run.
    """
    with open(err_path, "w+b") as err:
        started = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(SOLVE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        wall = perf_counter() - started
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, proc.returncode, out, stderr, usage.ru_maxrss / 1024, cpu


class Bench:
    """Instances, child environment and checks for one run."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool):
        import workloads

        self.w = workloads
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = root / WORK_DIR / f"{workload}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cases = []
        self.setup_times = []
        self.calibrations = []
        self.references = {}
        self.pinned = {}
        if seed == PINNED_SEED and REFERENCES.exists():
            self.pinned = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]

    # -- setup ---------------------------------------------------------

    def setup(self) -> None:
        """Generate and write every instance, SETUP_REPS times, each
        rescaled by the calibrations beside it."""
        self.work.mkdir(parents=True, exist_ok=True)
        before = self.calibrate()
        for rep in range(SETUP_REPS):
            started = perf_counter()
            cases = self.w.build_cases(self.workload, self.seed, self.tiny)
            self.w.write_cases(cases, self.work / f"setup{rep}")
            wall = perf_counter() - started
            after = self.calibrate()
            self.setup_times.append(wall * scale(before, after))
            before = after
        self.cases = cases

    def calibrate(self) -> float:
        """Wall of one calibration process; kept for the record."""
        cmd = [sys.executable, "-I", "-c", CALIBRATION]
        wall, code, _out, err, _rss, _cpu = spawn(cmd, None, self.root, self.work / "stderr.txt")
        if code != 0:
            raise RuntimeError(f"calibration exited {code}: {err.strip()[-200:]}")
        self.calibrations.append(wall)
        return wall

    @property
    def pass_size(self) -> int:
        return len((self.w.TINY_SLOTS if self.tiny else self.w.SLOTS)[self.workload])

    # -- solving -------------------------------------------------------

    def solve(self, case) -> Solve:
        cmd = [sys.executable, "-m", "fkdiv.cli", *case.solve_args()]
        return Solve(case, *spawn(cmd, self.env, self.root, self.work / "stderr.txt"))

    def traced_solve(self, case, mode: str) -> Solve:
        out = self.work / "trace.json"
        cmd = [sys.executable, str(HERE / "tracer.py"), "--out", str(out), "--mode", mode]
        solve = Solve(case, *spawn(cmd + ["--", *case.solve_args()], self.env, self.root,
                                   self.work / "stderr.txt"))
        if out.exists():
            solve.trace = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        return solve

    def warm_up(self) -> None:
        """Import the CLI once, untimed, so bytecode compilation is not
        timed; a user pays it once per install, not per solve."""
        cmd = [sys.executable, "-m", "fkdiv.cli", "--help"]
        spawn(cmd, self.env, self.root, self.work / "stderr.txt")

    # -- checks --------------------------------------------------------

    def reference(self, case):
        """(optimum or None, route), pinned for PINNED_SEED."""
        if case.case_id not in self.references:
            pinned = self.pinned.get(case.case_id)
            if pinned is not None and pinned["sha256"] == case.sha256:
                self.references[case.case_id] = (pinned["optimum"], pinned["route"])
            else:
                self.references[case.case_id] = self.w.reference_route(case)
        return self.references[case.case_id]

    def check(self, solves) -> list:
        """Failure reason per solve, None when it passed every check."""
        from fkdiv.instance_io import validate_report

        first_hash = {}
        reasons = []
        for s in solves:
            optimum, _route = self.reference(s.case)
            reasons.append(self._judge(s, optimum, validate_report, first_hash))
        return reasons

    def _judge(self, s, optimum, validate_report, first_hash):
        if s.exit == 3:
            return None if optimum is None else "exit 3 on an instance with a reference"
        if s.exit != 0:
            return f"exit {s.exit}: {s.err.strip()[-200:]}"
        digest = hashlib.sha256(s.out).hexdigest()
        if first_hash.setdefault(s.case.case_id, digest) != digest:
            return "report differs from an earlier solve of the same file"
        try:
            report = json.loads(s.out)
            validate_report(report, s.case.parsed)
        except ValueError as exc:
            return f"invalid report: {exc}"
        if optimum is not None and not self.w.accepts(s.case, optimum, report["value"]):
            return f"value {report['value']} against reference {optimum}"
        return None

    # -- record --------------------------------------------------------

    def record(self, solves, reasons) -> dict:
        rows = {}
        hashes = {}
        for s, reason in zip(solves, reasons):
            case = s.case
            inst = case.parsed.instance
            optimum, route = self.reference(case)
            algo = "exit-3" if s.exit == 3 else None
            if s.exit == 0 and reason is None:
                algo = json.loads(s.out)["algorithm"]
                hashes[case.case_id] = hashlib.sha256(s.out).hexdigest()
            rows.setdefault(case.case_id, {
                "id": case.case_id,
                "family": case.slot.family,
                "n": inst.n,
                "k": inst.k,
                "max_profit": case.slot.max_profit,
                "Q": inst.qbound,
                "m": inst.graph.m,
                "epsilon": case.slot.epsilon,
                "gen_seed": case.gen_seed,
                "algorithm": algo,
                "reference": optimum,
                "route": route,
                "wall_s": [],
                "scaled_s": [],
                "cpu_s": [],
                "rss_mb": [],
            })
            rows[case.case_id]["wall_s"].append(round(s.wall, 4))
            rows[case.case_id]["scaled_s"].append(round(s.scaled, 4))
            rows[case.case_id]["cpu_s"].append(round(s.cpu, 4))
            rows[case.case_id]["rss_mb"].append(round(s.rss_mb, 1))
        digest = hashlib.sha256(json.dumps(sorted(hashes.items())).encode()).hexdigest()
        return {
            "env": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "commit": git_commit(self.root),
                "workload": self.workload,
                "seed": self.seed,
                "tiny": self.tiny,
            },
            "instances": list(rows.values()),
            "report_sha256": hashes,
            "reports_digest": digest,
            "failures": [
                {"id": s.case.case_id, "reason": r} for s, r in zip(solves, reasons) if r
            ],
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartile3(values) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def scale(before: float, after: float) -> float:
    """Factor that rescales a timing to the calibration's reference speed."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def end_to_end(bench: Bench, seconds: float, reference=None):
    """Timed closed loop; (solves, reasons, metrics).

    A pass solves one instance of every slot, taking the generated
    copies in turn; a run makes as many whole passes as fit in
    `seconds` (at least one), with a calibration before and after each
    solve (see CALIBRATION). The timing metrics are taken over the
    rescaled walls.
    """
    solves = []
    size = bench.pass_size
    before = bench.calibrate()
    passes = 0
    started = perf_counter()
    # Whole passes only, so every run has the workload's exact mix; start
    # a pass only if one more pass of the same length fits.
    while passes == 0 or (perf_counter() - started) * (passes + 1) / passes <= seconds:
        first = (passes * size) % len(bench.cases)
        for case in bench.cases[first : first + size]:
            solve = bench.solve(case)
            after = bench.calibrate()
            solve.scaled = solve.wall * scale(before, after)
            solves.append(solve)
            before = after
        passes += 1
    if reference is not None:
        bench.references = {s.case.case_id: reference(s.case) for s in solves}
    reasons = bench.check(solves)
    scaled = [s.scaled for s in solves]
    ratios = []
    for s, reason in zip(solves, reasons):
        optimum, _route = bench.reference(s.case)
        if reason is None and s.exit == 0 and optimum is not None:
            ratios.append(bench.w.ratio(optimum, json.loads(s.out)["value"]))
    failed = sum(r is not None for r in reasons)
    values = {
        "solve_s_p50": statistics.median(scaled),
        "solve_s_p75": quartile3(scaled),
        "solves_per_s": len(solves) / sum(scaled),
        "ok_ratio": (len(solves) - failed) / len(solves),
        "rss_mb_p75": quartile3([s.rss_mb for s in solves]),
        "approx_ratio_min": min(ratios) if ratios else 0.0,
        "setup_s": statistics.median(bench.setup_times),
    }
    return solves, reasons, {name: metric(values[name], END_TO_END[name]) for name in END_TO_END}


def _span_times(trace) -> tuple:
    """(total s by name, self s by name, calls by name, top-level s)."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    total, own, calls = {}, {}, {}
    for i, (name, start, end, _parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child[i]
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls, top


def traced(bench: Bench, seconds: float):
    """Plain and traced solve of every instance, pass by pass."""
    size = bench.pass_size
    pairs = []
    passes = 0
    started = perf_counter()
    # Start a pass only if one more pass of the same length fits.
    while passes == 0 or (perf_counter() - started) * (passes + 1) / passes <= seconds:
        first = (passes * size) % len(bench.cases)
        for case in bench.cases[first : first + size]:
            pairs.append((bench.traced_solve(case, "plain"), bench.traced_solve(case, "traced")))
        passes += 1
    solves = [s for pair in pairs for s in pair]
    reasons = bench.check(solves)

    sums = dict.fromkeys(PER_LAYER, 0.0)
    total, own, calls = {}, {}, {}
    traced_main = plain_main = top = 0.0
    prune_in = prune_out = 0
    for plain, tr in pairs:
        if plain.trace is None or tr.trace is None:
            continue
        plain_main += plain.trace["main_s"]
        sums["cli.startup_s"] += plain.wall - plain.trace["main_s"]
        if plain.exit == 3:
            sums["cli.exit3"] += 1
        elif plain.exit == 0:
            algo = json.loads(plain.out).get("algorithm")
            if f"cli.algo.{algo}" in sums:
                sums[f"cli.algo.{algo}"] += 1
        t = tr.trace
        traced_main += t["main_s"]
        s_total, s_own, s_calls, s_top = _span_times(t)
        top += s_top
        for src, dst in ((s_total, total), (s_own, own), (s_calls, calls)):
            for name, v in src.items():
                dst[name] = dst.get(name, 0) + v
        for name, counter in COUNTERS.items():
            sums[name] += t["counts"].get(counter, 0)
        sums["cocomp.cells_peak"] = max(sums["cocomp.cells_peak"], t["cells_peak"])
        sums["fptas.states_final"] += t["states_final"]
        prune_in += t["prune_in"]
        prune_out += t["prune_out"]

    values = {name: v / passes for name, v in sums.items()}
    values["cocomp.cells_peak"] = sums["cocomp.cells_peak"]
    values["cli.main_s"] = plain_main / passes
    for name, span in SECONDS.items():
        values[name] = total.get(span, 0.0) / passes
    for name, span in CALLS.items():
        values[name] = calls.get(span, 0) / passes
    for name, (span, kind) in SHARES.items():
        source = own if kind == "self" else total
        values[name] = source.get(span, 0.0) / traced_main if traced_main else 0.0
    values["profiles.prune_in"] = prune_in / passes
    values["profiles.prune_keep_ratio"] = prune_out / prune_in if prune_in else 0.0
    values["trace.overhead"] = traced_main / plain_main if plain_main else 0.0
    values["trace.coverage"] = top / traced_main if traced_main else 0.0
    return solves, reasons, {name: metric(values[name], PER_LAYER[name]) for name in PER_LAYER}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, reference=None):
    """(record, result) for one run; `reference` overrides the checker's
    reference route (the self-test passes a wrong one on purpose)."""
    bench = Bench(root, workload, seed, tiny)
    try:
        bench.setup()
        bench.warm_up()
        if trace:
            solves, reasons, metrics = traced(bench, seconds)
        else:
            solves, reasons, metrics = end_to_end(bench, seconds, reference)
        record = bench.record(solves, reasons)
        record["env"]["calibration_s"] = {
            "ref": CALIBRATION_REF_S,
            "median": statistics.median(bench.calibrations),
            "min": min(bench.calibrations),
            "max": max(bench.calibrations),
        }
    finally:
        bench.cleanup()
    failed = sum(r is not None for r in reasons)
    result = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ordered", "tree", "fptas"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, seconds per run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fkdiv" / "cli.py").is_file():
        print(f"error: {root} holds no src/fkdiv; run from an fkdiv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    record, result = run(root, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps({**record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("env", "instances", "reports_digest", "failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
