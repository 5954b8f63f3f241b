"""Command line interface.

Subcommands: solve (pick or force an algorithm, print a JSON report),
gen (write a seeded instance of a named family), verify (check a report
against its instance). Exit codes: 0 success, 2 unusable input, 3 no
algorithm applies to the instance, 4 search budget exceeded. Errors
name vertices and decomposition nodes by the file's 1-based ids.

A solve loads only the modules of the route it takes: every solver and
recognizer past the chordal check is bound here by `_forward`, which
imports its home module on the first call. `main` returns the exit
code; `run`, the entry point of the `fkdiv` script and of
`python -m fkdiv.cli`, flushes the output and ends the process at once,
skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from importlib import import_module

from .errors import (
    BudgetExceededError,
    DecompositionError,
    NoApplicableAlgorithmError,
    NotChordalError,
    NotCocomparabilityError,
    OrderingNotBiconvexError,
    ParameterOutOfRangeError,
    ParseError,
    UnknownFamilyError,
)
from .graphs import chordal_peo
from .instance_io import (
    ParsedInstance,
    build_report,
    coloring_array,
    parse_instance,
    render_profiles,
    render_report,
    serialize_instance,
    validate_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_ALGORITHM = 3
EXIT_BUDGET = 4

MINFILL_CELL_LIMIT = 100_000

_INPUT_ERRORS = (ParseError, DecompositionError, UnknownFamilyError, ParameterOutOfRangeError)
_APPLICABILITY_ERRORS = (
    NoApplicableAlgorithmError,
    NotChordalError,
    NotCocomparabilityError,
    OrderingNotBiconvexError,
)


def _forward(module: str, name: str):
    """A stand-in for `module.name` that imports the module on its first
    call, so a route that never calls it does not load the module."""

    def forward(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    return forward


# The planner reads these names from this module when it runs, and
# perfbench/tracer.py wraps them here; is_chordal and is_cocomparability
# are bound for the tracer only.
solve_cocomparability = _forward("cocomp", "solve_cocomparability")
complement_orientation = _forward("orientation", "complement_orientation")
minfill_decomposition = _forward("decomposition", "minfill_decomposition")
solve_chordal = _forward("treedp", "solve_chordal")
solve_treewidth = _forward("treedp", "solve_treewidth")
solve_approx = _forward("fptas", "solve_approx")
is_chordal = _forward("decomposition", "is_chordal")
is_cocomparability = _forward("orientation", "is_cocomparability")


def _auto_algorithm(parsed: ParsedInstance, algo: str, budget: int, allow_bruteforce: bool):
    """(algorithm, solver) for `algo`: "auto" or a forced algorithm name.

    Each recognizer runs at most once, and the PEO, orientation or tree
    decomposition it returns is bound into the solver, a callable with the
    shared (instance, space=..., ...) signature. A forced algorithm runs
    only its own recognizer and lets its failure propagate."""
    graph, k = parsed.graph, parsed.instance.k
    auto = algo == "auto"
    if auto or algo == "chordal":
        try:
            return "chordal", partial(solve_chordal, peo=chordal_peo(graph))
        except NotChordalError:
            if not auto:
                raise
    if auto or algo == "cocomp":
        try:
            orientation = complement_orientation(graph)
            return "cocomp", partial(solve_cocomparability, orientation=orientation)
        except NotCocomparabilityError:
            if not auto:
                raise
    if auto or algo == "biconvex":
        if parsed.order_a is not None:
            from .biconvex import solve_biconvex

            return "biconvex", partial(
                solve_biconvex, order_a=parsed.order_a, order_b=parsed.order_b
            )
        if not auto:
            raise NoApplicableAlgorithmError(
                "biconvex solver needs 'o A'/'o B' ordering lines"
            )
    if auto or algo == "treewidth":
        # Under auto, min-fill gives up once a bag passes the largest b
        # with (k+1)^b colorings within the limit (b < the limit's bit
        # length, as k >= 1).
        max_bag = max(
            b for b in range(MINFILL_CELL_LIMIT.bit_length()) if (k + 1) ** b <= MINFILL_CELL_LIMIT
        )
        td = parsed.decomposition
        if td is None:
            td = minfill_decomposition(graph, max_bag=max_bag if auto else None)
        if td is not None:
            return "treewidth", partial(solve_treewidth, td=td)
    if algo == "bruteforce" or (allow_bruteforce and (k + 1) ** graph.n <= budget):
        from . import oracle

        return "bruteforce", partial(oracle.brute_force, budget=budget)
    raise NoApplicableAlgorithmError(
        "instance fits no structured solver; brute force would exceed the budget"
    )


def _read_instance(path: str) -> ParsedInstance:
    """The instance file at `path`, read by this module's `parse_instance`.
    A file that cannot be read or decoded raises OSError naming it, which
    `main` reports as unusable input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def run_solve(args) -> int:
    parsed = _read_instance(args.input)
    instance = parsed.instance
    n = instance.n

    if args.epsilon is not None and (args.emit_profiles or args.no_prune):
        flag = "--emit-profiles" if args.emit_profiles else "--no-prune"
        print(f"error: {flag} needs exact profiles, drop --epsilon", file=sys.stderr)
        return EXIT_INPUT
    if args.epsilon is not None and args.algo == "bruteforce":
        print("error: --epsilon does not apply to bruteforce", file=sys.stderr)
        return EXIT_INPUT
    if args.epsilon is not None:
        from .fptas import parse_epsilon

        try:
            parse_epsilon(args.epsilon)
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT

    prune = not args.no_prune and not args.emit_profiles
    started = time.perf_counter()
    algo, solver = _auto_algorithm(
        parsed, args.algo, args.budget, allow_bruteforce=args.epsilon is None
    )

    emit_profiles = None
    if args.epsilon is not None:
        result = solve_approx(instance, args.epsilon, solver=solver)
        value, profile, witness = result.value, result.profile, result.witness
        profile_count = None
    elif algo == "bruteforce":
        result = solver(instance)
        value, witness = result.optimum, result.witness
        from .profiles import profile_of

        profile = profile_of(instance, witness)
        profile_count = len(result.profiles)
        emit_profiles = sorted(result.profiles)
    else:
        pset = solver(instance, witnesses=True, prune=prune)
        value, profile, witness = pset.best()
        profile_count = None if prune else len(pset)
        if args.emit_profiles:
            emit_profiles = pset.profiles()
    elapsed = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)

    report = build_report(
        value=value,
        coloring=coloring_array(witness, n),
        profile=profile,
        algorithm=algo,
        epsilon=args.epsilon,
        elapsed_millis=elapsed,
        profile_count=profile_count,
    )
    validate_report(report, parsed)
    text = render_report(report)
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.emit_profiles:
        with open(args.emit_profiles, "w", encoding="utf-8") as fh:
            fh.write(render_profiles(emit_profiles))
    return EXIT_OK


def run_gen(args) -> int:
    from .generators import build_family

    parsed = build_family(
        args.family, args.n, args.k, args.max_profit, args.seed, ell=args.ell
    )
    text = serialize_instance(parsed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


def run_verify(args) -> int:
    import json

    parsed = _read_instance(args.input)
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report {args.report}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        validate_report(report, parsed)
    except ValueError as exc:
        print(f"invalid: {exc}")
        return 1
    print("ok")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _family(text: str) -> str:
    from .generators import FAMILIES

    if text not in FAMILIES:
        choices = ", ".join(map(repr, FAMILIES))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkdiv",
        description="Max-min fair division of items under a conflict graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file and print a JSON report")
    ps.add_argument("--input", required=True, help="instance file")
    ps.add_argument(
        "--algo",
        default="auto",
        choices=("auto", "bruteforce", "cocomp", "biconvex", "chordal", "treewidth"),
        help="algorithm to use (default: pick automatically)",
    )
    ps.add_argument(
        "--epsilon",
        default=None,
        help="approximation accuracy as a decimal string, e.g. 0.1",
    )
    ps.add_argument(
        "--emit-profiles",
        default=None,
        metavar="FILE",
        help="also write every achievable profile to FILE (disables pruning)",
    )
    ps.add_argument(
        "--no-prune",
        action="store_true",
        help="keep dominated profiles instead of discarding them",
    )
    ps.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=10**8,
        help="node limit for brute force (default 1e8)",
    )
    ps.add_argument(
        "--threads",
        type=int,
        default=1,
        help="reserved; results are identical for any value",
    )
    ps.add_argument(
        "--no-timing",
        action="store_true",
        help="report elapsedMillis as 0 for byte-reproducible output",
    )
    ps.add_argument("--report", default=None, metavar="FILE", help="also write the report to FILE")
    ps.set_defaults(func=run_solve)

    pg = sub.add_parser("gen", help="generate a seeded instance of a graph family")
    pg.add_argument(
        "--family", required=True, type=_family, help="graph family; a wrong name lists them all"
    )
    pg.add_argument("--n", required=True, type=int, help="number of items")
    pg.add_argument("--k", type=int, default=2, help="number of agents (default 2)")
    pg.add_argument("--max-profit", type=int, default=10)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--ell", type=int, default=None, help="clique size for clique-reduction")
    pg.add_argument("--out", required=True, help="output instance file")
    pg.set_defaults(func=run_gen)

    pv = sub.add_parser("verify", help="check a solve report against its instance")
    pv.add_argument("--input", required=True, help="instance file")
    pv.add_argument("--report", required=True, help="report JSON file")
    pv.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*_INPUT_ERRORS, *_APPLICABILITY_ERRORS, BudgetExceededError) as exc:
        print(f"error: {exc.one_based()}", file=sys.stderr)
        if isinstance(exc, _INPUT_ERRORS):
            return EXIT_INPUT
        return EXIT_NO_ALGORITHM if isinstance(exc, _APPLICABILITY_ERRORS) else EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Run `main` on the command line and end the process with its code.

    Once the output is flushed, the process has nothing left to do, so
    `os._exit` skips interpreter teardown: finalizing every loaded
    module, most of them loaded by `site` before fkdiv starts. A flush
    that fails (a closed pipe) leaves the exit to `sys.exit`, which
    reports it as an ordinary exit does. `--help`, usage errors and
    uncaught exceptions leave `main` as exceptions and exit normally."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
