import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fkdiv
from fkdiv import cli, decomposition, orientation, treedp
from fkdiv.errors import DimensionMismatchError, NoApplicableAlgorithmError, ParseError
from fkdiv.generators import FAMILIES, build_family
from fkdiv.graphs import Graph, Instance
from fkdiv.instance_io import (
    REPORT_KEYS,
    ParsedInstance,
    build_report,
    coloring_array,
    parse_instance,
    serialize_instance,
    validate_report,
    witness_from_array,
)
from fkdiv.oracle import brute_force
from fkdiv.profiles import profile_of

GOOD = """\
p fkdiv 4 3 2
e 1 2
e 2 3
e 3 4
w 1 5 1 4 2
w 2 3 3 0 6
"""


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "fkdiv.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_parse_minimal():
    parsed = parse_instance(GOOD)
    inst = parsed.instance
    assert inst.n == 4 and inst.k == 2
    assert inst.graph.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert inst.profits == ((5, 1, 4, 2), (3, 3, 0, 6))
    assert parsed.declared_class is None


def test_parse_full_sections():
    text = GOOD + "c class chordal\no A 1 3\no B 2 4\nt 2 1\nb 1 1 2\nb 2 2 3 4\na 1 2\n"
    parsed = parse_instance(text)
    assert parsed.declared_class == "chordal"
    assert parsed.order_a == (0, 2) and parsed.order_b == (1, 3)
    td = parsed.decomposition
    assert td.bags == (frozenset({0, 1}), frozenset({1, 2, 3}))
    assert td.edges == ((0, 1),)
    assert parsed.decomposition_root == 0


def test_serialize_round_trip_is_canonical():
    text = GOOD + "c class chordal\no A 1 3\no B 2 4\nt 2 2\nb 1 1 2\nb 2 2 3 4\na 1 2\n"
    parsed = parse_instance(text)
    out = serialize_instance(parsed)
    again = parse_instance(out)
    assert serialize_instance(again) == out
    assert again.instance.profits == parsed.instance.profits
    assert again.decomposition_root == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("e 1 2\n", "first record"),
        ("p fkdiv 3 0\n", "header must be"),
        ("p fkdiv 0 0 1\n", "at least one vertex"),
        ("p fkdiv 3 0 0\n", "k >= 1"),
        ("p fkdiv 2 0 1\np fkdiv 2 0 1\nw 1 1 1\n", "duplicate header"),
        ("p fkdiv 2 1 1\ne 1\nw 1 1 1\n", "edge line"),
        ("p fkdiv 2 1 1\ne 1 1\nw 1 1 1\n", "self-loop"),
        ("p fkdiv 2 2 1\ne 1 2\ne 2 1\nw 1 1 1\n", "duplicate edge"),
        ("p fkdiv 2 1 1\ne 1 3\nw 1 1 1\n", "outside 1..2"),
        ("p fkdiv 2 0 1\nw 1 1 1\nw 1 2 2\n", "duplicate profits"),
        ("p fkdiv 2 0 1\nw 2 1 1\n", "class id 2 outside"),
        ("p fkdiv 2 0 1\nw 1 1 -4\n", "nonnegative"),
        ("p fkdiv 2 0 1\nw 1 x 1\n", "expected integer"),
        ("p fkdiv 2 0 1\nw 1 1 1\nc class a\nc class b\n", "duplicate class"),
        ("p fkdiv 2 0 1\nw 1 1 1\no A 1 2\n", "both an 'o A' and an 'o B'"),
        ("p fkdiv 2 0 1\nw 1 1 1\no C 1\n", "'o A ...' or 'o B ...'"),
        ("p fkdiv 2 0 1\nw 1 1 1\no A 1\no A 2\no B 2\n", "duplicate 'o A'"),
        ("p fkdiv 2 0 1\nw 1 1 1\nb 1 1\n", "'b' line before 't'"),
        ("p fkdiv 2 0 1\nw 1 1 1\na 1 2\n", "'a' line before 't'"),
        ("p fkdiv 2 0 1\nw 1 1 1\nt 2 3\nb 1 1\nb 2 2\na 1 2\n", "root 3 outside"),
        ("p fkdiv 2 0 1\nw 1 1 1\nt 1 1\nb 1 1\nb 1 2\n", "duplicate bag"),
        ("p fkdiv 2 0 1\nw 1 1 1\nq 1\n", "unknown record"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_wrong_profit_row_length_is_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse_instance("p fkdiv 3 0 1\nw 1 5 5\n")


@pytest.mark.parametrize(
    "text",
    [
        "p fkdiv 2 2 1\ne 1 2\nw 1 1 1\n",
        "p fkdiv 2 0 2\nw 1 1 1\n",
        "p fkdiv 2 0 1\nw 1 1 1\nt 2 1\nb 1 1\na 1 2\n",
    ],
)
def test_missing_pieces_are_dimension_mismatch(text):
    with pytest.raises(DimensionMismatchError):
        parse_instance(text)


def test_coloring_array_round_trip():
    witness = ((0, 3), (2,))
    arr = coloring_array(witness, 5)
    assert arr == [1, 0, 2, 1, 0]
    assert witness_from_array(arr, 2) == witness


def test_build_report_shape():
    parsed = parse_instance(GOOD)
    res = brute_force(parsed.instance)
    arr = coloring_array(res.witness, parsed.instance.n)
    profile = profile_of(parsed.instance, res.witness)
    report = build_report(
        res.optimum, arr, list(profile), "bruteforce", None, 7, None
    )
    assert list(report.keys()) == list(REPORT_KEYS)
    validate_report(report, parsed)


def good_report(parsed):
    res = brute_force(parsed.instance)
    arr = coloring_array(res.witness, parsed.instance.n)
    profile = profile_of(parsed.instance, res.witness)
    return build_report(
        res.optimum, arr, list(profile), "bruteforce", None, 7, None
    )


def test_validate_report_rejects_bad_shapes():
    parsed = parse_instance(GOOD)
    base = good_report(parsed)

    shuffled = {key: base[key] for key in reversed(REPORT_KEYS)}
    with pytest.raises(ValueError, match="report keys"):
        validate_report(shuffled, parsed)

    conflicted = dict(base)
    conflicted["coloring"] = [1, 1, 0, 0]
    with pytest.raises(ValueError, match="infeasible"):
        validate_report(conflicted, parsed)

    wrong_profile = dict(base)
    wrong_profile["profile"] = [99, 99]
    with pytest.raises(ValueError, match="profile"):
        validate_report(wrong_profile, parsed)

    wrong_value = dict(base)
    wrong_value["value"] = base["value"] + 1
    with pytest.raises(ValueError, match="value"):
        validate_report(wrong_value, parsed)

    bad_eps = dict(base)
    bad_eps["epsilon"] = 0.5
    with pytest.raises(ValueError, match="epsilon"):
        validate_report(bad_eps, parsed)

    bad_ms = dict(base)
    bad_ms["elapsedMillis"] = -1
    with pytest.raises(ValueError, match="elapsedMillis"):
        validate_report(bad_ms, parsed)

    bad_count = dict(base)
    bad_count["profileCount"] = 0
    with pytest.raises(ValueError, match="profileCount"):
        validate_report(bad_count, parsed)


def test_validate_report_rejects_non_objects_and_booleans():
    for bad in ([], None, "report", 3):
        with pytest.raises(ValueError, match="JSON object"):
            validate_report(bad, parse_instance(GOOD))
    # One class over an edgeless pair: coloring [1, 0], profile [1], value 1.
    parsed = parse_instance("p fkdiv 2 0 1\nw 1 1 0\n")
    base = {**good_report(parsed), "profileCount": 1}
    validate_report(base, parsed)
    for key, flag in (
        ("coloring", [True, False]),
        ("profile", [True]),
        ("value", True),
        ("elapsedMillis", False),
        ("profileCount", True),
    ):
        with pytest.raises(ValueError, match=key):
            validate_report({**base, key: flag}, parsed)


def test_cli_gen_solve_verify_round_trip(tmp_path):
    inst_file = tmp_path / "inst.fk"
    report_file = tmp_path / "report.json"
    gen = run_cli(
        "gen", "--family", "chordal", "--n", "7", "--k", "2",
        "--max-profit", "9", "--seed", "5", "--out", str(inst_file),
    )
    assert gen.returncode == 0 and gen.stdout == ""
    parse_instance(inst_file.read_text())

    solve = run_cli(
        "solve", "--input", str(inst_file), "--report", str(report_file),
        "--no-timing",
    )
    assert solve.returncode == 0
    report = json.loads(solve.stdout)
    assert report == json.loads(report_file.read_text())
    assert report["algorithm"] == "chordal"
    assert report["elapsedMillis"] == 0

    verify = run_cli(
        "verify", "--input", str(inst_file), "--report", str(report_file)
    )
    assert verify.returncode == 0
    assert verify.stdout.strip() == "ok"


def test_cli_verify_catches_tampering(tmp_path):
    inst_file = tmp_path / "inst.fk"
    report_file = tmp_path / "report.json"
    inst_file.write_text(GOOD)
    solve = run_cli(
        "solve", "--input", str(inst_file), "--report", str(report_file)
    )
    assert solve.returncode == 0
    report = json.loads(report_file.read_text())
    report["value"] += 1
    report_file.write_text(json.dumps(report))
    verify = run_cli(
        "verify", "--input", str(inst_file), "--report", str(report_file)
    )
    assert verify.returncode == 1
    assert verify.stdout.startswith("invalid:")


def test_cli_verify_rejects_non_object_and_boolean_reports(tmp_path):
    inst_file = tmp_path / "inst.fk"
    report_file = tmp_path / "report.json"
    inst_file.write_text("p fkdiv 3 1 1\ne 1 2\nw 1 1 1 0\n")
    solve = run_cli("solve", "--input", str(inst_file), "--report", str(report_file))
    assert solve.returncode == 0
    report = json.loads(report_file.read_text())
    assert report["algorithm"] == "chordal" and set(report["coloring"]) == {0, 1}
    report["coloring"] = [bool(c) for c in report["coloring"]]
    report["elapsedMillis"] = False
    for payload in ([], report):
        report_file.write_text(json.dumps(payload))
        res = run_cli("verify", "--input", str(inst_file), "--report", str(report_file))
        assert res.returncode == 1
        assert res.stdout.startswith("invalid:") and res.stdout.count("\n") == 1
        assert res.stderr == ""


def test_cli_input_errors_exit_2(tmp_path):
    missing = run_cli("solve", "--input", str(tmp_path / "nope.fk"))
    assert missing.returncode == 2

    garbage = tmp_path / "bad.fk"
    garbage.write_text("not a header\n")
    bad = run_cli("solve", "--input", str(garbage))
    assert bad.returncode == 2

    inst = tmp_path / "ok.fk"
    inst.write_text(GOOD)
    eps_profiles = run_cli(
        "solve", "--input", str(inst), "--epsilon", "0.5",
        "--emit-profiles", str(tmp_path / "p.json"),
    )
    assert eps_profiles.returncode == 2

    eps_no_prune = run_cli("solve", "--input", str(inst), "--epsilon", "0.5", "--no-prune")
    assert eps_no_prune.returncode == 2
    assert "--no-prune" in eps_no_prune.stderr

    eps_brute = run_cli(
        "solve", "--input", str(inst), "--epsilon", "0.5", "--algo", "bruteforce"
    )
    assert eps_brute.returncode == 2

    bad_eps = run_cli("solve", "--input", str(inst), "--epsilon", "-3")
    assert bad_eps.returncode == 2

    # C5 fits no other solver, so auto reaches the declared decomposition,
    # whose bags {1,2,3} and {3,4,5} leave the edge 1-5 uncovered.
    bad_td = tmp_path / "c5-bad-td.fk"
    bad_td.write_text(
        "p fkdiv 5 5 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\nw 1 1 1 1 1 1\n"
        "t 2 1\nb 1 1 2 3\nb 2 3 4 5\na 1 2\n"
    )
    for algo in ("auto", "treewidth"):
        res = run_cli("solve", "--input", str(bad_td), "--algo", algo)
        assert res.returncode == 2, (algo, res.stderr)
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    # Huge declared counts with nothing behind them: the first missing
    # class or bag is found without a list over the whole range. The
    # child's address space is capped, so a regression fails with a
    # MemoryError there instead of exhausting the memory of the host.
    def capped():
        cap = 1 << 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for name, text, message in (
        ("huge-k.fk", "p fkdiv 1 0 100000000\n", "no profits for class 1"),
        ("huge-t.fk", "p fkdiv 1 0 1\nw 1 5\nt 100000000 1\n", "no bag for decomposition node 1"),
    ):
        path = tmp_path / name
        path.write_text(text)
        res = run_cli("solve", "--input", str(path), preexec_fn=capped)
        assert res.returncode == 2, (name, res.stderr)
        assert res.stderr == f"error: {message}\n"


def test_cli_no_algorithm_exit_3(tmp_path):
    five_cycle = (
        "p fkdiv 5 5 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
        "w 1 1 1 1 1 1\nw 2 1 1 1 1 1\n"
    )
    inst = tmp_path / "c5.fk"
    inst.write_text(five_cycle)
    for algo in ("chordal", "cocomp", "biconvex"):
        res = run_cli("solve", "--input", str(inst), "--algo", algo)
        assert res.returncode == 3, (algo, res.stderr)


def test_cli_budget_exit_4(tmp_path):
    inst = tmp_path / "ok.fk"
    inst.write_text(GOOD)
    res = run_cli(
        "solve", "--input", str(inst), "--algo", "bruteforce", "--budget", "10"
    )
    assert res.returncode == 4


def test_cli_auto_uses_treewidth_on_plain_graphs(tmp_path):
    five_cycle = (
        "p fkdiv 5 5 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
        "w 1 2 3 4 5 6\nw 2 6 5 4 3 2\n"
    )
    inst = tmp_path / "c5.fk"
    inst.write_text(five_cycle)
    res = run_cli("solve", "--input", str(inst), "--no-timing")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["algorithm"] == "treewidth"
    parsed = parse_instance(five_cycle)
    assert report["value"] == brute_force(parsed.instance).optimum


def test_cli_threads_flag_is_deterministic(tmp_path):
    inst = tmp_path / "inst.fk"
    gen = run_cli(
        "gen", "--family", "random", "--n", "7", "--k", "2",
        "--max-profit", "8", "--seed", "3", "--out", str(inst),
    )
    assert gen.returncode == 0
    outs = []
    for threads in ("1", "2", "4"):
        res = run_cli(
            "solve", "--input", str(inst), "--threads", threads, "--no-timing"
        )
        assert res.returncode == 0
        outs.append(res.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_cli_emit_profiles_matches_oracle(tmp_path):
    inst_file = tmp_path / "inst.fk"
    inst_file.write_text(GOOD)
    out_file = tmp_path / "profiles.json"
    res = run_cli(
        "solve", "--input", str(inst_file), "--emit-profiles", str(out_file),
        "--no-timing",
    )
    assert res.returncode == 0
    payload = json.loads(out_file.read_text())
    got = {tuple(row) for row in payload["profiles"]}
    want = set(brute_force(parse_instance(GOOD).instance).profiles)
    assert got == want
    assert payload["count"] == len(want)
    report = json.loads(res.stdout)
    assert report["profileCount"] == len(want)


def test_cli_epsilon_reports_approximation(tmp_path):
    inst_file = tmp_path / "inst.fk"
    inst_file.write_text(GOOD)
    res = run_cli(
        "solve", "--input", str(inst_file), "--epsilon", "0.5", "--no-timing"
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["epsilon"] == "0.5"
    opt = brute_force(parse_instance(GOOD).instance).optimum
    assert report["value"] * 3 >= opt * 2
    assert report["value"] <= opt


def test_cli_gen_rejects_bad_parameters(tmp_path):
    res = run_cli(
        "gen", "--family", "clique-reduction", "--n", "4", "--k", "2",
        "--max-profit", "5", "--seed", "0",
        "--out", str(tmp_path / "x.fk"),
    )
    assert res.returncode == 2


def test_cli_gen_unknown_family_exits_2_and_lists_families(tmp_path):
    out = tmp_path / "x.fk"
    res = run_cli("gen", "--family", "nosuch", "--n", "4", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == "" and "Traceback" not in res.stderr
    for family in FAMILIES:
        assert repr(family) in res.stderr
    assert not out.exists()


def test_cli_tiny_epsilon_exits_2(tmp_path):
    inst = tmp_path / "perm.fk"
    gen = run_cli(
        "gen", "--family", "permutation", "--n", "8", "--k", "2",
        "--max-profit", "10", "--seed", "0", "--out", str(inst),
    )
    assert gen.returncode == 0
    res = run_cli("solve", "--input", str(inst), "--epsilon", "1e-8", timeout=10)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def test_cli_solve_non_utf8_input_exit_2(tmp_path):
    inst = tmp_path / "bad.fk"
    inst.write_bytes(GOOD.encode() + b"c \xff\n")
    res = run_cli("solve", "--input", str(inst))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def test_cli_verify_non_utf8_files_exit_2(tmp_path):
    good, bad = tmp_path / "ok.fk", tmp_path / "bad.fk"
    good.write_text(GOOD)
    bad.write_bytes(b"\xff" + GOOD.encode())
    report = tmp_path / "report.json"
    assert run_cli("solve", "--input", str(good), "--report", str(report)).returncode == 0
    bad_report = tmp_path / "bad.json"
    bad_report.write_bytes(b"\xff" + report.read_bytes())
    for inst, rep in ((bad, report), (good, bad_report)):
        res = run_cli("verify", "--input", str(inst), "--report", str(rep))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def test_cli_negative_budget_exit_2(tmp_path):
    inst = tmp_path / "ok.fk"
    inst.write_text(GOOD)
    res = run_cli("solve", "--input", str(inst), "--budget", "-5")
    assert res.returncode == 2
    assert "--budget" in res.stderr and "Traceback" not in res.stderr


def write_family(tmp_path, family, n, seed):
    path = tmp_path / f"{family}-{n}-{seed}.fk"
    path.write_text(serialize_instance(build_family(family, n, 2, 5, seed)))
    return path


def solve_in_process(capsys, path, *args):
    code = cli.main(["solve", "--input", str(path), "--no-timing", *args])
    return code, capsys.readouterr().out


# Modules that no solve below runs, nor needs to load.
NOT_LOADED_BY_SOLVE = (
    "dataclasses",
    "inspect",
    "fkdiv.biconvex",
    "fkdiv.bipartite",
    "fkdiv.oracle",
    "fkdiv.generators",
)
FPTAS_MODULES = ("fkdiv.fptas", "fkdiv.rounding", "fractions")


@pytest.mark.parametrize(
    "family,extra,algo,home,skipped",
    [
        ("permutation", (), "cocomp", "fkdiv.cocomp", ("fkdiv.treedp", "decimal", *FPTAS_MODULES)),
        ("permutation", ("--epsilon", "1/2"), "cocomp", "fkdiv.fptas", ("fkdiv.treedp",)),
        ("interval", (), "chordal", "fkdiv.treedp", FPTAS_MODULES),
    ],
    ids=["exact", "epsilon", "chordal"],
)
def test_cli_solve_loads_only_its_route(tmp_path, family, extra, algo, home, skipped):
    path = write_family(tmp_path, family, 10, 0)
    dump = tmp_path / "modules.txt"
    code = (
        "import atexit, sys\n"
        f"atexit.register(lambda: open({str(dump)!r}, 'w').write('\\n'.join(sys.modules)))\n"
        "from fkdiv.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    # -S keeps the environment's site hooks out of the module list.
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, "solve", "--input", str(path), "--no-timing", *extra],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(fkdiv.__file__).resolve().parents[1])},
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["algorithm"] == algo
    loaded = set(dump.read_text().split("\n"))
    assert home in loaded
    not_loaded = {*NOT_LOADED_BY_SOLVE, *skipped}
    assert loaded.isdisjoint(not_loaded), loaded & not_loaded


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize(
    "family,n,seed,extra,solve_spans",
    [
        ("permutation", 10, 0, (), {"solve.cocomp"}),
        ("interval", 10, 0, (), {"solve.chordal"}),
        ("random", 12, 3, (), {"solve.treewidth"}),
        ("permutation", 10, 0, ("--epsilon", "1/2"), {"fptas.solve_approx", "solve.cocomp"}),
    ],
    ids=["cocomp", "chordal", "treewidth", "epsilon"],
)
def test_traced_solve_keeps_its_spans(tmp_path, family, n, seed, extra, solve_spans):
    # The benchmark's tracer wraps the solvers on fkdiv.cli, where the
    # planner reads them; a route that binds them elsewhere loses its spans.
    path = write_family(tmp_path, family, n, seed)
    argv = ["solve", "--input", str(path), "--no-timing", *extra]
    trace = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(TRACER), "--out", str(trace), "--mode", "traced", "--", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(fkdiv.__file__).resolve().parents[1])},
    )
    assert res.returncode == 0, res.stderr
    plain = run_cli(*argv)
    assert plain.returncode == 0 and res.stdout == plain.stdout
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {name for name in names if name.startswith(("solve.", "fptas."))} == solve_spans


# (family, n, seed, algorithm auto picks, recognizer runs in one solve).
# MCS runs on every instance: the chordal check comes first.
PLANNER_CASES = [
    ("permutation", 10, 0, "cocomp", {"mcs": 1, "orientation": 1, "minfill": 0}),
    ("interval", 10, 0, "chordal", {"mcs": 1, "orientation": 0, "minfill": 0}),
    ("random", 12, 3, "treewidth", {"mcs": 1, "orientation": 1, "minfill": 1}),
]


@pytest.mark.parametrize("family,n,seed,algo,runs", PLANNER_CASES)
def test_cli_auto_recognizes_each_structure_once(
    tmp_path, capsys, monkeypatch, family, n, seed, algo, runs
):
    calls = dict.fromkeys(runs, 0)

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    count(decomposition, "mcs_order", "mcs")
    count(orientation, "transitive_orientation", "orientation")
    count(cli, "minfill_decomposition", "minfill")
    count(treedp, "minfill_decomposition", "minfill")
    code, out = solve_in_process(capsys, write_family(tmp_path, family, n, seed))
    assert code == 0
    assert json.loads(out)["algorithm"] == algo
    assert calls == runs


@pytest.mark.parametrize(
    "family,n,seed,algo,extra",
    [case[:4] + ((),) for case in PLANNER_CASES]
    + [("permutation", 10, 0, "cocomp", ("--epsilon", "1/2"))],
)
def test_cli_auto_report_equals_forced_algorithm(
    tmp_path, capsys, family, n, seed, algo, extra
):
    path = write_family(tmp_path, family, n, seed)
    auto = solve_in_process(capsys, path, *extra)
    forced = solve_in_process(capsys, path, "--algo", algo, *extra)
    assert auto[0] == 0 and json.loads(auto[1])["algorithm"] == algo
    assert auto == forced


@pytest.mark.parametrize(
    "algo,family",
    [("cocomp", "permutation"), ("chordal", "interval"), ("treewidth", "random"), ("biconvex", "biconvex")],
)
def test_cli_forced_epsilon_solve_verifies_and_repeats(tmp_path, algo, family):
    path = write_family(tmp_path, family, 12, 1)
    report = tmp_path / "report.json"
    outs = []
    for hash_seed in ("0", "1"):
        res = run_cli(
            "solve", "--input", str(path), "--algo", algo, "--epsilon", "1/2",
            "--no-timing", "--report", str(report),
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert res.returncode == 0 and res.stderr == ""
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["algorithm"] == algo
    verify = run_cli("verify", "--input", str(path), "--report", str(report))
    assert verify.returncode == 0 and verify.stdout == "ok\n"


def test_cli_forced_treewidth_ignores_the_cell_limit(tmp_path, capsys):
    # Dense random n=16: min-fill width 12, so 3^13 bag colorings exceed the limit.
    path = write_family(tmp_path, "random", 16, 2)
    code, out = solve_in_process(capsys, path, "--budget", "1000")
    assert code == 3 and out == ""
    code, out = solve_in_process(capsys, path, "--budget", "1000", "--algo", "treewidth")
    assert code == 0
    assert json.loads(out)["algorithm"] == "treewidth"


def clique_plus_c5(b):
    """K_b on 0..b-1 beside a 5-cycle, k=2: neither chordal nor
    cocomparability, and min-fill eliminates a clique vertex first, so
    its width is b-1."""
    edges = [(u, v) for u in range(b) for v in range(u + 1, b)]
    edges += [(b + i, b + (i + 1) % 5) for i in range(5)]
    graph = Graph(b + 5, edges)
    return ParsedInstance(Instance(graph, [[1] * graph.n, [2] * graph.n]))


def test_auto_cell_limit_boundary_on_clique_bags(tmp_path, capsys):
    # 3^10 = 59049 bag colorings fit MINFILL_CELL_LIMIT = 10^5; 3^11 do not.
    assert cli._auto_algorithm(clique_plus_c5(10), "auto", 1000, True)[0] == "treewidth"
    parsed = clique_plus_c5(11)
    with pytest.raises(NoApplicableAlgorithmError):
        cli._auto_algorithm(parsed, "auto", 1000, True)
    assert cli._auto_algorithm(parsed, "treewidth", 1000, True)[0] == "treewidth"
    path = tmp_path / "k11c5.fk"
    path.write_text(serialize_instance(parsed))
    code, out = solve_in_process(capsys, path, "--budget", "1000")
    assert code == 3 and out == ""


def test_auto_rejects_dense_graph_after_one_elimination_at_most(
    tmp_path, capsys, monkeypatch
):
    parsed = build_family("random", 120, 2, 9, 0)
    graph = parsed.graph
    assert graph.m >= 0.5 * graph.n * (graph.n - 1) / 2
    steps = []  # one min-fill pick per elimination step
    pick = decomposition._min_fill_vertex

    def counted(live, alive):
        steps.append(len(alive))
        return pick(live, alive)

    monkeypatch.setattr(decomposition, "_min_fill_vertex", counted)
    # k=2: 3^10 <= MINFILL_CELL_LIMIT < 3^11, so auto's bag bound is 10.
    assert decomposition.minfill_decomposition(graph, max_bag=10) is None
    assert len(steps) <= 1
    steps.clear()
    path = tmp_path / "dense.fk"
    path.write_text(serialize_instance(parsed))
    code, out = solve_in_process(capsys, path)
    assert code == 3 and out == ""
    assert len(steps) <= 1
