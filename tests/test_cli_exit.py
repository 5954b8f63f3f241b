"""`python -m fkdiv.cli` ends through `cli.run`, which flushes the output
and skips interpreter teardown. What the process prints and returns must
stay what in-process `main` gives."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fkdiv
from fkdiv import cli
from fkdiv.generators import build_family
from fkdiv.instance_io import serialize_instance

SRC = str(Path(fkdiv.__file__).resolve().parents[1])

GOOD = "p fkdiv 4 3 2\ne 1 2\ne 2 3\ne 3 4\nw 1 5 1 4 2\nw 2 3 3 0 6\n"


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child(argv):
    res = subprocess.run(
        [sys.executable, "-m", "fkdiv.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return res.returncode, res.stdout, res.stderr


@pytest.fixture
def files(tmp_path, monkeypatch):
    # argparse wraps help text to the terminal width; pin it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    good = tmp_path / "good.fk"
    good.write_text(GOOD)
    dense = tmp_path / "dense.fk"  # min-fill width 12: no structured route
    dense.write_text(serialize_instance(build_family("random", 16, 2, 5, 2)))
    report = tmp_path / "report.json"
    cli.main(["solve", "--input", str(good), "--no-timing", "--report", str(report)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(report.read_text()), "value": 99}))
    return {
        "good": good,
        "dense": dense,
        "report": report,
        "bad": bad,
        "missing": tmp_path / "nope.fk",
    }


CASES = {
    "solve": (0, ["solve", "--input", "good", "--no-timing"]),
    "verify-invalid": (1, ["verify", "--input", "good", "--report", "bad"]),
    "unreadable": (2, ["solve", "--input", "missing"]),
    "no-route": (3, ["solve", "--input", "dense", "--budget", "1000"]),
    "help": (0, ["--help"]),
}


@pytest.mark.parametrize("case", CASES)
def test_process_matches_in_process_main(files, case):
    code, argv = CASES[case]
    argv = [str(files.get(arg, arg)) for arg in argv]
    expected = in_process(argv)
    assert expected[0] == code
    assert child(argv) == expected


def test_process_writes_the_same_report_file(files, tmp_path):
    argv = ["solve", "--input", str(files["good"]), "--no-timing", "--report"]
    expected = in_process([*argv, str(tmp_path / "in.json")])
    assert child([*argv, str(tmp_path / "out.json")]) == expected
    assert (tmp_path / "out.json").read_text() == (tmp_path / "in.json").read_text()
    assert expected[1] == (tmp_path / "in.json").read_text()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_keeps_its_exit(files, unbuffered):
    # A buffered report meets the closed pipe at the final flush, which
    # leaves the exit to sys.exit: Python reports the flush it cannot
    # finish and exits 120. Unbuffered, the write itself fails inside
    # main, an OSError that exits 2.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "fkdiv.cli", "solve", "--input", str(files["good"])],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)
    if unbuffered:
        assert (res.returncode, res.stderr) == (2, "error: [Errno 32] Broken pipe\n")
    else:
        assert res.returncode == 120
        assert res.stderr.startswith("Exception ignored")
        assert res.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


def test_closed_stdout_descriptor_keeps_verify_exit(files):
    # With descriptor 1 closed, sys.stdout is None and print writes nothing.
    argv = ["verify", "--input", str(files["good"]), "--report", str(files["report"])]
    res = subprocess.run(
        [sys.executable, "-m", "fkdiv.cli", *argv],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: os.close(1),
    )
    assert (res.returncode, res.stderr) == (0, "")


def test_run_skips_teardown_but_not_output(files):
    code = (
        "import atexit, sys\n"
        "atexit.register(print, 'teardown')\n"
        "from fkdiv.cli import run\n"
        "sys.argv[1:] = ['solve', '--input', sys.argv[1], '--no-timing']\n"
        "run()\n"
    )
    # Buffered stdout: the report reaches the pipe only through run's flush.
    res = subprocess.run(
        [sys.executable, "-c", code, str(files["good"])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": ""},
    )
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == in_process(["solve", "--input", str(files["good"]), "--no-timing"])[1]
