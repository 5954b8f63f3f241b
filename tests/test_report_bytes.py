"""Solve reports pinned byte for byte on every route.

Each case writes a small generated instance, runs `fkdiv solve
--no-timing` in-process and compares the sha256 of its stdout, followed
by the `--emit-profiles` file where one is asked for, with the digest
recorded when the case was added. A change to any route's output, its
witness choice or its profile set moves a digest.
"""

import hashlib

import pytest

from fkdiv import cli
from fkdiv.generators import build_family
from fkdiv.instance_io import serialize_instance

# family, n, k, max_profit, seed, solve options, algorithm, digest
CASES = [
    (
        "interval", 9, 2, 9, 0, (), "chordal",
        "09757f053571e35fc8ef8b4e5b858635a0f8113592415bdbe198d8461e949866",
    ),
    (
        "chordal", 9, 3, 5, 1, (), "chordal",
        "790e487a16e19ca9af2fd5235fb11c843daff784fe421b92a061feecae004745",
    ),
    (
        "permutation", 10, 2, 20, 0, (), "cocomp",
        "b851d72c22c347e3915acb1ec2451df47c72c1b38579fb4c731f8e4c03752ed2",
    ),
    (
        "permutation", 8, 3, 5, 1, (), "cocomp",
        "368ba9a7412a4f54ea8a7be7d700aaecf021fc94e833fe70c31683e9d0f7e59b",
    ),
    (
        "random", 9, 2, 9, 0, ("--algo", "treewidth"), "treewidth",
        "d2fae0342be88246c57b33c3caf1f3e05eb234572dcdf49e857c7d0877f433ce",
    ),
    (
        "random", 6, 2, 9, 1, ("--algo", "bruteforce"), "bruteforce",
        "dae288a45da92760c648e33811a67f8f82af3dcc91d81a8cbb6e52cbcc6bd9b6",
    ),
    (
        "biconvex", 9, 2, 9, 0, ("--algo", "biconvex"), "biconvex",
        "891b975ce005722bbe744452257396cbf38ab885553b371a144c071715d6cd59",
    ),
    (
        "edgeless", 5, 2, 9, 0, ("--algo", "biconvex"), "biconvex",
        "d9bf8da6ec5fa8677d65625ce08c21bfd96dc03b5d1a9fffe9f9cef8af658086",
    ),
    (
        "biconvex", 8, 2, 9, 2, ("--algo", "biconvex", "--no-prune"), "biconvex",
        "8f2938d9218dc82f7d43abcf89109fcafcfc94f17ec600c850ec858afa40a33e",
    ),
    (
        "biconvex", 7, 2, 9, 1, ("--algo", "biconvex", "--epsilon", "1"), "biconvex",
        "f9dfee8a45fdac9d83575854b056c202391d32876c1be7e5e73cf8e110fc411f",
    ),
    (
        "permutation", 12, 2, 400, 0, ("--epsilon", "1/2"), "cocomp",
        "46885162f2dd058d0943ac34805824518da778d962e10c7e6191845c130a6f4a",
    ),
    (
        "interval", 9, 2, 50, 0, ("--epsilon", "1"), "chordal",
        "0c3961559fa50ab727ed14f03461e732db13062c0ed191bb804fae023f9d7284",
    ),
    (
        "random", 8, 2, 50, 0, ("--algo", "treewidth", "--epsilon", "1/2"), "treewidth",
        "2ee1ebe0c8f720720fd3bd64e2c0d9e57cfe332d2837b49f5699736ab7ae85f6",
    ),
    (
        "permutation", 9, 2, 9, 1, ("--no-prune",), "cocomp",
        "e3756d8c7cd2848ad3398320840c25d0a7dbc531dab3a465ff4db48d7cb628c0",
    ),
    (
        "interval", 8, 2, 9, 0, ("--emit-profiles",), "chordal",
        "843439da33bd522715ceb586498417c007dde2bfc42ed6b67c044b1ff7c78bd3",
    ),
    (
        "permutation", 8, 2, 9, 2, ("--emit-profiles",), "cocomp",
        "1a52ec0bed641fd3208bf061d206200b5c9d6c8b1a6ea4757691d8ba5aa6b1d7",
    ),
    (
        "random", 5, 2, 5, 0, ("--algo", "bruteforce", "--emit-profiles"), "bruteforce",
        "c05731e79742bf8be0565628d0b6c08db99093a6b8ec6ad52fcbd598b9876e7c",
    ),
]


def solve_bytes(tmp_path, capsys, family, n, k, max_profit, seed, options) -> bytes:
    """stdout of one in-process solve, then the emitted profiles if any."""
    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(build_family(family, n, k, max_profit, seed)))
    emit = tmp_path / "profiles.json"
    argv = ["solve", "--input", str(path), "--no-timing"]
    for option in options:
        argv.append(option)
        if option == "--emit-profiles":
            argv.append(str(emit))
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return (out + (emit.read_text() if emit.exists() else "")).encode()


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c[0]}-n{c[1]}-k{c[2]}-s{c[4]}{''.join(c[5])}" for c in CASES]
)
def test_report_bytes_are_pinned(tmp_path, capsys, case):
    *params, algorithm, digest = case
    data = solve_bytes(tmp_path, capsys, *params)
    assert f'"algorithm": "{algorithm}"' in data.decode()
    assert hashlib.sha256(data).hexdigest() == digest
