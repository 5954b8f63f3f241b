"""The lazy package namespace and the immutable records."""

import subprocess
import sys
from pathlib import Path

import pytest

import fkdiv
from fkdiv.decomposition import NiceNode, NiceTreeDecomposition, TreeDecomposition
from fkdiv.fptas import FptasResult
from fkdiv.generators import CliqueReductionParams
from fkdiv.instance_io import ParsedInstance
from fkdiv.oracle import OracleResult

SRC = str(Path(fkdiv.__file__).resolve().parents[1])


def test_every_public_name_is_its_home_modules_object():
    for name in fkdiv.__all__:
        if name == "__version__":
            continue
        obj = getattr(fkdiv, name)
        assert obj.__module__.startswith("fkdiv."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(fkdiv.__all__) <= set(dir(fkdiv))
    assert fkdiv.__version__ == "0.1.0"


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        getattr(fkdiv, "nosuch")
    assert not hasattr(fkdiv, "mcs_order")


def test_chordal_peo_is_one_object():
    # It lives in graphs, and decomposition keeps it importable from there.
    from fkdiv import decomposition, graphs

    assert fkdiv.chordal_peo is graphs.chordal_peo is decomposition.chordal_peo
    assert decomposition.mcs_order is graphs.mcs_order


def test_star_import_binds_all():
    namespace = {}
    exec("from fkdiv import *", namespace)
    for name in fkdiv.__all__:
        assert namespace[name] is getattr(fkdiv, name)


def test_import_fkdiv_loads_no_submodule():
    code = "import sys, fkdiv; print(sorted(m for m in sys.modules if m.startswith('fkdiv')))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['fkdiv']\n"


# Each record with its fields, in order.
RECORDS = [
    (TreeDecomposition, ("bags", "edges")),
    (NiceNode, ("kind", "bag", "children", "vertex")),
    (NiceTreeDecomposition, ("nodes", "root")),
    (
        ParsedInstance,
        (
            "instance",
            "declared_class",
            "order_a",
            "order_b",
            "decomposition",
            "decomposition_root",
        ),
    ),
    (FptasResult, ("value", "profile", "witness", "epsilon", "grid", "states")),
    (OracleResult, ("optimum", "witness", "profiles")),
    (
        CliqueReductionParams,
        (
            "source_n",
            "source_m",
            "ell",
            "k",
            "threshold",
            "anchor_profit",
            "blocker_profit",
            "vertex_items",
            "edge_items",
            "anchor_item",
            "blocker_items",
        ),
    ),
]


@pytest.mark.parametrize("record,fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_records_are_immutable_values(record, fields):
    values = {field: (i, field) for i, field in enumerate(fields)}
    obj = record(**values)
    assert tuple(getattr(obj, field) for field in fields) == tuple(values.values())
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.extra = None
    twin = record(**values)
    assert twin == obj and hash(twin) == hash(obj)
    other = record(**{**values, fields[0]: "other"})
    assert other != obj


def test_record_defaults():
    parsed = ParsedInstance(instance="inst")
    assert parsed.instance == "inst"
    assert parsed.declared_class is None
    assert parsed.order_a is None and parsed.order_b is None
    assert parsed.decomposition is None and parsed.decomposition_root is None
    assert NiceNode("leaf", (), ()).vertex is None
    assert NiceNode("forget", (1,), (0,), 2).vertex == 2
