"""Instance file format and the solve report.

Text format, one record per line, '#' starts a comment anywhere:

    p fkdiv <n> <m> <k>      header, must come first
    e <u> <v>                conflict edge, 1-based vertex ids, m lines
    w <j> <p1> ... <pn>      profits of class j (1-based), one line per class
    c class <name>           optional declared graph family
    o A <ids...>             optional biconvex ordering, both lines or none
    o B <ids...>
    t <count> <root>         optional tree decomposition header
    b <node> <ids...>        bag of node (1-based node ids), count lines
    a <parent> <child>       decomposition tree edge, count-1 lines

Everything outside this grammar is rejected with the offending line
number. Vertices are translated to 0-based on parse and back on write;
serialization is canonical, so write(parse(write(x))) == write(x).
"""

from __future__ import annotations

import json
from collections import defaultdict, namedtuple

from .errors import DimensionMismatchError, ParseError
from .graphs import Graph, Instance, iter_bits
from .profiles import check_coloring, profile_of


class ParsedInstance(
    namedtuple(
        "ParsedInstance",
        "instance declared_class order_a order_b decomposition decomposition_root",
        defaults=(None,) * 5,
    )
):
    """An Instance plus what its file declared: the class name, the two
    biconvex orderings, and a tree decomposition with its root bag."""

    __slots__ = ()

    @property
    def graph(self) -> Graph:
        return self.instance.graph


def _ints(parts, lineno, what):
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(f"expected integer {what}, got {p!r}", lineno) from None
    return out


def _vertex(x: int, n: int, lineno) -> int:
    if not (1 <= x <= n):
        raise ParseError(f"vertex id {x} outside 1..{n}", lineno)
    return x - 1


def _first_gap(ids, count: int):
    """Smallest of 1..count that `ids`, distinct ids in that range, lacks,
    or None. It tries at most len(ids) + 1 ids, however large `count` is."""
    if len(ids) == count:
        return None
    return next(i for i in range(1, count + 1) if i not in ids)


def parse_instance(text: str) -> ParsedInstance:
    header = None
    masks = None  # adjacency masks, set as 'e' lines are read
    edge_count = 0
    profit_rows: dict = {}
    declared = None
    orders: dict = {}  # side "A" or "B" -> vertex ids
    td_header = None
    bags: dict = {}
    tree_edges = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        tag = parts[0]
        if header is None:
            if tag != "p":
                raise ParseError("first record must be the 'p fkdiv' header", lineno)
            if len(parts) != 5 or parts[1] != "fkdiv":
                raise ParseError("header must be 'p fkdiv <n> <m> <k>'", lineno)
            n, m, k = _ints(parts[2:], lineno, "in header")
            if n < 1:
                raise ParseError("need at least one vertex", lineno)
            if m < 0 or k < 1:
                raise ParseError("need m >= 0 and k >= 1", lineno)
            header = (n, m, k)
            # A file that parses lists n profits per class, so n <= len(text);
            # a larger n is an error still to be found, and gets no n masks.
            masks = [0] * n if n <= len(text) else defaultdict(int)
            continue
        n, m, k = header
        if tag == "p":
            raise ParseError("duplicate header", lineno)
        elif tag == "e":
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                _ints(parts[1:], lineno, "vertex id")  # raises, naming the bad id
                raise
            if not (0 <= u < n and 0 <= v < n):
                _vertex(u + 1, n, lineno)
                _vertex(v + 1, n, lineno)  # one of them raises
            if u == v:
                raise ParseError("self-loops are not allowed", lineno)
            if masks[u] >> v & 1:
                raise ParseError(f"duplicate edge {parts[1]} {parts[2]}", lineno)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            edge_count += 1
        elif tag == "w":
            values = _ints(parts[1:], lineno, "profit")
            if not values:
                raise ParseError("profit line needs a class id", lineno)
            j, row = values[0], values[1:]
            if not (1 <= j <= k):
                raise ParseError(f"class id {j} outside 1..{k}", lineno)
            if j in profit_rows:
                raise ParseError(f"duplicate profits for class {j}", lineno)
            if len(row) != n:
                raise DimensionMismatchError(
                    f"class {j} has {len(row)} profits, expected {n}", lineno
                )
            if any(p < 0 for p in row):
                raise ParseError("profits must be nonnegative", lineno)
            profit_rows[j] = row
        elif tag == "c":
            if len(parts) != 3 or parts[1] != "class":
                raise ParseError("class line must be 'c class <name>'", lineno)
            if declared is not None:
                raise ParseError("duplicate class declaration", lineno)
            declared = parts[2]
        elif tag == "o":
            if len(parts) < 2 or parts[1] not in ("A", "B"):
                raise ParseError("ordering line must be 'o A ...' or 'o B ...'", lineno)
            ids = tuple(
                _vertex(x, n, lineno) for x in _ints(parts[2:], lineno, "vertex id")
            )
            if parts[1] in orders:
                raise ParseError(f"duplicate 'o {parts[1]}' line", lineno)
            orders[parts[1]] = ids
        elif tag == "t":
            if len(parts) != 3:
                raise ParseError("decomposition header must be 't <count> <root>'", lineno)
            count, root = _ints(parts[1:], lineno, "in decomposition header")
            if count < 1:
                raise ParseError("decomposition needs at least one node", lineno)
            if not (1 <= root <= count):
                raise ParseError(f"root {root} outside 1..{count}", lineno)
            if td_header is not None:
                raise ParseError("duplicate decomposition header", lineno)
            td_header = (count, root)
        elif tag == "b":
            if td_header is None:
                raise ParseError("'b' line before 't' header", lineno)
            values = _ints(parts[1:], lineno, "in bag line")
            if not values:
                raise ParseError("bag line needs a node id", lineno)
            node, contents = values[0], values[1:]
            if not (1 <= node <= td_header[0]):
                raise ParseError(f"bag node {node} outside 1..{td_header[0]}", lineno)
            if node in bags:
                raise ParseError(f"duplicate bag for node {node}", lineno)
            bags[node] = frozenset(_vertex(x, n, lineno) for x in contents)
        elif tag == "a":
            if td_header is None:
                raise ParseError("'a' line before 't' header", lineno)
            if len(parts) != 3:
                raise ParseError("tree edge must be 'a <parent> <child>'", lineno)
            x, y = _ints(parts[1:], lineno, "node id")
            for z in (x, y):
                if not (1 <= z <= td_header[0]):
                    raise ParseError(f"node {z} outside 1..{td_header[0]}", lineno)
            tree_edges.append((x - 1, y - 1))
        else:
            raise ParseError(f"unknown record type {tag!r}", lineno)

    if header is None:
        raise ParseError("empty input, expected 'p fkdiv <n> <m> <k>'")
    n, m, k = header
    if edge_count != m:
        raise DimensionMismatchError(f"header promises {m} edges, found {edge_count}")
    missing = _first_gap(profit_rows, k)
    if missing is not None:
        raise DimensionMismatchError(f"no profits for class {missing}")
    if len(orders) == 1:
        raise ParseError("orderings need both an 'o A' and an 'o B' line")

    decomposition = None
    root0 = None
    if td_header is not None:
        from .decomposition import TreeDecomposition

        count, root = td_header
        absent = _first_gap(bags, count)
        if absent is not None:
            raise DimensionMismatchError(f"no bag for decomposition node {absent}")
        if len(tree_edges) != count - 1:
            raise DimensionMismatchError(
                f"decomposition has {len(tree_edges)} tree edges, expected {count - 1}"
            )
        decomposition = TreeDecomposition(
            bags=tuple(bags[i] for i in range(1, count + 1)),
            edges=tuple(tree_edges),
        )
        root0 = root - 1

    graph = Graph._from_masks(masks)
    instance = Instance(graph, [profit_rows[j] for j in range(1, k + 1)])
    return ParsedInstance(
        instance=instance,
        declared_class=declared,
        order_a=orders.get("A"),
        order_b=orders.get("B"),
        decomposition=decomposition,
        decomposition_root=root0,
    )


def serialize_instance(parsed: ParsedInstance) -> str:
    """Canonical text for a parsed instance; inverse of parse_instance."""
    inst = parsed.instance
    n, k = inst.n, inst.k
    lines = [f"p fkdiv {n} {inst.graph.m} {k}"]
    for u, mask in enumerate(inst.graph.masks):  # edges (u, v) with v > u, ascending
        lines += (f"e {u + 1} {v + 1}" for v in iter_bits(mask >> u << u))
    for j in range(k):
        row = " ".join(str(p) for p in inst.profits[j])
        lines.append(f"w {j + 1} {row}")
    if parsed.declared_class is not None:
        lines.append(f"c class {parsed.declared_class}")
    if parsed.order_a is not None:
        lines.append(("o A " + " ".join(str(v + 1) for v in parsed.order_a)).rstrip())
        lines.append(("o B " + " ".join(str(v + 1) for v in parsed.order_b)).rstrip())
    if parsed.decomposition is not None:
        td = parsed.decomposition
        root = 0 if parsed.decomposition_root is None else parsed.decomposition_root
        lines.append(f"t {td.size} {root + 1}")
        for i, bag in enumerate(td.bags):
            contents = " ".join(str(v + 1) for v in sorted(bag))
            lines.append(f"b {i + 1} {contents}".rstrip())
        for x, y in sorted(td.edges):
            lines.append(f"a {x + 1} {y + 1}")
    return "\n".join(lines) + "\n"


REPORT_KEYS = (
    "value",
    "coloring",
    "profile",
    "algorithm",
    "epsilon",
    "elapsedMillis",
    "profileCount",
)


def build_report(
    value: int,
    coloring,
    profile,
    algorithm: str,
    epsilon: str | None,
    elapsed_millis: int,
    profile_count: int | None,
) -> dict:
    """Report dict, keyed by REPORT_KEYS in their order, which is the
    order of the parameters and of the serialized output.

    coloring is the witness as k vertex tuples (0-based); the report
    stores it as an n-array of class numbers, 0 for uncolored, aligned
    so entry i describes vertex i+1 of the file format.
    """
    values = (
        value, list(coloring), list(profile), algorithm, epsilon, elapsed_millis, profile_count
    )
    return dict(zip(REPORT_KEYS, values, strict=True))


def coloring_array(witness, n: int) -> list:
    """Witness classes to the report's per-vertex class array."""
    out = [0] * n
    for j, cls in enumerate(witness, start=1):
        for v in cls:
            out[v] = j
    return out


def witness_from_array(arr, k: int) -> tuple:
    return tuple(
        tuple(v for v, c in enumerate(arr) if c == j) for j in range(1, k + 1)
    )


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _is_int(x) -> bool:
    """A JSON integer; true and false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def validate_report(report: dict, parsed: ParsedInstance) -> None:
    """Raise ValueError unless the report is internally consistent with
    the instance: well-formed keys, a valid coloring, and value/profile
    recomputable from it."""
    if not isinstance(report, dict):
        raise ValueError(f"report must be a JSON object, got {type(report).__name__}")
    if list(report.keys()) != list(REPORT_KEYS):
        raise ValueError(
            f"report keys must be {list(REPORT_KEYS)}, got {list(report.keys())}"
        )
    inst = parsed.instance
    n, k = inst.n, inst.k
    arr = report["coloring"]
    if not isinstance(arr, list) or len(arr) != n:
        raise ValueError(f"coloring must list all {n} vertices")
    if any(not _is_int(c) or not (0 <= c <= k) for c in arr):
        raise ValueError(f"coloring entries must be integers in 0..{k}")
    witness = witness_from_array(arr, k)
    try:
        check_coloring(inst.graph, witness)
    except ValueError as exc:
        raise ValueError(f"coloring is infeasible: {exc}") from None
    profile = profile_of(inst, witness)
    if list(profile) != report["profile"] or not all(map(_is_int, report["profile"])):
        raise ValueError(
            f"profile {report['profile']} does not match coloring, expected {list(profile)}"
        )
    if not _is_int(report["value"]) or report["value"] != min(profile):
        raise ValueError(
            f"value {report['value']} does not match profile minimum {min(profile)}"
        )
    if not isinstance(report["algorithm"], str) or not report["algorithm"]:
        raise ValueError("algorithm must be a nonempty string")
    eps = report["epsilon"]
    if eps is not None and not isinstance(eps, str):
        raise ValueError("epsilon must be null or a string")
    if not _is_int(report["elapsedMillis"]) or report["elapsedMillis"] < 0:
        raise ValueError("elapsedMillis must be a nonnegative integer")
    pc = report["profileCount"]
    if pc is not None and (not _is_int(pc) or pc < 1):
        raise ValueError("profileCount must be null or a positive integer")


def profiles_payload(profiles) -> dict:
    rows = [list(p) for p in profiles]
    return {"count": len(rows), "profiles": rows}


def render_profiles(profiles) -> str:
    return json.dumps(profiles_payload(profiles), indent=2) + "\n"
