"""The parser against a frozen copy of the one that checked every edge
line twice: once while reading it, and again when Graph(n, edges) built
the graph. On valid files and on files with bad integers, out-of-range
ids, self-loops, duplicate edges, wrong counts, comments and stray
whitespace, both give an equal ParsedInstance, or the same exception
type, message and line number."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fkdiv.decomposition import TreeDecomposition
from fkdiv.errors import DimensionMismatchError, ParseError
from fkdiv.generators import FAMILIES, build_family
from fkdiv.graphs import Graph, Instance, canonical_edge
from fkdiv.instance_io import ParsedInstance, parse_instance, serialize_instance


def frozen_ints(parts, lineno, what):
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(f"expected integer {what}, got {p!r}", lineno) from None
    return out


def frozen_vertex(x: int, n: int, lineno) -> int:
    if not (1 <= x <= n):
        raise ParseError(f"vertex id {x} outside 1..{n}", lineno)
    return x - 1


def frozen_first_gap(ids, count: int):
    """Smallest of 1..count that `ids`, distinct ids in that range, lacks,
    or None. It tries at most len(ids) + 1 ids, however large `count` is."""
    if len(ids) == count:
        return None
    return next(i for i in range(1, count + 1) if i not in ids)


def frozen_parse_instance(text: str) -> ParsedInstance:
    """parse_instance as it stood when every edge line was checked once
    here and once more by Graph(n, edges)."""
    header = None
    edges = []
    seen_edges = set()
    profit_rows: dict = {}
    declared = None
    order_a = None
    order_b = None
    td_header = None
    bags: dict = {}
    tree_edges = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if header is None:
            if tag != "p":
                raise ParseError("first record must be the 'p fkdiv' header", lineno)
            if len(parts) != 5 or parts[1] != "fkdiv":
                raise ParseError("header must be 'p fkdiv <n> <m> <k>'", lineno)
            n, m, k = frozen_ints(parts[2:], lineno, "in header")
            if n < 1:
                raise ParseError("need at least one vertex", lineno)
            if m < 0 or k < 1:
                raise ParseError("need m >= 0 and k >= 1", lineno)
            header = (n, m, k)
            continue
        n, m, k = header
        if tag == "p":
            raise ParseError("duplicate header", lineno)
        elif tag == "e":
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            ids = frozen_ints(parts[1:], lineno, "vertex id")
            u, v = (frozen_vertex(x, n, lineno) for x in ids)
            if u == v:
                raise ParseError("self-loops are not allowed", lineno)
            key = canonical_edge(u, v)
            if key in seen_edges:
                raise ParseError(f"duplicate edge {parts[1]} {parts[2]}", lineno)
            seen_edges.add(key)
            edges.append(key)
        elif tag == "w":
            values = frozen_ints(parts[1:], lineno, "profit")
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
                frozen_vertex(x, n, lineno) for x in frozen_ints(parts[2:], lineno, "vertex id")
            )
            if parts[1] == "A":
                if order_a is not None:
                    raise ParseError("duplicate 'o A' line", lineno)
                order_a = ids
            else:
                if order_b is not None:
                    raise ParseError("duplicate 'o B' line", lineno)
                order_b = ids
        elif tag == "t":
            if len(parts) != 3:
                raise ParseError("decomposition header must be 't <count> <root>'", lineno)
            count, root = frozen_ints(parts[1:], lineno, "in decomposition header")
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
            values = frozen_ints(parts[1:], lineno, "in bag line")
            if not values:
                raise ParseError("bag line needs a node id", lineno)
            node, contents = values[0], values[1:]
            if not (1 <= node <= td_header[0]):
                raise ParseError(f"bag node {node} outside 1..{td_header[0]}", lineno)
            if node in bags:
                raise ParseError(f"duplicate bag for node {node}", lineno)
            bags[node] = frozenset(frozen_vertex(x, n, lineno) for x in contents)
        elif tag == "a":
            if td_header is None:
                raise ParseError("'a' line before 't' header", lineno)
            if len(parts) != 3:
                raise ParseError("tree edge must be 'a <parent> <child>'", lineno)
            x, y = frozen_ints(parts[1:], lineno, "node id")
            for z in (x, y):
                if not (1 <= z <= td_header[0]):
                    raise ParseError(f"node {z} outside 1..{td_header[0]}", lineno)
            tree_edges.append((x - 1, y - 1))
        else:
            raise ParseError(f"unknown record type {tag!r}", lineno)

    if header is None:
        raise ParseError("empty input, expected 'p fkdiv <n> <m> <k>'")
    n, m, k = header
    if len(edges) != m:
        raise DimensionMismatchError(f"header promises {m} edges, found {len(edges)}")
    missing = frozen_first_gap(profit_rows, k)
    if missing is not None:
        raise DimensionMismatchError(f"no profits for class {missing}")
    if (order_a is None) != (order_b is None):
        raise ParseError("orderings need both an 'o A' and an 'o B' line")

    decomposition = None
    root0 = None
    if td_header is not None:
        count, root = td_header
        absent = frozen_first_gap(bags, count)
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

    graph = Graph(n, edges)
    instance = Instance(graph, [profit_rows[j] for j in range(1, k + 1)])
    return ParsedInstance(
        instance=instance,
        declared_class=declared,
        order_a=order_a,
        order_b=order_b,
        decomposition=decomposition,
        decomposition_root=root0,
    )


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type, message and line are what is compared
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def instance_lines(draw):
    """The lines of a valid file: header, edges in either direction,
    profit rows, and optionally a class, orderings and a decomposition."""
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=3))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    body = [f"e {u} {v}" if draw(st.booleans()) else f"e {v} {u}" for u, v in edges]
    profit = st.integers(min_value=0, max_value=20)
    body += [
        f"w {j} " + " ".join(str(draw(profit)) for _ in range(n)) for j in range(1, k + 1)
    ]
    if draw(st.booleans()):
        body.append("c class " + draw(st.sampled_from(["chordal", "interval", "x"])))
    if draw(st.booleans()):
        ids = st.lists(st.integers(min_value=1, max_value=n), max_size=n)
        body.append(" ".join(["o A", *map(str, draw(ids))]))
        body.append(" ".join(["o B", *map(str, draw(ids))]))
    body = draw(st.permutations(body))
    lines = [f"p fkdiv {n} {len(edges)} {k}", *body]
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=4))
        lines.append(f"t {count} {draw(st.integers(min_value=1, max_value=count))}")
        for node in range(1, count + 1):
            bag = draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3))
            lines.append(" ".join(["b", str(node), *map(str, bag)]))
        lines += [f"a {draw(st.integers(min_value=1, max_value=c - 1))} {c}" for c in range(2, count + 1)]
    return lines


BAD_TOKENS = ["x", "1.5", "0x3", "1e3", "--1", "+2", "2_0", "\u0663", "0", "-1", "9", "10" * 12]
MUTATIONS = (
    "token", "edge-token", "edge-token", "self-loop", "duplicate", "count", "drop", "repeat", "comment",
    "split-comment", "blank", "whitespace", "unknown", "move-header", "huge-n",
)


def mutate(lines, kind, rng, n):
    """One mutation of `kind` at a place and with a value `rng` picks, on
    the lines of a file whose header said n vertices."""
    lines = list(lines)
    if not lines:
        return lines
    at = rng.randrange(len(lines))
    head = [i for i, line in enumerate(lines) if len(line.split()) == 5 and line[0] == "p"]
    # Edge lines an earlier mutation left whole: 'e <u> <v>' and nothing else.
    edges = [i for i, line in enumerate(lines) if line.startswith("e ") and len(line.split()) == 3]
    if kind == "token":
        parts = lines[at].split()
        if parts:
            parts[rng.randrange(len(parts))] = rng.choice(BAD_TOKENS + [str(n), str(n + 1)])
            lines[at] = " ".join(parts)
    elif kind == "edge-token":
        if edges:
            i = rng.choice(edges)
            parts = lines[i].split()
            parts[rng.randint(1, 2)] = rng.choice(BAD_TOKENS + [str(n), str(n + 1)])
            lines[i] = " ".join(parts)
    elif kind == "self-loop":
        v = rng.randint(1, n)
        lines.insert(max(at, 1), f"e {v} {v}")
    elif kind == "duplicate":
        if edges:
            _, u, v = lines[rng.choice(edges)].split()
            lines.insert(max(at, 1), f"e {u} {v}" if rng.random() < 0.5 else f"e {v} {u}")
    elif kind == "count" and head:
        p, tag, n_, m, k = lines[head[0]].split()
        if m.isdigit():
            m = str(max(0, int(m) + rng.choice([-1, 1])))
        lines[head[0]] = f"{p} {tag} {n_} {m} {k}"
    elif kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(at, lines[at])
    elif kind == "comment":
        lines[at] += " # " + rng.choice(["e 1 2", "x", "#", ""])
        lines.insert(at, "# " + rng.choice(["p fkdiv 1 0 1", "w 1 1", ""]))
    elif kind == "split-comment":
        parts = lines[at].split()
        cut = rng.randrange(len(parts) + 1)
        lines[at] = " ".join(parts[:cut]) + "#" + " ".join(parts[cut:])
    elif kind == "blank":
        lines.insert(at, rng.choice(["", "   ", "\t"]))
    elif kind == "whitespace":
        lines[at] = "\t " + lines[at].replace(" ", rng.choice(["  ", "\t", " \t "])) + "  "
    elif kind == "unknown":
        lines.insert(at, rng.choice(["x 1 2", "P fkdiv 1 0 1", "e1 2", "ww 1"]))
    elif kind == "move-header":
        lines.insert(rng.randint(1, len(lines)), lines.pop(0))
    elif kind == "huge-n" and head:
        p, tag, _, m, k = lines[head[0]].split()
        lines[head[0]] = f"{p} {tag} {10**12} {m} {k}"
    return lines


@settings(max_examples=400, deadline=None)
@given(
    instance_lines(),
    st.lists(st.sampled_from(MUTATIONS), max_size=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_parser_matches_frozen_copy_on_valid_and_mutated_files(lines, kinds, seed):
    rng = random.Random(seed)
    n = int(lines[0].split()[2])
    for kind in kinds:
        lines = mutate(lines, kind, rng, n)
    text = "\n".join(lines) + "\n"
    got = outcome(parse_instance, text)
    assert got == outcome(frozen_parse_instance, text)
    if not kinds:
        assert isinstance(got, ParsedInstance)


def test_parser_matches_frozen_copy_on_every_family():
    for family in sorted(FAMILIES):
        ell = 2 if family == "clique-reduction" else None
        for n, seed in ((2, 0), (9, 1), (40, 2)):
            text = serialize_instance(build_family(family, n, 2, 5, seed, ell=ell))
            got = parse_instance(text)
            assert got == frozen_parse_instance(text)
            assert serialize_instance(got) == text
