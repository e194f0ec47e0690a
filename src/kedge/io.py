"""Reading and writing graphs: edge-list text and graph6.

Edge-list format: a header line "n m" with n at most graph.MAX_ORDER, then
m lines "u v" with 0-indexed endpoints.  Lines starting with '#' are
comments and blank lines are skipped.
Emission is canonical: edges sorted by (min, max) endpoint, single trailing
newline, so identical graphs always serialize to identical bytes.

graph6: the usual dense format, limited here to n <= 62 (single header byte
63+n, then the upper triangle packed 6 bits per byte, column by column).
"""

from __future__ import annotations

import os

from .errors import GraphFormatError
from .graph import MAX_ORDER, Graph


def parse_edge_list(text: str) -> Graph:
    header: tuple[int, int] | None = None
    seen: dict[tuple[int, int], int] = {}  # each edge, low end first, to its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two integers, got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"expected two integers, got {raw!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphFormatError(f"header counts must be nonnegative, got {raw!r}", lineno)
            if a > MAX_ORDER:
                raise GraphFormatError(f"header order {a} exceeds {MAX_ORDER}", lineno)
            header = (a, b)
            continue
        n = header[0]
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge ({a}, {b}) out of range for n={n}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}", lineno)
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphFormatError(
                f"edge ({a}, {b}) repeats the edge on line {seen[key]}", lineno
            )
        seen[key] = lineno
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    if len(seen) != header[1]:
        raise GraphFormatError(
            f"header promises {header[1]} edges, file has {len(seen)}"
        )
    return Graph(header[0], seen)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


GRAPH6_MAX_N = 62


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= x <= 63 for x in data):
        raise GraphFormatError(f"invalid graph6 character in {s!r}")
    n = data[0]
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(
            f"graph6 header says n={n}; only n<={GRAPH6_MAX_N} is supported"
        )
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}"
        )
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            byte, off = divmod(idx, 6)
            if body[byte] >> (5 - off) & 1:
                edges.append((row, col))
            idx += 1
    return Graph(n, edges)


# graph6 writes six bits per character, the first one highest; indexed by
# the six bits read lowest first
_GRAPH6_CHARS = "".join(chr(63 + int(f"{x:06b}"[::-1], 2)) for x in range(64))


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(
            f"graph6 emission supports n<={GRAPH6_MAX_N}, got n={g.n}"
        )
    # the upper triangle column by column, row 0 first: column c's rows are
    # the low c bits of its adjacency mask
    bits = size = 0
    for col, mask in enumerate(g.adjacency_masks()):
        bits |= (mask & ((1 << col) - 1)) << size
        size += col
    return chr(63 + g.n) + "".join(_GRAPH6_CHARS[bits >> i & 63] for i in range(0, size, 6))


def sniff_format(text: str) -> str:
    """Guess 'edgelist' or 'graph6' from content.

    A first non-comment line of exactly two integers means edge list;
    anything else is treated as graph6.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                return "edgelist"
            except ValueError:
                return "graph6"
        return "graph6"
    return "edgelist"


def parse_graph(text: str) -> Graph:
    if sniff_format(text) == "edgelist":
        return parse_edge_list(text)
    return parse_graph6(text)


def load_graph(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def graph_payload(g: Graph) -> dict:
    """Compact reproduction record for reports: graph6 when it fits.

    Graphs beyond the graph6 size cap fall back to edge-list text.
    """
    if g.n <= GRAPH6_MAX_N:
        return {"format": "graph6", "data": write_graph6(g)}
    return {"format": "edgelist", "data": write_edge_list(g)}


def save_graph(g: Graph, path: str | os.PathLike, fmt: str = "edgelist") -> None:
    if fmt == "edgelist":
        text = write_edge_list(g)
    elif fmt == "graph6":
        text = write_graph6(g) + "\n"
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
