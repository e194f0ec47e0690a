"""Tree shapes: parsing, canonical forms, and exhaustive enumeration.

A tree on m vertices is stored as a parent array: vertex 0 is the root and
every vertex i > 0 hangs off parents[i] < i.  The textual grammar accepts
named families (path, star, spider, caterpillar), raw Pruefer sequences, and
edge-list files.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache, cached_property

from .graph import MAX_ORDER, Graph, _bits
from . import io as graph_io


@dataclass(frozen=True)
class TreeSpec:
    """A tree given by its parent array; parents[0] is -1 by convention."""

    parents: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        p = self.parents
        if not p or p[0] != -1:
            raise ValueError("parent array must start with -1 for the root")
        for i in range(1, len(p)):
            if not 0 <= p[i] < i:
                raise ValueError(f"parents[{i}]={p[i]} must lie in [0, {i})")

    @property
    def order(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        return [(self.parents[i], i) for i in range(1, self.order)]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges():
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency()]

    @cached_property
    def rooted_codes(self) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
        """Every vertex's rooted code, from one pass up and one pass down.

        A code is the tuple of a vertex's children's codes, sorted, so
        isomorphic rooted trees encode equally.  The first tuple holds each
        vertex's subtree code under root 0; the pass runs from the last
        vertex up, since children follow their parents.  The second holds
        the code of the whole tree rooted at each vertex; that pass runs
        down: seen from v, the part hanging off v's parent p is p's whole
        code with one copy of v's subtree code taken out.
        """
        p = self.parents
        m = len(p)
        kids: list[list[tuple]] = [[] for _ in range(m)]
        down: list[tuple] = [()] * m
        for v in range(m - 1, 0, -1):
            down[v] = tuple(sorted(kids[v]))
            kids[p[v]].append(down[v])
        down[0] = tuple(sorted(kids[0]))
        whole = down[:]
        for v in range(1, m):
            above = list(whole[p[v]])
            above.remove(down[v])
            whole[v] = tuple(sorted((*down[v], tuple(above))))
        return tuple(down), tuple(whole)

    def canonical_code(self):
        """Isomorphism invariant: minimum rooted code over all roots."""
        return min(self.rooted_codes[1])

    def spec_string(self) -> str:
        """A grammar string that parses back to this tree's shape."""
        if self.name:
            return self.name
        if self.order == 1:
            return "path:1"
        seq = prufer_encode(self)
        if not seq:
            return "path:2"
        return "prufer:" + ",".join(str(x) for x in seq)


def _cap_order(kind: str, order: int) -> None:
    """Reject a tree order above MAX_ORDER before its parent array is built."""
    if order > MAX_ORDER:
        raise ValueError(f"{kind} tree order {order} exceeds {MAX_ORDER}")


def path_tree(m: int) -> TreeSpec:
    if m < 1:
        raise ValueError(f"path order must be positive, got {m}")
    _cap_order("path", m)
    return TreeSpec((-1,) + tuple(range(m - 1)), name=f"path:{m}")


def star_tree(m: int) -> TreeSpec:
    if m < 1:
        raise ValueError(f"star order must be positive, got {m}")
    _cap_order("star", m)
    return TreeSpec((-1,) + (0,) * (m - 1), name=f"star:{m}")


def spider_tree(legs: list[int]) -> TreeSpec:
    if not legs or any(l < 1 for l in legs):
        raise ValueError("spider legs must be positive lengths")
    _cap_order("spider", 1 + sum(legs))
    parents = [-1]
    for leg in legs:
        attach = 0
        for _ in range(leg):
            parents.append(attach)
            attach = len(parents) - 1
    name = "spider:" + ",".join(str(l) for l in legs)
    return TreeSpec(tuple(parents), name=name)


def caterpillar_tree(leaf_counts: list[int]) -> TreeSpec:
    if not leaf_counts or any(c < 0 for c in leaf_counts):
        raise ValueError("caterpillar needs nonnegative leaf counts, one per spine vertex")
    _cap_order("caterpillar", len(leaf_counts) + sum(leaf_counts))
    parents = [-1] + list(range(len(leaf_counts) - 1))
    for spine, count in enumerate(leaf_counts):
        parents.extend([spine] * count)
    name = "caterpillar:" + ",".join(str(c) for c in leaf_counts)
    return TreeSpec(tuple(parents), name=name)


def prufer_decode(seq: list[int]) -> TreeSpec:
    """Tree for a Pruefer sequence over labels 0..m-1, m = len(seq)+2,
    relabelled as tree_from_graph would."""
    m = len(seq) + 2
    _cap_order("prufer", m)
    if any(not 0 <= x < m for x in seq):
        raise ValueError(f"sequence entries must lie in [0, {m}) for order {m}")
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    masks = [0] * m
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    # m - 1 is never the smallest of two leaves, so it is one of the last two
    for x in seq + [m - 1]:
        leaf = heapq.heappop(leaves)
        masks[leaf] |= 1 << x
        masks[x] |= 1 << leaf
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    return TreeSpec(tuple(_bfs_parents(masks)))


def prufer_encode(tree: TreeSpec) -> list[int]:
    """Pruefer sequence of the tree under its own labeling.  Each vertex keeps
    the XOR of its neighbours left, so a leaf's XOR is its one neighbour."""
    m = tree.order
    if m < 2:
        raise ValueError("encoding needs at least two vertices")
    around = [0, *tree.parents[1:]]
    degree = [0] + [1] * (m - 1)
    for v in range(1, m):
        around[tree.parents[v]] ^= v
        degree[tree.parents[v]] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    out = []
    for _ in range(m - 2):
        leaf = heapq.heappop(leaves)
        neighbor = around[leaf]
        out.append(neighbor)
        around[neighbor] ^= leaf
        degree[neighbor] -= 1
        if degree[neighbor] == 1:
            heapq.heappush(leaves, neighbor)
    return out


def _bfs_parents(masks: list[int]) -> list[int]:
    """The parent array of the vertices reached from vertex 0 over adjacency
    masks, labelled in breadth-first order, neighbours ascending."""
    parents, queue, seen = [-1], [0], 1
    for i, u in enumerate(queue):
        for w in _bits(masks[u] & ~seen):
            seen |= 1 << w
            parents.append(i)
            queue.append(w)
    return parents


def tree_from_graph(g: Graph) -> TreeSpec:
    """Relabel a tree-shaped graph into parent-array form.

    Labels are assigned in breadth-first order from vertex 0, neighbors
    ascending, so the result is deterministic.
    """
    if g.n == 0:
        raise ValueError("a tree has at least one vertex")
    parents = _bfs_parents(g.adjacency_masks()) if g.edge_count == g.n - 1 else []
    if len(parents) != g.n:
        raise ValueError(f"not a tree: n={g.n}, m={g.edge_count}")
    return TreeSpec(tuple(parents))


def parse_tree_spec(text: str) -> TreeSpec:
    """Parse the tree grammar.

    Accepted forms: "path:m", "star:m", "spider:l1,...,lr",
    "caterpillar:s1,...,sp", "prufer:a1,...,a_{m-2}", "file:<path>".
    """
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"tree spec needs a 'kind:args' form, got {text!r}")
    kind, _, args = text.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        g = graph_io.load_graph(args.strip())
        return tree_from_graph(g)

    def ints(what: str) -> list[int]:
        try:
            return [int(x) for x in args.split(",")] if args else []
        except ValueError:
            raise ValueError(f"{what} arguments must be integers, got {args!r}") from None

    if kind == "path":
        vals = ints("path")
        if len(vals) != 1:
            raise ValueError(f"path takes one order argument, got {args!r}")
        return path_tree(vals[0])
    if kind == "star":
        vals = ints("star")
        if len(vals) != 1:
            raise ValueError(f"star takes one order argument, got {args!r}")
        return star_tree(vals[0])
    if kind == "spider":
        return spider_tree(ints("spider"))
    if kind == "caterpillar":
        return caterpillar_tree(ints("caterpillar"))
    if kind == "prufer":
        return prufer_decode(ints("prufer"))
    raise ValueError(f"unknown tree kind {kind!r}")


ENUMERATION_LIMIT = 10

# free trees by order, a classical sequence
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def enumerate_trees(m: int) -> list[TreeSpec]:
    """Every isomorphism class of trees on m vertices, 1 <= m <= 10.

    Grown by leaf extension with canonical-form deduplication; the list is
    sorted by canonical code so the order is stable across runs.  The
    shapes are built once per process and shared, so each one's rooted
    codes are computed once too; the list itself is the caller's.
    """
    if not 1 <= m <= ENUMERATION_LIMIT:
        raise ValueError(f"tree enumeration supports 1..{ENUMERATION_LIMIT}, got {m}")
    return list(_tree_shapes(m))


@cache
def _tree_shapes(m: int) -> tuple[TreeSpec, ...]:
    level: dict[tuple, TreeSpec] = {
        path_tree(1).canonical_code(): TreeSpec((-1,))
    }
    for size in range(2, m + 1):
        grown: dict[tuple, TreeSpec] = {}
        for tree in level.values():
            for attach in range(tree.order):
                bigger = TreeSpec(tree.parents + (attach,))
                code = bigger.canonical_code()
                if code not in grown:
                    grown[code] = bigger
        level = grown
    out = sorted(level.values(), key=lambda t: t.canonical_code())
    if len(out) != FREE_TREE_COUNTS[m - 1]:
        raise AssertionError(
            f"enumeration found {len(out)} trees of order {m}, "
            f"expected {FREE_TREE_COUNTS[m - 1]}"
        )
    return tuple(out)
