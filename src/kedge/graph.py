"""Immutable simple undirected graphs on vertex set 0..n-1."""

from __future__ import annotations

from typing import Iterable, Sequence

# the largest order a graph file or a generator may ask for, far above any
# order the package uses, so a huge order is an input error, not an allocation
MAX_ORDER = 1 << 12


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending.

    A mask with more than 16 set bits that fill more than a third of its
    width is read off its binary string in one comprehension; any other is
    walked one low bit at a time.  The string costs a step per bit of width
    and the walk about four times that per set bit, so the string wins on
    dense masks and loses on sparse or small ones.  Measured per call, best
    of 7 over 32 random masks per cell (BENCH_bit_decode.json): at 113 bits
    the string takes 3.4 us against the walk's 13.3 with every bit set, 3.6
    against 4.7 with 38 set, but 3.6 against 2.1 with 16 set.  The string
    loses at half density below 13 set bits (12 of 24: 1.09 against 1.01
    us).  At widths of 40 to 1,024 it starts winning between a quarter and
    a third of the width set; above a third, with more than 16 set, it wins
    every measured cell by 15% or more.  A mask of at most 16 vertices is
    always walked.
    """
    count = mask.bit_count()
    if count > 16 and 3 * count > mask.bit_length():
        return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of vertex ids the package already trusts, unchecked; a
    caller's ids go through Graph.mask instead."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """A finite simple undirected graph.

    Vertices are the integers 0..n-1.  Instances are immutable: derived
    graphs (induced subgraphs, deletions) are new objects.  Adjacency is kept
    as per-vertex bitmasks, which make the exhaustive bipartition scans
    elsewhere in the package cheap; `edges` and `neighbors` read them on
    every call.  The constructor validates every edge; duplicate edges
    collapse silently.
    """

    __slots__ = ("_n", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._n = n
        self._masks = tuple(masks)

    @classmethod
    def _of_masks(cls, masks: Sequence[int]) -> Graph:
        """The graph on these adjacency masks, unchecked: the caller promises
        they are symmetric (bit v of masks[u] is bit u of masks[v]) and loop-free."""
        g = cls.__new__(cls)
        g._n, g._masks = len(masks), tuple(masks)
        return g

    @property
    def n(self) -> int:
        return self._n

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        masks = self._masks
        return tuple(
            (u, v) for u in range(self._n) for v in _bits(masks[u] >> u + 1 << u + 1)
        )

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of a caller's vertex ids, each checked to lie in 0..n-1:
        the package's one range check on vertex ids it is given."""
        m = 0
        for v in vertices:
            if not 0 <= v < self._n:
                raise ValueError(f"vertex {v} out of range for n={self._n}")
            m |= 1 << v
        return m

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.mask((v,))
        return tuple(_bits(self._masks[v]))

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._masks

    def degree(self, v: int) -> int:
        self.mask((v,))
        return self._masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._masks)

    def min_degree(self) -> int:
        if self._n == 0:
            raise ValueError("min_degree of the empty graph is undefined")
        return min(map(int.bit_count, self._masks))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self._n > v >= 0 and bool(self._masks[u] >> v & 1)

    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def induced_subgraph(self, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
        """Subgraph induced on `keep`, plus the old->new index map.

        New labels follow the sorted order of `keep`.
        """
        kept = _bits(self.mask(keep))
        index = {old: new for new, old in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(kept), edges), index

    def delete_vertices(self, remove: Iterable[int]) -> tuple[Graph, dict[int, int]]:
        """Graph minus a vertex set (not all of it), plus the old->new index map."""
        rest = self.full_mask() & ~self.mask(remove)
        if not rest:
            raise ValueError("cannot delete every vertex")
        return self.induced_subgraph(_bits(rest))

    def component_within(self, mask: int) -> int:
        """Component of the mask's lowest vertex in the subgraph induced on it.

        Returned as a bitmask; the empty mask gives 0.
        """
        reached = frontier = mask & -mask
        masks = self._masks
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= masks[v]
            frontier = nxt & mask & ~reached
            reached |= frontier
        return reached

    def components_within(self, mask: int) -> list[int]:
        """Components of the subgraph induced on the mask, as bitmasks
        ordered by lowest vertex; the empty mask gives none."""
        out = []
        while mask:
            out.append(self.component_within(mask))
            mask &= ~out[-1]
        return out

    def connected_within(self, mask: int) -> bool:
        """Is the subgraph induced on the mask's vertices connected?

        The empty set counts as disconnected, a singleton as connected.
        """
        return mask != 0 and self.component_within(mask) == mask

    def is_connected(self) -> bool:
        if self._n == 0:
            return False
        return self.connected_within(self.full_mask())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self._n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.edge_count})"


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    return [_bits(comp) for comp in g.components_within(g.full_mask())]


def normalize_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    """Return e as a sorted pair after checking it is an edge of g."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    return (u, v) if u < v else (v, u)


def _edges_between(g: Graph, a: int, b: int) -> frozenset[tuple[int, int]]:
    """Edges with one endpoint in mask a and the other in mask b, as sorted pairs."""
    masks = g.adjacency_masks()
    return frozenset(
        (u, v) if u < v else (v, u) for u in _bits(a) for v in _bits(masks[u] & b)
    )


def _boundary_count(masks: Sequence[int], a: int, b: int) -> int:
    """Edges from mask a to mask b, by popcount; for disjoint a and b, the boundary.

    The bits of a are walked inline rather than through _bits: the overlap
    scan calls this for every host side and every configuration.
    """
    total = 0
    while a:
        low = a & -a
        total += (masks[low.bit_length() - 1] & b).bit_count()
        a ^= low
    return total


def boundary_edge_count(g: Graph, first: Iterable[int], second: Iterable[int]) -> int:
    """Number of edges with one endpoint in each set.

    The sets must be disjoint; counting within overlapping sets is ambiguous,
    so that is an error rather than a guess.
    """
    a = g.mask(first)
    b = g.mask(second)
    if a & b:
        raise ValueError("boundary_edge_count needs disjoint vertex sets")
    return _boundary_count(g.adjacency_masks(), a, b)
