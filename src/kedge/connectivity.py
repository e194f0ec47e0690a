"""Exact edge and vertex connectivity, minimum cuts, and an independent oracle.

Edge connectivity has one route on adjacency masks and an alive-vertex
mask, _edge_value: maximum-adjacency orderings with contraction (Stoer &
Wagner, JACM 1997; Nagamochi & Ibaraki, SIAM J. Discrete Math. 1992) on
supervertices kept as member masks.  It reads every degree itself, so its
callers scan none.  It gives the value and, as the ordering prefix that
reached it, a witness side; is_k_edge_connected above k = 1 and the removal
certificates take the value, edge_connectivity and residual_min_cut the cut
too.  The overlap scan in fragments takes the value as well, to cross-check
each fragment host's bipartition scan by a route that scans no bipartition.
Dense inputs need no ordering: once the minimum degree is at least half the
order, lambda equals it (Chartrand, SIAM J. Appl. Math. 1966), so no cut
lies below it.  Most small sparser hosts need none either, by a far-pair
path bound.  If lambda < delta, each side of a minimum cut has at least
delta + 1 vertices and at most lambda of them touch the cut, so each side
holds a vertex with no neighbour across (the lemma behind Plesnik's
diameter-2 theorem; Hellwig & Volkmann, Discrete Math. 2008).  Those two
are a far pair: a and b at distance 3 or more.  Every path from N[a] to
N[b] crosses the cut, so lambda is at least the count of edge-disjoint
ones: the edges between N[a] and N[b], plus, through each vertex w outside
both, the smaller of w's neighbour counts in them.  Both are counted on
the ring of a, the vertices at distance exactly 2 from it, as no other
vertex outside N[a] has a neighbour in it: a ring vertex w in N[b] adds
its count in N[a], any other the smaller of its two counts, and a pair
stops once it reaches best.  When every far pair counts at least best, no
cut lies below best.  The bound runs on at most
EXHAUSTIVE_LIMIT alive vertices.  Above that its pair scan can fail late
or not at all: where lambda = delta it passes every pair, cubic in the
order, and cost up to 250 times the orderings on 300 vertices.  The
oracle, edge_connectivity_bruteforce, scans every bipartition and runs no
ordering; it is compared with the kernel and must never be merged with it.

Every bipartition scan in the package runs through one flow-free scanner,
_scan_bipartitions.  It walks the sides in Gray-code order on adjacency
masks restricted to an alive-vertex mask, so a host with deleted vertices
is scanned in place; on larger hosts it carries the sides of the lowest
vertices as byte rows (its docstring gives the split).  Minimum cuts have
one exhaustive routine on it,
_host_sides: the connectivity on a vertex mask and the sorted sides of every
minimum cut.  enumerate_min_edge_cuts and the fragment calculus read it;
it and the oracle share the one bound check on the scanned order.

Vertex connectivity likewise has one kernel, _vertex_cut, on the same
masks.  It grows unit flows by shortest augmenting paths on the implicit
split-vertex graph (_augment) and uses Even's bound (SIAM J. Comput.
1975): a minimum cut of size c misses one of any c+1 vertices, so only the
first c+1 alive vertices need serve as sources.  The bound starts at the
caller's k and no degree is read; vertex_connectivity, whose question has
no k, starts it at the minimum degree plus one, as a non-clique has a cut
of at most its minimum degree.  Two non-adjacent vertices with c common
neighbours have c internally disjoint paths of length two, so a pair
sharing as many neighbours as the bound needs no flow; on dense inputs no
pair does.  vertex_connectivity, vertex_cut_below, is_k_connected, the
dense-core extraction and its validation all ask it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from math import isfinite
from typing import Sequence

from .graph import Graph, _bits, _edges_between, mask_of

EXHAUSTIVE_LIMIT = 16
# the bipartition scan runs in rows from this many alive vertices, carrying
# up to _ROW_BITS of the lowest others in each row (see _scan_bipartitions)
_ROWS_FROM = 8
_ROW_BITS = 8


def _edge_value(
    masks: Sequence[int], alive: int, best: int, stop: int
) -> tuple[int, int | None]:
    """min(lambda, best) on `alive` (two vertices or more) if that is >= stop, else
    a value below stop; 0 when `alive` is disconnected.  Also a side reaching it.

    One pass reads every degree and returns the first degree below stop, in
    ascending id order, which lambda cannot exceed; the lowest vertex is read
    before the alive mask is decoded.  best is then clamped to the minimum
    degree.  When that is at least half the order (rounded down), lambda
    equals it (Chartrand, SIAM J. Appl. Math. 1966): (best, None).  The
    neighbourhoods are read only when that test fails.

    On at most EXHAUSTIVE_LIMIT alive vertices the far-pair bound comes
    next (_far_pairs_reach): (best, None) when every pair at distance 3 or
    more has best edge-disjoint paths between its closed neighbourhoods,
    as the orderings would return.  The module docstring proves the bound
    and says why it is not tried above the limit.

    Supervertices are member masks, their degrees and outside neighbourhoods
    out[x] recomputed once per contraction; owner[u] holds u.  Each
    maximum-adjacency ordering (largest attachment first, lowest id among
    ties) lowers best to every proper prefix's cut.  Scanning x adds the
    edges from x to the owner of each unscanned u in out[x], and a
    union-find merges pairs with lambda >= best: x and an unscanned y once
    r(y) >= best, as lambda(x, y) >= r(y), and the last two scanned, whose
    cut of the phase is in best.  The side is the OR of the scanned members
    at the last step that lowered best, None if no step did.  A zero cut ends
    the orderings, as no later phase can lower best or move the side.
    """
    # the lowest vertex first: a large host missing stop there is not decoded
    first = (masks[(alive & -alive).bit_length() - 1] & alive).bit_count()
    if first < stop:
        return first, None
    ids = _bits(alive)
    low = len(ids)
    for v in ids:
        d = (masks[v] & alive).bit_count()
        if d < low:
            if d < stop:
                return d, None
            low = d
    best = min(best, low)
    if low >= len(ids) // 2:
        return best, None
    # slots of dead ids are never read
    nb = [m & alive for m in masks[: alive.bit_length()]]
    if len(ids) <= EXHAUSTIVE_LIMIT and _far_pairs_reach(nb, ids, alive, best):
        return best, None

    def find(v: int) -> int:
        while leader[v] != v:
            leader[v] = v = leader[leader[v]]
        return v

    deg = list(map(int.bit_count, nb))
    members = [1 << v for v in range(len(nb))]
    owner = list(range(len(nb)))
    leader = owner[:]
    out = nb[:]
    side = None
    changed: list[int] = []
    while len(ids) > 1 and best >= max(stop, 1):
        for x in changed:
            around = 0
            for u in _bits(members[x]):
                owner[u] = x
                around |= nb[u]
            out[x] = around = around & ~members[x]
            deg[x] = sum((nb[u] & members[x]).bit_count() for u in _bits(around))
        attach = [0] * len(nb)
        unscanned = ids[:]
        rest = alive
        cut = x = 0
        while unscanned:
            prev, x = x, max(unscanned, key=attach.__getitem__)
            unscanned.remove(x)
            rest ^= members[x]
            cut += deg[x] - 2 * attach[x]
            if unscanned and cut < best:
                best, side = cut, alive ^ rest
            for u in _bits(out[x] & rest):
                y = owner[u]
                attach[y] += (nb[u] & members[x]).bit_count()
                if attach[y] >= best:
                    leader[find(y)] = find(x)
        leader[find(prev)] = find(x)
        groups: dict[int, int] = {}
        for v in ids:
            r = find(v)
            groups[r] = groups.get(r, 0) | members[v]
        ids = sorted(groups)
        changed = [r for r in ids if groups[r] != members[r]]
        for r in changed:
            members[r] = groups[r]
    return best, side


def _far_pairs_reach(nb: Sequence[int], ids: Sequence[int], alive: int, best: int) -> bool:
    """Whether every pair a, b of `ids` at distance 3 or more has at least
    best edge-disjoint paths between N[a] and N[b] in the graph of the alive
    neighbourhoods nb, counted on the ring of a (see the module docstring)."""
    for a in ids:
        near = ball = nb[a] | 1 << a
        if not alive & ~near & -(2 << a):
            continue  # no higher vertex lies outside N[a], so none outside the ball
        for u in _bits(nb[a]):
            ball |= nb[u]
        if not (fars := alive & ~ball & -(2 << a)):
            continue
        ring = [(w, (nb[w] & near).bit_count()) for w in _bits(ball & ~near)]
        for b in _bits(fars):
            far = nb[b] | 1 << b
            paths = 0
            for w, to_a in ring:
                if paths >= best:
                    break
                paths += to_a if far >> w & 1 else min(to_a, (nb[w] & far).bit_count())
            if paths < best:
                return False
    return True


@dataclass(frozen=True)
class EdgeCut:
    """A bipartition (side_a, side_b) and the edges crossing it."""

    edges: frozenset[tuple[int, int]]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    @property
    def value(self) -> int:
        return len(self.edges)

    def validate(self, g: Graph, alive: int | None = None) -> None:
        """Check that the sides partition the vertex mask `alive` (default:
        all of g), both nonempty, and that the edges are g's edges between
        them, each pair in either order."""
        a, b = g.mask(self.side_a), g.mask(self.side_b)
        alive = g.full_mask() if alive is None else alive
        if a & b or a | b != alive or not a or not b:
            raise ValueError("cut sides must partition the vertex set, both nonempty")
        if _edges_between(g, a, b) != {(u, v) if u < v else (v, u) for u, v in self.edges}:
            raise ValueError("cut edge set does not match the bipartition boundary")


def _cut_from_side(g: Graph, alive: int, side_mask: int) -> EdgeCut:
    other = alive & ~side_mask
    crossing = _edges_between(g, side_mask, other)
    return EdgeCut(crossing, tuple(_bits(side_mask)), tuple(_bits(other)))


def _edge_cut(g: Graph, alive: int) -> tuple[int, EdgeCut]:
    """Edge connectivity of g on `alive` (two vertices or more) and a minimum
    cut by edge_connectivity's rule, the lowest alive vertex standing for 0."""
    masks = g.adjacency_masks()
    degree, v = min(((masks[u] & alive).bit_count(), u) for u in _bits(alive))
    kprime, side = _edge_value(masks, alive, degree, 0)
    if kprime == 0:
        side = g.component_within(alive)
    elif side is None:
        side = 1 << v
    if not side & alive & -alive:
        side = alive & ~side
    return kprime, _cut_from_side(g, alive, side)


@cache
def _gray_flips(c: int) -> bytes:
    """The index flipped at step i = 1 .. 2^c - 1 of a c-bit Gray-code walk,
    the lowest set bit of i: the walk on c-1 bits, then c-1, then that walk again."""
    if c == 0:
        return b""
    half = _gray_flips(c - 1)
    return half + bytes((c - 1,)) + half


@cache
def _row_patterns(a: int) -> tuple[int, tuple[int, ...]]:
    """Rows of 2^a byte fields, field p standing for the a-bit Gray code
    p ^ (p >> 1): the row of all ones, and per bit the 0/1 row of the codes
    holding it."""
    codes = [p ^ p >> 1 for p in range(1 << a)]
    return int.from_bytes(bytes([1] * len(codes)), "little"), tuple(
        int.from_bytes(bytes(code >> b & 1 for code in codes), "little") for b in range(a)
    )


def _scan_bipartitions(masks: Sequence[int], alive: int) -> tuple[int, list[int]]:
    """Minimum boundary over the bipartitions of `alive`, and the sides reaching it.

    `masks` are adjacency masks; only edges inside `alive` count.  The side
    always holds the lowest alive vertex and walks the subsets of the other
    c alive vertices in Gray-code order, skipping `alive` itself, so each
    step moves one vertex across and changes the boundary by that vertex's
    neighbours outside the side minus those inside it.  Sides come back as
    masks in visiting order.  `alive` needs at least two vertices.

    From _ROWS_FROM (8) alive vertices on, the lowest a = min(c, 8) others
    ride in a row (8 is _ROW_BITS) and the walk moves only the other c - a:
    up to 9 alive vertices one row holds every side.  A row is one integer with
    a byte field per subset of the low others, field p for the a-bit Gray
    code p ^ (p >> 1), so it holds up to 256 sides.  Moving walked vertex v
    changes every field by deg(v) minus twice v's neighbours in the side;
    the lowest vertex and the walked ones count alike in every field, and
    each low neighbour adds its 0/1 row.  The first row is built from the
    same 0/1 rows.  A row is exact while every field's final value fits a
    byte, and a boundary on at most EXHAUSTIVE_LIMIT = 16 vertices is at
    most 8 * 8 = 64.  The c-bit walk runs the low codes upwards in even rows
    and downwards in odd ones, so odd rows are read big-endian and the
    joined bytes are the boundaries in visiting order.  The side `alive`,
    code all ones, is visited at index (2 << c) // 3 and marked 255.  Both
    routes visit the same sides in the same order; below 8 alive vertices
    the plain walk is faster than building a row.
    """
    root = alive & -alive
    others = _bits(alive & ~root)
    flips = [1 << v for v in others]
    nbs = [masks[v] & alive for v in others]
    degs = [nb.bit_count() for nb in nbs]
    side = root
    boundary = (masks[root.bit_length() - 1] & alive).bit_count()
    c = len(others)
    if c < _ROWS_FROM - 1:
        best = boundary
        sides = [side]
        for j in _gray_flips(c):
            side ^= flips[j]
            delta = degs[j] - 2 * (nbs[j] & side).bit_count()
            boundary += delta if side & flips[j] else -delta
            if boundary <= best and side != alive:
                if boundary < best:
                    best = boundary
                    sides = []
                sides.append(side)
        return best, sides
    a = min(c, _ROW_BITS)
    ones, pattern = _row_patterns(a)
    # the first row: sum of degrees minus twice the edges inside each side
    row = boundary * ones
    for j in range(a):
        row += (degs[j] - 2 * (nbs[j] & root).bit_count()) * pattern[j]
        for b in range(j):
            if nbs[j] & flips[b]:
                row -= 2 * (pattern[j] & pattern[b])
    # moving walked vertex j in, before its neighbours among the walked side
    steps = [degs[j] * ones - 2 * sum(pattern[b] for b in range(a) if nbs[j] & flips[b])
             for j in range(a, c)]
    rows = [row]
    for j in _gray_flips(c - a):
        side ^= flips[a + j]
        step = steps[j] - 2 * (nbs[a + j] & side).bit_count() * ones
        row += step if side & flips[a + j] else -step
        rows.append(row)
    width = 1 << a
    flat = bytearray(b"".join(
        row.to_bytes(width, "big" if h & 1 else "little") for h, row in enumerate(rows)
    ))
    flat[(2 << c) // 3] = 255
    # the first side's boundary bounds the minimum; membership tests run in C
    best = next(v for v in range(boundary + 1) if v in flat)
    sides = []
    i = -1
    for _ in range(flat.count(best)):
        i = flat.index(best, i + 1)
        side = root
        for j in _bits(i ^ i >> 1):
            side |= flips[j]
        sides.append(side)
    return best, sides


def local_edge_connectivity(g: Graph, s: int, t: int, cap: float = float("inf")) -> int:
    """Maximum number of pairwise edge-disjoint s-t paths, or cap if that is less.

    Shortest augmenting paths on frontier masks.  fwd[u] has bit v while a
    unit runs along uv from u to v: u's residual neighbours are masks[u] &
    ~fwd[u], and a path against a unit cancels it.  No unit enters s, so the
    flow is the count of units leaving it.  A finite cap must be a nonnegative
    integer.
    """
    if s == t:
        raise ValueError("endpoints must differ")
    g.mask((s, t))
    if not cap >= 0 or isfinite(cap) and cap % 1:
        raise ValueError(f"cap must be a nonnegative integer or infinite, got {cap}")
    masks = g.adjacency_masks()
    fwd = [0] * g.n
    while fwd[s].bit_count() < cap:
        levels = [1 << s]
        seen = 1 << s
        while levels[-1] and not seen >> t & 1:
            reach = 0
            for u in _bits(levels[-1]):
                reach |= masks[u] & ~fwd[u]
            levels.append(reach & ~seen)
            seen |= reach
        if not seen >> t & 1:
            break
        v = t
        for level in reversed(levels[:-1]):
            u = next(u for u in _bits(level & masks[v]) if not fwd[u] >> v & 1)
            if fwd[v] >> u & 1:
                fwd[v] ^= 1 << u
            else:
                fwd[u] |= 1 << v
            v = u
    return fwd[s].bit_count()


def edge_connectivity(g: Graph) -> tuple[int, EdgeCut]:
    """Edge connectivity and one minimum cut achieving it.

    The cut is deterministic.  Its side is the maximum-adjacency ordering
    prefix whose cut first reached the value; else, when the value is the
    minimum degree, the lowest vertex of that degree; else (value 0, a
    disconnected graph, empty edge set) the component of vertex 0.  side_a
    is the side holding vertex 0.
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    return _edge_cut(g, g.full_mask())


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """Decision version.  For k = 1 it is g.is_connected(), a mask BFS, where
    one maximum-adjacency phase would be quadratic in n.  Above 1 it is the
    value kernel with best and stop both k: its degree pass and its
    orderings also catch a low degree and a disconnected graph.

    Convention: the single-vertex graph is 1-edge-connected and nothing more.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k == 1:
        return g.is_connected()
    return g.n > 1 and _edge_value(g.adjacency_masks(), g.full_mask(), k, k)[0] >= k


def _check_exhaustive(size: int) -> None:
    """The exhaustive scans' bounds: at least two vertices, at most EXHAUSTIVE_LIMIT."""
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"the exhaustive limit is {EXHAUSTIVE_LIMIT} vertices, got {size}")
    if size < 2:
        raise ValueError("an exhaustive cut scan needs at least two vertices")


def _host_sides(g: Graph, alive: int) -> tuple[int, list[int]]:
    """Edge connectivity of g on `alive` and both sides of each minimum cut, as masks.

    The package's one exhaustive min-cut routine.  A disconnected host gives
    its components, with connectivity 0.  A connected host gives both halves
    of every minimum edge-cut, from the scanner.  Each half induces a
    connected subgraph: were it split into parts with no edge between, its
    boundary would be theirs summed, at least twice the connectivity, which
    is positive here.  Sides are sorted by sorted vertex tuple, and none
    repeats: each cut comes once, with the lowest alive vertex in its first
    half, so those first halves make up the first half of the list.
    """
    _check_exhaustive(alive.bit_count())
    if g.connected_within(alive):
        kprime, firsts = _scan_bipartitions(g.adjacency_masks(), alive)
        sides = firsts + [alive & ~first for first in firsts]
    else:
        kprime, sides = 0, g.components_within(alive)
    sides.sort(key=_bits)
    return kprime, sides


def edge_connectivity_bruteforce(g: Graph) -> int:
    """Independent oracle: minimum boundary over all 2^(n-1)-1 bipartitions.

    Deliberately ignorant of orderings and flows; used to pin down the kernel.
    """
    _check_exhaustive(g.n)
    return _scan_bipartitions(g.adjacency_masks(), g.full_mask())[0]


def enumerate_min_edge_cuts(g: Graph) -> list[EdgeCut]:
    """All minimum edge cuts of a connected graph, exhaustively.

    Every bipartition with boundary equal to the edge connectivity, each
    listed once with vertex 0 in side_a, ordered by side_a as a sorted tuple.
    """
    full = g.full_mask()
    kprime, sides = _host_sides(g, full)
    if kprime == 0:
        raise ValueError("cut enumeration expects a connected graph")
    return [_cut_from_side(g, full, side) for side in sides[: len(sides) // 2]]


def _augment(masks: Sequence[int], alive: int, s: int, t: int, into: dict[int, int]) -> int | None:
    """One shortest augmenting s-t path for _vertex_cut (s, t not adjacent).

    Each alive vertex is an entry and an exit joined by a unit arc; an edge
    uv joins u's exit to v's entry and v's exit to u's entry.  The flow is
    `into`: each vertex on a path, s and t aside, maps to the vertex whose
    exit feeds its entry.  An exit reaches its neighbours' entries and, on a
    path, its own; an entry reaches its own exit if free, else the one
    feeding it.  A path is applied to `into` and None returned; else the
    minimum cut is returned: the vertices whose entry was reached, exit not.
    """
    used = mask_of(into)
    outs, ins = [1 << s], [0]
    seen_out = seen_in = 0
    while outs[-1]:
        seen_out |= outs[-1]
        entries = outs[-1] & used
        for u in _bits(outs[-1]):
            entries |= masks[u]
        entries &= alive & ~seen_in
        seen_in |= entries
        ins.append(entries)
        if entries >> t & 1:
            break
        exits = entries & ~used
        for w in _bits(entries & used):
            exits |= 1 << into[w]
        outs.append(exits & ~seen_out)
    else:
        return seen_in & ~seen_out
    w = t
    for level in reversed(range(len(outs))):
        # the exit before w's entry: a neighbour's, which now feeds w, else w's own
        feeders = outs[level] & masks[w]
        u = (feeders & -feeders).bit_length() - 1 if feeders else w
        if u == w:
            del into[w]
        elif w != t:
            into[w] = u
        # the entry before u's exit: u's own if u was free, else the one u fed
        w = u if not used >> u & 1 else next(
            v for v in _bits(ins[level] & masks[u] & used) if into[v] == u
        )
    return None


def _vertex_cut(masks: Sequence[int], alive: int, k: int) -> int | None:
    """Minimum vertex cut of the graph induced on `alive` if its connectivity is below k.

    The cut is a mask, the empty cut 0 when that graph is disconnected;
    None means connectivity at least k, as always for a clique or at most
    one vertex.  Sources s come off `alive` lowest bit first, each against
    every alive non-neighbour t, by _augment's shortest augmenting paths.  A
    cut below c misses one of the first c sources (Even's bound), so with c
    the smallest cut found so far, at first the caller's k, the scan stops
    after c sources.  A pair with at least c common neighbours has that many
    internally disjoint s-t paths of length two, so its flow would reach c
    and change nothing: it is skipped.  The cut comes from the first (s, t)
    pair reaching the minimum, the side of its flow nearest s, which no
    larger k moves: that pair lies among the first minimum + 1 sources, and
    no pair before it is skipped or capped at the minimum.  So no degree is
    read to lower the start.
    """
    best, cut, rest, i = k, None, alive, 0
    while rest and i < best:
        s = (rest & -rest).bit_length() - 1
        rest ^= 1 << s
        i += 1
        for t in _bits(alive & ~masks[s] & ~(1 << s)):
            if (masks[s] & masks[t] & alive).bit_count() >= best:
                continue
            into: dict[int, int] = {}
            for _ in range(best):
                found = _augment(masks, alive, s, t, into)
                if found is not None:
                    cut, best = found, found.bit_count()
                    break
    return cut


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertices whose removal disconnects or trivializes the graph."""
    if g.n == 0:
        raise ValueError("vertex connectivity of the empty graph is undefined")
    cut = _vertex_cut(g.adjacency_masks(), g.full_mask(), g.min_degree() + 1)
    return g.n - 1 if cut is None else cut.bit_count()


def vertex_cut_below(g: Graph, k: int) -> tuple[int, ...] | None:
    """A minimum vertex cut if the vertex connectivity is below k, else None.

    For a disconnected graph the empty cut qualifies.  Complete graphs have
    no cut at all, so the answer there is None whenever n >= 2.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    cut = _vertex_cut(g.adjacency_masks(), g.full_mask(), k)
    return None if cut is None else tuple(_bits(cut))


def _is_k_connected(masks: Sequence[int], alive: int, k: int) -> bool:
    """is_k_connected for the graph induced on `alive`."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = alive.bit_count()
    return k == 1 if n == 1 else k < n and _vertex_cut(masks, alive, k) is None


def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex-connectivity decision, mirroring the edge convention for K1."""
    return _is_k_connected(g.adjacency_masks(), g.full_mask(), k)


@dataclass(frozen=True)
class ConnectivityReport:
    """Summary numbers for one graph; None marks the single-vertex convention."""

    n: int
    edge_count: int
    min_degree: int
    edge_connectivity: int | None
    vertex_connectivity: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def connectivity_report(g: Graph) -> ConnectivityReport:
    if g.n == 0:
        raise ValueError("no report for the empty graph")
    if g.n == 1:
        return ConnectivityReport(1, 0, 0, None, None)
    kprime, _ = edge_connectivity(g)
    kappa = vertex_connectivity(g)
    return ConnectivityReport(g.n, g.edge_count, g.min_degree(), kprime, kappa)
