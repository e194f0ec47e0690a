"""Finders for removable structures in k-edge-connected graphs.

A vertex, edge, or subtree is removable when deleting it (with all incident
edges) leaves the graph k-edge-connected.  The finders here scan in a fixed
deterministic order and return None when nothing qualifies;
`_first_certified`, the one certification routine, re-verifies every hit
from scratch.  Trees are placed by one walk, `_tree_images`, which yields
the distinct vertex images of the tree's embeddings, each at its
lexicographically first embedding (tree vertices in index order, hosts
ascending); its docstring gives the two pruning rules and why neither loses
an image.  The tree finder walks it exhaustively.  Separately,
`removable_tree_via_thomassen` handles graphs of very large minimum degree:
it extracts a highly connected subgraph and takes the first image of the
same walk inside the subgraph's interior, away from its boundary.  The
extraction is `_extract`, which returns the subgraph and its boundary as
vertex masks and raises ExtractionFailed on a miss; the dense route walks
those masks, and `extract_connected_subgraph` wraps them in an
HCSubgraph.  The tree finder never takes that route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .connectivity import (
    EXHAUSTIVE_LIMIT,
    EdgeCut,
    _edge_cut,
    _edge_value,
    _is_k_connected,
    _scan_bipartitions,
    _vertex_cut,
    is_k_edge_connected,
)
from .errors import ExtractionFailed, InternalCheckError, TheoremViolation
from .graph import Graph, _bits, mask_of
from .io import graph_payload
from .trees import TreeSpec


@dataclass(frozen=True)
class RemovalCertificate:
    """A verified removable structure.

    `removed` is the deleted vertex set (for an edge, its two endpoints;
    for a tree, the embedded image).  `residual_kprime` is the exact edge
    connectivity of what remains, or None when the residual is a single
    vertex and the trivial-graph convention applies instead
    (`residual_trivial`).
    """

    kind: str
    removed: tuple[int, ...]
    residual_kprime: int | None
    residual_trivial: bool


@dataclass(frozen=True)
class HCSubgraph:
    """A highly connected induced subgraph with a small boundary.

    `boundary` is the set of subgraph vertices with at least one neighbor
    outside; the interior `vertices - boundary` therefore keeps its full
    ambient degree inside the subgraph.
    """

    vertices: frozenset[int]
    boundary: frozenset[int]
    k_target: int

    def interior(self) -> frozenset[int]:
        return self.vertices - self.boundary

    def validate(self, g: Graph) -> None:
        core = g.mask(self.vertices)
        if not self.boundary <= self.vertices:
            raise ValueError("boundary must lie inside the subgraph")
        if mask_of(self.boundary) != _boundary(g, core):
            raise ValueError("boundary is not the outward-neighbor set")
        if not _is_k_connected(g.adjacency_masks(), core, self.k_target):
            raise ValueError(f"induced subgraph is not {self.k_target}-connected")
        if miss := _size_miss(len(self.vertices), len(self.boundary), self.k_target):
            raise ValueError(miss)


def _boundary(g: Graph, core: int) -> int:
    """Mask of the core vertices with a neighbour outside the core mask."""
    masks = g.adjacency_masks()
    outside = 0
    for v in _bits(g.full_mask() & ~core):
        outside |= masks[v]
    return core & outside


def _size_miss(order: int, boundary: int, k_target: int) -> str | None:
    """The missed bound on order (above 4k^2) or boundary (2k^2), or None."""
    bound = 4 * k_target**2
    if order <= bound:
        return f"subgraph order {order} not above {bound}"
    if boundary > bound // 2:
        return f"boundary size {boundary} exceeds {bound // 2}"
    return None


def _first_certified(
    g: Graph, kind: str, candidates: Iterable[int], k: int
) -> RemovalCertificate | None:
    """Certificate for the first candidate vertex mask whose deletion keeps g k-edge-connected.

    The one certification loop.  A residual is g's masks on the surviving
    vertices, with no graph built: one value-kernel call gives its exact edge
    connectivity or a value below k, checked against the bipartition oracle
    (no flow either) whenever the residual is small enough.
    """
    masks, full = g.adjacency_masks(), g.full_mask()
    for removed in candidates:
        alive = full & ~removed
        if not alive & alive - 1:
            # at most one vertex left: K1 is 1-edge-connected and nothing more
            if alive and k == 1:
                return RemovalCertificate(kind, tuple(_bits(removed)), None, True)
            continue
        kprime = _edge_value(masks, alive, alive.bit_count(), k)[0]
        if kprime < k:
            continue
        if alive.bit_count() <= EXHAUSTIVE_LIMIT:
            oracle = _scan_bipartitions(masks, alive)[0]
            if oracle != kprime:
                raise InternalCheckError(
                    f"kernel and oracle disagree on residual connectivity ({kprime} vs {oracle})"
                )
        return RemovalCertificate(kind, tuple(_bits(removed)), kprime, False)
    return None


def _require_k_edge_connected(g: Graph, k: int) -> None:
    if not is_k_edge_connected(g, k):
        raise ValueError(f"graph is not {k}-edge-connected")


def find_removable_vertex(g: Graph, k: int) -> RemovalCertificate | None:
    """First vertex (ascending id) whose deletion keeps g k-edge-connected."""
    _require_k_edge_connected(g, k)
    return _first_certified(g, "vertex", (1 << v for v in g.vertices()), k)


def find_removable_edge(g: Graph, k: int) -> RemovalCertificate | None:
    """First edge (sorted order) whose endpoint deletion keeps g k-edge-connected."""
    _require_k_edge_connected(g, k)
    return _first_certified(g, "edge", (1 << u | 1 << v for u, v in g.edges()), k)


@cache
def _floors(tree: TreeSpec) -> tuple[int, ...]:
    """For each tree vertex b, a vertex a < b whose host must lie below b's, or -1.

    An embedding is the first of its image only if no tree automorphism
    gives a smaller one.  If an automorphism sigma has smallest moved
    vertex a, composing with it changes the embedding first at a, so the
    first embedding puts a on a lower host than sigma(a).  Two families of
    automorphisms are read off the rooted codes: swapping the subtrees of
    b and its latest earlier sibling with an isomorphic subtree (smallest
    moved vertex: that sibling), and moving the root to a vertex b whose
    whole-tree code equals the root's (smallest moved vertex: 0).  Cached,
    so the shared shapes of `enumerate_trees` pay for theirs once.
    """
    subtree, whole = tree.rooted_codes
    parents = tree.parents
    floors = [-1] * tree.order
    twin: dict[tuple, int] = {}
    for b in range(1, tree.order):
        key = (parents[b], subtree[b])
        if key in twin:
            floors[b] = twin[key]
        elif whole[b] == whole[0]:
            floors[b] = 0
        twin[key] = b
    return tuple(floors)


def _tree_images(
    g: Graph, tree: TreeSpec, region: int | None = None
) -> Iterator[int]:
    """Distinct vertex images of the tree's embeddings in g, as bitmasks.

    Only embeddings inside the `region` mask count (default: all of g).
    Each image is yielded once, in the order of its lexicographically first
    embedding (hosts of the tree vertices in index order).  The walk meets
    embeddings in that order: it places tree vertices in index order, each
    on an unused region neighbour of its parent's host, hosts ascending.
    It skips what holds no first embedding, so no image is lost:
    - a host at or below the host of the vertex's floor (see `_floors`);
    - a recurring search state, that is, used mask plus, for each placed
      vertex that still parents unplaced ones, its host's unused region
      neighbours.  Every remaining vertex goes into such a neighbourhood
      or under a remaining vertex, so each completion C of a later prefix
      P' with an earlier prefix P's state also completes P, and P + C is
      a smaller embedding of the image of P' + C.  Floors prune only
      embeddings that are not first, so they do not touch this argument.
    One set holds the states of every level, each added when entered.
    The walk is depth-first, so a state is finished before a later prefix
    can meet it again, and states of different levels never share a key:
    a key's length fixes its count of open-host blocks, its top block is
    the used mask, and the used mask's popcount is the level.
    The last tree vertex is placed in bulk: `filled[u]` masks the x for
    which u | x was yielded already.  It needs no floor: a completion the
    floor would cut is not first, so its image came out earlier, and
    `filled` drops it with every other such completion.  The level being
    walked keeps its candidates and used mask in locals; `left` and `base`
    save them on descent and give them back on ascent.  A recursive generator
    would refer to itself through its closure and keep every call's sets
    alive until the cyclic collector runs.
    """
    region = g.full_mask() if region is None else region
    last = tree.order - 1
    if not last:
        for v in _bits(region):
            yield 1 << v
        return
    masks = g.adjacency_masks()
    parents = tree.parents
    floors = _floors(tree)
    last_parent = parents[last]
    last_child = [0] * tree.order
    for i in range(1, tree.order):
        last_child[parents[i]] = i
    # open_parents[i]: tree vertices below i with a child at index i or above
    open_parents = [
        tuple(j for j in range(i) if last_child[j] >= i) for i in range(last)
    ]
    shift = g.n
    explored: set[int] = set()
    filled: dict[int, int] = {}
    hosts = [0] * tree.order
    left, base = [0] * last, [0] * last
    candidates, before, i = region, 0, 0
    while True:
        if not candidates:
            if not i:
                return
            i -= 1
            candidates = left[i]
            before = base[i]
            continue
        low = candidates & -candidates
        candidates ^= low
        used = before | low
        hosts[i] = low.bit_length() - 1
        if i == last - 1:
            # used lies inside region, so region ^ used is region minus used
            fresh = masks[hosts[last_parent]] & (region ^ used) & ~filled.get(used, 0)
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                image = used | low
                # image minus any one of its vertices has that vertex filled
                rest = image
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    filled[image ^ bit] = filled.get(image ^ bit, 0) | bit
                yield image
            continue
        key = used
        unused = region ^ used
        for j in open_parents[i + 1]:
            key = key << shift | masks[hosts[j]] & unused
        if key in explored:
            continue
        explored.add(key)
        left[i] = candidates
        base[i] = before
        i += 1
        candidates = masks[hosts[parents[i]]] & unused
        if floors[i] >= 0:
            candidates &= -(2 << hosts[floors[i]])
        before = used


def find_removable_tree(
    g: Graph, k: int, tree: TreeSpec
) -> RemovalCertificate | None:
    """First tree image (canonical embedding order) whose deletion keeps g k-edge-connected.

    Exhaustive: None is returned only after every distinct image has been
    certified and failed.  The images come from `_tree_images`, each once,
    ordered by its lexicographically first embedding (tree vertices in
    index order, hosts ascending); its docstring shows that the pruning
    skips only embeddings that are not first, so it cannot change the
    answer.
    """
    _require_k_edge_connected(g, k)
    if g.n <= tree.order:
        raise ValueError("graph must have more vertices than the tree")
    return _first_certified(g, "tree", _tree_images(g, tree), k)


def extract_connected_subgraph(g: Graph, k_target: int) -> HCSubgraph:
    """Carve out a k_target-connected induced subgraph with a small boundary.

    Strategy: start from the whole vertex set and ask `_vertex_cut` on the
    candidate.  No cut means the candidate is k_target-connected.
    Otherwise keep the minimum cut plus the largest component of the
    candidate minus it (ties: the component holding the smallest vertex
    id), peel vertices with fewer than k_target neighbours in the candidate
    until none is left, and go round again.  The first pass peels nothing:
    every degree exceeds 4*k_target^2 >= k_target.  After peeling every
    vertex has at least k_target neighbours, so a candidate that is not
    k_target-connected always yields a cut.

    Each postcondition is checked once, and `HCSubgraph.validate` is not
    re-run; it stays the from-scratch check for callers.  Connectivity is
    the loop's last cut: None from `_vertex_cut` on more than
    4*k_target^2 >= k_target vertices is `_is_k_connected`.  The boundary
    and the bounds on order (above 4*k_target^2) and boundary (at most
    2*k_target^2) come from validate's own `_boundary` and `_size_miss`.
    A miss raises ExtractionFailed, never a silent wrong answer.
    """
    core, boundary = _extract(g, k_target)
    return HCSubgraph(frozenset(_bits(core)), frozenset(_bits(boundary)), k_target)


def _extract(g: Graph, k_target: int) -> tuple[int, int]:
    """extract_connected_subgraph's core and boundary, as vertex masks."""
    if k_target < 1:
        raise ValueError("k_target must be at least 1")
    bound = 4 * k_target**2
    if g.min_degree() <= bound:
        raise ValueError(f"minimum degree must exceed {bound}")
    masks = g.adjacency_masks()
    candidate = g.full_mask()
    while (cut := _vertex_cut(masks, candidate, k_target)) is not None:
        # max keeps the first largest: ties go to the lowest vertex
        candidate = cut | max(g.components_within(candidate & ~cut), key=int.bit_count)
        # peel low-degree vertices to a fixed point
        while drop := mask_of(
            v for v in _bits(candidate) if (masks[v] & candidate).bit_count() < k_target
        ):
            candidate &= ~drop
        if not candidate:
            raise ExtractionFailed("candidate set peeled away entirely")
    boundary = _boundary(g, candidate)
    if miss := _size_miss(candidate.bit_count(), boundary.bit_count(), k_target):
        raise ExtractionFailed(miss)
    return candidate, boundary


def removable_tree_via_thomassen(
    g: Graph, k: int, tree: TreeSpec
) -> RemovalCertificate:
    """Remove a tree copy from a very dense graph via a highly connected core.

    Extracts a (k+m)-connected subgraph whose interior keeps full ambient
    degrees, takes the first image of `_tree_images` inside the interior,
    and certifies its deletion.  The precondition, minimum degree above
    4(k+m)^2, is checked by the extraction.  Under it the certificate must
    verify; a verified failure is not an ordinary error but a
    theorem-violation event, raised as TheoremViolation with full
    reproduction data.  ExtractionFailed propagates to the caller; nothing
    here falls back to `find_removable_tree`.
    """
    _require_k_edge_connected(g, k)
    core, boundary = _extract(g, k + tree.order)
    image = next(_tree_images(g, tree, core & ~boundary), None)
    if image is None:
        # interior degrees exceed 2*(k+m)^2 >= m, so this cannot happen
        raise InternalCheckError(
            "tree embedding failed inside a verified core interior"
        )
    cert = _first_certified(g, "tree", (image,), k)
    if cert is None:
        raise TheoremViolation(
            "verified core produced a tree whose removal broke"
            " k-edge-connectivity",
            {
                "graph": graph_payload(g),
                "k": k,
                "tree": tree.spec_string(),
                "removed": tuple(_bits(image)),
                "core": tuple(_bits(core)),
                "boundary": tuple(_bits(boundary)),
            },
        )
    return cert


def residual_min_cut(g: Graph, removed: Iterable[int]) -> EdgeCut:
    """A minimum edge-cut of g minus a vertex set, in ambient labels."""
    alive = g.full_mask() & ~g.mask(removed)
    if alive.bit_count() < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    return _edge_cut(g, alive)[1]


@dataclass(frozen=True)
class CutDecomposition:
    """How a small residual cut interacts with a highly connected core.

    The cut's two sides are split by membership in the core subgraph, and
    the cut-edge endpoints are listed per side.  The boolean diagnostics
    record the structural facts this decomposition must satisfy when the
    core is sufficiently connected (and, for `surviving_interior`, also
    sufficiently large); they are None when the respective hypothesis does
    not hold.
    """

    in_subgraph_side: frozenset[int]
    in_subgraph_complement: frozenset[int]
    outside_side: frozenset[int]
    outside_complement: frozenset[int]
    cut_ends_side: frozenset[int]
    cut_ends_complement: frozenset[int]
    cut_ends_small: bool
    subgraph_connected_enough: bool
    subgraph_large: bool
    first_dichotomy: bool | None
    second_dichotomy: bool | None
    surviving_interior: bool | None


def decompose_cut(
    g: Graph,
    core: HCSubgraph,
    tprime: Iterable[int],
    cut: EdgeCut,
    k: int,
) -> CutDecomposition:
    """Split a residual min cut's sides along a highly connected core.

    `tprime` is the removed tree image (inside the core's interior) and
    `cut` a minimum edge-cut of g minus tprime, given in ambient labels,
    with value at most k-1.  The six sets partition the surviving vertices.
    When the core induces a (k+|tprime|)-connected subgraph, each side's
    core part must vanish once cut endpoints are discounted unless the
    other side misses the core entirely; with the core also large, at
    least one side keeps a core vertex clear of the cut.  Violations of
    those facts raise TheoremViolation.
    """
    tset = frozenset(tprime)
    if k < 1:
        raise ValueError("k must be at least 1")
    core_mask = g.mask(core.vertices)
    if not tset <= core.interior():
        raise ValueError("tprime must lie in the core interior")
    if cut.value > k - 1:
        raise ValueError(f"cut value {cut.value} is not below {k}")
    masks = g.adjacency_masks()
    alive = g.full_mask() & ~mask_of(tset)
    cut.validate(g, alive)
    kprime = _edge_value(masks, alive, cut.value, 0)[0]  # exact: the cut bounds lambda
    if kprime != cut.value:
        raise ValueError(
            f"cut value {cut.value} is not minimum (residual has {kprime})"
        )

    side = frozenset(cut.side_a)
    complement = frozenset(cut.side_b)
    ends = {v for e in cut.edges for v in e}
    h = core.vertices
    d1 = frozenset(ends & side)
    d2 = frozenset(ends & complement)
    h1 = side & h
    h2 = complement & h
    k_target = k + len(tset)
    connected_enough = _is_k_connected(masks, core_mask, k_target)
    large = len(h) > 4 * k_target**2
    cut_ends_small = len(d1) <= k - 1 and len(d2) <= k - 1

    payload = {
        "graph": graph_payload(g),
        "k": k,
        "tprime": tuple(sorted(tset)),
        "cut_value": cut.value,
        "core": tuple(sorted(h)),
    }
    first = second = surviving = None
    if connected_enough:
        first = not (h1 - d1) or not h2
        second = not (h2 - d2) or not h1
        if not (first and second):
            raise TheoremViolation(
                "small residual cut splits the connected core", payload
            )
        if large:
            surviving = bool(h1 - d1) or bool(h2 - d2)
            if not surviving:
                raise TheoremViolation(
                    "large core left no interior vertex clear of the cut",
                    payload,
                )
    return CutDecomposition(
        in_subgraph_side=h1,
        in_subgraph_complement=h2,
        outside_side=side - h,
        outside_complement=complement - h,
        cut_ends_side=d1,
        cut_ends_complement=d2,
        cut_ends_small=cut_ends_small,
        subgraph_connected_enough=connected_enough,
        subgraph_large=large,
        first_dichotomy=first,
        second_dichotomy=second,
        surviving_interior=surviving,
    )
