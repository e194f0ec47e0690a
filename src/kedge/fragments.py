"""Fragment calculus for near-critical edge deletions.

Deleting both endpoints of an edge can drop a graph's edge connectivity
below a threshold of interest.  When it does, the sides of the minimum
edge-cuts of the residual graph ("fragments") carry a surprising amount of
structure: fragments coming from two different deleted edges either
intersect in another fragment or force a strict size inequality, and among
all fragments confined to a region there is a well-defined smallest one.
This module builds those objects and checks those facts exhaustively on
small hosts.  Every host's fragments come from connectivity._host_sides,
the package's one exhaustive min-cut routine, which also bounds the host's
order.  Under the descent's minimum degree k+2, a side vertex has at most
two deleted ends and at most |side|-1 side vertices among its neighbours,
so at least k - |side| + 1 lie in the complement; with none there, at
least k lie in the side.

Vertex labels inside a Fragment always refer to the ambient graph, not the
reindexed residual graph, so fragments living in different hosts can be
intersected directly with set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .connectivity import _edge_value, _host_sides, is_k_edge_connected
from .errors import InternalCheckError, TheoremViolation
from .graph import (
    Graph,
    _bits,
    _boundary_count,
    _edges_between,
    mask_of,
    normalize_edge,
)
from .io import graph_payload


@dataclass(frozen=True)
class Fragment:
    """One side of a minimum edge-cut of `graph` minus `deleted`.

    The record is the graph, the deleted pair and `side`; the rest is
    derived.  `complement` is the rest of the surviving vertices,
    `cut_edges` the host edges between the two, and `host_kprime` their
    count, which `validate` confirms is the host's edge connectivity.  All
    vertices and edges use ambient-graph labels; the host is the ambient
    graph restricted to the surviving vertices.
    """

    graph: Graph
    deleted: tuple[int, ...]
    side: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "deleted", tuple(sorted(self.deleted)))
        object.__setattr__(self, "side", frozenset(self.side))

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(self.graph.n)) - self.side - set(self.deleted)

    @property
    def cut_edges(self) -> frozenset[tuple[int, int]]:
        return _edges_between(self.graph, mask_of(self.side), mask_of(self.complement))

    @property
    def host_kprime(self) -> int:
        return len(self.cut_edges)

    def validate(self) -> None:
        """Recheck every structural invariant from scratch.

        Raises ValueError with a specific message on the first failure.  The
        host is scanned once, by _host_sides.  The sides of a cut of the host's
        positive connectivity are connected (see _host_sides): no check.
        """
        _checked_fragment(self)


def _checked_fragment(f: Fragment) -> tuple[int, int, list[int]]:
    """Validate f from scratch.  Returns f's side and complement masks and
    _host_sides's side masks of its host."""
    g = f.graph
    if len(set(f.deleted)) != len(f.deleted):
        raise ValueError("deleted vertices repeat")
    alive = g.full_mask() & ~g.mask(f.deleted)
    side = g.mask(f.side)
    if not side or side & ~alive or side == alive:
        raise ValueError("side must be a nonempty proper part of the host")
    _, sides = _host_sides(g, alive)
    if side not in sides:
        raise ValueError("side is not a side of a minimum edge-cut of the host")
    return side, alive & ~side, sides


def _deficient_hosts(g: Graph, k: int, region: int):
    """(edge, _host_sides's sides) for each edge of g, in order, whose
    endpoints lie in the mask `region` (so the region and the host cover g)
    and whose endpoint deletion leaves connectivity below k."""
    full = g.full_mask()
    for u, v in g.edges():
        alive = full & ~(1 << u | 1 << v)
        if region | alive == full:
            kprime, sides = _host_sides(g, alive)
            if kprime < k:
                yield (u, v), sides


def fragments_of(g: Graph, e: tuple[int, int], k: int) -> list[Fragment]:
    """Fragments of g with the endpoints of e deleted, when below threshold k.

    Returns the empty list when the residual edge connectivity is at least
    k.  Otherwise returns every side of every minimum edge-cut of the
    residual graph (both orientations, deduplicated by side, sorted by
    sorted side).  Residual graphs larger than the exhaustive enumeration
    limit are an error.
    """
    e = normalize_edge(g, e)
    if g.n < 4:
        raise ValueError("graph must have at least 4 vertices")
    if k < 1:
        raise ValueError("threshold must be at least 1")
    kprime, sides = _host_sides(g, g.full_mask() & ~mask_of(e))
    if kprime >= k:
        return []
    return [Fragment(g, e, _bits(side)) for side in sides]


class OverlapVerdict(Enum):
    INTERSECTION_FRAGMENT = "intersection_fragment"
    SMALL_COMPLEMENT = "small_complement"
    HYPOTHESES_UNMET = "hypotheses_unmet"


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of one overlap check.

    For either conclusion `intersection` is side(f) & side(f1).  For an
    INTERSECTION_FRAGMENT verdict `d_intersection_remainder` counts the
    ambient edges from it to side(f) - side(f1); it equals the count between
    that remainder and complement(f) (see _overlap_verdict).
    """

    verdict: OverlapVerdict
    reason: str | None = None
    intersection: frozenset[int] | None = None
    d_intersection_remainder: int | None = None


def _unmet(reason: str) -> OverlapResult:
    return OverlapResult(OverlapVerdict.HYPOTHESES_UNMET, reason=reason)


def check_fragment_overlap(f: Fragment, f1: Fragment) -> OverlapResult:
    """Check the overlap dichotomy for fragments of two edge deletions.

    `f` is a fragment of g minus the endpoints of an edge `e`, and `f1` of
    the same g minus those of an edge `e1`; anything else is a ValueError.
    The hypotheses are: the edges share no endpoint, `e` lies inside f1's
    side, `e1` lies inside f's complement, and the two sides intersect.  If
    any fails, the verdict is HYPOTHESES_UNMET with a reason.

    When the hypotheses hold, exactly one of two conclusions must:

    - the complements also intersect, and then side(f) & side(f1) is itself
      a fragment of the first host, whose boundary there is a minimum cut
      (INTERSECTION_FRAGMENT), or
    - the complements are disjoint, and then f's complement is strictly
      smaller than f1's side (SMALL_COMPLEMENT).

    A failed conclusion raises TheoremViolation.
    """
    g = f.graph
    if f1.graph != g:
        raise ValueError("f and f1 are fragments of different graphs")
    e, e1 = normalize_edge(g, f.deleted), normalize_edge(g, f1.deleted)
    fs, fc, host_sides = _checked_fragment(f)
    f1s, f1c, _ = _checked_fragment(f1)
    em, e1m = mask_of(e), mask_of(e1)
    if em & e1m:
        return _unmet("edges share an endpoint")
    if em & ~f1s:
        return _unmet("first edge does not lie inside the second fragment's side")
    if e1m & ~fc:
        return _unmet("second edge does not lie inside the first fragment's complement")
    if not fs & f1s:
        return _unmet("fragment sides are disjoint")
    return _overlap_verdict(g, e, e1, fs, fc, f1s, f1c, frozenset(host_sides), f.host_kprime)


def _overlap_verdict(
    g: Graph,
    e: tuple[int, int],
    e1: tuple[int, int],
    fs: int,
    fc: int,
    f1s: int,
    f1c: int,
    host_sides: frozenset[int],
    kprime: int,
) -> OverlapResult:
    """The conclusion of check_fragment_overlap on inputs that meet its
    hypotheses.

    `e` and `e1` are normalized edges of g.  `fs`/`fc` are the side and
    complement masks of a fragment of g minus the endpoints of e, and
    `f1s`/`f1c` those of a fragment of g minus the endpoints of e1.
    `host_sides` holds the side mask of every fragment of the first host,
    and `kprime` is that host's edge connectivity.

    Let X = fs & f1s and R = fs - f1s.  The hypotheses give fc | f1c =
    R | fc: f1c avoids V(e), which lies in f1s, and meets fs exactly in R,
    as V(e1) lies in fc.  So fc | f1c is the rest of the first host, and
    counting X's boundary there in g counts it in that host.  Once that
    count is kprime, d(X, R) + d(X, fc) = kprime, and f's own cut gives
    d(X, fc) + d(R, fc) = d(fs, fc) = kprime, so d(X, R) = d(R, fc) needs
    no recount.
    """
    intersection = fs & f1s
    if fc & f1c:
        masks = g.adjacency_masks()
        if intersection not in host_sides:
            failure = "side intersection is not a fragment of the first host"
        elif _boundary_count(masks, intersection, fc | f1c) != kprime:
            failure = "side intersection's host boundary is not a minimum cut"
        else:
            return OverlapResult(
                OverlapVerdict.INTERSECTION_FRAGMENT,
                intersection=frozenset(_bits(intersection)),
                d_intersection_remainder=_boundary_count(masks, intersection, fs & ~f1s),
            )
    elif fc.bit_count() < f1s.bit_count():
        return OverlapResult(
            OverlapVerdict.SMALL_COMPLEMENT, intersection=frozenset(_bits(intersection))
        )
    else:
        failure = "disjoint complements but f's complement is not smaller than f1's side"
    payload = {
        "graph": graph_payload(g),
        "e": e,
        "e1": e1,
        "f_side": tuple(_bits(fs)),
        "f1_side": tuple(_bits(f1s)),
    }
    raise TheoremViolation(failure, payload)


@dataclass(frozen=True)
class OverlapScanStats:
    edge_pairs: int
    configurations: int
    intersection_fragment: int
    small_complement: int


def scan_overlap_cases(g: Graph) -> OverlapScanStats:
    """Run the overlap check on every hypothesis-satisfying pair in g.

    Enumerates all ordered pairs of nonadjacent edges and all fragment
    pairs of the two residual graphs, filters to configurations meeting the
    overlap hypotheses, and checks the conclusion on each.  Fragments stay
    side and complement masks throughout.  Each host is checked once,
    against a route that scans no bipartition: its connectivity must equal
    the value kernel's, which the far-pair path bound or the
    maximum-adjacency orderings give, and every side's boundary, recounted
    from the adjacency masks, must equal it; a mismatch raises
    InternalCheckError.  Any conclusion failure surfaces as the checker's
    TheoremViolation.
    """
    if g.n < 4:
        return OverlapScanStats(0, 0, 0, 0)
    masks = g.adjacency_masks()
    edges = g.edges()
    hosts = {}
    for edge in edges:
        alive = g.full_mask() & ~mask_of(edge)
        kprime, sides = _host_sides(g, alive)
        # stop 1 still gives lambda exactly (a value below 1 is 0) and ends a
        # disconnected host at its first isolated vertex or after one ordering
        if _edge_value(masks, alive, alive.bit_count(), 1)[0] != kprime:
            raise InternalCheckError(
                f"host of edge {edge}: bipartition scan gives {kprime}, the value"
                " kernel (far-pair bound or maximum-adjacency orderings) disagrees"
            )
        frags = [(side, alive & ~side) for side in sides]
        if any(_boundary_count(masks, side, rest) != kprime for side, rest in frags):
            raise InternalCheckError(
                f"host of edge {edge}: a fragment's boundary is not {kprime}"
            )
        hosts[edge] = (kprime, frags, frozenset(sides))
    pairs = 0
    configs = 0
    alpha = 0
    for e in edges:
        em = 1 << e[0] | 1 << e[1]
        kprime, frags, host_sides = hosts[e]
        for e1 in edges:
            e1m = 1 << e1[0] | 1 << e1[1]
            if em & e1m:
                continue
            pairs += 1
            for fs, fc in frags:
                if e1m & ~fc:
                    continue
                for f1s, f1c in hosts[e1][1]:
                    if em & ~f1s or not fs & f1s:
                        continue
                    configs += 1
                    res = _overlap_verdict(
                        g, e, e1, fs, fc, f1s, f1c, host_sides, kprime
                    )
                    alpha += res.verdict is OverlapVerdict.INTERSECTION_FRAGMENT
    return OverlapScanStats(pairs, configs, alpha, configs - alpha)


def minimal_fragment_descent(f0: Fragment, k: int) -> Fragment:
    """Find a smallest fragment inside f0's side plus the endpoints of e0.

    f0 is a fragment of g minus the endpoints of the edge e0.  The graph
    must be k-edge-connected with minimum degree at least k+2, and deleting
    e0's endpoints must drop the connectivity below k.  The search region
    is side(f0) plus both endpoints of e0.  Every edge induced by the region
    whose endpoint deletion is still deficient contributes all fragments
    whose side stays inside the region; the smallest one wins.  Ties break
    toward the lexicographically least sorted side, then the least edge.
    Its `deleted` pair is the edge that spawned it.

    The seed fragment itself belongs to the family, so the result is never
    larger than f0; when f0 is already minimal the descent returns it
    unchanged.
    """
    g = f0.graph
    e0 = normalize_edge(g, f0.deleted)
    if not is_k_edge_connected(g, k):
        raise ValueError(f"graph is not {k}-edge-connected")
    if g.min_degree() < k + 2:
        raise ValueError(f"minimum degree must be at least {k + 2}")
    seed, _, _ = _checked_fragment(f0)
    if f0.host_kprime >= k:
        raise ValueError(
            "deleting e0's endpoints does not drop the connectivity below"
            f" {k}"
        )

    region = seed | mask_of(e0)
    family = [
        (side.bit_count(), _bits(side), edge)
        for edge, sides in _deficient_hosts(g, k, region)
        for side in sides
        if not side & ~region
    ]
    if not family:
        raise InternalCheckError("seed fragment vanished from its own family")
    _, side, edge = min(family)
    return Fragment(g, edge, side)


@dataclass(frozen=True)
class DescentConclusionReport:
    """Exhaustive audit of the minimal fragment's meeting pattern.

    `split_endpoint_cases` records fragments that contain exactly one
    endpoint of the chosen edge, as (edge, sorted side, meets-minimal)
    triples; the dichotomy does not cover them, so they are reported
    rather than judged.
    """

    edges_checked: int
    fragments_checked: int
    disjoint_confirmed: int
    split_endpoint_cases: tuple[tuple[tuple[int, int], tuple[int, ...], bool], ...]
    min_side_degree: int


def verify_descent_conclusion(f1: Fragment, k: int) -> DescentConclusionReport:
    """Confirm no later fragment avoiding the chosen edge meets the minimal one.

    `f1` is the minimal fragment that `minimal_fragment_descent` returns,
    and the chosen edge is its deleted pair.  For every edge inside f1's
    side whose endpoint deletion is still deficient, and every fragment of
    that residual graph:
    if the chosen edge lies in the fragment's complement, the fragment must
    be disjoint from the minimal side (TheoremViolation otherwise); if it
    lies in the fragment's side, the case is out of scope; if the fragment
    splits the chosen edge's endpoints, the case is recorded separately.
    """
    g = f1.graph
    e1 = normalize_edge(g, f1.deleted)
    minimal, _, _ = _checked_fragment(f1)
    e1m = mask_of(e1)
    edges_checked = 0
    fragments_checked = 0
    disjoint = 0
    splits: list[tuple[tuple[int, int], tuple[int, ...], bool]] = []
    for edge, sides in _deficient_hosts(g, k, minimal):
        edges_checked += 1
        for side in sides:
            fragments_checked += 1
            inside = (e1m & side).bit_count()
            if inside == 2:
                continue
            if inside == 1:
                splits.append((edge, tuple(_bits(side)), bool(side & minimal)))
                continue
            if side & minimal:
                raise TheoremViolation(
                    "a fragment avoiding the chosen edge still meets the"
                    " minimal fragment",
                    {
                        "graph": graph_payload(g),
                        "chosen_edge": e1,
                        "minimal_side": tuple(_bits(minimal)),
                        "offending_edge": edge,
                        "offending_side": tuple(_bits(side)),
                    },
                )
            disjoint += 1
    masks = g.adjacency_masks()
    return DescentConclusionReport(
        edges_checked=edges_checked,
        fragments_checked=fragments_checked,
        disjoint_confirmed=disjoint,
        split_endpoint_cases=tuple(splits),
        min_side_degree=min((masks[v] & minimal).bit_count() for v in _bits(minimal)),
    )
