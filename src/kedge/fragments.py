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
order.

Vertex labels inside a Fragment always refer to the ambient graph, not the
reindexed residual graph, so fragments living in different hosts can be
intersected directly with set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .connectivity import EdgeCut, _edge_value, _host_sides, is_k_edge_connected
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

    `side` and `complement` partition the surviving vertices, `cut_edges`
    is exactly the set of host edges between them, and `host_kprime` is the
    edge connectivity of the host (so `len(cut_edges) == host_kprime`).
    All vertices and edges use ambient-graph labels; the host is the ambient
    graph restricted to the surviving vertices.
    """

    graph: Graph
    deleted: tuple[int, ...]
    side: frozenset[int]
    complement: frozenset[int]
    cut_edges: frozenset[tuple[int, int]]
    host_kprime: int

    def __post_init__(self):
        object.__setattr__(self, "deleted", tuple(sorted(self.deleted)))
        object.__setattr__(self, "side", frozenset(self.side))
        object.__setattr__(self, "complement", frozenset(self.complement))
        object.__setattr__(
            self,
            "cut_edges",
            frozenset(
                (u, v) if u < v else (v, u) for u, v in self.cut_edges
            ),
        )

    @property
    def order(self) -> int:
        return len(self.side)

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
    host = f.graph
    if len(set(f.deleted)) != len(f.deleted):
        raise ValueError("deleted vertices repeat")
    alive = host.full_mask() & ~host.mask(f.deleted)
    EdgeCut(f.cut_edges, tuple(f.side), tuple(f.complement)).validate(host, alive)
    kprime, sides = _host_sides(host, alive)
    if kprime != f.host_kprime:
        raise ValueError(
            f"stored host connectivity {f.host_kprime} is wrong"
            f" (actual {kprime})"
        )
    side = mask_of(f.side)
    if len(f.cut_edges) != kprime:
        raise ValueError("cut is not a minimum edge-cut of the host")
    return side, alive & ~side, sides


def _fragment(g: Graph, e: tuple[int, int], alive: int, side: int, kprime: int) -> Fragment:
    """The fragment of g minus the endpoints of e with side mask `side`, on
    the host mask `alive` of connectivity kprime."""
    rest = alive & ~side
    halves = frozenset(_bits(side)), frozenset(_bits(rest))
    return Fragment(g, e, *halves, _edges_between(g, side, rest), kprime)


def _deficient_hosts(g: Graph, k: int, region: int):
    """(edge, host mask, connectivity, _host_sides's sides) for each edge of
    g, in order, whose endpoints lie in the mask `region` (so the region and
    the host cover g) and whose endpoint deletion leaves connectivity below k."""
    full = g.full_mask()
    for u, v in g.edges():
        alive = full & ~(1 << u | 1 << v)
        if region | alive == full:
            kprime, sides = _host_sides(g, alive)
            if kprime < k:
                yield (u, v), alive, kprime, sides


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
    alive = g.full_mask() & ~mask_of(e)
    kprime, sides = _host_sides(g, alive)
    if kprime >= k:
        return []
    return [_fragment(g, e, alive, side, kprime) for side in sides]


class OverlapVerdict(Enum):
    INTERSECTION_FRAGMENT = "intersection_fragment"
    SMALL_COMPLEMENT = "small_complement"
    HYPOTHESES_UNMET = "hypotheses_unmet"


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of one overlap check.

    For an INTERSECTION_FRAGMENT verdict the boundary counts are filled in:
    `intersection` is side(f) & side(f1), `remainder` below means
    side(f) - side(f1), and `outward` means complement(f) | complement(f1).
    `d_intersection_remainder` and `d_remainder_complement` count ambient
    edges and are equal; `d_intersection_outward` counts edges of the first
    host and equals `host_kprime`.
    """

    verdict: OverlapVerdict
    reason: str | None = None
    intersection: frozenset[int] | None = None
    d_intersection_remainder: int | None = None
    d_remainder_complement: int | None = None
    d_intersection_outward: int | None = None
    host_kprime: int | None = None


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
      a fragment of the first host, with the boundary counts described on
      OverlapResult holding exactly (INTERSECTION_FRAGMENT), or
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
    """The verdict of check_fragment_overlap on inputs already checked.

    `e` and `e1` are normalized edges of g.  `fs`/`fc` are the side and
    complement masks of a fragment of g minus the endpoints of e, and
    `f1s`/`f1c` those of a fragment of g minus the endpoints of e1.
    `host_sides` holds the side mask of every fragment of the first host,
    and `kprime` is that host's edge connectivity.
    """
    em = 1 << e[0] | 1 << e[1]
    e1m = 1 << e1[0] | 1 << e1[1]
    if em & e1m:
        return _unmet("edges share an endpoint")
    if em & ~f1s:
        return _unmet("first edge does not lie inside the second fragment's side")
    if e1m & ~fc:
        return _unmet("second edge does not lie inside the first fragment's complement")
    intersection = fs & f1s
    if not intersection:
        return _unmet("fragment sides are disjoint")

    if fc & f1c:
        masks = g.adjacency_masks()
        remainder = fs & ~f1s
        d_a = _boundary_count(masks, intersection, remainder)
        d_b = _boundary_count(masks, remainder, fc)
        # outward avoids V(e) (e is inside f1's side), so counting in g equals
        # counting in the first host
        d_out = _boundary_count(masks, intersection, fc | f1c)
        if intersection not in host_sides:
            failure = "side intersection is not a fragment of the first host"
        elif d_a != d_b:
            failure = "boundary counts around the side intersection differ"
        elif d_out != kprime:
            failure = "side intersection's host boundary is not a minimum cut"
        else:
            return OverlapResult(
                OverlapVerdict.INTERSECTION_FRAGMENT,
                intersection=frozenset(_bits(intersection)),
                d_intersection_remainder=d_a,
                d_remainder_complement=d_b,
                d_intersection_outward=d_out,
                host_kprime=kprime,
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
    overlap hypotheses, and runs the full check on each.  Fragments stay
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
    beta = 0
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
                    if res.verdict is OverlapVerdict.INTERSECTION_FRAGMENT:
                        alpha += 1
                    elif res.verdict is OverlapVerdict.SMALL_COMPLEMENT:
                        beta += 1
                    else:
                        raise InternalCheckError(
                            "pre-filtered configuration reported unmet hypotheses"
                        )
    return OverlapScanStats(pairs, configs, alpha, beta)


@dataclass(frozen=True)
class DescentResult:
    """Smallest fragment confined to a region; its deleted pair is the edge
    that spawned it."""

    fragment: Fragment
    region: frozenset[int]


def minimal_fragment_descent(f0: Fragment, k: int) -> DescentResult:
    """Find a smallest fragment inside f0's side plus the endpoints of e0.

    f0 is a fragment of g minus the endpoints of the edge e0.  The graph
    must be k-edge-connected with minimum degree at least k+2, and deleting
    e0's endpoints must drop the connectivity below k.  The search region
    is side(f0) plus both endpoints of e0.  Every edge induced by the region
    whose endpoint deletion is still deficient contributes all fragments
    whose side stays inside the region; the smallest one wins.  Ties break
    toward the lexicographically least sorted side, then the least edge.

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
        (side.bit_count(), _bits(side), edge, side, alive, kprime)
        for edge, alive, kprime, sides in _deficient_hosts(g, k, region)
        for side in sides
        if not side & ~region
    ]
    if not family:
        raise InternalCheckError("seed fragment vanished from its own family")
    _, _, edge, side, alive, kprime = min(family)
    fragment = _fragment(g, edge, alive, side, kprime)
    return DescentResult(fragment, frozenset(_bits(region)))


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


def verify_descent_conclusion(result: DescentResult, k: int) -> DescentConclusionReport:
    """Confirm no later fragment avoiding the chosen edge meets the minimal one.

    For every edge inside the minimal fragment's side whose endpoint
    deletion is still deficient, and every fragment of that residual graph:
    if the chosen edge lies in the fragment's complement, the fragment must
    be disjoint from the minimal side (TheoremViolation otherwise); if it
    lies in the fragment's side, the case is out of scope; if the fragment
    splits the chosen edge's endpoints, the case is recorded separately.
    """
    f1 = result.fragment
    g = f1.graph
    e1 = normalize_edge(g, f1.deleted)
    minimal, _, _ = _checked_fragment(f1)
    e1m = mask_of(e1)
    edges_checked = 0
    fragments_checked = 0
    disjoint = 0
    splits: list[tuple[tuple[int, int], tuple[int, ...], bool]] = []
    for edge, _, _, sides in _deficient_hosts(g, k, minimal):
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


@dataclass(frozen=True)
class DegreeBoundRow:
    vertex: int
    cross_neighbors: int
    inside_neighbors: int
    cross_bound: int
    cross_ok: bool
    inside_bound_applies: bool
    inside_ok: bool


@dataclass(frozen=True)
class FragmentDegreeReport:
    edge: tuple[int, int]
    side_order: int
    rows: tuple[DegreeBoundRow, ...]
    all_hold: bool


def fragment_degree_bounds(f1: Fragment, k: int) -> FragmentDegreeReport:
    """Per-vertex neighbor counts across a fragment's cut, with lower bounds.

    Requires minimum degree at least k+2 in the ambient graph.  Each vertex
    of the side has at most two neighbors among the deleted endpoints and
    at most |side|-1 inside, so it must have at least k - |side| + 1
    neighbors in the complement; a vertex with no complement neighbors must
    have at least k inside.  Both checks are reported per vertex.
    """
    g = f1.graph
    e1 = normalize_edge(g, f1.deleted)
    side, complement, _ = _checked_fragment(f1)
    if g.min_degree() < k + 2:
        raise ValueError(f"minimum degree must be at least {k + 2}")
    masks = g.adjacency_masks()
    order = len(f1.side)
    rows = []
    for z in _bits(side):
        cross = (masks[z] & complement).bit_count()
        inside = (masks[z] & side).bit_count()
        applies = cross == 0
        rows.append(
            DegreeBoundRow(
                vertex=z,
                cross_neighbors=cross,
                inside_neighbors=inside,
                cross_bound=k - order + 1,
                cross_ok=cross >= k - order + 1,
                inside_bound_applies=applies,
                inside_ok=inside >= k if applies else True,
            )
        )
    return FragmentDegreeReport(
        edge=e1,
        side_order=order,
        rows=tuple(rows),
        all_hold=all(r.cross_ok and r.inside_ok for r in rows),
    )
