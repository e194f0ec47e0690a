"""Connectivity kernels against each other and the exhaustive bipartition oracle."""

import itertools
from heapq import heappop, heappush

import pytest

from kedge import connectivity
from kedge.connectivity import (
    EXHAUSTIVE_LIMIT,
    EdgeCut,
    _edge_cut,
    _edge_value,
    _scan_bipartitions,
    connectivity_report,
    edge_connectivity,
    edge_connectivity_bruteforce,
    enumerate_min_edge_cuts,
    is_k_connected,
    is_k_edge_connected,
    local_edge_connectivity,
    vertex_connectivity,
    vertex_cut_below,
)
from kedge.generators import (
    all_graphs,
    complete,
    complete_bipartite,
    cycle_graph,
    gen_with_hypotheses,
    petersen_graph,
    random_graph,
    two_cliques_bridged,
)
from kedge.graph import Graph, _bits, _edges_between, boundary_edge_count, mask_of
from kedge.rng import SplitMix64

from conftest import path_graph, seeded_random_graphs


def test_known_edge_connectivity_values():
    cases = [
        (complete(5), 4),
        (complete_bipartite(3, 4), 3),
        (cycle_graph(6), 2),
        (petersen_graph(), 3),
        (path_graph(5), 1),
        (two_cliques_bridged(5, 2), 2),
        (Graph(4, []), 0),
        (Graph(4, [(0, 1), (2, 3)]), 0),
        # two K_6 joined by one edge: delta = 5 = n/2 - 1, just below
        # Chartrand's bound, and lambda = 1
        (two_cliques_bridged(6, 1), 1),
    ]
    for g, want in cases:
        kprime, cut = edge_connectivity(g)
        assert kprime == want
        cut.validate(g)
        assert cut.value == want
    assert edge_connectivity(two_cliques_bridged(6, 1))[1].edges == {(0, 6)}
    # lambda = 0: side_a is the component of vertex 0, not the lowest
    # vertex of minimum degree (2) flipped
    assert edge_connectivity(Graph(4, [(0, 1)]))[1].side_a == (0, 1)


def test_cut_sides_partition():
    g = two_cliques_bridged(4, 1)
    kprime, cut = edge_connectivity(g)
    assert kprime == 1
    assert sorted(cut.side_a + cut.side_b) == list(range(g.n))
    assert cut.edges == {(0, 4)}
    # two triangles joined by a path: lambda = 1 < 2 = delta and three tied
    # bridges; the witness is the first prefix to reach 1, not a later tie
    g = Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
    assert edge_connectivity(g) == (1, EdgeCut(frozenset({(2, 3)}), (0, 1, 2), (3, 4, 5, 6, 7)))
    # a star: lambda is the minimum degree, so the cut isolates the lowest
    # vertex of that degree, 1, and side_a is flipped to hold 0
    star = Graph(3, [(0, 1), (0, 2)])
    assert edge_connectivity(star)[1] == EdgeCut(frozenset({(0, 1)}), (0, 2), (1,))


def test_cut_validation_names_a_negative_vertex():
    """A cut side holding a vertex below or above the range names it, before
    the partition is checked."""
    g = path_graph(3)
    with pytest.raises(ValueError, match="vertex -1 out of range for n=3"):
        EdgeCut(frozenset(), (-1,), (0,)).validate(g)
    with pytest.raises(ValueError, match="vertex 3 out of range for n=3"):
        EdgeCut(frozenset(), (3,), (0, 1, 2)).validate(g)
    with pytest.raises(ValueError, match="partition"):
        EdgeCut(frozenset(), (0,), (1,)).validate(g)


def test_local_edge_connectivity():
    g = two_cliques_bridged(4, 2)
    assert local_edge_connectivity(g, 0, 7) == 2
    # 0 and 1 each carry a bridge, giving a fourth path through the far clique
    assert local_edge_connectivity(g, 0, 1) == 4
    assert local_edge_connectivity(g, 2, 3) == 3
    with pytest.raises(ValueError):
        local_edge_connectivity(g, 0, 0)
    # the third path needs the edge (0, 3), freed when the second path
    # cancelled the first's unit on it
    g = Graph(12, [
        (0, 2), (0, 3), (0, 5), (0, 10), (1, 7), (1, 10), (2, 8),
        (3, 6), (3, 7), (3, 9), (5, 6), (6, 8), (9, 11), (10, 11),
    ])
    assert local_edge_connectivity(g, 6, 10) == 3
    # a fractional, negative or NaN cap is refused rather than rounded or
    # read as a cap of 0
    for cap in (2.5, -3, float("nan")):
        with pytest.raises(ValueError, match="nonnegative integer"):
            local_edge_connectivity(complete(5), 0, 1, cap)
    assert local_edge_connectivity(complete(5), 0, 1, 0) == 0


def test_is_k_edge_connected_conventions():
    assert is_k_edge_connected(Graph(1), 1)
    assert not is_k_edge_connected(Graph(1), 2)
    assert not is_k_edge_connected(Graph(0), 1)
    assert is_k_edge_connected(complete(4), 3)
    assert not is_k_edge_connected(complete(4), 4)
    with pytest.raises(ValueError):
        is_k_edge_connected(path_graph(3), 0)


def test_is_k_edge_connected_at_one_is_the_value_kernel():
    """The k = 1 decision by mask BFS agrees with the value kernel on every
    labeled graph of 2 to 6 vertices."""
    graphs = connected = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            want = _edge_value(g.adjacency_masks(), g.full_mask(), 1, 1)[0] >= 1
            assert is_k_edge_connected(g, 1) == want
            graphs += 1
            connected += want
    assert graphs == 33866 and connected == 1 + 4 + 38 + 728 + 26704


def test_bruteforce_matches_flow_on_small_graphs():
    for g in seeded_random_graphs(60, 2, 9, seed=31):
        want, _ = edge_connectivity(g)
        assert edge_connectivity_bruteforce(g) == want


def test_enumerate_min_edge_cuts_c4():
    cuts = enumerate_min_edge_cuts(cycle_graph(4))
    # 4 singleton splits plus the 2 opposite-pair splits
    assert len(cuts) == 6
    assert all(c.value == 2 for c in cuts)
    assert all(0 in c.side_a for c in cuts)
    sides = [c.side_a for c in cuts]
    assert sides == sorted(sides)


def test_enumerate_min_edge_cuts_bridge():
    cuts = enumerate_min_edge_cuts(two_cliques_bridged(3, 1))
    assert len(cuts) == 1
    assert cuts[0].edges == {(0, 3)}


def test_vertex_connectivity_values():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(petersen_graph()) == 3
    assert vertex_connectivity(cycle_graph(7)) == 2
    assert vertex_connectivity(path_graph(4)) == 1
    assert vertex_connectivity(Graph(3, [(0, 1)])) == 0


def test_vertex_cut_below():
    g = two_cliques_bridged(4, 1)
    cut = vertex_cut_below(g, 2)
    assert cut is not None and len(cut) == 1
    h, _ = g.delete_vertices(cut)
    assert not h.is_connected()
    assert vertex_cut_below(complete(4), 4) is None
    assert vertex_cut_below(Graph(4, [(0, 1), (2, 3)]), 1) == ()
    # a minimum cut, not merely the first cut below k: {2, 3} also
    # separates 0 from 1, but the cut vertex 0 alone is smaller
    assert vertex_cut_below(Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]), 3) == (0,)


def test_is_k_connected():
    assert is_k_connected(petersen_graph(), 3)
    assert not is_k_connected(petersen_graph(), 4)
    assert is_k_connected(Graph(1), 1)
    assert not is_k_connected(Graph(1), 2)


def test_vertex_le_edge_le_min_degree():
    """Whitney's inequality chain on random samples."""
    for g in seeded_random_graphs(40, 2, 10, seed=77):
        if not g.is_connected():
            continue
        kappa = vertex_connectivity(g)
        kprime, _ = edge_connectivity(g)
        assert kappa <= kprime <= g.min_degree()


def test_connectivity_report():
    rep = connectivity_report(petersen_graph())
    assert (rep.n, rep.edge_count, rep.min_degree) == (10, 15, 3)
    assert rep.edge_connectivity == 3 and rep.vertex_connectivity == 3
    assert rep.to_dict() == {
        "n": 10,
        "edge_count": 15,
        "min_degree": 3,
        "edge_connectivity": 3,
        "vertex_connectivity": 3,
    }
    single = connectivity_report(Graph(1))
    assert single.edge_connectivity is None and single.vertex_connectivity is None
    assert single.to_dict() == {
        "n": 1,
        "edge_count": 0,
        "min_degree": 0,
        "edge_connectivity": None,
        "vertex_connectivity": None,
    }


def test_exhaustive_limit_is_enforced():
    big = complete(EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ValueError, match="exhaustive limit"):
        enumerate_min_edge_cuts(big)
    with pytest.raises(ValueError, match="exhaustive limit"):
        edge_connectivity_bruteforce(big)


def test_enumerate_min_edge_cuts_rejects_what_has_no_cut_to_list():
    with pytest.raises(ValueError, match="expects a connected graph"):
        enumerate_min_edge_cuts(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="at least two vertices"):
        enumerate_min_edge_cuts(Graph(1))


def _min_cuts_by_definition(g):
    """Oracle value and minimum cuts from the definitions, side by side.

    Every bipartition with vertex 0 on the first side, its boundary count,
    and, for the cuts, both sides inducing connected subgraphs.
    """
    counts = {}
    for size in range(1, g.n):
        for rest in itertools.combinations(range(1, g.n), size - 1):
            side = (0, *rest)
            other = tuple(v for v in range(g.n) if v not in side)
            counts[side, other] = boundary_edge_count(g, side, other)
    value = min(counts.values())
    cuts = [
        (frozenset(e for e in g.edges() if (e[0] in side) != (e[1] in side)), side, other)
        for (side, other), count in sorted(counts.items())
        if count == value
        and g.induced_subgraph(side)[0].is_connected()
        and g.induced_subgraph(other)[0].is_connected()
    ]
    return value, cuts


def test_bipartition_scanner_matches_definition():
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += seeded_random_graphs(40, 7, 12, seed=53)
    graphs += seeded_random_graphs(20, 7, 12, seed=59, p=0.3)
    for g in graphs:
        value, cuts = _min_cuts_by_definition(g)
        assert edge_connectivity_bruteforce(g) == value
        if g.is_connected():
            got = [(c.edges, c.side_a, c.side_b) for c in enumerate_min_edge_cuts(g)]
            assert got == cuts


def _scan_by_reference(masks, alive):
    """The bipartition scan with step i's flipped index recomputed as the
    lowest set bit of i, for i = 1 .. 2^c - 1, instead of read from a table."""
    root = alive & -alive
    others = _bits(alive & ~root)
    side = root
    boundary = (masks[root.bit_length() - 1] & alive).bit_count()
    best, sides = boundary, [side]
    for i in range(1, 1 << len(others)):
        v = others[(i & -i).bit_length() - 1]
        side ^= 1 << v
        inside = (masks[v] & alive & side).bit_count()
        outside = (masks[v] & alive & ~side).bit_count()
        boundary += outside - inside if side >> v & 1 else inside - outside
        if boundary <= best and side != alive:
            if boundary < best:
                best, sides = boundary, []
            sides.append(side)
    return best, sides


def _check_scan(g, alive):
    """The scan of g on `alive` equals the reference walk, and on a connected
    host both halves of every side it returns are connected: a half split
    into parts with no edge between would have boundary at least twice the
    positive minimum.  Returns whether the host is connected."""
    masks = g.adjacency_masks()
    best, sides = _scan_bipartitions(masks, alive)
    assert (best, sides) == _scan_by_reference(masks, alive)
    if not g.connected_within(alive):
        return False
    for side in sides:
        assert g.connected_within(side) and g.connected_within(alive & ~side)
    return True


def test_scanner_matches_reference_walk():
    for c in range(16):
        assert list(connectivity._gray_flips(c)) == [
            (i & -i).bit_length() - 1 for i in range(1, 1 << c)
        ]
    scans = connected = 0
    for n in range(2, 6):
        for g in all_graphs(n):
            for alive in range(1, 1 << g.n):
                if alive.bit_count() >= 2:
                    connected += _check_scan(g, alive)
                    scans += 1
    assert (scans, connected) == (27362, 14383)
    rng = SplitMix64(71)
    for g in seeded_random_graphs(30, 6, 12, seed=73):
        full = g.full_mask()
        alives = [full] + [full & ~(1 << rng.randrange(g.n)) for _ in range(2)]
        alives.append(full & rng.next_u64() | 3)
        for alive in alives:
            _check_scan(g, alive)
    # the scan runs in byte rows from 8 alive vertices: K_16 fills balanced
    # fields with 64, the largest boundary; a perfect matching gives value 0
    # and 127 sides; holes in `alive`, vertex 0 among them, leave every
    # alive size from 8 to 16, each on two graphs
    matching = Graph(16, [(v, v + 1) for v in range(0, 16, 2)])
    for g in (complete(16), complete_bipartite(8, 8), matching):
        assert _check_scan(g, g.full_mask()) == (g is not matching)
    assert _scan_bipartitions(matching.adjacency_masks(), matching.full_mask())[0] == 0
    assert len(_scan_bipartitions(matching.adjacency_masks(), matching.full_mask())[1]) == 127
    for i, g in enumerate(seeded_random_graphs(18, 16, 16, seed=79, p=0.6)):
        holes = {7 * j % 16 for j in range(i // 2)}
        assert (g.full_mask() & ~mask_of(holes)).bit_count() == 16 - i // 2
        _check_scan(g, g.full_mask() & ~mask_of(holes))


def test_scan_walks_in_rows_from_eight_vertices(monkeypatch):
    """Hosts of up to 7 alive vertices walk every other vertex; larger ones
    carry the lowest 8 others, or all of them, in rows and walk the rest."""
    walks = []
    real = connectivity._gray_flips
    monkeypatch.setattr(connectivity, "_gray_flips", lambda c: walks.append(c) or real(c))
    for n in range(2, EXHAUSTIVE_LIMIT + 1):
        _scan_bipartitions(complete(n).adjacency_masks(), complete(n).full_mask())
    assert walks == list(range(1, 7)) + [0, 0, 1, 2, 3, 4, 5, 6, 7]


def _vertex_connectivity_by_definition(g):
    """Size of the smallest vertex set whose deletion disconnects g or
    leaves at most one vertex, from subsets in order of size."""
    full = g.full_mask()
    for size in range(g.n):
        for gone in itertools.combinations(range(g.n), size):
            rest = full & ~sum(1 << v for v in gone)
            if rest.bit_count() <= 1 or not g.connected_within(rest):
                return size
    raise AssertionError("deleting n - 1 vertices always leaves one")


def test_vertex_connectivity_matches_definition(monkeypatch):
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += seeded_random_graphs(60, 6, 12, seed=61)
    graphs += seeded_random_graphs(30, 6, 12, seed=67, p=0.8)
    # dense: some non-adjacent pairs share k neighbours or more and need no flow
    dense = seeded_random_graphs(30, 8, 12, seed=71, p=0.9)
    graphs += dense
    for g in graphs:
        kappa = _vertex_connectivity_by_definition(g)
        assert vertex_connectivity(g) == kappa
        is_complete = g.edge_count == g.n * (g.n - 1) // 2
        for k in range(1, g.n + 1):
            assert is_k_connected(g, k) == (kappa >= k)
            cut = vertex_cut_below(g, k)
            # a complete graph has no vertex cut at all
            if kappa >= k or is_complete:
                assert cut is None
            else:
                assert len(cut) == kappa
                assert not g.delete_vertices(cut)[0].is_connected()
    # a dense call can both skip a source's non-neighbours and run flows to
    # others: record the sinks each source's flows reach
    sinks = {}
    augment = connectivity._augment

    def recording(masks, alive, s, t, into):
        sinks.setdefault(s, set()).add(t)
        return augment(masks, alive, s, t, into)

    monkeypatch.setattr(connectivity, "_augment", recording)
    mixed = 0
    for g in dense:
        masks = g.adjacency_masks()
        for k in range(1, g.n + 1):
            sinks.clear()
            vertex_cut_below(g, k)
            mixed += any(
                reached != set(_bits(g.full_mask() & ~masks[s] & ~(1 << s)))
                for s, reached in sinks.items()
            )
    assert mixed > 0


def test_augment_paths_and_cut_certify_each_other():
    """_augment to the end on every non-adjacent pair of sparse seeded graphs:
    `into` holds internally disjoint s-t paths (and nothing but closed cycles
    besides), and the cut separates s from t with one vertex per path, so
    both are optimal (Menger)."""
    # the second path must reroute the first, 0-1-2-3-4: from 3's entry it
    # backs through 2's exit and entry to 1's exit, leaving 2 off both paths
    rerouted = Graph(9, [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3), (1, 7), (7, 8), (8, 4),
    ])
    graphs = [rerouted] + seeded_random_graphs(40, 10, 22, seed=83, p=0.18)
    for g in graphs:
        masks, full = g.adjacency_masks(), g.full_mask()
        for s, t in itertools.permutations(range(g.n), 2):
            if masks[s] >> t & 1:
                continue
            into = {}
            while (cut := connectivity._augment(masks, full, s, t, into)) is None:
                pass
            # each path ends at the one vertex on it that feeds no other
            ends = [v for v in into if v not in into.values()]
            on_paths = set()
            for v in ends:
                assert masks[v] >> t & 1
                while v != s:
                    assert v not in on_paths and masks[v] >> into[v] & 1
                    on_paths.add(v)
                    v = into[v]
            rest = set(into) - on_paths
            assert {into[v] for v in rest} == rest
            assert cut.bit_count() == len(ends) and not cut & (1 << s | 1 << t)
            side = 1 << s
            for _ in range(g.n):
                side |= mask_of(u for v in _bits(side) for u in _bits(masks[v] & ~cut))
            assert not side >> t & 1
    into = {}
    masks, full = rerouted.adjacency_masks(), rerouted.full_mask()
    while connectivity._augment(masks, full, 0, 4, into) is None:
        pass
    assert into == {1: 0, 7: 1, 8: 7, 5: 0, 6: 5, 3: 6}


def _vertex_cut_with_degree_pass(masks, alive, k):
    """_vertex_cut with the bound started at min(k, min degree + 1, n - 1)
    after decoding every alive vertex: the same sources, skips and flows."""
    verts = _bits(alive)
    min_degree = min([(masks[v] & alive).bit_count() for v in verts], default=0)
    best, cut = min(k, min_degree + 1, len(verts) - 1), None
    for i, s in enumerate(verts):
        if i >= best:
            break
        for t in _bits(alive & ~masks[s] & ~(1 << s)):
            if (masks[s] & masks[t] & alive).bit_count() >= best:
                continue
            into = {}
            for _ in range(best):
                found = connectivity._augment(masks, alive, s, t, into)
                if found is not None:
                    cut, best = found, found.bit_count()
                    break
    return cut


def test_vertex_cut_is_the_one_a_degree_pass_gives():
    """The extraction keeps the cut, so pin which one comes back: starting
    the bound at k instead of the minimum degree + 1 moves no cut, on every
    alive mask of every graph with n <= 5 and on seeded graphs with n = 7-30,
    for k = 1..n."""
    cases = []
    for n in range(2, 6):
        for g in all_graphs(n):
            cases += [(g, alive) for alive in range(1, 1 << g.n)]
    rng = SplitMix64(29)
    for i in range(60):
        g = random_graph(7 + rng.randrange(24), 0.2 + i % 8 / 10, i)
        cases += [(g, g.full_mask()), (g, g.full_mask() & ~rng.randrange(1 << g.n) | 1)]
    cuts = set()
    for g, alive in cases:
        masks = g.adjacency_masks()
        for k in range(1, g.n + 1):
            cut = connectivity._vertex_cut(masks, alive, k)
            assert cut == _vertex_cut_with_degree_pass(masks, alive, k)
            cuts.add(None if cut is None else cut.bit_count())
    assert {None, 0, 1, 2, 3, 4} <= cuts


def test_vertex_connectivity_runs_flows_up_to_the_minimum_degree(monkeypatch):
    """vertex_connectivity has no k and starts the bound at the minimum
    degree + 1: K_{5,40} takes 6 _augment calls, 5 paths and the cut.
    Started at n, the bound would take 47."""
    calls = []
    augment = connectivity._augment

    def counting(*args):
        calls.append(args)
        return augment(*args)

    monkeypatch.setattr(connectivity, "_augment", counting)
    assert vertex_connectivity(complete_bipartite(5, 40)) == 5
    assert len(calls) == 6


def test_vertex_connectivity_matches_networkx():
    """A third route for kappa, beyond the definition's reach: networkx's
    node_connectivity on seeded graphs with n = 17-60; below kappa + 1 no cut,
    at it a cut of kappa vertices that separates the graph."""
    nx = pytest.importorskip("networkx")
    graphs = [
        random_graph(n, min(0.9, (2 + i % 7) / n), i)
        for i, n in enumerate(range(17, 61, 5))
    ]
    graphs += [gen_with_hypotheses(17 + 4 * i, 1 + i % 4, 2 + i % 5, i) for i in range(8)]
    graphs += [two_cliques_bridged(q, b) for q, b in ((9, 1), (12, 3), (20, 5), (30, 2))]
    kappas = set()
    for g in graphs:
        h = nx.Graph(g.edges())
        h.add_nodes_from(g.vertices())
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        kappas.add(kappa)
        for k in range(1, kappa + 1):
            assert vertex_cut_below(g, k) is None
        cut = vertex_cut_below(g, kappa + 1)
        assert len(cut) == kappa
        assert not g.connected_within(g.full_mask() & ~mask_of(cut))
    assert {0, 1, 2, 3} <= kappas


def test_edge_connectivity_matches_networkx():
    """A third route for lambda, beyond the oracle's reach: networkx's
    edge_connectivity on seeded graphs with n = 20-60, and each witness cut
    a valid cut of that value."""
    nx = pytest.importorskip("networkx")
    graphs = [
        random_graph(n, min(0.9, (2 + i % 7) / n), i)
        for i, n in enumerate(range(20, 61, 5))
    ]
    graphs += [gen_with_hypotheses(20 + 5 * i, 1 + i % 4, 2 + i % 5, i) for i in range(8)]
    graphs += [two_cliques_bridged(q, b) for q, b in ((10, 1), (15, 3), (30, 4))]
    lambdas = set()
    for g in graphs:
        h = nx.Graph(g.edges())
        h.add_nodes_from(g.vertices())
        kprime, cut = edge_connectivity(g)
        assert kprime == nx.edge_connectivity(h)
        cut.validate(g)
        assert cut.value == kprime
        lambdas.add(kprime)
    assert len(graphs) == 20 and {0, 1, 2, 3} <= lambdas


def _edge_value_by_reference(masks, alive, best, stop):
    """The value kernel on a dict-of-dicts weighted graph, rebuilt at every
    contraction, with a lazy heap for the next vertex: the same orderings
    and merges as _edge_value, for best at most the minimum degree and no
    degree below stop."""
    def find(v):
        while leader[v] != v:
            leader[v] = v = leader[leader[v]]
        return v

    min_degree = min((masks[v] & alive).bit_count() for v in _bits(alive))
    if best <= min_degree and min_degree >= alive.bit_count() // 2:
        return best, None
    adj = {v: dict.fromkeys(_bits(masks[v] & alive), 1) for v in _bits(alive)}
    members = {v: 1 << v for v in adj}
    side = None
    while len(adj) > 1 and best >= stop:
        leader = {v: v for v in adj}
        attach = dict.fromkeys(adj, 0)
        heap = sorted((0, v) for v in adj)
        cut = x = prefix = 0
        while attach:
            negr, y = heappop(heap)
            if attach.get(y) != -negr:
                continue
            prev, x = x, y
            del attach[x]
            prefix |= members[x]
            cut += sum(adj[x].values()) + 2 * negr
            if attach and cut < best:
                best, side = cut, prefix
            for y, w in adj[x].items():
                if y in attach:
                    attach[y] += w
                    heappush(heap, (-attach[y], y))
                    if attach[y] >= best:
                        leader[find(y)] = find(x)
        leader[find(prev)] = find(x)
        merged, grouped = {}, {}
        for v, nbrs in adj.items():
            rv = find(v)
            grouped[rv] = grouped.get(rv, 0) | members[v]
            into = merged.setdefault(rv, {})
            for u, w in nbrs.items():
                ru = find(u)
                if ru != rv:
                    into[ru] = into.get(ru, 0) + w
        adj, members = merged, grouped
    return best, side


def check_edge_value(masks, alive, want):
    """_edge_value on `alive` in every form, given its edge connectivity `want`.

    Exact: best at or above the minimum degree gives `want`, best below
    `want` gives best.  Decision: best = stop = k gives k exactly when
    want >= k.  Early exit: best at the minimum degree and stop = k gives
    `want` when want >= k and otherwise some value below k.  Witness: with
    best at the minimum degree and stop 0, 1 or k = 1 .. 5, the value and
    side are the reference kernel's, or the first degree below stop and no
    side when there is one.
    """
    degrees = [(masks[v] & alive).bit_count() for v in _bits(alive)]
    min_degree = min(degrees)
    for stop in range(6):
        got = _edge_value(masks, alive, min_degree, stop)
        if min_degree < stop:
            assert got == (next(d for d in degrees if d < stop), None)
        else:
            assert got == _edge_value_by_reference(masks, alive, min_degree, stop)
    assert _edge_value(masks, alive, min_degree, 0)[0] == want
    assert _edge_value(masks, alive, min_degree + 2, 0)[0] == want
    if want:
        assert _edge_value(masks, alive, want - 1, 0)[0] == want - 1
    for k in range(1, 6):
        decided, _ = _edge_value(masks, alive, k, k)
        assert decided == k if want >= k else decided < k
        early, _ = _edge_value(masks, alive, min_degree, k)
        assert early == want if want >= k else early < k


def test_edge_value_matches_scanner_on_every_small_graph():
    checked = disconnected = 0
    for n in range(2, 6):
        for g in all_graphs(n):
            masks = g.adjacency_masks()
            for alive in range(1, 1 << g.n):
                if alive.bit_count() >= 2:
                    want, sides = _scan_bipartitions(masks, alive)
                    check_edge_value(masks, alive, want)
                    kprime, cut = _edge_cut(g, alive)
                    assert kprime == want and mask_of(cut.side_a) in sides
                    checked += 1
                    disconnected += want == 0
    assert checked == 27362 and disconnected > 10000


def test_edge_value_on_every_labeling_of_bridged_triangles():
    """Two triangles and a bridge: lambda 1 lies below the minimum degree 2,
    and merging a pair before r(y) reaches best hides the bridge on some
    labelings.  No graph on five vertices has such a cut."""
    g = two_cliques_bridged(3, 1)
    for perm in itertools.permutations(range(6)):
        h = Graph(6, [(perm[u], perm[v]) for u, v in g.edges()])
        check_edge_value(h.adjacency_masks(), h.full_mask(), 1)


def test_edge_value_stops_at_a_zero_cut(monkeypatch):
    """No phase after a zero cut can lower best or move the side, so none
    runs: an edgeless host decodes its alive mask once and runs no ordering,
    and a perfect matching runs one ordering, a decode per scanned vertex.
    Running on to the last phase took 45,746 and 12,221 decodes."""
    calls = []
    bits = connectivity._bits

    def counting(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(connectivity, "_bits", counting)
    n = 300
    matching = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    for g, want, decodes in ((Graph(n), (0, None), 1), (matching, (0, 3), n + 1)):
        calls.clear()
        assert _edge_value(g.adjacency_masks(), g.full_mask(), n, 0) == want
        assert len(calls) == decodes
    calls.clear()
    kprime, cut = edge_connectivity(Graph(n))
    assert kprime == 0 and cut.side_a == (0,) and len(calls) < 5


def _edge_connectivity_by_flows(g, alive):
    """Reference value: the smallest local edge connectivity from the lowest
    vertex of g's subgraph induced on `alive`, each flow capped at its minimum
    degree (the value never exceeds it)."""
    sub, _ = g.induced_subgraph(_bits(alive))
    cap = sub.min_degree()
    return min(local_edge_connectivity(sub, 0, t, cap) for t in range(1, sub.n))


def _complete_minus_matching(n):
    """K_n minus the perfect matching {2i, 2i+1}: lambda = delta = n - 2."""
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [(u, v) for u, v in pairs if u // 2 != v // 2])


def test_edge_value_matches_flow_beyond_the_oracle():
    """Seeded graphs with n = 17-120, where the oracle cannot reach, minus
    random vertex sets of size 0-5, against max-flow; the witness cut too."""
    rng = SplitMix64(808)
    graphs = [
        random_graph(n, min(0.9, (2 + i % 9) / n), i)
        for i, n in enumerate(range(17, 121, 4))
    ]
    graphs += [gen_with_hypotheses(17 + 3 * i, 1 + i % 5, 5, i) for i in range(14)]
    # dense inputs, where Chartrand's bound settles the value
    graphs += [random_graph(n, 0.9, i) for i, n in enumerate(range(17, 61, 7))]
    graphs += [_complete_minus_matching(n) for n in (18, 24, 40)]
    values = set()
    settled = 0
    for g in graphs:
        masks = g.adjacency_masks()
        for _ in range(2):
            removed = {rng.randrange(g.n) for _ in range(rng.randrange(6))}
            alive = g.full_mask() & ~mask_of(removed)
            want = _edge_connectivity_by_flows(g, alive)
            degree = min((masks[v] & alive).bit_count() for v in _bits(alive))
            settled += degree >= alive.bit_count() // 2
            check_edge_value(masks, alive, want)
            kprime, cut = _edge_cut(g, alive)
            a, b = mask_of(cut.side_a), mask_of(cut.side_b)
            assert kprime == cut.value == want
            assert a and b and not a & b and a | b == alive
            assert cut.edges == _edges_between(g, a, b)
            values.add(want)
    assert {0, 1, 2, 3, 4, 5} <= values
    # every dense alive mask is at or above Chartrand's bound
    assert settled >= 20


def _relabeled(g, rng):
    """g under a seeded random relabeling (Fisher-Yates on randrange)."""
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _cliques_joined_through_w():
    """Two K_5 joined only through vertex 10, with 4 neighbours in the first
    and 1 in the second: lambda 1, delta 4.  The far pair of vertex 4 and
    the second clique counts min(4, 1) = 1 path through 10; a neighbour of
    10 and the second clique count its one edge across."""
    edges = list(itertools.combinations(range(5), 2))
    edges += [(5 + i, 5 + j) for i, j in itertools.combinations(range(5), 2)]
    edges += [(10, v) for v in (0, 1, 2, 3, 5)]
    return Graph(11, edges)


def _far_pair_hosts():
    """(graph, alive) pairs of 6 to 16 alive vertices, some with lambda < delta."""
    rng = SplitMix64(3030)
    for q in (4, 5, 6):
        for b in range(q - 1):
            for _ in range(4):
                g = _relabeled(two_cliques_bridged(q, b), rng)
                yield g, g.full_mask()
    g = _cliques_joined_through_w()
    yield g, g.full_mask()
    for seed in range(2):
        for n in range(8, 17):
            g = gen_with_hypotheses(n, 2, 3, 100 * seed + n)
            for r in range(4):
                for removed in itertools.combinations(range(n), r):
                    yield g, g.full_mask() & ~mask_of(removed)


def test_far_pair_bound_matches_the_oracle(monkeypatch):
    """Where Chartrand's test fails on at most 16 vertices, the far-pair
    bound runs: when it answers, lambda reaches best and the orderings
    would have returned no side either; when lambda < delta it never
    answers, and the orderings find the cut.  Value and witness side
    against the scanner, counts of the bound's answers pinned."""
    answers = []
    reach = connectivity._far_pairs_reach

    def recording(*args):
        answers.append(reach(*args))
        return answers[-1]

    monkeypatch.setattr(connectivity, "_far_pairs_reach", recording)
    reached = below = answered = 0
    for g, alive in _far_pair_hosts():
        masks = g.adjacency_masks()
        degree = min((masks[v] & alive).bit_count() for v in _bits(alive))
        want, sides = _scan_bipartitions(masks, alive)
        answers.clear()
        assert _edge_value(masks, alive, degree, 0) == _edge_value_by_reference(
            masks, alive, degree, 0
        )
        if not answers:
            continue
        reached += 1
        below += want < degree
        answered += answers[0]
        assert not answers[0] or want == degree
        kprime, cut = _edge_cut(g, alive)
        assert kprime == want and mask_of(cut.side_a) in sides
    assert (reached, below, answered) == (6134, 196, 2632)


def test_far_pair_bound_never_runs_above_sixteen_vertices(monkeypatch):
    def refuse(*args):
        raise AssertionError("far-pair bound above EXHAUSTIVE_LIMIT vertices")

    monkeypatch.setattr(connectivity, "_far_pairs_reach", refuse)
    sparse = random_graph(40, 0.1, 4)
    assert sparse.min_degree() >= 1
    for g in (cycle_graph(17), two_cliques_bridged(9, 2), sparse):
        kprime, cut = edge_connectivity(g)
        assert kprime == cut.value == _edge_connectivity_by_flows(g, g.full_mask())


def test_edge_value_decodes_nothing_when_the_first_vertex_misses_stop(monkeypatch):
    """The lowest alive vertex's degree is read before the alive mask is
    decoded, so a large host whose first vertex misses stop costs no decode."""
    calls = []
    bits = connectivity._bits

    def counting(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(connectivity, "_bits", counting)
    g = complete(120)
    alive = g.full_mask() & ~mask_of((0, 50, 119))
    assert _edge_value(g.adjacency_masks(), alive, 117, 118) == (116, None)
    assert calls == []
    assert _edge_value(g.adjacency_masks(), alive, 116, 116) == (116, None)
    assert len(calls) == 1
