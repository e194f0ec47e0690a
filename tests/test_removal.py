"""Removable-structure finders, certificates, and the dense-graph machinery."""

import itertools
import math

import pytest

from kedge import connectivity, removal
from kedge.connectivity import EdgeCut, edge_connectivity, is_k_connected, is_k_edge_connected
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
from kedge.errors import ExtractionFailed, InternalCheckError, TheoremViolation
from kedge.fragments import fragments_of, minimal_fragment_descent
from kedge.graph import Graph, mask_of
from kedge.removal import (
    HCSubgraph,
    RemovalCertificate,
    _first_certified,
    _tree_images,
    extract_connected_subgraph,
    find_removable_edge,
    find_removable_tree,
    find_removable_vertex,
    removable_tree_via_thomassen,
)
from kedge.rng import SplitMix64
from kedge.trees import enumerate_trees, path_tree, star_tree

from conftest import reordered


def test_vertex_finder_on_petersen():
    g = petersen_graph()
    cert = find_removable_vertex(g, 1)
    assert cert is not None and cert.kind == "vertex"
    assert cert.removed == (0,)
    assert cert.residual_kprime == 2
    # degree-3 vertices leave a degree-2 neighbor, so k=3 is impossible
    assert find_removable_vertex(g, 3) is None


def test_certify_checks_the_kernel_against_the_oracle(monkeypatch):
    """A value kernel that overstates a small residual's connectivity is
    caught by the bipartition oracle, never returned as a certificate."""
    true_value = removal._edge_value

    def overstated(*args):
        value, side = true_value(*args)
        return value + 1, side

    monkeypatch.setattr(removal, "_edge_value", overstated)
    # Petersen minus a vertex has lambda 2, which the kernel now reads as 3
    with pytest.raises(InternalCheckError, match=r"disagree on residual connectivity \(3 vs 2\)"):
        find_removable_vertex(petersen_graph(), 2)


def test_vertex_finder_trivial_residual():
    cert = find_removable_vertex(complete(2), 1)
    assert cert is not None
    assert cert.residual_kprime is None


def test_edge_finder_known_instances():
    cert = find_removable_edge(complete_bipartite(3, 3), 2)
    assert cert.removed == (0, 3) and cert.residual_kprime == 2
    cert = find_removable_edge(complete_bipartite(4, 4), 3)
    assert cert.removed == (0, 4) and cert.residual_kprime == 3
    assert find_removable_edge(cycle_graph(6), 2) is None


def test_finders_require_connectivity():
    with pytest.raises(ValueError):
        find_removable_vertex(cycle_graph(5), 3)
    with pytest.raises(ValueError):
        find_removable_edge(Graph(4, [(0, 1), (2, 3)]), 1)


def test_k_below_one_is_rejected_at_every_finder():
    """The connectivity check each finder starts with rejects k = 0."""
    g = complete(6)
    f0 = fragments_of(g, (0, 1), 5)[0]
    for call in (
        lambda: find_removable_vertex(g, 0),
        lambda: find_removable_edge(g, 0),
        lambda: find_removable_tree(g, 0, path_tree(2)),
        lambda: removable_tree_via_thomassen(g, 0, path_tree(2)),
        lambda: minimal_fragment_descent(f0, 0),
    ):
        with pytest.raises(ValueError, match="k must be at least 1"):
            call()


def test_tree_finder_known_instances():
    cert = find_removable_tree(cycle_graph(6), 1, path_tree(2))
    assert cert.removed == (0, 1) and cert.residual_kprime == 1
    cert = find_removable_tree(complete(6), 2, path_tree(3))
    assert cert.kind == "tree"
    assert cert.removed == (0, 1, 2) and cert.residual_kprime == 2
    assert find_removable_tree(complete(5), 2, path_tree(3)) is None


def test_tree_finder_requires_room():
    with pytest.raises(ValueError):
        find_removable_tree(complete(3), 1, path_tree(3))


def test_tree_finder_coincides_with_vertex_and_edge():
    for seed in (3, 14, 15):
        g = gen_with_hypotheses(10, 2, 4, seed)
        v = find_removable_vertex(g, 2)
        t1 = find_removable_tree(g, 2, path_tree(1))
        assert (v is None) == (t1 is None)
        if v is not None:
            assert v.removed == t1.removed
            assert v.residual_kprime == t1.residual_kprime
        e = find_removable_edge(g, 2)
        t2 = find_removable_tree(g, 2, path_tree(2))
        assert (e is None) == (t2 is None)
        if e is not None:
            assert e.removed == t2.removed


def iter_tree_embeddings(g, tree, region):
    """Every embedding of the tree into the region mask, as host tuples.

    Tree vertex i goes to host `assignment[i]`.  Tree vertices are placed in
    index order, each on an unused region neighbour of its parent's host,
    hosts ascending, so embeddings come in lexicographic order.
    """
    assignment = []

    def place(i):
        if i == tree.order:
            yield tuple(assignment)
            return
        hosts = g.vertices() if i == 0 else g.neighbors(assignment[tree.parents[i]])
        for w in hosts:
            if region >> w & 1 and w not in assignment:
                assignment.append(w)
                yield from place(i + 1)
                assignment.pop()

    return place(0)


def test_iter_tree_embeddings_counts():
    k3 = complete(3)
    assert len(list(iter_tree_embeddings(k3, path_tree(3), 0b111))) == 6
    c4 = cycle_graph(4)
    assert len(list(iter_tree_embeddings(c4, path_tree(3), 0b1111))) == 8
    restricted = list(iter_tree_embeddings(c4, path_tree(3), 0b0111))
    assert restricted == [(0, 1, 2), (2, 1, 0)]
    # the walk yields each image once: C4's 8 embeddings of path:3 have 4
    assert len(list(_tree_images(c4, path_tree(3)))) == 4


def first_seen_images(g, tree, region=None):
    """Vertex images of every embedding, deduplicated in first-seen order."""
    region = g.full_mask() if region is None else region
    embeddings = iter_tree_embeddings(g, tree, region)
    return list(dict.fromkeys(map(mask_of, embeddings)))


def test_tree_images_follow_first_embedding_order():
    """Every tree with m <= 6 on every small graph; then every shape with
    m <= 7 under two seeded reorderings, so that the floors meet vertex
    orders other than the enumeration's, in the full region and a random
    one, on the sparser random graphs and on K_6 and K_7."""
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    randoms = [
        random_graph(6 + seed % 5, (0.3, 0.5, 0.7)[seed % 3], seed)
        for seed in range(30)
    ]
    pairs = 0
    for g in graphs + randoms:
        for m in range(1, min(g.n, 6) + 1):
            for tree in enumerate_trees(m):
                assert list(_tree_images(g, tree)) == first_seen_images(g, tree)
                pairs += 1
    assert pairs == 8541 + 30 * 14
    rng = SplitMix64(14)
    shapes = [
        reordered(shape, rng)
        for m in range(1, 8)
        for shape in enumerate_trees(m)
        for _ in range(2)
    ]
    hosts = [g for g in randoms if g.edge_count <= 2 * g.n] + [complete(6), complete(7)]
    walks = images = 0
    for g in hosts:
        for tree in shapes:
            if tree.order > g.n:
                continue
            for region in (g.full_mask(), rng.randrange(1 << g.n) | rng.randrange(1 << g.n)):
                found = list(_tree_images(g, tree, region))
                assert found == first_seen_images(g, tree, region)
                walks += 1
                images += len(found)
    assert len(hosts) == 22 and walks == 1936 and images > 10_000


def automorphism_moves(tree):
    """(a, sigma(a)) for every tree automorphism sigma other than the identity,
    a being its smallest moved vertex; brute force over all permutations."""
    edges = {frozenset(e) for e in tree.edges()}
    moves = set()
    for sigma in itertools.permutations(range(tree.order)):
        if {frozenset((sigma[u], sigma[v])) for u, v in tree.edges()} != edges:
            continue
        moved = [v for v in range(tree.order) if sigma[v] != v]
        if moved:
            moves.add((moved[0], sigma[moved[0]]))
    return moves


def test_floors_are_witnessed_by_automorphisms():
    """Each floor pair (a, b) of `_floors` comes from an automorphism whose
    smallest moved vertex is a and which sends a to b, so a first embedding
    puts a below b: every shape with m <= 7, as enumerated and under two
    seeded reorderings."""
    rng = SplitMix64(7)
    pairs = 0
    for m in range(1, 8):
        for shape in enumerate_trees(m):
            for tree in [shape, reordered(shape, rng), reordered(shape, rng)]:
                moves = automorphism_moves(tree)
                floors = removal._floors(tree)
                for b, a in enumerate(floors):
                    if a >= 0:
                        assert a < b and (a, b) in moves
                        pairs += 1
    assert pairs > 100


def test_region_walk_matches_reference():
    """Every labeled graph with n <= 5 and every tree with m <= n, walked in
    the empty region, the full mask and three seeded random regions."""
    rng = SplitMix64(12)
    walks = images = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            for m in range(1, n + 1):
                for tree in enumerate_trees(m):
                    regions = [0, g.full_mask()]
                    regions += [rng.randrange(1 << n) for _ in range(3)]
                    for region in regions:
                        found = list(_tree_images(g, tree, region))
                        assert found == first_seen_images(g, tree, region)
                        assert all(image & ~region == 0 for image in found)
                        walks += 1
                        images += len(found)
    assert walks == 5 * 8541 and images > 10_000


def test_tree_images_match_reference_on_twin_rich_hosts():
    """The walk merges two search states when their open hosts have the same
    unused neighbours, which random hosts rarely show: K_8, K_{4,4},
    K_{3,3,2}, K_8 minus a perfect matching and C_5 blown up by 2, every
    tree with m <= 6 as enumerated and under one seeded reordering, each in
    the full region and two seeded ones."""
    def multipartite(*sizes):
        part = [i for i, size in enumerate(sizes) for _ in range(size)]
        pairs = itertools.combinations(range(len(part)), 2)
        return Graph(len(part), [(u, v) for u, v in pairs if part[u] != part[v]])

    hosts = [
        complete(8),
        complete_bipartite(4, 4),
        multipartite(3, 3, 2),
        multipartite(2, 2, 2, 2),  # K_8 minus a perfect matching
        # C_5 blown up by 2: vertex u lies in part u // 2 of the cycle
        Graph(10, [
            (u, v) for u, v in itertools.combinations(range(10), 2)
            if (v // 2 - u // 2) % 5 in (1, 4)
        ]),
    ]
    rng = SplitMix64(18)
    shapes = [
        tree
        for m in range(1, 7)
        for shape in enumerate_trees(m)
        for tree in (shape, reordered(shape, rng))
    ]
    walks = images = 0
    for g in hosts:
        regions = [g.full_mask()]
        regions += [rng.randrange(1 << g.n) | rng.randrange(1 << g.n) for _ in range(2)]
        for tree in shapes:
            for region in regions:
                found = list(_tree_images(g, tree, region))
                assert found == first_seen_images(g, tree, region)
                walks += 1
                images += len(found)
    assert walks == 5 * 28 * 3 and images > 9_000


def reference_tree_finder(g, k, tree):
    """First hit among the deduplicated embedding images, certified one by one."""
    for image in first_seen_images(g, tree):
        cert = _first_certified(g, "tree", (image,), k)
        if cert is not None:
            return cert
    return None


def test_tree_finder_matches_reference_on_hits_and_misses():
    instances = [
        (complete(k + m + extra), k, m)
        for k in (2, 3, 4, 5)
        for m in (2, 3, 4)
        for extra in (0, 1)
    ]
    for k in (4, 5):
        for m in (3, 4):
            for seed in range(3):
                n = k + m + 1 + seed
                for delta in (k, k + m):
                    instances.append((gen_with_hypotheses(n, k, delta, seed), k, m))
    outcomes = set()
    for g, k, m in instances:
        for tree in enumerate_trees(m):
            cert = find_removable_tree(g, k, tree)
            assert cert == reference_tree_finder(g, k, tree)
            outcomes.add(cert is None)
    assert outcomes == {True, False}


def test_tightness_miss_certifies_each_image_once(monkeypatch):
    """On K_{k+m} every m-subset is an image of every tree of order m, and
    each leaves K_k, of lambda k-1: the finder misses after exactly
    C(k+m, m) value-kernel calls, one per distinct image."""
    true_value = removal._edge_value
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return true_value(*args)

    monkeypatch.setattr(removal, "_edge_value", counting)
    cases = 0
    for k in (2, 3):
        for m in (3, 4, 5):
            g = complete(k + m)
            for tree in enumerate_trees(m):
                calls = 0
                assert find_removable_tree(g, k, tree) is None
                assert calls == math.comb(k + m, m)
                cases += 1
    assert cases == 2 * (1 + 2 + 3)


def test_region_walk_first_image_is_deterministic():
    c4 = cycle_graph(4)
    assert next(iter_tree_embeddings(c4, path_tree(3), 0b0111)) == (0, 1, 2)
    assert list(_tree_images(c4, path_tree(3), 0b0111)) == [0b0111]
    assert list(_tree_images(c4, star_tree(4), 0b0111)) == []
    assert list(_tree_images(c4, star_tree(4))) == []


def test_extract_connected_subgraph():
    g = two_cliques_bridged(18, 1)
    core = extract_connected_subgraph(g, 2)
    assert core.vertices == frozenset(range(18))
    assert core.boundary == frozenset({0})
    core.validate(g)
    # a disconnected candidate splits along the empty cut; of two equal
    # components the one holding the smallest vertex stays
    k6_pair = Graph(12, [e for e in complete(12).edges() if (e[0] < 6) == (e[1] < 6)])
    core = extract_connected_subgraph(k6_pair, 1)
    assert (core.vertices, core.boundary) == (frozenset(range(6)), frozenset())
    with pytest.raises(ValueError):
        extract_connected_subgraph(two_cliques_bridged(5, 1), 2)


def test_extraction_boundary_is_the_core_with_outside_neighbours():
    """The boundary read off the outside vertices' neighbourhoods equals its
    definition, when the extraction peels and when the core is everything."""
    for g, k_target, outside in (
        (two_cliques_bridged(18, 1), 2, True),
        (random_graph(42, 0.95, 1), 3, False),
    ):
        core = extract_connected_subgraph(g, k_target)
        masks = g.adjacency_masks()
        inside = mask_of(core.vertices)
        assert core.boundary == {v for v in core.vertices if masks[v] & ~inside}
        assert bool(core.boundary) == outside
        core.validate(g)


def test_hcsubgraph_validate_rejects_wrong_boundary():
    g = two_cliques_bridged(18, 1)
    with pytest.raises(ValueError):
        HCSubgraph(frozenset(range(18)), frozenset({1}), 2).validate(g)


def test_hcsubgraph_validate_rejects_a_core_below_its_connectivity():
    """The whole of two bridged K_18 has the right boundary, order and
    boundary size, but a bridge end is a cut vertex."""
    with pytest.raises(ValueError, match="not 2-connected"):
        HCSubgraph(frozenset(range(36)), frozenset(), 2).validate(two_cliques_bridged(18, 1))


def test_extraction_asks_one_cut_per_pass(monkeypatch):
    """The loop's last cut answers the connectivity postcondition, so the
    finished core gets no second cut."""
    calls = []
    real = connectivity._vertex_cut

    def counted(*args):
        calls.append(args)
        return real(*args)

    # _is_k_connected reads the connectivity module's name
    monkeypatch.setattr(removal, "_vertex_cut", counted)
    monkeypatch.setattr(connectivity, "_vertex_cut", counted)
    for g, k_target, passes in (
        (random_graph(42, 0.95, 1), 3, 1),
        (two_cliques_bridged(18, 1), 2, 2),  # the bridge end 0 is the first cut
    ):
        calls.clear()
        extract_connected_subgraph(g, k_target)
        assert len(calls) == passes


def stubbed_extraction(monkeypatch, g, k_target, cuts):
    """The extraction's message when `_vertex_cut` answers `cuts` in turn."""
    answers = iter(cuts)
    monkeypatch.setattr(removal, "_vertex_cut", lambda *args: next(answers))
    with pytest.raises(ExtractionFailed) as info:
        extract_connected_subgraph(g, k_target)
    return str(info.value)


def test_extraction_checks_order_and_boundary(monkeypatch):
    """Cuts the real kernel never gives at k_target 1 leave a core that
    misses the boundary bound, or the order bound."""
    # two K_7 sharing {0, 1, 2}: the cut {0, 1, 2} keeps K_7 on 0..6, whose
    # shared vertices all see 7..10
    pair = Graph(11, [e for e in complete(11).edges() if e[1] < 7 or e[0] < 3 or e[0] >= 7])
    message = stubbed_extraction(monkeypatch, pair, 1, [0b111, None])
    assert message == "boundary size 3 exceeds 2"
    # the independent set {2, 3, 4, 5} joined to the edges 01, 67 and 89:
    # the cut {2, 3, 4, 5} keeps 0..5, then the cut {0, 1} keeps the
    # triangle 0, 1, 2
    join = Graph(
        10, [(0, 1), (6, 7), (8, 9)] + [(s, v) for s in range(2, 6) for v in (0, 1, 6, 7, 8, 9)]
    )
    message = stubbed_extraction(monkeypatch, join, 1, [0b111100, 0b11, None])
    assert message == "subgraph order 3 not above 4"


def test_removable_tree_via_thomassen():
    cert = removable_tree_via_thomassen(complete(38), 1, path_tree(2))
    assert cert.removed == (0, 1)
    assert cert.residual_kprime == 35


def test_dense_route_rejects_a_graph_below_the_degree_bound():
    """K_20 is 1-edge-connected, but its minimum degree 19 is not above
    4(k+m)^2 = 36 for k = 1 and the tree path:2."""
    with pytest.raises(ValueError, match="minimum degree must exceed 36"):
        removable_tree_via_thomassen(complete(20), 1, path_tree(2))


def test_dense_route_takes_first_interior_image():
    """The dense route removes the first embedding inside the core interior."""
    # cliques on 0..72 and on 0, 1, 2, 73..139: the separator {0, 1, 2}
    # joins the larger side's core as its boundary
    g = Graph(
        140, [e for e in complete(140).edges() if e[0] < 3 or (e[0] < 73) == (e[1] < 73)]
    )
    tree = path_tree(3)
    core = extract_connected_subgraph(g, 4)
    assert (core.vertices, core.boundary) == (frozenset(range(73)), frozenset({0, 1, 2}))
    first = next(iter_tree_embeddings(g, tree, mask_of(core.vertices - core.boundary)))
    cert = removable_tree_via_thomassen(g, 1, tree)
    assert cert.removed == tuple(sorted(first)) == (3, 4, 5)


def test_dense_route_failure_branches(monkeypatch):
    """A failed certificate and an empty walk are reported with full context."""
    g = complete(38)
    tree = path_tree(2)
    monkeypatch.setattr(removal, "_first_certified", lambda *args: None)
    with pytest.raises(TheoremViolation) as info:
        removable_tree_via_thomassen(g, 1, tree)
    payload = info.value.payload
    assert payload["removed"] == (0, 1) and payload["tree"] == tree.spec_string()
    assert payload["core"] == tuple(range(38)) and payload["boundary"] == ()
    monkeypatch.setattr(removal, "_tree_images", lambda *args: iter(()))
    with pytest.raises(InternalCheckError, match="tree embedding failed"):
        removable_tree_via_thomassen(g, 1, tree)


def test_dense_route_runs_no_flow(monkeypatch):
    """Degree bounds answer every connectivity question the dense route asks
    on test_06's seeded instance; a small separator still needs a flow."""
    def no_flow(*args):
        raise RuntimeError("max-flow ran")

    monkeypatch.setattr(connectivity, "_augment", no_flow)
    g = random_graph(42, 0.95, 1)
    core = extract_connected_subgraph(g, 3)
    core.validate(g)
    assert (core.vertices, core.boundary) == (frozenset(range(42)), frozenset())
    cert = removable_tree_via_thomassen(g, 1, path_tree(2))
    assert cert == RemovalCertificate("tree", (0, 1), 35)
    # two K_6 sharing vertices 4 and 5: vertices 0 and 6 have 2 < 3 common
    # neighbours, so deciding 3-connectivity needs a flow
    shared = Graph(10, [e for e in complete(10).edges() if e[1] < 6 or e[0] >= 4])
    with pytest.raises(RuntimeError, match="max-flow ran"):
        is_k_connected(shared, 3)


def relabelled_route(g, removed, ks):
    """Certificates for each k in `ks` and a min cut of g minus `removed`,
    through a relabelled residual.

    The residual is rebuilt with `delete_vertices`, decided with
    `is_k_edge_connected`, measured with `edge_connectivity`, and the cut is
    mapped back to ambient labels; it is None for a residual of fewer than
    two vertices, which has no cut.
    """
    removed = tuple(sorted(set(removed)))
    if len(removed) == g.n:
        return [None for _ in ks], None
    residual, index = g.delete_vertices(removed)
    if residual.n == 1:
        trivial = RemovalCertificate("x", removed, None)
        return [trivial if is_k_edge_connected(residual, k) else None for k in ks], None
    kprime, cut = edge_connectivity(residual)
    certs = [
        RemovalCertificate("x", removed, kprime)
        if is_k_edge_connected(residual, k) else None
        for k in ks
    ]
    back = {new: old for old, new in index.items()}
    ambient = EdgeCut(
        edges=frozenset(tuple(sorted((back[a], back[b]))) for a, b in cut.edges),
        side_a=tuple(back[v] for v in cut.side_a),
        side_b=tuple(back[v] for v in cut.side_b),
    )
    return certs, ambient


def test_mask_route_matches_relabelled_route():
    rng = SplitMix64(2024)
    ks = (1, 2, 3, 4)
    graphs = [random_graph(n, min(0.6, 7 / n), n) for n in range(2, 61, 3)]
    graphs += [gen_with_hypotheses(17 + 2 * i, 1 + i % 4, 4, i) for i in range(12)]
    certified = 0
    for g in graphs:
        for _ in range(3):
            removed = {rng.randrange(g.n) for _ in range(rng.randrange(6))}
            certs, cut = relabelled_route(g, removed, ks)
            assert [_first_certified(g, "x", (mask_of(removed),), k) for k in ks] == certs
            certified += sum(cert is not None for cert in certs)
            if cut is not None:
                alive = g.full_mask() & ~mask_of(removed)
                assert connectivity._edge_cut(g, alive)[1] == cut
        if g.n >= 2:
            assert edge_connectivity(g)[1] == relabelled_route(g, (), ks)[1]
    assert sum(g.n > 16 for g in graphs) > 20 and certified > 100
