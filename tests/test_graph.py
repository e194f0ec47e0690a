import random

import pytest

from kedge.connectivity import EdgeCut, local_edge_connectivity
from kedge.fragments import Fragment
from kedge.generators import complete
from kedge.graph import (
    Graph,
    _bits,
    boundary_edge_count,
    components,
    mask_of,
    normalize_edge,
)
from kedge.removal import HCSubgraph, decompose_cut, residual_min_cut

from conftest import seeded_random_graphs


def test_empty_and_single():
    g = Graph(0)
    assert g.n == 0 and g.edge_count == 0
    assert not g.is_connected()
    h = Graph(1)
    assert h.is_connected() and h.degrees() == (0,)


def test_basic_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert g.neighbors(0) == (1, 3)
    assert g.degree(2) == 2 and g.min_degree() == 2
    assert g.has_edge(3, 2) and not g.has_edge(0, 2)
    # out-of-range endpoints are non-edges, not wrapped or raising indices
    for u, v in [(-1, 2), (2, -1), (4, 3), (3, 4), (7, 2), (2, 7)]:
        assert not g.has_edge(u, v)


def test_vertex_queries_reject_out_of_range_vertices():
    """A negative vertex must not read another vertex's mask from the end."""
    g = Graph(3, [(0, 1), (1, 2)])
    for v in (-1, 3):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=3"):
            g.neighbors(v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=3"):
            g.degree(v)


def test_bits_matches_reference_on_both_sides_of_the_density_rule():
    """_bits reads a mask of more than 16 set bits filling more than a third
    of its width off its binary string, any other by low bits; both agree
    with the definition, in ascending order."""
    rng = random.Random(26)

    def spread(width, count):
        """`count` set bits, the top one at width - 1."""
        return mask_of(rng.sample(range(width - 1), count - 1) + [width - 1])

    full = (1 << 4096) - 1
    masks = [0, 1, 1 << 4095, full]
    # sparse wide masks, and dense ones with holes
    masks += [mask_of(rng.sample(range(4096), count)) for count in (1, 17, 100, 1365)]
    masks += [full ^ mask_of(rng.sample(range(4096), holes)) for holes in (1, 40, 2000)]
    # exactly 16 and 17 set bits, from full to sparse
    masks += [spread(width, count) for count in (16, 17) for width in (count, 20, 47, 48, 60, 113)]
    # around the one-third edge: width 3c - 1, 3c and 3c + 1 for c set bits
    masks += [spread(3 * c + d, c) for c in (16, 17, 18, 38, 1366) for d in (-1, 0, 1)]
    for mask in masks:
        assert _bits(mask) == [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_induced_subgraph_relabels():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, fwd = g.induced_subgraph([1, 3, 4])
    assert sub.n == 3
    assert fwd == {1: 0, 3: 1, 4: 2}
    # surviving edges: (3,4) -> (1,2); 1 is isolated in the subgraph
    assert sub.edges() == ((1, 2),)


def test_delete_vertices():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, fwd = g.delete_vertices([1])
    assert h.n == 3 and h.edges() == ((1, 2),)
    assert fwd == {0: 0, 2: 1, 3: 2}
    with pytest.raises(ValueError):
        g.delete_vertices([0, 1, 2, 3])


def test_connected_within():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert g.connected_within(mask_of([0, 1, 2]))
    assert not g.connected_within(mask_of([0, 2, 3]))
    assert g.connected_within(mask_of([4]))


def test_components_ordering():
    g = Graph(7, [(2, 5), (0, 6), (1, 3)])
    comps = components(g)
    # ordered by smallest member, members sorted
    assert comps == [[0, 6], [1, 3], [2, 5], [4]]
    # within a mask: bitmasks ordered by lowest vertex
    assert g.components_within(mask_of([0, 2, 4, 5, 6])) == [
        mask_of([0, 6]),
        mask_of([2, 5]),
        mask_of([4]),
    ]
    assert g.components_within(mask_of([3, 5])) == [mask_of([3]), mask_of([5])]
    assert g.components_within(g.full_mask()) == [mask_of(c) for c in comps]
    assert g.components_within(0) == []


def test_normalize_edge():
    g = Graph(3, [(0, 2)])
    assert normalize_edge(g, (2, 0)) == (0, 2)
    for e in [(0, 1), (-1, 0), (0, -1), (3, 0)]:
        with pytest.raises(ValueError):
            normalize_edge(g, e)


def test_every_entry_checks_caller_vertex_ids_with_one_message():
    """Each public entry that takes vertex ids from its caller rejects an id
    below the range and one above it, with Graph.mask's one message."""
    g = complete(5)
    cut = EdgeCut(frozenset(), (0,), (1, 2, 3, 4))
    entries = {
        "neighbors": lambda v: g.neighbors(v),
        "degree": lambda v: g.degree(v),
        "induced_subgraph": lambda v: g.induced_subgraph([0, v]),
        "delete_vertices": lambda v: g.delete_vertices([v]),
        "boundary_edge_count": lambda v: boundary_edge_count(g, [0], [1, v]),
        "EdgeCut.validate": lambda v: EdgeCut(frozenset(), (v,), (0,)).validate(g),
        "HCSubgraph.validate": lambda v: HCSubgraph(frozenset({0, v}), frozenset(), 1).validate(g),
        "decompose_cut": lambda v: decompose_cut(
            g, HCSubgraph(frozenset({0, v}), frozenset(), 1), (), cut, 1
        ),
        "residual_min_cut": lambda v: residual_min_cut(g, [v]),
        "Fragment.validate": lambda v: Fragment(g, (0, v), {1}).validate(),
        "local_edge_connectivity": lambda v: local_edge_connectivity(g, 0, v),
    }
    for name, call in entries.items():
        for v in (-1, 5):
            try:
                call(v)
            except ValueError as exc:
                assert str(exc) == f"vertex {v} out of range for n=5", name
            else:
                pytest.fail(f"{name} took vertex {v}")


def test_boundary_edge_count():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert boundary_edge_count(g, [0, 1], [2, 3]) == 2
    assert boundary_edge_count(g, [0, 1], [4]) == 0
    with pytest.raises(ValueError):
        boundary_edge_count(g, [0, 1], [1, 2])
    # a vertex below the range is out of range, as one above it is, not a
    # negative shift in building its mask
    with pytest.raises(ValueError, match="vertex 5 out of range for n=5"):
        boundary_edge_count(g, [5], [0])
    with pytest.raises(ValueError, match="vertex -1 out of range for n=5"):
        boundary_edge_count(g, [-1], [0])
    with pytest.raises(ValueError, match="vertex -2 out of range for n=5"):
        boundary_edge_count(g, [3], [0, -2])


def test_degree_sum_is_twice_edge_count():
    for g in seeded_random_graphs(30, 2, 12, seed=101):
        assert sum(g.degrees()) == 2 * g.edge_count


def test_induced_subgraph_preserves_adjacency():
    for g in seeded_random_graphs(20, 4, 10, seed=202):
        keep = [v for v in g.vertices() if v % 2 == 0]
        sub, fwd = g.induced_subgraph(keep)
        for u in keep:
            for v in keep:
                if u < v:
                    assert g.has_edge(u, v) == sub.has_edge(fwd[u], fwd[v])
