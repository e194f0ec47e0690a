"""Property tests: the value kernel against the oracle, local edge
connectivity, Graph's edge accessors and vertex deletions against their
definitions, and the graph file formats against round trips."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from kedge.connectivity import (  # noqa: E402
    _edge_value,
    _scan_bipartitions,
    local_edge_connectivity,
)
from kedge.graph import Graph, _bits, _boundary_count, mask_of  # noqa: E402
from kedge.io import (  # noqa: E402
    GRAPH6_MAX_N,
    parse_edge_list,
    parse_graph6,
    sniff_format,
    write_edge_list,
    write_graph6,
)

settings = hypothesis.settings(max_examples=300, deadline=None)


@st.composite
def graphs(draw, n_max=12):
    """A graph on 0..n-1 with n <= n_max, and the edge list it was built from,
    duplicates and both orientations included."""
    n = draw(st.integers(0, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs)))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    return Graph(n, edges), edges


@settings
@hypothesis.given(graphs(), st.data())
def test_edge_value_matches_oracle(drawn, data):
    g, _ = drawn
    hypothesis.assume(g.n >= 2)
    masks = g.adjacency_masks()
    alive = mask_of(data.draw(st.sets(st.integers(0, g.n - 1), min_size=2)))
    want = _scan_bipartitions(masks, alive)[0]
    min_degree = min((masks[v] & alive).bit_count() for v in _bits(alive))
    k = data.draw(st.integers(1, 6))
    exact = _edge_value(masks, alive, min_degree, 0)
    decided = _edge_value(masks, alive, k, k)
    early = _edge_value(masks, alive, min_degree, k)
    assert exact[0] == want
    assert decided[0] == k if want >= k else decided[0] < k
    assert early[0] == want if want >= k else early[0] < k
    # a side is a nonempty proper part of `alive` whose boundary is the value
    for value, side in (exact, decided, early):
        if side is not None:
            assert side and side & alive == side != alive
            assert _boundary_count(masks, side, alive & ~side) == value


@settings
@hypothesis.given(graphs(n_max=10), st.data())
def test_local_edge_connectivity_matches_min_boundary(drawn, data):
    """min(cap, the smallest boundary of a side holding s and not t)."""
    g, _ = drawn
    hypothesis.assume(g.n >= 2)
    s, t = data.draw(st.permutations(range(g.n)))[:2]
    cap = data.draw(st.sampled_from([0, 1, 2, 3, 4, float("inf")]))
    masks = g.adjacency_masks()
    others = g.full_mask() & ~(1 << s | 1 << t)
    boundaries = []
    for subset in range(1 << others.bit_count()):
        side = 1 << s | mask_of(v for i, v in enumerate(_bits(others)) if subset >> i & 1)
        boundaries.append(sum((masks[v] & ~side).bit_count() for v in _bits(side)))
    assert local_edge_connectivity(g, s, t, cap) == min(cap, min(boundaries))


@settings
@hypothesis.given(graphs())
def test_edge_accessors_match_definition(drawn):
    g, edges = drawn
    expected = sorted({(min(e), max(e)) for e in edges})
    assert g.edges() == tuple(expected)
    assert g.edge_count == len(expected)
    assert repr(g) == f"Graph(n={g.n}, m={len(expected)})"
    for v in g.vertices():
        around = {u for e in expected if v in e for u in e} - {v}
        assert g.neighbors(v) == tuple(sorted(around))


@settings
@hypothesis.given(graphs(), st.data())
def test_induced_subgraph_and_deletion_match_definition(drawn, data):
    g, _ = drawn
    keep = data.draw(st.sets(st.integers(0, g.n - 1)) if g.n else st.just(set()))
    sub, index = g.induced_subgraph(keep)
    assert index == {old: new for new, old in enumerate(sorted(keep))}
    assert sub.n == len(keep)
    assert set(sub.edges()) == {
        (index[u], index[v]) for u, v in g.edges() if u in keep and v in keep
    }
    gone = set(g.vertices()) - keep
    if not keep:
        with pytest.raises(ValueError):
            g.delete_vertices(gone)
    else:
        assert g.delete_vertices(gone) == (sub, index)


@settings
@hypothesis.given(graphs(n_max=GRAPH6_MAX_N))
def test_io_round_trips(drawn):
    g, _ = drawn
    text = write_edge_list(g)
    assert sniff_format(text) == "edgelist"
    assert parse_edge_list(text) == g
    text = write_graph6(g)
    assert sniff_format(text) == "graph6"
    assert parse_graph6(text) == g
