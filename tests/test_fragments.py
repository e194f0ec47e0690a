"""Fragment construction, the overlap dichotomy, and minimal-fragment descent."""

import sys
from dataclasses import replace

import pytest

from kedge.connectivity import EXHAUSTIVE_LIMIT, edge_connectivity_bruteforce
from kedge import connectivity
from kedge.errors import InternalCheckError, TheoremViolation
from kedge.fragments import (
    Fragment,
    OverlapVerdict,
    _overlap_verdict,
    check_fragment_overlap,
    fragments_of,
    minimal_fragment_descent,
    scan_overlap_cases,
    verify_descent_conclusion,
)
from kedge.generators import all_connected_graphs, complete, cycle_graph, two_cliques_bridged
from kedge.graph import Graph, _bits, mask_of
from kedge.io import graph_payload

from conftest import seeded_random_graphs


def test_fragments_of_disconnected_host():
    g = two_cliques_bridged(5, 2)
    frags = fragments_of(g, (0, 1), 2)
    sides = [tuple(sorted(f.side)) for f in frags]
    # deleting the bridge endpoints 0 and 1 leaves the two clique remnants
    assert sides == [(2, 3, 4), (5, 6, 7, 8, 9)]
    for f in frags:
        assert f.host_kprime == 0 and not f.cut_edges
        f.validate()


def test_fragments_of_k6():
    frags = fragments_of(complete(6), (0, 1), 4)
    sides = sorted(tuple(sorted(f.side)) for f in frags)
    # the host K4 has exactly the four singleton min cuts
    singles = [s for s in sides if len(s) == 1]
    assert singles == [(2,), (3,), (4,), (5,)]
    assert all(f.host_kprime == 3 for f in frags)
    for f in frags:
        f.validate()
        assert len(f.cut_edges) == 3


def test_fragments_of_empty_when_connectivity_survives():
    assert fragments_of(complete(5), (0, 1), 2) == []
    assert fragments_of(cycle_graph(5), (0, 1), 1) == []


def test_fragments_of_preconditions():
    with pytest.raises(ValueError):
        fragments_of(complete(3), (0, 1), 1)  # host too small
    with pytest.raises(ValueError):
        fragments_of(complete(5), (0, 1), 0)
    with pytest.raises(ValueError):
        fragments_of(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), (0, 2), 1)


def test_fragment_validate_rejects_tampering():
    # host K4 on {2, 3, 4, 5}; f cuts off vertex 2
    f = next(x for x in fragments_of(complete(6), (0, 1), 4) if x.side == {2})
    f.validate()
    oversized = Fragment(complete(EXHAUSTIVE_LIMIT + 3), (0, 1), {2})
    cases = [
        (replace(f, deleted=(0, 0)), "repeat"),
        (replace(f, deleted=(0, 6)), "vertex 6 out of range for n=6"),
        (replace(f, side=frozenset()), "nonempty proper part"),
        (replace(f, side={1, 2}), "nonempty proper part"),
        (replace(f, side={2, 3, 4, 5}), "nonempty proper part"),
        (replace(f, side={2, 6}), "vertex 6 out of range for n=6"),
        (replace(f, side={2, 3}), "minimum"),
        (oversized, "exhaustive limit"),
    ]
    for wrong, message in cases:
        with pytest.raises(ValueError, match=message):
            wrong.validate()


def test_fragment_calls_reject_a_deleted_pair_that_is_not_an_edge():
    """A record whose deleted pair is no edge passes validate, which checks
    only the cut, but every call that reads the pair as an edge raises."""
    g = cycle_graph(6)
    bad = Fragment(g, (0, 2), {1})
    bad.validate()
    f = fragments_of(g, (3, 4), 2)[0]
    for call in (
        lambda: check_fragment_overlap(f, bad),
        lambda: check_fragment_overlap(bad, f),
        lambda: minimal_fragment_descent(bad, 1),
        lambda: verify_descent_conclusion(bad, 1),
    ):
        with pytest.raises(ValueError, match="not an edge"):
            call()


def _is_fragment_by_definition(f, lambdas):
    """The definition of a fragment, from scratch: side and the rest of the
    host are both nonempty, the host edges between them are as many as the
    host's edge connectivity by the oracle, and side induces a connected
    subgraph, as does the rest when that connectivity is positive (so a
    disconnected host's fragments are its components).  The record's derived
    complement, cut_edges and host_kprime must restate the first two.
    `lambdas` caches the oracle per deleted pair."""
    g = f.graph
    host = set(range(g.n)) - set(f.deleted)
    rest = host - f.side
    if not f.side or not rest or not f.side <= host:
        return False
    boundary = {
        (u, v) for u, v in g.edges() if {u, v} <= host and (u in f.side) != (v in f.side)
    }
    assert (f.complement, f.cut_edges, f.host_kprime) == (rest, boundary, len(boundary))
    if f.deleted not in lambdas:
        host_graph, _ = g.delete_vertices(f.deleted)
        lambdas[f.deleted] = edge_connectivity_bruteforce(host_graph)
    lam = lambdas[f.deleted]
    if len(boundary) != lam:
        return False
    halves = (f.side, rest) if lam else (f.side,)
    return all(g.induced_subgraph(h)[0].is_connected() for h in halves)


def _perturbed(f):
    """Records near f: each host vertex moved across the cut, and the
    endpoints of each other edge of the graph as the deleted pair."""
    for v in f.side | f.complement:
        yield replace(f, side=f.side ^ {v})
    for edge in f.graph.edges():
        if edge != f.deleted:
            yield replace(f, deleted=edge)


def test_fragment_validate_matches_definition():
    """validate raises exactly when a record is not a fragment by definition,
    on every fragment of seeded graphs of order 6 to 9 and its perturbations."""
    originals = 0
    verdicts = {True: 0, False: 0}
    for g in seeded_random_graphs(12, 6, 9, seed=89, p=0.6):
        lambdas = {}
        for e in g.edges():
            for f in fragments_of(g, e, g.n):
                originals += 1
                for record in [f, *_perturbed(f)]:
                    valid = _is_fragment_by_definition(record, lambdas)
                    try:
                        record.validate()
                    except ValueError:
                        assert not valid, record
                    else:
                        assert valid, record
                    verdicts[valid] += 1
    # 312 vertex moves land on another fragment of the same host, and 2,222
    # sides are a fragment of another edge's host too
    assert (originals, verdicts[True], verdicts[False]) == (703, 703 + 312 + 2222, 11970)


def test_overlap_check_scans_two_hosts(monkeypatch):
    """One overlap check scans the bipartitions of each host once: f's scan
    in validation also gives the first host's sides."""
    real = connectivity._scan_bipartitions
    hosts = []

    def counted(masks, alive):
        hosts.append(alive)
        return real(masks, alive)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kedge" and getattr(module, "_scan_bipartitions", None) is real:
            monkeypatch.setattr(module, "_scan_bipartitions", counted)
    g = complete(6)
    f = next(x for x in fragments_of(g, (0, 1), 4) if x.side == {4})
    f1 = next(x for x in fragments_of(g, (2, 3), 4) if x.side == {0, 1, 4})
    hosts.clear()
    check_fragment_overlap(f, f1)
    assert hosts == [mask_of([2, 3, 4, 5]), mask_of([0, 1, 4, 5])]


def test_overlap_alpha_on_k6():
    """In K6 with e=(0,1), e1=(2,3): F={4} and F1={0,1,4} intersect, the
    complements share vertex 5, and the intersection is again a fragment."""
    g = complete(6)
    f = next(x for x in fragments_of(g, (0, 1), 4) if x.side == {4})
    f1 = next(x for x in fragments_of(g, (2, 3), 4) if x.side == {0, 1, 4})
    r = check_fragment_overlap(f, f1)
    assert r.verdict is OverlapVerdict.INTERSECTION_FRAGMENT
    assert r.intersection == {4}
    assert r.d_intersection_remainder == 0
    assert f.host_kprime == 3


def test_overlap_violation_carries_payload():
    """A failed conclusion raises with a replay payload: a side set missing
    the intersection, or a stated connectivity its host boundary misses."""
    g = complete(6)
    f = next(x for x in fragments_of(g, (0, 1), 4) if x.side == {4})
    f1 = next(x for x in fragments_of(g, (2, 3), 4) if x.side == {0, 1, 4})
    with pytest.raises(TheoremViolation, match="not a fragment") as info:
        _overlap_verdict(
            g,
            (0, 1),
            (2, 3),
            mask_of(f.side),
            mask_of(f.complement),
            mask_of(f1.side),
            mask_of(f1.complement),
            frozenset(),
            f.host_kprime,
        )
    assert info.value.payload == {
        "graph": graph_payload(g),
        "e": (0, 1),
        "e1": (2, 3),
        "f_side": (4,),
        "f1_side": (0, 1, 4),
    }
    # so must an intersection among the sides whose host boundary is not
    # the stated connectivity
    with pytest.raises(TheoremViolation, match="host boundary is not a minimum cut") as again:
        _overlap_verdict(
            g, (0, 1), (2, 3), mask_of(f.side), mask_of(f.complement),
            mask_of(f1.side), mask_of(f1.complement), frozenset({mask_of([4])}), 2,
        )
    assert again.value.payload == info.value.payload


def test_overlap_alpha_zero_cut_host():
    g = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2)])
    f = next(x for x in fragments_of(g, (0, 3), 9) if x.side == {4})
    f1 = next(x for x in fragments_of(g, (1, 2), 9) if x.side == {0, 3, 4})
    r = check_fragment_overlap(f, f1)
    assert r.verdict is OverlapVerdict.INTERSECTION_FRAGMENT
    assert f.host_kprime == 0


def test_overlap_beta_case():
    g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)])
    f = next(x for x in fragments_of(g, (0, 5), 9) if x.side == {2, 3})
    f1 = next(x for x in fragments_of(g, (1, 4), 9) if x.side == {0, 2, 5})
    r = check_fragment_overlap(f, f1)
    assert r.verdict is OverlapVerdict.SMALL_COMPLEMENT
    assert len(f.complement) < len(f1.side)


def test_overlap_hypotheses_unmet():
    """Each hypothesis fails alone on K6, with f the side {4} of edge (0, 1),
    and gives its own reason."""
    g = complete(6)
    f = next(x for x in fragments_of(g, (0, 1), 4) if x.side == {4})
    cases = [
        ((1, 2), {0}, "edges share an endpoint"),
        ((2, 3), {5}, "first edge does not lie inside the second fragment's side"),
        ((2, 4), {0, 1, 3}, "second edge does not lie inside the first fragment's complement"),
        ((2, 3), {0, 1, 5}, "fragment sides are disjoint"),
    ]
    for e1, side, reason in cases:
        f1 = next(x for x in fragments_of(g, e1, 4) if x.side == side)
        r = check_fragment_overlap(f, f1)
        assert (r.verdict, r.reason) == (OverlapVerdict.HYPOTHESES_UNMET, reason)


def test_overlap_rejects_foreign_fragments():
    g = complete(6)
    h = complete(7)
    f = fragments_of(g, (0, 1), 4)[0]
    fh = fragments_of(h, (2, 3), 5)[0]
    with pytest.raises(ValueError, match="different graphs"):
        check_fragment_overlap(f, fh)


def test_no_configurations_below_six_vertices():
    """Orders 4 and 5 admit no hypothesis-satisfying edge/fragment pairs."""
    graphs = configs = 0
    for n in (4, 5):
        for g in all_connected_graphs(n):
            st = scan_overlap_cases(g)
            graphs += 1
            configs += st.configurations
    assert graphs == 766
    assert configs == 0


def test_scan_overlap_k6():
    st = scan_overlap_cases(complete(6))
    assert st.configurations == st.intersection_fragment + st.small_complement
    assert st.configurations > 0
    assert st.small_complement == 0  # K6 complements always share vertices


def reference_overlap_stats(g):
    """scan_overlap_cases rebuilt from the public calls: every fragment
    validated, every pair meeting the hypotheses checked in full."""
    pairs = configs = alpha = beta = 0
    hosts = {e: fragments_of(g, e, g.n) for e in g.edges()}
    for frags in hosts.values():
        for fr in frags:
            fr.validate()
    for e in g.edges():
        for e1 in g.edges():
            if set(e) & set(e1):
                continue
            pairs += 1
            for f in hosts[e]:
                for f1 in hosts[e1]:
                    if set(e1) <= f.complement and set(e) <= f1.side and f.side & f1.side:
                        configs += 1
                        verdict = check_fragment_overlap(f, f1).verdict
                        alpha += verdict is OverlapVerdict.INTERSECTION_FRAGMENT
                        beta += verdict is OverlapVerdict.SMALL_COMPLEMENT
    return pairs, configs, alpha, beta


def test_scan_overlap_matches_reference():
    graphs = [g for i, g in enumerate(all_connected_graphs(6)) if i % 50 == 0]
    graphs += [
        complete(6),
        Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2)]),
        Graph(6, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)]),
        two_cliques_bridged(5, 2),
    ]
    assert len(graphs) == 539
    total = 0
    for g in graphs:
        st = scan_overlap_cases(g)
        stats = (st.edge_pairs, st.configurations, st.intersection_fragment,
                 st.small_complement)
        assert stats == reference_overlap_stats(g), g.edges()
        total += st.configurations
    assert total > 0


def test_scan_overlap_catches_a_scanner_fault(monkeypatch):
    """A bipartition scanner at fault everywhere is caught once per host: a
    value one too high by the maximum-adjacency kernel, a side whose cut is
    not minimum by the boundary recount."""
    real = connectivity._scan_bipartitions

    def inject(fault):
        def faulty(masks, alive):
            return fault(alive, *real(masks, alive))

        monkeypatch.setattr(connectivity, "_scan_bipartitions", faulty)

    inject(lambda alive, best, sides: (best + 1, sides))
    with pytest.raises(InternalCheckError, match="maximum-adjacency"):
        scan_overlap_cases(complete(6))
    # in each host K4 the lowest two vertices have 4 edges out, not 3
    inject(lambda alive, best, sides: (best, sides + [mask_of(_bits(alive)[:2])]))
    with pytest.raises(InternalCheckError, match="boundary is not 3"):
        scan_overlap_cases(complete(6))


def test_descent_on_bridged_cliques():
    g = two_cliques_bridged(5, 2)
    f0 = fragments_of(g, (0, 1), 2)[0]
    res = minimal_fragment_descent(f0, 2)
    assert res.deleted == (1, 4)
    assert sorted(res.side) == [0, 2, 3]
    assert res.side | set(res.deleted) <= f0.side | set(f0.deleted)
    res.validate()
    # descending from the answer reproduces it
    again = minimal_fragment_descent(res, 2)
    assert again == res


def test_descent_conclusion_report():
    g = two_cliques_bridged(5, 2)
    f0 = fragments_of(g, (0, 1), 2)[0]
    res = minimal_fragment_descent(f0, 2)
    rep = verify_descent_conclusion(res, 2)
    assert rep.edges_checked == 2
    assert rep.fragments_checked == 4
    assert rep.disjoint_confirmed == 2
    assert rep.split_endpoint_cases == ()
    assert rep.min_side_degree == 2


def test_descent_preconditions():
    g = two_cliques_bridged(5, 2)
    f0 = fragments_of(g, (0, 1), 2)[0]
    with pytest.raises(ValueError):
        minimal_fragment_descent(f0, 3)  # graph is not 3-edge-connected
