"""Acceptance gate: one test per shipped guarantee, run order matches the README.

Each test ends with a single PASS line (visible under pytest -s or -v via the
test outcome); a failure anywhere is a gate failure.  Budgets are generous,
the whole file runs in a few minutes on a laptop.
"""

import itertools
import json
import time

from conftest import seeded_random_graphs

from kedge.connectivity import (
    edge_connectivity,
    edge_connectivity_bruteforce,
    is_k_connected,
    is_k_edge_connected,
)
from kedge.fragments import (
    fragments_of,
    minimal_fragment_descent,
    scan_overlap_cases,
    verify_descent_conclusion,
)
from kedge.generators import (
    all_connected_graphs,
    complete,
    gen_with_hypotheses,
    random_graph,
    two_cliques_bridged,
)
from kedge.graph import Graph
from kedge.harness import CampaignConfig, run_campaign, verify_tightness
from kedge.io import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from kedge.removal import (
    extract_connected_subgraph,
    find_removable_edge,
    find_removable_tree,
    find_removable_vertex,
    removable_tree_via_thomassen,
)
from kedge.trees import FREE_TREE_COUNTS, parse_tree_spec

MASTER_SEED = 20260822


def _ok(line):
    print(f"PASS {line}")


def _load_payload(payload):
    if payload["format"] == "graph6":
        return parse_graph6(payload["data"])
    return parse_edge_list(payload["data"])


def test_01_flow_oracle_matches_exhaustive_splits():
    # every labeled graph on 2..6 vertices, then a seeded random batch
    deadline = time.monotonic() + 300
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert edge_connectivity(g)[0] == edge_connectivity_bruteforce(g)
            checked += 1
    assert checked == 2 + 8 + 64 + 1024 + 32768
    for g in seeded_random_graphs(1000, 7, 12, MASTER_SEED):
        assert edge_connectivity(g)[0] == edge_connectivity_bruteforce(g)
        checked += 1
    assert time.monotonic() < deadline
    _ok(f"criterion 1: maximum-adjacency kernel agrees with exhaustive splits on {checked} graphs")


def _witness_campaign(statement):
    cfg = CampaignConfig(
        statement=statement,
        k_values=(1, 2, 3, 4),
        trials=500,
        master_seed=MASTER_SEED,
        n_range=(8, 16),
    )
    result = run_campaign(cfg)
    assert not result.has_violation
    for label, stats in result.summary["per_cell"].items():
        assert stats["generation_failed"] == 0, label
        assert stats["witness_found"] == 500, (label, stats)
        assert stats["all_expected"]
    return result


def test_02_removable_vertex_found_on_every_hypothesis_instance():
    result = _witness_campaign("mader_vertex")
    _ok(f"criterion 2: removable vertex found in all {len(result.trials)} trials, k=1..4")


def test_03_removable_edge_found_on_every_hypothesis_instance():
    result = _witness_campaign("edge_pair")
    _ok(f"criterion 3: removable edge found in all {len(result.trials)} trials, k=1..4")


def test_04_removable_tree_found_and_small_orders_coincide():
    cfg = CampaignConfig(
        statement="tree",
        k_values=(1, 2, 3),
        m_values=(1, 2, 3, 4, 5, 6),
        trials=100,
        master_seed=MASTER_SEED,
        n_range=(8, 16),
    )
    result = run_campaign(cfg)
    assert not result.has_violation
    assert len(result.summary["per_cell"]) == 3 * sum(FREE_TREE_COUNTS[:6])
    for label, stats in result.summary["per_cell"].items():
        assert stats["generation_failed"] == 0, label
        assert stats["witness_found"] == 100, (label, stats)
    # order-1 and order-2 trees must agree with the dedicated finders
    cross_checked = 0
    for trial in result.trials:
        if trial.m not in (1, 2):
            continue
        g = _load_payload(trial.graph)
        if trial.m == 1:
            cert = find_removable_vertex(g, trial.k)
        else:
            cert = find_removable_edge(g, trial.k)
        assert cert is not None and cert.removed == trial.witness_removed, trial.seed
        cross_checked += 1
    assert cross_checked == 3 * 2 * 100
    _ok(
        f"criterion 4: removable tree found in all {len(result.trials)} trials, "
        f"orders 1-2 coincide with the vertex/edge finders on {cross_checked} graphs"
    )


def test_05_complete_graph_family_is_tight():
    rows = 0
    for k in (2, 3, 4):
        for m in (2, 3, 4, 5):
            report = verify_tightness(k, m)
            assert report.passed
            assert not report.convention_sensitive
            assert report.expected_residual_kprime == k - 1
            assert len(report.rows) == FREE_TREE_COUNTS[m - 1]
            assert all(outcome == "not_found" for _, outcome in report.rows)
            rows += len(report.rows)
    _ok(f"criterion 5: complete-graph family tight for k=2..4, m=2..5 ({rows} tree shapes)")


def test_05b_complete_graph_family_is_tight_beyond_the_gate():
    """The same family at orders 6 to 8, where every tree image must be
    walked: K_{k+m} has the most twin hosts a graph can have."""
    rows = 0
    for k in (2, 3, 4):
        for m in (6, 7, 8):
            report = verify_tightness(k, m)
            assert report.passed
            assert len(report.rows) == FREE_TREE_COUNTS[m - 1]
            assert all(outcome == "not_found" for _, outcome in report.rows)
            rows += len(report.rows)
    _ok(f"criterion 5 beyond the gate: tight for k=2..4, m=6..8 ({rows} tree shapes)")


def test_06_dense_core_extraction_removes_a_path():
    cases = [
        (complete(38), 1, "path:2", 35),
        (random_graph(42, 0.95, 1), 1, "path:2", None),
        (complete(102), 2, "path:3", 98),
        (random_graph(110, 0.96, 6), 2, "path:3", None),
    ]
    for g, k, spec, want_kprime in cases:
        tree = parse_tree_spec(spec)
        k_target = k + tree.order
        assert g.min_degree() > 4 * k_target * k_target
        if want_kprime is None:
            # the seeded instances must genuinely be non-complete
            assert g.edge_count < g.n * (g.n - 1) // 2
        start = time.monotonic()
        core = extract_connected_subgraph(g, k_target)
        core.validate(g)
        sub, _ = g.induced_subgraph(sorted(core.vertices))
        assert is_k_connected(sub, k_target)
        assert len(core.vertices) > 4 * k_target * k_target
        assert len(core.boundary) <= 2 * k_target * k_target
        cert = removable_tree_via_thomassen(g, k, tree)
        elapsed = time.monotonic() - start
        assert is_k_edge_connected(g.delete_vertices(cert.removed)[0], k)
        assert len(cert.removed) == tree.order
        if want_kprime is not None:
            assert cert.residual_kprime == want_kprime
        assert elapsed < 120, (g.n, elapsed)
    _ok("criterion 6: dense-core extraction removes a path on all 4 instances under budget")


def test_07_overlap_dichotomy_exhaustive_to_order_six():
    configs = alpha = beta = 0
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            stats = scan_overlap_cases(g)
            configs += stats.configurations
            alpha += stats.intersection_fragment
            beta += stats.small_complement
    assert configs == 649440
    assert alpha == 489600
    assert beta == 159840
    assert configs == alpha + beta
    _ok(
        f"criterion 7: overlap dichotomy holds in all {configs} configurations "
        f"({alpha} intersection, {beta} small complement), zero violations"
    )


def test_08_minimal_fragment_descent_on_bridged_cliques():
    g = two_cliques_bridged(5, 2)
    f0 = fragments_of(g, (0, 1), 2)[0]
    res = minimal_fragment_descent(f0, 2)
    assert len(res.fragment.side) == 3
    assert sorted(res.fragment.side) == [0, 2, 3]
    report = verify_descent_conclusion(res, 2)
    assert report.fragments_checked == 4
    assert report.disjoint_confirmed == 2
    assert report.split_endpoint_cases == ()
    assert report.min_side_degree >= 1
    _ok("criterion 8: minimal-fragment descent and its disjointness audit verified")


def _reference_graph6_decode(text):
    # independent decoder, short form only: header byte then column-major bits
    data = [b - 63 for b in text.encode("ascii")]
    n = data[0]
    bits = []
    for b in data[1:]:
        bits.extend((b >> s) & 1 for s in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return n, edges


def test_09_replay_determinism_and_io_round_trips():
    cfg = CampaignConfig(
        statement="edge_pair",
        k_values=(2, 3),
        trials=10,
        master_seed=MASTER_SEED,
        n_range=(8, 14),
    )
    first = run_campaign(cfg).to_dict()
    second = run_campaign(cfg).to_dict()
    for report in (first, second):
        for trial in report["trials"]:
            trial.pop("wall_time")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    round_tripped = 0
    graphs = [_load_payload(t["graph"]) for t in first["trials"] if t["graph"]]
    graphs += [gen_with_hypotheses(n, 2, 4, seed) for n, seed in ((9, 3), (12, 8), (16, 21))]
    for g in graphs:
        assert parse_edge_list(write_edge_list(g)) == g
        assert parse_graph6(write_graph6(g)) == g
        round_tripped += 1

    n, edges = _reference_graph6_decode("C~")
    assert parse_graph6("C~") == Graph(n, edges) == complete(4)
    for g in graphs[:5]:
        ref_n, ref_edges = _reference_graph6_decode(write_graph6(g))
        assert Graph(ref_n, ref_edges) == g
    _ok(
        f"criterion 9: campaign replay byte-identical, {round_tripped} graphs "
        "round-trip both formats, graph6 decode cross-checked"
    )


def test_10_open_range_produces_no_unverified_alarm():
    cfg = CampaignConfig(
        statement="tree",
        k_values=(4, 5),
        m_values=(3, 4),
        trials=200,
        master_seed=MASTER_SEED,
        n_range=(8, 16),
    )
    result = run_campaign(cfg)
    assert not result.has_violation
    assert len(result.summary["per_cell"]) == 2 * (FREE_TREE_COUNTS[2] + FREE_TREE_COUNTS[3])
    misses = [t for t in result.trials if t.outcome == "conjecture_open_datapoint"]
    for trial in misses:
        # every alarm carries reproduction data and must survive a from-scratch recheck
        g = _load_payload(trial.graph)
        tree = parse_tree_spec(trial.tree)
        assert g.min_degree() >= trial.k + trial.m
        assert is_k_edge_connected(g, trial.k)
        assert find_removable_tree(g, trial.k, tree) is None
        print("open datapoint:", json.dumps(trial.to_dict(), sort_keys=True, default=str))
    found = sum(1 for t in result.trials if t.outcome == "witness_found")
    _ok(
        f"criterion 10: open-range sweep k=4..5, m=3..4: {found} witnesses, "
        f"{len(misses)} re-verified open datapoints, no unverified alarm"
    )
