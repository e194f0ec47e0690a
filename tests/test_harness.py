"""Campaign orchestration: outcomes, summaries, determinism, and reports."""

import hashlib
import json

import pytest

import kedge.harness as harness
from kedge.errors import InternalCheckError
from kedge.harness import (
    CampaignConfig,
    CounterexampleReport,
    TightnessReport,
    TrialReport,
    counterexample_search,
    run_campaign,
    verify_tightness,
    write_report,
)
from kedge.connectivity import connectivity_report
from kedge.generators import cycle_graph, petersen_graph, two_cliques_bridged
from kedge.io import load_graph, parse_graph6, save_graph
from kedge.removal import RemovalCertificate
from kedge.rng import derive_seed
from kedge.trees import enumerate_trees


def small_config(**overrides):
    base = dict(
        statement="edge_pair",
        k_values=(2,),
        trials=4,
        master_seed=11,
        n_range=(8, 11),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_edge_pair_campaign_all_witnesses():
    res = run_campaign(small_config())
    cell = res.summary["per_cell"]["edge_pair k=2"]
    assert cell["witness_found"] == 4 and cell["all_expected"]
    assert not res.has_violation
    for t in res.trials:
        assert t.outcome == "witness_found"
        assert t.witness_residual_kprime >= 2
        assert t.min_degree >= 4 and t.kprime >= 2
        assert t.graph["format"] == "graph6"


def test_mader_vertex_campaign():
    cfg = small_config(statement="mader_vertex", k_values=(1, 3), trials=3)
    res = run_campaign(cfg)
    for k in (1, 3):
        cell = res.summary["per_cell"][f"mader_vertex k={k}"]
        assert cell["witness_found"] == 3 and cell["all_expected"]


def test_tree_campaign_with_open_cell():
    cfg = CampaignConfig(
        statement="tree",
        k_values=(2, 4),
        trials=2,
        master_seed=77,
        m_values=(3,),
        n_range=(9, 12),
    )
    res = run_campaign(cfg)
    proven = res.summary["per_cell"]["tree k=2 tree=prufer:0"]
    open_cell = res.summary["per_cell"]["tree k=4 tree=prufer:0"]
    assert proven["expected"] == "witness_found" and proven["all_expected"]
    # k=4, m=3 carries no theorem; found witnesses are data, misses are not failures
    assert open_cell["expected"] is None
    assert "all_expected" not in open_cell
    assert open_cell["witness_found"] + open_cell["open_datapoints"] == 2


def test_open_range_starts_at_k4_m3():
    """The tree statement is proven for k <= 3 or m <= 2 and open beyond:
    only the (4, 3) cell carries no expected outcome."""
    res = run_campaign(
        CampaignConfig("tree", (3, 4), 1, 0, n_range=(8, 9), m_values=(2, 3))
    )
    expected = {
        (t.k, t.m): res.summary["per_cell"][f"tree k={t.k} tree={t.tree}"]["expected"]
        for t in res.trials
    }
    assert expected == {
        (3, 2): "witness_found",
        (3, 3): "witness_found",
        (4, 2): "witness_found",
        (4, 3): None,
    }


def test_tightness_campaign_and_convention():
    cfg = CampaignConfig(
        statement="tightness",
        k_values=(1, 2),
        trials=2,
        master_seed=3,
        m_values=(2,),
    )
    res = run_campaign(cfg)
    c1 = res.summary["per_cell"]["tightness k=1 tree=path:2"]
    c2 = res.summary["per_cell"]["tightness k=2 tree=path:2"]
    assert c1["witness_found"] == 2 and c1["convention_sensitive"]
    assert c2["not_found"] == 2 and c2["all_expected"]
    assert "convention_sensitive" not in c2


def test_explicit_tree_list():
    cfg = CampaignConfig(
        statement="tree",
        k_values=(1,),
        trials=2,
        master_seed=5,
        trees=("star:3", "path:4"),
        n_range=(8, 10),
    )
    res = run_campaign(cfg)
    assert set(res.summary["per_cell"]) == {
        "tree k=1 tree=star:3",
        "tree k=1 tree=path:4",
    }


def test_tree_draws_leave_room_for_the_tree():
    """The order is raised past the degree floor, which for the tree
    statement is k+m, so it already exceeds the tree's order m: n_range
    (1, 1) draws order k+m+1, and every tree is removed."""
    res = run_campaign(CampaignConfig("tree", (1, 3), 2, 0, n_range=(1, 1), m_values=(6,)))
    assert {(t.k, t.n) for t in res.trials} == {(1, 8), (3, 10)}
    assert all(t.outcome == "witness_found" for t in res.trials)


def test_replay_determinism():
    cfg = small_config()
    a = run_campaign(cfg)
    b = run_campaign(cfg)

    def strip(trials):
        return [
            {k: v for k, v in t.to_dict().items() if k != "wall_time"}
            for t in trials
        ]

    assert strip(a.trials) == strip(b.trials)
    assert a.summary == b.summary


def _report_digest(config):
    report = run_campaign(config).to_dict()
    for trial in report["trials"]:
        trial.pop("wall_time")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_tree_campaign_report_is_pinned():
    """The k = 5 cells pack three cycles per graph, the generator's hardest
    draws; a report digest pins them across versions, not just two runs."""
    digest = _report_digest(CampaignConfig("tree", (4, 5), 3, 1, m_values=(3, 4)))
    assert digest == "7886a6a6b0be57be1130f565ea867c7179bf6352c387297ec9ea175d0909a4f7"


def test_replay_config_report_is_pinned():
    """CI's three-cycle replay config (tree, k = 5, m = 3, 10 trials, seed
    42), pinned across versions where CI compares two runs of one."""
    digest = _report_digest(CampaignConfig("tree", (5,), 10, 42, m_values=(3,)))
    assert digest == "143025f5992aa42fc631961b29dd45edb0799f3ad94ec61c94e5fcd37ca1da07"


def test_report_json_round_trip(tmp_path):
    cfg = small_config(trials=2)
    res = run_campaign(cfg)
    path = tmp_path / "report.json"
    write_report(res, path)
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"config", "trials", "summary"}
    assert loaded["config"] == cfg.to_dict()
    assert CampaignConfig.from_dict(loaded["config"]) == cfg
    assert len(loaded["trials"]) == 2


@pytest.mark.parametrize("model, n_range", [("complete:1", (8, 16))])
def test_one_vertex_graph_fails_generation(model, n_range):
    """A named K1 ignores the drawn order and still reaches the hypotheses
    gate, which fails it: one vertex has no edge connectivity, even at k=1."""
    cfg = CampaignConfig(
        statement="mader_vertex",
        k_values=(1, 2),
        trials=1,
        master_seed=1,
        model=model,
        n_range=n_range,
    )
    res = run_campaign(cfg)
    for trial in res.trials:
        assert (trial.outcome, trial.n, trial.kprime) == ("generation_failed", 1, None)
    for k in (1, 2):
        assert res.summary["per_cell"][f"mader_vertex k={k}"]["generation_failed"] == 1


def test_generator_giving_up_is_a_generation_failure():
    """Four edge-disjoint hamiltonian cycles on 9 vertices are a
    decomposition of K_9, which 200 random tries per cycle do not find: the
    generator's GenerationError becomes a failed trial with no graph."""
    cfg = CampaignConfig(
        statement="mader_vertex",
        k_values=(1,),
        trials=2,
        master_seed=5,
        n_range=(9, 9),
        model="hamiltonian_stack",
        params=(("t", 4),),
    )
    res = run_campaign(cfg)
    assert [(t.outcome, t.n, t.graph) for t in res.trials] == [("generation_failed", None, None)] * 2


def test_miss_recheck_above_the_oracle_limit(monkeypatch):
    """A miss on a host above 16 vertices rechecks the hypotheses with the
    k-edge decision, not the oracle; a recheck that fails, on either route,
    is an internal error."""
    monkeypatch.setattr(harness, "find_removable_vertex", lambda g, k: None)

    def no_oracle(g):
        raise AssertionError(f"oracle called on {g.n} vertices")

    monkeypatch.setattr(harness, "edge_connectivity_bruteforce", no_oracle)
    big = small_config(statement="mader_vertex", trials=1, n_range=(17, 17))
    (trial,) = run_campaign(big).trials
    assert (trial.outcome, trial.n) == ("theorem_violation_candidate", 17)
    monkeypatch.setattr(harness, "is_k_edge_connected", lambda g, k: False)
    with pytest.raises(InternalCheckError, match="hypotheses failed on recheck"):
        run_campaign(big)
    monkeypatch.setattr(harness, "edge_connectivity_bruteforce", lambda g: 0)
    with pytest.raises(InternalCheckError, match="hypotheses failed on recheck"):
        run_campaign(small_config(statement="mader_vertex", trials=1))


def test_forced_miss_becomes_violation_candidate(monkeypatch):
    """A reproducible finder miss on a theorem cell is escalated only after
    the recheck; the plumbing is exercised with a stubbed finder."""
    monkeypatch.setattr(harness, "find_removable_vertex", lambda g, k: None)
    cfg = small_config(statement="mader_vertex", trials=2)
    res = run_campaign(cfg)
    assert res.has_violation
    cell = res.summary["per_cell"]["mader_vertex k=2"]
    assert cell["violations"] == 2 and cell["all_expected"] is False
    for t in res.trials:
        assert t.outcome == "theorem_violation_candidate"
        assert t.graph is not None  # reproduction data survives


@pytest.mark.parametrize(
    "finder, overrides",
    [
        ("find_removable_vertex", dict(statement="mader_vertex")),
        # a miss in an open cell is re-verified before it becomes a datapoint
        ("find_removable_tree", dict(statement="tree", k_values=(4,), m_values=(3,))),
    ],
    ids=["vertex", "open_tree_cell"],
)
def test_flaky_finder_is_an_internal_error(monkeypatch, finder, overrides):
    calls = {"n": 0}
    real = getattr(harness, finder)

    def flaky(*args):
        calls["n"] += 1
        return None if calls["n"] % 2 else real(*args)

    monkeypatch.setattr(harness, finder, flaky)
    with pytest.raises(InternalCheckError, match="rerun"):
        run_campaign(small_config(trials=1, **overrides))
    assert calls["n"] == 2


def test_forced_tightness_miss_at_k1_is_a_violation_candidate(monkeypatch):
    """Removal from K_{1+m} succeeds by the trivial-residual convention, so a
    miss there, which only a broken finder gives, is re-verified and
    escalated in the campaign and in `verify_tightness` alike."""
    monkeypatch.setattr(harness, "find_removable_tree", lambda g, k, tree: None)
    res = run_campaign(CampaignConfig("tightness", (1,), 2, 3, m_values=(3,)))
    assert res.has_violation
    assert [t.outcome for t in res.trials] == ["theorem_violation_candidate"] * 2
    assert res.summary["per_cell"]["tightness k=1 tree=prufer:0"]["all_expected"] is False
    rep = verify_tightness(1, 3)
    assert rep.rows == (("prufer:0", "theorem_violation_candidate"),)
    assert not rep.passed


def test_convention_witness_reports_a_trivial_residual():
    """At k = 1 a tree off K_{1+m} leaves K_1, whose witness the campaign
    reports as trivial, with no residual connectivity."""
    (trial,) = run_campaign(CampaignConfig("tightness", (1,), 1, 0, m_values=(3,))).trials
    assert trial.outcome == "witness_found"
    assert trial.witness_residual_trivial is True
    assert trial.witness_residual_kprime is None


def test_convention_witness_with_a_residual_value_fails_tightness(monkeypatch):
    """The k = 1 cell expects a witness with a trivial residual; one that
    carries a residual connectivity fails `verify_tightness`."""
    cert = RemovalCertificate("tree", (0, 1, 2), 1)
    monkeypatch.setattr(harness, "find_removable_tree", lambda g, k, tree: cert)
    rep = verify_tightness(1, 3)
    assert rep.rows == (("prufer:0", "witness_found"),)
    assert not rep.passed


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(statement="bogus", k_values=(1,), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(statement="tree", k_values=(1,), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(statement="edge_pair", k_values=(), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(statement="edge_pair", k_values=(1,), trials=0, master_seed=0)
    with pytest.raises(ValueError, match="k values must be at least 1"):
        CampaignConfig(statement="edge_pair", k_values=(2, 0), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(
            statement="edge_pair",
            k_values=(1,),
            trials=1,
            master_seed=0,
            n_range=(9, 8),
        )
    for n_range in ((0, 4), (-2, 0)):
        with pytest.raises(ValueError, match="n_range low end must be at least 1"):
            CampaignConfig(
                statement="edge_pair",
                k_values=(1,),
                trials=1,
                master_seed=0,
                n_range=n_range,
            )


def test_verify_tightness(monkeypatch):
    rep = verify_tightness(2, 3)
    assert rep.passed and not rep.convention_sensitive
    assert rep.expected_residual_kprime == 1
    assert rep.rows == (("prufer:0", "not_found"),)
    rep = verify_tightness(3, 2)
    assert rep.passed and rep.expected_residual_kprime == 2
    rep = verify_tightness(4, 4)
    assert rep.passed and len(rep.rows) == 2
    assert rep.to_dict()["residual_order"] == 4
    # the residual K_k's connectivity is pinned at k - 1 too, so a kernel
    # giving another value fails the report though every tree misses
    monkeypatch.setattr(harness, "edge_connectivity", lambda g: (g.n, None))
    rep = verify_tightness(3, 2)
    assert rep.rows == (("path:2", "not_found"),) and not rep.passed


def test_verify_tightness_trivial_convention():
    rep = verify_tightness(1, 2)
    assert rep.passed and rep.convention_sensitive
    assert rep.expected_residual_kprime is None
    assert all(outcome == "witness_found" for _, outcome in rep.rows)


def test_tightness_report_matches_the_campaign():
    """Both tightness routes share one rule: each row of `verify_tightness`
    is the outcome of the one-trial campaign cell for the same k and tree."""
    ms = range(1, 7)
    result = run_campaign(
        CampaignConfig(
            statement="tightness",
            k_values=(1, 2, 3, 4),
            trials=1,
            master_seed=0,
            m_values=tuple(ms),
        )
    )
    assert all(cell["all_expected"] for cell in result.summary["per_cell"].values())
    for k in range(1, 5):
        reports = [verify_tightness(k, m) for m in ms]
        assert all(rep.passed for rep in reports)
        rows = [row for rep in reports for row in rep.rows]
        assert [(t.tree, t.outcome) for t in result.trials if t.k == k] == rows


def test_verify_tightness_preconditions():
    with pytest.raises(ValueError):
        verify_tightness(0, 2)
    with pytest.raises(ValueError):
        verify_tightness(2, 11)  # tree enumeration cap


def test_analyze(tmp_path):
    path = tmp_path / "pet.g6"
    save_graph(petersen_graph(), path)
    rep = connectivity_report(load_graph(path))
    assert rep.edge_connectivity == 3 and rep.n == 10


def test_counterexample_search_small():
    rep = counterexample_search(k=2, m=2, budget=5, seed=99)
    assert rep.candidates == ()
    assert rep.graphs_tested + rep.generation_failures == 5
    assert rep.trees_per_graph == 1
    assert rep.min_delta_success >= 4
    assert rep.to_dict()["candidates"] == []
    with pytest.raises(ValueError):
        counterexample_search(2, 2, budget=0, seed=1)


@pytest.mark.parametrize(
    "host",
    # below the degree floor k+m = 4, then above it with edge connectivity 1
    [cycle_graph(12), two_cliques_bridged(6, 1)],
    ids=["low_degree", "low_connectivity"],
)
def test_counterexample_host_below_hypotheses_is_a_generation_failure(monkeypatch, host):
    monkeypatch.setattr(harness, "_draw_graph", lambda *args: host)
    rep = counterexample_search(k=2, m=2, budget=3, seed=1)
    assert (rep.graphs_tested, rep.generation_failures) == (0, 3)
    assert rep.candidates == () and rep.min_delta_success is None


def test_counterexample_miss_becomes_candidate(monkeypatch):
    """Every confirmed miss is recorded with its reproduction data; the
    plumbing is exercised with a stubbed finder."""
    monkeypatch.setattr(harness, "find_removable_tree", lambda g, k, tree: None)
    rep = counterexample_search(k=2, m=4, budget=3, seed=5)
    trees = [t.spec_string() for t in enumerate_trees(4)]
    assert rep.graphs_tested == 3 and rep.trees_per_graph == len(trees) == 2
    assert rep.min_delta_success is None
    assert len(rep.candidates) == 3 * len(trees)
    for i in range(3):
        per_graph = rep.candidates[i * len(trees) : (i + 1) * len(trees)]
        assert [c["tree"] for c in per_graph] == trees
        for c in per_graph:
            assert set(c) == {"graph", "seed", "n", "k", "m", "tree", "min_degree"}
            assert (c["seed"], c["k"], c["m"]) == (derive_seed(5, i), 2, 4)
            g = parse_graph6(c["graph"]["data"])
            assert (g.n, g.min_degree()) == (c["n"], c["min_degree"])
            assert c["min_degree"] >= 6


def test_counterexample_flaky_finder_is_an_internal_error(monkeypatch):
    calls = {"n": 0}
    real = harness.find_removable_tree

    def succeeds_on_rerun(g, k, tree):
        calls["n"] += 1
        return None if calls["n"] % 2 else real(g, k, tree)

    monkeypatch.setattr(harness, "find_removable_tree", succeeds_on_rerun)
    with pytest.raises(InternalCheckError, match="rerun"):
        counterexample_search(k=2, m=2, budget=1, seed=99)
    assert calls["n"] == 2


def test_reports_serialize_to_plain_data():
    graph = {"format": "graph6", "data": "DQc"}
    trial = TrialReport(
        statement="edge_pair",
        k=2,
        m=None,
        tree=None,
        cell_index=1,
        trial_index=3,
        seed=17,
        n=5,
        edge_count=6,
        min_degree=2,
        kprime=2,
        outcome="witness_found",
        witness_removed=(0, 4),
        witness_residual_kprime=None,
        witness_residual_trivial=False,
        graph=graph,
        wall_time=0.25,
    )
    assert trial.to_dict() == {
        "statement": "edge_pair",
        "k": 2,
        "m": None,
        "tree": None,
        "cell_index": 1,
        "trial_index": 3,
        "seed": 17,
        "n": 5,
        "edge_count": 6,
        "min_degree": 2,
        "kprime": 2,
        "outcome": "witness_found",
        "witness_removed": [0, 4],
        "witness_residual_kprime": None,
        "witness_residual_trivial": False,
        "graph": graph,
        "wall_time": 0.25,
    }
    tight = TightnessReport(
        k=2,
        m=3,
        residual_order=2,
        expected_residual_kprime=1,
        convention_sensitive=False,
        rows=(("prufer:0", "not_found"),),
        passed=True,
    )
    assert tight.to_dict() == {
        "k": 2,
        "m": 3,
        "residual_order": 2,
        "expected_residual_kprime": 1,
        "convention_sensitive": False,
        "rows": [["prufer:0", "not_found"]],
        "passed": True,
    }
    candidate = {"graph": graph, "seed": 8, "n": 5, "k": 2, "m": 3}
    search = CounterexampleReport(
        k=2,
        m=3,
        budget=4,
        seed=1,
        graphs_tested=3,
        trees_per_graph=1,
        generation_failures=1,
        candidates=(candidate,),
        min_delta_success=None,
    )
    assert search.to_dict() == {
        "k": 2,
        "m": 3,
        "budget": 4,
        "seed": 1,
        "graphs_tested": 3,
        "trees_per_graph": 1,
        "generation_failures": 1,
        "candidates": [candidate],
        "min_delta_success": None,
    }
    # a config takes shapes from one of its two fields; each round-trips
    for m_values, trees in (((3,), ()), ((), ("star:3",))):
        config = CampaignConfig(
            statement="tree",
            k_values=(2, 3),
            trials=1,
            master_seed=4,
            n_range=(9, 12),
            m_values=m_values,
            trees=trees,
            model="gnp",
            params=(("p", 0.5),),
        )
        assert config.to_dict() == {
            "statement": "tree",
            "k_values": [2, 3],
            "trials": 1,
            "master_seed": 4,
            "n_range": [9, 12],
            "m_values": list(m_values),
            "trees": list(trees),
            "model": "gnp",
            "params": {"p": 0.5},
        }
        assert CampaignConfig.from_dict(config.to_dict()) == config


def test_config_rejects_m_values_with_trees():
    """Both shape fields at once is an error when the config is built, not
    only when a campaign starts on it."""
    with pytest.raises(ValueError, match="mutually exclusive"):
        CampaignConfig("tree", (2,), 1, 0, m_values=(3,), trees=("star:3",))
