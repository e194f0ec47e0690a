import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import kedge.harness as harness
from kedge.cli import main
from kedge.generators import complete, petersen_graph
from kedge.graph import MAX_ORDER
from kedge.io import save_graph, write_edge_list


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
def test_analyze(tmp_path, capsys, fmt):
    """The content picks the parser, whatever the file is called."""
    path = tmp_path / "k5.txt"
    save_graph(complete(5), path, fmt)
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "edge connectivity: 4" in out
    assert "vertex connectivity: 4" in out


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 x\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert "line 2" in err
    # a repeated edge, here reversed, is an input error too
    path.write_text("3 2\n0 1\n1 0\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert "line 3" in err and "line 2" in err
    # so is a header order past the cap, before anything is allocated
    path.write_text("1000000000000 0\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert "line 1" in err
    # a graph6 file holding only the optional header holds no graph
    path.write_text(">>graph6<<\n")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 2 and err.startswith("error:")


def test_find_removable(tmp_path, capsys):
    path = tmp_path / "pet.g6"
    save_graph(petersen_graph(), path, "graph6")
    code, out, _ = run(["find-removable", "--k", "1", "--vertex", str(path)], capsys)
    assert code == 0 and "removable vertex: vertices (0,)" in out
    code, out, _ = run(["find-removable", "--k", "3", "--vertex", str(path)], capsys)
    assert code == 0 and "no removable vertex" in out
    code, out, _ = run(
        ["find-removable", "--k", "1", "--tree", "path:3", str(path)], capsys
    )
    assert code == 0 and "removable tree" in out


def test_find_removable_flags_are_exclusive(tmp_path, capsys):
    path = tmp_path / "pet.g6"
    save_graph(petersen_graph(), path, "graph6")
    with pytest.raises(SystemExit) as exc:
        main(["find-removable", "--k", "1", "--vertex", "--edge", str(path)])
    assert exc.value.code == 2


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, _, _ = run(
        ["gen", "--model", "with_hypotheses", "--n", "10", "--k", "2",
         "--delta", "4", "--seed", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    from kedge.generators import gen_with_hypotheses
    from kedge.io import load_graph

    assert load_graph(out_path) == gen_with_hypotheses(10, 2, 4, 7)


def test_gen_to_stdout(capsys):
    code, out, _ = run(["gen", "--model", "petersen"], capsys)
    assert code == 0
    assert out == write_edge_list(petersen_graph())


def test_gen_passes_model_params(capsys):
    """--param KEY=VALUE reaches the generator's params, repeatably; a key
    the model does not read, or a malformed pair, exits 2."""
    from kedge.generators import gen_hamiltonian_stack, random_graph

    code, out, _ = run(["gen", "--model", "gnp", "--n", "12", "--seed", "3",
                        "--param", "p=0.2"], capsys)
    assert code == 0 and out == write_edge_list(random_graph(12, 0.2, 3))
    code, out, _ = run(["gen", "--model", "hamiltonian_stack", "--n", "14", "--seed", "3",
                        "--param", "t=2", "--param", "extra_edge_prob=0.1"], capsys)
    assert code == 0 and out == write_edge_list(gen_hamiltonian_stack(14, 2, 0.1, 3))
    for bad in (["--model", "gnp", "--param", "q=0.2"], ["--model", "petersen", "--param", "p=1"],
                ["--model", "gnp", "--param", "p"], ["--model", "gnp", "--param", "p=x"]):
        code, _, err = run(["gen", "--n", "12", *bad], capsys)
        assert code == 2 and err.startswith("error:")


def test_gen_infeasible_is_usage_error(capsys):
    code, _, err = run(
        ["gen", "--model", "with_hypotheses", "--n", "4", "--k", "5",
         "--delta", "5", "--seed", "1"],
        capsys,
    )
    assert code == 2 and err


def test_verify_theorem_statement(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(
        ["verify", "--statement", "edge-pair", "--k", "2", "--trials", "3",
         "--seed", "11", "--json", str(report)],
        capsys,
    )
    assert code == 0
    assert "witness_found=3" in out and "[expected witness_found: ok]" in out
    data = json.loads(report.read_text())
    assert data["summary"]["per_cell"]["edge_pair k=2"]["violations"] == 0


def test_verify_tightness_statement(capsys):
    code, out, _ = run(
        ["verify", "--statement", "tightness", "--k", "2", "--m", "3",
         "--trials", "1", "--seed", "0"],
        capsys,
    )
    assert code == 0 and "not_found=1" in out
    code, out, _ = run(
        ["verify", "--statement", "tightness", "--k", "1", "--m", "2",
         "--trials", "1", "--seed", "0"],
        capsys,
    )
    assert code == 0 and "[trivial-residual convention]" in out


def test_verify_open_cell_not_gated(capsys):
    code, out, _ = run(
        ["verify", "--statement", "tree", "--k", "4", "--m", "3",
         "--trials", "2", "--seed", "42"],
        capsys,
    )
    assert code == 0
    assert "[open conjecture cell, not gated]" in out


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "statement": "mader_vertex",
        "k_values": [1, 2],
        "trials": 2,
        "master_seed": 5,
    }))
    code, out, _ = run(["verify", "--config", str(cfg)], capsys)
    assert code == 0
    assert "mader_vertex k=1" in out and "mader_vertex k=2" in out


def test_verify_config_rejects_a_fractional_cycle_count(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "statement": "mader_vertex",
        "k_values": [2],
        "trials": 1,
        "master_seed": 5,
        "model": "hamiltonian_stack",
        "params": {"t": 2.7},
    }))
    code, _, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2 and "whole number" in err


VALID_CONFIG = {"statement": "mader_vertex", "k_values": [2], "trials": 1, "master_seed": 5}
TREE_CONFIG = VALID_CONFIG | {"statement": "tree", "m_values": [2]}


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(VALID_CONFIG | {"k_values": [2.5]}, id="fractional-k"),
        pytest.param(VALID_CONFIG | {"k_values": 2}, id="scalar-k_values"),
        pytest.param(VALID_CONFIG | {"k_values": [True]}, id="bool-k"),
        pytest.param(TREE_CONFIG | {"m_values": [2.0]}, id="float-m"),
        pytest.param(VALID_CONFIG | {"n_range": [8.5, 10]}, id="fractional-n_range"),
        pytest.param(TREE_CONFIG | {"m_values": [], "trees": [3]}, id="numeric-tree"),
        pytest.param(VALID_CONFIG | {"model": 5}, id="numeric-model"),
        pytest.param(VALID_CONFIG | {"statement": ["mader_vertex"]}, id="list-statement"),
        pytest.param(
            VALID_CONFIG | {"model": "hamiltonian_stack", "params": {"t": [1]}},
            id="list-param",
        ),
        pytest.param(VALID_CONFIG | {"trials": 2.7}, id="fractional-trials"),
        pytest.param([VALID_CONFIG], id="top-level-list"),
        pytest.param(
            {key: v for key, v in VALID_CONFIG.items() if key != "k_values"},
            id="missing-k_values",
        ),
        pytest.param(VALID_CONFIG | {"n_rnage": [30, 40]}, id="unknown-key"),
        # the degree floor is the statement's: a lower one would call C_8 a violation
        pytest.param(VALID_CONFIG | {"model": "cycle:8", "delta_min": 2}, id="retired-delta_min"),
        # cells are keyed by label, so a repeated cell would merge in the summary
        pytest.param(VALID_CONFIG | {"k_values": [2, 2]}, id="repeated-k"),
        pytest.param(TREE_CONFIG | {"m_values": [2, 2]}, id="repeated-m"),
        pytest.param(
            TREE_CONFIG | {"m_values": [], "trees": ["path:3", "PATH:3"]},
            id="repeated-tree-name",
        ),
        pytest.param(TREE_CONFIG | {"trees": ["path:2"]}, id="m_values-and-trees"),
        # the vertex and edge-pair statements sweep no shapes, so shapes are a mistake
        pytest.param(VALID_CONFIG | {"m_values": [3]}, id="unshaped-m_values"),
        pytest.param(VALID_CONFIG | {"trees": ["path:3"]}, id="unshaped-trees"),
        # more orders than one 64-bit draw can pick from
        pytest.param(VALID_CONFIG | {"n_range": [8, 2**64 + 8]}, id="huge-n_range"),
        # one draw reaches this order, which no generator could allocate
        pytest.param(VALID_CONFIG | {"n_range": [8, 2**64 - 1]}, id="huge-order"),
        pytest.param(
            TREE_CONFIG | {"m_values": [], "trees": [f"path:{MAX_ORDER + 1}"]}, id="huge-tree"
        ),
        # a params key the model does not read would run on the default
        pytest.param(
            VALID_CONFIG
            | {"model": "hamiltonian_stack", "params": {"t": 1, "extra_edge_porb": 0.2}},
            id="misspelled-param",
        ),
        # so would one in a config whose trials never call a generator
        pytest.param(
            TREE_CONFIG | {"statement": "tightness", "m_values": [3], "params": {"zz": 1}},
            id="tightness-param",
        ),
    ],
)
def test_verify_rejects_a_malformed_config(tmp_path, capsys, config):
    """A config of the wrong shape or with a mistyped field is an input
    error, never a crash or a run on a coerced value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2 and err.startswith("error:")


def test_gen_rejects_a_huge_order(capsys):
    for args in (
        ["--model", "with_hypotheses", "--n", str(2**64 - 1), "--k", "2", "--delta", "3"],
        # a named instance's tag sets its order, which the cap bounds too
        ["--model", "complete:100000"],
        ["--model", "two_cliques_bridged:5000,1"],
    ):
        code, _, err = run(["gen", *args], capsys)
        assert code == 2 and err.startswith("error:")


def test_huge_tree_or_tightness_order_is_usage_error(tmp_path, capsys):
    """A tree spec or a tightness host above the order cap exits 2 before
    anything of that order is built."""
    path = tmp_path / "k4.txt"
    save_graph(complete(4), path)
    over = MAX_ORDER + 1
    for args in (
        ["find-removable", "--k", "1", "--tree", f"path:{over}", str(path)],
        ["verify", "--statement", "tree", "--k", "1", "--tree", f"spider:{over - 1}",
         "--trials", "1", "--seed", "1"],
        ["verify", "--statement", "tightness", "--k", str(over - 3), "--m", "3",
         "--trials", "1", "--seed", "1"],
    ):
        code, _, err = run(args, capsys)
        assert code == 2 and f"exceeds {MAX_ORDER}" in err


def test_verify_usage_errors(capsys):
    code, _, err = run(["verify", "--statement", "edge-pair", "--k", "2"], capsys)
    assert code == 2 and "required" in err
    code, _, err = run(
        ["verify", "--statement", "tightness", "--k", "2", "--m", "3",
         "--tree", "path:3", "--trials", "1", "--seed", "0"],
        capsys,
    )
    assert code == 2 and "mutually exclusive" in err
    # the edge-pair statement sweeps no tree shapes, so an order is a mistake
    code, _, err = run(
        ["verify", "--statement", "edge-pair", "--k", "2", "--m", "3",
         "--trials", "1", "--seed", "3"],
        capsys,
    )
    assert code == 2 and "takes no m_values or trees" in err


def test_verify_violation_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "find_removable_vertex", lambda g, k: None)
    code, out, _ = run(
        ["verify", "--statement", "mader-vertex", "--k", "2", "--trials", "1",
         "--seed", "1"],
        capsys,
    )
    assert code == 1
    assert "violation candidates present" in out


def test_counterexample(capsys):
    code, out, _ = run(
        ["counterexample", "--k", "2", "--m", "2", "--budget", "3",
         "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert "no counterexample candidates" in out


def test_console_script_target(monkeypatch, capsys):
    """The installed `kedge` script calls the target that pyproject.toml
    names with no arguments and exits with what it returns, so the target
    reads sys.argv and returns the exit code."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^kedge = "([\w.]+):(\w+)"$', text, re.M).groups()
    target = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["kedge", "gen", "--model", "petersen"])
    assert target() == 0
    assert capsys.readouterr().out.startswith("10 15\n")
    monkeypatch.setattr(sys, "argv", ["kedge", "gen", "--model", "nosuch"])
    assert target() == 2
