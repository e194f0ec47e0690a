"""Self-tests of the benchmark: tracer accounting, unwrapping, digests, inputs.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from speed import REF_NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import OP, Tracer  # noqa: E402
from workloads import WORKLOADS, dense_edges, digest  # noqa: E402


@pytest.fixture(scope="module")
def kedge():
    return run.import_kedge()


def _traced(kedge, fn, items):
    tracer = Tracer(kedge)
    tracer.install()
    try:
        for i, item in enumerate(items):
            tracer.op(i, fn, item)
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_add_up_to_traced_wall_time(kedge):
    wl = WORKLOADS["campaign"](kedge, 3)
    tracer = _traced(kedge, wl.run, wl.round_inputs(0)[:20])
    wall = sum(span[6] for span in tracer.spans if span[1] == OP)
    assert tracer.calls[OP] == 20
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    layers = tracer.layer_self_s()
    assert sum(layers.values()) + tracer.self_s[OP] == pytest.approx(wall, rel=1e-9)
    assert layers["connectivity"] > 0 and layers["generators"] > 0


def test_iterator_steps_are_counted_and_charged(kedge):
    # K_6 minus every order-4 tree image: 2 shapes, 6*5*4*3 embeddings each
    tracer = _traced(kedge, lambda k: kedge.verify_tightness(k, 4), [2])
    metrics = tracer.metrics()
    assert metrics["removal.embeddings"] == 2 * 360
    assert metrics["removal.embed.self_s"] > 0
    assert metrics["removal.hit_ratio"] == 0.0
    assert metrics["removal.candidates"] == 2 * 15


def test_wrappers_are_removed_after_the_traced_run(kedge):
    graph_init = kedge.Graph.__init__
    bound = kedge.removal.is_k_edge_connected
    tracer = Tracer(kedge)
    tracer.install()
    try:
        assert tracer.installed_wrappers() > 0
        assert kedge.removal.is_k_edge_connected is not bound
        assert kedge.harness.is_k_edge_connected is kedge.removal.is_k_edge_connected
    finally:
        tracer.uninstall()
    assert tracer.installed_wrappers() == 0
    assert kedge.Graph.__init__ is graph_init
    assert kedge.removal.is_k_edge_connected is bound
    assert bound is kedge.connectivity.is_k_edge_connected


def test_speed_scale_uses_the_reference_around_an_op():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0]
    probe.durations = [REF_NOMINAL_S, REF_NOMINAL_S * 2, REF_NOMINAL_S * 4]
    assert probe.scale(0.5) == pytest.approx(1 / 1.5)
    assert probe.scale(1.5) == pytest.approx(1 / 3)
    assert probe.scale(2.5) == pytest.approx(1 / 4)
    assert probe.sample() > 0 and len(probe.times) == 4


def _round_digest(kedge, seed):
    wl = WORKLOADS["campaign"](kedge, seed)
    runner = run.Runner(wl)
    hashes = [runner.one(i, item)[2] for i, item in enumerate(wl.round_inputs(0))]
    assert runner.failed == 0, runner.errors
    return digest(hashes)


def test_digest_is_stable_for_a_seed_and_changes_with_it(kedge):
    first = _round_digest(kedge, 11)
    assert _round_digest(kedge, 11) == first
    assert _round_digest(kedge, 12) != first


@pytest.mark.parametrize("n", [104, 110, 116])
def test_dense_inputs_keep_minimum_degree_above_100(kedge, n):
    for seed in range(3):
        edges = dense_edges(n, seed)
        g = kedge.Graph(n, edges)
        assert g.min_degree() > 100
        assert g.edge_count < n * (n - 1) // 2


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    out = _bench(ROOT, "--workload", "campaign", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "campaign", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
