"""kedge benchmark: seeded verification workloads run against the public API.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with one client: the next op starts
only when the previous one has returned.  The run imports `kedge` from
`src/` beside this directory and builds its inputs (several times, keeping
the median as `setup_s`), warms up, then runs whole rounds of ops for
about `--seconds`.  Every op's result is checked; a failed check or an
exception counts as a failed op.  Op and set-up times are scaled to a
fixed machine speed, measured by a reference loop between ops (see
speed.py); the raw times are reported beside them.

With `--trace 1` the same run is followed by a traced pass in a separate
process, which wraps the public functions of every kedge module (see
tracer.py), runs a fixed, seeded set of ops, writes its spans under
`.bench_out/` and reports per-layer call counts and self times.  The
untraced numbers never run through the wrappers.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata, the output digest and the figures that are not gated
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

from speed import REF_NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import OP, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, digest, result_hash  # noqa: E402

SETUP_REPEATS = 5
WARMUP_SHARE = 0.1
WARMUP_MAX_S = 2.0
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
CHILD_DEADLINE_S = 170.0


def import_kedge():
    """Import kedge afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "kedge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no kedge package under {SRC}")
    if str(SRC) not in sys.path[:2]:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "kedge" or n.startswith("kedge.")]:
        del sys.modules[name]
    kedge = importlib.import_module("kedge")
    if Path(kedge.__file__).resolve().parent != (SRC / "kedge").resolve():
        raise SystemExit(f"bench: imported kedge from {kedge.__file__}")
    return kedge


def set_up(workload: str, seed: int, repeats: int, probe: SpeedProbe):
    """Import kedge and build the first round's inputs, `repeats` times.

    Returns the workload and each set-up's (start, duration).
    """
    runs = []
    wl = None
    probe.sample()
    for _ in range(repeats):
        wl = None
        gc.collect()
        start = time.perf_counter()
        kedge = import_kedge()
        wl = WORKLOADS[workload](kedge, seed)
        wl.round_inputs(0)
        runs.append((start, time.perf_counter() - start))
        probe.sample()
    return wl, runs


class Runner:
    """Runs ops, checks them, and keeps latencies and result hashes."""

    def __init__(self, wl, call=None):
        self.wl = wl
        self.call = call or (lambda op_id, fn, arg: fn(arg))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, op_id: int, item):
        """Run and check one op; returns (start, latency, hash or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.call(op_id, self.wl.run, item)
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - start
            self._fail(op_id, f"{type(exc).__name__}: {exc}")
            return start, latency, None
        latency = time.perf_counter() - start
        try:
            canonical = self.wl.check(item, result)
        except CheckFailed as exc:
            self._fail(op_id, str(exc))
            return start, latency, None
        return start, latency, result_hash(canonical)

    def _fail(self, op_id: int, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {op_id}: {what}")


def warm_up(runner: Runner, seconds: float, probe: SpeedProbe) -> int:
    budget = min(WARMUP_MAX_S, WARMUP_SHARE * seconds)
    inputs = runner.wl.round_inputs(-1)
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < budget:
        probe.maybe_sample()
        runner.one(-1 - done, inputs[done % len(inputs)])
        done += 1
    return done


def measure(runner: Runner, seconds: float, probe: SpeedProbe):
    """Whole rounds of ops, stopping at the round boundary closest to `seconds`.

    A round is started only if it is expected to end less than half a
    round past `seconds`, judged by the last round's length.  Reference
    groups run between ops and once more at the end, so every op lies
    between two of them.
    """
    starts: list[float] = []
    latencies: list[float] = []
    hashes: list[str | None] = []
    round_len = 0
    start = time.perf_counter()
    r = 0
    elapsed = last = 0.0
    while r == 0 or elapsed + last / 2 < seconds:
        inputs = runner.wl.round_inputs(r)
        if r == 0:
            round_len = len(inputs)
        round_start = time.perf_counter()
        for item in inputs:
            probe.maybe_sample()
            op_start, latency, h = runner.one(len(latencies), item)
            starts.append(op_start)
            latencies.append(latency)
            hashes.append(h)
        r += 1
        now = time.perf_counter()
        last = now - round_start
        elapsed = now - start
    probe.sample()
    return starts, latencies, hashes, round_len, r


def tail(latencies: list[float]):
    """(percentile, latency) at the highest ladder percentile with ten
    samples beyond it, or None when the run has too few ops for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(0, -(-int(p * n) // 100) - 1)]
    return None


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "kedge").rglob("*.py"))
    )


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced_pass(workload: str, seed: int) -> dict:
    """The traced run: a fixed, seeded op set under the tracer (child process)."""
    kedge = import_kedge()
    wl = WORKLOADS[workload](kedge, seed)
    items = []
    r = 0
    while len(items) < wl.traced_ops:
        items.extend(wl.round_inputs(r)[: wl.traced_ops - len(items)])
        r += 1
    tracer = Tracer(kedge)
    runner = Runner(wl, tracer.op)
    tracer.install()
    try:
        hashes = [runner.one(i, item)[2] for i, item in enumerate(items)]
    finally:
        tracer.uninstall()
    left = tracer.installed_wrappers()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.tsv.gz"
    tracer.write(spans_path)
    return {
        "ops": len(hashes),
        "failed": runner.failed,
        "errors": runner.errors,
        "op_wall_s": sum(span[6] for span in tracer.spans if span[1] == OP),
        "wrappers_left": left,
        "hashes": hashes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": tracer.metrics(),
    }


def run_child(args, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
        "--traced-pass",
    ]
    out = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(10.0, deadline)
    )
    if out.returncode != 0:
        raise SystemExit(f"bench: traced pass failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.traced_pass:
        print(json.dumps(traced_pass(args.workload, args.seed)))
        return 0

    started = time.perf_counter()
    probe = SpeedProbe()
    wl, setups = set_up(args.workload, args.seed, SETUP_REPEATS, probe)
    runner = Runner(wl)
    warmup_ops = warm_up(runner, args.seconds, probe)
    starts, latencies, hashes, round_len, rounds = measure(runner, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = len(latencies)
    ops_per_s = timed / sum(latencies)
    scaled = [lat * probe.scale(t) for t, lat in zip(starts, latencies)]
    setup_scaled = [d * probe.scale(t) for t, d in setups]
    op_tail = tail(scaled)
    end_to_end = {
        "ops_per_s": {"value": timed / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "setup_runs_s": [d for _, d in setups],
        "raw": {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(d for _, d in setups),
        },
        "reference_ms": {
            "median": statistics.median(probe.durations) * 1e3,
            "samples": len(probe.durations),
            "nominal": REF_NOMINAL_S * 1e3,
        },
        "warmup_ops": warmup_ops,
        "timed_ops": timed,
        "rounds": rounds,
        "round_ops": round_len,
        "op_p50_samples": timed,
        "op_tail_ms": op_tail and op_tail[1] * 1e3,
        "op_tail_percentile": op_tail and op_tail[0],
        "op_fail_ratio": runner.failed / runner.attempted,
        "digest": digest(h or "-" for h in hashes[:round_len]),
        "errors": runner.errors,
    }
    correct = runner.failed == 0
    metrics = end_to_end
    if args.trace:
        child = run_child(args, CHILD_DEADLINE_S - (time.perf_counter() - started))
        runner.attempted += child["ops"]
        runner.failed += child["failed"]
        # the ops both passes ran must have given the same answers
        common = min(len(hashes), child["ops"])
        agree = hashes[:common] == child["hashes"][:common]
        correct = correct and child["failed"] == 0 and agree
        correct = correct and child["wrappers_left"] == 0
        child["ops_per_s"] = child["ops"] / child["op_wall_s"]
        metrics = {
            name: {"value": value, "unit": _unit(name)}
            for name, value in child["metrics"].items()
        }
        metrics["trace.overhead_ratio"] = {
            "value": child["ops_per_s"] / ops_per_s,
            "unit": "ratio",
        }
        report["traced"] = {
            k: child[k]
            for k in ("ops", "failed", "errors", "ops_per_s", "spans", "spans_file")
        }
        report["traced"]["answers_agree"] = agree
    print(f"# {args.workload}: {timed} timed ops in {rounds} rounds, seed {args.seed}")
    for name, m in end_to_end.items():
        print(f"#   {name:<12} {m['value']:.6g} {m['unit']}")
    if op_tail:
        print(f"#   op_tail_ms   {op_tail[1] * 1e3:.6g} ms (p{op_tail[0]:g} of {timed})")
    print(f"#   op_fail_ratio {report['op_fail_ratio']:.6g}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_graph"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
