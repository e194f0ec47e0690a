"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every input is drawn from the workload seed alone; the program only sees
the generated inputs.  Ops come in rounds.  A round is a seeded list of
inputs whose mix is the same in every round (every campaign cell, one
residue class of the order-6 graphs, every dense order, every k), so a
run that stops at a round boundary measures the same mix however long it
runs.  Each round draws fresh inputs, so no input repeats within a run and
a cache keyed on inputs gets no free hits.

A workload object is built from an imported `kedge` package, so the
benchmark can time the import and the input construction together.
"""

from __future__ import annotations

import hashlib
import json
import random

K6_PAIRS = [(u, v) for u in range(6) for v in range(u + 1, 6)]
CONNECTED_ORDER6 = 26704
OVERLAP_STRIDE = 20
DENSE_ORDERS = range(104, 117)
DENSE_DELETE_SHARE = 0.03


def derive(seed: int, *parts) -> int:
    """A 64-bit seed from the workload seed and a path of labels."""
    text = json.dumps([seed, *parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def result_hash(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest(hashes) -> str:
    """One hash over an ordered list of per-op result hashes."""
    h = hashlib.sha256()
    for x in hashes:
        h.update(x.encode())
    return h.hexdigest()


class CheckFailed(Exception):
    """An op returned, but its result broke the workload's correctness check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Campaign:
    """One `run_campaign` call per op: one acceptance-gate cell, one trial.

    The ops cycle through every gate cell: the vertex and edge-pair
    statements for k=1..4, every tree of order 1..6 for k=1..3, and the
    open cells k=4,5 with m=3,4, at n in 8..16.  Each op gets its own master
    seed, derived from the workload seed and the op index.
    """

    name = "campaign"
    traced_ops = 336

    def __init__(self, kedge, seed: int):
        self.kedge = kedge
        self.seed = seed
        self.cells: list[tuple[str, int, int | None, str | None]] = []
        for statement in ("mader_vertex", "edge_pair"):
            for k in range(1, 5):
                self.cells.append((statement, k, None, None))
        for ks, ms in (((1, 2, 3), range(1, 7)), ((4, 5), (3, 4))):
            for k in ks:
                for m in ms:
                    specs = sorted(t.spec_string() for t in kedge.enumerate_trees(m))
                    self.cells.extend(("tree", k, m, s) for s in specs)

    def round_inputs(self, r: int) -> list:
        width = len(self.cells)
        out = []
        for j, (statement, k, m, spec) in enumerate(self.cells):
            config = self.kedge.CampaignConfig(
                statement=statement,
                k_values=(k,),
                trials=1,
                master_seed=derive(self.seed, "campaign", r * width + j),
                n_range=(8, 16),
                trees=(spec,) if spec else (),
            )
            out.append((config, k >= 4 and (m or 0) >= 3))
        return out

    def run(self, item):
        return self.kedge.run_campaign(item[0])

    def check(self, item, result):
        _, open_cell = item
        _require(len(result.trials) == 1, "expected exactly one trial")
        outcome = result.trials[0].outcome
        _require(outcome != "theorem_violation_candidate", "violation candidate")
        _require(outcome != "generation_failed", "generation failed")
        if not open_cell:
            _require(outcome == "witness_found", f"theorem cell gave {outcome}")
        data = result.to_dict()
        for trial in data["trials"]:
            del trial["wall_time"]
        return data


class Overlap:
    """One `scan_overlap_cases(g)` call per op, on labeled order-6 graphs.

    Round r is the residue class (offset + r) mod 20 of the 26,704 labeled
    connected graphs on 6 vertices, in edge-subset order, with the offset
    taken from the seed.  Orders up to 5 have no configurations at all.
    """

    name = "overlap"
    traced_ops = 300

    def __init__(self, kedge, seed: int):
        self.kedge = kedge
        self.offset = derive(seed, "overlap") % OVERLAP_STRIDE
        self.connected = [
            bits for bits in range(1 << len(K6_PAIRS)) if _connected6(bits)
        ]
        if len(self.connected) != CONNECTED_ORDER6:
            raise RuntimeError("order-6 enumeration lost graphs")
        self.first_round = self._build(0)

    def _build(self, r: int) -> list:
        residue = (self.offset + r) % OVERLAP_STRIDE
        return [
            self.kedge.Graph(6, [p for i, p in enumerate(K6_PAIRS) if bits >> i & 1])
            for bits in self.connected[residue::OVERLAP_STRIDE]
        ]

    def round_inputs(self, r: int) -> list:
        return self.first_round if r == 0 else self._build(r)

    def run(self, g):
        return self.kedge.scan_overlap_cases(g)

    def check(self, g, stats):
        _require(
            stats.configurations == stats.intersection_fragment + stats.small_complement,
            "configurations != intersection + small_complement",
        )
        return [
            stats.edge_pairs,
            stats.configurations,
            stats.intersection_fragment,
            stats.small_complement,
        ]


def _connected6(bits: int) -> bool:
    masks = [0] * 6
    for i, (u, v) in enumerate(K6_PAIRS):
        if bits >> i & 1:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    reached = frontier = 1
    while frontier:
        nxt = 0
        for v in range(6):
            if frontier >> v & 1:
                nxt |= masks[v]
        frontier = nxt & ~reached
        reached |= frontier
    return reached == 0b111111


def dense_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Edges of K_n minus a seeded set that costs no vertex more than n-102.

    One pass over the shuffled vertex pairs deletes a pair while both ends
    have budget left, up to 3% of all pairs, so every degree stays above
    100 by construction and the pass ends after C(n, 2) steps.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    random.Random(seed).shuffle(pairs)
    budget = [n - 102] * n
    target = int(DENSE_DELETE_SHARE * len(pairs))
    kept = []
    deleted = 0
    for u, v in pairs:
        if deleted < target and budget[u] and budget[v]:
            budget[u] -= 1
            budget[v] -= 1
            deleted += 1
        else:
            kept.append((u, v))
    return kept


class Dense:
    """Dense-core extraction and path removal on one graph of order 104..116.

    Op: `extract_connected_subgraph(g, 5)`, `HCSubgraph.validate`, then
    `removable_tree_via_thomassen(g, 2, path:3)`.  A round holds one graph
    of each order in 104..116, in seeded order.
    """

    name = "dense"
    traced_ops = 13

    def __init__(self, kedge, seed: int):
        self.kedge = kedge
        self.seed = seed
        self.tree = kedge.parse_tree_spec("path:3")
        self.first_round = self._build(0)

    def _build(self, r: int) -> list:
        orders = list(DENSE_ORDERS)
        random.Random(derive(self.seed, "dense-order", r)).shuffle(orders)
        return [
            self.kedge.Graph(n, dense_edges(n, derive(self.seed, "dense", r, n)))
            for n in orders
        ]

    def round_inputs(self, r: int) -> list:
        return self.first_round if r == 0 else self._build(r)

    def run(self, g):
        core = self.kedge.extract_connected_subgraph(g, 2 + self.tree.order)
        core.validate(g)
        cert = self.kedge.removable_tree_via_thomassen(g, 2, self.tree)
        return core, cert

    def check(self, g, result):
        core, cert = result
        _require(len(cert.removed) == 3, "certificate removed other than 3 vertices")
        _require(
            cert.residual_kprime is not None and cert.residual_kprime >= 2,
            "residual connectivity below 2",
        )
        return [
            sorted(core.vertices),
            sorted(core.boundary),
            list(cert.removed),
            cert.residual_kprime,
        ]


class Tightness:
    """One `verify_tightness(k, 6)` call per op, k cycling through 2, 3, 4.

    The inputs are the complete graphs K_{k+6}, fixed by design; the seed
    only rotates the order of k within each round.
    """

    name = "tightness"
    traced_ops = 3

    def __init__(self, kedge, seed: int):
        self.kedge = kedge
        self.seed = seed
        self.rows = kedge.trees.FREE_TREE_COUNTS[5]

    def round_inputs(self, r: int) -> list:
        start = derive(self.seed, "tightness", r) % 3
        ks = (2, 3, 4)
        return [ks[(start + i) % 3] for i in range(3)]

    def run(self, k):
        return self.kedge.verify_tightness(k, 6)

    def check(self, k, report):
        _require(report.passed, f"tightness failed for k={k}")
        _require(len(report.rows) == self.rows, "wrong number of tree shapes")
        _require(
            all(outcome == "not_found" for _, outcome in report.rows),
            "a tree image was removable",
        )
        return report.to_dict()


WORKLOADS = {w.name: w for w in (Campaign, Overlap, Dense, Tightness)}
