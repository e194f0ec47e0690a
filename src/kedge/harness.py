"""Batch verification campaigns over the removable-structure statements.

A campaign fixes a statement (removable vertex, removable edge pair,
removable tree, or the tightness family), sweeps cells of parameters
(k, and tree shape where relevant), and runs seeded trials per cell:
generate a graph meeting the statement's hypotheses, run the finder, and
re-verify whatever comes back.  Campaigns, `verify_tightness` and
`counterexample_search` share one hypotheses gate and one outcome rule:
a hit is a witness, a miss the statement predicts is `not_found`, and any
other miss is re-verified from scratch before it becomes a violation
candidate, or an open-conjecture datapoint beyond the proven range.

Everything is deterministic in the master seed: trial seeds are derived
per (cell, trial), so re-running a config reproduces every report field
except wall times.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .connectivity import (
    EXHAUSTIVE_LIMIT,
    _edge_value,
    edge_connectivity,
    edge_connectivity_bruteforce,
    is_k_edge_connected,
)
from .errors import GenerationError, InternalCheckError
from .generators import _check_params, complete, generate
from .graph import MAX_ORDER, Graph
from .io import graph_payload
from .removal import (
    RemovalCertificate,
    find_removable_edge,
    find_removable_tree,
    find_removable_vertex,
)
from .rng import SplitMix64, derive_seed
from .trees import TreeSpec, enumerate_trees, parse_tree_spec

OUTCOME_WITNESS = "witness_found"
OUTCOME_NOT_FOUND = "not_found"
OUTCOME_VIOLATION = "theorem_violation_candidate"
OUTCOME_OPEN = "conjecture_open_datapoint"
OUTCOME_GENFAIL = "generation_failed"


@dataclass(frozen=True)
class Statement:
    """What one checked statement says, for a cell's k and tree order m.

    `kind` names what a witness removes (a certificate's kind); the "tree"
    statements' cells sweep tree shapes, and tree and m are None for the
    others.  `find(g, k, tree)` runs its finder; `floor(k, m)` is the minimum
    degree its hypotheses ask for; `expected(k, m)` is the outcome every
    trial must show, or None where the statement is open;
    `convention(k)`, whether that outcome at k rests on K_1 counting as
    1-edge-connected.  Only a miss `expected` predicts skips `_outcome`'s recheck.
    """

    kind: str
    find: Callable[[Graph, int, TreeSpec | None], RemovalCertificate | None]
    floor: Callable[[int, int | None], int]
    expected: Callable[[int, int | None], str | None]
    convention: Callable[[int], bool] = lambda k: False


# the finders are looked up when called, so a patched module name takes effect;
# the tree statement (arXiv 2312.05886) is proven except for k >= 4, m >= 3;
# a tree off K_{k+m} leaves K_k, whose lambda k-1 misses k unless k = 1, the
# convention cell (see `TightnessReport`); the tightness floor is K_{k+m}'s degree
STATEMENTS = {
    "mader_vertex": Statement(
        "vertex", lambda g, k, tree: find_removable_vertex(g, k),
        lambda k, m: k + 1, lambda k, m: OUTCOME_WITNESS,
    ),
    "edge_pair": Statement(
        "edge", lambda g, k, tree: find_removable_edge(g, k),
        lambda k, m: k + 2, lambda k, m: OUTCOME_WITNESS,
    ),
    "tree": Statement(
        "tree", lambda g, k, tree: find_removable_tree(g, k, tree), lambda k, m: k + m,
        lambda k, m: None if k >= 4 and m >= 3 else OUTCOME_WITNESS,
    ),
    "tightness": Statement(
        "tree", lambda g, k, tree: find_removable_tree(g, k, tree), lambda k, m: k + m - 1,
        lambda k, m: OUTCOME_WITNESS if k == 1 else OUTCOME_NOT_FOUND,
        convention=lambda k: k == 1,
    ),
}


def _plain(value):
    """JSON-ready form of a report: dataclasses become dicts, tuples lists."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class CampaignConfig:
    """Plain-data description of one campaign, JSON round-trippable.

    For the shaped statements, shapes come from either `trees` (textual tree
    specs) or `m_values` (every tree of each listed order); the others take
    neither.  The generator's degree target is the statement's degree floor
    in `STATEMENTS`, the same floor the hypotheses gate checks.
    Configs come from JSON files, so field types are checked: counts and
    seeds must be ints (not bools), trees and model strings, and params
    values numbers; a params key the model does not read is an error.  A
    tightness config draws no graph, so it keeps model, n_range and params
    at their defaults.
    Orders are capped at `graph.MAX_ORDER`, which bounds n_range's high end.
    """

    statement: str
    k_values: tuple[int, ...]
    trials: int
    master_seed: int
    n_range: tuple[int, int] = (8, 16)
    m_values: tuple[int, ...] = ()
    trees: tuple[str, ...] = ()
    model: str = "with_hypotheses"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        lists = {"k_values": int, "m_values": int, "n_range": int, "trees": str}
        for name, kind in lists.items():
            got = getattr(self, name)
            if not isinstance(got, (list, tuple)) or any(type(v) is not kind for v in got):
                raise ValueError(f"{name} must be a list of {kind.__name__}, got {got!r}")
            object.__setattr__(self, name, tuple(got))
        for name, ok in (
            ("statement", type(self.statement) is str),
            ("trials", type(self.trials) is int),
            ("master_seed", type(self.master_seed) is int),
            ("model", type(self.model) is str),
            ("params", all(type(v) in (int, float) for _, v in self.params)),
        ):
            if not ok:
                raise ValueError(f"{name} has the wrong type: {getattr(self, name)!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        _check_params(self.model, self.params)
        if self.statement not in STATEMENTS:
            raise ValueError(f"unknown statement {self.statement!r}")
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k values must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if len(self.n_range) != 2 or self.n_range[0] > self.n_range[1]:
            raise ValueError("n_range must be (low, high) with low <= high")
        if self.n_range[0] < 1:
            raise ValueError("n_range low end must be at least 1")
        if self.n_range[1] > MAX_ORDER:
            raise ValueError(f"n_range high end must be at most {MAX_ORDER}")
        # the default model reads no params, so _check_params covers them
        defaults = (CampaignConfig.model, CampaignConfig.n_range)
        if self.statement == "tightness" and (self.model, self.n_range) != defaults:
            raise ValueError("a tightness config takes no model or n_range: its host is K_(k+m)")
        if self.trees and self.m_values:
            raise ValueError("m_values and trees are mutually exclusive")
        shaped = STATEMENTS[self.statement].kind == "tree"
        if shaped != bool(self.m_values or self.trees):
            need = "needs" if shaped else "takes no"
            raise ValueError(f"statement {self.statement!r} {need} m_values or trees")

    def to_dict(self) -> dict:
        return _plain(self) | {"params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """The config of a JSON object, absent optional keys at their
        defaults; a ValueError names a missing or an unknown key."""
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            raise ValueError("a campaign config and its params must be JSON objects")
        fields = {f.name: f.default for f in dataclasses.fields(cls)}
        for name, default in fields.items():
            if default is dataclasses.MISSING and name not in data:
                raise ValueError(f"campaign config lacks the key {name!r}")
        for name in data:
            if name not in fields:
                raise ValueError(f"campaign config has the unknown key {name!r}")
        return cls(**data | {"params": tuple(data.get("params", {}).items())})


@dataclass(frozen=True)
class TrialReport:
    """One trial's full record; everything but wall_time replays exactly."""

    statement: str
    k: int
    m: int | None
    tree: str | None
    cell_index: int
    trial_index: int
    seed: int
    n: int | None
    edge_count: int | None
    min_degree: int | None
    kprime: int | None
    outcome: str
    witness_removed: tuple[int, ...] | None
    witness_residual_kprime: int | None
    witness_residual_trivial: bool
    graph: dict | None
    wall_time: float

    def to_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class Cell:
    index: int
    k: int
    tree: TreeSpec | None

    @property
    def m(self) -> int | None:
        return self.tree.order if self.tree is not None else None

    @cached_property
    def spec(self) -> str | None:
        """The shape's spec string (a Pruefer encode), named once per cell."""
        return self.tree.spec_string() if self.tree is not None else None

    def label(self, statement: str) -> str:
        if self.tree is None:
            return f"{statement} k={self.k}"
        return f"{statement} k={self.k} tree={self.spec}"


@dataclass
class CampaignResult:
    config: CampaignConfig
    trials: list[TrialReport]
    summary: dict

    @property
    def has_violation(self) -> bool:
        return any(t.outcome == OUTCOME_VIOLATION for t in self.trials)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
            "summary": self.summary,
        }


def _cells(config: CampaignConfig) -> list[Cell]:
    # the config holds shapes exactly when its statement removes a tree
    shapes: list[TreeSpec | None] = [None]
    if config.trees:
        shapes = [parse_tree_spec(s) for s in config.trees]
    elif config.m_values:
        shapes = [t for m in config.m_values for t in enumerate_trees(m)]
    out = []
    labels = set()
    for k in config.k_values:
        for shape in shapes:
            cell = Cell(index=len(out), k=k, tree=shape)
            # the summary keys cells by label, so a repeat would merge two
            label = cell.label(config.statement)
            if label in labels:
                raise ValueError(f"campaign config repeats the cell {label!r}")
            labels.add(label)
            out.append(cell)
    return out


def _draw_graph(
    seed: int,
    n_range: tuple[int, int],
    model: str,
    k: int,
    delta: int,
    params: tuple[tuple[str, float], ...] = (),
) -> Graph | None:
    """The seeded trial graph, or None when the generator gives up.

    The order is drawn from `n_range`, then raised past `delta`, to leave
    room for minimum degree `delta`.  That leaves room for a tree of order
    m too: the tree statement's floor is k+m, so the order is above m.
    """
    lo, hi = n_range
    n = lo + SplitMix64(seed).randrange(hi - lo + 1)
    try:
        return generate(
            model, max(n, delta + 1), k, delta, derive_seed(seed, 1), params
        )
    except GenerationError:
        return None


def _hypotheses(g: Graph | None, k: int, delta: int) -> int | None:
    """The host's edge connectivity, or None when there is no host or it
    misses the hypotheses: two vertices, minimum degree >= delta, lambda >= k."""
    if g is None or g.n < 2 or g.min_degree() < delta:
        return None
    # lambda alone, with no witness cut: best is clamped to the minimum degree
    kprime = _edge_value(g.adjacency_masks(), g.full_mask(), g.n, 0)[0]
    return kprime if kprime >= k else None


def _outcome(
    name: str, g: Graph, k: int, tree: TreeSpec | None, delta: int
) -> tuple[str, RemovalCertificate | None]:
    """Statement `name`'s outcome and witness on a host that met its hypotheses.

    A miss `expected` does not predict is re-verified first: the hypotheses
    through the bipartition oracle when that is feasible, and a second
    finder pass must miss again.
    """
    statement = STATEMENTS[name]
    cert = statement.find(g, k, tree)
    if cert is not None:
        return OUTCOME_WITNESS, cert
    expected = statement.expected(k, tree.order if tree is not None else None)
    if expected == OUTCOME_NOT_FOUND:
        return OUTCOME_NOT_FOUND, None
    if g.min_degree() < delta or not (
        edge_connectivity_bruteforce(g) >= k
        if 2 <= g.n <= EXHAUSTIVE_LIMIT
        else is_k_edge_connected(g, k)
    ):
        raise InternalCheckError("hypotheses failed on recheck after a miss")
    if statement.find(g, k, tree) is not None:
        raise InternalCheckError("finder disagreed with itself on a rerun")
    return (OUTCOME_OPEN if expected is None else OUTCOME_VIOLATION), None


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run every (cell, trial) of the config and summarize outcomes per cell.

    Trials are independent and ordered by (cell index, trial index); the
    report sequence does not depend on execution order.  Each trial's
    outcome comes from `_outcome`, so a miss the statement does not predict
    is recorded only after the hypotheses re-verify (oracle connectivity
    on small graphs) and a second finder pass still comes up empty.
    """
    cells = _cells(config)
    trials: list[TrialReport] = []
    for cell in cells:
        for idx in range(config.trials):
            trial_seed = derive_seed(config.master_seed, cell.index, idx)
            trials.append(_run_trial(config, cell, idx, trial_seed))
    return CampaignResult(config, trials, _summarize(config, cells, trials))


def _run_trial(
    config: CampaignConfig, cell: Cell, trial_index: int, seed: int
) -> TrialReport:
    start = time.perf_counter()
    delta = STATEMENTS[config.statement].floor(cell.k, cell.m)
    if config.statement == "tightness":
        g = complete(cell.k + cell.m)  # model, n_range and params are the defaults
    else:
        g = _draw_graph(seed, config.n_range, config.model, cell.k, delta, config.params)
    # any model is allowed, so the hypotheses are confirmed up front
    kprime = _hypotheses(g, cell.k, delta)
    outcome, cert = OUTCOME_GENFAIL, None
    if kprime is not None:
        outcome, cert = _outcome(config.statement, g, cell.k, cell.tree, delta)
    return TrialReport(
        statement=config.statement,
        k=cell.k,
        m=cell.m,
        tree=cell.spec,
        cell_index=cell.index,
        trial_index=trial_index,
        seed=seed,
        n=g.n if g is not None else None,
        edge_count=g.edge_count if g is not None else None,
        min_degree=g.min_degree() if g is not None else None,
        kprime=kprime,
        outcome=outcome,
        witness_removed=cert.removed if cert is not None else None,
        witness_residual_kprime=cert.residual_kprime if cert else None,
        witness_residual_trivial=cert is not None and cert.residual_kprime is None,
        graph=graph_payload(g) if g is not None else None,
        wall_time=time.perf_counter() - start,
    )


def _summarize(
    config: CampaignConfig, cells: list[Cell], trials: list[TrialReport]
) -> dict:
    per_cell: dict[str, dict] = {}
    for cell in cells:
        # trials are ordered by (cell index, trial index), config.trials per cell
        rows = trials[cell.index * config.trials : (cell.index + 1) * config.trials]
        counts = Counter(t.outcome for t in rows)
        expected = STATEMENTS[config.statement].expected(cell.k, cell.m)
        entry = {
            "trials": len(rows),
            "witness_found": counts[OUTCOME_WITNESS],
            "not_found": counts[OUTCOME_NOT_FOUND],
            "violations": counts[OUTCOME_VIOLATION],
            "open_datapoints": counts[OUTCOME_OPEN],
            "generation_failed": counts[OUTCOME_GENFAIL],
            "expected": expected,
        }
        if expected is not None:
            entry["all_expected"] = counts[expected] == len(rows)
        if STATEMENTS[config.statement].convention(cell.k):
            entry["convention_sensitive"] = True
        per_cell[cell.label(config.statement)] = entry
    return {"per_cell": per_cell}


def write_report(result: CampaignResult, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class TightnessReport:
    """Outcome of checking the complete-graph boundary family for one (k, m).

    For k >= 2 every tree's removal from the complete graph on k+m vertices
    must fail (the residual complete graph on k vertices has connectivity
    k-1).  For k = 1 the residual is the one-vertex graph, which counts as
    1-edge-connected by convention, so removals succeed; that case is
    flagged `convention_sensitive` instead of being folded into a failure.
    """

    k: int
    m: int
    residual_order: int
    expected_residual_kprime: int | None
    convention_sensitive: bool
    rows: tuple[tuple[str, str], ...]
    passed: bool

    def to_dict(self) -> dict:
        return _plain(self)


def verify_tightness(k: int, m: int) -> TightnessReport:
    """Check every tree of order m against the complete graph on k+m vertices."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    g = complete(k + m)
    statement = STATEMENTS["tightness"]
    convention = statement.convention(k)
    expected, delta = statement.expected(k, m), statement.floor(k, m)
    rows = []
    ok = True
    for tree in enumerate_trees(m):
        outcome, cert = _outcome("tightness", g, k, tree, delta)
        rows.append((tree.spec_string(), outcome))
        # a witness is expected only in the convention cell, with a trivial residual
        if outcome != expected or cert is not None and cert.residual_kprime is not None:
            ok = False
    # the residual is the complete graph on k vertices; pin its value
    if not convention and edge_connectivity(complete(k))[0] != k - 1:
        ok = False
    return TightnessReport(
        k=k,
        m=m,
        residual_order=k,
        expected_residual_kprime=None if convention else k - 1,
        convention_sensitive=convention,
        rows=tuple(rows),
        passed=ok,
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """Result of a seeded search for a tree-removal counterexample.

    The search runs at the conjectured degree threshold (minimum degree
    k+m); `candidates` holds full reproduction records for any graph/tree
    pair where removal verifiably failed, and `min_delta_success` tracks
    the smallest minimum degree among graphs where every tree shape was
    removable.
    """

    k: int
    m: int
    budget: int
    seed: int
    graphs_tested: int
    trees_per_graph: int
    generation_failures: int
    candidates: tuple[dict, ...]
    min_delta_success: int | None

    def to_dict(self) -> dict:
        return _plain(self)


def counterexample_search(k: int, m: int, budget: int, seed: int) -> CounterexampleReport:
    """Try to break tree removability at the conjectured threshold.

    Generates `budget` graphs with connectivity >= k, minimum degree >=
    delta = k+m and order delta+1 to delta+8, and tries every tree of order
    m on each.  A host that misses the hypotheses counts as a generation
    failure.  A miss is reported as a candidate only after the hypotheses
    re-verify and a second exhaustive pass still finds nothing.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    delta = STATEMENTS["tree"].floor(k, m)
    trees = enumerate_trees(m)
    candidates: list[dict] = []
    genfail = 0
    removable_degrees: list[int] = []
    for i in range(budget):
        trial_seed = derive_seed(seed, i)
        g = _draw_graph(trial_seed, (delta + 1, delta + 8), "with_hypotheses", k, delta)
        if _hypotheses(g, k, delta) is None:
            genfail += 1
            continue
        # an open datapoint is a candidate here too: the search is for any miss
        missed = [t for t in trees if _outcome("tree", g, k, t, delta)[0] != OUTCOME_WITNESS]
        if not missed:
            removable_degrees.append(g.min_degree())
        for tree in missed:
            candidates.append(
                {
                    "graph": graph_payload(g),
                    "seed": trial_seed,
                    "n": g.n,
                    "k": k,
                    "m": m,
                    "tree": tree.spec_string(),
                    "min_degree": g.min_degree(),
                }
            )
    return CounterexampleReport(
        k=k,
        m=m,
        budget=budget,
        seed=seed,
        graphs_tested=budget - genfail,
        trees_per_graph=len(trees),
        generation_failures=genfail,
        candidates=tuple(candidates),
        min_delta_success=min(removable_degrees, default=None),
    )
