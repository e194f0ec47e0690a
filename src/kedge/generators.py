"""Seeded generators and named instances for experiment graphs.

`generate(model, ...)` runs any of them by name.  Every generator checks
each claim (edge connectivity, minimum degree) once, raising
InternalCheckError on a miss, and is a pure function of its seed, so runs
reproduce exactly.  Enumeration helpers for small graphs live here too.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .connectivity import is_k_edge_connected
from .errors import GenerationError, InternalCheckError
from .graph import MAX_ORDER, Graph
from .rng import SplitMix64, derive_seed


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    if n > MAX_ORDER:
        raise ValueError(f"complete graph order {n} exceeds {MAX_ORDER}")
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def two_cliques_bridged(q: int, b: int) -> Graph:
    """Two disjoint complete graphs of order q joined by b parallel bridges.

    Bridge i connects vertex i of the first clique to vertex q+i of the
    second.  For b < q the edge connectivity is min(b, q-1) (the bridge
    cut, or isolating a bridgeless clique vertex); at b = q every vertex
    carries a bridge and the connectivity rises to q.
    """
    if q < 2:
        raise ValueError("cliques need at least two vertices")
    if not 0 <= b <= q:
        raise ValueError("bridge count must be between 0 and q")
    edges = list(itertools.combinations(range(q), 2))
    edges += [(q + i, q + j) for i, j in itertools.combinations(range(q), 2)]
    edges += [(i, q + i) for i in range(b)]
    return Graph(2 * q, edges)


# tag name: (parameter count, the order the tag asks for, builder)
_NAMED = {
    "complete": (1, lambda n: n, complete),
    "complete_bipartite": (2, lambda a, b: a + b, complete_bipartite),
    "cycle": (1, lambda n: n, cycle_graph),
    "petersen": (0, lambda: 10, petersen_graph),
    "two_cliques_bridged": (2, lambda q, b: 2 * q, two_cliques_bridged),
}


def named_instance(tag: str) -> Graph:
    """Build a deterministically labeled graph from a textual tag.

    Tags: complete:n, complete_bipartite:a,b, cycle:n, petersen,
    two_cliques_bridged:q,b.  An order above MAX_ORDER is rejected before
    anything is built.
    """
    name, _, arg = tag.partition(":")
    try:
        args = [int(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad parameters in instance tag {tag!r}") from None
    if name not in _NAMED:
        raise ValueError(f"unknown instance tag {tag!r}")
    count, order, build = _NAMED[name]
    if len(args) != count:
        raise ValueError(f"instance tag {name!r} takes {count} parameters, got {len(args)}")
    if order(*args) > MAX_ORDER:
        raise ValueError(f"instance tag {tag!r} asks for more than {MAX_ORDER} vertices")
    return build(*args)


def _cycle_stack(n: int, t: int, rng: SplitMix64) -> list[int]:
    """Adjacency masks of t edge-disjoint Hamiltonian cycles, a
    2t-edge-connected union; a cycle sharing an edge with an earlier one is
    redrawn, up to 200 times."""
    adj = [0] * n
    for placed in range(t):
        order = rng.cycle(n, adj, 200)
        if order is None:
            raise GenerationError(f"could not place cycle {placed + 1} of {t} after 200 tries")
        u = order[-1]
        for v in order:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            u = v
    return adj


def gen_hamiltonian_stack(n: int, t: int, extra_edge_prob: float, seed: int) -> Graph:
    """Union of t edge-disjoint Hamiltonian cycles plus random extras.

    2t-edge-connected by construction (_cycle_stack), which is still checked
    before returning.  Extra edges are sampled independently per non-edge.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if t < 1:
        raise ValueError("t must be at least 1")
    if 2 * t >= n:
        raise ValueError(f"cannot pack {t} edge-disjoint hamiltonian cycles on {n} vertices")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("extra_edge_prob must be a probability")
    rng = SplitMix64(seed)
    adj = _cycle_stack(n, t, rng)
    # no draw falls below 0.0, and nothing reads the stream after this pass
    if extra_edge_prob > 0.0:
        for u, v in itertools.combinations(range(n), 2):
            if not adj[u] >> v & 1 and rng.random() < extra_edge_prob:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    g = Graph._of_masks(adj)
    if not is_k_edge_connected(g, 2 * t):
        raise InternalCheckError("hamiltonian stack failed its structural connectivity guarantee")
    return g


def _augmented_attempt(n: int, k: int, delta_min: int, seed: int) -> Graph | None:
    t = (k + 1) // 2
    if 2 * t >= n:
        return complete(n)
    try:
        adj = _cycle_stack(n, t, SplitMix64(seed))
    except GenerationError:
        return None
    rng = SplitMix64(derive_seed(seed, 1))
    # each draw adds an edge at a vertex below delta_min, at a bound up to n - 1
    draws = rng.draws(sum(max(0, delta_min - mask.bit_count()) for mask in adj), n - 1)
    full = (1 << n) - 1
    # v is the lowest id at the minimum degree low: ids below v are above low,
    # and degrees only grow, so v moves up, back to 0 when low does
    low, v = min(mask.bit_count() for mask in adj), 0
    while low < delta_min:
        if v == n:
            low, v = low + 1, 0
        elif adj[v].bit_count() > low:
            v += 1
        else:
            # v's non-neighbours (deg v < delta_min < n leaves one); the draw picks
            # among them in ascending order: drop that many lowest, take the next
            rest = full & ~adj[v] & ~(1 << v)
            b = rest.bit_count()
            for _ in range(rng.randrange(b) if draws is None else next(draws) % b):
                rest &= rest - 1
            w = (rest & -rest).bit_length() - 1
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    return Graph._of_masks(adj)


def gen_with_hypotheses(n: int, k: int, delta_min: int, seed: int) -> Graph:
    """Some graph with edge connectivity >= k and minimum degree >= delta_min.

    Builds a Hamiltonian-cycle stack covering the connectivity target, then
    adds random edges at minimum-degree vertices until the degree target
    holds.  Only a failed cycle packing is retried (64 derived seeds); each
    promise is checked once, and a miss is a bug: InternalCheckError.
    Deterministic in (n, k, delta_min, seed); no uniformity is promised.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if delta_min < k:
        raise ValueError("delta_min must be at least k")
    if n <= delta_min:
        raise ValueError(f"n must exceed delta_min={delta_min}")
    for attempt in range(64):
        g = _augmented_attempt(n, k, delta_min, derive_seed(seed, attempt))
        if g is not None:
            if g.min_degree() < delta_min or not is_k_edge_connected(g, k):
                raise InternalCheckError(f"graph misses k={k} or delta_min={delta_min}")
            return g
    raise GenerationError(
        f"no graph with connectivity {k} and degree {delta_min} on {n}"
        f" vertices after 64 attempts"
    )


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Plain independent-edge random graph, deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = SplitMix64(seed)
    return Graph(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


ENUM_GRAPH_LIMIT = 7


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in edge-subset order."""
    if not 1 <= n <= ENUM_GRAPH_LIMIT:
        raise ValueError(f"n must be between 1 and {ENUM_GRAPH_LIMIT}")
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, (pairs[i] for i in range(len(pairs)) if bits >> i & 1))


def all_connected_graphs(n: int) -> Iterator[Graph]:
    for g in all_graphs(n):
        if g.is_connected():
            yield g


# the params keys each model reads; every other model reads none
_PARAMS = {"hamiltonian_stack": ("t", "extra_edge_prob"), "gnp": ("p",)}


def _check_params(model: str, params: tuple[tuple[str, float], ...]) -> None:
    """A params key the model does not read is an error, not a silent default."""
    for key, _ in params:
        if key not in _PARAMS.get(model, ()):
            raise ValueError(f"model {model!r} reads no parameter {key!r}")


def generate(
    model: str, n: int = 0, k: int = 1, delta_min: int = 0, seed: int = 0,
    params: tuple[tuple[str, float], ...] = (),
) -> Graph:
    """Run the generator `model` names: "with_hypotheses", "hamiltonian_stack"
    and "gnp" are seeded models; any other model is a named-instance tag,
    which ignores the numeric arguments.  `params` holds the extras the
    model reads as (key, value) pairs (see `_PARAMS`)."""
    if n > MAX_ORDER:
        raise ValueError(f"n must be at most {MAX_ORDER}, got {n}")
    _check_params(model, params)
    p = dict(params)
    if model == "hamiltonian_stack":
        t = float(p.get("t", max(1, (k + 1) // 2)))
        if not t.is_integer():
            raise ValueError(f"t must be a whole number of cycles, got {t}")
        prob = float(p.get("extra_edge_prob", 0.0))
        return gen_hamiltonian_stack(n, int(t), prob, seed)
    if model == "with_hypotheses":
        return gen_with_hypotheses(n, k, delta_min, seed)
    if model == "gnp":
        return random_graph(n, float(p.get("p", 0.5)), seed)
    return named_instance(model)
