from kedge.graph import Graph
from kedge.rng import SplitMix64, derive_seed
from kedge.trees import TreeSpec


def seeded_random_graphs(count: int, n_lo: int, n_hi: int, seed: int, p: float = 0.5):
    """Deterministic stream of G(n, p) samples for property-style tests."""
    from kedge.generators import random_graph

    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        n = n_lo + rng.randrange(n_hi - n_lo + 1)
        out.append(random_graph(n, p, derive_seed(seed, i)))
    return out


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def reordered(tree: TreeSpec, rng: SplitMix64) -> TreeSpec:
    """The same shape under a random parent array: a random root, then each
    next vertex a random unplaced neighbour of the vertices placed so far."""
    adj = tree.adjacency()
    order = [rng.randrange(tree.order)]
    parent = {order[0]: -1}
    while len(order) < tree.order:
        frontier = [(w, v) for v in order for w in adj[v] if w not in parent]
        w, v = frontier[rng.randrange(len(frontier))]
        parent[w] = v
        order.append(w)
    index = {v: i for i, v in enumerate(order)}
    return TreeSpec(tuple(index.get(parent[v], -1) for v in order))
