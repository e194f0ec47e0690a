"""Tree specs, Pruefer codes, and free-tree enumeration.

The enumeration oracle here is independent of the package's own canonical
form: it builds each tree's adjacency and compares center-rooted encodings
computed locally.
"""

import hashlib

import pytest

from kedge.graph import MAX_ORDER, Graph
from kedge.rng import SplitMix64

from conftest import reordered
from kedge.trees import (
    ENUMERATION_LIMIT,
    FREE_TREE_COUNTS,
    TreeSpec,
    caterpillar_tree,
    enumerate_trees,
    parse_tree_spec,
    path_tree,
    prufer_decode,
    prufer_encode,
    spider_tree,
    star_tree,
    tree_from_graph,
)


def _local_center_code(tree: TreeSpec):
    """Canonical form via tree centers, written independently of the package.

    Leaves are stripped round by round; the 1 or 2 survivors are the centers.
    The code is the sorted tuple of rooted encodings from each center.
    """
    adj = {v: set(ns) for v, ns in enumerate(tree.adjacency())}
    alive = set(adj)
    while len(alive) > 2:
        leaves = [v for v in alive if len(adj[v] & alive) == 1]
        alive -= set(leaves)
    centers = sorted(alive)

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return tuple(sorted(encode(c, None) for c in centers))


def _rooted_code(adj: list[list[int]], root: int):
    """Nested-tuple encoding of the tree rooted at `root`, one root at a time.

    Children codes are sorted, so isomorphic rooted trees encode equally.
    This is the package's former canonical form, kept as the reference for
    the one-pass codes of `TreeSpec.rooted_codes`.
    """
    order: list[tuple[int, int]] = []
    stack = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for w in adj[v]:
            if w != parent:
                stack.append((w, v))
    codes: dict[int, tuple] = {}
    for v, parent in reversed(order):
        codes[v] = tuple(sorted(codes[w] for w in adj[v] if w != parent))
    return codes[root]


def test_tree_spec_basics():
    t = path_tree(4)
    assert t.order == 4
    assert t.edges() == [(0, 1), (1, 2), (2, 3)]
    assert t.degrees() == [1, 2, 2, 1]
    g = Graph(t.order, t.edges())
    assert g.n == 4 and g.edge_count == 3


def test_tree_spec_validation():
    with pytest.raises(ValueError):
        TreeSpec(parents=(0,))  # root must be marked with -1
    with pytest.raises(ValueError):
        TreeSpec(parents=(-1, 2))  # parent must precede child
    with pytest.raises(ValueError):
        TreeSpec(parents=())


def test_star_and_spider_and_caterpillar():
    s = star_tree(5)
    assert sorted(s.degrees()) == [1, 1, 1, 1, 4]
    sp = spider_tree([2, 2, 1])
    assert sp.order == 6
    assert max(sp.degrees()) == 3
    cat = caterpillar_tree([2, 0, 1])
    assert cat.order == 6
    spine_degrees = cat.degrees()[:3]
    assert spine_degrees == [3, 2, 2]


def test_prufer_round_trip_up_to_iso():
    """decode relabels into parent-array form, so round trips preserve the
    shape rather than the literal sequence."""
    for seq in ([], [0], [3, 3], [1, 2, 3], [0, 0, 0, 0]):
        t = prufer_decode(seq)
        assert t.order == len(seq) + 2
        back = prufer_decode(prufer_encode(t))
        assert _local_center_code(back) == _local_center_code(t)


def test_prufer_encode_known():
    # the path 0-1-2-3 has code [1, 2]
    assert prufer_encode(path_tree(4)) == [1, 2]
    # the star with center 0 has code [0, 0, ...]
    assert prufer_encode(star_tree(5)) == [0, 0, 0]


def _relabel_by_reference(g: Graph) -> TreeSpec:
    """tree_from_graph's breadth-first labelling, written on a relabel map."""
    relabel = {0: 0}
    parents = [-1] * g.n
    queue = [0]
    for u in queue:
        for w in sorted(g.neighbors(u)):
            if w not in relabel:
                relabel[w] = len(relabel)
                parents[relabel[w]] = relabel[u]
                queue.append(w)
    return TreeSpec(tuple(parents))


def _prufer_decode_by_reference(seq: list[int]) -> TreeSpec:
    """Decode through a Graph: join each entry in turn to the smallest vertex
    neither removed nor still to come, the last two left to each other, then
    relabel."""
    m = len(seq) + 2
    removed, edges = [], []
    for i, x in enumerate(seq):
        leaf = min(v for v in range(m) if v not in removed and v not in seq[i:])
        removed.append(leaf)
        edges.append((leaf, x))
    u, v = [w for w in range(m) if w not in removed]
    return _relabel_by_reference(Graph(m, edges + [(u, v)]))


def _prufer_encode_by_reference(tree: TreeSpec) -> list[int]:
    """Encode on a Graph: strip the smallest leaf m - 2 times, recording its neighbour."""
    g = Graph(tree.order, tree.edges())
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    out = []
    for _ in range(tree.order - 2):
        leaf = min(v for v in adj if len(adj[v]) == 1)
        (neighbor,) = adj.pop(leaf)
        adj[neighbor].discard(leaf)
        out.append(neighbor)
    return out


def test_prufer_codes_match_graph_references():
    """Decode on every Pruefer sequence of order 2-7 and encode on every
    tree of order 2-10, under its enumerated and three random labellings,
    against the Graph-based references; tree_from_graph too."""
    rng = SplitMix64(41)
    for m in range(2, 8):
        for code_int in range(m ** (m - 2)):
            seq = [code_int // m ** i % m for i in range(m - 2)]
            tree = prufer_decode(seq)
            assert tree == _prufer_decode_by_reference(seq)
            assert prufer_encode(tree) == _prufer_encode_by_reference(tree)
    for m in range(2, ENUMERATION_LIMIT + 1):
        for shape in enumerate_trees(m):
            for tree in [shape] + [reordered(shape, rng) for _ in range(3)]:
                assert prufer_encode(tree) == _prufer_encode_by_reference(tree)
                perm = [rng.randrange(m - i) for i in range(m)]
                labels = list(range(m))
                labels = [labels.pop(j) for j in perm]
                g = Graph(m, [(labels[u], labels[v]) for u, v in tree.edges()])
                assert tree_from_graph(g) == _relabel_by_reference(g)


def test_tree_from_graph():
    g = Graph(4, [(1, 3), (0, 3), (2, 0)])
    t = tree_from_graph(g)
    assert t.order == 4
    assert _local_center_code(t) == _local_center_code(path_tree(4))
    with pytest.raises(ValueError):
        tree_from_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError):
        tree_from_graph(Graph(3, [(0, 1)]))


def test_parse_tree_spec_grammar():
    assert parse_tree_spec("path:3").order == 3
    assert parse_tree_spec("star:4").order == 4
    assert parse_tree_spec("spider:2,2").order == 5
    assert parse_tree_spec("caterpillar:1,1").order == 4
    assert parse_tree_spec("prufer:1,2").order == 4
    for bad in ("path:0", "nope:3", "prufer:x", "path:", "spider:"):
        with pytest.raises(ValueError):
            parse_tree_spec(bad)


def test_tree_builders_cap_the_order():
    """Every builder rejects an order above MAX_ORDER before it builds a
    parent array, through the grammar too, and takes MAX_ORDER itself."""
    over = MAX_ORDER + 1
    for build, arg, spec in (
        (path_tree, over, f"path:{over}"),
        (star_tree, over, f"star:{over}"),
        (spider_tree, [1, over - 2], f"spider:1,{over - 2}"),
        (caterpillar_tree, [0, over - 2], f"caterpillar:0,{over - 2}"),
        (prufer_decode, [0] * (over - 2), "prufer:" + ",".join(["0"] * (over - 2))),
    ):
        for attempt in (lambda: build(arg), lambda: parse_tree_spec(spec)):
            with pytest.raises(ValueError, match=f"tree order {over} exceeds {MAX_ORDER}"):
                attempt()
    assert path_tree(MAX_ORDER).order == MAX_ORDER
    assert star_tree(MAX_ORDER).order == MAX_ORDER
    assert spider_tree([1, MAX_ORDER - 2]).order == MAX_ORDER
    assert caterpillar_tree([0, MAX_ORDER - 2]).order == MAX_ORDER
    assert prufer_decode([0] * (MAX_ORDER - 2)).order == MAX_ORDER


def test_parse_tree_spec_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("4 3\n0 1\n1 2\n2 3\n")
    t = parse_tree_spec(f"file:{p}")
    assert t.order == 4


def test_spec_string_round_trips():
    for m in range(1, 8):
        for t in enumerate_trees(m):
            back = parse_tree_spec(t.spec_string())
            assert _local_center_code(back) == _local_center_code(t)


def test_enumeration_counts_match_oeis():
    for m, want in enumerate(FREE_TREE_COUNTS, start=1):
        if m > 8:
            break
        assert len(enumerate_trees(m)) == want


def test_enumeration_is_duplicate_free_and_complete():
    """Independent check at order 7: decode all Pruefer sequences, bucket by
    the local center code, and compare against the enumerated family."""
    m = 7
    seen = set()
    for code_int in range(m ** (m - 2)):
        seq, x = [], code_int
        for _ in range(m - 2):
            seq.append(x % m)
            x //= m
        seen.add(_local_center_code(prufer_decode(seq)))
    family = [_local_center_code(t) for t in enumerate_trees(m)]
    assert len(family) == len(set(family)) == len(seen)
    assert set(family) == seen


def test_rooted_codes_match_reference():
    """Every tree with m <= 10, as enumerated and under five seeded
    reorderings: the whole-tree codes are the per-root reference codes, the
    subtree codes are the reference codes of the subtrees, and the
    canonical code is their minimum."""
    rng = SplitMix64(10)
    trees = 0
    for m in range(1, ENUMERATION_LIMIT + 1):
        for shape in enumerate_trees(m):
            for tree in [shape] + [reordered(shape, rng) for _ in range(5)]:
                adj = tree.adjacency()
                whole = tuple(_rooted_code(adj, r) for r in range(m))
                subtree, found = tree.rooted_codes
                assert found == whole
                for v in range(1, m):
                    # v's subtree: the tree rooted at v without the edge to its parent
                    cut = [list(a) for a in adj]
                    cut[v].remove(tree.parents[v])
                    assert subtree[v] == _rooted_code(cut, v)
                assert subtree[0] == whole[0]
                assert tree.canonical_code() == min(whole)
                trees += 1
    assert trees == 6 * sum(FREE_TREE_COUNTS)


def test_enumeration_order_is_pinned():
    """The parent arrays of every order up to the limit, in order; the digest
    was taken from the per-root canonical form the one-pass codes replace."""
    arrays = [t.parents for m in range(1, ENUMERATION_LIMIT + 1) for t in enumerate_trees(m)]
    assert len(arrays) == sum(FREE_TREE_COUNTS)
    digest = hashlib.sha256(repr(arrays).encode()).hexdigest()
    assert digest == "ab5a8f99fcc3ea67fa37bd7582d3a743a94431fbfa7e5481fef8e794d30d1f28"


def test_enumeration_limit():
    with pytest.raises(ValueError):
        enumerate_trees(ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_trees(0)
