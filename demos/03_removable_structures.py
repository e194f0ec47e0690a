"""
Finding removable vertices, edge pairs, and subtrees
====================================================

A structure is removable at level k when deleting it (vertices and all
incident edges) leaves the graph k-edge-connected.  With enough minimum
degree on top of k-edge-connectivity such a structure always exists;
these finders locate one and certify the residual connectivity from
scratch.
"""

from kedge import (
    find_removable_edge,
    find_removable_tree,
    find_removable_vertex,
    gen_with_hypotheses,
    named_instance,
    parse_tree_spec,
)

# a seeded instance with connectivity 2 and minimum degree 4
g = gen_with_hypotheses(n=12, k=2, delta_min=4, seed=5)
print("instance: n =", g.n, "edges =", g.edge_count, "min degree =", g.min_degree())

cert = find_removable_vertex(g, 2)
print("removable vertex", cert.removed, "- residual connectivity", cert.residual_kprime)

cert = find_removable_edge(g, 2)
print("removable edge", cert.removed, "- residual connectivity", cert.residual_kprime)

# remove a whole path on three vertices, keeping the graph 2-edge-connected
tree = parse_tree_spec("path:3")
cert = find_removable_tree(g, 2, tree)
print("removable path image", cert.removed, "- residual connectivity", cert.residual_kprime)

# a star of four leaves needs more degree headroom
g = gen_with_hypotheses(n=14, k=1, delta_min=6, seed=11)
star = parse_tree_spec("star:5")
cert = find_removable_tree(g, 1, star)
print("removable star image", cert.removed, "- residual connectivity", cert.residual_kprime)

# the finder reports a miss as None instead of inventing a witness;
# the 6-cycle is 2-edge-connected but no edge survives removal at k=2
c6 = named_instance("cycle:6")
print("C6 removable edge at k=2:", find_removable_edge(c6, 2))
