"""
Extracting a highly connected core and removing a path inside it
================================================================

When the minimum degree clears 4t^2, some induced subgraph is
t-connected with a small boundary.  The extraction peels low-degree
vertices and splits along small vertex cuts until a valid core remains;
a subtree embedded in the core's interior is then removable.
"""

from kedge import (
    complete,
    extract_connected_subgraph,
    parse_tree_spec,
    removable_tree_via_thomassen,
)

# K38 has minimum degree 37 > 4 * 3^2, enough for a 3-connected core
g = complete(38)
core = extract_connected_subgraph(g, 3)
core.validate(g)
print("core order", len(core.vertices), "boundary size", len(core.boundary))

# remove a 2-path through the core interior, keeping 1-edge-connectivity
cert = removable_tree_via_thomassen(g, 1, parse_tree_spec("path:2"))
print("removed", cert.removed, "- residual connectivity", cert.residual_kprime)

# same pipeline on a non-complete seeded dense graph
from kedge import random_graph

g = random_graph(42, 0.95, seed=1)
print("seeded instance: min degree", g.min_degree(), "of", g.n - 1, "possible")
cert = removable_tree_via_thomassen(g, 1, parse_tree_spec("path:2"))
print("removed", cert.removed, "- residual connectivity", cert.residual_kprime)
