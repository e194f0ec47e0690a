"""
Edge and vertex connectivity on small graphs
============================================

Builds a few classic graphs, reads off their connectivity numbers, and
shows the witness cuts.  Finishes by cross-checking the maximum-adjacency
kernel's value against the exhaustive bipartition count on a seeded random
graph.
"""

from kedge import (
    connectivity_report,
    edge_connectivity,
    edge_connectivity_bruteforce,
    enumerate_min_edge_cuts,
    local_edge_connectivity,
    named_instance,
    random_graph,
    vertex_connectivity,
)

# the Petersen graph is 3-regular and 3-edge-connected
g = named_instance("petersen")
report = connectivity_report(g)
print("petersen:", report)

# two 5-cliques joined by two bridges: the bridges form the minimum cut
g = named_instance("two_cliques_bridged:5,2")
value, cut = edge_connectivity(g)
print("bridged cliques: edge connectivity", value)
print("  cut edges:", sorted(cut.edges))
print("  one side:", cut.side_a)

# every minimum cut of the 4-cycle, in canonical order
g = named_instance("cycle:4")
for cut in enumerate_min_edge_cuts(g):
    print("C4 min cut:", sorted(cut.edges))

# local connectivity between specific vertex pairs
g = named_instance("two_cliques_bridged:4,2")
print("bridge endpoints see each other via", local_edge_connectivity(g, 0, 1), "edge-disjoint paths")
print("clique interiors are separated by", local_edge_connectivity(g, 2, 6), "paths")

# vertex connectivity drops to the bridge count here
print("vertex connectivity:", vertex_connectivity(g))

# the kernel's value and the exhaustive split minimum agree on a random graph
g = random_graph(11, 0.4, seed=7)
kernel = edge_connectivity(g)[0]
brute = edge_connectivity_bruteforce(g)
print("random n=11: kernel", kernel, "exhaustive", brute, "agree:", kernel == brute)
