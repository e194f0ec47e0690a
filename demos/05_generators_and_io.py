"""
Graph generators, tree enumeration, and file formats
====================================================

The generators produce seeded instances with guaranteed connectivity
and degree floors; the tree module enumerates every shape of a given
order; graphs travel as edge-list text or graph6 strings.
"""

import os
import tempfile

from kedge import (
    all_connected_graphs,
    enumerate_trees,
    gen_hamiltonian_stack,
    gen_with_hypotheses,
    generate,
    load_graph,
    named_instance,
    parse_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)

# stacking t edge-disjoint closed tours gives 2t-edge-connectivity
g = gen_hamiltonian_stack(n=9, t=2, extra_edge_prob=0.0, seed=4)
print("stack: n =", g.n, "edges =", g.edge_count, "(2 tours, 18 edges)")

# hypothesis-driven generation: connectivity floor k, degree floor delta
g = gen_with_hypotheses(n=12, k=3, delta_min=5, seed=9)
print("hypotheses: min degree", g.min_degree(), ">= 5")

# the same by model name, as campaign configs and `kedge gen` ask for it
print("generate by name reproduces it:", generate("with_hypotheses", 12, 3, 5, 9) == g)

# named instances for quick experiments
print("petersen edges:", named_instance("petersen").edge_count)
print("K_{3,4} edges:", named_instance("complete_bipartite:3,4").edge_count)

# every free tree shape on six vertices
shapes = enumerate_trees(6)
print("trees of order 6:", len(shapes))
for t in shapes[:3]:
    print("  ", t.spec_string(), "degrees", sorted(t.degrees()))

# exhaustive connected-graph stream, small orders only
print("connected graphs on 4 vertices:", sum(1 for _ in all_connected_graphs(4)))

# round-trip through both text formats
g = named_instance("complete:4")
print("edge list:\n" + write_edge_list(g), end="")
print("graph6:", write_graph6(g))
print("parse back:", parse_graph6(write_graph6(g)) == g)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "k4.g6")
    save_graph(g, path)
    print("file round-trip:", load_graph(path) == g)
