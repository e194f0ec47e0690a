"""
Fragments of a two-vertex deletion and the overlap dichotomy
============================================================

Deleting both endpoints of an edge can drop a graph below its
connectivity threshold; the fragments of the damaged graph are the
minimal cut sides that certify the drop.  When two such deletions
interact, one of two things always happens: the overlapping fragments
intersect in another fragment, or one complement is strictly small.
This script walks both branches and ends with the descent to a minimal
fragment.
"""

from kedge import (
    Graph,
    OverlapVerdict,
    check_fragment_overlap,
    fragments_of,
    minimal_fragment_descent,
    scan_overlap_cases,
    two_cliques_bridged,
    verify_descent_conclusion,
)

# delete the two endpoints of a bridge: each clique remnant is a fragment
g = two_cliques_bridged(5, 2)
for f in fragments_of(g, (0, 1), 2):
    print("fragment side", sorted(f.side), "cut size", len(f.cut_edges))

# an intersection case on the complete graph K6
g6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
f = next(fr for fr in fragments_of(g6, (0, 1), 4) if fr.side == frozenset({4}))
f1 = next(fr for fr in fragments_of(g6, (2, 3), 4) if fr.side == frozenset({0, 1, 4}))
res = check_fragment_overlap(f, f1)
print("K6 overlap verdict:", res.verdict.name)
print("  edges to the remainder:", res.d_intersection_remainder)
print("  its host boundary is a minimum cut, of size", f.host_kprime)

# a small-complement case found by scanning a sparse 6-vertex graph;
# threshold 2 sits above both damaged graphs' connectivities
g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)])
f = next(fr for fr in fragments_of(g, (0, 5), 2) if fr.side == frozenset({2, 3}))
f1 = next(fr for fr in fragments_of(g, (1, 4), 2) if fr.side == frozenset({0, 2, 5}))
res = check_fragment_overlap(f, f1)
assert res.verdict is OverlapVerdict.SMALL_COMPLEMENT
print("sparse graph verdict:", res.verdict.name, "- complement order", len(f1.complement))

# sweep every configuration in one graph; the checker raises on any failure
stats = scan_overlap_cases(g6)
print("K6 scan:", stats.configurations, "configurations,",
      stats.intersection_fragment, "intersection,", stats.small_complement, "small complement")

# descend to a minimal fragment and audit its disjointness property
g = two_cliques_bridged(5, 2)
f0 = fragments_of(g, (0, 1), 2)[0]
f1 = minimal_fragment_descent(f0, 2)
print("minimal fragment side", sorted(f1.side), "from edge", f1.deleted)
audit = verify_descent_conclusion(f1, 2)
print("audit:", audit.fragments_checked, "fragments checked,",
      audit.disjoint_confirmed, "confirmed disjoint, min side degree", audit.min_side_degree)
