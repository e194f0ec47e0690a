"""Mutation check: every listed mutant of a guarantee check fails a named test.

A mutant is one textual edit to a file under src/kedge that weakens a
pruning rule or a check.  For each entry, src/, tests/ and pyproject.toml
are copied to a temporary directory; the old text must occur exactly once
in its file, so an entry gone stale fails loudly instead of testing
nothing.  The edit is applied to the copy and `pytest -q -x <test>` runs
there.  The check fails if a mutant passes its test.  An equivalent
mutant, one that no test can tell apart, is listed with the reason; only
its staleness is checked.

Run from the repository root: python .github/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

# (file, old text, new text, the test that kills the mutant)
MUTANTS = [
    # Chartrand's shortcut: lambda = min degree needs min degree >= n // 2
    (
        "connectivity.py",
        "if low >= len(ids) // 2:",
        "if low >= len(ids) // 3:",
        "tests/test_connectivity.py::test_edge_value_matches_scanner_on_every_small_graph",
    ),
    # the degree pass returns early only at a degree below stop
    (
        "connectivity.py",
        "if d < stop:",
        "if d <= stop:",
        "tests/test_connectivity.py::test_edge_value_matches_scanner_on_every_small_graph",
    ),
    # so does its read of the lowest vertex before the alive mask is decoded
    (
        "connectivity.py",
        "if first < stop:",
        "if first <= stop:",
        "tests/test_connectivity.py::test_edge_value_matches_scanner_on_every_small_graph",
    ),
    # best is clamped to the minimum degree before Chartrand's shortcut
    (
        "connectivity.py",
        "best = min(best, low)",
        "pass",
        "tests/test_connectivity.py::test_edge_value_matches_scanner_on_every_small_graph",
    ),
    # a zero cut ends the orderings
    (
        "connectivity.py",
        "best >= max(stop, 1):",
        "best >= stop:",
        "tests/test_connectivity.py::test_edge_value_stops_at_a_zero_cut",
    ),
    # the far-pair bound: every far pair needs best paths, not best - 1
    (
        "connectivity.py",
        "if paths < best:",
        "if paths < best - 1:",
        "tests/test_connectivity.py::test_far_pair_bound_matches_the_oracle",
    ),
    # a ring vertex w outside N[b] carries its smaller neighbour count
    (
        "connectivity.py",
        "else min(to_a,",
        "else max(to_a,",
        "tests/test_connectivity.py::test_far_pair_bound_matches_the_oracle",
    ),
    # the ring leaves out N(a), whose edges into N[b] the ring's N[b] part counts
    (
        "connectivity.py",
        "_bits(ball & ~near)]",
        "_bits(ball & ~(1 << a))]",
        "tests/test_connectivity.py::test_far_pair_bound_matches_the_oracle",
    ),
    # a pair stops counting only once its paths reach best
    (
        "connectivity.py",
        "if paths >= best:",
        "if paths >= best - 1:",
        "tests/test_connectivity.py::test_far_pair_bound_matches_the_oracle",
    ),
    # the bound runs on at most EXHAUSTIVE_LIMIT alive vertices
    (
        "connectivity.py",
        "if len(ids) <= EXHAUSTIVE_LIMIT and _far_pairs_reach(",
        "if _far_pairs_reach(",
        "tests/test_connectivity.py::test_far_pair_bound_never_runs_above_sixteen_vertices",
    ),
    # the MA merge rule: merge x and y only once r(y) reaches best
    (
        "connectivity.py",
        "if attach[y] >= best:",
        "if attach[y] >= best - 1:",
        "tests/test_connectivity.py::test_edge_value_on_every_labeling_of_bridged_triangles",
    ),
    # Even's bound: a cut below c misses one of the first c sources
    (
        "connectivity.py",
        "while rest and i < best:",
        "while rest and i < best - 1:",
        "tests/test_connectivity.py::test_vertex_connectivity_matches_definition",
    ),
    # vertex_connectivity's bound: a non-clique has a cut of at most delta
    (
        "connectivity.py",
        "g.min_degree() + 1)",
        "g.min_degree())",
        "tests/test_connectivity.py::test_vertex_connectivity_matches_definition",
    ),
    # the common-neighbour skip: c common neighbours give c disjoint paths
    (
        "connectivity.py",
        "if (masks[s] & masks[t] & alive).bit_count() >= best:",
        "if (masks[s] & masks[t] & alive).bit_count() >= best - 1:",
        "tests/test_connectivity.py::test_vertex_connectivity_matches_definition",
    ),
    # the exhaustive scans' cap: no scan above EXHAUSTIVE_LIMIT vertices
    (
        "connectivity.py",
        "if size > EXHAUSTIVE_LIMIT:",
        "if size > EXHAUSTIVE_LIMIT + 1:",
        "tests/test_connectivity.py::test_exhaustive_limit_is_enforced",
    ),
    # the row scan: the side `alive` itself, boundary 0, is no bipartition
    (
        "connectivity.py",
        "flat[(2 << c) // 3] = 255",
        "pass",
        "tests/test_connectivity.py::test_scanner_matches_reference_walk",
    ),
    # the row scan: odd rows run their low codes downwards
    (
        "connectivity.py",
        'row.to_bytes(width, "big" if h & 1 else "little")',
        'row.to_bytes(width, "little")',
        "tests/test_connectivity.py::test_scanner_matches_reference_walk",
    ),
    # the row scan takes hosts of 8 alive vertices or more, no fewer
    (
        "connectivity.py",
        "_ROWS_FROM = 8",
        "_ROWS_FROM = 9",
        "tests/test_connectivity.py::test_scan_walks_in_rows_from_eight_vertices",
    ),
    (
        "connectivity.py",
        "_ROWS_FROM = 8",
        "_ROWS_FROM = 7",
        "tests/test_connectivity.py::test_scan_walks_in_rows_from_eight_vertices",
    ),
    # and carries up to 8 of the lowest others in a row of byte fields
    (
        "connectivity.py",
        "a = min(c, _ROW_BITS)",
        "a = min(c, _ROW_BITS - 1)",
        "tests/test_connectivity.py::test_scan_walks_in_rows_from_eight_vertices",
    ),
    # _first_certified's oracle cross-check
    (
        "removal.py",
        "if oracle != kprime:",
        "if False:",
        "tests/test_removal.py::test_certify_checks_the_kernel_against_the_oracle",
    ),
    # the tree walk's floor: hosts strictly above the floor vertex's host
    (
        "removal.py",
        "candidates &= -(2 << hosts[floors[i]])",
        "candidates &= -(4 << hosts[floors[i]])",
        "tests/test_removal.py::test_tree_images_follow_first_embedding_order",
    ),
    # the walk gives a level back its used mask when it ascends to it
    (
        "removal.py",
        "before = base[i]",
        "before = 0",
        "tests/test_removal.py::test_tree_images_follow_first_embedding_order",
    ),
    # a floor of 0 only for a vertex whose whole-tree code is the root's
    (
        "removal.py",
        "elif whole[b] == whole[0]:",
        "elif True:",
        "tests/test_removal.py::test_tree_images_follow_first_embedding_order",
    ),
    # the state memo: the key holds every open host's unused neighbours
    (
        "removal.py",
        "for j in open_parents[i + 1]:",
        "for j in open_parents[i + 1][1:]:",
        "tests/test_removal.py::test_tree_images_match_reference_on_twin_rich_hosts",
    ),
    # filled: the bulk placement drops images that came out already
    (
        "removal.py",
        "& (region ^ used) & ~filled.get(used, 0)",
        "& (region ^ used)",
        "tests/test_removal.py::test_tree_images_follow_first_embedding_order",
    ),
    # the order and boundary bounds, which the extraction checks without validate
    (
        "removal.py",
        "if order <= bound:",
        "if False:",
        "tests/test_removal.py::test_extraction_checks_order_and_boundary",
    ),
    (
        "removal.py",
        "if boundary > bound // 2:",
        "if False:",
        "tests/test_removal.py::test_extraction_checks_order_and_boundary",
    ),
    # HCSubgraph.validate's from-scratch connectivity clause
    (
        "removal.py",
        "if not _is_k_connected(g.adjacency_masks(), core, self.k_target):",
        "if False:",
        "tests/test_removal.py::test_hcsubgraph_validate_rejects_a_core_below_its_connectivity",
    ),
    # the one boundary rule: core vertices seen from outside the core
    (
        "removal.py",
        "outside |= masks[v]",
        "outside |= 0",
        "tests/test_removal.py::test_extract_connected_subgraph",
    ),
    # a cut splits a connected core when either side keeps core vertices
    # clear of it while the other holds core vertices
    (
        "removal.py",
        "(h1 - d1 and h2 or h2 - d2 and h1)",
        "(h2 - d2 and h1)",
        "tests/test_removal.py::test_decompose_cut_raises_when_a_cut_splits_a_connected_core",
    ),
    (
        "removal.py",
        "(h1 - d1 and h2 or h2 - d2 and h1)",
        "(h1 - d1 and h2)",
        "tests/test_removal.py::test_decompose_cut_raises_when_a_cut_splits_a_connected_core",
    ),
    # the two fragments of an overlap check belong to one graph
    (
        "fragments.py",
        "if f1.graph != g:",
        "if False:",
        "tests/test_fragments.py::test_overlap_rejects_foreign_fragments",
    ),
    # a fragment's deleted pair is read as an edge of its graph
    (
        "fragments.py",
        ", normalize_edge(g, f1.deleted)",
        ", f1.deleted",
        "tests/test_fragments.py::test_fragment_calls_reject_a_deleted_pair_that_is_not_an_edge",
    ),
    # the overlap hypotheses: the second edge lies in f's complement, and
    # the two sides meet
    (
        "fragments.py",
        "if e1m & ~fc:\n        return _unmet(",
        "if False:\n        return _unmet(",
        "tests/test_fragments.py::test_overlap_hypotheses_unmet",
    ),
    (
        "fragments.py",
        "if not fs & f1s:",
        "if False:",
        "tests/test_fragments.py::test_overlap_hypotheses_unmet",
    ),
    # the side intersection's boundary in the first host is recounted
    (
        "fragments.py",
        "elif _boundary_count(masks, intersection, fc | f1c) != kprime:",
        "elif False:",
        "tests/test_fragments.py::test_overlap_violation_carries_payload",
    ),
    # Graph.mask, the one range check on a caller's vertex ids, has two ends
    (
        "graph.py",
        "if not 0 <= v < self._n:",
        "if not v < self._n:",
        "tests/test_graph.py::test_every_entry_checks_caller_vertex_ids_with_one_message",
    ),
    # the string branch of _bits reads the binary string lowest bit first
    (
        "graph.py",
        "enumerate(bin(mask)[:1:-1])",
        "enumerate(bin(mask)[2:])",
        "tests/test_graph.py::test_bits_matches_reference_on_both_sides_of_the_density_rule",
    ),
    # the k = 1 decision is connectivity, not the absence of isolated vertices
    (
        "connectivity.py",
        "return g.is_connected()",
        "return g.n > 0 and g.min_degree() > 0",
        "tests/test_connectivity.py::test_is_k_edge_connected_at_one_is_the_value_kernel",
    ),
    # randrange keeps a draw only below the largest multiple of its bound
    (
        "rng.py",
        "return _MASK64 - _MASK64 % b if b & (b - 1) else 1 << 64",
        "return _MASK64 - _MASK64 % b + 1 if b & (b - 1) else 1 << 64",
        "tests/test_generators.py::test_randrange_rejects_the_partial_block",
    ),
    # a window is clear only when its last draw is not on a rejected state
    (
        "rng.py",
        "return ahead > at + count",
        "return ahead >= at + count",
        "tests/test_generators.py::test_cycle_skips_rejected_draws_like_the_whole_shuffle",
    ),
    # a window that wraps past 2^64 goes on from position 0
    (
        "rng.py",
        "else positions[0] + (1 << 64)",
        "else 1 << 128",
        "tests/test_generators.py::test_cycle_skips_rejected_draws_like_the_whole_shuffle",
    ),
    # in a clear window, try c + 1 starts (c + 1) * (n - 1) draws in
    (
        "rng.py",
        "(start + (c + 1) * step * _GOLDEN)",
        "(start + c * step * _GOLDEN)",
        "tests/test_generators.py::test_cycle_matches_the_whole_shuffle_on_drawn_masks",
    ),
    # only orders up to 64, whose bounds are all tabled, take the clear window
    (
        "rng.py",
        "if n <= _TABLED_BOUND and _clear(",
        "if n <= _TABLED_BOUND + 1 and _clear(",
        "tests/test_generators.py::test_cycle_skips_rejected_draws_like_the_whole_shuffle",
    ),
    # the packer's sentinel after the last place is in no mask
    (
        "rng.py",
        "list(range(n + 1)), n - 1",
        "list(range(n)) + [0], n - 1",
        "tests/test_generators.py::test_cycle_matches_the_whole_shuffle_on_drawn_masks",
    ),
    # the tree statement is open exactly for k >= 4, m >= 3
    (
        "harness.py",
        "None if k >= 4 and m >= 3 else",
        "None if k >= 3 and m >= 3 else",
        "tests/test_harness.py::test_open_range_starts_at_k4_m3",
    ),
    # a statement without a tree takes no shapes
    (
        "harness.py",
        "if shaped != bool(self.m_values or self.trees):",
        "if shaped and not (self.m_values or self.trees):",
        "tests/test_cli.py::test_verify_usage_errors",
    ),
    # a tightness config draws no graph, so it names no model or order range
    (
        "harness.py",
        'if self.statement == "tightness" and (self.model, self.n_range) != defaults:',
        "if False:",
        "tests/test_cli.py::test_verify_rejects_a_malformed_config",
    ),
    # a config takes shapes from m_values or from trees, not both
    (
        "harness.py",
        "if self.trees and self.m_values:",
        "if False:",
        "tests/test_harness.py::test_config_rejects_m_values_with_trees",
    ),
    # a miss the statement does not predict reruns the finder, which must miss again
    (
        "harness.py",
        "if statement.find(g, k, tree) is not None:",
        "if False:",
        "tests/test_harness.py::test_flaky_finder_is_an_internal_error",
    ),
    # only a predicted miss skips the recheck; an open cell's miss does not
    (
        "harness.py",
        "if expected == OUTCOME_NOT_FOUND:",
        "if expected != OUTCOME_WITNESS:",
        "tests/test_harness.py::test_flaky_finder_is_an_internal_error",
    ),
    # a host with lambda < k fails the hypotheses before any finder runs
    (
        "harness.py",
        "return kprime if kprime >= k else None",
        "return kprime",
        "tests/test_harness.py::test_counterexample_host_below_hypotheses_is_a_generation_failure",
    ),
    # a witness off K_{1+m} leaves K_1: the campaign reports its residual as
    # trivial, and verify_tightness fails one with a residual value
    (
        "harness.py",
        "witness_residual_trivial=cert is not None and cert.residual_kprime is None,",
        "witness_residual_trivial=False,",
        "tests/test_harness.py::test_convention_witness_reports_a_trivial_residual",
    ),
    (
        "harness.py",
        "if outcome != expected or cert is not None and cert.residual_kprime is not None:",
        "if outcome != expected:",
        "tests/test_harness.py::test_convention_witness_with_a_residual_value_fails_tightness",
    ),
]

# (file, old text, new text, why no test can kill it)
EQUIVALENT: list[tuple[str, str, str, str]] = []


def main() -> int:
    failed = []
    for path, old, new, test in MUTANTS + EQUIVALENT:
        name = f"{path}: {old!r} -> {new!r}"
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree("src", os.path.join(tmp, "src"))
            shutil.copytree("tests", os.path.join(tmp, "tests"))
            shutil.copy("pyproject.toml", tmp)
            target = os.path.join(tmp, "src", "kedge", path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"STALE     {name}: old text occurs {text.count(old)} times")
                failed.append(name)
                continue
            if (path, old, new, test) in EQUIVALENT:
                print(f"EQUIVALENT {name}: {test}")
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            start = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=tmp,
                env=dict(os.environ, PYTHONPATH="src"),
                capture_output=True,
                text=True,
            )
            took = time.perf_counter() - start
            # pytest exits 1 when a test fails; any other code is no verdict
            if run.returncode == 1:
                print(f"KILLED    {name} by {test} ({took:.1f} s)")
            else:
                print(f"SURVIVED  {name}: {test} exited {run.returncode} ({took:.1f} s)")
                print(run.stdout[-2000:], run.stderr[-2000:])
                failed.append(name)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
