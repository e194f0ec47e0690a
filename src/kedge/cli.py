"""Command-line front end.

Exit codes: 0 for expected outcomes, 1 when a re-verified violation
candidate is present, 2 for usage or input errors, 3 for internal
postcondition failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .connectivity import connectivity_report
from .errors import InternalCheckError, KedgeError, TheoremViolation
from .generators import generate
from .harness import (
    STATEMENTS,
    CampaignConfig,
    counterexample_search,
    run_campaign,
    write_report,
)
from .io import load_graph, save_graph, write_edge_list
from .trees import parse_tree_spec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kedge",
        description="Edge-connectivity analysis and removable-structure search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="connectivity report for a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "find-removable",
        help="search a graph for a deletable vertex, edge, or tree",
    )
    p.add_argument("--k", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    # --vertex and --edge pick the statements without a tree; --tree takes a shape
    for name, statement in STATEMENTS.items():
        if statement.kind != "tree":
            which.add_argument(
                f"--{statement.kind}", dest="statement", action="store_const", const=name
            )
    which.add_argument("--tree", metavar="TREESPEC")
    p.add_argument("file")
    p.set_defaults(func=cmd_find_removable)

    p = sub.add_parser("gen", help="write a seeded or named test graph")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", metavar="KEY=VALUE", action="append", default=[])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument(
        "--statement",
        choices=[name.replace("_", "-") for name in STATEMENTS],
    )
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tree", metavar="TREESPEC", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", dest="json_path", metavar="PATH", default=None)
    p.add_argument("--config", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "counterexample",
        help="search for a tree-removal failure at minimum degree k+m",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_counterexample)

    return parser


def cmd_analyze(args) -> int:
    rep = connectivity_report(load_graph(args.file))
    print(f"vertices: {rep.n}")
    print(f"edges: {rep.edge_count}")
    print(f"min degree: {rep.min_degree}")
    kp = rep.edge_connectivity
    kv = rep.vertex_connectivity
    print(f"edge connectivity: {'trivial' if kp is None else kp}")
    print(f"vertex connectivity: {'trivial' if kv is None else kv}")
    return EXIT_OK


def cmd_find_removable(args) -> int:
    g = load_graph(args.file)
    statement = STATEMENTS[args.statement or "tree"]
    tree = None if args.tree is None else parse_tree_spec(args.tree)
    cert = statement.find(g, args.k, tree)
    if cert is None:
        print(f"no removable {statement.kind} for k={args.k}")
        return EXIT_OK
    print(f"removable {cert.kind}: vertices {cert.removed}")
    if cert.residual_kprime is None:
        print("residual: single vertex (trivially 1-edge-connected)")
    else:
        print(f"residual edge connectivity: {cert.residual_kprime}")
    return EXIT_OK


def cmd_gen(args) -> int:
    delta = args.delta if args.delta is not None else args.k
    pairs = [text.partition("=") for text in args.param]
    if not all(eq for _, eq, _ in pairs):
        raise ValueError("--param takes KEY=VALUE")
    params = tuple((key, float(value)) for key, _, value in pairs)
    g = generate(args.model, args.n, args.k, delta, args.seed, params)
    if args.out:
        fmt = "graph6" if str(args.out).endswith(".g6") else "edgelist"
        save_graph(g, args.out, fmt)
        print(f"wrote {g.n} vertices, {g.edge_count} edges to {args.out}")
    else:
        sys.stdout.write(write_edge_list(g))
    return EXIT_OK


def _config_from_args(args) -> CampaignConfig:
    if args.config is not None:
        if args.statement is not None:
            raise ValueError("--config and --statement are mutually exclusive")
        with open(args.config, encoding="utf-8") as fh:
            return CampaignConfig.from_dict(json.load(fh))
    if args.statement is None:
        raise ValueError("either --config or --statement is required")
    for name in ("k", "trials", "seed"):
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required with --statement")
    return CampaignConfig(
        statement=args.statement.replace("-", "_"),
        k_values=(args.k,),
        trials=args.trials,
        master_seed=args.seed,
        m_values=(args.m,) if args.m is not None else (),
        trees=(args.tree,) if args.tree is not None else (),
    )


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    result = run_campaign(config)
    for label, cell in result.summary["per_cell"].items():
        line = (
            f"{label}: witness_found={cell['witness_found']}"
            f" not_found={cell['not_found']}"
            f" violations={cell['violations']}"
        )
        if cell["open_datapoints"]:
            line += f" open_datapoints={cell['open_datapoints']}"
        if cell["generation_failed"]:
            line += f" generation_failed={cell['generation_failed']}"
        if cell["expected"] is None:
            line += " [open conjecture cell, not gated]"
        else:
            line += f" [expected {cell['expected']}:"
            line += " ok]" if cell.get("all_expected") else " MISSED]"
        if cell.get("convention_sensitive"):
            line += " [trivial-residual convention]"
        print(line)
    if args.json_path:
        write_report(result, args.json_path)
        print(f"report written to {args.json_path}")
    if result.has_violation:
        print("violation candidates present; see report for reproduction data")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_counterexample(args) -> int:
    rep = counterexample_search(args.k, args.m, args.budget, args.seed)
    print(
        f"k={rep.k} m={rep.m}: {rep.graphs_tested} graphs x "
        f"{rep.trees_per_graph} trees, {rep.generation_failures} generation failures"
    )
    if rep.min_delta_success is not None:
        print(f"smallest min degree with every tree removable: {rep.min_delta_success}")
    if not rep.candidates:
        print("no counterexample candidates")
        return EXIT_OK
    print(f"{len(rep.candidates)} counterexample candidate(s):")
    for cand in rep.candidates:
        print(json.dumps(cand, sort_keys=True))
    return EXIT_VIOLATION


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TheoremViolation as exc:
        print(f"violation candidate: {exc}", file=sys.stderr)
        if exc.payload:
            print(
                json.dumps(exc.payload, sort_keys=True, default=str),
                file=sys.stderr,
            )
        return EXIT_VIOLATION
    except (KedgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
