"""Command-line interface.

Subcommands: generate, ingest, analyze, simulate, mixing, limits, experiment.
Exit codes: 0 success, 2 configuration error, 3 parse error, 4 analysis error.

Graph flags parse into their experiment config keys (`--agent-graph-seed` is
`agent.seed`; `--lam` on `experiment` is `lambda`). A system is
`netio.build_system` of two `netio.resolve_graph` graphs' equal-weight chains,
as in the sweep. `analyze` prints a graph's closed components, the one listing
of them outside `beliefs`. `--*-undirected-file` works everywhere but
`experiment`, which reads edge lists as directed. Input that fails validation
(lambda or x0 outside [0, 1], epsilon outside (0, 1), trials below 1) exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import mixing as mixing_mod
from . import netio
from .beliefs import converges, simulate
from .errors import (EmptyGraph, KronmixError, ParseError, SpecError)
from .generators import FAMILIES, TopologySpec
from .graphs import DirectedGraph, scc_decompose
from .limits import social_power, structural_limit, stubborn_limit
from .stochastic import equal_weight_matrix

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ANALYSIS = 4


def _add_graph_args(parser: argparse.ArgumentParser, prefix: str = "",
                    undirected_file: bool = True) -> None:
    # each dest is the config key, so parsed flags are a config mapping; absent
    # flags stay None so they never stomp config-file values
    p, key = (f"--{prefix}-", prefix) if prefix else ("--", "graph")
    parser.add_argument(f"{p}family", dest=f"{key}.family", choices=FAMILIES)
    parser.add_argument(f"{p}n", dest=f"{key}.n", type=int)
    parser.add_argument(f"{p}k", dest=f"{key}.k", type=int)
    parser.add_argument(f"{p}p", dest=f"{key}.p", type=float)
    parser.add_argument(f"{p}r", dest=f"{key}.r", type=float)
    parser.add_argument(f"{p}bridge", dest=f"{key}.bridge", type=int)
    parser.add_argument(f"{p}graph-seed", dest=f"{key}.seed", type=int)
    parser.add_argument(f"{p}directed", dest=f"{key}.directed", action="store_true",
                        default=None)
    parser.add_argument(f"{p}path", dest=f"{key}.path",
                        help="edge-list file instead of a generated family")
    if undirected_file:
        parser.add_argument(f"{p}undirected-file", dest=f"{key}.undirected_file",
                            action="store_true", help="symmetrize the edge list on load")


def _source(args, key: str):
    """The TopologySpec the `key.` flags give, or the edge list they name, loaded."""
    keys = vars(args)
    source = netio.source_from_mapping(keys, key)
    if isinstance(source, str):
        return netio.load_edgelist(source, directed=not keys[f"{key}.undirected_file"])
    return source


def _build_system(args, agent=None):
    """The belief system the flags give; `agent` is the agent source if already read."""
    agent = _source(args, "agent") if agent is None else agent
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.x0_seed)))
    return netio.build_system(
        equal_weight_matrix(netio.resolve_graph(agent, args.alpha)),
        equal_weight_matrix(netio.resolve_graph(_source(args, "constraint"), args.alpha)),
        args.lam, rng, args.x0_constant)


def _add_system_args(parser):
    _add_graph_args(parser, "agent")
    _add_graph_args(parser, "constraint")
    parser.add_argument("--lam", default="oblivious",
                        help="'oblivious', a scalar in [0,1], or @file with one value per agent")
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="lazy self-weight applied to both graphs")
    parser.add_argument("--x0-seed", type=int, default=7)
    parser.add_argument("--x0-constant", type=float)


def _cmd_generate(args) -> int:
    keys = vars(args)
    graph = netio.resolve_graph(_source(args, "graph"))
    if args.out:
        # the spec fields the flags set, then the seed the graph was drawn with
        header = [f"{f.name}={keys[f'graph.{f.name}']}" for f in fields(TopologySpec)
                  if f.name != "seed" and keys[f"graph.{f.name}"] is not None]
        header.append(f"seed={graph.meta.get('seed')}")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# kronmix generate {' '.join(header)}\n")
            for s, t in zip(graph.sources.tolist(), graph.targets.tolist()):
                fh.write(f"{s} {t}\n")
    print(f"nodes={graph.node_count} edges={graph.edge_count}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def _cmd_ingest(args) -> int:
    if args.instructions:
        path = netio.dataset_instructions(args.instructions)
        print(f"wrote {path}")
        return EXIT_OK
    if not args.path:
        raise SpecError("ingest needs a dataset path (or --instructions DIR)")
    if args.sha256 and not netio.verify_checksum(args.path, args.sha256):
        raise ParseError(0, f"checksum mismatch for {args.path}")
    graph = netio.load_edgelist(args.path, directed=not args.undirected_file)
    sub = netio.largest_scc(graph)
    # both counts are reported: preprocessing conventions change them
    print(f"raw: nodes={graph.node_count} edges={graph.edge_count}")
    print(f"largest-scc: nodes={sub.node_count} edges={sub.edge_count}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    source = _source(args, "agent")
    # the component report covers the raw graph; datasets are not pre-reduced
    if isinstance(source, DirectedGraph):
        graph = source
    else:
        graph = netio.resolve_graph(source, args.alpha)
    decomp = scc_decompose(graph)
    closed = decomp.closed_components()
    print(f"nodes={graph.node_count} edges={graph.edge_count} "
          f"components={decomp.count} closed={len(closed)}")
    for cid in range(decomp.count):
        flag = "closed" if decomp.closed[cid] else "open"
        trivial = " (trivial)" if decomp.trivial_period[cid] else ""
        print(f"  component {cid}: size={decomp.components[cid].size} {flag} "
              f"period={decomp.periods[cid]}{trivial}")
    if vars(args)["constraint.family"] or vars(args)["constraint.path"]:
        system = _build_system(args, source)
        verdict = converges(system)
        print(f"converges: {verdict.converges}")
        for tag, nodes, period in verdict.witnesses:
            print(f"  witness: {tag} component {sorted(nodes)} period {period}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    system = _build_system(args)
    result = simulate(system, stop_delta=args.stop_delta, max_iter=args.max_iter,
                      check_convergence=not args.force)
    beliefs = result.beliefs(system)
    print(f"iterations={result.iterations} converged={result.converged} "
          f"final_delta={result.final_delta:.3g}")
    spread = float(np.ptp(beliefs)) if beliefs.size else 0.0
    print(f"belief range: [{beliefs.min():.6g}, {beliefs.max():.6g}] spread={spread:.3g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("agent,topic,belief\n")
            for i in range(system.n):
                for u in range(system.m):
                    fh.write(f"{i},{u},{format(float(beliefs[i, u]), '.10g')}\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_mixing(args) -> int:
    matrix = equal_weight_matrix(netio.resolve_graph(_source(args, "graph"), args.alpha))
    report = mixing_mod.analyze_mixing(matrix, epsilon=args.epsilon)
    print(f"t_mix({args.epsilon}) = {report.t_mix}")
    print(f"|lambda_2| = {report.lambda2_abs:.6g}")
    print(f"spectral bounds: [{report.lower_bound:.6g}, {report.upper_bound:.6g}]")
    coupling = report.coupling
    print(f"coupling L = {coupling.mean:.6g} (exact, error <= {coupling.stderr:.3g}, "
          f"{coupling.method}, {coupling.iterations} iterations)")
    print(f"coupling bound 4(L+H)ln(1/eps) = {report.theorem_bound:.6g}")
    return EXIT_OK


def _cmd_limits(args) -> int:
    system = _build_system(args)
    report = structural_limit(system)
    print(f"structural limit: consensus={report.consensus}")
    print(f"belief limits (first rows): {np.round(report.beliefs[:3], 6)}")
    try:
        fixed = stubborn_limit(system)
        gap = float(np.abs(fixed - report.beliefs).max())
        print(f"fixed-point limit agrees to {gap:.3g}")
    except KronmixError as exc:
        print(f"fixed-point iteration: {type(exc).__name__}: {exc}")
    if args.social_power:
        power = social_power(system.a)
        top = min(5, power.weights.size)
        print("social power (top nodes):",
              [(int(power.order[i]), round(float(power.weights[i]), 6)) for i in range(top)])
    return EXIT_OK


def _cmd_experiment(args) -> int:
    mapping = netio.read_config(args.config) if args.config else {}
    mapping.update((key, value) for key, value in vars(args).items() if value is not None)
    config = netio.config_from_mapping(mapping)
    rows = netio.run_experiment(config)
    failed = sum(1 for r in rows if r["error"])
    print(f"{len(rows)} sweep points -> {config.outdir}/experiment.csv "
          f"({failed} with errors)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronmix",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a topology and optionally write its edge list")
    _add_graph_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="load a SNAP edge list, report raw and largest-SCC counts")
    p.add_argument("path", nargs="?")
    p.add_argument("--undirected-file", action="store_true")
    p.add_argument("--sha256")
    p.add_argument("--instructions", metavar="DIR",
                   help="write dataset download instructions and exit")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("analyze", help="SCC structure, periods, and convergence verdict")
    _add_system_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run the belief dynamics")
    _add_system_args(p)
    p.add_argument("--stop-delta", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--force", action="store_true",
                   help="simulate even when the verdict is non-convergent")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mixing", help="mixing time, spectral bounds, exact coupling time")
    _add_graph_args(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("limits", help="structural and fixed-point limits, social power")
    _add_system_args(p)
    p.add_argument("--social-power", action="store_true")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("experiment", help="run a sweep from a config file and/or flags")
    p.add_argument("--config")
    # the sweep reads edge lists as directed, as its config file does
    _add_graph_args(p, "agent", undirected_file=False)
    _add_graph_args(p, "constraint", undirected_file=False)
    p.add_argument("--sweep", choices=("n", "m"))
    p.add_argument("--sweep-start", dest="sweep.start", type=int)
    p.add_argument("--sweep-stop", dest="sweep.stop", type=int)
    p.add_argument("--sweep-stride", dest="sweep.stride", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int,
                   help="accepted for older configs; coupling times are exact")
    p.add_argument("--lam", dest="lambda")
    p.add_argument("--alpha", type=float)
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SpecError, ValueError) as exc:  # ValueError: input rejected by validation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, EmptyGraph) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except KronmixError as exc:
        print(f"analysis error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
