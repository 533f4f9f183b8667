"""Command-line interface.

Subcommands: generate (pa|cm), ingest, detect, analyze
(stationary|return-time|hitting), estimate evt, experiment
(hitting|accuracy|stopping). Exit codes: 0 success, 1 usage error,
2 runtime error (timeouts, unreachable targets, bad inputs at run time).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__, analytics, detector, experiments, generators
from .graph import Graph, exact_top_k, load_edge_list
from .walk import EveryStep, Thinned, WalkConfig, check_alpha, check_sampling


class UsageError(Exception):
    """Flag combination errors detected after parsing; exits with 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect "
                        "(trials run serially)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _walk_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="jump rate (default: average degree of the graph)")
    p.add_argument("--mode", choices=["everystep", "thinned"], default="thinned",
                   help="sampling mode for detection")
    p.add_argument("--q", type=float, default=Thinned.q, help="thinning probability")
    p.add_argument("--transient", type=int, default=Thinned.transient,
                   help="raw steps discarded before thinning starts")
    p.add_argument("--max-steps", type=int, default=WalkConfig.max_steps,
                   help="cap on raw walk steps")


def _is_cache(path: str) -> bool:
    return str(path).endswith(".npz")


def _load_graph(path: str) -> Graph:
    return Graph.load_npz(path) if _is_cache(path) else load_edge_list(path)


def _resolve_alpha(args, g: Graph) -> float:
    return g.average_degree() if args.alpha is None else args.alpha


def _walk_config(args) -> WalkConfig:
    """The walk flags; an unset --alpha stands at 0 until the graph is read
    and `_resolve_alpha` gives it the graph's average degree. The hitting
    walk takes no samples, so it ignores --mode, --q and --transient."""
    samples = getattr(args, "what", None) != "hitting"
    mode = (Thinned(transient=args.transient, q=args.q)
            if samples and args.mode == "thinned" else EveryStep())
    return WalkConfig(alpha=0.0 if args.alpha is None else args.alpha, seed=args.seed,
                      max_steps=args.max_steps, mode=mode)


def _emit(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- generate ----------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.model == "pa":
        g = generators.generate_pa(generators.PAConfig(
            n=args.n, edges_per_node=args.edges_per_node,
            attractiveness=args.attract, seed=args.seed))
    else:
        tail = generators.ParetoTail(gamma=args.gamma, c=args.c, x_prime=args.xprime)
        g = generators.generate_config_model(
            generators.ConfigModelConfig(n=args.n, tail=tail, seed=args.seed))
    _emit(args, g.to_edge_lines())
    print(f"n={g.n} m_edges={g.m_edges} d_max={g.d_max}",
          file=sys.stderr)
    return 0


# -- ingest -------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    if args.cache and not _is_cache(args.cache):
        raise UsageError(f"--cache must name a .npz file, got {args.cache!r}")
    g = _load_graph(args.graph)
    if args.cache:
        g.save_npz(args.cache)
    if args.out:
        _emit(args, g.to_edge_lines())
    print(f"n={g.n} m_edges={g.m_edges} d_max={g.d_max} "
          f"avg_degree={g.average_degree():.6g}")
    return 0


# -- detect -------------------------------------------------------------------

def _rule_threshold(args, m):
    """The value of the threshold flag for `args.rule`; UsageError if
    missing or extra, and the error of `detector.check_rule_threshold` if
    `args.k` or the threshold is bad."""
    rule, a_bar, b_bar = args.rule, args.a_bar, args.b_bar
    given = {"--m": m, "--a-bar": a_bar, "--b-bar": b_bar}
    needed = {"fixed": "--m", "r0": "--a-bar", "r1": "--a-bar", "r2": "--b-bar"}[rule]
    for flag, value in given.items():
        if flag == needed and value is None:
            raise UsageError(f"rule {rule} requires {flag}")
        if flag != needed and value is not None:
            raise UsageError(f"rule {rule} does not take {flag}")
    detector.check_rule_threshold(rule, given[needed], args.k)
    return given[needed]


def _cmd_detect(args) -> int:
    threshold = _rule_threshold(args, args.m)
    cfg = _walk_config(args)
    check_sampling(cfg.mode, cfg.max_steps)
    g = _load_graph(args.graph)
    cfg = replace(cfg, alpha=_resolve_alpha(args, g))
    dec = detector.detect_with_rule(g, cfg, args.k, args.rule, threshold)

    lines = ["original_id,degree,hits"]
    for node, deg, hits in dec.final_list.entries():
        lines.append(f"{g.original_ids[node]},{deg},{hits}")
    _emit(args, lines)
    print(f"samples={dec.fired_at_samples} raw_steps={dec.raw_steps} "
          f"rule={dec.rule} threshold={dec.threshold:.6g} fired={dec.fired}")
    if not dec.fired:
        print("timeout: stopping rule did not fire within --max-steps",
              file=sys.stderr)
        return 2
    return 0


# -- analyze -------------------------------------------------------------------

def _parse_nu(text: str):
    if text == "uniform":
        return None
    if text.startswith("node:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"--nu node:<id> needs an integer id: {exc}") from None
    raise UsageError(f"--nu must be 'uniform' or 'node:<id>', got {text!r}")


def _cmd_analyze(args) -> int:
    nu = _parse_nu(args.nu) if args.what == "hitting" else None
    if args.alpha is not None:
        check_alpha(args.alpha)
    g = _load_graph(args.graph)
    alpha = _resolve_alpha(args, g)
    if args.what == "stationary":
        dist = analytics.stationary(g, alpha)
        lines = ["node,original_id,degree,pi"]
        for i in range(g.n):
            lines.append(f"{i},{g.original_ids[i]},{g.degrees[i]},{float(dist.probs[i])!r}")
        _emit(args, lines)
        return 0
    if args.what == "return-time":
        _emit(args, [f"return_time={analytics.expected_return_time_max(g, alpha)!r}"])
        return 0
    target = args.target if args.target is not None else exact_top_k(g, 1)[0].node
    value = analytics.hitting_time_exact(g, alpha, target, nu=nu)
    _emit(args, [f"hitting_time={value!r} target={target}"])
    return 0


# -- estimate -------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    x_prime = args.xprime
    if x_prime is None:  # ParetoTail rejects gamma <= 1 before it reads x_prime
        x_prime = args.c ** (1.0 / args.gamma) if args.gamma > 1.0 else 1.0
    tail = generators.ParetoTail(gamma=args.gamma, c=args.c, x_prime=x_prime)
    pred = analytics.evt_predict(tail, args.n, args.k, max_variant=args.variant)
    lines = ["rank,predicted_degree"]
    for j in range(1, args.k + 1):
        lines.append(f"{j},{pred.degree_at_rank(j)!r}")
    _emit(args, lines)
    print(f"delta={pred.delta!r} a_n={pred.a_n!r} b_n={pred.b_n!r}")
    return 0


# -- experiment -------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    if args.what == "hitting":
        plan = experiments.HittingTimePlan(walk=_walk_config(args), runs=args.runs,
                                           master_seed=args.seed)
        run = experiments.run_hitting_time
        header = ["trial", "steps"]
    elif args.what == "accuracy":
        if args.m_grid is None:
            raise UsageError("experiment accuracy requires --m-grid")
        try:
            grid = tuple(int(x) for x in args.m_grid.split(","))
        except ValueError as exc:
            raise UsageError(f"--m-grid must be comma-separated integers: {exc}") from None
        plan = experiments.AccuracyCurvePlan(walk=_walk_config(args), k=args.k, m_grid=grid,
                                             runs=args.runs, master_seed=args.seed)
        run = experiments.run_accuracy_curve
        header = ["m", "mean_correct", "ci95", "exact", "poisson"]
    else:
        if args.rule is None:
            raise UsageError("experiment stopping requires --rule")
        threshold = _rule_threshold(args, None)
        plan = experiments.StoppingEvalPlan(walk=_walk_config(args), k=args.k,
                                            rule=args.rule, threshold=threshold,
                                            runs=args.runs, master_seed=args.seed)
        run = experiments.run_stopping_eval
        header = ["trial", "raw_steps", "samples", "correct_count",
                  "full_list_correct", "fired"]
    g = _load_graph(args.graph)
    cfg = replace(plan.walk, alpha=_resolve_alpha(args, g))
    rows, summary = run(g, replace(plan, walk=cfg))
    if args.out:
        experiments.write_csv(args.out, header, rows, summary=summary)
    else:
        _emit(args, [",".join(header)] + [",".join(str(c) for c in r) for r in rows])
    for key, val in summary.items():
        print(f"{key}={val}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="degreewalk",
                     description="Quick detection of the largest-degree nodes "
                                 "with a jumping random walk.")
    parser.add_argument("--version", action="version",
                        version=f"degreewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph edge list")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    pa = gen_sub.add_parser("pa", help="preferential attachment")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--edges-per-node", type=int, default=generators.PAConfig.edges_per_node)
    pa.add_argument("--attract", type=float, default=generators.PAConfig.attractiveness,
                    help="attachment offset added to each degree")
    cm = gen_sub.add_parser("cm", help="erased configuration model")
    cm.add_argument("--n", type=int, required=True)
    cm.add_argument("--gamma", type=float, required=True)
    cm.add_argument("--c", type=float, required=True)
    cm.add_argument("--xprime", type=float, required=True)

    ing = sub.add_parser("ingest", help="parse and summarize an edge list")
    ing.add_argument("graph")
    ing.add_argument("--symmetrize", action="store_true",
                     help="accepted for compatibility; has no effect "
                          "(the stored graph is always undirected)")
    ing.add_argument("--cache", default=None, help="write a binary cache to this .npz path")

    det = sub.add_parser("detect", help="run the top-k candidate-list walk")
    det.add_argument("graph")
    det.add_argument("--k", type=int, required=True)
    det.add_argument("--rule", choices=["fixed", "r0", "r1", "r2"], required=True)
    det.add_argument("--m", type=int, default=None, help="sample budget (rule fixed)")
    det.add_argument("--a-bar", type=float, default=None,
                     help="error threshold (rules r0/r1)")
    det.add_argument("--b-bar", type=float, default=None,
                     help="coverage threshold (rule r2)")
    _walk_flags(det)

    ana = sub.add_parser("analyze", help="closed-form walk analytics")
    ana.add_argument("what", choices=["stationary", "return-time", "hitting"])
    ana.add_argument("graph")
    ana.add_argument("--alpha", type=float, default=None)
    ana.add_argument("--target", type=int, default=None,
                     help="hitting target (default: max-degree node)")
    ana.add_argument("--nu", default="uniform",
                     help="initial distribution: uniform or node:<id>")

    est = sub.add_parser("estimate", help="extreme-value degree predictions")
    est_sub = est.add_subparsers(dest="what", required=True)
    evt = est_sub.add_parser("evt", help="predict the k largest degrees")
    evt.add_argument("--gamma", type=float, required=True)
    evt.add_argument("--c", type=float, required=True)
    evt.add_argument("--xprime", type=float, default=None)
    evt.add_argument("--n", type=int, required=True)
    evt.add_argument("--k", type=int, default=10)
    evt.add_argument("--variant", choices=["median", "mode", "mean"],
                     default="median")

    exp = sub.add_parser("experiment", help="seeded experiment harness")
    exp.add_argument("what", choices=["hitting", "accuracy", "stopping"])
    exp.add_argument("graph")
    exp.add_argument("--runs", type=int, default=200)
    exp.add_argument("--k", type=int, default=10)
    exp.add_argument("--m-grid", default=None,
                     help="comma-separated sample budgets (accuracy)")
    exp.add_argument("--rule", choices=["r0", "r1", "r2"], default=None)
    exp.add_argument("--a-bar", type=float, default=None)
    exp.add_argument("--b-bar", type=float, default=None)
    _walk_flags(exp)

    for leaf, func in ((pa, _cmd_generate), (cm, _cmd_generate), (ing, _cmd_ingest),
                       (det, _cmd_detect), (ana, _cmd_analyze), (evt, _cmd_estimate),
                       (exp, _cmd_experiment)):
        _common_flags(leaf)  # last in each leaf's help, after its own flags
        leaf.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
