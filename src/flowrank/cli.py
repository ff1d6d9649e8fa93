"""Command-line front end.

Subcommands: spectral, centrality, simulate, threshold, influence,
correlate. All numeric output uses 12-significant-digit formatting and
fixed field orders, so identical inputs and seed produce byte-identical
files. Exit codes: 0 success, 2 usage error, 3 input format error
(including an --output path that cannot be written), 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .centrality import (alpha_centrality, degree_centrality, eigenvector_centrality,
                         normalized_alpha_centrality, pagerank, rank)
from .dynamics import (CONSERVATIVE, NONCONSERVATIVE, ProcessConfig, SisConfig,
                       conservative_step, nonconservative_step, sis_step,
                       threshold_sweep)
from .empirics import (correlation_sweep, global_influence, local_influence,
                       read_event_log, significance_screen, spam_filter)
from .errors import InputFormatError, NumericalError
from .graph import DanglingPolicy, indegree_vector, load_edge_list
from .spectral import is_acyclic, power_iteration

_CLI_MEASURES = ("pagerank", "alpha", "nalpha", "eigenvector", "indegree")


def _f12(x) -> str:
    return f"{float(x):.12g}"


def _jnum(x) -> float:
    return float(_f12(x))


def _parse_grid(spec: str, name: str, parser: argparse.ArgumentParser) -> list[float]:
    # "lo:hi:step" (inclusive) or a comma-separated list of values
    try:
        if ":" in spec:
            lo_s, hi_s, step_s = spec.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0 or lo > hi:
                raise ValueError
            count = int(np.floor((hi - lo) / step + 1e-9)) + 1
            return [lo + i * step for i in range(count)]
        values = [float(v) for v in spec.split(",") if v.strip()]
        if not values:
            raise ValueError
        return values
    except ValueError:
        parser.error(f"{name} must be lo:hi:step with step > 0 and lo <= hi, "
                     "or a comma-separated list")


def _render_csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _starting_vector_arg(g, spec: str, parser: argparse.ArgumentParser) -> np.ndarray:
    if spec == "uniform":
        return np.full(g.node_count, 1.0 / g.node_count)
    if spec == "indegree":
        return indegree_vector(g)
    if spec.startswith("point:"):
        try:
            node = int(spec.split(":", 1)[1])
        except ValueError:
            parser.error("--x0 point form is point:<node id>")
        if not 0 <= node < g.node_count:
            parser.error(f"--x0 node {node} out of range")
        x = np.zeros(g.node_count)
        x[node] = 1.0
        return x
    parser.error("--x0 must be uniform, indegree, or point:<id>")


def _cmd_spectral(args, g, parser) -> str:
    est = power_iteration(g, tol=args.tol, max_iter=args.max_iter)
    payload = {"lambda1": _jnum(est.lambda1), "iterations": est.iterations,
               "residual": _jnum(est.residual)}
    if is_acyclic(g):
        payload["threshold_error"] = "no finite threshold (nilpotent adjacency)"
    else:
        payload["threshold"] = _jnum(1.0 / est.lambda1)
    return _render_json(payload)


def _centrality_scores(g, measure: str, alpha: float | None):
    if measure == "pagerank":
        return pagerank(g, alpha=alpha)
    if measure == "alpha":
        return alpha_centrality(g, alpha=alpha)
    if measure == "nalpha":
        return normalized_alpha_centrality(g, alpha=alpha)
    if measure == "eigenvector":
        return eigenvector_centrality(g)
    return degree_centrality(g, "in")


def _cmd_centrality(args, g, parser) -> str:
    needs_alpha = args.measure in ("pagerank", "alpha", "nalpha")
    if args.alpha_sweep and not needs_alpha:
        parser.error(f"--alpha-sweep does not apply to measure {args.measure}")
    if not needs_alpha:
        alphas = [None]
    elif args.alpha_sweep:
        alphas = _parse_grid(args.alpha_sweep, "--alpha-sweep", parser)
    elif args.alpha is not None:
        alphas = [args.alpha]
    elif args.measure == "pagerank":
        alphas = [0.85]
    else:
        parser.error(f"--alpha is required for {args.measure}")
    blocks = []
    for alpha in alphas:
        scores = _centrality_scores(g, args.measure, alpha)
        ranking = rank(scores)
        blocks.append((alpha, scores, ranking))
    if args.format == "json":
        payload = []
        for alpha, scores, ranking in blocks:
            for node in range(g.node_count):
                entry = {"node": node, "score": _jnum(scores.values[node]),
                         "rank": int(ranking.ranks[node])}
                if args.alpha_sweep:
                    entry["alpha"] = _jnum(alpha)
                payload.append(entry)
        return _render_json(payload)
    rows = []
    for alpha, scores, ranking in blocks:
        for node in range(g.node_count):
            row = (str(node), _f12(scores.values[node]), str(int(ranking.ranks[node])))
            if args.alpha_sweep:
                row = (_f12(alpha),) + row
            rows.append(row)
    header = ("node", "score", "rank")
    if args.alpha_sweep:
        header = ("alpha",) + header
    return _render_csv(header, rows)


def _cmd_simulate(args, g, parser) -> str:
    if args.steps < 0:
        parser.error("--steps must be >= 0")
    x0 = _starting_vector_arg(g, args.x0, parser)
    policy = DanglingPolicy(args.dangling)
    if args.process == "sis":
        if args.mu is None or args.beta is None:
            parser.error("sis requires --mu and --beta")
        cfg = SisConfig(mu=args.mu, beta=args.beta)
        step = lambda x: sis_step(g, x, cfg)
    elif args.process == "conservative":
        if args.alpha is None:
            parser.error("conservative requires --alpha")
        cfg = ProcessConfig(kind=CONSERVATIVE, alpha=args.alpha, delta=args.delta,
                            dangling_policy=policy)
        step = lambda x: conservative_step(g, x, x0, cfg)
    else:
        if args.alpha is None:
            parser.error("nonconservative requires --alpha")
        cfg = ProcessConfig(kind=NONCONSERVATIVE, alpha=args.alpha, delta=args.delta)
        step = lambda x: nonconservative_step(g, x, cfg)
    trajectory = [x0]
    x = x0
    for _ in range(args.steps):
        x = step(x)
        trajectory.append(x)
    if args.track == "norms":
        if args.format == "json":
            return _render_json([{"step": t, "l1_norm": _jnum(np.abs(x).sum())}
                                 for t, x in enumerate(trajectory)])
        rows = [(str(t), _f12(np.abs(x).sum())) for t, x in enumerate(trajectory)]
        return _render_csv(("step", "l1_norm"), rows)
    if args.format == "json":
        return _render_json([{"step": t, "node": v, "value": _jnum(x[v])}
                             for t, x in enumerate(trajectory)
                             for v in range(g.node_count)])
    rows = [(str(t), str(v), _f12(x[v]))
            for t, x in enumerate(trajectory) for v in range(g.node_count)]
    return _render_csv(("step", "node", "value"), rows)


def _cmd_threshold(args, g, parser) -> str:
    grid = _parse_grid(args.grid, "--grid", parser)
    if any(p < 0.0 or p > 1.0 for p in grid):
        parser.error("--grid values must lie in [0, 1]")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    stats = threshold_sweep(g, grid, args.trials, args.seed)
    if args.format == "json":
        return _render_json([{"transmissibility": _jnum(s.transmissibility),
                              "mean_fraction": _jnum(s.mean_outbreak_fraction),
                              "stderr": _jnum(s.stderr)} for s in stats])
    rows = [(_f12(s.transmissibility), _f12(s.mean_outbreak_fraction), _f12(s.stderr))
            for s in stats]
    return _render_csv(("transmissibility", "mean_fraction", "stderr"), rows)


def _cmd_influence(args, g, parser) -> str:
    log = read_event_log(args.events, args.mode)
    if args.entropy_filter is not None:
        log = log.restrict(spam_filter(log, args.entropy_filter))
    if args.kind == "local":
        estimates = local_influence(log, g, window=args.window, min_items=args.min_items,
                                    min_rebroadcasts=args.min_rebroadcasts)
        if args.screen:
            n_active = args.active_users if args.active_users is not None else int(log.user_ids().size)
            estimates = significance_screen(estimates, g, N=n_active, n=args.window,
                                            p_cut=args.p_cut)
    else:
        estimates = global_influence(log, g, min_items=args.min_items,
                                     min_rebroadcasts=args.min_rebroadcasts)
    if args.format == "json":
        payload = []
        for user in sorted(estimates):
            est = estimates[user]
            entry = {"user_id": user, "n_items": est.n_items,
                     "influence": _jnum(est.local if args.kind == "local" else est.global_)}
            if est.significance_p is not None:
                entry["significance_p"] = _jnum(est.significance_p)
            payload.append(entry)
        return _render_json(payload)
    rows = []
    for user in sorted(estimates):
        est = estimates[user]
        value = est.local if args.kind == "local" else est.global_
        p = _f12(est.significance_p) if est.significance_p is not None else ""
        rows.append((str(user), str(est.n_items), _f12(value), p))
    return _render_csv(("user_id", "n_items", "influence", "significance_p"), rows)


def _cmd_correlate(args, g, parser) -> str:
    if (args.alpha_sweep is None) == (args.alpha is None):
        parser.error("provide exactly one of --alpha or --alpha-sweep")
    grid = (_parse_grid(args.alpha_sweep, "--alpha-sweep", parser)
            if args.alpha_sweep else [args.alpha])
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    if not measures:
        parser.error("--measures must name at least one measure")
    for m in measures:
        if m not in _CLI_MEASURES:
            parser.error(f"unknown measure {m!r}; choose from {','.join(_CLI_MEASURES)}")
    log = read_event_log(args.events, args.mode)
    report = correlation_sweep(
        g, log, measures, grid, args.influence, window=args.window,
        min_items=args.min_items, min_rebroadcasts=args.min_rebroadcasts,
        p_cut=args.p_cut, entropy_threshold=args.entropy_threshold,
        active_users=args.active_users,
        apply_spam_filter=not args.no_spam_filter,
        apply_significance=not args.no_significance)
    if args.format == "json":
        return _render_json({
            "alpha_grid": [_jnum(a) for a in report.alpha_grid],
            "influence_kind": report.influence_kind,
            "cohort_users": list(report.cohort_users),
            "entries": [{"alpha": _jnum(e.alpha), "measure": e.measure,
                         "influence_kind": e.influence_kind,
                         "pearson_r": _jnum(e.pearson_r),
                         "cohort_size": e.cohort_size} for e in report.entries]})
    rows = [(_f12(e.alpha), e.measure, e.influence_kind, _f12(e.pearson_r),
             str(e.cohort_size)) for e in report.entries]
    return _render_csv(("alpha", "measure", "influence_kind", "pearson_r", "cohort_size"), rows)


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(str(exc)) from exc


def _add_common(sp) -> None:
    sp.add_argument("--graph", required=True, help="edge-list TSV (src<TAB>dst, '#' comments)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default=None, help="write here instead of stdout")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed for simulation commands")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrank",
        description="Network flow dynamics, centrality, and empirical influence estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="dominant eigenvalue and epidemic threshold (JSON)")
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=5000)

    sp = sub.add_parser("centrality", help="node centrality scores and ranks")
    _add_common(sp)
    sp.add_argument("--measure", required=True, choices=_CLI_MEASURES)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--alpha-sweep", default=None, metavar="LO:HI:STEP")

    sp = sub.add_parser("simulate", help="process trajectories (per-step norms or vectors)")
    _add_common(sp)
    sp.add_argument("--process", required=True,
                    choices=("conservative", "nonconservative", "sis"))
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--x0", default="uniform", help="uniform | indegree | point:<id>")
    sp.add_argument("--dangling", choices=tuple(p.value for p in DanglingPolicy),
                    default=DanglingPolicy.SELF_RETAIN.value)
    sp.add_argument("--track", choices=("norms", "vectors"), default="norms")

    sp = sub.add_parser("threshold", help="independent-cascade outbreak sweep")
    _add_common(sp)
    sp.add_argument("--grid", required=True, metavar="LO:HI:STEP",
                    help="transmissibility grid (or comma-separated values)")
    sp.add_argument("--trials", type=int, default=1000)

    sp = sub.add_parser("influence", help="per-submitter empirical influence from an event log")
    _add_common(sp)
    sp.add_argument("--events", required=True, help="event-log CSV")
    sp.add_argument("--mode", choices=("digg", "twitter"), default="digg")
    sp.add_argument("--kind", choices=("local", "global"), default="local")
    sp.add_argument("--window", type=int, default=100)
    sp.add_argument("--min-items", type=int, default=2)
    sp.add_argument("--min-rebroadcasts", type=int, default=0)
    sp.add_argument("--entropy-filter", type=float, default=None, metavar="BITS",
                    help="drop items unless both activity entropies exceed BITS")
    sp.add_argument("--screen", action="store_true",
                    help="apply the hypergeometric significance screen (local only)")
    sp.add_argument("--active-users", type=int, default=None)
    sp.add_argument("--p-cut", type=float, default=0.05)

    sp = sub.add_parser("correlate", help="centrality vs influence Pearson correlations")
    _add_common(sp)
    sp.add_argument("--events", required=True)
    sp.add_argument("--mode", choices=("digg", "twitter"), default="digg")
    sp.add_argument("--measures", required=True, help="comma-separated measure names")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--alpha-sweep", default=None, metavar="LO:HI:STEP")
    sp.add_argument("--influence", choices=("local", "global"), default="local")
    sp.add_argument("--window", type=int, default=100)
    sp.add_argument("--min-items", type=int, default=2)
    sp.add_argument("--min-rebroadcasts", type=int, default=100)
    sp.add_argument("--p-cut", type=float, default=0.05)
    sp.add_argument("--entropy-threshold", type=float, default=3.0)
    sp.add_argument("--active-users", type=int, default=None)
    sp.add_argument("--no-spam-filter", action="store_true")
    sp.add_argument("--no-significance", action="store_true")
    return parser


_HANDLERS = {
    "spectral": _cmd_spectral,
    "centrality": _cmd_centrality,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
    "influence": _cmd_influence,
    "correlate": _cmd_correlate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        g, _labels = load_edge_list(args.graph)
        text = _HANDLERS[args.command](args, g, parser)
        if args.output:
            _write_output(args.output, text)
    except InputFormatError as exc:
        print(f"flowrank: input error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"flowrank: numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # data-dependent domain violations surface as input problems
        print(f"flowrank: input error: {exc}", file=sys.stderr)
        return 3
    if not args.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
