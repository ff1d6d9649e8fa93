"""Command-line front end.

Subcommands: spectral, centrality, simulate, threshold, influence,
correlate. Handlers return named columns (spectral and correlate a
dict); once they succeed, one renderer streams them to stdout or
--output as CSV or sorted-key JSON rows. Floats keep 12 significant
digits and fields a fixed order, so identical inputs and seed produce
byte-identical files. Exit codes: 0 success, 2 usage error (including a
non-finite grid value, a range of more than _MAX_GRID_POINTS points, more
threshold --trials than fit in memory, and any flag outside the range the
library accepts, which the library reports as a ParameterError naming the
flag's keyword), 3 input format error
(including an --output or stdout that cannot be written; a closed stdout
pipe exits quietly), 4 numerical failure (including a simulate step that
overflows); an alpha sweep exits at its first failing alpha.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from .centrality import rank, sweep
from .dynamics import (CONSERVATIVE, NONCONSERVATIVE, ProcessConfig, SisConfig,
                       conservative_step, nonconservative_step, sis_step,
                       threshold_sweep)
from .empirics import correlation_sweep, influence_cohort, read_event_log
from .errors import InputFormatError, NumericalError, ParameterError
from .graph import DanglingPolicy, indegree_vector, load_edge_list
from .spectral import is_acyclic, power_iteration

_CLI_MEASURES = ("pagerank", "alpha", "nalpha", "eigenvector", "indegree")
_CHUNK_ROWS = 65536
_MAX_GRID_POINTS = 100_000   # a lo:hi:step grid with more points is a usage error
_F12 = "{:.12g}".format


class _Table(dict):
    """Report columns in CSV order: header -> numpy array or list of float, int or str.

    None leaves the column's CSV cells empty and its key out of JSON rows.
    """


def _json_rows(table: _Table, lo: int, hi: int | None) -> list[dict]:
    columns = {key: _json_value(v[lo:hi]) for key, v in table.items() if v is not None}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _json_value(value):
    # a scalar, a column, or a dict of them (tables become lists of row objects)
    if isinstance(value, _Table):
        return _json_rows(value, 0, None)
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    column = np.asarray(value)
    cells = column.tolist()
    if column.dtype.kind != "f":
        return cells
    return float(_F12(cells)) if column.ndim == 0 else list(map(float, map(_F12, cells)))


def _csv_cells(column: np.ndarray, decimals: np.ndarray) -> list[str]:
    # decimals[i] == str(i): node ids and ranks take their strings from one table
    kind = column.dtype.kind
    if kind == "f":
        return list(map(_F12, column.tolist()))
    if kind in "iu" and column.size and 0 <= column.min() and column.max() < decimals.size:
        return decimals[column].tolist()
    return list(map(str, column.tolist()))


def _render(sink, report, fmt: str) -> None:
    """Write a table `_CHUNK_ROWS` rows at a time, or a dict as one JSON object.

    Under CSV, a dict's table (if it has one) is written in its place.
    """
    table = report if isinstance(report, _Table) else None
    if fmt == "csv" and table is None:
        table = next((v for v in report.values() if isinstance(v, _Table)), None)
    if table is None:
        sink.write(json.dumps(_json_value(report), sort_keys=True) + "\n")
        return
    columns = {key: np.asarray(v) for key, v in table.items() if v is not None}
    starts = range(0, len(next(iter(columns.values()))), _CHUNK_ROWS)
    if fmt == "json":
        sink.write("[")
        for lo in starts:
            body = json.dumps(_json_rows(table, lo, lo + _CHUNK_ROWS), sort_keys=True)[1:-1]
            sink.write(body if lo == 0 else ", " + body)
        sink.write("]\n")
        return
    top = max([int(c.max()) + 1 for c in columns.values() if c.dtype.kind in "iu" and c.size] + [0])
    decimals = np.array(list(map(str, range(min(top, starts.stop)))), dtype=object)
    sink.write(",".join(table) + "\n")
    for lo in starts:
        cells = [_csv_cells(columns[key][lo:lo + _CHUNK_ROWS], decimals) if key in columns
                 else itertools.repeat("") for key in table]
        sink.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_output(path: str, report, fmt: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _render(fh, report, fmt)
    except OSError as exc:
        raise InputFormatError(str(exc)) from exc


def _write_stdout(report, fmt: str) -> None:
    try:
        _render(sys.stdout, report, fmt)
        sys.stdout.flush()
    except OSError as exc:
        # rows still buffered would fail again when the interpreter exits: send them to devnull
        with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise InputFormatError(str(exc), path="<stdout>") from exc


def _parse_grid(spec: str, name: str, parser: argparse.ArgumentParser) -> list[float]:
    # "lo:hi:step" (inclusive) or a comma-separated list of values, all finite
    try:
        if ":" in spec:
            lo, hi, step = (float(v) for v in spec.split(":"))
            if not (step > 0 and lo <= hi
                    and all(map(math.isfinite, (lo, hi, step, (hi - lo) / step)))):
                raise ValueError
            count = int(np.floor((hi - lo) / step + 1e-9)) + 1
            if count > _MAX_GRID_POINTS:
                parser.error(f"{name} has {count} points; at most {_MAX_GRID_POINTS} are allowed")
            return [lo + i * step for i in range(count)]
        values = [float(v) for v in spec.split(",") if v.strip()]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except ValueError:
        parser.error(f"{name} must be lo:hi:step with step > 0 and lo <= hi, "
                     "or a comma-separated list, of finite numbers")


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


def _cmd_spectral(args, g, parser) -> dict:
    est = power_iteration(g, tol=args.tol, max_iter=args.max_iter)
    report = {"lambda1": est.lambda1, "iterations": est.iterations, "residual": est.residual}
    if is_acyclic(g):
        report["threshold_error"] = "no finite threshold (nilpotent adjacency)"
    else:
        report["threshold"] = 1.0 / est.lambda1
    return report


def _cmd_centrality(args, g, parser) -> _Table:
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
    n = g.node_count
    scores, ranks = np.empty((len(alphas), n)), np.empty((len(alphas), n), dtype=np.int64)
    for i, (_, _, cell) in enumerate(sweep(g, [args.measure], alphas)):
        if isinstance(cell, NumericalError):
            raise cell
        scores[i], ranks[i] = cell.values, rank(cell).ranks
    table = _Table(alpha=np.repeat(alphas, n)) if args.alpha_sweep else _Table()
    table.update(node=np.tile(np.arange(n), len(alphas)), score=scores.ravel(),
                 rank=ranks.ravel())
    return table


def _cmd_simulate(args, g, parser) -> _Table:
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
    trajectory, norms = [x0], [np.abs(x0).sum()]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, args.steps + 1):
            trajectory.append(step(trajectory[-1]))
            norms.append(np.abs(trajectory[-1]).sum())
            if not np.isfinite(norms[-1]):
                raise NumericalError(f"{args.process} step {t} produced non-finite values")
    steps = np.arange(len(trajectory))
    if args.track == "norms":
        return _Table(step=steps, l1_norm=norms)
    n = g.node_count
    return _Table(step=np.repeat(steps, n), node=np.tile(np.arange(n), len(trajectory)),
                  value=np.concatenate(trajectory))


def _cmd_threshold(args, g, parser) -> _Table:
    grid = _parse_grid(args.grid, "--grid", parser)
    try:
        stats = threshold_sweep(g, grid, args.trials, args.seed)
    except MemoryError:
        # the sweep's one allocation that grows with --trials is its
        # outcome table, made before any cascade runs
        parser.error(f"--trials {args.trials} needs a {len(grid)} x {args.trials} outcome table, "
                     "which does not fit in memory")
    return _Table(transmissibility=[s.transmissibility for s in stats],
                  mean_fraction=[s.mean_outbreak_fraction for s in stats],
                  stderr=[s.stderr for s in stats])


def _cohort(args, g, kind: str, entropy_threshold: float | None, p_cut: float | None) -> dict:
    # the funnel options that influence and correlate share
    return influence_cohort(
        read_event_log(args.events, args.mode), g, kind, window=args.window,
        min_items=args.min_items, min_rebroadcasts=args.min_rebroadcasts,
        entropy_threshold=entropy_threshold, p_cut=p_cut, active_users=args.active_users)


def _cmd_influence(args, g, parser) -> _Table:
    if args.screen and args.kind != "local":
        parser.error("--screen applies to --kind local only")
    estimates = _cohort(args, g, args.kind, args.entropy_filter,
                        args.p_cut if args.screen else None)
    ests = list(estimates.values())
    return _Table(user_id=list(estimates), n_items=[e.n_items for e in ests],
                  influence=[e.local if args.kind == "local" else e.global_ for e in ests],
                  significance_p=[e.significance_p for e in ests] if args.screen else None)


def _cmd_correlate(args, g, parser) -> dict:
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
    cohort = _cohort(args, g, args.influence,
                     None if args.no_spam_filter else args.entropy_threshold,
                     None if args.no_significance else args.p_cut)
    report = correlation_sweep(g, cohort, measures, grid)
    fields = ("alpha", "measure", "influence_kind", "pearson_r", "cohort_size")
    return {"alpha_grid": report.alpha_grid, "influence_kind": report.influence_kind,
            "cohort_users": report.cohort_users,
            "entries": _Table((f, [getattr(e, f) for e in report.entries]) for f in fields)}


def _add_common(sp) -> None:
    sp.add_argument("--graph", required=True, help="edge-list TSV (src<TAB>dst, '#' comments)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default=None, help="write here instead of stdout")


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
    sp.add_argument("--seed", type=int, default=0, help="RNG seed of the cascade trials")

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
        report = _HANDLERS[args.command](args, g, parser)
        if args.output:
            _write_output(args.output, report, args.format)
        else:
            _write_stdout(report, args.format)
    except BrokenPipeError:
        return 3    # stdout's reader has gone, as under `| head`: stop without a word
    except ParameterError as exc:
        parser.error(f"--{exc.name.replace('_', '-')} {exc.detail}")
    except (InputFormatError, ValueError) as exc:
        # data-dependent domain violations (ValueError) surface as input problems
        print(f"flowrank: input error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"flowrank: numerical error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
