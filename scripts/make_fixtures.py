#!/usr/bin/env python3
"""Generate the committed test fixtures under tests/data/.

Everything written here is a pure function of the constants below, so
rerunning the script reproduces the files byte for byte. The script
also verifies, with generous margins, the statistical properties the
acceptance suite asserts on these fixtures, and refuses to write files
that would make the suite flaky.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
sys.path.insert(0, str(REPO / "src"))

from flowrank import (  # noqa: E402
    build_graph,
    correlation_sweep,
    influence_cohort,
    power_iteration,
    synthesize_event_log,
    threshold_sweep,
    write_edge_list,
    write_event_log,
)

# ----------------------------------------------------------- fixture constants

THRESHOLD_GRAPH = {"nodes": 200, "extra_edges": 600, "edge_seed": 7}
SWEEP = {"trials_tune": 2000, "rng_seed": 2024}

PIPELINE_GRAPH = {"nodes": 500, "extra_edges": 2500, "edge_seed": 103}
PIPELINE = {
    "submitters": [3, 29, 61, 88, 120, 164, 199, 241, 302, 355, 411, 468],
    "items_per_submitter": 4,
    "transmissibility_frac": 1.3,
    "alpha_fracs": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    "rng_seed": 4051,
    "min_rebroadcasts": 5,
    "entropy_threshold": 3.0,   # correlate's default spam filter
}


def ring_plus_random(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    pairs = rng.integers(0, n, size=(extra, 2))
    edges.extend((int(a), int(b)) for a, b in pairs if a != b)
    return sorted(set(edges))


def crossing_alpha(grid, fracs, level):
    for (g0, f0), (g1, f1) in zip(zip(grid, fracs), list(zip(grid, fracs))[1:]):
        if f0 < level <= f1:
            return g0 + (level - f0) * (g1 - g0) / (f1 - f0)
    raise SystemExit(f"outbreak curve never crosses {level}")


def make_threshold_fixture() -> dict:
    cfg = THRESHOLD_GRAPH
    edges = ring_plus_random(cfg["nodes"], cfg["extra_edges"], cfg["edge_seed"])
    g = build_graph(edges, node_count=cfg["nodes"])
    lam = power_iteration(g).lambda1
    pc = 1.0 / lam
    grid = sorted({round(f * pc, 6) for f in
                   (0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.6, 2.0)})
    stats = threshold_sweep(g, grid, trials=SWEEP["trials_tune"],
                            rng_seed=SWEEP["rng_seed"])
    fracs = [s.mean_outbreak_fraction for s in stats]
    cross = crossing_alpha(grid, fracs, 0.10)
    rel = abs(cross - pc) / pc
    lo = dict(zip(grid, fracs))[round(0.5 * pc, 6)]
    hi = dict(zip(grid, fracs))[round(2.0 * pc, 6)]
    ratio = hi / lo
    print(f"[threshold] lambda1={lam:.4f} 1/lambda1={pc:.4f} "
          f"crossing={cross:.4f} rel_err={rel:.3f} ratio={ratio:.1f}")
    # demand margin at tuning time: the acceptance run allows 25% and 5x
    if rel > 0.15:
        raise SystemExit(f"crossing {rel:.2%} from threshold; pick another seed")
    if ratio < 8.0:
        raise SystemExit(f"sub/supercritical contrast only {ratio:.1f}x")
    write_edge_list(DATA / "threshold_graph.tsv", edges)
    return {"nodes": cfg["nodes"], "lambda1": lam, "grid": grid,
            "sweep_seed": SWEEP["rng_seed"]}


def make_pipeline_fixture() -> dict:
    cfg = PIPELINE_GRAPH
    edges = ring_plus_random(cfg["nodes"], cfg["extra_edges"], cfg["edge_seed"])
    g = build_graph(edges, node_count=cfg["nodes"])
    lam = power_iteration(g).lambda1
    p = PIPELINE["transmissibility_frac"] / lam
    log = synthesize_event_log(g, PIPELINE["submitters"],
                               PIPELINE["items_per_submitter"], p,
                               PIPELINE["rng_seed"])
    sizes = [it.rebroadcast_users.size for it in log.items()]
    print(f"[pipeline] lambda1={lam:.4f} p={p:.4f} "
          f"rebroadcasts per item: min={min(sizes)} max={max(sizes)}")
    alpha_grid = [round(f / lam, 6) for f in PIPELINE["alpha_fracs"]]
    cohort = influence_cohort(log, g, "global", min_rebroadcasts=PIPELINE["min_rebroadcasts"],
                              entropy_threshold=PIPELINE["entropy_threshold"])
    report = correlation_sweep(g, cohort, ["normalized_alpha", "pagerank"], alpha_grid)
    by_alpha: dict[float, dict[str, float]] = {}
    for e in report.entries:
        by_alpha.setdefault(e.alpha, {})[e.measure] = e.pearson_r
    wins = 0
    for a in alpha_grid:
        row = by_alpha.get(a, {})
        if "normalized_alpha" not in row or "pagerank" not in row:
            raise SystemExit(f"missing measures at alpha={a}")
        flag = row["normalized_alpha"] >= row["pagerank"]
        wins += flag
        print(f"  alpha={a:.4f} r_nalpha={row['normalized_alpha']:+.4f} "
              f"r_pagerank={row['pagerank']:+.4f} {'nalpha' if flag else 'pagerank'}")
    print(f"[pipeline] nalpha >= pagerank at {wins}/{len(alpha_grid)} grid points,"
          f" cohort={report.entries[0].cohort_size}")
    if wins * 2 <= len(alpha_grid):
        raise SystemExit("nonconservative measure does not lead on most of the grid")
    if report.entries[0].cohort_size < 5:
        raise SystemExit("cohort too small for a stable correlation")

    write_edge_list(DATA / "pipeline_graph.tsv", edges)
    write_event_log(log, DATA / "pipeline_events.csv")
    meta = {"nodes": cfg["nodes"], "lambda1": lam, "transmissibility": p,
            "submitters": PIPELINE["submitters"],
            "items_per_submitter": PIPELINE["items_per_submitter"],
            "rng_seed": PIPELINE["rng_seed"], "alpha_grid": alpha_grid,
            "min_rebroadcasts": PIPELINE["min_rebroadcasts"],
            "nalpha_wins": int(wins), "grid_points": len(alpha_grid)}

    golden = subprocess.run(
        [sys.executable, "-m", "flowrank.cli", "correlate",
         "--graph", str(DATA / "pipeline_graph.tsv"),
         "--events", str(DATA / "pipeline_events.csv"),
         "--measures", "nalpha,pagerank",
         "--alpha-sweep", ",".join(str(a) for a in alpha_grid),
         "--influence", "global",
         "--min-rebroadcasts", str(PIPELINE["min_rebroadcasts"]),
         "--entropy-threshold", str(PIPELINE["entropy_threshold"])],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))))
    if golden.returncode != 0:
        raise SystemExit(f"golden generation failed: {golden.stderr}")
    (DATA / "correlate_golden.csv").write_text(golden.stdout, encoding="utf-8")

    # freeze the headline comparison from the golden bytes themselves
    golden_r: dict[float, dict[str, float]] = {}
    for line in golden.stdout.strip().splitlines()[1:]:
        a_s, measure, _, r_s, _ = line.split(",")
        golden_r.setdefault(float(a_s), {})[measure] = float(r_s)
    golden_wins = sum(row["normalized_alpha"] >= row["pagerank"]
                      for row in golden_r.values())
    if golden_wins != wins:
        raise SystemExit(f"golden disagrees with library sweep: {golden_wins} vs {wins}")
    meta["golden_rows"] = golden.stdout.count("\n") - 1
    return meta


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    meta = {"threshold": make_threshold_fixture(),
            "pipeline": make_pipeline_fixture()}
    (DATA / "fixtures.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print("fixtures written to", DATA)


if __name__ == "__main__":
    main()
