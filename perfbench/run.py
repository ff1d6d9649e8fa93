"""Outside-in benchmark of the flowrank CLI.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

With --trace 0 every sample is a fresh `python -m flowrank.cli ...`
process, as a user runs it, pinned to one thread; the run reports
wall_s, setup_s and peak_rss_mb. With --trace 1 one CLI run happens
in-process under span-recording wrappers (traced.py) and one untraced
run gives the tracing overhead; the run reports per-layer metrics.
Every output is checked against a reference built by oracle.py, and
every run of a workload must print the same bytes. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import inputs
import oracle
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3          # fresh set-up processes per run; setup_s is their median
# Fractions of 1/lambda1. Points between 1.5 and 4 are left out: there a
# trial's outbreak takes off or dies by chance, and with 20 trials the
# sweep's work would vary by about 5% from seed to seed.
THRESHOLD_FRACTIONS = [0.5, 0.75, 1.0, 1.5, 4.0, 4.5, 5.0, 5.5, 6.0]
ALPHA_FRACTIONS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]        # of 1/lambda1
THRESHOLD_TRIALS = 20
MEASURES = ["nalpha", "alpha", "pagerank"]
INFLUENCE_SAMPLE = 2    # submitters whose items the set-based replay re-derives


@dataclass(frozen=True)
class Workload:
    graph: str
    log: str | None
    why: str


WORKLOADS = {
    "threshold-sweep": Workload(
        "ring", None,
        "threshold over 9 p from 0.5/lambda1 to 6/lambda1, 20 trials: ic_spread does "
        "the work, spectral/centrality/empirics none"),
    "correlate-local": Workload(
        "follower", "light_log",
        "correlate, local influence, 3 measures x 9 alphas below 1/lambda1 on a "
        "heavy-tailed graph: spectral and centrality dominate"),
    "influence-global": Workload(
        "ring", "heavy_log",
        "global influence over a log of about 1.4M rebroadcasts: read_event_log and "
        "extract_cascade dominate, no spectral or centrality work"),
    "centrality-sweep": Workload(
        "follower", None,
        "nalpha centrality at 9 alphas, 1.8M CSV rows: rank and the CLI render/write "
        "path do real work, no empirics"),
}

# Spans that do a workload's main work: a traced run in which one of them
# got no calls measured something else, and counts as failed.
HOME_SPANS = {
    "threshold-sweep": ["_kernels.ic_spread"],
    "correlate-local": ["spectral.spectral_radius", "_kernels.gather_sum"],
    "influence-global": ["empirics.extract_cascade"],
    "centrality-sweep": ["spectral.spectral_radius", "_kernels.gather_sum"],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
OPERATOR_APPLY = ["graph.adjacency_apply", "graph.transfer_apply", "graph.replication_apply"]
# per-layer metrics that are not read from the span of a function of the same name
DERIVED = {"graph.operator_apply_calls", "empirics.cells_emitted_frac", "cli.output_bytes",
           "cli.import_s"}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    return [
        "graph.load_edge_list_s", "graph.build_graph_s", "graph.operator_apply_calls",
        "graph.self_s",
        "kernels.gather_sum_calls", "kernels.gather_sum_s", "kernels.gather_sum_bytes",
        "kernels.ic_spread_calls", "kernels.ic_spread_s", "kernels.ic_spread_edges_examined",
        "kernels.self_s",
        "spectral.spectral_radius_calls", "spectral.spectral_radius_s", "spectral.is_acyclic_s",
        "spectral.power_iteration_calls", "spectral.power_iteration_iters", "spectral.self_s",
        "centrality.normalized_alpha_centrality_s", "centrality.alpha_centrality_s",
        "centrality.pagerank_s", "centrality.rank_s", "centrality.self_s",
        "dynamics.threshold_sweep_s", "dynamics.grid_trials", "dynamics.self_s",
        "empirics.read_event_log_s", "empirics.events_read", "empirics.extract_cascade_calls",
        "empirics.extract_cascade_s", "empirics.global_influence_s", "empirics.spam_filter_s",
        "empirics.local_influence_s", "empirics.significance_screen_s",
        "empirics.correlation_sweep_s", "empirics.cells_attempted", "empirics.cells_emitted",
        "empirics.cells_emitted_frac", "empirics.items", "empirics.items_kept",
        "empirics.cohort_size", "empirics.self_s",
        "cli.self_s", "cli.output_bytes", "cli.import_s",
        "trace.wall_s", "trace.overhead_s", "trace.counters_s", "trace.outside_main_s",
    ]


def span_of(name: str) -> str | None:
    """The flowrank function whose spans give a `<fn>_s` or `<fn>_calls` metric."""
    layer, _, what = name.partition(".")
    if (name in DERIVED or layer == "trace" or what == "self_s"
            or not what.endswith(("_s", "_calls"))):
        return None
    return ("_kernels" if layer == "kernels" else layer) + "." + what.rsplit("_", 1)[0]


def required_spans() -> set[str]:
    """Every function a per-layer metric reads; each must be wrapped in a traced run."""
    spans = {span_of(n) for n in per_layer_names()} - {None}
    return spans | set(OPERATOR_APPLY) | set(traced.COUNTERS) | {"cli.main"}


def unit_of(name: str) -> str:
    if name == "kernels.gather_sum_bytes":
        return "bytes_computed"   # from array sizes, not from a hardware counter
    if name == "cli.output_bytes":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


# ---------------------------------------------------------------- preparation

@dataclass
class Prepared:
    argv: list[str]
    meta: dict
    ref: dict
    graph_path: str
    log_path: str | None


def bench_digest() -> str:
    """sha256 over the generator, the oracle and the grids: the key of cached inputs."""
    h = hashlib.sha256()
    for path in (HERE / "inputs.py", HERE / "oracle.py"):
        h.update(path.read_bytes())
    h.update(json.dumps([THRESHOLD_FRACTIONS, ALPHA_FRACTIONS, THRESHOLD_TRIALS, MEASURES,
                         INFLUENCE_SAMPLE]).encode())
    return h.hexdigest()


def cache_dir(shape: str, seed: int) -> Path:
    return CACHE / f"{shape}-seed{seed}-{bench_digest()[:16]}"


def _intact(meta: dict) -> bool:
    """True if every input file still has the sha256 recorded when it was written."""
    return all(Path(part["path"]).is_file() and inputs.sha256(Path(part["path"])) == part["sha256"]
               for part in meta.values())


def prepare(name: str, shape: str, seed: int) -> Prepared:
    """Inputs and reference for one workload, generated once per (shape, seed, generator)."""
    wl = WORKLOADS[name]
    d = cache_dir(shape, seed)
    cached = d / f"{name}.json"
    state = json.loads(cached.read_text()) if cached.exists() else None
    if state is None or not _intact(state["meta"]):
        g, items = inputs.build(shape, seed, wl.graph, wl.log)
        meta = inputs.save(d, wl.graph, g, wl.log, items)
        lam = oracle.lambda1(oracle.adjacency(g))
        ref = {"lambda1": lam}
        if name == "threshold-sweep":
            ref["grid"] = oracle.grid(THRESHOLD_FRACTIONS, lam)
            ref.update(oracle.threshold_reference(g, THRESHOLD_FRACTIONS, ref["grid"], seed))
        elif name == "influence-global":
            ref.update(oracle.influence_reference(g, items, INFLUENCE_SAMPLE, seed))
        else:
            ref["grid"] = oracle.grid(ALPHA_FRACTIONS, lam)
            if name == "correlate-local":
                ref.update(oracle.correlate_reference(g, items, ref["grid"]))
        state = {"meta": meta, "ref": ref}
        cached.write_text(json.dumps(state))
    meta, ref = state["meta"], state["ref"]
    gpath = meta["graph"]["path"]
    lpath = meta["events"]["path"] if "events" in meta else None
    return Prepared(cli_argv(name, gpath, lpath, ref, seed), meta, ref, gpath, lpath)


def cli_argv(name: str, gpath: str, lpath: str | None, ref: dict, seed: int) -> list[str]:
    if name == "threshold-sweep":
        return ["threshold", "--graph", gpath, "--grid", ",".join(ref["grid"]),
                "--trials", str(THRESHOLD_TRIALS), "--seed", str(seed)]
    if name == "correlate-local":
        return ["correlate", "--graph", gpath, "--events", lpath,
                "--measures", ",".join(MEASURES), "--alpha-sweep", ",".join(ref["grid"]),
                "--influence", "local", "--format", "json"]
    if name == "influence-global":
        return ["influence", "--graph", gpath, "--events", lpath, "--kind", "global"]
    return ["centrality", "--graph", gpath, "--measure", "nalpha",
            "--alpha-sweep", ",".join(ref["grid"])]


def check_output(name: str, prep: Prepared, text: str) -> None:
    """Raise oracle.CheckFailed unless text is a correct output of the workload."""
    ref = prep.ref
    try:
        if name == "threshold-sweep":
            oracle.check_threshold(text, ref["grid"], ref)
        elif name == "correlate-local":
            oracle.check_correlate(text, ref["grid"], MEASURES, ref)
        elif name == "influence-global":
            oracle.check_influence(text, ref)
        else:
            oracle.check_centrality(text, inputs.read_graph(Path(prep.graph_path)), ref["grid"])
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise oracle.CheckFailed(f"malformed output: {exc!r}") from None


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Spawned:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


def spawn(cmd: list[str], stdout_path: Path) -> Spawned:
    """Run cmd to completion; wall time from spawn to exit, peak RSS from wait4."""
    err_path = stdout_path.with_name(stdout_path.name + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return Spawned(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


class Judge:
    """Counts attempts and failures; every output must match the first and the oracle."""

    def __init__(self, name: str, prep: Prepared, expected_path: Path):
        self.name, self.prep = name, prep
        self.expected_path = expected_path
        self.expected = expected_path.read_text() if expected_path.exists() else None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)
        return ok

    def judge(self, spawned: Spawned, out_path: Path) -> bool:
        """Count one CLI run: it must exit 0 and print the expected, correct bytes."""
        if spawned.code != 0:
            return self.tally(False, f"exit {spawned.code}: {spawned.stderr.strip()[-300:]}")
        digest = inputs.sha256(out_path)
        if self.expected is not None:
            return self.tally(digest == self.expected,
                              "output differs from earlier runs of this seed")
        try:
            check_output(self.name, self.prep, out_path.read_text(encoding="utf-8"))
        except oracle.CheckFailed as exc:
            return self.tally(False, f"check: {exc}")
        self.expected = digest
        self.expected_path.write_text(digest)
        return self.tally(True, "")


def setup_cmd(prep: Prepared) -> list[str]:
    code = "import sys, flowrank; flowrank.load_edge_list(sys.argv[1])"
    if prep.log_path:
        code += "; flowrank.read_event_log(sys.argv[2])"
    files = [prep.graph_path] + ([prep.log_path] if prep.log_path else [])
    return [sys.executable, "-c", code] + files


def cli_cmd(prep: Prepared) -> list[str]:
    return [sys.executable, "-m", "flowrank.cli"] + prep.argv


# ---------------------------------------------------------------- metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics from spans: `<fn>_s` inclusive, `<layer>.self_s` exclusive."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    main_s = 0.0
    for (name, parent, start, end), kids in zip(spans, child):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        layer = name.split(".")[0].lstrip("_")
        self_s[layer] = self_s.get(layer, 0.0) + (end - start - kids)
        if parent < 0:
            main_s += end - start
    counts = trace["counts"]
    m = {}
    for name in per_layer_names():
        layer, _, what = name.partition(".")
        fn = span_of(name)
        if what == "self_s":
            m[name] = self_s.get(layer, 0.0)
        elif fn is None:
            m[name] = counts.get(name, 0)
        elif what.endswith("_calls"):
            m[name] = calls.get(fn, 0)
        else:
            m[name] = incl.get(fn, 0.0)
    m["graph.operator_apply_calls"] = sum(calls.get(fn, 0) for fn in OPERATOR_APPLY)
    attempted = counts.get("empirics.cells_attempted", 0)
    m["empirics.cells_emitted_frac"] = (counts.get("empirics.cells_emitted", 0) / attempted
                                        if attempted else 0.0)
    m["cli.output_bytes"] = output_bytes
    m["cli.import_s"] = trace["import_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.counters_s"] = self_s.get("trace", 0.0)
    m["trace.outside_main_s"] = traced_wall - main_s
    return m


def trace_faults(name: str, trace: dict) -> list[str]:
    """Why a traced run's per-layer metrics cannot be trusted; empty if they can.

    A function that is not wrapped (renamed, or no longer a plain
    function) would read 0, as would a workload whose main work has
    moved out of the spans that should hold it.
    """
    faults = []
    missing = sorted(required_spans() - set(trace["wrapped"]))
    if missing:
        faults.append(f"not wrapped, so its metrics would read 0: {', '.join(missing)}")
    called = {span[0] for span in trace["spans"]}
    idle = [fn for fn in HOME_SPANS[name] if fn not in called]
    if idle:
        faults.append(f"no calls to {', '.join(idle)}, the main work of {name}")
    return faults


def provenance(prep: Prepared, backend: str | None) -> dict:
    g = prep.meta["graph"]
    csr_bytes = 8 * (2 * (g["nodes"] + 1) + 2 * g["edges"] + 2 * g["nodes"])
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "flowrank_backend": backend, "nproc": os.cpu_count(), "l3_bytes": _l3_bytes(),
        "graph_csr_bytes": csr_bytes, "thread_pins": PINS, "commit": _commit(),
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 over flowrank's Python sources, so results name the code they ran."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flowrank").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


# ---------------------------------------------------------------- runs

def run_workload(name: str, seed: int, seconds: int, trace: bool, shape: str) -> dict:
    """One benchmark run; returns the result record (metrics, counts, provenance)."""
    prep = prepare(name, shape, seed)
    work = CACHE / "runs" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # keyed by the sources too: a commit that changes the output on purpose is
    # checked against the oracle afresh instead of against another commit's bytes
    expected = cache_dir(shape, seed) / f"{name}-{source_digest()[:16]}.sha256"
    judge = Judge(name, prep, expected)
    try:
        # untimed warm-up: compiled bytecode and the page cache, as a user's second run
        warm = spawn([sys.executable, "-c", "import flowrank.cli; print(flowrank.BACKEND)"],
                     work / "warmup.out")
        backend = (work / "warmup.out").read_text().strip() if warm.code == 0 else None
        out = work / "out.txt"
        if not trace:
            runs = []
            t0 = time.perf_counter()
            while not runs or time.perf_counter() - t0 < seconds:
                runs.append(spawn(cli_cmd(prep), out))
                judge.judge(runs[-1], out)
            setups = []
            for _ in range(SETUP_REPS):
                s = spawn(setup_cmd(prep), work / "setup.out")
                setups.append(s.wall_s)
                judge.tally(s.code == 0, f"setup exit {s.code}: {s.stderr.strip()[-300:]}")
            samples = {"wall_s": [r.wall_s for r in runs], "setup_s": setups,
                       "peak_rss_mb": [r.rss_mb for r in runs]}
        else:
            spans_path = work / "spans.json"
            in_proc = spawn([sys.executable, str(HERE / "traced.py"), str(spans_path), "--"]
                           + prep.argv, out)
            judge.judge(in_proc, out)
            output_bytes = out.stat().st_size
            plain = spawn(cli_cmd(prep), out)
            judge.judge(plain, out)
            if in_proc.code == 0 and spans_path.exists():
                trace_data = json.loads(spans_path.read_text())
                for fault in trace_faults(name, trace_data):
                    judge.tally(False, fault)
            else:
                trace_data = {"spans": [], "counts": {}, "import_s": 0.0}
            layer = layer_metrics(trace_data, in_proc.wall_s, plain.wall_s, output_bytes)
            samples = {k: [v] for k, v in layer.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = END_TO_END if not trace else {k: unit_of(k) for k in samples}
    stats = {k: quartiles(v) for k, v in samples.items()}
    return {
        "workload": name, "why": WORKLOADS[name].why, "seed": seed, "shape": shape,
        "trace": int(trace), "argv": ["flowrank"] + prep.argv,
        "inputs": prep.meta, "provenance": provenance(prep, backend),
        "attempted": judge.attempted, "failed": judge.failed, "notes": judge.notes,
        "samples": samples,
        "stats": {k: {"q1": q1, "median": med, "q3": q3, "unit": units[k]}
                  for k, (q1, med, q3) in stats.items()},
        "metrics": {k: {"value": stats[k][1], "unit": units[k]} for k in samples},
    }


def report(rec: dict) -> None:
    """Human-readable lines for one result record."""
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']}: {rec['why']}")
    print(f"#   argv: {' '.join(rec['argv'])}")
    for key, part in rec["inputs"].items():
        desc = ", ".join(f"{k}={v}" for k, v in part.items() if k != "path")
        print(f"#   input {key}: {desc}")
    print(f"#   provenance: {json.dumps(rec['provenance'], sort_keys=True)}")
    fail_frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"#   fail_frac = {fail_frac:.4g} ({rec['failed']} of {rec['attempted']} runs)")
    for note in rec["notes"]:
        print(f"#   FAILED: {note}")
    for k, s in rec["stats"].items():
        n = len(rec["samples"][k])
        print(f"#   {k:<44} {s['median']:>14.6g} {s['unit']:<14} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "flowrank" / "cli.py").is_file():
        print(f"perfbench: no flowrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        for trace in modes:
            rec = run_workload(name, args.seed, args.seconds, trace, "full")
            report(rec)
            (results / f"{name}-seed{args.seed}-trace{int(trace)}.json"
             ).write_text(json.dumps(rec, indent=1))
            records.append(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
