"""Run flowrank's CLI in this process with a span around every public function.

Usage: python3 traced.py SPANS_JSON -- <flowrank CLI arguments>

Each public function of the layer modules is replaced, in every flowrank
module namespace that binds it, by a wrapper that records a span (name,
parent, start, end). Modules that look a function up at call time, such
as graph.py calling _kernels.gather_sum, therefore reach the wrapper
too. Work counters are taken from arguments and results after a span
closes, inside a "trace.counters" span of their own so that they are
not billed to the caller. Spans and counters stay in memory and are
written to SPANS_JSON once, after main returns. flowrank itself is not
modified.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("graph", "_kernels", "spectral", "centrality", "dynamics", "empirics", "cli")


def _ic_spread(c, args, result):
    # out-degree summed over the reached nodes: every edge the spread examined
    indptr = args[0]
    c["kernels.ic_spread_edges_examined"] += int((indptr[1:] - indptr[:-1])[result >= 0].sum())


def _gather_sum(c, args, result):
    indptr, indices, x = args
    # computed, not measured: the CSR arrays, one gathered x value per index, the output
    c["kernels.gather_sum_bytes"] += (indptr.nbytes + indices.nbytes
                                      + indices.size * x.itemsize + result.nbytes)


def _read_event_log(c, args, log):
    c["empirics.items"] += len(log)
    c["empirics.events_read"] += len(log) + sum(int(it.rebroadcast_users.size)
                                                for it in log.items())


def _correlation_sweep(c, args, report):
    c["empirics.cells_attempted"] += len(args[2]) * len(args[3])
    c["empirics.cells_emitted"] += len(report.entries)


def _estimates(c, args, result):
    # the last estimator to run leaves the final cohort
    c["empirics.cohort_size"] = len(result)


COUNTERS = {
    "_kernels.ic_spread": _ic_spread,
    "_kernels.gather_sum": _gather_sum,
    "spectral.power_iteration": lambda c, a, r: c.update({"spectral.power_iteration_iters":
                                                          r.iterations}),
    "empirics.read_event_log": _read_event_log,
    "empirics.spam_filter": lambda c, a, r: c.update({"empirics.items_kept": len(r)}),
    "empirics.local_influence": _estimates,
    "empirics.significance_screen": _estimates,
    "empirics.global_influence": _estimates,
    "empirics.correlation_sweep": _correlation_sweep,
    "dynamics.threshold_sweep": lambda c, a, r: c.update({"dynamics.grid_trials":
                                                          len(a[1]) * a[2]}),
}


class Tracer:
    """Spans as [name, parent index, start, end] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                cidx = self._open("trace.counters")
                count(self.counts, args, result)
                self._close(cidx)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public layer function wherever flowrank binds it; return their names."""
        wrappers = {}
        names = []
        for layer in LAYERS:
            mod = importlib.import_module(f"flowrank.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    names.append(f"{layer}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "flowrank" or mod_name.startswith("flowrank."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and inspect.isfunction(obj):
                        setattr(mod, attr, wrappers[id(obj)])
        return sorted(names)


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <flowrank CLI arguments>")
    t0 = time.perf_counter()
    import flowrank.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    wrapped = tracer.install()
    rc = flowrank.cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "wrapped": wrapped, "exit_code": rc,
                   "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
