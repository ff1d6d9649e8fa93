"""Self-tests of the benchmark harness at the tiny input shape.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import shutil

import pytest

import run

SEED = 3
SHAPE = "tiny"


def _declared() -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_completes_with_every_metric_and_exact_counts(name):
    declared = _declared()
    plain = run.run_workload(name, SEED, 1, False, SHAPE)
    assert plain["failed"] == 0 and plain["attempted"] >= 1 + run.SETUP_REPS, plain["notes"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == run.END_TO_END
    first = run.run_workload(name, SEED, 1, True, SHAPE)
    second = run.run_workload(name, SEED, 1, True, SHAPE)
    for rec in (first, second):
        assert rec["failed"] == 0, rec["notes"]
        assert list(rec["metrics"]) == run.per_layer_names()
    for k, m in first["metrics"].items():
        assert declared[k] == m["unit"], k
        if m["unit"] in ("count", "bytes", "bytes_computed", "ratio"):
            assert m["value"] == second["metrics"][k]["value"], k
    for k, unit in run.END_TO_END.items():
        assert declared[k] == unit


def _perturb(name: str, prep: run.Prepared, text: str) -> str:
    """The same output with one row changed."""
    if name == "correlate-local":
        out = json.loads(text)
        out["entries"][4]["pearson_r"] += 1e-3
        return json.dumps(out, sort_keys=True) + "\n"
    lines = text.splitlines()
    if name == "threshold-sweep":
        cells = lines[-1].split(",")
        lines[-1] = ",".join([cells[0], "0.3", cells[2]])   # breaks monotonicity
    elif name == "influence-global":
        user = next(iter(prep.ref["replayed"]))
        i = next(i for i, line in enumerate(lines) if line.startswith(user + ","))
        cells = lines[i].split(",")
        lines[i] = ",".join(cells[:2] + [repr(float(cells[2]) + 1.0)] + cells[3:])
    else:
        i = len(lines) // 3
        cells = lines[i].split(",")
        lines[i] = ",".join(cells[:2] + [repr(float(cells[2]) * 1.01)] + cells[3:])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_corrupted_row_counts_as_failure(name, tmp_path):
    prep = run.prepare(name, SHAPE, SEED)
    out = tmp_path / "out.txt"
    spawned = run.spawn(run.cli_cmd(prep), out)
    good = out.read_text()
    out.write_text(_perturb(name, prep, good))
    judge = run.Judge(name, prep, tmp_path / "expected.sha256")
    assert not judge.judge(spawned, out)
    assert (judge.attempted, judge.failed) == (1, 1)
    out.write_text(good)
    assert judge.judge(spawned, out) and judge.failed == 1


def test_low_outbreak_above_threshold_counts_as_failure(tmp_path):
    """An ic_spread that stops early still gives a monotone curve; percolation catches it."""
    name = "threshold-sweep"
    prep = run.prepare(name, SHAPE, SEED)
    out = tmp_path / "out.txt"
    spawned = run.spawn(run.cli_cmd(prep), out)
    lines = out.read_text().splitlines()
    i = 1 + prep.ref["outbreak"][0][0]      # the lowest grid point with a reference
    below = float(lines[i - 1].split(",")[1])
    cells = lines[i].split(",")
    lowered = float(cells[1]) - 0.05
    assert lowered > below
    lines[i] = ",".join([cells[0], repr(lowered), cells[2]])
    out.write_text("\n".join(lines) + "\n")
    judge = run.Judge(name, prep, tmp_path / "expected.sha256")
    assert not judge.judge(spawned, out)
    assert "percolation reference" in judge.notes[0]


def test_renamed_function_fails_traced_run(monkeypatch, tmp_path):
    """A layer function that loses its wrapper would read 0; the traced run fails instead."""
    shutil.copytree(run.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in (tmp_path / "src").rglob("*.py"):
        path.write_text(re.sub(r"\bis_acyclic\b", "has_no_cycle", path.read_text()))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    rec = run.run_workload("correlate-local", SEED, 1, True, SHAPE)
    assert rec["failed"] == 1
    assert "not wrapped" in rec["notes"][0] and "spectral.is_acyclic" in rec["notes"][0]


def test_idle_home_span_is_a_fault():
    trace = {"wrapped": sorted(run.required_spans()),
             "spans": [["cli.main", -1, 0.0, 1.0], ["graph.load_edge_list", 0, 0.1, 0.2]]}
    assert run.trace_faults("centrality-sweep", trace) == [
        "no calls to spectral.spectral_radius, _kernels.gather_sum, the main work of "
        "centrality-sweep"]
    trace["spans"].append(["_kernels.ic_spread", 0, 0.3, 0.9])
    assert run.trace_faults("threshold-sweep", trace) == []


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    rc = run.main(["--workload", "threshold-sweep", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
