"""Byte-for-byte CLI outputs on the committed fixtures.

Each case runs `cli.main` in-process and compares what it writes with
`tests/data/cli_golden/<case>.out`. The files were written by the CLI
that rendered every subcommand row by row, so any change to the
renderer must keep these bytes. Regenerate (only for a deliberate,
documented output change) with `PYTHONPATH=src python3 tests/test_cli_golden.py`.
"""
import contextlib
from pathlib import Path

import pytest

from flowrank import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"
T = str(DATA / "threshold_graph.tsv")
G = str(DATA / "pipeline_graph.tsv")
E = str(DATA / "pipeline_events.csv")

_BY_FORMAT = {
    "spectral": ["spectral", "--graph", T],
    "centrality_pagerank": ["centrality", "--graph", T, "--measure", "pagerank",
                            "--alpha", "0.85"],
    "centrality_alpha": ["centrality", "--graph", T, "--measure", "alpha", "--alpha", "0.2"],
    "centrality_indegree": ["centrality", "--graph", T, "--measure", "indegree"],
    "centrality_nalpha_sweep": ["centrality", "--graph", T, "--measure", "nalpha",
                                "--alpha-sweep", "0.05:0.3:0.125"],
    "simulate_norms": ["simulate", "--graph", T, "--process", "conservative",
                       "--alpha", "0.85", "--steps", "6", "--x0", "indegree"],
    "simulate_vectors": ["simulate", "--graph", T, "--process", "sis", "--mu", "0.2",
                         "--beta", "0.3", "--steps", "3", "--x0", "point:0",
                         "--track", "vectors"],
    "threshold": ["threshold", "--graph", T, "--grid", "0.3,0,0.1,0.2,0.1", "--trials", "40",
                  "--seed", "3"],
    "influence_local": ["influence", "--graph", G, "--events", E, "--kind", "local",
                        "--min-rebroadcasts", "5"],
    "influence_local_screen": ["influence", "--graph", G, "--events", E, "--kind", "local",
                               "--min-rebroadcasts", "5", "--screen"],
    "influence_global": ["influence", "--graph", G, "--events", E, "--kind", "global",
                         "--min-rebroadcasts", "5"],
    "correlate": ["correlate", "--graph", G, "--events", E, "--measures",
                  "nalpha,pagerank,indegree", "--alpha-sweep", "0.05:0.15:0.05",
                  "--influence", "global", "--min-rebroadcasts", "5"],
    # local influence runs the spam filter, the screen and the derived kind
    "correlate_local": ["correlate", "--graph", G, "--events", E, "--measures",
                        "nalpha,pagerank,indegree", "--alpha-sweep", "0.05:0.15:0.05",
                        "--influence", "local", "--min-rebroadcasts", "5", "--p-cut", "0.5"],
}
CASES = {f"{name}_{fmt}": argv + ["--format", fmt]
         for name, argv in _BY_FORMAT.items() for fmt in ("csv", "json")}
# these write to --output, and stdout stays empty; "{out}" stands for that path
CASES["output_centrality_sweep_csv"] = ["centrality", "--graph", T, "--measure", "pagerank",
                                        "--alpha-sweep", "0.5,0.85", "--output", "{out}"]
CASES["output_influence_json"] = ["influence", "--graph", G, "--events", E, "--kind", "global",
                                  "--min-rebroadcasts", "5", "--format", "json",
                                  "--output", "{out}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsysbinary):
    path = tmp_path / "report"
    argv = [a.replace("{out}", str(path)) for a in CASES[case]]
    assert cli.main(argv) == 0
    stdout, stderr = capsysbinary.readouterr()
    assert stderr == b""
    if "{out}" in CASES[case]:
        assert stdout == b""
        stdout = path.read_bytes()
    assert stdout == (GOLDEN / f"{case}.out").read_bytes()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        path = GOLDEN / f"{case}.out"
        if "{out}" in argv:
            assert cli.main([a.replace("{out}", str(path)) for a in argv]) == 0, case
            continue
        with open(path, "w", encoding="utf-8", newline="") as fh, \
                contextlib.redirect_stdout(fh):
            assert cli.main(argv) == 0, case


if __name__ == "__main__":
    _regenerate()
