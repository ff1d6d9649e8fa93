"""End-to-end CLI behavior: outputs, determinism, and exit codes."""
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowrank import (build_graph, cli, from_records, graph, load_edge_list, spectral_radius,
                      write_event_log)
from flowrank.graph import MAX_NODES

from oracles import edges_chain, edges_ring, random_sc_edges

DATA = Path(__file__).parent / "data"


def run_cli(*args, expect=0):
    out = subprocess.run([sys.executable, "-m", "flowrank.cli", *map(str, args)],
                         capture_output=True, text=True)
    assert out.returncode == expect, f"{args}\nstdout:{out.stdout}\nstderr:{out.stderr}"
    return out


@pytest.fixture(scope="module")
def ring_graph(tmp_path_factory):
    p = tmp_path_factory.mktemp("g") / "ring.tsv"
    p.write_text("".join(f"{a}\t{b}\n" for a, b in edges_ring(3)))
    return p


@pytest.fixture(scope="module")
def chain_graph(tmp_path_factory):
    p = tmp_path_factory.mktemp("g") / "chain.tsv"
    p.write_text("".join(f"{a}\t{b}\n" for a, b in edges_chain(4)))
    return p


@pytest.fixture(scope="module")
def big_graph(tmp_path_factory):
    p = tmp_path_factory.mktemp("g") / "big.tsv"
    p.write_text("".join(f"{a}\t{b}\n" for a, b in random_sc_edges(60, 240, seed=2)))
    return p


@pytest.fixture(scope="module")
def event_log(tmp_path_factory, request):
    g = build_graph([(i, 0) for i in range(1, 8)] + [(0, 8), (8, 0)], node_count=9)
    recs = []
    t = 0
    for j, item in enumerate(("a", "b")):
        recs.append((item, 0, t, "submit"))
        for u in range(1, 5 + j):
            t += 2 ** u
            recs.append((item, u, t, "rebroadcast"))
        t += 1000
    log = from_records(recs)
    p = tmp_path_factory.mktemp("ev") / "events.csv"
    write_event_log(log, p)
    gp = tmp_path_factory.mktemp("ev") / "fan.tsv"
    gp.write_text("".join(f"{a}\t{b}\n"
                          for a, b in [(i, 0) for i in range(1, 8)] + [(0, 8), (8, 0)]))
    return gp, p


# ----------------------------------------------------------------- subcommands

def test_spectral_json(ring_graph):
    out = run_cli("spectral", "--graph", ring_graph)
    doc = json.loads(out.stdout)
    assert abs(doc["lambda1"] - 1.0) < 1e-9
    assert abs(doc["threshold"] - 1.0) < 1e-9
    assert doc["residual"] < 1e-9


def test_spectral_acyclic_reports_threshold_error(chain_graph):
    out = run_cli("spectral", "--graph", chain_graph)
    doc = json.loads(out.stdout)
    assert doc["lambda1"] == 0.0
    assert "threshold" not in doc
    assert "no finite threshold" in doc["threshold_error"]


def test_centrality_pagerank_rows(ring_graph):
    out = run_cli("centrality", "--graph", ring_graph, "--measure", "pagerank")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "node,score,rank"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert all(abs(float(r[1]) - 1.0 / 3.0) < 1e-9 for r in rows)


def test_centrality_alpha_requires_alpha(ring_graph):
    run_cli("centrality", "--graph", ring_graph, "--measure", "alpha", expect=2)


def test_centrality_alpha_sweep_adds_column(big_graph):
    out = run_cli("centrality", "--graph", big_graph, "--measure", "nalpha",
                  "--alpha-sweep", "0.05:0.15:0.05")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "alpha,node,score,rank"
    alphas = sorted({l.split(",")[0] for l in lines[1:]})
    assert alphas == ["0.05", "0.1", "0.15"]


def test_simulate_norm_tracking(ring_graph):
    out = run_cli("simulate", "--graph", ring_graph, "--process", "conservative",
                  "--alpha", "0.5", "--steps", "3")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "step,l1_norm"
    assert len(lines) == 5  # header + steps 0..3
    assert all(abs(float(l.split(",")[1]) - 1.0) < 1e-12 for l in lines[1:])


def test_simulate_vector_tracking_point_start(chain_graph):
    out = run_cli("simulate", "--graph", chain_graph, "--process", "nonconservative",
                  "--alpha", "0.5", "--steps", "2", "--x0", "point:0",
                  "--track", "vectors")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "step,node,value"
    grid = {(int(s), int(n)): float(v)
            for s, n, v in (l.split(",") for l in lines[1:])}
    assert grid[(0, 0)] == 1.0
    assert grid[(1, 1)] == 0.5
    assert grid[(2, 2)] == 0.25


def test_simulate_sis(ring_graph):
    out = run_cli("simulate", "--graph", ring_graph, "--process", "sis",
                  "--mu", "0.2", "--beta", "0.1", "--steps", "5")
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 7


def test_threshold_sweep_output(big_graph):
    out = run_cli("threshold", "--graph", big_graph, "--grid", "0:1:0.5",
                  "--trials", "20", "--seed", "5")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "transmissibility,mean_fraction,stderr"
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "0.5", "1"]
    assert float(lines[-1].split(",")[1]) == 1.0


def test_influence_local_output(event_log):
    gp, ev = event_log
    out = run_cli("influence", "--graph", gp, "--events", ev)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "user_id,n_items,influence,significance_p"
    user, n_items, val, p = lines[1].split(",")
    assert (user, n_items, p) == ("0", "2", "")  # p empty without --screen
    assert float(val) == 4.5  # 4 then 5 follower rebroadcasts


def test_influence_screen_counts_the_users_of_the_log_as_read(tmp_path):
    # the robotic item s (one gap, so no interval entropy) is the only one holding
    # users 9, 20 and 21: N counts them even though --entropy-filter drops s
    gp = tmp_path / "g.tsv"
    gp.write_text("".join(f"{a}\t{b}\n" for a, b in
                          [(1, 0), (2, 0), (3, 0), (10, 11), (11, 10), (20, 9), (21, 9)]))
    recs = []
    for item, t0 in (("a", 0), ("b", 10_000)):
        recs.append((item, 0, t0, "submit"))
        recs += [(item, u, t0 + dt, "rebroadcast")
                 for u, dt in ((1, 1), (10, 11), (2, 111), (11, 1111))]
    recs += [("s", 9, 20_000, "submit"), ("s", 20, 20_001, "rebroadcast"),
             ("s", 21, 20_002, "rebroadcast")]
    ev = tmp_path / "events.csv"
    write_event_log(from_records(recs), ev)
    out = run_cli("influence", "--graph", gp, "--events", ev, "--window", "4", "--screen",
                  "--p-cut", "1", "--entropy-filter", "0.5")
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    # 8 users as read (0, 1, 2, 9, 10, 11, 20, 21); 5 are left after the filter
    # P(X >= 2) for 4 draws from N = 8 with K = 3 marked; N = 5 would give 1.0
    assert rows == [["0", "2", "2", "0.5"]]


def test_influence_screen_appends_pvalue(event_log):
    gp, ev = event_log
    out = run_cli("influence", "--graph", gp, "--events", ev, "--screen",
                  "--active-users", "100000", "--window", "50")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "user_id,n_items,influence,significance_p"
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) < 0.05


def test_correlate_csv_shape(big_graph, tmp_path):
    gp = big_graph
    ev = tmp_path / "synth.csv"
    from flowrank import load_edge_list, synthesize_event_log, write_event_log
    g, _ = load_edge_list(gp)
    log = synthesize_event_log(g, [0, 5, 11, 17, 23], 2, 0.4, rng_seed=3)
    write_event_log(log, ev)
    out = run_cli("correlate", "--graph", gp, "--events", ev,
                  "--measures", "pagerank,indegree", "--alpha-sweep", "0.1:0.2:0.1",
                  "--influence", "global", "--min-rebroadcasts", "0",
                  "--no-spam-filter", "--no-significance")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "alpha,measure,influence_kind,pearson_r,cohort_size"
    assert len(lines) == 5  # 2 alphas x 2 measures
    assert all(l.split(",")[4] == "5" for l in lines[1:])


def test_correlate_requires_exactly_one_alpha_mode(big_graph, tmp_path):
    ev = tmp_path / "e.csv"
    ev.write_text("item_id,user_id,timestamp,kind\na,0,1,submit\n")
    run_cli("correlate", "--graph", big_graph, "--events", ev,
            "--measures", "indegree", expect=2)
    run_cli("correlate", "--graph", big_graph, "--events", ev,
            "--measures", "indegree", "--alpha", "0.1",
            "--alpha-sweep", "0:1:0.5", expect=2)


# ------------------------------------------------------------------ exit codes

def test_exit_2_on_usage_errors(ring_graph):
    run_cli("nonsense", expect=2)
    run_cli("centrality", "--graph", ring_graph, expect=2)
    run_cli("centrality", "--graph", ring_graph, "--measure", "closeness", expect=2)
    run_cli("threshold", "--graph", ring_graph, "--grid", "0:1:bad", expect=2)


@pytest.mark.parametrize("argv", [
    ["threshold", "--grid", "0:inf:0.5"],
    ["threshold", "--grid", "nan"],
    ["threshold", "--grid", "0.5,nan"],
    ["threshold", "--grid=-inf,0.5"],
    ["threshold", "--grid", "0:1:inf"],
    ["threshold", "--grid", "nan:1:0.5"],
    ["threshold", "--grid=-1e308:1e308:1"],
    ["centrality", "--measure", "nalpha", "--alpha-sweep", "0:inf:0.5"],
    ["centrality", "--measure", "pagerank", "--alpha-sweep", "0.5,inf"],
    ["correlate", "--events", "unread.csv", "--measures", "pagerank", "--alpha-sweep", "nan"],
])
def test_exit_2_on_non_finite_grid_values(ring_graph, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--graph", str(ring_graph)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].startswith("flowrank: error: ")
    assert "finite numbers" in out.err


def test_exit_2_on_grid_with_too_many_points(ring_graph, capsys, monkeypatch):
    def guarded_range(*args):
        # a grid list of this size would be built only if the count check were missing
        if args[-1] > 10 * cli._MAX_GRID_POINTS:
            pytest.fail(f"range{args} built past the grid point check")
        return range(*args)

    monkeypatch.setattr(cli, "range", guarded_range, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--graph", str(ring_graph), "--grid", "0:1:1e-9", "--trials", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1] == (
        f"flowrank: error: --grid has 1000000000 points; at most {cli._MAX_GRID_POINTS} are allowed")


def test_exit_2_when_the_trials_do_not_fit_in_memory(capsys):
    # a 1 x 1e12 float table cannot be allocated, so the request fails before any cascade
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--graph", str(DATA / "threshold_graph.tsv"), "--grid", "0.1",
                  "--trials", "1000000000000"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    flowrank_lines = [line for line in out.err.splitlines() if line.startswith("flowrank:")]
    assert flowrank_lines == ["flowrank: error: --trials 1000000000000 needs a 1 x 1000000000000 "
                              "outcome table, which does not fit in memory"]


def test_grid_point_limit_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
    parser = cli.build_parser()
    assert cli._parse_grid("0:1:0.25", "--grid", parser) == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(SystemExit) as exc:
        cli._parse_grid("0:1:0.2", "--grid", parser)
    assert exc.value.code == 2
    assert "--grid has 6 points; at most 5 are allowed" in capsys.readouterr().err


@pytest.mark.parametrize("steps,track", [(2, "norms"), (3, "norms"), (3, "vectors")])
def test_exit_4_when_a_simulate_step_overflows(ring_graph, capsys, steps, track):
    # at alpha = 1e300 the second step overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["simulate", "--graph", str(ring_graph), "--process", "nonconservative",
                         "--alpha", "1e300", "--steps", str(steps), "--track", track])
    assert code == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "flowrank: numerical error: nonconservative step 2 produced non-finite values\n"


def test_exit_3_on_input_problems(tmp_path, ring_graph):
    missing = tmp_path / "missing.tsv"
    run_cli("spectral", "--graph", missing, expect=3)
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\nnot a row here\n")
    run_cli("spectral", "--graph", bad, expect=3)
    badev = tmp_path / "bad.csv"
    badev.write_text("wrong,header\n")
    run_cli("influence", "--graph", ring_graph, "--events", badev, expect=3)


def _assert_input_error(out):
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("flowrank: input error: ")


@pytest.mark.parametrize("big", ["99999999999999999999", "1000000000000"])
def test_exit_3_on_out_of_range_ids(tmp_path, big):
    p = tmp_path / "big.tsv"
    p.write_text(f"0\t1\n{big}\t1\n")
    out = run_cli("spectral", "--graph", p, expect=3)
    _assert_input_error(out)
    assert f"big.tsv:2: node id {big}" in out.stderr


@pytest.mark.parametrize("row", ["a,1,99999999999999999999,rebroadcast",
                                 "a,1,-99999999999999999999,rebroadcast",
                                 "a,99999999999999999999,5,rebroadcast"])
def test_exit_3_on_event_log_values_beyond_int64(tmp_path, ring_graph, row):
    p = tmp_path / "events.csv"
    p.write_text(f"item_id,user_id,timestamp,kind\na,0,1,submit\n{row}\n")
    out = run_cli("influence", "--graph", ring_graph, "--events", p, "--kind", "global",
                  expect=3)
    _assert_input_error(out)
    assert "events.csv:3: " in out.stderr


def test_exit_3_when_nodemap_cannot_be_written(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("alice\tbob\nbob\tcarol\ncarol\talice\n")
    (tmp_path / "labels.tsv.nodemap.tsv").mkdir()
    out = run_cli("spectral", "--graph", p, expect=3)
    _assert_input_error(out)
    assert "labels.tsv.nodemap.tsv" in out.stderr


@pytest.mark.parametrize("target", ["missing/out.csv", "adir"])
def test_exit_3_when_output_cannot_be_written(tmp_path, ring_graph, target):
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = run_cli("spectral", "--graph", ring_graph, "--output", tmp_path / target, expect=3)
    _assert_input_error(out)
    assert str(tmp_path / target) in out.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_exit_3_when_the_graph_does_not_fit_in_memory(tmp_path, monkeypatch, capsys):
    # an id just below MAX_NODES is valid; stand in for the failed allocation
    def no_memory(edges, node_count=None):
        raise MemoryError
    monkeypatch.setattr(graph, "build_graph", no_memory)
    p = tmp_path / "huge.tsv"
    p.write_text(f"0\t{MAX_NODES - 1}\n")
    assert cli.main(["spectral", "--graph", str(p)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("flowrank: input error: ")
    assert f"huge.tsv: not enough memory for a graph of {MAX_NODES} nodes" in lines[0]


@pytest.mark.parametrize("first, code", [("singular", 4), ("above one", 3)])
def test_the_first_failing_alpha_of_a_sweep_decides_the_exit_code(first, code):
    # nalpha is undefined at 1/lambda1 (exit 4) and rejects alpha > 1 (exit 3)
    path = DATA / "pipeline_graph.tsv"
    singular = repr(1.0 / spectral_radius(load_edge_list(path)[0]))
    grid = [singular, "1.5"] if first == "singular" else ["1.5", singular]
    out = run_cli("centrality", "--graph", path, "--measure", "nalpha",
                  "--alpha-sweep", ",".join(grid), expect=code)
    assert out.stdout == ""
    assert ("spectral singularity" in out.stderr) == (code == 4)


def test_screen_of_global_influence_is_a_usage_error(event_log, capsys):
    gp, ev = event_log
    with pytest.raises(SystemExit) as exc:
        cli.main(["influence", "--graph", str(gp), "--events", str(ev), "--kind", "global",
                  "--screen"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines() if line.startswith("flowrank")] == [
        "flowrank: error: --screen applies to --kind local only"]


@pytest.mark.parametrize("p_cut", ["0.2", "0.5"])
def test_influence_and_correlate_agree_on_the_cohort(p_cut, capsys):
    # correlate's default funnel is influence's --screen --entropy-filter 3.0. On this
    # fixture the screen drops users at 0.2, and only the filter drops one at 0.5
    common = ["--graph", str(DATA / "pipeline_graph.tsv"),
              "--events", str(DATA / "pipeline_events.csv"), "--min-rebroadcasts", "5",
              "--p-cut", p_cut]
    assert cli.main(["correlate", *common, "--influence", "local", "--measures", "indegree",
                     "--alpha", "0", "--format", "json"]) == 0
    cohort = json.loads(capsys.readouterr().out)["cohort_users"]
    assert cli.main(["influence", *common, "--kind", "local", "--screen",
                     "--entropy-filter", "3.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(cohort) >= 3
    assert [int(row.split(",")[0]) for row in rows] == cohort


@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["centrality", "--measure", "pagerank"],
    ["simulate", "--process", "sis", "--steps", "1", "--mu", "0.2", "--beta", "0.3"],
    ["influence", "--events", "unread.csv"],
    ["correlate", "--events", "unread.csv", "--measures", "pagerank", "--alpha", "0.1"],
])
def test_only_threshold_takes_a_seed(ring_graph, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--graph", str(ring_graph), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _pagerank_into(stdout):
    return subprocess.run([sys.executable, "-m", "flowrank.cli", "centrality", "--graph",
                           DATA / "pipeline_graph.tsv", "--measure", "pagerank"],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_a_closed_stdout_pipe_exits_3_without_a_word():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _pagerank_into(write_end)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (3, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_full_stdout_exits_3_with_one_line():
    with open("/dev/full", "w") as full:
        out = _pagerank_into(full)
    assert out.returncode == 3
    assert out.stderr == "flowrank: input error: <stdout>: [Errno 28] No space left on device\n"


def test_exit_4_on_numerical_failures(ring_graph, tmp_path):
    run_cli("centrality", "--graph", ring_graph, "--measure", "alpha",
            "--alpha", "1.5", expect=4)
    # oscillating spectrum: power iteration cannot settle
    osc = tmp_path / "osc.tsv"
    osc.write_text("0\t1\n1\t0\n2\t0\n")
    run_cli("spectral", "--graph", osc, expect=4)


def test_error_messages_go_to_stderr(tmp_path):
    out = run_cli("spectral", "--graph", tmp_path / "nope.tsv", expect=3)
    assert out.stdout == ""
    assert "nope.tsv" in out.stderr


# ---------------------------------------------------------------- determinism

def test_reruns_are_byte_identical(big_graph):
    a = run_cli("threshold", "--graph", big_graph, "--grid", "0:1:0.25",
                "--trials", "30", "--seed", "9")
    b = run_cli("threshold", "--graph", big_graph, "--grid", "0:1:0.25",
                "--trials", "30", "--seed", "9")
    assert a.stdout == b.stdout


def test_output_file_matches_stdout(ring_graph, tmp_path):
    onpath = tmp_path / "out.csv"
    a = run_cli("centrality", "--graph", ring_graph, "--measure", "indegree")
    run_cli("centrality", "--graph", ring_graph, "--measure", "indegree",
            "--output", onpath)
    assert onpath.read_text() == a.stdout


def test_render_writes_the_row_by_row_bytes(monkeypatch):
    # three-row chunks put boundaries inside the table; floats go through 12 digits
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    scores = [0.1, -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 2 / 3, 1.5e14]
    users = [3, 10**12, 0, -4, 8, 8, 1, 2, 5]
    names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
    table = cli._Table(node=np.arange(9), score=np.array(scores), user=users, name=names,
                       p=None)
    rows = [{"node": i, "score": float(f"{s:.12g}"), "user": u, "name": n}
            for i, (s, u, n) in enumerate(zip(scores, users, names))]
    csv = "node,score,user,name,p\n" + "".join(
        f"{i},{s:.12g},{u},{n},\n" for i, (s, u, n) in enumerate(zip(scores, users, names)))
    empty = cli._Table(node=[], score=np.array([]))
    for report, fmt, expected in [(table, "json", json.dumps(rows, sort_keys=True) + "\n"),
                                  (table, "csv", csv),
                                  (empty, "json", "[]\n"), (empty, "csv", "node,score\n")]:
        sink = io.StringIO()
        cli._render(sink, report, fmt)
        assert sink.getvalue() == expected, fmt


def test_json_format_round_trips(ring_graph):
    out = run_cli("centrality", "--graph", ring_graph, "--measure", "eigenvector",
                  "--format", "json")
    doc = json.loads(out.stdout)
    assert isinstance(doc, list) and len(doc) == 3
    assert {row["node"] for row in doc} == {0, 1, 2}
