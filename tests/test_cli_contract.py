"""The CLI failure contract, property-tested in-process.

Whatever the input files and flags, `cli.main` returns 0, 3 or 4, or
argparse exits with 2. A failed run writes nothing to stdout, puts one
`flowrank` line on stderr and leaves no --output file. With the
committed fixtures unchanged and an output path that can be written, an
input error (exit 3) would be a program fault, so it fails the test.
A stdout that fails on some write exits 3 too: with that one line, or
with none when its reader has gone.
"""
import contextlib
import errno
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from flowrank import cli

DATA = Path(__file__).parent / "data"
GRAPH = (DATA / "pipeline_graph.tsv").read_bytes()
EVENTS = (DATA / "pipeline_events.csv").read_bytes()
_ERROR_LINE = re.compile(r"^flowrank( \w+)?: ")


def _flags(*choices):
    # one flag with a value drawn from a small set, or the flag left out
    return hst.sampled_from([[]] + [list(c) for c in choices])


_COMMANDS = {
    "spectral": [_flags(("--max-iter", "3"), ("--max-iter", "5000"))],
    "centrality": [hst.sampled_from([["--measure", m] for m in cli._CLI_MEASURES]),
                   _flags(("--alpha", "0.05"), ("--alpha", "0.85")),
                   _flags(("--alpha-sweep", "0.05:0.15:0.05"), ("--alpha-sweep", "0.1,0.5"))],
    "simulate": [hst.sampled_from([["--process", p]
                                   for p in ("conservative", "nonconservative", "sis")]),
                 hst.sampled_from([["--steps", "0"], ["--steps", "3"]]),
                 _flags(("--alpha", "0.1"), ("--alpha", "0.85")),
                 _flags(("--mu", "0.2", "--beta", "0.3")),
                 _flags(("--x0", "indegree"), ("--x0", "point:1"), ("--x0", "point:9999")),
                 _flags(("--track", "vectors"), ("--dangling", "uniform"))],
    "threshold": [hst.sampled_from([["--grid", "0:1:0.5"], ["--grid", "0.3,0.1"]]),
                  hst.sampled_from([["--trials", "1"], ["--trials", "4"]]),
                  _flags(("--seed", "7"))],
    "influence": [_flags(("--kind", "global")),
                  _flags(("--window", "3"), ("--window", "0"), ("--mode", "twitter")),
                  _flags(("--min-items", "1"), ("--min-rebroadcasts", "5")),
                  _flags(("--screen",), ("--screen", "--active-users", "200"),
                         ("--screen", "--active-users", "3")),
                  _flags(("--entropy-filter", "1.0"))],
    "correlate": [hst.sampled_from([["--measures", "pagerank"], ["--measures", "nalpha,indegree"]]),
                  _flags(("--alpha", "0.05"), ("--alpha-sweep", "0.02:0.06:0.02")),
                  _flags(("--influence", "global")),
                  _flags(("--min-rebroadcasts", "0"), ("--min-rebroadcasts", "5")),
                  _flags(("--no-spam-filter",), ("--no-significance",)),
                  _flags(("--active-users", "3"))],
}


@hst.composite
def _mangled(draw, data: bytes) -> bytes:
    """A fixture with one small change."""
    kind = draw(hst.sampled_from(["truncate", "flip", "crlf", "extra", "missing", "empty",
                                  "non-utf8"]))
    lines = data.split(b"\n")
    at = draw(hst.integers(0, len(data) - 1))
    row = draw(hst.integers(0, len(lines) - 2))
    sep = b"\t" if b"\t" in lines[0] else b","
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(hst.integers(1, 255))]) + data[at + 1:]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind in ("extra", "missing"):
        fields = lines[row].split(sep)
        lines[row] = sep.join(fields + [b"7"] if kind == "extra" else fields[:-1])
        return b"\n".join(lines)
    if kind == "empty":
        return b""
    return data[:at] + b"\xff\xfe" + data[at:]


@hst.composite
def _invocations(draw):
    command = draw(hst.sampled_from(sorted(_COMMANDS)))
    flags = [arg for part in _COMMANDS[command] for arg in draw(part)]
    # the fixtures as committed, or one of them mangled
    files = ["graph", "events"] if command in ("influence", "correlate") else ["graph"]
    target = draw(hst.sampled_from([None] + files))
    graph = draw(_mangled(GRAPH)) if target == "graph" else GRAPH
    events = draw(_mangled(EVENTS)) if target == "events" else EVENTS
    fmt = draw(hst.sampled_from(["csv", "json"]))
    output = draw(hst.sampled_from([None, "out.txt", "missing/out.txt", "adir"]))
    return command, flags, graph, events, fmt, output, target is None


@settings(max_examples=400, deadline=None)
@given(_invocations())
def test_every_failure_reaches_its_exit_code_and_writes_nothing(invocation):
    command, flags, graph, events, fmt, output, pristine = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.tsv").write_bytes(graph)
        (tmp / "e.csv").write_bytes(events)
        (tmp / "adir").mkdir()
        argv = [command, "--graph", str(tmp / "g.tsv"), "--format", fmt, *flags]
        if command in ("influence", "correlate"):
            argv += ["--events", str(tmp / "e.csv")]
        if output:
            argv += ["--output", str(tmp / output)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, (argv, stderr.getvalue())
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            assert (stdout.getvalue() == "") == bool(output), argv
            return
        assert stdout.getvalue() == "", argv
        flagged = [line for line in stderr.getvalue().splitlines() if _ERROR_LINE.match(line)]
        assert len(flagged) == 1, (argv, stderr.getvalue())
        if code != 2:
            assert stderr.getvalue() == flagged[0] + "\n", argv
        if output:
            assert not (tmp / output).is_file(), argv
        if pristine and output in (None, "out.txt"):
            assert code != 3, (argv, stderr.getvalue())


class _FailingSink(io.StringIO):
    """A stdout whose n-th write raises `error` (and so does every later one)."""

    def __init__(self, n: int, error: OSError):
        super().__init__()
        self.n, self.error, self.writes = n, error, 0

    def write(self, text):
        self.writes += 1
        if self.writes >= self.n:
            raise self.error
        return super().write(text)


@hst.composite
def _stdout_runs(draw):
    command = draw(hst.sampled_from(sorted(_COMMANDS)))
    flags = [arg for part in _COMMANDS[command] for arg in draw(part)]
    fmt = draw(hst.sampled_from(["csv", "json"]))
    n = draw(hst.integers(1, 3))
    broken = draw(hst.booleans())
    return command, flags, fmt, n, broken


@settings(max_examples=100, deadline=None)
@given(_stdout_runs())
def test_a_failing_stdout_exits_3(run):
    command, flags, fmt, n, broken = run
    error = (BrokenPipeError(errno.EPIPE, "Broken pipe") if broken
             else OSError(errno.ENOSPC, "No space left on device"))
    argv = [command, "--graph", str(DATA / "pipeline_graph.tsv"), "--format", fmt, *flags]
    if command in ("influence", "correlate"):
        argv += ["--events", str(DATA / "pipeline_events.csv")]
    sink, stderr = _FailingSink(n, error), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if sink.writes < n:
        # the run ended before the failing write: a usage or numerical error, or success
        assert "<stdout>" not in stderr.getvalue(), argv
        return
    assert code == 3, argv
    expected = "" if broken else "flowrank: input error: <stdout>: [Errno 28] No space left on device\n"
    assert stderr.getvalue() == expected, argv


@pytest.mark.parametrize("argv, flag", [
    (["influence", "--kind", "local", "--screen", "--active-users", "3"], "--active-users"),
    (["influence", "--kind", "local", "--screen", "--active-users", "0"], "--active-users"),
    (["influence", "--kind", "local", "--screen", "--window", "3", "--active-users", "3"],
     "--active-users"),
    (["influence", "--kind", "local", "--screen", "--window", "100000"], "--window"),
    (["influence", "--window", "0"], "--window"),
    (["influence", "--screen", "--p-cut", "0"], "--p-cut"),
    (["correlate", "--influence", "local", "--active-users", "3", "--measures", "pagerank",
      "--alpha", "0.05"], "--active-users"),
])
def test_a_screen_option_the_log_rules_out_is_a_usage_error(argv, flag):
    # an urn of N active users must hold the window's draws and each user's followers
    argv = argv + ["--graph", str(DATA / "pipeline_graph.tsv"),
                   "--events", str(DATA / "pipeline_events.csv")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2 and stdout.getvalue() == ""
    assert stderr.getvalue().splitlines()[-1].startswith(f"flowrank: error: {flag} "), argv


def test_an_empty_cohort_is_not_screened():
    # no submitter has 1000 items, so no urn is drawn and the window is never checked
    argv = ["influence", "--kind", "local", "--screen", "--window", "100000",
            "--min-items", "1000", "--graph", str(DATA / "pipeline_graph.tsv"),
            "--events", str(DATA / "pipeline_events.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert len(stdout.getvalue().splitlines()) == 1     # the header alone
