"""Block-wise ingest agrees with the line-by-line readers.

load_edge_list and read_event_log parse plain files in numpy blocks and
hand every other file, and every violation, to the line scanners. These
properties feed both routes the same small files, with the block size
shrunk so that lines straddle block boundaries, and require the same
graph and labels, the same log, or the same error and line.
"""
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as hst

from flowrank import (EventLog, FlowrankError, InputFormatError, load_edge_list,
                      read_event_log, synthesize_event_log, write_event_log)
from flowrank import empirics, graph
from flowrank.empirics import ItemEvents

PROPERTY = settings(max_examples=100, deadline=None)
DATA = Path(__file__).parent / "data"


@contextmanager
def _file(data: bytes):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "input"
        p.write_bytes(data)
        yield p


def _outcome(fn, *args):
    """A comparable summary: ('ok', value) or (error type, message, line)."""
    try:
        return "ok", fn(*args)
    except (FlowrankError, ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _join(draw, lines):
    eol = draw(hst.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = "".join(line + eol for line in lines)
    if text and draw(hst.booleans()):
        text = text[:-len(eol)]      # no final newline
    return text.encode("utf-8")


# ------------------------------------------------------------------ edge lists

# 3037000499 is MAX_NODES, the first id rejected; ids just below it are
# valid but would make build_graph allocate arrays of that length
ODD_IDS = ["007", "1_000", "+5", "٣", "-1", "a", "bob", " 2", "3 ",
           "1000000000000", "99999999999999999999", "3037000499"]
ODD_LINES = ["", "  ", "# comment", "1", "1\t2\t3", "1\t", "\t1", "0 1"]


@hst.composite
def edge_files(draw):
    """Plain integer edge lists, mangled in at most one place."""
    rows = draw(hst.lists(hst.lists(hst.integers(0, 12).map(str), min_size=2, max_size=2),
                          max_size=10))
    mangle = draw(hst.sampled_from(["none", "none", "id", "line", "bytes"])) if rows else "none"
    if mangle == "id":
        draw(hst.sampled_from(rows))[draw(hst.integers(0, 1))] = draw(hst.sampled_from(ODD_IDS))
    lines = ["\t".join(row) for row in rows]
    if mangle == "line":
        lines.insert(draw(hst.integers(0, len(lines))), draw(hst.sampled_from(ODD_LINES)))
    data = _join(draw, lines)
    if mangle == "bytes":
        data += b"\xff\t1\n"             # not UTF-8
    return data


def _graph_summary(path):
    g, labels = load_edge_list(path)
    arrays = [g.out_indptr, g.out_indices, g.in_indptr, g.in_indices, g.out_degree, g.in_degree]
    return g.node_count, [a.tolist() for a in arrays], labels


@PROPERTY
@given(data=edge_files(), block=hst.integers(1, 24))
@example(data=b"0\t1_000\n", block=24)
@example(data=b"+5\t1\n-1\t2\n", block=24)
@example(data="\u0663\t1\n".encode(), block=24)
@example(data=b"0\t1\r\n1\t2\r\n", block=24)
@example(data=b" 0\t1 \n# comment\n\n1\t2", block=3)
@example(data=b"1\n2\t3\t4\n", block=24)
@example(data=b"10\t11\n12\t13\n14\t15", block=4)
@example(data=b"0\t123456789012345678\n", block=24)             # 18 digits, above MAX_NODES
@example(data=b"0\t1234567890123456789\n", block=24)            # 19 digits
@example(data=b"007\t010\n", block=24)
@example(data=b"1a2\t3\n", block=24)
@example(data=b"1/2\t3\n", block=24)                            # '/' sits just below '0'
@example(data=b"1\t1:2\n", block=24)                            # ':' sits just above '9'
@example(data=b"# SNAP header\n#\tnodes 3\n0\t1\n1\t2\n2\t0\n", block=3)
@example(data=b"# a\r1\t2\n0\t1\n", block=24)                   # a bare \r ends the comment
@example(data=b"#\xff\n0\t1\n", block=24)
@example(data=b"0\t1\n# c\n1\t2\n", block=24)
@example(data=b"0\t1\n1\t2\n\n", block=8)                       # an empty last line
@example(data=b"0\t1\n1\t2\n\n\n", block=9)                     # empty lines split by blocks
@example(data=b"0\t1\n\n\n1\t2\n", block=5)                     # empty lines, then data
@example(data=b"\n\n", block=1)
def test_edge_list_blocks_agree_with_line_scanner(data, block):
    with _file(data) as p:
        with mock.patch.object(graph, "_BLOCK_BYTES", block):
            blocked = _outcome(_graph_summary, p)
        with mock.patch.object(graph, "_read_int_edges", lambda path: None):
            scanned = _outcome(_graph_summary, p)
    assert blocked == scanned


def test_edge_list_bulk_path_takes_plain_blocks(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_bytes(b"0\t1\n1\t2\n2\t0\n")
    with mock.patch.object(graph, "_BLOCK_BYTES", 4):
        with mock.patch.object(graph, "_scan_edge_list") as scanner:
            g, labels = load_edge_list(p)
    scanner.assert_not_called()
    assert labels is None and set(map(tuple, g.edges())) == {(0, 1), (1, 2), (2, 0)}


# ------------------------------------------------------------------ event logs

HEADER = "item_id,user_id,timestamp,kind"
ITEMS = ["a", "b", "", " a", '"a"', '"x,y"']
USERS = ["0", "3", "+5", "1_000", "٣", "-1", "x", "", "99999999999999999999"]
TIMES = ["0", "10", "-3", "1_000", "1000000000000000000", "99999999999999999999"]
KINDS = ["submit", "rebroadcast", "vote", " submit"]
ODD_ROWS = ["", "a,1", "a,1,2,submit,extra", "a,1,2"]


@hst.composite
def event_files(draw):
    """Item histories that are valid unless the file is mangled in one place."""
    distinct = draw(hst.integers(0, 3)) > 0      # users unique within an item, as digg needs
    queues = []
    for item in draw(hst.lists(hst.sampled_from(["a", "b", "c"]), max_size=3, unique=True)):
        n = draw(hst.integers(0, 4))
        times = sorted(draw(hst.lists(hst.integers(0, 20), min_size=n + 1, max_size=n + 1)))
        users = draw(hst.lists(hst.integers(0, 9), min_size=n + 1, max_size=n + 1,
                               unique=distinct))
        kinds = ["submit"] + ["rebroadcast"] * n
        queues.append([[item, str(u), str(t), k] for u, t, k in zip(users, times, kinds)])
    rows = []
    while queues:                    # interleave the items, keeping each one's order
        k = draw(hst.integers(0, len(queues) - 1))
        rows.append(queues[k].pop(0))
        queues = [q for q in queues if q]
    header = HEADER
    mangle = draw(hst.integers(0, 7)) if rows else 0
    if mangle == 1:
        col = draw(hst.integers(0, 3))
        draw(hst.sampled_from(rows))[col] = draw(hst.sampled_from([ITEMS, USERS, TIMES, KINDS][col]))
    lines = [",".join(row) for row in rows]
    if mangle == 2:
        lines[draw(hst.integers(0, len(lines) - 1))] = draw(hst.sampled_from(ODD_ROWS))
    elif mangle == 3:
        lines = draw(hst.permutations(lines))
    elif mangle == 4:
        header = draw(hst.sampled_from([" item_id,user_id,timestamp,kind", "id,u,t,k", ""]))
    return _join(draw, [header] + lines)


def _log_summary(log: EventLog):
    return log.mode, [(it.item_id, it.submitter, it.submit_time,
                       it.rebroadcast_users.dtype.str, it.rebroadcast_users.tolist(),
                       it.rebroadcast_times.dtype.str, it.rebroadcast_times.tolist())
                      for it in log.items()]


def _read_summary(path, mode):
    return _log_summary(read_event_log(path, mode))


@PROPERTY
@given(data=event_files(), block=hst.integers(1, 40), mode=hst.sampled_from(["digg", "twitter"]))
@example(data=f"{HEADER}\na,1_000,1,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,+5,1,submit\nb,-1,1,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,\u0663,1,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\r\na,1,2,submit\r\na,2,3,rebroadcast\r\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\n a , 1 ,2, submit\n\na,2,3,rebroadcast".encode(), block=5, mode="digg")
@example(data=f'{HEADER}\n"a",1,2,submit\n"x,y",1,2,submit\n'.encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,5,rebroadcast\na,0,5,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,5,submit\na,2,5,rebroadcast\na,2,6,rebroadcast\n".encode(),
         block=40, mode="digg")
@example(data=f"{HEADER}\n\x0ca,1,2,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na,,3,rebroadcast\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na,2,,rebroadcast\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,10,20,submit\na,11,21,rebroadcast\nb,12,22,submit\n".encode(),
         block=5, mode="digg")
@example(data=f"{HEADER}\na,123456789012345678,123456789012345678,submit\n".encode(),
         block=40, mode="digg")
@example(data=f"{HEADER}\na,1234567890123456789,1,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,{2**63 - 1},submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,{2**63},submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,007,010,submit\na,08,011,rebroadcast\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1a2,3,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,1/2,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1:2,3,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na,2,3,rebroadcasT\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\nab,1,2,submit\nac,2,3,submit\nab,3,4,rebroadcast\n".encode(),
         block=40, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\nab,2,3,submit\na,3,4,rebroadcast\nab,4,5,rebroadcast\n"
         .encode(), block=40, mode="twitter")
@example(data=f"{HEADER}\na,1,2,submit\nb,2,3,submit\na,3,4,rebroadcast\n".encode(),
         block=64, mode="digg")
@example(data=f"{HEADER}\nitem,1,2,submit\nitem,2,3,rebroadcast\nitem,3,4,rebroadcast\n"
         "item,4,5,rebroadcast\n".encode(), block=20, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na\x00,2,3,submit\n".encode(), block=40, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na,2,3,rebroadcast\n\n".encode(), block=31, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\na,2,3,rebroadcast\n\n\n".encode(), block=32, mode="digg")
@example(data=f"{HEADER}\na,1,2,submit\n\n\na,2,3,rebroadcast\n".encode(), block=14, mode="digg")
@example(data=f"{HEADER}\na,5,1,submit\na,3,2,rebroadcast\na,1,2,rebroadcast\na,4,3,rebroadcast\n"
         .encode(), block=40, mode="digg")             # tied times, users out of file order
@example(data=f"{HEADER}\na,5,1,submit\na,3,2,rebroadcast\na,3,2,rebroadcast\n".encode(),
         block=40, mode="twitter")                     # one user twice at one time
@example(data=f"{HEADER}\na,9,{10**18 - 1},submit\na,9,{10**18 - 1},rebroadcast\n"
         f"a,3,{10**18 - 1},rebroadcast\n".encode(), block=64, mode="twitter")
@example(data=f"{HEADER}\na,1,{2**63 - 1},submit\na,3,{2**63 - 1},rebroadcast\n"
         f"a,2,{2**63 - 1},rebroadcast\n".encode(), block=40, mode="digg")
def test_event_log_blocks_agree_with_row_scanner(data, block, mode):
    with _file(data) as p:
        with mock.patch.object(graph, "_BLOCK_BYTES", block):
            blocked = _outcome(_read_summary, p, mode)
        with mock.patch.object(empirics, "_read_plain_event_log", lambda path, mode: None):
            scanned = _outcome(_read_summary, p, mode)
    assert blocked == scanned


def test_event_log_bulk_path_takes_plain_files(tmp_path):
    p = tmp_path / "ev.csv"
    p.write_text(f"{HEADER}\na,0,10,submit\nb,1,11,submit\na,2,12,rebroadcast\n"
                 "a,3,12,rebroadcast\nb,0,20,rebroadcast\n")
    with mock.patch.object(graph, "_BLOCK_BYTES", 8):
        with mock.patch.object(empirics, "_scan_event_log") as scanner:
            log = read_event_log(p)
    scanner.assert_not_called()
    assert log.item_ids() == ["a", "b"]
    assert log.get("a").rebroadcast_users.tolist() == [2, 3]
    assert log.get("b").rebroadcast_times.tolist() == [20]


def test_an_item_hash_collision_goes_to_the_scanner(tmp_path):
    # with every weight 1 an item hashes to its byte sum, so 'ab' and 'ba' collide
    p = tmp_path / "ev.csv"
    p.write_text(f"{HEADER}\nab,0,10,submit\nba,1,11,submit\nab,2,12,rebroadcast\n")
    with mock.patch.object(empirics, "_hash_weights", lambda size: np.ones(size, np.uint64)):
        assert empirics._read_plain_event_log(p, "digg") is None
        log = read_event_log(p)
    assert log.item_ids() == ["ab", "ba"]
    assert log.get("ab").rebroadcast_users.tolist() == [2]


def test_event_log_violation_reports_scanner_line(tmp_path):
    p = tmp_path / "ev.csv"
    p.write_text(f"{HEADER}\na,0,10,submit\na,1,12,rebroadcast\na,2,11,rebroadcast\n")
    try:
        read_event_log(p)
    except InputFormatError as exc:
        assert exc.line == 4 and "timestamps decrease within item 'a'" in str(exc)
    else:
        raise AssertionError("decreasing timestamps were accepted")


@hst.composite
def event_logs(draw):
    mode = draw(hst.sampled_from(["digg", "twitter"]))
    t_max = draw(hst.sampled_from([50, 10**18]))
    items = []
    for k in range(draw(hst.integers(0, 4))):
        t0 = draw(hst.integers(0, t_max))
        users = draw(hst.lists(hst.integers(0, 30), min_size=1, max_size=8,
                               unique=mode == "digg"))
        submitter, users = users[0], users[1:]
        times = sorted(draw(hst.lists(hst.integers(t0, t0 + 5), min_size=len(users),
                                      max_size=len(users))))
        u = np.asarray(users, dtype=np.int64)
        t = np.asarray(times, dtype=np.int64)
        o = np.lexsort((u, t))
        items.append(ItemEvents(item_id=f"item{k}", submitter=submitter, submit_time=t0,
                                rebroadcast_users=u[o], rebroadcast_times=t[o]))
    return EventLog(items, mode)


@PROPERTY
@given(log=event_logs(), block=hst.integers(1, 64))
def test_event_log_write_read_round_trip(log, block):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "ev.csv"
        write_event_log(log, p)
        with mock.patch.object(graph, "_BLOCK_BYTES", block):
            back = read_event_log(p, log.mode)
    assert _log_summary(back) == _log_summary(log)


def _refuse(*args):
    raise AssertionError("a plain file went to the row scanner")


def test_fixtures_and_written_logs_never_reach_the_scanners(tmp_path):
    # the scanners are 5-15x slower: a block reader that turns these files
    # away is a performance fault even when its results are right
    snap = tmp_path / "snap.tsv"
    snap.write_bytes(b"# Directed graph\n# FromNodeId\tToNodeId\n"
                     + (DATA / "pipeline_graph.tsv").read_bytes())
    written = tmp_path / "synth.csv"
    # many editors end a file with an empty line
    padded_graph, padded_log = tmp_path / "padded.tsv", tmp_path / "padded.csv"
    padded_graph.write_bytes((DATA / "pipeline_graph.tsv").read_bytes() + b"\n\n")
    padded_log.write_bytes((DATA / "pipeline_events.csv").read_bytes() + b"\n\n")
    with mock.patch.object(graph, "_scan_edge_list", _refuse), \
            mock.patch.object(empirics, "_scan_event_log", _refuse):
        g, labels = load_edge_list(DATA / "pipeline_graph.tsv")
        with_header, _ = load_edge_list(snap)
        padded, _ = load_edge_list(padded_graph)
        load_edge_list(DATA / "threshold_graph.tsv")
        log = read_event_log(DATA / "pipeline_events.csv")
        padded_back = read_event_log(padded_log)
        synth = synthesize_event_log(g, [0, 5, 11], 2, 0.4, rng_seed=3)
        write_event_log(synth, written)
        back = read_event_log(written)
    assert labels is None and len(log) > 0
    assert with_header.edges().tolist() == g.edges().tolist()
    assert padded.edges().tolist() == g.edges().tolist()
    assert _log_summary(padded_back) == _log_summary(log)
    assert _log_summary(back) == _log_summary(synth)
