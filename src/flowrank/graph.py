"""Sparse directed graphs and the linear operators built on them.

Storage is CSR in both directions (grouped by source and by destination)
so left vector-matrix products against A, the column-stochastic transfer
matrix, and the replication matrix are single gather passes. Graphs are
immutable after construction.

Edge direction convention: an edge (a, b) points a -> b. Row vectors act
from the left, so (x @ A)[j] sums x over the in-neighbors of j.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import InputFormatError

_INT_TOKEN = re.compile(r"[+-]?\d+\Z")
# Largest node count whose sort keys n*n fit in int64 (see build_graph).
MAX_NODES = 3_037_000_499
_BLOCK_BYTES = 1 << 22      # load_edge_list reads the file in blocks of this size
_MAX_DIGITS = 18            # every decimal of this many digits fits in int64


class DanglingPolicy(enum.Enum):
    """What the transfer matrix does with mass on zero-out-degree nodes.

    UNIFORM_TELEPORT spreads it evenly over all nodes (the PageRank
    convention); SELF_RETAIN leaves it in place, which keeps raw
    conservative trajectories interpretable as mass that stopped moving.
    """

    UNIFORM_TELEPORT = "uniform-teleport"
    SELF_RETAIN = "self-retain"


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed graph in dual-CSR form.

    out_indptr/out_indices group edge targets by source (targets sorted);
    in_indptr/in_indices group edge sources by destination (sources
    sorted). Both views describe the same edge set. build_graph makes the
    arrays read-only, and spectral.spectral_radius caches lambda1 per
    graph object, so a graph must never be modified after construction.
    """

    node_count: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.out_indices.shape[0])

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[node]:self.out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[node]:self.in_indptr[node + 1]]

    def edges(self) -> np.ndarray:
        """Edge array of shape (E, 2), sorted by (source, target)."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), np.diff(self.out_indptr))
        return np.column_stack((src, self.out_indices))

    def reverse(self) -> "DirectedGraph":
        """Graph with every edge flipped; shares the stored arrays."""
        return DirectedGraph(
            node_count=self.node_count,
            out_indptr=self.in_indptr,
            out_indices=self.in_indices,
            in_indptr=self.out_indptr,
            in_indices=self.out_indices,
            out_degree=self.in_degree,
            in_degree=self.out_degree,
        )


def build_graph(edges, node_count: int | None = None) -> DirectedGraph:
    """Build an immutable graph from an iterable of (src, dst) pairs.

    Duplicate edges collapse to one, self-loops are dropped, and ids must
    be nonnegative integers (1.0 is accepted, 1.5 is not). With
    `node_count` unset the graph spans 0..max id; ids at or above an
    explicit `node_count` are an error, and so is a node count above
    MAX_NODES.

    Edges are ordered by sorting the 1-D keys src*n + dst and dst*n + src,
    which is why n*n must fit in int64.
    """
    arr = _edge_array(edges)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be (src, dst) pairs")
    if arr.size and arr.min() < 0:
        raise ValueError("negative node id")
    keep = arr[:, 0] != arr[:, 1]
    src, dst = arr[keep, 0], arr[keep, 1]
    top = max(int(src.max()), int(dst.max())) if src.size else -1
    if node_count is None:
        if top < 0:
            raise ValueError("empty graph")
        node_count = top + 1
    elif node_count <= 0:
        raise ValueError("empty graph")
    elif top >= node_count:
        raise ValueError(f"node id {top} out of range for node_count={node_count}")
    if node_count > MAX_NODES:
        raise ValueError(f"node count {node_count} exceeds the limit of {MAX_NODES}")

    n = node_count
    key = np.sort(src * n + dst)
    if key.size:
        fresh = np.empty(key.size, dtype=bool)
        fresh[0] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
    # keys sort by (src, dst): targets come grouped by source and sorted
    src, out_indices = np.divmod(key, n)
    in_indices = np.sort(out_indices * n + src) % n
    out_degree = np.bincount(src, minlength=n).astype(np.int64)
    in_degree = np.bincount(out_indices, minlength=n).astype(np.int64)

    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degree, out=out_indptr[1:])
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=in_indptr[1:])

    for a in (out_indptr, out_indices, in_indptr, in_indices, out_degree, in_degree):
        a.setflags(write=False)
    return DirectedGraph(
        node_count=n,
        out_indptr=out_indptr,
        out_indices=out_indices,
        in_indptr=in_indptr,
        in_indices=in_indices,
        out_degree=out_degree,
        in_degree=in_degree,
    )


def _edge_array(edges) -> np.ndarray:
    """edges as an int64 array; ValueError for an id that int64 cannot hold exactly.

    Integral floats such as 1.0 pass; 1.5, nan and inf do not.
    """
    given = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    with np.errstate(invalid="ignore"):     # nan and inf cast to garbage, caught below
        arr = given.astype(np.int64, copy=False)
    if arr is not given and (arr != given).any():
        raise ValueError(f"node id {given[arr != given][0]} is not an int64 integer")
    return arr


def _as_weight_vector(g: DirectedGraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != g.node_count:
        raise ValueError(f"weight vector must have length {g.node_count}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values in weight vector")
    return arr


def adjacency_apply(g: DirectedGraph, x) -> np.ndarray:
    """y = x @ A: each node collects the weight of its in-neighbors."""
    xv = _as_weight_vector(g, x)
    return _kernels.gather_sum(g.in_indptr, g.in_indices, xv)


def transfer_apply(g: DirectedGraph, x, delta: float,
                   dangling: DanglingPolicy = DanglingPolicy.UNIFORM_TELEPORT) -> np.ndarray:
    """y = x @ T with T = delta*I + (1-delta) * D^-1 A.

    Column sums of T are exactly 1 once the chosen dangling policy
    reassigns the mass of zero-out-degree nodes, so total weight is
    conserved to rounding.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    xv = _as_weight_vector(g, x)
    inv_out = np.zeros(g.node_count, dtype=np.float64)
    live = g.out_degree > 0
    inv_out[live] = 1.0 / g.out_degree[live]
    y = _kernels.gather_sum(g.in_indptr, g.in_indices, xv * inv_out)
    sunk = ~live
    if sunk.any():
        if dangling is DanglingPolicy.UNIFORM_TELEPORT:
            y += xv[sunk].sum() / g.node_count
        else:
            y[sunk] += xv[sunk]
    if delta != 0.0:
        return delta * xv + (1.0 - delta) * y
    return y


def replication_apply(g: DirectedGraph, x, delta: float, alpha: float) -> np.ndarray:
    """y = x @ R with R = (delta/alpha)*I + A.

    The diagonal term is the retained-copy rate per unit of attenuation;
    delta > 0 with alpha = 0 leaves R undefined.
    """
    if delta < 0.0 or alpha < 0.0:
        raise ValueError("delta and alpha must be >= 0")
    if delta > 0.0 and alpha == 0.0:
        raise ValueError("undefined self-replication: delta > 0 requires alpha > 0")
    xv = _as_weight_vector(g, x)
    y = _kernels.gather_sum(g.in_indptr, g.in_indices, xv)
    if delta != 0.0:
        y += (delta / alpha) * xv
    return y


def indegree_vector(g: DirectedGraph) -> np.ndarray:
    """In-degree of every node as a float vector (x0 = e @ A)."""
    return g.in_degree.astype(np.float64)


def load_edge_list(path) -> tuple[DirectedGraph, list[str] | None]:
    """Read a TSV edge list (src<TAB>dst per line, '#' comment lines).

    If every token is a decimal integer the ids are used directly
    (gaps become isolated nodes); ids must lie in [0, MAX_NODES). Otherwise
    tokens are treated as string labels, mapped to dense ids in sorted
    order, and the mapping is written next to the input as
    <input>.nodemap.tsv (label<TAB>index). Returns (graph, labels or None).

    Plain digits<TAB>digits lines, after any leading lines that start
    with '#', are parsed in numpy blocks; empty lines that end the file
    are skipped. Labels, comment lines after that header, any other blank
    line, carriage returns, and ids of more than 18 digits send the file
    to a line-by-line scanner, which gives the same result and names the
    line of an error.
    """
    path = Path(path)
    try:
        ids, labels = _read_int_edges(path), None
        if ids is None:
            ids, labels = _scan_edge_list(path)
        if labels is not None:
            with open(str(path) + ".nodemap.tsv", "w", encoding="utf-8") as fh:
                fh.writelines(f"{lab}\t{i}\n" for i, lab in enumerate(labels))
    except OSError as exc:
        raise InputFormatError(str(exc), path=str(path)) from exc
    try:
        graph = build_graph(ids.reshape(-1, 2))
    except ValueError as exc:
        raise InputFormatError(str(exc), path=str(path)) from exc
    except MemoryError as exc:
        raise InputFormatError(f"not enough memory for a graph of {int(ids.max()) + 1} nodes",
                               path=str(path)) from exc
    return graph, labels


def _line_blocks(fh):
    """Blocks of about _BLOCK_BYTES from a binary file, each ending in a newline.

    A block's trailing run of empty lines is carried to the next block
    and dropped at the end of the file, so the empty lines that end many
    files do not fail the last block. A run followed by data still does.
    """
    run = b""
    while block := fh.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
        if run:
            block, run = run + block, b""
        if block.endswith(b"\n\n"):
            body = block.rstrip(b"\n")
            cut = len(body) + 1 if body else 0      # keep the newline that ends the last line
            block, run = block[:cut], block[cut:]
        if block:
            yield block


def _digit_fields(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The int64 values of the decimal fields buf[start:start + length] of a uint8 view.

    None if a field is empty, longer than _MAX_DIGITS, or holds any byte
    but an ASCII digit: the row scanners decide those. One vectorised
    pass per digit position.
    """
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    # the k-th byte back from a field's end weighs 10**k; bytes before a shorter
    # field count as 0, and a byte that is not a digit wraps past 9
    last = starts + lengths - 1
    values = np.zeros(lengths.size, dtype=np.int64)
    top = 0
    for k in range(int(lengths.max())):
        digits = (buf.take(last - k, mode="clip") - 48) * (lengths > k)
        top = max(top, int(digits.max()))
        values += digits.astype(np.int64) * 10**k
    return values if top <= 9 else None


def _read_int_edges(path: Path) -> np.ndarray | None:
    """Flat src, dst, src, dst, ... ids of a plain integer edge list, read in blocks.

    Leading lines that start with '#' (a SNAP-style header) are skipped;
    after them every block must be plain digits<TAB>digits lines. Returns
    None when only _scan_edge_list can tell the outcome: any other line,
    an id outside [0, MAX_NODES), or no edges.
    """
    parts = []
    with open(path, "rb") as fh:
        while fh.peek(1)[:1] == b"#":
            line = fh.readline()
            # the scanner reads UTF-8 text, where a bare \r ends a line too
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if b"\r" in line.rstrip(b"\r\n"):
                return None
        for block in _line_blocks(fh):
            ids = _bulk_ids(block)
            if ids is None:
                return None
            parts.append(ids)
    ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return ids if ids.size and ids.max() < MAX_NODES else None


def _bulk_ids(block: bytes) -> np.ndarray | None:
    """The ids of a block made only of digits<TAB>digits lines, else None."""
    buf = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((buf == 9) | (buf == 10))
    # fields alternate tab, newline; the block ends in a newline
    if seps.size % 2 or (buf[seps[0::2]] != 9).any() or (buf[seps[1::2]] != 10).any():
        return None
    return _digit_fields(buf, *_field_table(seps))


def _field_table(seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the fields of a block, each ending at its separator in `seps`."""
    starts = np.empty_like(seps)
    starts[:1] = 0
    starts[1:] = seps[:-1] + 1
    return starts, seps - starts


def _scan_edge_list(path: Path) -> tuple[np.ndarray, list[str] | None]:
    """Line-by-line reader: the reference for labels, messages and line numbers."""
    rows: list[tuple[int, str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputFormatError(
                    f"expected src<TAB>dst, got {line!r}", path=str(path), line=lineno)
            a, b = parts[0].strip(), parts[1].strip()
            if not a or not b:
                raise InputFormatError("empty node field", path=str(path), line=lineno)
            rows.append((lineno, a, b))
    if not rows:
        raise InputFormatError("empty graph", path=str(path))
    tokens = [t for _, a, b in rows for t in (a, b)]
    if not all(_INT_TOKEN.match(t) for t in tokens):
        labels = sorted(set(tokens))
        index = {lab: i for i, lab in enumerate(labels)}
        return np.array([index[t] for t in tokens], dtype=np.int64), labels
    for lineno, a, b in rows:
        for value in (int(a), int(b)):
            if value < 0:
                raise InputFormatError("negative node id", path=str(path), line=lineno)
            if value >= MAX_NODES:
                raise InputFormatError(f"node id {value} is not below the limit {MAX_NODES}",
                                       path=str(path), line=lineno)
    return np.array([int(t) for t in tokens], dtype=np.int64), None


def write_edge_list(path, edges) -> None:
    """Write integer (src, dst) pairs as the TSV format load_edge_list reads."""
    arr = _edge_array(edges)
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in arr:
            fh.write(f"{int(a)}\t{int(b)}\n")
