"""Seeded input generation for the benchmark, independent of flowrank.

Graphs and event logs are built here with numpy alone, including the
cascade replay that shapes the event logs, so a change to flowrank's
own generators or random streams cannot change what the benchmark
feeds the CLI. The harness caches the files per (shape, seed) and never
times their generation.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream ids keep each input's random draws independent of the others.
_STREAM = {"ring": 1, "follower": 2, "light_log": 3, "heavy_log": 4}

RING_EXTRA_OUT = 6               # uniform random out-edges per node besides the ring edge
FOLLOWER_MEAN_OUT = 7.0          # mean accounts followed (geometric, so ~1/9 follow none)
FOLLOWER_UNFOLLOWED = 0.15       # share of accounts nobody follows (zero in-degree)
LIGHT_ITEMS_PER_SUBMITTER = 3
LIGHT_REBROADCASTS = (120, 300)  # per-item range, both above --min-rebroadcasts
HEAVY_TRANSMISSIBILITY = 0.1775
HEAVY_NOISE = 0.02               # share of rebroadcasters drawn at random


@dataclass(frozen=True)
class Shape:
    """The sizes that differ between the full and the tiny inputs."""

    nodes: int
    light_submitters: int
    heavy_submitters: int       # each submits two items; one more submits one


SHAPES = {
    # About 200k nodes and 1.4M edges per graph, the scale ROADMAP names.
    "full": Shape(nodes=200_000, light_submitters=200, heavy_submitters=8),
    # For the harness self-tests: the same generators at about 1% of the size.
    "tiny": Shape(nodes=2_000, light_submitters=20, heavy_submitters=3),
}


@dataclass(frozen=True)
class Graph:
    """Edge arrays sorted by (src, dst); an edge (a, b) means a follows b."""

    nodes: int
    src: np.ndarray
    dst: np.ndarray


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[stream]])


def _dedupe(n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    src, dst = key // n, key % n
    # flowrank spans ids 0..max id, so an isolated top id would shrink it
    return Graph(int(max(src.max(), dst.max())) + 1, src, dst)


def ring_graph(shape: Shape, seed: int) -> Graph:
    """Directed ring plus uniform random edges: light-tailed, strongly connected.

    Every node has the same out-degree, so a cascade seeded anywhere
    well above threshold almost surely takes off; the sweep's work then
    varies little from seed to seed.
    """
    rng = _rng(seed, "ring")
    n, k = shape.nodes, RING_EXTRA_OUT
    ring = np.arange(n, dtype=np.int64)
    src = np.concatenate((ring, np.repeat(ring, k)))
    dst = np.concatenate(((ring + 1) % n, rng.integers(0, n, n * k)))
    return _dedupe(n, src, dst)


def follower_graph(shape: Shape, seed: int) -> Graph:
    """Heavy-tailed follower graph with unfollowed and dangling accounts.

    Out-degree (accounts followed) is geometric, so some accounts follow
    nobody. Targets are drawn by attractiveness (rank + 2)^-0.8 over a
    random ranking of the accounts, zero for a share of them, so
    in-degree has a power-law tail and some nodes are never followed;
    the graph is not strongly connected. The attractiveness sequence is
    fixed and only its assignment is random, so the largest hubs, and
    with them the duplicate edges that collapse, vary little by seed.
    """
    rng = _rng(seed, "follower")
    n = shape.nodes
    out_deg = rng.geometric(1.0 / (FOLLOWER_MEAN_OUT + 1.0), n) - 1
    weight = ((np.arange(n) + 2.0) ** -0.8)[rng.permutation(n)]
    weight[rng.random(n) < FOLLOWER_UNFOLLOWED] = 0.0
    cum = np.cumsum(weight)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    dst = np.searchsorted(cum, rng.random(src.size) * cum[-1], side="right")
    return _dedupe(n, src, np.minimum(dst, n - 1).astype(np.int64))


def _csr(n: int, keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, vals[order]


def followers_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """CSR of each node's followers (the sources of edges into it)."""
    return _csr(g.nodes, g.dst, g.src)


def _log_gaps(rng: np.random.Generator, count: int) -> np.ndarray:
    # log-uniform gaps from 1 s to about 18 h: high interval entropy
    return 1 + (2.0 ** (rng.random(count) * 16.0)).astype(np.int64)


@dataclass(frozen=True)
class Item:
    item_id: str
    submitter: int
    submit_time: int
    users: np.ndarray   # rebroadcasters in event order
    times: np.ndarray   # strictly increasing timestamps


def light_log(g: Graph, shape: Shape, seed: int) -> list[Item]:
    """A few hundred items whose early rebroadcasts mix followers and strangers.

    Each submitter has a fixed follower share, so local influence varies
    across submitters; one item in ten has clockwork gaps (interval
    entropy 0) and is dropped by the spam filter.
    """
    rng = _rng(seed, "light_log")
    fptr, fidx = followers_csr(g)
    indeg = np.diff(fptr)
    pool = np.flatnonzero(indeg >= 20)
    submitters = np.sort(rng.choice(pool, size=shape.light_submitters, replace=False))
    items = []
    t = 1_000_000
    lo, hi = LIGHT_REBROADCASTS
    for s in submitters:
        share = rng.uniform(0.0, 0.6)
        followers = fidx[fptr[s]:fptr[s + 1]]
        for _ in range(LIGHT_ITEMS_PER_SUBMITTER):
            size = int(rng.integers(lo, hi + 1))
            k = min(int(rng.binomial(size, share)), followers.size)
            chosen = rng.choice(followers, size=k, replace=False)
            taken = set(chosen.tolist()) | {int(s)}
            strangers = []
            while len(strangers) < size - k:
                u = int(rng.integers(0, g.nodes))
                if u not in taken:
                    taken.add(u)
                    strangers.append(u)
            users = np.concatenate((chosen, np.asarray(strangers, dtype=np.int64)))
            users = users[rng.permutation(users.size)]
            gaps = (np.full(size, 5, dtype=np.int64) if rng.random() < 0.1
                    else _log_gaps(rng, size))
            items.append(Item(f"L{len(items):05d}", int(s), t, users, t + np.cumsum(gaps)))
            t += 10_000_000
    return items


def _cascade(fptr, fidx, submitter: int, p: float, rng) -> np.ndarray:
    """Independent cascade to followers; members in discovery order (no submitter)."""
    reached = np.zeros(fptr.size - 1, dtype=bool)
    reached[submitter] = True
    frontier = np.array([submitter], dtype=np.int64)
    order = []
    while frontier.size:
        starts, stops = fptr[frontier], fptr[frontier + 1]
        counts = stops - starts
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        cand = fidx[offsets + np.arange(int(counts.sum()))]
        cand = cand[rng.random(cand.size) < p]
        cand = np.unique(cand[~reached[cand]])
        reached[cand] = True
        order.append(cand[rng.permutation(cand.size)])
        frontier = cand
    return np.concatenate(order) if order else np.empty(0, dtype=np.int64)


def heavy_log(g: Graph, shape: Shape, seed: int) -> list[Item]:
    """Seventeen-odd supercritical cascades with about 1.4M rebroadcasts in all.

    An item whose cascade dies out early is redrawn, so the event count
    varies little from seed to seed. A small share of rebroadcasters
    are strangers inserted at random positions; whether they join the
    follower-connected cascade is for the replay to decide.
    """
    rng = _rng(seed, "heavy_log")
    fptr, fidx = followers_csr(g)
    submitters = rng.choice(g.nodes, size=shape.heavy_submitters + 1, replace=False)
    plan = [int(s) for s in submitters[:-1] for _ in range(2)] + [int(submitters[-1])]
    items = []
    t = 1_000_000
    for s in plan:
        members = _cascade(fptr, fidx, s, HEAVY_TRANSMISSIBILITY, rng)
        while members.size < g.nodes // 100:
            members = _cascade(fptr, fidx, s, HEAVY_TRANSMISSIBILITY, rng)
        outside = np.ones(g.nodes, dtype=bool)
        outside[members] = False
        outside[s] = False
        n_noise = int(members.size * HEAVY_NOISE)
        noise = rng.choice(np.flatnonzero(outside), size=n_noise, replace=False)
        users = np.insert(members, rng.integers(0, members.size + 1, n_noise), noise)
        items.append(Item(f"H{len(items):05d}", s, t, users,
                          t + np.cumsum(_log_gaps(rng, users.size))))
        t += 100_000_000_000
    return items


def write_graph(path: Path, g: Graph) -> None:
    lines = "\n".join(f"{a}\t{b}" for a, b in zip(g.src.tolist(), g.dst.tolist()))
    path.write_text(lines + "\n", encoding="utf-8")


def write_log(path: Path, items: list[Item]) -> None:
    parts = ["item_id,user_id,timestamp,kind"]
    for it in items:
        parts.append(f"{it.item_id},{it.submitter},{it.submit_time},submit")
        parts.extend(f"{it.item_id},{u},{t},rebroadcast"
                     for u, t in zip(it.users.tolist(), it.times.tolist()))
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def read_graph(path: Path) -> Graph:
    """Parse a generated edge list back into arrays (harness use only)."""
    pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    n = int(pairs.max()) + 1
    return Graph(n, pairs[:, 0].copy(), pairs[:, 1].copy())


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build(shape_name: str, seed: int, graph_kind: str,
          log_kind: str | None) -> tuple[Graph, list[Item] | None]:
    """One workload's graph and event log, a pure function of (shape, seed)."""
    shape = SHAPES[shape_name]
    g = (ring_graph if graph_kind == "ring" else follower_graph)(shape, seed)
    if log_kind is None:
        return g, None
    return g, (light_log if log_kind == "light_log" else heavy_log)(g, shape, seed)


def _replace(path: Path, write, *args) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write(tmp, *args)
    tmp.replace(path)


def save(d: Path, graph_kind: str, g: Graph, log_kind: str | None,
         items: list[Item] | None) -> dict:
    """Write the input files into d and describe them.

    The description lists each file's path, size in bytes and sha256,
    plus node, edge, item and event counts, so two commits can be shown
    to have read identical bytes.
    """
    d.mkdir(parents=True, exist_ok=True)
    gpath = d / f"{graph_kind}.tsv"
    _replace(gpath, write_graph, g)
    meta = {"graph": {"path": str(gpath), "nodes": g.nodes, "edges": int(g.src.size),
                      "bytes": gpath.stat().st_size, "sha256": sha256(gpath)}}
    if log_kind is not None:
        lpath = d / f"{log_kind}.csv"
        _replace(lpath, write_log, items)
        meta["events"] = {"path": str(lpath), "items": len(items),
                          "events": len(items) + sum(int(it.users.size) for it in items),
                          "bytes": lpath.stat().st_size, "sha256": sha256(lpath)}
    return meta
