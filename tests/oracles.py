"""Independent dense/matrix oracles used across the test suite.

Everything here is built straight from edge lists with numpy.linalg,
never through the package's CSR kernels, so agreement between the two
routes is meaningful.
"""
from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from flowrank import DanglingPolicy
from flowrank.rng import SLOT_EDGE_BASE, stream_value, unit_float


def edges_chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def edges_ring(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def edges_star(leaves: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, leaves + 1)]


def edges_complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def random_sc_edges(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """Ring plus `extra` random edges: strongly connected by construction."""
    rng = np.random.default_rng(seed)
    edges = edges_ring(n)
    pairs = rng.integers(0, n, size=(extra, 2))
    edges.extend((int(a), int(b)) for a, b in pairs if a != b)
    return edges


def random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))
    edges = [(int(a), int(b)) for a, b in pairs if a != b]
    if not edges:
        edges = [(0, min(1, n - 1))]
    return edges


def out_regular_sc_edges(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Every node gets exactly d out-edges: its ring successor plus d-1
    random distinct targets. Strongly connected, and A e = d e exactly."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        targets = {(i + 1) % n}
        while len(targets) < d:
            j = int(rng.integers(0, n))
            if j != i:
                targets.add(j)
        edges.extend((i, j) for j in sorted(targets))
    return edges


def dense_adjacency(edges, n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for src, dst in edges:
        if src != dst:
            a[src, dst] = 1.0
    return a


def dense_transfer(a: np.ndarray, delta: float,
                   policy: DanglingPolicy = DanglingPolicy.UNIFORM_TELEPORT) -> np.ndarray:
    n = a.shape[0]
    deg = a.sum(axis=1)
    hop = np.zeros_like(a)
    for i in range(n):
        if deg[i] > 0:
            hop[i] = a[i] / deg[i]
        elif policy is DanglingPolicy.UNIFORM_TELEPORT:
            hop[i] = 1.0 / n
        else:
            hop[i, i] = 1.0
    return delta * np.eye(n) + (1.0 - delta) * hop


def dense_replication(a: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    n = a.shape[0]
    if delta == 0.0:
        return a.copy()
    return (delta / alpha) * np.eye(n) + a


def conservative_fixed_point(a: np.ndarray, x0: np.ndarray, alpha: float, delta: float,
                             policy: DanglingPolicy) -> np.ndarray:
    """(1-alpha) x0 (I - alpha T)^-1 by dense solve."""
    t = dense_transfer(a, delta, policy)
    n = a.shape[0]
    return (1.0 - alpha) * np.linalg.solve(np.eye(n) - alpha * t.T, x0)


def nonconservative_sum(a: np.ndarray, x0: np.ndarray, alpha: float, delta: float) -> np.ndarray:
    """x0 (I - alpha R)^-1 by dense solve."""
    r = dense_replication(a, delta, alpha)
    n = a.shape[0]
    return np.linalg.solve(np.eye(n) - alpha * r.T, x0)


def sequential_cascade(edges, submitter: int, users) -> tuple[list[int], set[tuple[int, int]]]:
    """Members in join order and parent edges, replaying rebroadcasts one by one.

    An edge (a, b) means "a follows b". A rebroadcaster joins when it
    follows at least one member already in the cascade at its event; all
    such members become its parents. Repeat events of a member are skipped.
    """
    followees: dict[int, set[int]] = {}
    for a, b in edges:
        if a != b:
            followees.setdefault(int(a), set()).add(int(b))
    order = [int(submitter)]
    members = {int(submitter)}
    parents: set[tuple[int, int]] = set()
    for user in map(int, users):
        if user in members:
            continue
        found = followees.get(user, set()) & members
        if found:
            members.add(user)
            order.append(user)
            parents.update((p, user) for p in found)
    return order, parents


def cascade_bfs_depths(out_indptr, out_indices, seeds, p: float, base: int) -> list[int]:
    """Hops from the seeds to each node over the open edges (-1 never reached).

    Out-edge k (CSR position) is open when its coin
    unit_float(stream_value(base, 2 + k)), the package's scalar reference
    stream, is below p. A plain breadth-first search, one edge at a time.
    """
    indptr = [int(x) for x in out_indptr]
    indices = [int(x) for x in out_indices]
    depth = [-1] * (len(indptr) - 1)
    queue = deque()
    for s in map(int, seeds):
        if depth[s] < 0:
            depth[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if depth[v] < 0 and unit_float(stream_value(base, SLOT_EDGE_BASE + k)) < p:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def live_edge_reach(edges, seed: int, p: float) -> float:
    """Exact expected independent-cascade reach of `seed`, the seed included.

    Sums, over all 2^E live-edge sets (each edge open with probability
    p), the probability of the set times the number of nodes it connects
    to the seed (Kempe, Kleinberg & Tardos, KDD 2003). E is at most 12.
    """
    edges = [(int(a), int(b)) for a, b in edges]
    if len(edges) > 12:
        raise ValueError("live_edge_reach enumerates at most 12 edges")
    terms = []
    for bits in itertools.product((False, True), repeat=len(edges)):
        prob = 1.0
        out: dict[int, list[int]] = {}
        for (a, b), live in zip(edges, bits):
            prob *= p if live else 1.0 - p
            if live:
                out.setdefault(a, []).append(b)
        seen = {int(seed)}
        stack = list(seen)
        while stack:
            for v in out.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        terms.append(prob * len(seen))
    return math.fsum(terms)
