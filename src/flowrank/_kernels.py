"""Hot loops: CSR gather products and cascade sampling, in numpy.

Cascade coins are stateless splitmix64 words keyed by CSR edge index
(slot 2 + k), so a given (seed, trial) replays identical cascades
regardless of traversal order. ic_spread runs synchronous rounds over
the open edges, and BFS depth over them equals the round-by-round join
time. At one transmissibility it returns each node's join round (-1
never, 0 seed). Over a nondecreasing grid it returns the index of the
first grid point at which each node joins (-1 never), from a single
traversal that carries the reached set up the grid and draws each edge's
coin at most once.
"""
from __future__ import annotations

import numpy as np

from .rng import GAMMA, mix64_array, unit_floats

# The only kernel implementation; perfbench records this name in every result.
BACKEND = "numpy"

_G = np.uint64(GAMMA)
_TWO = np.uint64(2)


def gather_sum(indptr, indices, x):
    """y[j] = sum of x over the j-th index segment."""
    n = indptr.shape[0] - 1
    y = np.zeros(n, np.float64)
    nz = np.flatnonzero(indptr[1:] > indptr[:-1])
    if nz.size:
        # reduceat segment ends line up because empty segments add nothing
        y[nz] = np.add.reduceat(x[indices], indptr[nz])
    return y


def ic_spread(out_indptr, out_indices, seeds, p, base):
    """When each node joins the cascade over the edges whose coin falls below p.

    A float p gives the round at which each node joins (-1 never, 0 seed).
    A nondecreasing 1-D float64 p gives the index of the first grid point
    at which each node joins (-1 never); the seeds join at point 0.

    Both modes run one traversal, the scalar mode as a one-point grid. At
    point k, synchronous rounds follow the edges with coin < p[k], and
    every closed edge is kept as its target and coin until the last point.
    Before the rounds of a later point k, the kept edges into nodes that
    have joined are dropped, those with coin < p[k] open, and their new
    targets seed the rounds. So each edge's coin is drawn at most once,
    and the set reached at p[k] is the closure over the edges with
    coin < p[k], which is what a traversal at p[k] alone reaches.
    """
    grid = np.asarray(p, dtype=np.float64)
    scalar = grid.ndim == 0
    grid = grid.reshape(-1)
    last = grid.size - 1
    n = out_indptr.shape[0] - 1
    joined = np.full(n, -1, np.int64)
    base = np.uint64(base)
    closed_to, closed_coin = [out_indices[:0]], [np.empty(0)]
    for k, pk in enumerate(grid):
        if k == 0:
            frontier = np.unique(seeds)
        else:
            to = np.concatenate(closed_to)
            coin = np.concatenate(closed_coin)
            keep = joined[to] < 0
            to, coin = to[keep], coin[keep]
            opened = coin < pk
            frontier = np.unique(to[opened])
            closed = ~opened
            closed_to, closed_coin = [to[closed]], [coin[closed]]
        joined[frontier] = k
        r = 0
        while frontier.size:
            r += 1
            starts = out_indptr[frontier]
            counts = out_indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            prev = np.cumsum(counts) - counts
            edge_idx = np.repeat(starts - prev, counts) + np.arange(total)
            coin = unit_floats(mix64_array(base + (edge_idx.astype(np.uint64) + _TWO) * _G))
            to = out_indices[edge_idx]
            opened = coin < pk
            if k < last:
                closed = ~opened
                closed_to.append(to[closed])
                closed_coin.append(coin[closed])
            hit = to[opened]
            hit = hit[joined[hit] < 0]
            frontier = np.unique(hit)
            joined[frontier] = r if scalar else k
    return joined
