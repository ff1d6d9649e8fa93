"""Hot loops: CSR gather products and cascade sampling, in numpy.

Cascade coins are stateless splitmix64 words keyed by CSR edge index
(slot 2 + k), so a given (seed, trial) replays identical cascades
regardless of traversal order. ic_spread returns the round at which
each node joins (-1 = never, 0 = seed); it runs synchronous rounds,
and BFS depth over open edges equals the round-by-round join time.
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
    """Join round of every node over the edges whose coin falls below p."""
    n = out_indptr.shape[0] - 1
    rounds = np.full(n, -1, np.int64)
    rounds[seeds] = 0
    frontier = np.unique(seeds)
    base = np.uint64(base)
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
        z = mix64_array(base + (edge_idx.astype(np.uint64) + _TWO) * _G)
        hit = out_indices[edge_idx][unit_floats(z) < p]
        hit = hit[rounds[hit] < 0]
        frontier = np.unique(hit)
        rounds[frontier] = r
    return rounds
