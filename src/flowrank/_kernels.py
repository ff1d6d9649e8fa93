"""Hot loops: CSR gather products and cascade sampling, in numpy.

Cascade coins are stateless splitmix64 words keyed by CSR edge index
(slot 2 + k), so a given (seed, trial) replays identical cascades
regardless of traversal order. ic_spread runs synchronous rounds over
the open edges, and BFS depth over them equals the round-by-round join
time. At one transmissibility it returns each node's join round (-1
never, 0 seed). Over a nondecreasing grid it returns the index of the
first grid point at which each node joins (-1 never), from a single
traversal up the grid: each edge's coin is drawn at most once, never for
an edge into a node that has joined, and an edge that stays closed is
filed once under the grid point that opens it, whose rounds start from
that bucket.

replay_joins replays an item's rebroadcasts over the follower graph in
frontier-at-a-time passes and returns the event positions at which
users join its cascade.
"""
from __future__ import annotations

import numpy as np

from .rng import SLOT_EDGE_BASE, stream_values, unit_floats

# The only kernel implementation; perfbench records this name in every result.
BACKEND = "numpy"


def gather_sum(indptr, indices, x):
    """y[j] = sum of x over the j-th index segment."""
    n = indptr.shape[0] - 1
    y = np.zeros(n, np.float64)
    nz = np.flatnonzero(indptr[1:] > indptr[:-1])
    if nz.size:
        # reduceat segment ends line up because empty segments add nothing
        y[nz] = np.add.reduceat(x[indices], indptr[nz])
    return y


def _segment_edges(starts, counts, total):
    # CSR positions of the segments [starts, starts + counts), concatenated
    prev = np.cumsum(counts) - counts
    return np.repeat(starts - prev, counts) + np.arange(total)


def _distinct(h, slot):
    # one copy of each node in h, in no particular order; slot is an n-long
    # work array whose entries at h are written before they are read
    at = np.arange(h.size)
    slot[h] = at
    return h[slot[h] == at]


def _file_closed(filed, grid, to, coin):
    # file each target under the first grid point whose p exceeds its coin
    j = np.searchsorted(grid, coin, side="right")
    order = np.argsort(j)
    j, to = j[order], to[order]
    cut = np.flatnonzero(j[1:] != j[:-1]) + 1
    for point, targets in zip(j[np.r_[0, cut]].tolist(), np.split(to, cut)):
        filed.setdefault(point, []).append(targets)


def ic_spread(out_indptr, out_indices, seeds, p, base):
    """When each node joins the cascade over the edges whose coin falls below p.

    A float p gives the round at which each node joins (-1 never, 0 seed).
    A nondecreasing 1-D float64 p gives the index of the first grid point
    at which each node joins (-1 never); the seeds join at point 0.

    Both modes run one traversal, the scalar mode as a one-point grid. At
    point k, synchronous rounds follow the edges with coin < p[k]. A round
    draws coins only for the edges into nodes that have not joined, since
    a coin is a pure function of its edge index and a skipped one changes
    nothing. An edge that stays closed is filed once, as its target, under
    the first grid point whose p exceeds its coin, and dropped if no point
    does. The rounds of a later point start from its own bucket, less the
    nodes that have joined since. So each edge's coin is drawn at most
    once, and the set reached at p[k] is the closure over the edges with
    coin < p[k], which is what a traversal at p[k] alone reaches.
    Frontiers are deduplicated through an n-slot marker, not by sorting.
    """
    grid = np.asarray(p, dtype=np.float64)
    scalar = grid.ndim == 0
    grid = grid.reshape(-1)
    top = grid[-1] if grid.size else 0.0    # no coin at or above it ever opens
    n = out_indptr.shape[0] - 1
    joined = np.full(n, -1, np.int64)
    waiting = np.ones(n, bool)    # joined < 0, but a bool gathers about 3x faster
    slot = np.empty(n, np.int64)
    filed = {}
    frontier = _distinct(np.asarray(seeds), slot)
    for k, pk in enumerate(grid):
        if k:
            bucket = filed.pop(k, None)
            if bucket is None:
                continue
            to = np.concatenate(bucket)
            frontier = _distinct(to[waiting[to]], slot)
        joined[frontier] = k
        waiting[frontier] = False
        r = 0
        while frontier.size:
            r += 1
            starts = out_indptr[frontier]
            counts = out_indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            edge_idx = _segment_edges(starts, counts, total)
            to = out_indices[edge_idx]
            # positions, not a mask: taking two arrays at them beats two masked copies
            fresh = np.flatnonzero(waiting[to])
            edge_idx, to = edge_idx[fresh], to[fresh]
            coin = unit_floats(stream_values(base, edge_idx + SLOT_EDGE_BASE))
            opened = coin < pk
            later = np.flatnonzero(~opened & (coin < top))
            if later.size:
                _file_closed(filed, grid, to[later], coin[later])
            frontier = _distinct(to[opened], slot)
            joined[frontier] = r if scalar else k
            waiting[frontier] = False
    return joined


def replay_joins(in_indptr, in_indices, source, users):
    """Event positions at which users join the source's cascade, ascending.

    users holds an item's rebroadcasters in event order; position i is
    users[i]. A rebroadcaster joins at its first event that comes after
    the join of someone it follows (the source counts as joined at -1),
    which is the rule of replaying the events one by one. Followers come
    from the in-CSR. Each node's join J starts at "never". In a pass,
    every node p whose J fell offers each follower u the first position
    of u after J[p], and J[u] keeps the smallest offer; passes repeat
    until no J falls. The next frontier is the nodes whose J fell,
    deduplicated through an n-slot marker as in ic_spread. Only users
    with repeat events need more than their first position: they find
    the next one by binary search over sorted user·(m+1) + position
    keys, which fit in int64 while the node count times m + 1 does.
    """
    n = in_indptr.shape[0] - 1
    m = users.shape[0]
    never = m
    first = np.full(n, never, np.int64)
    np.minimum.at(first, users, np.arange(m))
    repeats = np.count_nonzero(first < never) < m
    if repeats:
        span = m + 1
        again = np.bincount(users, minlength=n) > 1
        mine = again[users]
        keys = np.append(np.sort(users[mine] * span + np.flatnonzero(mine)),
                         np.iinfo(np.int64).max)
    joined = np.full(n, never, np.int64)
    joined[source] = -1
    slot = np.empty(n, np.int64)
    frontier = np.asarray([source], np.int64)
    while frontier.size:
        starts = in_indptr[frontier]
        counts = in_indptr[frontier + 1] - starts
        to = in_indices[_segment_edges(starts, counts, int(counts.sum()))]
        after = np.repeat(joined[frontier], counts)
        offer = first[to]
        late = offer <= after
        offer[late] = never
        if repeats:
            redo = np.flatnonzero(late & again[to])
            # after >= -1, so the first key above the query is to's next event if it has one
            hit = keys[np.searchsorted(keys, to[redo] * span + after[redo], side="right")]
            offer[redo] = np.where(hit // span == to[redo], hit % span, never)
        better = offer < joined[to]
        to, offer = to[better], offer[better]
        np.minimum.at(joined, to, offer)
        frontier = _distinct(to, slot)
    return np.sort(joined[(joined >= 0) & (joined < never)])
