"""The numpy kernels: CSR gather sums and cascade rounds."""
import numpy as np

from flowrank import _kernels, build_graph
from flowrank.rng import trial_base

from oracles import random_edges


def test_gather_sum_handles_empty_segments():
    # dangling tail nodes exercise the reduceat index edge case
    g = build_graph([(0, 1), (0, 2)], node_count=6)
    x = np.arange(6, dtype=np.float64)
    y = _kernels.gather_sum(g.in_indptr, g.in_indices, x)
    assert np.array_equal(y, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    x2 = np.ones(6)
    y2 = _kernels.gather_sum(g.in_indptr, g.in_indices, x2)
    assert np.array_equal(y2, [0.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_cascade_rounds_are_bfs_depths():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    base = np.uint64(trial_base(0, 0))
    rounds = _kernels.ic_spread(g.out_indptr, g.out_indices,
                                np.array([0], dtype=np.int64), 1.0, base)
    assert np.array_equal(rounds, [0, 1, 2, 3])


def test_disconnected_targets_unreachable(seed=3):
    g = build_graph(random_edges(40, 60, seed), node_count=50)
    seeds = np.array([0], dtype=np.int64)
    base = np.uint64(trial_base(7, 0))
    rounds = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, 1.0, base)
    reachable = np.flatnonzero(rounds >= 0)
    # nodes 40..49 have no incident edges at all
    assert np.all(reachable < 40)
