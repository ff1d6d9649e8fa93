"""Cross-layer identities: independent cascades against the walk series.

An independent cascade at transmissibility p reaches a node only along a
path of open edges, so the expected reach sigma_p(v) of a cascade seeded
at v is at most the walk sum over k of e_v (pA)^k, which is
alpha_centrality(g, s=e_v, alpha=p) summed over the nodes. The two are
equal when every node has at most one walk from v, as on out-forests:
the live-edge view of Kempe, Kleinberg & Tardos, KDD 2003.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from flowrank import alpha_centrality, build_graph, cascade_rounds, is_acyclic, spectral_radius

from oracles import live_edge_reach

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


@hst.composite
def _graphs(draw):
    """Graphs of 1-7 nodes with at most 12 edges, cycles allowed."""
    n = draw(hst.integers(1, 7))
    pairs = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                           max_size=12))
    return build_graph(pairs, node_count=n)


@hst.composite
def _out_forests(draw):
    """Out-forests of 1-13 nodes: each node has at most one parent, labels shuffled."""
    n = draw(hst.integers(1, 13))
    label = draw(hst.permutations(range(n)))
    pairs = []
    for i in range(1, n):
        parent = draw(hst.one_of(hst.none(), hst.integers(0, i - 1)))
        if parent is not None:
            pairs.append((label[parent], label[i]))
    return build_graph(pairs, node_count=n)


@settings(max_examples=80, deadline=None)
@given(g=hst.one_of(_graphs(), _out_forests()), pick=hst.integers(0, 12),
       frac=hst.floats(0.0, 0.95))
def test_cascade_reach_is_at_most_the_walk_sum(g, pick, frac):
    v = pick % g.node_count
    lam = spectral_radius(g)
    p = frac / lam if lam > 0.0 else frac
    seed = np.zeros(g.node_count)
    seed[v] = 1.0
    walks = float(alpha_centrality(g, s=seed, alpha=p, tol=1e-15).values.sum())
    sigma = live_edge_reach(g.edges(), v, p)
    assert sigma <= walks * (1.0 + 1e-12)
    if is_acyclic(g) and g.in_degree.max() <= 1:
        # an out-forest: one walk to each reachable node
        assert sigma == pytest.approx(walks, rel=1e-12, abs=0.0)


def test_live_edge_reach_of_the_diamond():
    # node 3 is reached with probability 1 - (1 - p^2)^2; the walk sum counts both paths
    p = 0.6
    assert live_edge_reach(DIAMOND, 0, p) == pytest.approx(1.0 + 2 * p + 1.0 - (1.0 - p * p) ** 2,
                                                           rel=1e-15)
    g = build_graph(DIAMOND)
    walks = alpha_centrality(g, s=[1.0, 0.0, 0.0, 0.0], alpha=p).values.sum()
    assert walks == pytest.approx(1.0 + 2 * p + 2 * p * p, rel=1e-12)


@pytest.mark.parametrize("edges, seed, p", [
    (DIAMOND, 0, 0.6),
    ([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7)], 0, 0.7),     # out-tree
    ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (1, 4)], 0, 0.5),     # cyclic
    ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], 2, 0.9),
])
def test_cascade_rounds_mean_matches_the_exact_reach(edges, seed, p):
    g = build_graph(edges)
    sizes = np.array([np.count_nonzero(cascade_rounds(g, [seed], p, rng_seed=19, trial=t) >= 0)
                      for t in range(4000)])
    stderr = sizes.std(ddof=1) / np.sqrt(sizes.size)
    assert abs(sizes.mean() - live_edge_reach(g.edges(), seed, p)) <= 4.0 * stderr
