"""Centrality measures against dense solves and their process equivalents."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from flowrank import (
    CONSERVATIVE,
    NONCONSERVATIVE,
    ConvergenceError,
    DanglingPolicy,
    NumericalError,
    ProcessConfig,
    alpha_centrality,
    build_graph,
    conservative_steady_state,
    degree_centrality,
    eigenvector_centrality,
    indegree_vector,
    nonconservative_accumulate,
    normalized_alpha_centrality,
    pagerank,
    power_iteration,
    rank,
    spectral_radius,
)
from flowrank.centrality import SPECTRAL_GUARD, sweep

from oracles import (
    dense_adjacency,
    dense_transfer,
    edges_chain,
    edges_ring,
    random_sc_edges,
)


# -------------------------------------------------------------- worked values

def test_alpha_centrality_chain_example():
    g = build_graph(edges_chain(3))
    got = alpha_centrality(g, alpha=0.5)
    assert got.measure == "alpha"
    assert np.max(np.abs(got.values - [0.0, 1.0, 1.5])) < 1e-9


def test_normalized_alpha_chain_example():
    g = build_graph(edges_chain(3))
    got = normalized_alpha_centrality(g, alpha=0.5)
    assert np.max(np.abs(got.values - [0.0, 0.4, 0.6])) < 1e-9


def test_pagerank_cycle_is_uniform():
    g = build_graph(edges_ring(3))
    got = pagerank(g, alpha=0.85, tol=1e-13)
    assert np.max(np.abs(got.values - 1.0 / 3.0)) < 1e-10
    assert abs(got.values.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- dense solves

@pytest.mark.parametrize("alpha", [0.5, 0.85, 0.95])
def test_pagerank_matches_dense_solve(alpha):
    n = 40
    edges = random_sc_edges(n, 120, seed=3)
    g = build_graph(edges)
    got = pagerank(g, alpha=alpha, tol=1e-13).values
    T = dense_transfer(dense_adjacency(edges, n), 0.0, DanglingPolicy.UNIFORM_TELEPORT)
    s = np.full(n, 1.0 / n)
    want = (1.0 - alpha) * np.linalg.solve(np.eye(n) - alpha * T.T, s)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("alpha_frac", [0.2, 0.6, 0.9])
def test_alpha_centrality_matches_dense_solve(alpha_frac):
    n = 35
    edges = random_sc_edges(n, 100, seed=5)
    g = build_graph(edges)
    a = dense_adjacency(edges, n)
    lam = np.max(np.abs(np.linalg.eigvals(a)))
    alpha = alpha_frac / lam
    got = alpha_centrality(g, alpha=alpha, tol=1e-13).values
    s = indegree_vector(g)
    want = np.linalg.solve(np.eye(n) - alpha * a.T, s)
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_alpha_centrality_custom_start_vector():
    n = 20
    edges = random_sc_edges(n, 60, seed=7)
    g = build_graph(edges)
    s = np.random.default_rng(1).random(n)
    alpha = 0.5 / spectral_radius(g)
    got = alpha_centrality(g, s=s, alpha=alpha, tol=1e-13).values
    want = np.linalg.solve(np.eye(n) - alpha * dense_adjacency(edges, n).T, s)
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_alpha_zero_returns_start_vector_exactly():
    g = build_graph(edges_chain(4))
    got = alpha_centrality(g, alpha=0.0)
    assert np.array_equal(got.values, indegree_vector(g))


# ------------------------------------------------------- process equivalences

def test_pagerank_is_conservative_steady_state():
    # same damped fixed point, reached through the process interface
    n = 30
    g = build_graph(random_sc_edges(n, 90, seed=9))
    alpha = 0.85
    cfg = ProcessConfig(kind=CONSERVATIVE, alpha=alpha, delta=0.0,
                        dangling_policy=DanglingPolicy.UNIFORM_TELEPORT)
    x0 = np.full(n, 1.0 / n)
    via_process = conservative_steady_state(g, x0, cfg, tol=1e-13)
    via_measure = pagerank(g, alpha=alpha, tol=1e-13).values
    assert np.max(np.abs(via_process - via_measure)) < 1e-9


def test_alpha_centrality_is_nonconservative_accumulation():
    n = 30
    g = build_graph(random_sc_edges(n, 90, seed=11))
    alpha = 0.4 / spectral_radius(g)
    cfg = ProcessConfig(kind=NONCONSERVATIVE, alpha=alpha, delta=0.0)
    via_process = nonconservative_accumulate(g, indegree_vector(g), cfg, tol=1e-13)
    via_measure = alpha_centrality(g, alpha=alpha, tol=1e-13).values
    assert np.max(np.abs(via_process - via_measure)) < 1e-9 * np.max(via_measure)


# ------------------------------------------------------------------ guard band

def test_alpha_centrality_guard_band_boundary():
    g = build_graph(edges_ring(4))  # lambda1 = 1 exactly
    below = 1.0 - 2.0 * SPECTRAL_GUARD
    above = 1.0 - 0.5 * SPECTRAL_GUARD
    # below the band the call is accepted; the series is merely slow, so a
    # tiny iteration budget surfaces an honest nonconvergence instead of
    # the spectral rejection
    with pytest.raises(ConvergenceError):
        alpha_centrality(g, alpha=below, max_iter=50)
    for alpha in (above, 1.0, 2.0):
        with pytest.raises(NumericalError, match="normalized variant"):
            alpha_centrality(g, alpha=alpha)
    # comfortably subcritical converges outright
    vals = alpha_centrality(g, alpha=0.99, tol=1e-10).values
    assert np.all(np.isfinite(vals))


def test_normalized_alpha_at_singularity_rejected():
    g = build_graph(edges_ring(4))
    with pytest.raises(NumericalError, match="singularity"):
        normalized_alpha_centrality(g, alpha=1.0)


# --------------------------------------------------------- supercritical side

def test_normalized_alpha_supercritical_equals_eigenvector():
    g = build_graph(random_sc_edges(50, 200, seed=13))
    lam = spectral_radius(g)
    got = normalized_alpha_centrality(g, alpha=2.0 / lam)
    want = eigenvector_centrality(g)
    assert np.max(np.abs(got.values - want.values)) < 1e-8


def test_normalized_alpha_truncated_sum_approaches_eigenvector():
    # brute-force the normalized partial sums well past mixing
    n = 25
    edges = random_sc_edges(n, 80, seed=15)
    g = build_graph(edges)
    a = dense_adjacency(edges, n)
    lam = np.max(np.abs(np.linalg.eigvals(a)))
    alpha = 1.5 / lam
    s = indegree_vector(g)
    partial = nonconservative_accumulate(g, s, ProcessConfig(NONCONSERVATIVE, alpha),
                                         horizon=400)
    got = partial / np.abs(partial).sum()
    acc = s.copy()
    term = s.copy()
    for _ in range(400):
        term = alpha * (term @ a)
        acc = acc + term
    want = acc / np.abs(acc).sum()
    assert np.max(np.abs(got - want)) < 1e-9
    ev = normalized_alpha_centrality(g, alpha=alpha).values
    assert np.max(np.abs(got - ev)) < 1e-6


def test_normalized_alpha_subcritical_matches_normalized_series():
    g = build_graph(random_sc_edges(30, 90, seed=17))
    alpha = 0.5 / spectral_radius(g)
    raw = alpha_centrality(g, alpha=alpha, tol=1e-13).values
    got = normalized_alpha_centrality(g, alpha=alpha, tol=1e-13).values
    assert np.max(np.abs(got - raw / np.abs(raw).sum())) < 1e-12


def test_ranking_continuity_across_spectral_bound():
    # orderings just below and just above 1/lambda1 agree near the top
    g = build_graph(random_sc_edges(60, 240, seed=19))
    lam = spectral_radius(g)
    lo = rank(normalized_alpha_centrality(g, alpha=0.999 / lam)).order
    hi = rank(normalized_alpha_centrality(g, alpha=1.001 / lam)).order
    assert lo[0] == hi[0]


# -------------------------------------------------------------------- degrees

def test_degree_centrality_directions():
    g = build_graph(edges_chain(3))
    assert np.array_equal(degree_centrality(g, "in").values, [0.0, 1.0, 1.0])
    assert np.array_equal(degree_centrality(g, "out").values, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        degree_centrality(g, "sideways")


def test_eigenvector_centrality_is_unit_dominant_left_vector():
    edges = random_sc_edges(40, 150, seed=21)
    g = build_graph(edges)
    got = eigenvector_centrality(g).values
    est = power_iteration(g)
    a = dense_adjacency(edges, 40)
    assert np.max(np.abs(got @ a - est.lambda1 * got)) < 1e-7
    assert abs(np.abs(got).sum() - 1.0) < 1e-12


# --------------------------------------------------------------------- ranking

def test_rank_breaks_ties_by_node_id():
    g = build_graph(edges_ring(4))
    scores = degree_centrality(g, "in")  # all ones
    r = rank(scores)
    assert list(r.order) == [0, 1, 2, 3]
    assert list(r.ranks) == [1, 2, 3, 4]


def test_rank_orders_descending():
    g = build_graph(edges_chain(3))
    r = rank(alpha_centrality(g, alpha=0.5))
    assert list(r.order) == [2, 1, 0]
    assert list(r.ranks) == [3, 2, 1]


# ----------------------------------------------------------------- validation

def test_pagerank_validates_inputs():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError):
        pagerank(g, alpha=1.0)
    with pytest.raises(ValueError):
        pagerank(g, s=np.array([0.5, 0.5, 0.5]), alpha=0.5)  # not unit L1
    with pytest.raises(ValueError):
        pagerank(g, s=np.array([1.5, -0.5, 0.0]), alpha=0.5)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(1, 25), data=hst.data(),
       alpha=hst.floats(0.0, 0.95), policy=hst.sampled_from(DanglingPolicy))
def test_pagerank_keeps_unit_mass(n, data, alpha, policy):
    # dangling nodes included: either policy keeps the transfer column-stochastic
    edges = data.draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                                max_size=4 * n))
    g = build_graph(edges, node_count=n)
    s = np.asarray(data.draw(hst.lists(hst.floats(0.0, 1.0), min_size=n, max_size=n)))
    s = s / s.sum() if s.sum() > 0.0 else np.full(n, 1.0 / n)
    got = pagerank(g, s=s, alpha=alpha, dangling_policy=policy).values
    assert got.min() >= 0.0
    assert abs(got.sum() - 1.0) < 1e-9


def test_pagerank_convergence_error_carries_trailing_diffs():
    g = build_graph(edges_ring(3))
    with pytest.raises(ConvergenceError) as ei:
        pagerank(g, s=np.array([1.0, 0.0, 0.0]), alpha=0.85, tol=1e-15, max_iter=20)
    assert ei.value.iterations == 20
    hist = ei.value.history
    assert len(hist) == 8
    # a contraction by alpha: the L1 diffs shrink but never reach tol
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert hist[-1] > 1e-15


def test_normalized_alpha_validates_alpha():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError):
        normalized_alpha_centrality(g, alpha=-0.1)


# ------------------------------------------------------------------ alpha grid

_PUBLIC = {
    "normalized_alpha": lambda g, a, tol: normalized_alpha_centrality(g, alpha=a, tol=tol),
    "pagerank": lambda g, a, tol: pagerank(g, alpha=a, tol=tol),
    "alpha": lambda g, a, tol: alpha_centrality(g, alpha=a, tol=tol),
    "eigenvector": lambda g, a, tol: eigenvector_centrality(g),
    "indegree": lambda g, a, tol: degree_centrality(g, "in"),
    "outdegree": lambda g, a, tol: degree_centrality(g, "out"),
}


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_sweep_matches_the_public_functions_cell_by_cell(tol):
    g = build_graph(random_sc_edges(40, 160, seed=3))
    lam = spectral_radius(g)
    assert lam > 1.0    # so the guard band and the eigenvector side lie below alpha = 1
    alphas = [0.0, 0.5 / lam, (1.0 - 0.5 * SPECTRAL_GUARD) / lam,
              (1.0 + 0.5 * SPECTRAL_GUARD) / lam, 1.5 / lam, 1.0, 1.5]
    measures = ["nalpha", "pagerank", "alpha", "eigenvector", "indegree", "outdegree"]
    seen = []
    cells = sweep(g, measures, alphas, tol=tol)
    # pagerank rejects alpha = 1: the ValueError comes at that alpha, after nalpha's cell
    with pytest.raises(ValueError, match="pagerank requires alpha"):
        for alpha, measure, scores in cells:
            seen.append((alpha, measure))
            try:
                want = _PUBLIC[measure](g, alpha, tol)
            except NumericalError as exc:
                assert isinstance(scores, NumericalError), (alpha, measure)
                assert str(scores) == str(exc)
                continue
            assert (scores.measure, scores.alpha) == (want.measure, want.alpha)
            assert scores.starting_vector == want.starting_vector
            assert np.array_equal(scores.values, want.values), (alpha, measure)
    names = ["normalized_alpha", *measures[1:]]
    assert seen == [(a, m) for a in alphas[:5] for m in names] + [(1.0, "normalized_alpha")]
    undefined = {(a, m) for a, m, s in sweep(g, measures, alphas[:5], tol=tol)
                 if isinstance(s, NumericalError)}
    assert undefined == {(alphas[2], "normalized_alpha"), (alphas[3], "normalized_alpha")} | {
        (a, "alpha") for a in alphas[2:5]}


def test_sweep_raises_a_value_error_at_its_alpha():
    g = build_graph(random_sc_edges(40, 160, seed=3))
    cells = sweep(g, ["alpha", "nalpha"], [0.5 / spectral_radius(g), 1.5])
    assert [m for _, m, _ in itertools.islice(cells, 3)] == ["alpha", "normalized_alpha",
                                                             "alpha"]
    with pytest.raises(ValueError, match="normalized alpha centrality requires"):
        next(cells)


def test_sweep_rejects_an_unknown_measure_before_any_work(monkeypatch):
    from flowrank import centrality

    def unexpected(*args, **kwargs):
        raise AssertionError("scored before the measures were checked")
    monkeypatch.setattr(centrality, "pagerank", unexpected)
    with pytest.raises(ValueError, match="unknown measure 'closeness'"):
        sweep(build_graph(edges_ring(3)), ["pagerank", "closeness"], [0.5])


def test_sweep_scores_measures_without_alpha_once_per_grid(monkeypatch):
    from flowrank import centrality
    calls = []
    for name in ("eigenvector_centrality", "degree_centrality"):
        fn = getattr(centrality, name)
        monkeypatch.setattr(centrality, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    g = build_graph(random_sc_edges(20, 60, seed=1))
    cells = list(sweep(g, ["eigenvector", "indegree", "outdegree"], [0.1, 0.2, 0.3]))
    assert len(cells) == 9
    assert sorted(calls) == ["degree_centrality"] * 2 + ["eigenvector_centrality"]
    assert all(s is cells[i % 3][2] for i, (_, _, s) in enumerate(cells))
