"""Spectral estimation, dense decomposition, thresholds, and walk statistics."""
import numpy as np
import pytest

from flowrank import (
    ConvergenceError,
    DenseEigenDecomposition,
    NumericalError,
    build_graph,
    epidemic_threshold,
    expected_path_stats,
    is_acyclic,
    is_strongly_connected,
    power_iteration,
    spectral_radius,
)
from flowrank import graph

from oracles import (
    dense_adjacency,
    edges_chain,
    edges_complete,
    edges_ring,
    random_sc_edges,
)


# ------------------------------------------------------------------- structure

def test_is_acyclic():
    assert is_acyclic(build_graph(edges_chain(5)))
    assert not is_acyclic(build_graph(edges_ring(3)))
    assert not is_acyclic(build_graph(edges_chain(4) + [(3, 1)]))


def test_is_strongly_connected():
    assert is_strongly_connected(build_graph(edges_ring(6)))
    assert not is_strongly_connected(build_graph(edges_chain(4)))
    assert not is_strongly_connected(build_graph([(0, 1), (1, 0), (1, 2)]))


# ------------------------------------------------------------- power iteration

@pytest.mark.parametrize("seed", range(4))
def test_power_iteration_matches_dense_eig(seed):
    edges = random_sc_edges(150, 600, seed=seed)
    est = power_iteration(build_graph(edges))
    lam_dense = np.max(np.abs(np.linalg.eigvals(dense_adjacency(edges, 150))))
    assert abs(est.lambda1 - lam_dense) < 1e-6 * lam_dense


def test_power_iteration_eigvec_is_left_eigenvector():
    edges = random_sc_edges(80, 300, seed=5)
    g = build_graph(edges)
    est = power_iteration(g)
    a = dense_adjacency(edges, 80)
    resid = est.eigvec @ a - est.lambda1 * est.eigvec
    assert np.max(np.abs(resid)) < 1e-7
    assert abs(np.sum(np.abs(est.eigvec)) - 1.0) < 1e-12


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
    ({"tol": 0.0}, "tol"), ({"tol": -1e-9}, "tol"), ({"tol": float("nan")}, "tol"),
])
def test_power_iteration_rejects_bad_solver_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        power_iteration(build_graph(edges_ring(3)), **kwargs)


def test_power_iteration_stalls_on_oscillating_spectrum():
    # dominant eigenvalues +1 and -1: the iterate never settles
    g = build_graph([(0, 1), (1, 0), (2, 0)])
    with pytest.raises(ConvergenceError) as ei:
        power_iteration(g, max_iter=2000)
    assert ei.value.best is not None
    assert abs(ei.value.best.lambda1 - 1.0) < 0.5
    assert ei.value.best.residual > 0.1  # genuinely unconverged


def test_power_iteration_on_nilpotent_graph_returns_zero():
    est = power_iteration(build_graph(edges_chain(4)))
    assert est.lambda1 == 0.0


# -------------------------------------------------------- dense decomposition

def test_dense_eigendecompose_orders_and_reconstructs():
    edges = random_sc_edges(30, 90, seed=11)
    dec = DenseEigenDecomposition(build_graph(edges))
    mags = np.abs(dec.eigenvalues)
    assert np.all(np.diff(mags) <= 1e-12)
    assert np.max(np.abs(dec.reconstruct() - dense_adjacency(edges, 30))) < 1e-8


def test_dense_projectors_sum_to_identity():
    dec = DenseEigenDecomposition(build_graph(edges_ring(5)))
    total = sum(dec.projector(i) for i in range(5))
    assert np.max(np.abs(total - np.eye(5))) < 1e-10


def test_defective_matrix_refuses_projectors_but_keeps_eigenvalues():
    dec = DenseEigenDecomposition(build_graph(edges_chain(4)))
    assert not dec.diagonalizable
    assert np.max(np.abs(dec.eigenvalues)) < 1e-8
    with pytest.raises(NumericalError, match="non-diagonalizable"):
        dec.projector(0)
    with pytest.raises(NumericalError):
        dec.reconstruct()


def test_dense_cap_enforced():
    g = build_graph(edges_ring(70))
    with pytest.raises(ValueError, match="dense cap exceeded"):
        DenseEigenDecomposition(g)
    # spectral_radius falls back to power iteration above the cap
    assert abs(spectral_radius(g) - 1.0) < 1e-9


# ------------------------------------------------------------------ thresholds

def test_spectral_radius_known_graphs():
    assert abs(spectral_radius(build_graph(edges_ring(3))) - 1.0) < 1e-9
    assert abs(spectral_radius(build_graph(edges_complete(7))) - 6.0) < 1e-9
    assert spectral_radius(build_graph(edges_chain(6))) == 0.0


def test_epidemic_threshold_examples():
    assert abs(epidemic_threshold(build_graph(edges_ring(3))) - 1.0) < 1e-9
    assert abs(epidemic_threshold(build_graph(edges_complete(7))) - 1.0 / 6.0) < 1e-9
    with pytest.raises(NumericalError, match="no finite threshold"):
        epidemic_threshold(build_graph(edges_chain(4)))


@pytest.mark.parametrize("seed", range(3))
def test_threshold_is_reciprocal_of_dense_radius(seed):
    edges = random_sc_edges(40, 120, seed=seed)
    lam = np.max(np.abs(np.linalg.eigvals(dense_adjacency(edges, 40))))
    assert abs(epidemic_threshold(build_graph(edges)) - 1.0 / lam) < 1e-9 / lam


# ------------------------------------------------------------- path statistics

def test_path_stats_three_cycle_examples():
    g = build_graph(edges_ring(3))
    st = expected_path_stats(g, alpha=0.5)
    assert abs(st.expected_paths - 6.0) < 1e-9
    assert abs(st.expected_length - 2.0) < 1e-9


def test_path_stats_alpha_zero():
    g = build_graph(edges_ring(3))
    for method in ("auto", "series"):
        st = expected_path_stats(g, alpha=0.0, method=method)
        assert st.expected_paths == 3.0
        assert st.expected_length == 0.0


def test_path_stats_series_agrees_with_closed_form():
    g = build_graph(edges_ring(5))
    s = expected_path_stats(g, alpha=0.7, method="series")
    c = expected_path_stats(g, alpha=0.7, method="closed-form")
    assert abs(s.expected_length - c.expected_length) < 1e-6
    assert abs(s.expected_length - 1.0 / 0.3) < 1e-6


def test_path_stats_paths_at_least_node_count():
    for alpha in (0.0, 0.2, 0.6):
        st = expected_path_stats(build_graph(edges_ring(4)), alpha=alpha)
        assert st.expected_paths >= 4.0


def test_path_stats_finite_horizon_truncates():
    g = build_graph(edges_ring(3))
    # k=0: 3 walks, k=1: 3*0.5, k=2: 3*0.25
    st = expected_path_stats(g, alpha=0.5, horizon=2)
    assert abs(st.expected_paths - (3 + 1.5 + 0.75)) < 1e-12
    want_len = (1 * 1.5 + 2 * 0.75) / (1.5 + 0.75)
    assert abs(st.expected_length - want_len) < 1e-12


def test_path_stats_length_grows_with_alpha():
    g = build_graph(random_sc_edges(40, 100, seed=2))
    lam = spectral_radius(g)
    alphas = np.linspace(0.1, 0.9, 7) / lam
    lengths = [expected_path_stats(g, a).expected_length for a in alphas]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_path_stats_diverges_near_spectral_bound():
    g = build_graph(edges_ring(4))
    near = expected_path_stats(g, alpha=0.999).expected_length
    far = expected_path_stats(g, alpha=0.5).expected_length
    assert near > 10.0 * far


def test_path_stats_supercritical_requires_horizon():
    g = build_graph(edges_complete(4))  # lambda1 = 3
    with pytest.raises(NumericalError, match="finite horizon"):
        expected_path_stats(g, alpha=0.5)
    st = expected_path_stats(g, alpha=0.5, horizon=10)
    assert np.isfinite(st.expected_paths)


def test_path_stats_fail_at_the_term_cap(monkeypatch):
    # a 50-node cycle at alpha = 1 - 1e-8 lies outside the singular band, but
    # its series needs about 1e9 terms: stopping at the cap used to return
    # expected_paths = 5.0e6 against a true 5.0e9
    monkeypatch.setattr(graph, "MAX_TERMS", 1000)
    g = build_graph(edges_ring(50))
    with pytest.raises(ConvergenceError, match=r"walk series did not converge \(after 1000 "):
        expected_path_stats(g, alpha=1.0 - 1e-8)
    # a finite horizon past the cap is summed in full
    st = expected_path_stats(g, alpha=0.5, horizon=2000)
    assert st.expected_paths == pytest.approx(100.0, rel=1e-12)


def test_path_stats_rejects_singularity():
    g = build_graph(edges_ring(3))
    with pytest.raises(NumericalError, match="singularity"):
        expected_path_stats(g, alpha=1.0)


def test_path_stats_closed_form_is_bounded_at_any_horizon():
    g = build_graph(edges_complete(4))  # lambda1 = 3
    with pytest.raises(NumericalError, match="singularity"):
        expected_path_stats(g, 1.0 / 3.0, horizon=5, method="closed-form")
    with pytest.raises(NumericalError, match="supercritical"):
        expected_path_stats(g, 0.5, horizon=5, method="closed-form")
    assert expected_path_stats(g, 0.5, horizon=5, method="series").method == "series"


def test_path_stats_closed_form_above_the_bound_points_to_the_series():
    g = build_graph(edges_complete(4))  # lambda1 = 3
    with pytest.raises(NumericalError, match=r"supercritical.*alpha\*lambda1 < 1.*series"):
        expected_path_stats(g, 0.5, horizon=5, method="closed-form")


def test_path_stats_acyclic_series_is_finite_sum():
    g = build_graph(edges_chain(3))
    # walks: k=0 -> 3, k=1 -> 2 edges, k=2 -> 1
    st = expected_path_stats(g, alpha=1.0)
    assert st.expected_paths == 6.0
    assert abs(st.expected_length - (1 * 2 + 2 * 1) / 3.0) < 1e-12
