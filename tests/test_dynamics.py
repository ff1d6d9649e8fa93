"""Deterministic flow processes, SIS iteration, and cascade simulation."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from flowrank import (
    CONSERVATIVE,
    NONCONSERVATIVE,
    CascadeRunStats,
    ConvergenceError,
    DanglingPolicy,
    NumericalError,
    ProcessConfig,
    SisConfig,
    build_graph,
    cascade_rounds,
    conservative_steady_state,
    conservative_step,
    independent_cascade,
    is_acyclic,
    nonconservative_accumulate,
    nonconservative_step,
    sis_step,
    threshold_sweep,
)
from flowrank import _kernels, graph
from flowrank.errors import ParameterError
from flowrank.graph import _walk_terms, adjacency_apply
from flowrank.rng import SLOT_EDGE_BASE, SLOT_SEED_NODE, stream_value, trial_base, unit_float

from oracles import (
    cascade_bfs_depths,
    conservative_fixed_point,
    dense_adjacency,
    dense_replication,
    edges_chain,
    edges_ring,
    edges_star,
    live_edge_reach,
    nonconservative_sum,
    random_sc_edges,
)


def _cons(alpha, delta=0.0, policy=DanglingPolicy.SELF_RETAIN):
    return ProcessConfig(kind=CONSERVATIVE, alpha=alpha, delta=delta,
                         dangling_policy=policy)


def _noncons(alpha, delta=0.0):
    return ProcessConfig(kind=NONCONSERVATIVE, alpha=alpha, delta=delta)


# ----------------------------------------------------------------- validation

def test_process_config_validation():
    with pytest.raises(ValueError):
        ProcessConfig(kind="other", alpha=0.5)
    with pytest.raises(ValueError):
        ProcessConfig(kind=CONSERVATIVE, alpha=-0.1)
    with pytest.raises(ValueError):
        ProcessConfig(kind=CONSERVATIVE, alpha=0.5, delta=1.5)
    with pytest.raises(ValueError):
        SisConfig(mu=1.5, beta=0.5)
    with pytest.raises(ValueError):
        SisConfig(mu=0.1, beta=-0.2)


def test_step_kind_mismatch_rejected():
    g = build_graph(edges_ring(3))
    x = np.ones(3)
    with pytest.raises(ValueError):
        conservative_step(g, x, x, _noncons(0.5))
    with pytest.raises(ValueError):
        nonconservative_step(g, x, _cons(0.5))


# ----------------------------------------------------------- worked examples

def test_conservative_two_cycle_splits_evenly_after_one_step():
    g = build_graph([(0, 1), (1, 0)])
    x0 = np.array([1.0, 0.0])
    x1 = conservative_step(g, x0, x0, _cons(alpha=0.5))
    assert np.max(np.abs(x1 - [0.5, 0.5])) < 1e-12
    # the fixed point keeps extra weight at the injection site
    x_inf = conservative_steady_state(g, x0, _cons(alpha=0.5), tol=1e-13)
    assert np.max(np.abs(x_inf - [2.0 / 3.0, 1.0 / 3.0])) < 1e-9


def test_nonconservative_chain_accumulates_downstream():
    g = build_graph(edges_chain(3))
    x0 = np.array([1.0, 0.0, 0.0])
    x = nonconservative_accumulate(g, x0, _noncons(alpha=0.5))
    assert np.max(np.abs(x - [1.0, 0.5, 0.25])) < 1e-9


def test_nonconservative_three_cycle_uniform():
    g = build_graph(edges_ring(3))
    x0 = np.array([1.0, 1.0, 1.0])
    x = nonconservative_accumulate(g, x0, _noncons(alpha=0.5), tol=1e-12)
    assert np.max(np.abs(x - [2.0, 2.0, 2.0])) < 1e-9


def test_nonconservative_step_at_a_subnormal_alpha_keeps_the_retained_copies():
    # alpha R = delta I + alpha A is finite although delta/alpha overflows
    g = build_graph(edges_ring(3))
    cfg = _noncons(alpha=2.2e-313, delta=0.3)
    x1 = nonconservative_step(g, np.ones(3), cfg)
    assert x1.tolist() == [0.3, 0.3, 0.3]
    assert nonconservative_step(g, x1, cfg).tolist() == [0.09, 0.09, 0.09]


def test_nonconservative_star_mass_grows():
    g = build_graph(edges_star(2))  # hub replicates to two leaves
    x0 = np.array([1.0, 0.0, 0.0])
    x1 = nonconservative_step(g, x0, _noncons(alpha=0.75))
    assert abs(np.sum(np.abs(x1)) - 1.5) < 1e-12


def test_conservative_step_conserves_mass():
    g = build_graph(random_sc_edges(50, 150, seed=1))
    x0 = np.random.default_rng(3).random(50)
    x0 /= x0.sum()
    cfg = _cons(alpha=0.8, delta=0.3)
    x = x0.copy()
    for _ in range(20):
        x = conservative_step(g, x, x0, cfg)
        assert abs(x.sum() - 1.0) < 1e-12


# --------------------------------------------------------- oracle equivalence

@pytest.mark.parametrize("alpha,delta,policy", [
    (0.5, 0.0, DanglingPolicy.UNIFORM_TELEPORT),
    (0.85, 0.2, DanglingPolicy.SELF_RETAIN),
    (0.3, 0.7, DanglingPolicy.UNIFORM_TELEPORT),
])
def test_conservative_steady_state_matches_linear_solve(alpha, delta, policy):
    n = 40
    edges = random_sc_edges(n, 120, seed=5)
    g = build_graph(edges)
    rng = np.random.default_rng(9)
    x0 = rng.random(n)
    x0 /= x0.sum()
    got = conservative_steady_state(g, x0, _cons(alpha, delta, policy), tol=1e-12)
    want = conservative_fixed_point(dense_adjacency(edges, n), x0, alpha, delta, policy)
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("alpha_frac,delta", [(0.5, 0.0), (0.3, 0.2), (0.8, 0.1)])
def test_accumulate_matches_linear_solve(alpha_frac, delta):
    n = 35
    edges = random_sc_edges(n, 100, seed=7)
    g = build_graph(edges)
    a = dense_adjacency(edges, n)
    lam = np.max(np.abs(np.linalg.eigvals(a)))
    alpha = alpha_frac * (1.0 - delta) / lam
    x0 = np.random.default_rng(11).random(n)
    got = nonconservative_accumulate(g, x0, _noncons(alpha, delta), tol=1e-13)
    want = nonconservative_sum(a, x0, alpha, delta)
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_accumulate_finite_horizon_is_partial_sum():
    g = build_graph(edges_chain(3))
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = _noncons(alpha=0.5)
    assert np.max(np.abs(nonconservative_accumulate(g, x0, cfg, horizon=0) - x0)) == 0.0
    x1 = nonconservative_accumulate(g, x0, cfg, horizon=1)
    assert np.max(np.abs(x1 - [1.0, 0.5, 0.0])) < 1e-12


def test_accumulate_supercritical_needs_horizon():
    g = build_graph(edges_ring(3))
    cfg = _noncons(alpha=1.2)
    with pytest.raises(NumericalError, match="finite horizon"):
        nonconservative_accumulate(g, np.ones(3), cfg)
    out = nonconservative_accumulate(g, np.ones(3), cfg, horizon=5)
    assert np.all(np.isfinite(out))


@hst.composite
def _series_inputs(draw):
    """A graph of 1-8 nodes, acyclic (so nilpotent) half the time, and a signed x0."""
    n = draw(hst.integers(1, 8))
    pairs = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                           max_size=3 * n))
    if draw(hst.booleans()):
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    x0 = draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n))
    return build_graph(pairs, node_count=n), np.asarray(x0)


def _step_loop(step, x0, horizon):
    # the walk-series loop as nonconservative_accumulate and expected_path_stats wrote it
    term = x0
    for _ in range(horizon):
        term = step(term)
        yield term, float(np.abs(term).sum())
        if float(np.abs(term).sum()) == 0.0:
            return


def _outcome(walk):
    # the bits of each term and norm, or the ValueError a non-finite term raises
    try:
        with np.errstate(all="ignore"):
            return [(t.tobytes(), np.float64(norm).tobytes()) for t, norm in walk]
    except ValueError as exc:
        return str(exc)


CHAIN_4 = (build_graph(edges_chain(4)), np.ones(4))


@settings(max_examples=150, deadline=None)
@given(inputs=_series_inputs(), alpha=hst.floats(0.0, 1.5), delta=hst.sampled_from([0.0, 0.3]),
       horizon=hst.one_of(hst.none(), hst.integers(0, 25)))
@example(inputs=CHAIN_4, alpha=1.0, delta=0.0, horizon=0)
@example(inputs=CHAIN_4, alpha=1.0, delta=0.0, horizon=None)
@example(inputs=CHAIN_4, alpha=0.0, delta=0.0, horizon=5)
# a subnormal alpha, at which delta/alpha overflows
@example(inputs=CHAIN_4, alpha=2.2250738585e-313, delta=0.3, horizon=None)
def test_walk_terms_equal_the_step_loops_bit_for_bit(inputs, alpha, delta, horizon):
    g, x0 = inputs
    if delta > 0.0 and alpha == 0.0:
        alpha = 0.5     # R is undefined there
    # an infinite series is compared on its first 30 terms
    limit = 30 if horizon is None else horizon
    walks = _outcome(itertools.islice(_walk_terms(g, x0, alpha, delta, horizon), limit))
    cfg = _noncons(alpha, delta)
    assert walks == _outcome(_step_loop(lambda x: nonconservative_step(g, x, cfg), x0, limit))
    if delta == 0.0:
        assert walks == _outcome(_step_loop(lambda x: alpha * adjacency_apply(g, x), x0, limit))
        if is_acyclic(g):
            # nilpotent: an infinite series ends with its zero term by the n-th
            ends = list(_walk_terms(g, x0, alpha, horizon=horizon))
            assert len(ends) <= min(g.node_count, limit)
            assert horizon is not None or ends[-1][1] == 0.0


def test_walk_terms_fail_at_the_term_cap_with_the_last_norms(monkeypatch):
    monkeypatch.setattr(graph, "MAX_TERMS", 20)
    g = build_graph(edges_ring(3))
    walks = _walk_terms(g, np.ones(3), 0.5)
    norms = [norm for _, norm in itertools.islice(walks, 20)]
    with pytest.raises(ConvergenceError, match=r"walk series did not converge \(after 20 ") as ei:
        next(walks)
    assert ei.value.iterations == 20
    assert ei.value.history == tuple(norms[-8:])
    # a finite horizon past the cap is not cut
    assert len(list(_walk_terms(g, np.ones(3), 0.5, horizon=30))) == 30


@pytest.mark.parametrize("max_iter", [0, -3])
def test_steady_state_rejects_a_budget_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        conservative_steady_state(build_graph(edges_ring(3)), np.ones(3) / 3, _cons(0.5),
                                  max_iter=max_iter)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
@pytest.mark.parametrize("solve", [
    lambda g, tol: conservative_steady_state(g, np.ones(3) / 3, _cons(0.5), tol=tol),
    lambda g, tol: nonconservative_accumulate(g, np.ones(3), _noncons(0.5), tol=tol),
], ids=["steady_state", "accumulate"])
def test_series_reject_a_tolerance_not_above_zero(solve, tol):
    # no residual compares below nan, so no series could stop on it
    with pytest.raises(ParameterError, match="tol must be > 0"):
        solve(build_graph(edges_ring(3)), tol)


def test_steady_state_reports_history_on_nonconvergence():
    g = build_graph(random_sc_edges(30, 90, seed=13))
    x0 = np.ones(30) / 30
    with pytest.raises(ConvergenceError) as ei:
        conservative_steady_state(g, x0, _cons(alpha=0.99), tol=1e-15, max_iter=5)
    assert ei.value.iterations == 5
    assert len(ei.value.history) > 0


# ------------------------------------------------------------------------ SIS

def test_sis_step_is_shifted_replication():
    # (1-beta) I + mu A is the replication operator with delta = 1-beta,
    # alpha = mu; fifty steps stay identical to machine precision
    n = 30
    edges = random_sc_edges(n, 90, seed=17)
    g = build_graph(edges)
    mu, beta = 0.2, 0.35
    sis = SisConfig(mu=mu, beta=beta)
    rng = np.random.default_rng(19)
    p = rng.random(n) * 0.1
    q = p.copy()
    a = dense_adjacency(edges, n)
    m = (1.0 - beta) * np.eye(n) + mu * a
    for _ in range(50):
        p = sis_step(g, p, sis)
        q = q @ m
    assert np.max(np.abs(p - q)) < 1e-10 * max(1.0, np.max(np.abs(q)))


def test_sis_rejects_negative_probabilities():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError):
        sis_step(g, np.array([0.1, -0.2, 0.3]), SisConfig(mu=0.1, beta=0.2))


def test_sis_decays_below_threshold_grows_above():
    g = build_graph(edges_ring(4))  # lambda1 = 1, threshold beta/mu = 1
    p0 = np.full(4, 0.05)
    below = p0.copy()
    above = p0.copy()
    for _ in range(200):
        below = sis_step(g, below, SisConfig(mu=0.1, beta=0.2))
        above = sis_step(g, above, SisConfig(mu=0.2, beta=0.1))
    assert below.sum() < 1e-6
    assert above.sum() > 10.0


# ------------------------------------------------------------------- cascades

def test_cascade_trivial_transmissibilities():
    g = build_graph(edges_chain(3))
    assert independent_cascade(g, [0], 0.0, rng_seed=1) == {0}
    assert independent_cascade(g, [0], 1.0, rng_seed=1) == {0, 1, 2}


def test_cascade_rounds_values():
    g = build_graph(edges_chain(4))
    rounds = cascade_rounds(g, [0], 1.0, rng_seed=0)
    assert list(rounds) == [0, 1, 2, 3]
    rounds0 = cascade_rounds(g, [1], 0.0, rng_seed=0)
    assert list(rounds0) == [-1, 0, -1, -1]


def test_cascade_argument_validation():
    g = build_graph(edges_chain(3))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        independent_cascade(g, [0], 1.5, rng_seed=0)
    with pytest.raises(ValueError):
        independent_cascade(g, [], 0.5, rng_seed=0)
    with pytest.raises(ValueError):
        independent_cascade(g, [9], 0.5, rng_seed=0)


def test_cascade_trial_determinism_and_independence():
    g = build_graph(random_sc_edges(60, 200, seed=23))
    a = independent_cascade(g, [4], 0.3, rng_seed=7, trial=5)
    b = independent_cascade(g, [4], 0.3, rng_seed=7, trial=5)
    assert a == b
    others = [independent_cascade(g, [4], 0.3, rng_seed=7, trial=t) for t in range(5)]
    assert any(o != a for o in others)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_cascade_mean_matches_exact_enumeration(p):
    # 7 edges -> 128 subsets enumerated exactly
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (1, 4)]
    g = build_graph(edges)
    exact = live_edge_reach(edges, 0, p)
    trials = 10_000
    sizes = [len(independent_cascade(g, [0], p, rng_seed=101, trial=t))
             for t in range(trials)]
    assert abs(np.mean(sizes) - exact) < 0.02 * 5


# ---------------------------------------------------------------------- sweep

def test_threshold_sweep_shape_and_trivial_points():
    g = build_graph(edges_ring(3))
    stats = threshold_sweep(g, [0.0, 0.5, 1.0], trials=40, rng_seed=3)
    assert [s.transmissibility for s in stats] == [0.0, 0.5, 1.0]
    assert all(s.trials == 40 for s in stats)
    assert abs(stats[0].mean_outbreak_fraction - 1.0 / 3.0) < 1e-9
    assert abs(stats[-1].mean_outbreak_fraction - 1.0) < 1e-12
    assert stats[-1].stderr < 1e-12


def test_threshold_sweep_monotone_under_shared_streams():
    # per-trial coins depend only on (seed, trial): outbreak sets nest in p
    g = build_graph(random_sc_edges(80, 240, seed=29))
    grid = np.linspace(0.0, 1.0, 11)
    stats = threshold_sweep(g, grid, trials=30, rng_seed=11)
    fracs = [s.mean_outbreak_fraction for s in stats]
    assert all(b >= a - 1e-15 for a, b in zip(fracs, fracs[1:]))


def test_threshold_sweep_validation():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError):
        threshold_sweep(g, [0.5, 1.2], trials=5, rng_seed=0)
    with pytest.raises(ValueError):
        threshold_sweep(g, [0.5], trials=0, rng_seed=0)


def test_threshold_sweep_deterministic_across_runs():
    g = build_graph(random_sc_edges(40, 120, seed=31))
    a = threshold_sweep(g, [0.2, 0.6], trials=25, rng_seed=8)
    b = threshold_sweep(g, [0.2, 0.6], trials=25, rng_seed=8)
    assert all(x.mean_outbreak_fraction == y.mean_outbreak_fraction
               and x.stderr == y.stderr for x, y in zip(a, b))


@hst.composite
def small_graphs(draw):
    """Graphs of 1-12 nodes; nodes without out-edges are dangling."""
    n = draw(hst.integers(1, 12))
    edges = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                           max_size=4 * n))
    return build_graph(edges, node_count=n)


# repeated values make duplicates likely; 0.0 and 1.0 are the ends of the range
GRID = hst.lists(hst.one_of(hst.sampled_from([0.0, 0.25, 0.5, 1.0]), hst.floats(0.0, 1.0)),
                 min_size=1, max_size=7)
DIAMOND = build_graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], node_count=5)


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), picks=hst.lists(hst.integers(0, 99), min_size=1, max_size=3),
       grid=GRID, trial=hst.integers(0, 40))
@example(g=DIAMOND, picks=[0, 4], grid=[0.0, 0.5, 0.5, 1.0, 1.0], trial=0)
def test_grid_levels_match_scalar_rounds(g, picks, grid, trial):
    # the grid mode joins a node at point k exactly when a traversal at p[k] alone reaches it
    seeds = np.unique(np.asarray(picks) % g.node_count)
    p = np.sort(np.asarray(grid, dtype=np.float64))
    base = np.uint64(trial_base(5, trial))
    level = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, p, base)
    for k, pk in enumerate(p):
        rounds = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, float(pk), base)
        assert np.array_equal((level >= 0) & (level <= k), rounds >= 0)


# DIAMOND's edge coins in trial 0 of seed 5; 0 -> 1 is node 1's only in-edge
DIAMOND_COINS = [unit_float(stream_value(trial_base(5, 0), SLOT_EDGE_BASE + k))
                 for k in range(DIAMOND.edge_count)]
COIN_0_TO_1 = DIAMOND_COINS[int(np.flatnonzero(DIAMOND.out_indices[:DIAMOND.out_indptr[1]] == 1)[0])]


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), picks=hst.lists(hst.integers(0, 99), min_size=1, max_size=3),
       grid=GRID, trial=hst.integers(0, 40))
@example(g=DIAMOND, picks=[0], grid=DIAMOND_COINS, trial=0)
# at its exact coin the edge stays closed, twice; it opens at the next point
@example(g=DIAMOND, picks=[0], grid=[COIN_0_TO_1, COIN_0_TO_1, 1.0], trial=0)
def test_ic_spread_matches_a_breadth_first_oracle_in_both_modes(g, picks, grid, trial):
    seeds = np.unique(np.asarray(picks) % g.node_count)
    p = np.sort(np.asarray(grid, dtype=np.float64))
    base_int = trial_base(5, trial)
    base = np.uint64(base_int)
    reached = []
    for pk in p:
        depth = cascade_bfs_depths(g.out_indptr, g.out_indices, seeds, float(pk), base_int)
        # scalar rounds are breadth-first depths over the open edges
        rounds = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, float(pk), base)
        assert rounds.tolist() == depth
        reached.append([d >= 0 for d in depth])
    # a node's grid level is the first point whose closure holds it
    first = [next((k for k, r in enumerate(reached) if r[v]), -1) for v in range(g.node_count)]
    level = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, p, base)
    assert level.tolist() == first


def _sweep_trial_counts(g, grid, trials, rng_seed):
    """threshold_sweep's rows, and the stream base and nodes reached at each sorted grid
    point of every trial, as its ic_spread calls return them."""
    calls = []
    real = _kernels.ic_spread

    def spy(out_indptr, out_indices, seeds, p, base):
        level = real(out_indptr, out_indices, seeds, p, base)
        counts = np.cumsum(np.bincount(level[level >= 0], minlength=len(p)))
        calls.append((int(base), counts.tolist()))
        return level

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "ic_spread", spy)
        stats = threshold_sweep(g, grid, trials, rng_seed)
    return stats, calls


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), grid=GRID,
       trials=hst.lists(hst.integers(1, 8), min_size=2, max_size=2, unique=True),
       rng_seed=hst.integers(0, 2**32))
def test_trial_results_do_not_depend_on_the_trial_count(g, grid, trials, rng_seed):
    t1, t2 = sorted(trials)
    few_stats, few = _sweep_trial_counts(g, grid, t1, rng_seed)
    many_stats, many = _sweep_trial_counts(g, grid, t2, rng_seed)
    assert many[:t1] == few
    assert [b for b, _ in many] == [trial_base(rng_seed, j) for j in range(t2)]
    # each row's mean is that of its point's per-trial fractions
    rank = np.argsort(np.argsort(grid, kind="stable"))
    for stats, calls in ((few_stats, few), (many_stats, many)):
        for gi, row in enumerate(stats):
            counts = np.asarray([c[rank[gi]] for _, c in calls])
            assert row.mean_outbreak_fraction == (counts / g.node_count).mean()


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), picks=hst.lists(hst.integers(0, 99), min_size=1, max_size=3),
       grid=GRID, rng_seed=hst.integers(0, 2**32))
def test_cascade_membership_nested_in_p_for_every_trial(g, picks, grid, rng_seed):
    seeds = sorted({x % g.node_count for x in picks})
    for trial in range(4):
        reached = [cascade_rounds(g, seeds, p, rng_seed, trial) >= 0 for p in sorted(grid)]
        assert all(np.all(a <= b) for a, b in zip(reached, reached[1:]))


def _sweep_point_by_point(g, grid, trials, rng_seed):
    """threshold_sweep as one traversal per grid point: the oracle for the nested sweep."""
    grid = [float(p) for p in grid]
    n = g.node_count
    fractions = np.empty((len(grid), trials))
    seeds = np.empty(1, dtype=np.int64)
    for j in range(trials):
        base_int = trial_base(rng_seed, j)
        u = unit_float(stream_value(base_int, SLOT_SEED_NODE))
        seeds[0] = min(int(u * n), n - 1)
        base = np.uint64(base_int)
        for gi, p in enumerate(grid):
            rounds = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, p, base)
            fractions[gi, j] = np.count_nonzero(rounds >= 0) / n
    stats = []
    for gi, p in enumerate(grid):
        row = fractions[gi]
        mean = float(row.mean())
        stderr = float(row.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        stats.append(CascadeRunStats(transmissibility=p, trials=trials,
                                     mean_outbreak_fraction=mean,
                                     stderr=stderr, rng_seed=rng_seed))
    return stats


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), grid=GRID, trials=hst.integers(1, 6), rng_seed=hst.integers(0, 2**32))
@example(g=DIAMOND, grid=[0.9, 0.1, 0.5, 0.5], trials=5, rng_seed=1)
def test_threshold_sweep_matches_point_by_point_oracle(g, grid, trials, rng_seed):
    # repr round-trips floats, so equal reprs mean equal bits
    got = threshold_sweep(g, grid, trials, rng_seed)
    assert repr(got) == repr(_sweep_point_by_point(g, grid, trials, rng_seed))


@settings(max_examples=40, deadline=None)
@given(points=hst.integers(1, 300), trials=hst.integers(1, 300), n=hst.integers(1, 400),
       seed=hst.integers(0, 2**32))
@example(points=100_000, trials=2, n=7, seed=0)
@example(points=3, trials=12_345, n=5, seed=1)
@example(points=1, trials=1, n=1, seed=2)
def test_sweep_statistics_equal_the_per_row_reductions(points, trials, n, seed):
    # the kernel returns random join levels, so the rows hold arbitrary fractions
    rng = np.random.default_rng(seed)
    fractions = np.empty((points, trials))
    trial = itertools.count()

    def random_levels(indptr, indices, seeds, ascending, base):
        level = rng.integers(-1, points, size=n)
        reached = np.cumsum(np.bincount(level[level >= 0], minlength=points))
        fractions[:, next(trial)] = reached / n
        return level

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "ic_spread", random_levels)
        stats = threshold_sweep(build_graph([], node_count=n), np.linspace(0, 1, points),
                                trials, seed)
    for row, got in zip(fractions, stats, strict=True):
        stderr = float(row.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        assert got.mean_outbreak_fraction.hex() == float(row.mean()).hex()
        assert got.stderr.hex() == stderr.hex()
