"""Event-log parsing, influence estimation, screening, and correlation."""
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as hst

from flowrank import (
    EventLog,
    InputFormatError,
    NumericalError,
    activity_entropies,
    build_graph,
    cascade_rounds,
    correlation_sweep,
    extract_cascade,
    from_records,
    global_influence,
    hypergeometric_pmf,
    influence_cohort,
    local_influence,
    pearson_correlation,
    read_event_log,
    significance_screen,
    spam_filter,
    synthesize_event_log,
    write_event_log,
)
from flowrank.empirics import _hypergeometric_tail
from flowrank.errors import ParameterError

from oracles import edges_ring, random_sc_edges, sequential_cascade


def _submit(item, user, t):
    return (item, user, t, "submit")


def _rb(item, user, t):
    return (item, user, t, "rebroadcast")


# -------------------------------------------------------------------- parsing

def test_from_records_breaks_time_ties_by_user_id():
    log = from_records([
        _submit("a", 0, 10),
        _rb("a", 3, 20), _rb("a", 5, 30), _rb("a", 2, 30),
    ])
    item = log.get("a")
    assert item.submitter == 0
    assert list(item.rebroadcast_users) == [3, 2, 5]
    assert list(item.rebroadcast_times) == [20, 30, 30]


def test_from_records_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        from_records([("a", 0, 1, "vote")])
    with pytest.raises(ValueError, match="second submit"):
        from_records([_submit("a", 0, 1), _submit("a", 1, 2)])
    with pytest.raises(ValueError, match="before submit"):
        from_records([_rb("a", 0, 1)])
    with pytest.raises(ValueError, match="decrease"):
        from_records([_submit("a", 0, 10), _rb("a", 1, 5)])
    with pytest.raises(ValueError, match="duplicate vote"):
        from_records([_submit("a", 0, 1), _rb("a", 2, 2), _rb("a", 2, 3)])


def test_twitter_mode_allows_repeat_rebroadcasts():
    log = from_records([_submit("a", 0, 1), _rb("a", 2, 2), _rb("a", 2, 3)],
                       mode="twitter")
    assert list(log.get("a").rebroadcast_users) == [2, 2]


def test_read_event_log_round_trip(tmp_path):
    log = from_records([
        _submit("a", 0, 10), _rb("a", 1, 20),
        _submit("b", 2, 15), _rb("b", 0, 18), _rb("b", 1, 19),
    ])
    p = tmp_path / "events.csv"
    write_event_log(log, p)
    back = read_event_log(p)
    assert back.item_ids() == log.item_ids()
    for iid in log.item_ids():
        a, b = log.get(iid), back.get(iid)
        assert a.submitter == b.submitter and a.submit_time == b.submit_time
        assert np.array_equal(a.rebroadcast_users, b.rebroadcast_users)
        assert np.array_equal(a.rebroadcast_times, b.rebroadcast_times)


def test_read_event_log_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("item_id,user_id,timestamp,kind\na,0,10,submit\na,x,20,rebroadcast\n")
    with pytest.raises(InputFormatError) as ei:
        read_event_log(p)
    assert ":3:" in str(ei.value)

    p2 = tmp_path / "hdr.csv"
    p2.write_text("id,user,when,what\n")
    with pytest.raises(InputFormatError, match="expected header"):
        read_event_log(p2)

    with pytest.raises(InputFormatError):
        read_event_log(tmp_path / "missing.csv")


def test_event_log_accessors():
    log = from_records([_submit("a", 0, 1), _rb("a", 7, 2), _submit("b", 3, 1)])
    assert len(log) == 2
    assert list(log.user_ids()) == [0, 3, 7]
    assert log.restrict(["b"]).item_ids() == ["b"]
    with pytest.raises(ValueError, match="unknown item"):
        log.get("zzz")


# ------------------------------------------------------------ local influence

def _fan_graph():
    # users 1..5 follow user 0; user 7's followers are 10..16; 6 has none
    edges = [(i, 0) for i in range(1, 6)]
    edges += [(i, 7) for i in range(10, 17)]
    edges += [(0, 6), (6, 9), (8, 9), (9, 8)]
    return build_graph(edges, node_count=17)


def test_local_influence_worked_examples():
    g = _fan_graph()
    log = from_records([
        # submitter 0: 3 follower rebroadcasts, then 5 -> mean 4
        _submit("a", 0, 0), _rb("a", 1, 1), _rb("a", 2, 2), _rb("a", 3, 3),
        _rb("a", 8, 4),
        _submit("b", 0, 10), _rb("b", 1, 11), _rb("b", 2, 12), _rb("b", 3, 13),
        _rb("b", 4, 14), _rb("b", 5, 15),
        # submitter 6 has no followers at all
        _submit("c", 6, 0), _rb("c", 1, 1), _rb("c", 2, 2),
        _submit("d", 6, 10), _rb("d", 3, 11),
        # submitter 7: all 7 rebroadcasters are followers
        _submit("e", 7, 0), *[_rb("e", u, u) for u in range(10, 17)],
        _submit("f", 7, 100), *[_rb("f", u, 100 + u) for u in range(10, 17)],
    ])
    est = local_influence(log, g)
    assert est[0].local == 4.0 and est[0].n_items == 2
    assert est[6].local == 0.0
    assert est[7].local == 7.0


def test_local_influence_requires_min_items():
    g = _fan_graph()
    log = from_records([_submit("a", 0, 0), _rb("a", 1, 1)])
    assert local_influence(log, g) == {}
    assert 0 in local_influence(log, g, min_items=1)


def test_local_influence_window_monotone():
    g = build_graph([(i, 0) for i in range(1, 40)], node_count=45)
    recs = [_submit("a", 0, 0)]
    recs += [_rb("a", u, 10 + u) for u in range(1, 40)]
    recs += [_submit("b", 0, 1000), _rb("b", 1, 1001)]
    log = from_records(recs)
    vals = [local_influence(log, g, window=w, min_items=2)[0].local
            for w in (5, 20, 100)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] == (5 + 1) / 2.0  # 5 followers inside window for item a


def test_local_influence_rejects_unknown_users():
    g = build_graph(edges_ring(3))
    log = from_records([_submit("a", 0, 0), _rb("a", 9, 1)])
    with pytest.raises(ValueError, match="unknown user ids"):
        local_influence(log, g)


def test_unknown_users_are_named_once_each_in_ascending_order():
    g = build_graph(edges_ring(3))
    # 9 rebroadcasts one item and submits another
    log = from_records([_submit("a", 0, 0), _rb("a", 9, 1), _submit("b", 9, 5),
                        _rb("b", 1, 6), _submit("c", 2, 9)])
    for estimator in (local_influence, global_influence):
        with pytest.raises(ValueError, match=r"^unknown user ids in log: 9$"):
            estimator(log, g)
    many = from_records([_submit("a", 0, 0)] + [_rb("a", u, 200 - u) for u in range(111, 99, -1)])
    shown = ", ".join(map(str, range(100, 110)))
    for estimator in (local_influence, global_influence):
        with pytest.raises(ValueError, match=rf"^unknown user ids in log: {shown} \(\+2 more\)$"):
            estimator(many, g)


# -------------------------------------------------------------------- cascades

def _parent_edges(cascade, g):
    # (followee, member) pairs in which the followee joined first
    rank = {u: i for i, u in enumerate(cascade.order.tolist())}
    return {(int(p), u) for u, i in rank.items() for p in g.out_neighbors(u)
            if rank.get(int(p), i) < i}


def test_extract_cascade_checks_only_its_own_items_users():
    g = build_graph(edges_ring(3))
    log = from_records([_submit("a", 0, 0), _rb("a", 9, 1), _rb("a", 1, 2),
                        _submit("b", 1, 5), _rb("b", 7, 6), _submit("c", 2, 9), _rb("c", 1, 10)])
    with pytest.raises(ValueError, match=r"^unknown user ids in log: 9$"):
        extract_cascade(log, g, "a")
    assert extract_cascade(log, g, "c").members == frozenset({1, 2})


def test_extract_cascade_replays_in_event_order():
    # 1 follows 0; 2 follows 0 and 1; 3 follows 2 only
    g = build_graph([(1, 0), (2, 0), (2, 1), (3, 2)])
    log = from_records([
        _submit("a", 0, 0), _rb("a", 1, 1), _rb("a", 3, 2), _rb("a", 2, 3),
    ])
    c = extract_cascade(log, g, "a")
    # 3 rebroadcast before its only followee joined, so it stays out
    assert c.order.tolist() == [0, 1, 2]
    assert c.members == frozenset({0, 1, 2})
    assert c.size == 3
    assert _parent_edges(c, g) == {(0, 1), (0, 2), (1, 2)}


def test_extract_cascade_twitter_repeat_joins_at_a_later_event():
    # 2 follows only 1; its first rebroadcast comes before 1 joins, its second after
    g = build_graph([(1, 0), (2, 1)])
    log = from_records([_submit("a", 0, 0), _rb("a", 2, 1), _rb("a", 1, 2), _rb("a", 2, 3),
                        _rb("a", 0, 4)], mode="twitter")
    c = extract_cascade(log, g, "a")
    assert c.order.tolist() == [0, 1, 2]
    assert _parent_edges(c, g) == {(0, 1), (1, 2)}


@hst.composite
def replay_cases(draw):
    """A small follower graph and one item's events, in either mode.

    Few timestamps make ties likely. In twitter mode every event (the
    submitter's too) comes again in a later stretch of the item's life,
    when a user that was not connected at its first event may be.
    """
    n = draw(hst.integers(1, 10))
    edges = draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                           min_size=n, max_size=3 * n))
    mode = draw(hst.sampled_from(["digg", "twitter"]))
    submitter = draw(hst.integers(0, n - 1))
    if mode == "digg":
        users = draw(hst.lists(hst.integers(0, n - 1).filter(lambda u: u != submitter),
                               unique=True, max_size=n))
    else:
        users = draw(hst.lists(hst.integers(0, n - 1), min_size=1, max_size=2 * n))
    times = sorted(draw(hst.lists(hst.integers(1, 9), min_size=len(users), max_size=len(users))))
    if mode == "twitter":
        users += draw(hst.permutations(users))
        times += [t + 9 for t in times]
    records = [_submit("x", submitter, 0)] + [_rb("x", u, t) for u, t in zip(users, times)]
    return edges, n, from_records(records, mode=mode)


@settings(max_examples=400, deadline=None)
@given(case=replay_cases())
def test_extract_cascade_matches_sequential_replay(case):
    edges, n, log = case
    g = build_graph(edges, node_count=n)
    item = log.get("x")
    order, parents = sequential_cascade(edges, item.submitter, item.rebroadcast_users)
    c = extract_cascade(log, g, "x")
    assert c.order.dtype == np.int64
    assert c.order.tolist() == order
    assert c.members == frozenset(order)
    assert _parent_edges(c, g) == parents


def test_extract_cascade_includes_late_joiner_when_parent_present():
    g = build_graph([(1, 0), (2, 0), (2, 1), (3, 2)])
    log = from_records([
        _submit("a", 0, 0), _rb("a", 1, 1), _rb("a", 2, 2), _rb("a", 3, 3),
    ])
    assert extract_cascade(log, g, "a").members == frozenset({0, 1, 2, 3})


def test_global_influence_means_cascade_sizes():
    g = build_graph([(1, 0), (2, 0), (2, 1), (3, 2)])
    log = from_records([
        _submit("a", 0, 0), _rb("a", 1, 1), _rb("a", 2, 2),   # size 3
        _submit("b", 0, 10), _rb("b", 1, 11),                 # size 2
    ])
    est = global_influence(log, g)
    assert est[0].global_ == 2.5
    assert est[0].local is None


# -------------------------------------------------------------- hypergeometric

def test_hypergeometric_worked_example():
    assert hypergeometric_pmf(1, 1, 2, 1) == pytest.approx(0.5, abs=1e-15)


def test_hypergeometric_normalizes_on_small_grids():
    rng = np.random.default_rng(0)
    for _ in range(25):
        N = int(rng.integers(1, 201))
        K = int(rng.integers(0, N + 1))
        n = int(rng.integers(0, N + 1))
        total = sum(hypergeometric_pmf(k, K, N, n) for k in range(0, min(K, n) + 1))
        assert abs(total - 1.0) < 1e-12


def test_hypergeometric_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(2, 500))
        K = int(rng.integers(0, N + 1))
        n = int(rng.integers(1, N + 1))
        k = int(rng.integers(0, min(K, n) + 1))
        ours = hypergeometric_pmf(k, K, N, n)
        ref = float(scipy.stats.hypergeom.pmf(k, N, K, n))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_hypergeometric_survives_census_scale():
    # population and draw sizes from a full activity log
    p = hypergeometric_pmf(6, 200, 71367, 100)
    assert 0.0 < p < 0.05
    assert hypergeometric_pmf(0, 200, 71367, 100) > 0.5
    extreme = hypergeometric_pmf(100, 200, 71367, 100)
    assert 0.0 <= extreme < 1e-200  # vanishing, not nan or overflow


def test_hypergeometric_zero_below_support_floor():
    # only one unmarked ball: five draws must contain at least four marked
    assert hypergeometric_pmf(2, 9, 10, 5) == 0.0
    assert hypergeometric_pmf(4, 9, 10, 5) == pytest.approx(0.5, abs=1e-12)


def test_hypergeometric_validates_arguments():
    with pytest.raises(ValueError):
        hypergeometric_pmf(0, 5, 4, 1)  # K > N
    with pytest.raises(ValueError):
        hypergeometric_pmf(0, 1, 4, 5)  # n > N
    with pytest.raises(ValueError):
        hypergeometric_pmf(-1, 1, 4, 2)
    with pytest.raises(ValueError):
        hypergeometric_pmf(0.5, 1, 4, 2)


# ------------------------------------------------------------------- screening

def test_significance_screen_keeps_surprising_counts_only():
    # 200 users follow node 0; nobody follows node 201
    edges = [(i, 0) for i in range(1, 201)] + [(201, 0)]
    g = build_graph(edges, node_count=202)
    est = {
        0: _estimate(0, local=6.0),     # K=200, mean 6 of 100 from 71367: rare
        201: _estimate(201, local=6.0),  # K=0: chance model explains anything
    }
    kept = significance_screen(est, g, N=71367, n=100)
    assert 0 in kept and 201 not in kept
    assert 0.0 < kept[0].significance_p < 0.05


def test_significance_screen_uses_the_upper_tail():
    # K = 50 of N = 1000 in 100 draws expects 5 hits: none at all is no evidence
    # of influence (P(X >= 0) = 1), though its point probability is only 0.0045
    g = build_graph([(i, 0) for i in range(1, 51)], node_count=51)
    assert hypergeometric_pmf(0, 50, 1000, 100) < 0.05
    assert significance_screen({0: _estimate(0, local=0.0)}, g, N=1000, n=100) == {}
    kept = significance_screen({0: _estimate(0, local=12.0)}, g, N=1000, n=100)
    assert kept[0].significance_p == pytest.approx(
        scipy.stats.hypergeom.sf(11, 1000, 50, 100), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_hypergeometric_tail_matches_scipy(data):
    N = data.draw(hst.integers(1, 3000))
    K = data.draw(hst.integers(0, N))
    n = data.draw(hst.integers(0, N))
    k = data.draw(hst.integers(0, min(K, n)))
    ref = float(scipy.stats.hypergeom.sf(k - 1, N, K, n))
    assert _hypergeometric_tail(k, K, N, n) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_significance_screen_everyone_follows_is_never_significant():
    # K equals the whole population: every draw is a follower by construction
    n_users = 6
    edges = [(i, 0) for i in range(1, n_users)] + [(0, 1)]
    g = build_graph(edges, node_count=n_users)
    est = {0: _estimate(0, local=5.0)}
    kept = significance_screen(est, g, N=int(g.in_degree[0]), n=5)
    assert kept == {}


def test_significance_screen_requires_local_estimates():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError, match="local"):
        significance_screen({0: _estimate(0, global_=2.0)}, g, N=10, n=5)
    with pytest.raises(ValueError, match="p_cut"):
        significance_screen({}, g, N=10, n=5, p_cut=0.0)


def test_influence_cohort_names_the_argument_the_urn_rules_out():
    # user 0 has 10 followers, and the log holds users 0, 1 and 2 only
    g = build_graph([(i, 0) for i in range(1, 11)], node_count=11)
    log = from_records([_submit("a", 0, 1), _rb("a", 1, 2), _submit("b", 0, 3), _rb("b", 2, 4)])
    cases = [
        (dict(window=5), "window", "5 exceeds the log's 3 distinct users"),
        (dict(window=2), "active_users",
         "defaults to the log's 3 users, below the 10 followers of user 0"),
        (dict(window=2, active_users=1), "active_users", "1 is below the window of 2"),
        (dict(window=2, active_users=9), "active_users", "9 is below the 10 followers of user 0"),
    ]
    for extra, name, detail in cases:
        with pytest.raises(ParameterError) as exc:
            influence_cohort(log, g, "local", min_items=1, p_cut=0.5, **extra)
        assert (exc.value.name, exc.value.detail) == (name, detail)
    # ten active users hold both; one follower rebroadcast in two draws is no surprise
    assert influence_cohort(log, g, "local", min_items=1, p_cut=0.5, window=2,
                            active_users=10) == {}
    # with no submitter to screen, no urn is drawn and nothing is ruled out
    for extra in (dict(window=5), dict(window=2, active_users=1)):
        assert influence_cohort(log, g, "local", min_items=3, p_cut=0.5, **extra) == {}


def _estimate(user, local=None, global_=None):
    from flowrank import InfluenceEstimate
    return InfluenceEstimate(user_id=user, n_items=2, local=local, global_=global_)


# ------------------------------------------------------------------- entropies

def test_user_entropy_of_distinct_users():
    recs = [_submit("a", 0, 0)] + [_rb("a", u, 10 * u) for u in range(1, 11)]
    log = from_records(recs)
    user_h, _ = activity_entropies(log, "a")
    assert user_h == pytest.approx(np.log2(10), abs=1e-12)


def test_user_entropy_single_user_is_zero():
    recs = [_submit("a", 0, 0)] + [_rb("a", 5, 3 ** i) for i in range(1, 9)]
    log = from_records(recs, mode="twitter")
    user_h, _ = activity_entropies(log, "a")
    assert user_h == 0.0


def test_interval_entropy_periodic_is_zero():
    recs = [_submit("a", 0, 0)] + [_rb("a", u, 100 * u) for u in range(1, 9)]
    log = from_records(recs)
    _, interval_h = activity_entropies(log, "a")
    assert interval_h == 0.0


def test_interval_entropy_spread_gaps():
    # gaps 2, 4, 8, 16 land in four distinct log2 bins
    times = np.cumsum([0, 2, 4, 8, 16]) + 10
    recs = [_submit("a", 0, 0)] + [_rb("a", u + 1, int(t)) for u, t in enumerate(times)]
    log = from_records(recs)
    _, interval_h = activity_entropies(log, "a")
    assert interval_h == pytest.approx(2.0, abs=1e-12)


def test_entropy_undefined_without_rebroadcasts():
    log = from_records([_submit("a", 0, 0)])
    with pytest.raises(ValueError, match="undefined entropy"):
        activity_entropies(log, "a")


def test_single_rebroadcast_has_zero_interval_entropy():
    log = from_records([_submit("a", 0, 0), _rb("a", 1, 5)])
    user_h, interval_h = activity_entropies(log, "a")
    assert (user_h, interval_h) == (0.0, 0.0)


def test_spam_filter_keeps_organic_items():
    recs = []
    # organic: 16 distinct users, gaps doubling across 16 log2 bins
    recs.append(_submit("organic", 0, 0))
    t = 10
    for i in range(16):
        t += 2 ** (i + 1)
        recs.append(_rb("organic", 10 + i, t))
    # robotic: one pair of users alternating on a metronome
    recs.append(_submit("robot", 1, 0))
    for i in range(16):
        recs.append(_rb("robot", 30 + (i % 2), 100 + 64 * i))
    log = from_records(recs, mode="twitter")
    assert spam_filter(log, threshold=3.0) == ["organic"]


# ------------------------------------------------------------------ correlation

def test_pearson_worked_example():
    r = pearson_correlation([1, 2, 3, 4], [2, 1, 4, 3])
    assert r == pytest.approx(0.6, abs=1e-12)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson_correlation([1, 2], [3, 4])
    with pytest.raises(NumericalError, match="degenerate"):
        pearson_correlation([1.0, 1.0, 1.0], [1, 2, 3])


def _sweep_fixture():
    g = build_graph(random_sc_edges(60, 300, seed=4))
    log = synthesize_event_log(g, submitters=[3, 11, 25, 40, 52],
                               items_per_submitter=2, transmissibility=0.35,
                               rng_seed=12)
    return g, log


def test_correlation_sweep_alpha_zero_equals_indegree():
    g, log = _sweep_fixture()
    report = correlation_sweep(g, log, ["alpha", "indegree"], [0.0], "global",
                               min_rebroadcasts=0, entropy_threshold=None,
                               p_cut=None)
    by_measure = {e.measure: e for e in report.entries}
    assert by_measure["alpha"].pearson_r == pytest.approx(
        by_measure["indegree"].pearson_r, abs=1e-12)
    assert by_measure["alpha"].cohort_size == 5


def test_correlation_sweep_accepts_nalpha_alias():
    g, log = _sweep_fixture()
    report = correlation_sweep(g, log, ["nalpha"], [0.1], "global",
                               min_rebroadcasts=0, entropy_threshold=None)
    assert report.entries[0].measure == "normalized_alpha"


def test_correlation_sweep_skips_undefined_alpha_rows():
    g, log = _sweep_fixture()
    from flowrank import spectral_radius
    bad = 1.0 / spectral_radius(g)  # singular for the normalized measure
    report = correlation_sweep(g, log, ["normalized_alpha", "indegree"],
                               [bad], "global", min_rebroadcasts=0,
                               entropy_threshold=None)
    measures = [e.measure for e in report.entries]
    assert "indegree" in measures and "normalized_alpha" not in measures


def test_correlation_sweep_combined_equals_single_measure_sweeps():
    # one alpha series per alpha feeds both alpha measures; each entry must
    # carry the same bits as a sweep of that measure alone, in alpha-major order
    g, log = _sweep_fixture()
    from flowrank import spectral_radius
    lam = spectral_radius(g)
    grid = [0.0, 0.3 / lam, 0.9 / lam, 1.0 / lam, 1.5 / lam]
    measures = ["nalpha", "alpha", "pagerank"]
    kw = dict(min_rebroadcasts=0, entropy_threshold=None)
    combined = correlation_sweep(g, log, measures, grid, "global", **kw).entries
    singles = [e for m in measures
               for e in correlation_sweep(g, log, [m], grid, "global", **kw).entries]
    names = ["normalized_alpha", "alpha", "pagerank"]
    singles.sort(key=lambda e: (grid.index(e.alpha), names.index(e.measure)))
    assert combined == tuple(singles)
    # the undefined cells are skipped, as in the single sweeps
    assert ("alpha", 1.5 / lam) not in {(e.measure, e.alpha) for e in combined}
    assert ("normalized_alpha", 1.0 / lam) not in {(e.measure, e.alpha) for e in combined}
    # alpha > 1 is skipped by the alpha measure, then rejected by the normalized one
    with pytest.raises(ValueError, match="normalized alpha centrality requires"):
        correlation_sweep(g, log, ["alpha", "nalpha"], [1.5], "global", **kw)


def test_correlation_sweep_computes_each_alpha_series_once(monkeypatch):
    from flowrank import centrality, spectral_radius
    calls = []
    fn = centrality.alpha_centrality
    eigen = centrality.eigenvector_centrality

    def counted(g, *args, **kwargs):
        calls.append(kwargs.get("alpha"))
        return fn(g, *args, **kwargs)

    def counted_eigen(g, *args, **kwargs):
        calls.append("eigenvector")
        return eigen(g, *args, **kwargs)

    monkeypatch.setattr(centrality, "alpha_centrality", counted)
    monkeypatch.setattr(centrality, "eigenvector_centrality", counted_eigen)
    g, log = _sweep_fixture()
    lam = spectral_radius(g)
    grid = [0.2 / lam, 0.5 / lam, 0.8 / lam]
    report = correlation_sweep(g, log, ["nalpha", "alpha", "eigenvector", "pagerank"], grid,
                               "global", min_rebroadcasts=0, entropy_threshold=None)
    assert len(report.entries) == 12
    # the measure without an alpha is scored once per grid, at its first alpha
    assert calls == [grid[0], "eigenvector", *grid[1:]]


def test_correlation_sweep_counts_active_users_only_for_the_screen(monkeypatch):
    counted = []
    user_ids = EventLog.user_ids
    monkeypatch.setattr(EventLog, "user_ids", lambda log: counted.append(log) or user_ids(log))
    g, log = _sweep_fixture()
    kw = dict(min_rebroadcasts=0, window=5, p_cut=1.0)
    correlation_sweep(g, log, ["indegree"], [0.0], "global", **kw)
    correlation_sweep(g, log, ["indegree"], [0.0], "local", **dict(kw, p_cut=None))
    correlation_sweep(g, log, ["indegree"], [0.0], "local", active_users=60, **kw)
    assert counted == []
    # the spam filter drops items here; the screen still counts the log as read
    assert len(spam_filter(log)) < len(log)
    correlation_sweep(g, log, ["indegree"], [0.0], "local", **kw)
    assert counted == [log]


def test_correlation_sweep_degenerate_cohort():
    g = build_graph(edges_ring(6))
    # three submitters, two items each, no rebroadcasts: all sizes equal 1
    recs = []
    for i, u in enumerate((0, 2, 4)):
        recs += [_submit(f"i{i}a", u, 0), _submit(f"i{i}b", u, 5)]
    log = from_records(recs)
    with pytest.raises(NumericalError, match="degenerate cohort"):
        correlation_sweep(g, log, ["indegree"], [0.0], "global",
                          min_rebroadcasts=0, entropy_threshold=None)


def test_correlation_sweep_small_cohort_errors():
    g = build_graph(edges_ring(6))
    recs = [_submit("a", 0, 0), _submit("b", 0, 5)]
    log = from_records(recs)
    with pytest.raises(NumericalError, match="cohort too small"):
        correlation_sweep(g, log, ["indegree"], [0.0], "global",
                          min_rebroadcasts=0, entropy_threshold=None)


def test_correlation_sweep_validates_inputs():
    g, log = _sweep_fixture()
    with pytest.raises(ValueError, match="influence_kind"):
        correlation_sweep(g, log, ["indegree"], [0.0], "both")
    with pytest.raises(ValueError, match="unknown measure"):
        correlation_sweep(g, log, ["betweenness"], [0.0], "global")


# ------------------------------------------------------------------- synthesis

def test_synthesize_is_deterministic_and_ordered():
    g = build_graph(random_sc_edges(40, 160, seed=6))
    a = synthesize_event_log(g, [1, 2], 3, 0.4, rng_seed=9)
    b = synthesize_event_log(g, [1, 2], 3, 0.4, rng_seed=9)
    assert a.item_ids() == b.item_ids()
    for iid in a.item_ids():
        ia, ib = a.get(iid), b.get(iid)
        assert np.array_equal(ia.rebroadcast_users, ib.rebroadcast_users)
        assert np.array_equal(ia.rebroadcast_times, ib.rebroadcast_times)
    c = synthesize_event_log(g, [1, 2], 3, 0.4, rng_seed=10)
    assert any(not np.array_equal(a.get(i).rebroadcast_users, c.get(i).rebroadcast_users)
               for i in a.item_ids())


def test_synthesized_cascades_extract_back_exactly():
    # generator and extractor must agree on membership item by item
    g = build_graph(random_sc_edges(50, 250, seed=8))
    rev = g.reverse()
    submitters = [0, 7, 19, 33]
    log = synthesize_event_log(g, submitters, 3, 0.45, rng_seed=21)
    trial = 0
    for submitter in submitters:
        for _ in range(3):
            item_id = f"item{trial:04d}"
            rounds = cascade_rounds(rev, {submitter}, 0.45, 21, trial)
            want = set(np.flatnonzero(rounds >= 0).tolist())
            got = extract_cascade(log, g, item_id).members
            assert set(got) == want
            trial += 1


def test_synthesize_respects_submit_spacing():
    g = build_graph(edges_ring(5))
    log = synthesize_event_log(g, [0, 1], 2, 1.0, rng_seed=0,
                               start_time=500, item_spacing=1000)
    times = [log.get(i).submit_time for i in log.item_ids()]
    assert times == [500, 1500, 2500, 3500]
