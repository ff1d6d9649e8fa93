"""lambda1 is computed once per graph object."""
import gc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

from flowrank import (
    ConvergenceError,
    NumericalError,
    build_graph,
    correlation_sweep,
    epidemic_threshold,
    influence_cohort,
    is_acyclic,
    is_strongly_connected,
    load_edge_list,
    read_event_log,
    spectral_radius,
)
from flowrank import spectral

DATA = Path(__file__).parent / "data"


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(spectral, name)

    def counted(*args, **kwargs):
        calls.append(None)   # no reference to the arguments: graphs must stay collectable
        return fn(*args, **kwargs)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def test_correlation_sweep_solves_lambda1_once(monkeypatch):
    # each lambda1 solve checks acyclicity first, then runs power iteration
    acyclic_calls = _count_calls(monkeypatch, "is_acyclic")
    power_calls = _count_calls(monkeypatch, "power_iteration")
    g, _ = load_edge_list(DATA / "pipeline_graph.tsv")
    assert g.node_count > spectral.DENSE_CAP   # lambda1 comes from power iteration
    log = read_event_log(DATA / "pipeline_events.csv")
    lam = spectral_radius(g)
    cohort = influence_cohort(log, g, "global", min_rebroadcasts=5, entropy_threshold=3.0)
    report = correlation_sweep(g, cohort, ["nalpha", "alpha", "pagerank"],
                               [0.1 / lam, 0.2 / lam, 0.3 / lam])
    assert len(report.entries) == 9
    assert (len(acyclic_calls), len(power_calls)) == (1, 1)

    # another object with the same edges, and the reverse view, compute their own
    g2, _ = load_edge_list(DATA / "pipeline_graph.tsv")
    assert spectral_radius(g2) == lam
    assert (len(acyclic_calls), len(power_calls)) == (2, 2)
    spectral_radius(g.reverse())
    assert (len(acyclic_calls), len(power_calls)) == (3, 3)
    spectral_radius(g)
    assert (len(acyclic_calls), len(power_calls)) == (3, 3)

    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_epidemic_threshold_reads_acyclicity_from_the_cached_lambda1(monkeypatch):
    acyclic_calls = _count_calls(monkeypatch, "is_acyclic")
    ring = build_graph([(i, (i + 1) % 5) for i in range(5)])
    assert epidemic_threshold(ring) == pytest.approx(1.0)
    assert len(acyclic_calls) == 1     # the lambda1 solve's own check, not a second pass
    epidemic_threshold(ring)
    assert len(acyclic_calls) == 1
    chain = build_graph([(0, 1), (1, 2)])
    with pytest.raises(NumericalError, match="nilpotent adjacency"):
        epidemic_threshold(chain)
    assert len(acyclic_calls) == 2


def test_convergence_error_is_not_cached(monkeypatch):
    # complete bipartite both ways, unequal sides: eigenvalues +-sqrt(30*40)
    # tie in magnitude, so power iteration oscillates and stalls
    left, right = range(30), range(30, 70)
    g = build_graph([(a, b) for a in left for b in right] + [(b, a) for a in left for b in right])
    power_calls = _count_calls(monkeypatch, "power_iteration")
    for attempt in (1, 2):
        with pytest.raises(ConvergenceError):
            spectral_radius(g)
        assert len(power_calls) == attempt


@hst.composite
def graphs(draw):
    n = draw(hst.integers(1, 2 * spectral.DENSE_CAP))
    node = hst.integers(0, n - 1)
    pairs = draw(hst.lists(hst.tuples(node, node), max_size=3 * n))
    kind = draw(hst.sampled_from(["dag", "random", "ring"]))
    if kind == "dag":
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    elif kind == "ring":
        pairs += [(i, (i + 1) % n) for i in range(n)]
    return build_graph(pairs, n)


def _facts(g):
    out = []
    for fn in (spectral_radius, is_acyclic, is_strongly_connected):
        try:
            value = fn(g)
        except ConvergenceError:
            value = ConvergenceError
        # float.hex compares bit for bit (0.0 and -0.0 differ)
        out.append(value.hex() if isinstance(value, float) else value)
    return out


@settings(max_examples=60, deadline=None)
@given(hst.lists(graphs(), min_size=1, max_size=4))
def test_cached_facts_match_a_fresh_graph(gs):
    first = [_facts(g) for g in gs]
    second = [_facts(g) for g in gs]    # other graphs' facts computed in between
    # the reference: a fresh object for each graph, with nothing cached at all
    with mock.patch.object(spectral, "_LAMBDA1", type(spectral._LAMBDA1)()):
        fresh = [_facts(build_graph(g.edges(), g.node_count)) for g in gs]
    assert first == second == fresh
