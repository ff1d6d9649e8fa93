"""Graph construction, CSR operators vs dense oracles, and edge-list IO."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from flowrank import (
    DanglingPolicy,
    DirectedGraph,
    InputFormatError,
    adjacency_apply,
    build_graph,
    indegree_vector,
    load_edge_list,
    replication_apply,
    transfer_apply,
    write_edge_list,
)
from flowrank.graph import MAX_NODES

from oracles import (
    dense_adjacency,
    dense_replication,
    dense_transfer,
    edges_chain,
    edges_ring,
    edges_star,
    random_edges,
    random_sc_edges,
)


def _rand_vec(n, seed):
    return np.random.default_rng(seed).random(n) + 0.1


# ---------------------------------------------------------------- construction

def test_build_graph_sorts_dedups_and_counts_degrees():
    g = build_graph([(2, 0), (0, 1), (0, 1), (1, 2), (0, 2)])
    assert g.node_count == 3
    assert g.edge_count == 4
    assert list(g.out_neighbors(0)) == [1, 2]
    assert list(g.in_neighbors(2)) == [0, 1]
    assert list(g.out_degree) == [2, 1, 1]
    assert list(g.in_degree) == [1, 1, 2]


def test_build_graph_drops_self_loops_keeps_isolated_tail():
    g = build_graph([(0, 0), (0, 1)], node_count=4)
    assert g.edge_count == 1
    assert list(g.out_neighbors(0)) == [1]
    assert list(g.out_degree) == [1, 0, 0, 0]


def test_build_graph_arrays_are_read_only():
    g = build_graph(edges_ring(4))
    with pytest.raises(ValueError, match="read-only"):
        g.out_indices[0] = 2
    for a in (g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
              g.out_degree, g.in_degree):
        assert not a.flags.writeable
    assert not g.reverse().out_indices.flags.writeable


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="empty graph"):
        build_graph([])
    with pytest.raises(ValueError, match="negative"):
        build_graph([(0, -1)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 5)], node_count=3)


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, 1e30])
def test_build_graph_rejects_non_integral_ids(bad):
    with pytest.raises(ValueError, match="is not an int64 integer"):
        build_graph([(0, bad), (1, 2)])
    with pytest.raises(ValueError, match="is not an int64 integer"):
        build_graph(np.array([[0.0, bad], [1.0, 2.0]]))
    assert build_graph([(0, 1.0), (1, 2.0)]).edges().tolist() == [[0, 1], [1, 2]]


def _unique_lexsort_build(edges, node_count):
    # the construction build_graph used before its sorted 1-D keys, kept as the oracle
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    if node_count is None:
        node_count = int(arr.max()) + 1
    arr = np.unique(arr, axis=0) if arr.size else arr
    src, dst = arr[:, 0], arr[:, 1]
    out_degree = np.bincount(src, minlength=node_count).astype(np.int64)
    in_degree = np.bincount(dst, minlength=node_count).astype(np.int64)
    out_indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(out_degree, out=out_indptr[1:])
    in_indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(in_degree, out=in_indptr[1:])
    in_indices = src[np.lexsort((src, dst))]
    return node_count, [out_indptr, dst.copy(), in_indptr, in_indices, out_degree, in_degree]


@settings(max_examples=100, deadline=None)
@given(edges=hst.lists(hst.tuples(hst.integers(0, 15), hst.integers(0, 15)), max_size=60),
       extra=hst.one_of(hst.none(), hst.integers(0, 4)))
def test_build_graph_matches_unique_lexsort_construction(edges, extra):
    edges = edges + edges[: len(edges) // 3]            # duplicates
    top = max((max(e) for e in edges), default=0)
    node_count = None if extra is None else top + 1 + extra
    if node_count is None and all(a == b for a, b in edges):
        with pytest.raises(ValueError, match="empty graph"):
            build_graph(edges)
        return
    g = build_graph(edges, node_count=node_count)
    n, expected = _unique_lexsort_build(edges, node_count)
    assert g.node_count == n
    got = [g.out_indptr, g.out_indices, g.in_indptr, g.in_indices, g.out_degree, g.in_degree]
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_build_graph_rejects_node_counts_above_the_limit():
    # sort keys are src * n + dst, so n * n must fit in int64; checked before any allocation
    with pytest.raises(ValueError, match="exceeds the limit"):
        build_graph([(0, MAX_NODES)])
    with pytest.raises(ValueError, match="exceeds the limit"):
        build_graph([(0, 1)], node_count=MAX_NODES + 1)
    assert (MAX_NODES - 1) * MAX_NODES + MAX_NODES - 1 <= np.iinfo(np.int64).max
    assert (MAX_NODES + 1) ** 2 - 1 > np.iinfo(np.int64).max


def test_edges_round_trips_and_reverse_swaps_direction():
    raw = random_sc_edges(30, 60, seed=1)
    g = build_graph(raw)
    listed = set(map(tuple, g.edges()))
    assert listed == set(raw)
    rg = g.reverse()
    assert set(map(tuple, rg.edges())) == {(b, a) for a, b in raw}
    assert np.array_equal(rg.out_degree, g.in_degree)


# ------------------------------------------------------------------- operators

@pytest.mark.parametrize("edges,n", [
    (edges_chain(5), 5),
    (edges_ring(7), 7),
    (edges_star(5), 6),
    (random_edges(50, 200, seed=3), 50),
    (random_sc_edges(1000, 4000, seed=9), 1000),
])
def test_adjacency_apply_matches_dense(edges, n):
    g = build_graph(edges, node_count=n)
    A = dense_adjacency(edges, n)
    x = _rand_vec(n, 11)
    assert np.max(np.abs(adjacency_apply(g, x) - x @ A)) < 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_transfer_apply_matches_dense(delta, policy):
    edges = random_edges(40, 100, seed=5)  # leaves some dangling nodes
    g = build_graph(edges, node_count=40)
    T = dense_transfer(dense_adjacency(edges, 40), delta, policy)
    x = _rand_vec(40, 7)
    assert np.max(np.abs(transfer_apply(g, x, delta, policy) - x @ T)) < 1e-12


@pytest.mark.parametrize("delta,alpha", [(0.0, 0.5), (0.2, 0.4), (0.5, 1.0)])
def test_replication_apply_matches_dense(delta, alpha):
    edges = random_sc_edges(35, 90, seed=13)
    g = build_graph(edges)
    R = dense_replication(dense_adjacency(edges, 35), delta, alpha)
    x = _rand_vec(35, 17)
    assert np.max(np.abs(replication_apply(g, x, delta, alpha) - x @ R)) < 1e-12


def test_transfer_is_row_stochastic_hence_mass_conserving():
    edges = random_edges(60, 150, seed=21)
    g = build_graph(edges, node_count=60)
    x = _rand_vec(60, 23)
    for policy in DanglingPolicy:
        y = transfer_apply(g, x, 0.25, policy)
        assert abs(y.sum() - x.sum()) < 1e-12 * x.sum()


@settings(max_examples=200, deadline=None)
@given(n=hst.integers(1, 15), data=hst.data(), delta=hst.floats(0.0, 1.0),
       policy=hst.sampled_from(list(DanglingPolicy)))
def test_transfer_apply_conserves_mass(n, data, delta, policy):
    # few edges leave many nodes dangling; every policy must keep their mass too
    edges = data.draw(hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1)),
                                max_size=3 * n))
    g = build_graph(edges, node_count=n)
    x = np.asarray(data.draw(hst.lists(hst.floats(0.0, 1e6, allow_subnormal=False),
                                       min_size=n, max_size=n)))
    y = transfer_apply(g, x, delta, policy)
    assert (y >= 0.0).all()
    assert abs(y.sum() - x.sum()) <= 1e-12 * x.sum()


def test_operators_are_linear():
    g = build_graph(random_sc_edges(30, 80, seed=31))
    x, y = _rand_vec(30, 1), _rand_vec(30, 2)
    lhs = adjacency_apply(g, 2.0 * x + 3.0 * y)
    rhs = 2.0 * adjacency_apply(g, x) + 3.0 * adjacency_apply(g, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_adjacency_on_reverse_is_transpose_product():
    edges = random_sc_edges(25, 70, seed=37)
    g = build_graph(edges)
    A = dense_adjacency(edges, 25)
    x = _rand_vec(25, 41)
    assert np.max(np.abs(adjacency_apply(g.reverse(), x) - x @ A.T)) < 1e-12


def test_replication_rejects_pure_self_replication():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError, match="undefined self-replication"):
        replication_apply(g, np.ones(3), delta=0.5, alpha=0.0)


def test_indegree_vector():
    g = build_graph(edges_star(4))
    assert np.array_equal(indegree_vector(g), [0.0, 1.0, 1.0, 1.0, 1.0])


def test_apply_rejects_bad_vectors():
    g = build_graph(edges_ring(3))
    with pytest.raises(ValueError):
        adjacency_apply(g, np.ones(4))
    with pytest.raises(ValueError):
        adjacency_apply(g, np.array([1.0, np.nan, 0.0]))


# -------------------------------------------------------------------------- IO

def test_load_edge_list_int_mode(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# comment\n0\t1\n\n1\t2\n2\t0\n")
    g, names = load_edge_list(p)
    assert names is None
    assert set(map(tuple, g.edges())) == {(0, 1), (1, 2), (2, 0)}


def test_load_edge_list_label_mode_writes_sidecar(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("alice\tbob\nbob\tcarol\ncarol\talice\n")
    g, names = load_edge_list(p)
    assert names == ["alice", "bob", "carol"]
    sidecar = tmp_path / "g.tsv.nodemap.tsv"
    assert sidecar.exists()
    lines = sidecar.read_text().strip().splitlines()
    assert lines[0] == "alice\t0"
    pairs = {(names[s], names[d]) for s, d in map(tuple, g.edges())}
    assert pairs == {("alice", "bob"), ("bob", "carol"), ("carol", "alice")}


def test_load_edge_list_reports_offending_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("0\t1\n0 1\n")
    with pytest.raises(InputFormatError) as ei:
        load_edge_list(p)
    assert ":2:" in str(ei.value)


@pytest.mark.parametrize("big", ["99999999999999999999", "1000000000000", str(MAX_NODES)])
def test_load_edge_list_rejects_ids_at_the_limit(tmp_path, big):
    p = tmp_path / "big.tsv"
    p.write_text(f"0\t1\n{big}\t1\n")
    with pytest.raises(InputFormatError, match=f":2: node id {big} is not below the limit"):
        load_edge_list(p)


def test_load_edge_list_missing_file(tmp_path):
    with pytest.raises(InputFormatError):
        load_edge_list(tmp_path / "nope.tsv")


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
def test_write_edge_list_rejects_non_integral_ids(tmp_path, bad):
    with pytest.raises(ValueError, match="is not an int64 integer"):
        write_edge_list(tmp_path / "bad.tsv", [(0, bad), (1, 2)])
    write_edge_list(tmp_path / "ok.tsv", [(0, 1.0), (1, 2.0)])
    assert (tmp_path / "ok.tsv").read_text() == "0\t1\n1\t2\n"


def test_write_then_load_round_trip(tmp_path):
    g = build_graph(random_sc_edges(20, 50, seed=43))
    p = tmp_path / "rt.tsv"
    write_edge_list(p, g.edges())
    g2, _ = load_edge_list(p)
    assert np.array_equal(g.out_indptr, g2.out_indptr)
    assert np.array_equal(g.out_indices, g2.out_indices)
