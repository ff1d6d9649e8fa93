"""Reference answers and output checks, written without flowrank.

Spectral and centrality references come from scipy.sparse; influence
references from plain replays of the generated event log; outbreak
sizes above threshold from bond percolation with scipy's graph search.
A reference is built once per seed, outside the timed region, and
cached. Each check raises CheckFailed with the first discrepancy it
finds.
"""
from __future__ import annotations

import io
import json
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as sla

from inputs import Graph, Item, followers_csr

# --min-items, --min-rebroadcasts, --window and --entropy-threshold as the CLI
# defaults for correlate; influence uses min_items=2, min_rebroadcasts=0.
MIN_ITEMS = 2
MIN_REBROADCASTS = 100
WINDOW = 100
ENTROPY_BITS = 3.0
R_TOL = 1e-6          # Pearson r against the scipy reference
RESIDUAL_TOL = 1e-8   # relative L1 residual of printed centrality vectors (about 5e-10 seen)
# Threshold rows at or above OUTBREAK_FROM/lambda1 must match a bond-percolation
# reference: within OUTBREAK_Z combined stderrs plus OUTBREAK_ABS_TOL.
OUTBREAK_FROM = 4.0
OUTBREAK_REALISATIONS = 10
OUTBREAK_SEEDS = 6    # seed nodes per percolated graph
OUTBREAK_Z = 4.0
OUTBREAK_ABS_TOL = 2e-3


class CheckFailed(Exception):
    """An output disagrees with the reference."""


def adjacency(g: Graph) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(g.src.size), (g.src, g.dst)), shape=(g.nodes, g.nodes))


def lambda1(a: sp.csr_matrix) -> float:
    """Dominant eigenvalue magnitude by ARPACK."""
    return float(abs(sla.eigs(a, k=1, which="LM", return_eigenvectors=False)[0]))


def alpha_series(at: sp.csr_matrix, s: np.ndarray, alpha: float) -> np.ndarray:
    """x = s (I - alpha A)^-1 as a Neumann series of scipy products (alpha*lambda1 < 1)."""
    x = s.copy()
    term = s.copy()
    for _ in range(10_000):
        term = alpha * (at @ term)
        x += term
        if np.abs(term).sum() <= 1e-15 * np.abs(x).sum():
            return x
    raise RuntimeError("reference alpha series did not converge")


def pagerank(a: sp.csr_matrix, alpha: float) -> np.ndarray:
    """Damped fixed point with uniform teleport and dangling mass spread uniformly."""
    n = a.shape[0]
    out = np.asarray(a.sum(axis=1)).ravel()
    dangling = out == 0
    pt = (sp.diags(np.where(dangling, 0.0, 1.0 / np.maximum(out, 1))) @ a).T.tocsr()
    s = np.full(n, 1.0 / n)
    x = s.copy()
    for _ in range(10_000):
        nxt = (1.0 - alpha) * s + alpha * (pt @ x + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() <= 1e-15:
            return nxt
        x = nxt
    raise RuntimeError("reference pagerank did not converge")


def _entropy_bits(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _not_spam(it: Item) -> bool:
    user_h = _entropy_bits(np.unique(it.users, return_counts=True)[1])
    gaps = np.diff(it.times)
    bins = np.floor(np.log2(1.0 + gaps.astype(np.float64)))
    interval_h = _entropy_bits(np.unique(bins, return_counts=True)[1]) if gaps.size else 0.0
    return user_h > ENTROPY_BITS and interval_h > ENTROPY_BITS


def local_influence(g: Graph, items: list[Item]) -> dict[int, float]:
    """Mean follower count among each item's first WINDOW rebroadcasts, per submitter."""
    fptr, fidx = followers_csr(g)
    followers = {s: set(fidx[fptr[s]:fptr[s + 1]].tolist())
                 for s in {it.submitter for it in items}}
    counts: dict[int, list[int]] = {}
    for it in items:
        if it.users.size >= MIN_REBROADCASTS and _not_spam(it):
            order = np.lexsort((it.users, it.times))
            early = it.users[order][:WINDOW].tolist()
            counts.setdefault(it.submitter, []).append(
                sum(u in followers[it.submitter] for u in early))
    return {u: float(np.mean(c)) for u, c in counts.items() if len(c) >= MIN_ITEMS}


def cascade_size(ptr, idx, it: Item) -> int:
    """Follower-connected closure of one item, replayed with a Python set.

    ptr/idx is the CSR of the accounts each user follows; a rebroadcaster
    joins when it follows a member that joined before it.
    """
    members = {it.submitter}
    for u in it.users.tolist():
        if u not in members and any(p in members for p in idx[ptr[u]:ptr[u + 1]].tolist()):
            members.add(u)
    return len(members)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xd, yd = x - x.mean(), y - y.mean()
    return float((xd * yd).sum() / math.sqrt((xd * xd).sum() * (yd * yd).sum()))


def grid(fractions, lam: float) -> list[str]:
    """Grid points as the CLI receives them: fractions of 1/lambda1, 6 digits."""
    return [f"{f / lam:.6g}" for f in fractions]


def _rows(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def outbreak_reference(g: Graph, p: float, rng: np.random.Generator) -> tuple[float, float]:
    """Mean reached fraction, and its stderr, of an independent cascade at p.

    A cascade from one seed reaches what the seed reaches in the graph
    with each edge kept with probability p (bond percolation), so each
    realisation keeps edges at random and runs breadth-first searches
    from uniform seed nodes. The stderr is taken over realisation means,
    because searches in one realisation share its edges.
    """
    means = []
    for _ in range(OUTBREAK_REALISATIONS):
        keep = rng.random(g.src.size) < p
        a = sp.csr_matrix((np.ones(int(keep.sum()), dtype=np.int8), (g.src[keep], g.dst[keep])),
                          shape=(g.nodes, g.nodes))
        reached = [csgraph.breadth_first_order(a, int(s), return_predecessors=False).size
                   for s in rng.integers(0, g.nodes, OUTBREAK_SEEDS)]
        means.append(np.mean(reached) / g.nodes)
    return float(np.mean(means)), float(np.std(means, ddof=1) / math.sqrt(len(means)))


def threshold_reference(g: Graph, fractions, points: list[str], seed: int) -> dict:
    """Percolation references for the grid points at or above OUTBREAK_FROM/lambda1."""
    rng = np.random.default_rng([seed, 98])
    return {"outbreak": [[i, *outbreak_reference(g, float(points[i]), rng)]
                         for i, f in enumerate(fractions) if f >= OUTBREAK_FROM]}


def check_threshold(text: str, points: list[str], ref: dict) -> None:
    """Rows follow the grid, lie in [0, 1], never fall as p grows, and match percolation."""
    _need(text.startswith("transmissibility,mean_fraction,stderr\n"), "threshold header")
    rows = _rows(text)
    _need(rows.shape == (len(points), 3), f"threshold rows {rows.shape}")
    _need(np.array_equal(rows[:, 0], np.asarray(points, dtype=float)), "threshold grid")
    frac, stderr = rows[:, 1], rows[:, 2]
    _need(bool(np.all((frac >= 0) & (frac <= 1))), "outbreak fraction outside [0, 1]")
    _need(bool(np.all(np.diff(frac) >= 0)), "outbreak fraction not monotone in p")
    _need(bool(np.all(stderr >= 0)), "negative stderr")
    _need(frac[0] < 0.01 and frac[-1] > 0.5, "no epidemic threshold inside the grid")
    for i, mean, se in ref["outbreak"]:
        tol = OUTBREAK_Z * math.hypot(stderr[i], se) + OUTBREAK_ABS_TOL
        _need(abs(frac[i] - mean) <= tol, f"outbreak fraction {frac[i]} at p={points[i]} vs "
              f"percolation reference {mean:.6f} (tolerance {tol:.3g})")


def correlate_reference(g: Graph, items: list[Item], alphas: list[str]) -> dict:
    """Influence and centrality scores at every submitter, per alpha."""
    a = adjacency(g)
    at = a.T.tocsr()
    s = np.asarray(a.sum(axis=0)).ravel()   # in-degree, the default starting vector
    influence = local_influence(g, items)
    users = np.asarray(sorted(influence), dtype=np.int64)
    ref = {"influence": {str(u): influence[u] for u in users.tolist()},
           "alpha": [], "pagerank": []}
    for text in alphas:
        alpha = float(text)
        ref["alpha"].append(alpha_series(at, s, alpha)[users].tolist())
        ref["pagerank"].append(pagerank(a, alpha)[users].tolist())
    ref["users"] = users.tolist()
    return ref


def check_correlate(text: str, alphas: list[str], measures: list[str], ref: dict) -> None:
    """Each Pearson r matches one recomputed over the reported cohort."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"correlate output is not JSON: {exc}") from None
    cohort = out["cohort_users"]
    index = {u: i for i, u in enumerate(ref["users"])}
    _need(len(cohort) >= 3, "cohort under 3 users")
    _need(all(u in index for u in cohort), "cohort user without qualifying items")
    pos = np.asarray([index[u] for u in cohort])
    infl = np.asarray([ref["influence"][str(u)] for u in cohort])
    names = {"nalpha": "normalized_alpha"}
    expected = [(float(a), names.get(m, m)) for a in alphas for m in measures]
    got = [(e["alpha"], e["measure"]) for e in out["entries"]]
    _need(got == expected, f"correlate cells {got[:3]}... differ from the grid")
    for k, e in enumerate(out["entries"]):
        i = k // len(measures)
        # Pearson r is scale-free, so normalized alpha shares alpha's reference
        vec = ref["pagerank"][i] if e["measure"] == "pagerank" else ref["alpha"][i]
        r = pearson(np.asarray(vec)[pos], infl)
        _need(e["cohort_size"] == len(cohort), "cohort_size differs from cohort_users")
        _need(abs(e["pearson_r"] - r) <= R_TOL,
              f"pearson_r {e['pearson_r']} vs reference {r} at {e['alpha']} {e['measure']}")


def influence_reference(g: Graph, items: list[Item], sample: int, seed: int) -> dict:
    """Expected users and item counts, and replayed global influence for a sample."""
    per_user: dict[int, list[Item]] = {}
    for it in items:
        per_user.setdefault(it.submitter, []).append(it)
    users = sorted(u for u, its in per_user.items() if len(its) >= MIN_ITEMS)
    ptr = np.zeros(g.nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(g.src, minlength=g.nodes), out=ptr[1:])
    rng = np.random.default_rng([seed, 99])
    chosen = sorted(rng.choice(users, size=min(sample, len(users)), replace=False).tolist())
    replayed = {str(u): float(np.mean([cascade_size(ptr, g.dst, it) for it in per_user[u]]))
                for u in chosen}
    return {"n_items": {str(u): len(per_user[u]) for u in users}, "replayed": replayed}


def check_influence(text: str, ref: dict) -> None:
    """Every qualifying submitter appears once; sampled means match the replay."""
    _need(text.startswith("user_id,n_items,influence,significance_p\n"), "influence header")
    got = {}
    for line in text.splitlines()[1:]:
        user, n_items, value, p = line.split(",")
        _need(p == "", "global influence carries a significance p")
        got[user] = (int(n_items), float(value))
    _need(list(got) == sorted(ref["n_items"], key=int) and len(got) == text.count("\n") - 1,
          "influence rows are not the qualifying submitters in ascending order")
    for user, n in ref["n_items"].items():
        _need(got[user][0] == n, f"n_items for user {user}")
    for user, mean in ref["replayed"].items():
        _need(abs(got[user][1] - mean) <= 1e-9 * mean, f"influence of {user}: "
              f"{got[user][1]} vs replayed {mean}")


def check_centrality(text: str, g: Graph, alphas: list[str]) -> None:
    """Each block is an L1-unit solution of c (I - alpha A) ~ s, ranked by score."""
    _need(text.startswith("alpha,node,score,rank\n"), "centrality header")
    rows = _rows(text)
    n = g.nodes
    _need(rows.shape == (n * len(alphas), 4), f"centrality rows {rows.shape}")
    a = adjacency(g)
    at = a.T.tocsr()
    s = np.asarray(a.sum(axis=0)).ravel()
    for i, text_alpha in enumerate(alphas):
        block = rows[i * n:(i + 1) * n]
        alpha = float(text_alpha)
        _need(bool(np.all(block[:, 0] == alpha)), f"alpha column at block {i}")
        _need(np.array_equal(block[:, 1], np.arange(n)), f"node column at block {i}")
        c = block[:, 2]
        _need(bool(np.all(c >= 0)) and abs(c.sum() - 1.0) <= 1e-9,
              f"scores not L1-unit at {alpha}")
        r = c - alpha * (at @ c)
        resid = np.abs(r - (r.sum() / s.sum()) * s).sum() / np.abs(r).sum()
        _need(resid <= RESIDUAL_TOL, f"residual {resid:.3g} at alpha {alpha}")
        ranks = block[:, 3].astype(np.int64)
        _need(np.array_equal(np.sort(ranks), np.arange(1, n + 1)), f"ranks at {alpha}")
        by_rank = np.empty(n)
        by_rank[ranks - 1] = c
        _need(bool(np.all(np.diff(by_rank) <= 0)), f"ranks not by descending score at {alpha}")
