"""PageRank, Alpha-Centrality and its normalized variant, degree and
eigenvector centralities, and deterministic ranking.

PageRank is the conservative process's steady state and
Alpha-Centrality the non-conservative process's accumulated series:
both are thin wrappers over the engine in dynamics.py, adding only
their own argument checks, defaults and the spectral guard.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (CONSERVATIVE, NONCONSERVATIVE, ProcessConfig,
                       conservative_steady_state, nonconservative_accumulate)
from .errors import NumericalError
from .graph import DanglingPolicy, DirectedGraph, _as_weight_vector, indegree_vector
from .spectral import power_iteration, spectral_radius

MEASURES = ("pagerank", "alpha", "normalized_alpha", "indegree", "outdegree",
            "eigenvector")

SPECTRAL_GUARD = 1e-6


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one measure.

    starting_vector records which s produced the scores ("uniform",
    "indegree", or "custom"); alpha is None for measures without a
    parameter.
    """

    measure: str
    alpha: float | None
    values: np.ndarray
    starting_vector: str


@dataclass(frozen=True)
class Ranking:
    """Nodes in descending-score order; ties broken by ascending id.

    ranks[v] is the 1-based position of node v in `order`.
    """

    order: np.ndarray
    ranks: np.ndarray
    tie_policy: str = "descending score, ties by ascending node id"


def _starting_vector(g: DirectedGraph, s, default: str) -> tuple[np.ndarray, str]:
    if s is None:
        if default == "uniform":
            return np.full(g.node_count, 1.0 / g.node_count), "uniform"
        return indegree_vector(g), "indegree"
    return _as_weight_vector(g, s), "custom"


def pagerank(g: DirectedGraph, s=None, alpha: float = 0.85, tol: float = 1e-9,
             max_iter: int = 10_000,
             dangling_policy: DanglingPolicy = DanglingPolicy.UNIFORM_TELEPORT) -> CentralityScores:
    """Damped fixed point pr = (1-alpha) s + alpha pr D^-1 A.

    The conservative steady state with delta = 0 and x0 = s. s must be
    a nonnegative unit-L1 vector (uniform by default); the result then
    keeps unit L1 norm to rounding.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("pagerank requires alpha in [0, 1)")
    sv, origin = _starting_vector(g, s, "uniform")
    if sv.min() < 0.0 or abs(sv.sum() - 1.0) > 1e-9:
        raise ValueError("starting vector must be nonnegative with unit L1 norm")
    cfg = ProcessConfig(CONSERVATIVE, alpha, 0.0, dangling_policy)
    x = conservative_steady_state(g, sv, cfg, tol=tol, max_iter=max_iter)
    return CentralityScores("pagerank", alpha, x, origin)


def alpha_centrality(g: DirectedGraph, s=None, alpha: float = 0.0,
                     tol: float = 1e-9, max_iter: int = 100_000,
                     guard: float = SPECTRAL_GUARD) -> CentralityScores:
    """Attenuated influence series cr = s (I - alpha A)^-1.

    The non-conservative accumulation with delta = 0 and x0 = s; s
    defaults to the indegree vector (e A). Defined below the spectral
    bound only; alpha*lambda1 >= 1 - guard is rejected because the series
    no longer converges at numerically usable rates there.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    sv, origin = _starting_vector(g, s, "indegree")
    if alpha * spectral_radius(g) >= 1.0 - guard:
        raise NumericalError("beyond spectral bound; use normalized variant")
    x = nonconservative_accumulate(g, sv, ProcessConfig(NONCONSERVATIVE, alpha),
                                   tol=tol, max_iter=max_iter)
    return CentralityScores("alpha", alpha, x, origin)


def _l1_normalized(values: np.ndarray) -> np.ndarray:
    total = float(np.abs(values).sum())
    if total == 0.0:
        raise NumericalError("centrality vanished; nothing to normalize")
    return values / total


def _below_guard_band(g: DirectedGraph, alpha: float, guard: float) -> bool:
    # which side of 1/lambda1 the normalized variant is on; inside the band it is undefined
    rho = alpha * spectral_radius(g)
    if abs(rho - 1.0) <= guard:
        raise NumericalError("at spectral singularity")
    return rho < 1.0


def normalized_alpha_centrality(g: DirectedGraph, s=None, alpha: float = 0.0,
                                tol: float = 1e-9,
                                guard: float = SPECTRAL_GUARD) -> CentralityScores:
    """L1-normalized Alpha-Centrality, defined across the spectral bound.

    Subcritical alpha normalizes the convergent series; supercritical
    alpha returns the L1-normalized dominant left eigenvector, the limit
    of normalized truncated sums (so its ranking matches eigenvector
    centrality and is alpha-independent). Alphas within the relative
    guard band of 1/lambda1 are rejected.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("normalized alpha centrality requires alpha in [0, 1]")
    _, origin = _starting_vector(g, s, "indegree")
    if _below_guard_band(g, alpha, guard):
        cr = alpha_centrality(g, s, alpha, tol=tol, guard=guard)
        return CentralityScores("normalized_alpha", alpha, _l1_normalized(cr.values), origin)
    est = power_iteration(g, tol=min(tol, 1e-10))
    return CentralityScores("normalized_alpha", alpha, est.eigvec, origin)


def eigenvector_centrality(g: DirectedGraph, tol: float = 1e-10,
                           max_iter: int = 5000) -> CentralityScores:
    """L1-normalized dominant left eigenvector of A."""
    est = power_iteration(g, tol=tol, max_iter=max_iter)
    return CentralityScores("eigenvector", None, est.eigvec, "uniform")


def degree_centrality(g: DirectedGraph, direction: str = "in") -> CentralityScores:
    """Raw in- or out-degree as a score vector."""
    if direction == "in":
        return CentralityScores("indegree", None, indegree_vector(g), "indegree")
    if direction == "out":
        return CentralityScores("outdegree", None, g.out_degree.astype(np.float64), "outdegree")
    raise ValueError("direction must be 'in' or 'out'")


def rank(scores: CentralityScores) -> Ranking:
    """Deterministic ranking: descending score, ties by ascending id."""
    values = np.asarray(scores.values, dtype=np.float64)
    n = values.shape[0]
    order = np.lexsort((np.arange(n), -values))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return Ranking(order=order, ranks=ranks)
